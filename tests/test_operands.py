"""The operand memo: every notion reads a model's observers and
subautomata from one bundle, and one slot holds the bundle of one model.
The verifiers, the enforcers and ``effective_k_bound`` hold the model they
are given (``composition._operands``); the composition constructors borrow
(``composition._borrowed``) and never take the slot.

Calls on one model object, in any order and interleaved with calls on
another model, answer as calls on a fresh copy do; the memo keeps no
earlier model alive, and the CLI none after a command; an enforcer leaves
the slot holding its model, not a cut subsystem; a held bundle keeps each
whole composition, one per seeding, and never a stopped one; and threads
get the serial answers.
"""

import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from strongopacity import (
    cc_dss,
    cc_full_observer,
    cc_hat,
    cli,
    composition,
    effective_k_bound,
    enforce_inf_sso,
    enforce_scso,
    serialize_model,
    verify_inf_sso,
    verify_scso,
)

from conftest import build_nfa, delayed_leak_nfa, two_initials_nfa
from test_kernel import cyclic_nfas
from thread_check import CALLS, check


def fresh(call, nfa):
    """``call`` on a copy of ``nfa``, with no bundle kept from before."""
    composition._last = None
    return call(nfa.replace())


@given(cyclic_nfas(), cyclic_nfas(), st.data())
@settings(max_examples=40, deadline=None)
def test_calls_in_any_order_answer_as_on_fresh_copies(first, second, data):
    calls = [(model, name) for model in (first, second) for name in CALLS]
    expected = {(id(model), name): fresh(CALLS[name], model) for model, name in calls}
    for model, name in data.draw(st.permutations(calls)):
        assert CALLS[name](model) == expected[id(model), name], name


def test_the_memo_keeps_at_most_one_model():
    first, second = delayed_leak_nfa(), two_initials_nfa()
    for call in CALLS.values():
        call(first)
    gone = weakref.ref(first)
    for call in CALLS.values():
        call(second)
    del first
    assert gone() is None


def test_threads_get_the_serial_answers():
    calls, problems = check()
    assert calls and problems == []


def every_enforcer_cuts_nfa():
    """Six states that every enforcer of ``CALLS`` cuts, so that each runs
    a round on a cut subsystem."""
    return build_nfa(
        states=["0", "1", "3", "5", "7", "8"],
        events=["a", "b", "u"],
        transitions=[
            ("0", "b", "1"),
            ("1", "a", "7"),
            ("1", "u", "3"),
            ("3", "a", "5"),
            ("3", "b", "8"),
            ("5", "b", "7"),
            ("7", "b", "1"),
            ("8", "a", "0"),
            ("8", "a", "3"),
        ],
        initial=["0", "7"],
        secret=["5", "7"],
        unobservable=["u"],
    )


@pytest.mark.parametrize("name", [name for name in CALLS if name.startswith("enforce")])
def test_the_slot_holds_the_model_a_door_was_called_on(name):
    model, other = every_enforcer_cuts_nfa(), two_initials_nfa()
    outcome = CALLS[name](model)
    assert outcome.disabled  # a later round ran on a cut subsystem
    assert composition._last[0] is model
    for constructor in ("cc_hat", "cc_dss", "cc_full_observer"):
        CALLS[constructor](other)  # borrows: the slot never holds ``other``
        assert composition._last[0] is model, constructor
    verify_scso(outcome.subsystem)
    assert composition._last[0] is outcome.subsystem
    effective_k_bound(other)
    assert composition._last[0] is other


def test_a_held_bundle_keeps_each_whole_composition():
    model = two_initials_nfa()
    effective_k_bound(model)  # holds the model
    for build in (cc_hat, cc_dss, cc_full_observer):
        assert build(model) is build(model), build.__name__
    siso = cc_dss(model, secret_only=True)
    assert siso is cc_dss(model, secret_only=True)
    assert siso is not cc_dss(model)
    expected = fresh(lambda nfa: cc_dss(nfa, secret_only=True).sorted_transitions(), model)
    assert siso.sorted_transitions() == expected != cc_dss(model).sorted_transitions()


def test_enforcers_on_one_model_build_their_first_round_once(monkeypatch):
    model, lefts = every_enforcer_cuts_nfa(), []
    product = composition.product

    def counted(left, *args, **stop):
        lefts.append(left)
        return product(left, *args, **stop)

    monkeypatch.setattr(composition, "product", counted)
    assert enforce_scso(model).disabled and enforce_inf_sso(model).disabled
    acc = composition._operands(model).acc
    assert sum(left is acc for left in lefts) == 1  # every later round is on a cut subsystem


def test_a_stopped_composition_is_never_kept(monkeypatch):
    model, stopped = every_enforcer_cuts_nfa(), []
    product = composition.product

    def spied(*args, **stop):
        cc = product(*args, **stop)
        if stop:
            stopped.append(cc)
        return cc

    monkeypatch.setattr(composition, "product", spied)
    assert not verify_inf_sso(model).opaque
    whole = cc_dss(model)
    assert whole.sorted_transitions() == fresh(lambda nfa: cc_dss(nfa).sorted_transitions(), model)
    assert [len(cc.states) < len(whole.states) for cc in stopped] == [True]  # the verifier stopped early


def test_the_cli_keeps_no_model_after_a_command(tmp_path, monkeypatch, capsys):
    path, models = tmp_path / "model.json", []
    path.write_bytes(serialize_model(every_enforcer_cuts_nfa()))
    parse_model = cli.parse_model

    def parsed(data):
        model = parse_model(data)
        models.append(weakref.ref(model))
        return model

    monkeypatch.setattr(cli, "parse_model", parsed)
    assert cli.run_cli(["enforce", "--notion", "scso", str(path)]) == 0
    # ``export`` borrows: a slot that still held the enforced model would keep it.
    assert cli.run_cli(["export", "--structure", "cc-dss", "--out", str(tmp_path / "cc.dot"), str(path)]) == 0
    assert [model() for model in models] == [None, None]
