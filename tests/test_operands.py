"""The operand memo: every notion reads a model's observers and
subautomata from one bundle, and one slot holds the bundle of one model.
The verifiers, the enforcers and ``effective_k_bound`` hold the model they
are given (``composition._operands``); the composition constructors borrow
(``composition._borrowed``) and never take the slot.

Calls on one model object, in any order and interleaved with calls on
another model, answer as calls on a fresh copy do; the memo keeps no
earlier model alive, and the CLI none after a command; an enforcer leaves
the slot holding its model, not a cut subsystem; a held bundle keeps, per
composition and seeding, the one built furthest, whole or stopped, and a
later stop expands a copy of it on, building each layer once and changing
no composition handed out before; requests with any stops, in any order,
answer as fresh stopped builds do, with the kept composition itself exactly
when a fresh build stops within its layers; and threads get the serial
answers.
"""

import random
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from strongopacity import (
    accessible_part,
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
    verify_k_sso,
    verify_scso,
    verify_siso,
)
from strongopacity.search import cc_shortest_path

from conftest import build_nfa, delayed_leak_nfa, two_initials_nfa
from corpus import random_cyclic_nfa
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


def chain_nfa(length=5):
    """A secret chain and its non-secret twin, one ``a`` per layer, until
    the secret end's ``b`` leaks at layer ``length``: the secret-restart
    composition holds one state per layer."""
    s, n = [f"s{i}" for i in range(length)], [f"n{i}" for i in range(length)]
    transitions = [(x, "a", y) for chain in (s, n) for x, y in zip(chain, chain[1:])] + [(s[-1], "b", s[-1])]
    return build_nfa(states=s + n, events=["a", "b"], transitions=transitions, initial=[s[0], n[0]], secret=[s[0]])


def expanded(cc):
    """The keys of the states ``cc`` expanded: an expanded state's row of
    out-edges is a list, an unexpanded one's the empty tuple."""
    return [key for key, row in zip(cc._core.keys, cc._core.out) if isinstance(row, list)]


def spy_expansions(monkeypatch):
    """Record, for each expansion of a composition (``composition._grown``,
    which ``product`` runs too), the keys of the states it expanded."""
    calls, grown = [], composition._grown

    def spied(cc, *args, **stop):
        result, before = grown(cc, *args, **stop), set(expanded(cc))
        calls.append([key for key in expanded(result) if key not in before])
        return result

    monkeypatch.setattr(composition, "_grown", spied)
    return calls


def test_k_sso_at_3_goes_on_from_the_layers_of_k_1(monkeypatch):
    model = chain_nfa()
    calls = spy_expansions(monkeypatch)
    assert verify_k_sso(model, 1).opaque and verify_k_sso(model, 3).opaque
    hat = composition._operands(model).kept["hat"]
    assert hat._reach == 3 and [len(keys) for keys in calls] == [2, 2]  # layers 0-1, then 2-3
    keys = [key for expansion in calls for key in expansion]
    assert sorted(keys) == sorted(set(keys)) == sorted(expanded(hat))
    assert [hat._layer[hat._core.ids[key]] for key in keys] == [0, 1, 2, 3]


def test_inf_sso_reads_the_prefix_that_scso_built(monkeypatch):
    model = every_enforcer_cuts_nfa()
    expected = fresh(verify_inf_sso, model)
    assert not verify_scso(model).opaque
    kept = composition._operands(model).kept["dss"]
    assert kept._queue is not None  # stopped
    calls = spy_expansions(monkeypatch)
    assert verify_inf_sso(model) == expected
    assert calls == [[]] and composition._operands(model).kept["dss"] is kept  # one call, no state expanded


def test_scso_extends_the_prefix_that_inf_sso_built(monkeypatch):
    model = every_enforcer_cuts_nfa()
    expected = fresh(verify_scso, model)
    assert not verify_inf_sso(model).opaque
    prefix = composition._operands(model).kept["dss"]
    calls = spy_expansions(monkeypatch)
    assert verify_scso(model) == expected
    extended = composition._operands(model).kept["dss"]
    assert len(calls) == 1 and calls[0] and not set(calls[0]) & set(expanded(prefix))
    assert prefix._reach < extended._reach < float("inf")
    assert extended._core.keys[: len(prefix._core.keys)] == prefix._core.keys  # numbered as one build


@pytest.mark.parametrize(
    "stopped, build",
    [
        (lambda nfa: verify_k_sso(nfa, 1), cc_hat),
        (verify_inf_sso, cc_dss),
        (verify_scso, cc_dss),
        (verify_siso, lambda nfa: cc_dss(nfa, secret_only=True)),
    ],
)
@pytest.mark.parametrize("model", [chain_nfa, every_enforcer_cuts_nfa, delayed_leak_nfa, two_initials_nfa])
def test_a_kept_prefix_extended_to_whole_is_the_whole_composition(model, stopped, build):
    model = model()
    stopped(model)
    assert build(model).sorted_transitions() == fresh(lambda nfa: build(nfa).sorted_transitions(), model)


def test_a_composition_handed_out_is_unchanged_by_a_later_extension():
    model = chain_nfa()
    ops = composition._operands(model)
    first = composition._cc_hat(ops, max_layer=1)
    seen = (first.sorted_transitions(), list(first._layer), list(first._queue), first._reach)
    assert composition._cc_hat(ops, max_layer=3)._reach == 3 and composition._cc_hat(ops)._queue is None
    assert (first.sorted_transitions(), list(first._layer), list(first._queue), first._reach) == seen
    assert ops.kept["hat"] is cc_hat(model) is not first


def test_a_stopped_composition_is_kept_and_extended(monkeypatch):
    model, built = every_enforcer_cuts_nfa(), []
    product = composition.product

    def spied(*args, **stop):
        built.append(product(*args, **stop))
        return built[-1]

    monkeypatch.setattr(composition, "product", spied)
    assert not verify_inf_sso(model).opaque
    (stopped,) = built
    assert composition._operands(model).kept["dss"] is stopped and stopped._queue is not None
    whole = cc_dss(model)  # goes on from the verifier's prefix, with no new build
    assert len(built) == 1 and whole._queue is None and len(stopped.states) < len(whole.states)
    assert composition._operands(model).kept["dss"] is whole
    assert whole.sorted_transitions() == fresh(lambda nfa: cc_dss(nfa).sorted_transitions(), model)


def answer(cc, stop_on, max_layer):
    """The witness to the empty-estimate states whose left state is in
    ``stop_on`` (every one when None), within layer ``max_layer``: the
    verdict is whether there is one."""
    layer, left_of = cc._layer, cc._core.left_of
    bad = cc._subset(
        i
        for i in cc.empty_states._ids
        if (max_layer is None or layer[i] <= max_layer) and (stop_on is None or left_of(i) in stop_on)
    )
    return cc_shortest_path(cc, cc.initials, bad).to_run() if bad else None


@st.composite
def stopped_requests(draw, nfa):
    """A composition name and ``product``'s stop arguments."""
    name = draw(st.sampled_from(["hat", "dss", "siso"]))
    stop_on = draw(
        st.one_of(
            st.none(),
            st.just(nfa.states),
            st.just(nfa.secret),
            st.frozensets(st.sampled_from(sorted(nfa.states))),
        )
    )
    return name, stop_on, draw(st.one_of(st.none(), st.integers(0, 4)))


# ``cyclic_nfas()`` mostly draws compositions of one or two layers; the
# corpus models run deeper, so a later stop goes on from an earlier one.
deep_nfas = st.integers(0, 2**32).map(lambda seed: random_cyclic_nfa(random.Random(seed)))


@given(st.one_of(cyclic_nfas(), deep_nfas), st.data())
@settings(max_examples=60, deadline=None)
def test_requests_in_any_order_answer_as_fresh_stopped_builds(nfa, data):
    acc = accessible_part(nfa)
    ops = composition._Operands(acc)
    right, slot = ops.dss
    operands = {
        "hat": ops.restart,
        "dss": (acc, right, composition._seeds(acc, slot, acc.initial)),
        "siso": (acc, right, composition._seeds(acc, slot, acc.initial & acc.secret)),
    }
    for name, stop_on, max_layer in data.draw(st.lists(stopped_requests(acc), min_size=1, max_size=5)):
        stop = {"stop_on": stop_on, "max_layer": max_layer}
        before = ops.kept.get(name)
        kept = composition._kept(ops, name, *operands[name], stop)
        expected = composition.product(*operands[name], **stop)
        assert answer(kept, stop_on, max_layer) == answer(expected, stop_on, max_layer), (name, stop)
        # No needless copy and no missed extension: the kept composition
        # answers exactly the requests a fresh build stops within.
        if before is not None and expected._reach <= before._reach:
            assert kept is before, (name, stop)
        else:
            assert kept is not before and kept._reach == expected._reach and ops.kept[name] is kept, (name, stop)


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
