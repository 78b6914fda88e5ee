"""Derived automata against fresh ones built from the same fields.

An automaton derived from a model (its accessible part, a cut, a
subautomaton) comes from one walk of its parent and inherits the parent's
indexes. Every answer read from it must be the one that a fresh ``Nfa``
with the same states, alphabet, transitions, initial and secret states
gives: its observer, its whole and early-stopped compositions, its
serialized document and every DOT export. The models carry extra states
that no initial state reaches, named to fall between the others in natural
order, so the accessible part and everything derived from it drop states.

A state the model has but a derived automaton dropped is no state of the
derived automaton: handed in, it is rejected, and no view holds it.
"""

import io
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from strongopacity import (
    AlphabetMismatch,
    CcState,
    Event,
    InvalidState,
    Nfa,
    accessible_part,
    cc_dss,
    cc_full_observer,
    cc_hat,
    disable_transitions,
    dss_subautomaton,
    export_graph,
    initial_secret_subautomaton,
    multi_initial_observer,
    nonsecret_subautomaton,
    product,
    serialize_model,
    subset_construction,
    unobservable_reach,
    verify_inf_sso,
    verify_scso,
    verify_siso,
)
from strongopacity.automaton import natural_key
from strongopacity.cli import run_cli
from strongopacity.composition import _cc_dss, _cc_hat, _Operands

from conftest import delayed_leak_nfa, two_initials_nfa
from corpus import random_cyclic_nfa
from test_golden import SEED as GOLDEN_SEED
from test_kernel import cyclic_nfas

# Unreachable extra states, named to interleave with the models' own names.
EXTRA = ("05", "2a", "x1", "y")


def with_unreachable(nfa: Nfa) -> Nfa:
    """``nfa`` plus the states ``EXTRA``, two of them secret, which move
    into ``nfa`` and among themselves (through an unobservable cycle when
    ``nfa`` has an unobservable event) but which no state of ``nfa``
    reaches."""
    silent = [e.name for e in nfa.alphabet if not e.observable]
    loud = sorted(nfa.observable_events)
    into = sorted(nfa.states, key=natural_key)
    u = silent[0] if silent else loud[0]
    transitions = {
        ("05", u, "2a"),
        ("2a", u, "05"),
        ("2a", loud[0], into[0]),
        ("x1", loud[-1], into[-1]),
        ("x1", u, "y"),
        ("y", loud[0], "y"),
    }
    return nfa.replace(
        states=nfa.states | set(EXTRA),
        transitions=nfa.transitions | transitions,
        secret=nfa.secret | {"05", "y"},
    )


def derived_automata(model: Nfa, cut) -> list[Nfa]:
    """Automata derived from ``model``, which has unreachable states, and
    from its accessible part, with ``cut`` disabled for the cut ones."""
    acc = accessible_part(model)
    assert len(acc.states) < len(model.states)
    cutted = disable_transitions(model, cut)
    out = [acc, cutted, initial_secret_subautomaton(model)]
    for parent in (acc, cutted):
        out += [dss_subautomaton(parent), initial_secret_subautomaton(parent)]
        if parent.initial:
            out.append(nonsecret_subautomaton(parent, subset_construction(parent))[0])
    return out


def dot(structure) -> str:
    sink = io.StringIO()
    export_graph(structure, sink)
    return sink.getvalue()


def layers(cc) -> dict:
    return {cc._core.state(i): layer for i, layer in enumerate(cc._layer)}


def answers(nfa: Nfa) -> list:
    """What the library answers on ``nfa``, an automaton accessible from
    its initial states, in comparable form."""
    out = [serialize_model(nfa), dot(nfa), nfa.sorted_transitions()]
    obs = subset_construction(nfa) if nfa.initial else None
    if obs is not None:
        out += [set(obs.estimates), dict(obs.delta), set(obs.initials), dot(obs)]
    ops = _Operands(nfa)
    stops = [{}, {"max_layer": 0}, {"max_layer": 1}, {"stop_on": nfa.states}, {"stop_on": nfa.secret}]
    for stop in stops:
        for cc in (_cc_hat(ops, **stop), _cc_dss(ops, **stop), _cc_dss(ops, secret_only=True, **stop)):
            out += [set(cc.states), set(cc.transitions), set(cc.initials), layers(cc), dot(cc)]
            if not stop:
                out += [dot(cc.right), cc.sorted_states(), cc.sorted_transitions()]
    return out


def check_derived(model: Nfa, cut) -> None:
    for derived in derived_automata(model, cut):
        fresh = Nfa(derived.states, derived.alphabet, derived.transitions, derived.initial, derived.secret)
        # A derived automaton is built without ``Nfa.__post_init__``.
        assert derived == fresh and hash(derived) == hash(fresh)
        assert answers(derived) == answers(fresh)


@given(cyclic_nfas(), st.data())
@settings(max_examples=30, deadline=None)
def test_derived_automata_answer_as_fresh_ones(nfa, data):
    model = with_unreachable(nfa)
    cut = data.draw(st.sets(st.sampled_from(sorted(nfa.transitions)))) if nfa.transitions else set()
    check_derived(model, cut)


def test_derived_automata_of_golden_instances():
    rng = random.Random(GOLDEN_SEED)
    for _ in range(10):
        nfa = random_cyclic_nfa(rng)
        controllable = sorted(nfa.controllable_transitions)
        check_derived(with_unreachable(nfa), rng.sample(controllable, min(2, len(controllable))))


def test_derived_automata_share_their_model_numbering():
    model = with_unreachable(delayed_leak_nfa())
    order, position = model._numbering
    for derived in derived_automata(model, [("0", "a", "1")]):
        assert derived._numbering[0] is order and derived._numbering[1] is position
        assert len(derived._dense.reach) == len(model.states)
        if derived.initial:
            assert subset_construction(derived)._table.position is position
    for cc in (cc_hat(model), cc_dss(model)):
        assert cc._core.position is position and cc.right._table.position is position


def test_deleted_secret_states_work_leaves_the_dense_index_unbuilt():
    # The composition reads positions from the numbering; only the
    # remainder's observer needs reach and step rows, and those of the
    # remainder.
    for model in (with_unreachable(delayed_leak_nfa()), two_initials_nfa()):
        acc = accessible_part(model)
        cc_dss(acc)
        for verify in (verify_scso, verify_siso, verify_inf_sso):
            verify(acc)
        assert "_dense" not in vars(acc)


class TestDroppedState:
    """``9`` is a state of the model but not of its accessible part, and
    ``0`` is none of the secret-restart side's."""

    @pytest.fixture
    def model(self):
        nfa = delayed_leak_nfa()
        return nfa.replace(states=nfa.states | {"9"}, transitions=nfa.transitions | {("9", "a", "0")})

    def test_unobservable_reach_rejects_it(self, model):
        with pytest.raises(InvalidState):
            unobservable_reach(accessible_part(model), ["9"])
        with pytest.raises(InvalidState):
            unobservable_reach(accessible_part(model), ["0", "9"])

    def test_multi_initial_observer_rejects_it(self, model):
        with pytest.raises(InvalidState):
            multi_initial_observer(accessible_part(model), [{"9"}])
        with pytest.raises(InvalidState):
            multi_initial_observer(initial_secret_subautomaton(model), [{"5"}, {"0", "6"}])

    def test_product_rejects_it(self, model):
        acc = accessible_part(model)
        obs = subset_construction(acc)
        (q,) = obs.initials
        with pytest.raises(AlphabetMismatch):
            product(acc, obs, [CcState("9", q)])
        ghat = initial_secret_subautomaton(acc)
        with pytest.raises(AlphabetMismatch):
            product(ghat, multi_initial_observer(ghat, []), [CcState("0", None)])

    def test_no_view_holds_it(self, model):
        acc = accessible_part(model)
        obs = subset_construction(acc)
        assert ("9",) not in obs.estimates
        for q in obs.estimates:
            padded = tuple(sorted(set(q) | {"9"}, key=natural_key))
            assert padded not in obs.estimates and padded not in obs.initials
            with pytest.raises(KeyError):
                obs.delta[(padded, "a")]
        for cc, dropped in ((cc_dss(model), "9"), (cc_hat(model), "0")):
            for q in list(cc.right.estimates) + [None]:
                assert CcState(dropped, q) not in cc.states
                assert CcState(dropped, q) not in cc.by_source
                assert CcState(dropped, q) not in cc.empty_states


def test_a_model_without_unobservable_events():
    nfa = Nfa(
        frozenset({"0", "1", "2"}),
        (Event("a"), Event("b", controllable=False)),
        frozenset({("0", "a", "1"), ("1", "b", "2"), ("2", "a", "0")}),
        frozenset({"0"}),
        frozenset({"1"}),
    )
    check_derived(with_unreachable(nfa), [("0", "a", "1")])


@pytest.mark.parametrize("structure", ["observer", "cc-hat", "cc-obs", "cc-dss"])
def test_cli_export_of_a_model_with_unreachable_states(structure, tmp_path):
    # Each structure's constructor takes the accessible part itself, and the
    # observer of a model is that of its accessible part.
    build = {"observer": subset_construction, "cc-hat": cc_hat, "cc-obs": cc_full_observer, "cc-dss": cc_dss}
    rng = random.Random(GOLDEN_SEED)
    models = [with_unreachable(delayed_leak_nfa()), with_unreachable(two_initials_nfa())]
    models += [with_unreachable(random_cyclic_nfa(rng)) for _ in range(6)]
    path, out = tmp_path / "model.json", tmp_path / "out.dot"
    for model in models:
        path.write_bytes(serialize_model(model))
        assert run_cli(["export", "--structure", structure, str(path), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == dot(build[structure](accessible_part(model)))
