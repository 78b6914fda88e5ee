import random

import pytest

from strongopacity import (
    AlphabetMismatch,
    CcState,
    InvalidState,
    cc_dss,
    cc_full_observer,
    cc_hat,
    disable_transitions,
    natural_projection,
    product,
    subset_construction,
)
from strongopacity.subautomata import initial_secret_subautomaton

from conftest import build_nfa
from corpus import corpus


def names(states):
    return sorted(s.name for s in states)


def sample_paths(cc, rng, count=40, length=6):
    """Random walks through a composition, as lists of transitions."""
    initials = sorted(cc.initials, key=CcState.sort_key)
    paths = []
    if not initials:
        return paths
    for _ in range(count):
        here = rng.choice(initials)
        path = []
        for _ in range(rng.randint(0, length)):
            # the index is unordered; sort so the seeded walk is reproducible
            options = sorted(cc.by_source.get(here, ()), key=lambda p: (p[0].name, p[1].sort_key()))
            if not options:
                break
            event, nxt = rng.choice(options)
            path.append((here, event, nxt))
            here = nxt
        paths.append(path)
    return paths


class TestProductEngine:
    def test_no_transitions_means_initials_only(self, delayed_leak):
        frozen = delayed_leak.replace(transitions=frozenset(), initial=frozenset({"0"}))
        obs = subset_construction(frozen)
        (q0,) = obs.initials
        cc = product(frozen, obs, [CcState("0", q0)])
        assert cc.states == {CcState("0", q0)}
        assert cc.transitions == frozenset()

    def test_alphabet_mismatch(self, delayed_leak, two_initials):
        obs = subset_construction(two_initials.replace(secret=frozenset()))
        hidden = delayed_leak.replace(
            alphabet=tuple(
                type(e)(e.name, observable=False, controllable=e.controllable)
                for e in delayed_leak.alphabet
            )
        )
        with pytest.raises(AlphabetMismatch):
            product(hidden, obs, [])

    def test_initial_right_component_must_be_an_estimate(self, delayed_leak):
        obs = subset_construction(delayed_leak)
        with pytest.raises(AlphabetMismatch, match="initial right component is not an estimate"):
            product(delayed_leak, obs, [CcState("0", ("nope",))])

    def test_initial_must_be_a_composition_state(self, delayed_leak):
        obs = subset_construction(delayed_leak)
        with pytest.raises(InvalidState, match=r"^not a composition state: \('0', None\)$"):
            product(delayed_leak, obs, [("0", None)])

    def test_bare_string_stop_on_rejected(self, delayed_leak):
        # Read by substring, "12" would hold the state "1".
        obs = subset_construction(delayed_leak)
        with pytest.raises(InvalidState, match="stop_on must be a collection of state names"):
            product(delayed_leak, obs, [], stop_on="12")

    def test_projection_pairing_on_random_walks(self):
        rng = random.Random(7)
        for nfa in corpus(20260801, 25):
            for cc in (cc_dss(nfa), cc_hat(nfa)):
                for path in sample_paths(cc, rng):
                    left_word = tuple(event.left_event for _, event, _ in path)
                    right_word = tuple(
                        event.right_event
                        for _, event, _ in path
                        if event.right_event is not None
                    )
                    assert natural_projection(left_word, nfa.alphabet) == right_word

    def test_paired_event_set_shape(self, delayed_leak):
        cc = cc_hat(delayed_leak)
        assert {(e.left_event, e.right_event) for e in cc.events} == {
            ("a", "a"),
            ("b", "b"),
            ("c", "c"),
            ("u", None),
        }
        for _, event, _ in cc.transitions:
            if event.right_event is None:
                assert not delayed_leak.is_observable(event.left_event)
            else:
                assert event.right_event == event.left_event


class TestCcHat:
    def test_nine_state_structure(self, delayed_leak):
        cc = cc_hat(delayed_leak)
        assert names(cc.states) == [
            "(5,{2,8})",
            "(5,{8})",
            "(7,{1,2,3,4})",
            "(8,{2})",
            "(8,∅)",
        ]
        assert names(cc.initials) == ["(5,{2,8})", "(5,{8})", "(7,{1,2,3,4})"]
        rendered = {
            (src.name, event.name, dst.name) for src, event, dst in cc.transitions
        }
        assert rendered == {
            ("(7,{1,2,3,4})", "(b,b)", "(8,{2})"),
            ("(5,{2,8})", "(c,c)", "(5,{8})"),
            ("(5,{8})", "(c,c)", "(5,{8})"),
            ("(8,{2})", "(b,b)", "(8,{2})"),
            ("(8,{2})", "(c,c)", "(8,∅)"),
            ("(8,∅)", "(b,b)", "(8,∅)"),
            ("(8,∅)", "(c,c)", "(8,∅)"),
        }

    def test_seventeen_state_structure(self, unfixable_two_step):
        cc = cc_hat(unfixable_two_step)
        assert names(cc.initials) == [
            "(13,{5,12})",
            "(13,{5})",
            "(16,{5,12})",
            "(4,{3,11,15})",
        ]
        assert "(5,∅)" in cc.state_names()

    def test_no_secret_states_empty(self, delayed_leak):
        assert cc_hat(delayed_leak.replace(secret=frozenset())).states == frozenset()

    def test_all_secret_estimate_yields_empty_right_initial(self, delayed_leak):
        # disabling 7-b->8 makes the estimate {5} reachable and entirely secret
        sub = disable_transitions(delayed_leak, {("7", "b", "8")})
        cc = cc_hat(sub)
        assert "(5,∅)" in {s.name for s in cc.initials}
        assert "(5,{2})" in {s.name for s in cc.initials}

    def test_state_count_bound(self, delayed_leak, two_initials, unfixable_two_step):
        for nfa in (delayed_leak, two_initials, unfixable_two_step):
            cc = cc_hat(nfa)
            ghat = initial_secret_subautomaton(nfa)
            bound = len(ghat.states) * 2 ** len(nfa.states - nfa.secret)
            assert len(cc.states) <= bound

    def test_empty_absorption(self, delayed_leak, two_initials):
        for nfa in (delayed_leak, two_initials):
            for cc in (cc_hat(nfa), cc_dss(nfa)):
                for src, _, dst in cc.transitions:
                    if src.is_empty:
                        assert dst.is_empty


class TestCcFullObserver:
    def test_after_one_cut(self, delayed_leak):
        sub = disable_transitions(delayed_leak, {("7", "b", "8")})
        cc = cc_full_observer(sub)
        rendered = {(s.name, e.name, d.name) for s, e, d in cc.transitions}
        assert ("(4,{1,2,3,4,7})", "(b,b)", "(5,{2,5})") in rendered
        assert ("(5,{2,5})", "(c,c)", "(5,{5})") in rendered
        assert len(cc.states) == 11

    def test_deterministic_fully_observable(self):
        nfa = build_nfa(
            ["p", "q", "r"], ["a", "b"], [("p", "a", "q"), ("q", "b", "r")], ["p"], []
        )
        cc = cc_full_observer(nfa)
        assert {s.name for s in cc.states} == {"(p,{p})", "(q,{q})", "(r,{r})"}

    def test_left_state_always_inside_estimate(self, two_initials, unfixable_two_step):
        for nfa in (two_initials, unfixable_two_step):
            cc = cc_full_observer(nfa)
            for s in cc.states:
                assert s.left in s.right

    def test_double_cut_uncontrollable_path(self, unfixable_two_step):
        sub = disable_transitions(
            unfixable_two_step, {("3", "v", "4"), ("9", "u", "10")}
        )
        cc = cc_full_observer(sub)
        rendered = {(s.name, e.name, d.name) for s, e, d in cc.transitions}
        assert ("(0,{0,6,8})", "(a,a)", "(14,{1,2,7,9,14})") in rendered
        assert ("(14,{1,2,7,9,14})", "(c,c)", "(15,{3,15})") in rendered
        assert ("(15,{3,15})", "(a,a)", "(16,{16})") in rendered

    def test_initial_pairs_relation(self, delayed_leak, two_initials):
        # every cc_hat initial (x, remainder) has a full-composition state
        # (x, q) whose non-secret part is exactly the remainder
        for nfa in (delayed_leak, two_initials):
            hat = cc_hat(nfa)
            full = cc_full_observer(nfa)
            for i in hat.initials:
                remainder = frozenset(i.right or ())
                assert any(
                    s.left == i.left and frozenset(s.right) - nfa.secret == remainder
                    for s in full.states
                )


class TestCcDss:
    def test_two_initial_structure(self, two_initials):
        cc = cc_dss(two_initials)
        assert names(cc.initials) == ["(0,{0,2})", "(1,{0,2})"]
        assert names(cc.states) == [
            "(0,{0,2})",
            "(1,{0,2})",
            "(2,{0,2})",
            "(3,{4})",
            "(4,{4})",
            "(5,{7})",
            "(6,{4})",
            "(6,{7})",
            "(7,{7})",
            "(8,∅)",
            "(9,∅)",
        ]
        rendered = {(s.name, e.name, d.name) for s, e, d in cc.transitions}
        assert rendered == {
            ("(0,{0,2})", "(u,ε)", "(2,{0,2})"),
            ("(2,{0,2})", "(b,b)", "(4,{4})"),
            ("(4,{4})", "(a,a)", "(7,{7})"),
            ("(4,{4})", "(a,a)", "(5,{7})"),
            ("(7,{7})", "(b,b)", "(9,∅)"),
            ("(1,{0,2})", "(b,b)", "(3,{4})"),
            ("(3,{4})", "(a,a)", "(5,{7})"),
            ("(3,{4})", "(u,ε)", "(6,{4})"),
            ("(5,{7})", "(v,ε)", "(6,{7})"),
            ("(6,{7})", "(b,b)", "(8,∅)"),
            ("(6,{4})", "(b,b)", "(8,∅)"),
        }
        assert names(cc.secret_initials) == ["(1,{0,2})"]

    def test_no_secret_mirrors_full_observer(self, delayed_leak):
        bare = delayed_leak.replace(secret=frozenset())
        cc = cc_dss(bare)
        assert not cc.empty_states
        full = cc_full_observer(bare)
        assert cc.state_names() == full.state_names()

    def test_after_initial_route_cut(self, two_initials):
        sub = disable_transitions(two_initials, {("3", "u", "6"), ("5", "v", "6")})
        cc = cc_dss(sub)
        assert {s.name for s in cc.empty_states} == {"(9,∅)"}

    def test_all_initials_secret_pairs_empty(self):
        nfa = build_nfa(
            ["x", "y"], ["a"], [("x", "a", "y")], ["x"], ["x"], uncontrollable=[]
        )
        cc = cc_dss(nfa)
        assert names(cc.initials) == ["(x,∅)"]
        assert "(y,∅)" in cc.state_names()
