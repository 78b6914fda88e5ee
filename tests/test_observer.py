import itertools

import pytest

from strongopacity import (
    EmptyEstimate,
    EmptyInitial,
    EstimateClass,
    InternalInvariantError,
    InvalidState,
    classify_estimates,
    multi_initial_observer,
    natural_projection,
    subset_construction,
    unobservable_reach,
)
from strongopacity.observer import make_estimate
from strongopacity.subautomata import nonsecret_subautomaton

from conftest import build_nfa


def estimates_as_sets(obs):
    return {frozenset(q) for q in obs.estimates}


class TestSubsetConstruction:
    def test_nine_state_system(self, delayed_leak):
        obs = subset_construction(delayed_leak)
        assert estimates_as_sets(obs) == {
            frozenset("06"),
            frozenset({"1", "2", "3", "4", "7"}),
            frozenset({"2", "5", "8"}),
            frozenset({"5", "8"}),
            frozenset({"2", "8"}),
            frozenset({"8"}),
        }
        assert obs.initials == {make_estimate({"0", "6"})}
        assert obs.step(make_estimate({"0", "6"}), "a") == make_estimate({"1", "2", "3", "4", "7"})
        assert obs.step(make_estimate({"2", "5", "8"}), "c") == make_estimate({"5", "8"})
        assert obs.step(make_estimate({"2", "5", "8"}), "b") == make_estimate({"2", "8"})
        assert obs.step(make_estimate({"5", "8"}), "b") == make_estimate({"8"})
        assert obs.step(make_estimate({"0", "6"}), "c") is None

    def test_deterministic_fully_observable_degenerates(self):
        nfa = build_nfa(
            ["p", "q", "r"],
            ["a", "b"],
            [("p", "a", "q"), ("q", "b", "r")],
            ["p"],
            [],
        )
        obs = subset_construction(nfa)
        assert estimates_as_sets(obs) == {frozenset({x}) for x in "pqr"}
        assert obs.step(("p",), "a") == ("q",)

    def test_large_initial_closure(self, unfixable_two_step):
        obs = subset_construction(unfixable_two_step)
        assert make_estimate({"0", "6", "8"}) in obs.initials
        assert obs.step(make_estimate({"0", "6", "8"}), "a") == make_estimate(
            {"1", "2", "7", "9", "10", "14"}
        )

    def test_empty_initial_rejected(self, delayed_leak):
        with pytest.raises(EmptyInitial):
            subset_construction(delayed_leak.replace(initial=frozenset()))

    def test_determinism_and_count_bound(self, two_initials):
        obs = subset_construction(two_initials)
        for q in obs.estimates:
            for e in obs.events:
                successor = obs.step(q, e.name)
                assert successor is None or successor in obs.estimates
        assert len(obs.estimates) <= 2 ** len(two_initials.states) - 1

    def test_estimates_closed_under_unobservable_reach(self, two_initials):
        obs = subset_construction(two_initials)
        for q in obs.estimates:
            assert frozenset(q) == unobservable_reach(two_initials, q)

    def test_soundness_completeness_by_run_enumeration(self, two_initials):
        # an estimate reached by observation word w holds exactly the states
        # that some run with projection w can be in
        obs = subset_construction(two_initials)
        alphabet = two_initials.alphabet
        horizon = 4
        runs = [(x, ()) for x in two_initials.initial]
        frontier = list(runs)
        while frontier:
            start, steps = frontier.pop()
            end = steps[-1][1] if steps else start
            if len(steps) >= 2 * horizon:
                continue
            for event, dst in two_initials.by_source[end]:
                item = (start, steps + ((event, dst),))
                runs.append(item)
                frontier.append(item)
        by_word = {}
        for start, steps in runs:
            word = natural_projection(tuple(e for e, _ in steps), alphabet)
            end = steps[-1][1] if steps else start
            by_word.setdefault(word, set()).add(end)
        for word in itertools.chain.from_iterable(
            itertools.product(sorted(two_initials.observable_events), repeat=r)
            for r in range(horizon)
        ):
            estimate = next(iter(obs.initials))
            for sigma in word:
                estimate = obs.step(estimate, sigma)
                if estimate is None:
                    break
            expected = by_word.get(tuple(word), set())
            if estimate is None:
                assert expected == set()
            else:
                assert set(estimate) == expected


class TestMultiInitialObserver:
    def test_nonsecret_remainder_observer(self, delayed_leak):
        obs_full = subset_construction(delayed_leak)
        pruned, seeds = nonsecret_subautomaton(delayed_leak, obs_full)
        obs = multi_initial_observer(pruned, seeds)
        assert estimates_as_sets(obs) == {
            frozenset({"1", "2", "3", "4"}),
            frozenset({"2", "8"}),
            frozenset({"8"}),
            frozenset({"2"}),
        }
        assert obs.initials == {
            make_estimate({"1", "2", "3", "4"}),
            make_estimate({"2", "8"}),
            make_estimate({"8"}),
        }
        assert obs.step(make_estimate({"1", "2", "3", "4"}), "b") == ("2",)
        assert obs.step(make_estimate({"2", "8"}), "c") == ("8",)
        assert obs.step(make_estimate({"2", "8"}), "b") == make_estimate({"2", "8"})
        assert obs.step(("2",), "b") == ("2",)

    def test_single_seed_equals_subset_construction(self, two_initials):
        seed = unobservable_reach(two_initials, two_initials.initial)
        multi = multi_initial_observer(two_initials, [seed])
        standard = subset_construction(two_initials)
        assert multi.estimates == standard.estimates
        assert multi.initials == standard.initials
        assert multi.delta == standard.delta

    def test_disjoint_seeds_stay_disjoint(self):
        nfa = build_nfa(
            ["l0", "l1", "r0", "r1"],
            ["a", "b"],
            [("l0", "a", "l1"), ("r0", "b", "r1")],
            ["l0", "r0"],
            [],
        )
        obs = multi_initial_observer(nfa, [{"l0"}, {"r0"}])
        assert estimates_as_sets(obs) == {
            frozenset({"l0"}),
            frozenset({"l1"}),
            frozenset({"r0"}),
            frozenset({"r1"}),
        }

    def test_subset_seeds_not_merged(self):
        nfa = build_nfa(["x", "y"], ["a"], [("x", "a", "y")], ["x"], [])
        obs = multi_initial_observer(nfa, [{"x"}, {"x", "y"}])
        assert obs.initials == {("x",), ("x", "y")}

    def test_bare_string_seed_rejected(self):
        # A string would be read as its characters: "10" as "1" and "0".
        nfa = build_nfa(["0", "1", "10"], ["a"], [], ["10"], [])
        with pytest.raises(InvalidState, match="^observer seed must be a collection of state names"):
            multi_initial_observer(nfa, ["10"])

    def test_empty_seed_rejected(self, two_initials):
        with pytest.raises(EmptyEstimate):
            multi_initial_observer(two_initials, [set()])

    def test_unclosed_seed_rejected(self, delayed_leak):
        with pytest.raises(InternalInvariantError):
            multi_initial_observer(delayed_leak, [{"0"}])  # closure adds 6


class TestClassification:
    def test_nine_state_system(self, delayed_leak):
        obs = subset_construction(delayed_leak)
        classes = classify_estimates(obs, delayed_leak.secret)
        hybrid = {q for q, c in classes.items() if c is EstimateClass.HYBRID}
        nonsecret = {q for q, c in classes.items() if c is EstimateClass.NON_SECRET}
        assert hybrid == {
            make_estimate({"1", "2", "3", "4", "7"}),
            make_estimate({"2", "5", "8"}),
            make_estimate({"5", "8"}),
        }
        assert nonsecret == {
            make_estimate({"0", "6"}),
            make_estimate({"2", "8"}),
            make_estimate({"8"}),
        }
        assert not any(c is EstimateClass.SECRET for c in classes.values())

    def test_no_secret_states(self, delayed_leak):
        obs = subset_construction(delayed_leak)
        classes = classify_estimates(obs, frozenset())
        assert set(classes.values()) == {EstimateClass.NON_SECRET}

    def test_all_secret_states(self, delayed_leak):
        obs = subset_construction(delayed_leak)
        classes = classify_estimates(obs, delayed_leak.states)
        assert set(classes.values()) == {EstimateClass.SECRET}

    def test_tags_partition(self, two_initials):
        obs = subset_construction(two_initials)
        classes = classify_estimates(obs, two_initials.secret)
        assert set(classes) == set(obs.estimates)
        for q, c in classes.items():
            inside = set(q) & two_initials.secret
            if c is EstimateClass.SECRET:
                assert inside == set(q)
            elif c is EstimateClass.NON_SECRET:
                assert not inside
            else:
                assert inside and inside != set(q)
