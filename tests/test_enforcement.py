import pytest

from strongopacity import (
    CcState,
    Enforced,
    Impossible,
    Run,
    accessible_part,
    cc_dss,
    cc_hat,
    disable_transitions,
    enforce_inf_sso,
    enforce_k_sso,
    enforce_scso,
    enforce_siso,
    last_controllable_frontier,
    oracle_enforceable,
    verify_inf_sso,
    verify_k_sso,
    verify_scso,
    verify_siso,
)
from strongopacity.errors import InvalidState

from conftest import build_nfa, two_initials_nfa


def rendered(frontier):
    return {(s.name, e.name, d.name) for s, e, d in frontier}


class TestLastControllableFrontier:
    def test_budgeted_k_step_frontier(self, delayed_leak):
        cc = cc_hat(delayed_leak)
        bad = {s for s in cc.states if s.is_empty}
        frontier = last_controllable_frontier(cc, bad, budget=2)
        assert rendered(frontier) == {("(7,{1,2,3,4})", "(b,b)", "(8,{2})")}

    def test_wider_budget_catches_loop_edges(self, delayed_leak):
        cc = cc_hat(delayed_leak)
        bad = {s for s in cc.states if s.is_empty}
        frontier = last_controllable_frontier(cc, bad, budget=3)
        assert ("(8,{2})", "(b,b)", "(8,{2})") in rendered(frontier)

    def test_empty_bad_set(self, delayed_leak):
        cc = cc_hat(delayed_leak)
        assert last_controllable_frontier(cc, set(), budget=2) == frozenset()

    def test_unbudgeted_dss_frontier(self, two_initials):
        cc = cc_dss(two_initials)
        bad = {s for s in cc.empty_states if s.left == "9"}
        frontier = last_controllable_frontier(cc, bad)
        assert rendered(frontier) == {("(4,{4})", "(a,a)", "(7,{7})")}

    def test_a_read_only_view_of_its_transitions(self, delayed_leak):
        cc = cc_hat(delayed_leak)
        frontier = last_controllable_frontier(cc, {s for s in cc.states if s.is_empty}, budget=3)
        members = set(frontier)
        assert members and frontier == members and len(frontier) == len(members)
        inside = next(iter(members))
        outside = next(t for t in cc.transitions if t not in members)
        assert outside not in frontier and tuple(x.name for x in inside) not in frontier
        assert list(inside) not in frontier and None not in frontier
        union = frontier | frozenset([outside])
        assert type(union) is frozenset and union == members | {outside}

    def test_foreign_state_rejected(self, delayed_leak, two_initials):
        cc = cc_hat(delayed_leak)
        # A state of the other composition that this one lacks: the two
        # share some states, so an arbitrary pick depends on the hash seed.
        alien = min(cc_dss(two_initials).states - cc.states, key=CcState.sort_key)
        with pytest.raises(InvalidState):
            last_controllable_frontier(cc, {alien})


@pytest.mark.parametrize("notion", ["scso", "k-sso 2"])
def test_enforcement_renders_no_composition_state(two_initials, delayed_leak, notion, monkeypatch):
    # Only a witness crosses the public boundary as composition states; an
    # Enforced outcome with a cut builds none, frontier included.
    built = []
    post_init = CcState.__post_init__
    monkeypatch.setattr(CcState, "__post_init__", lambda state: built.append(post_init(state)))
    if notion == "scso":
        outcome = enforce_scso(two_initials)
    else:
        outcome = enforce_k_sso(delayed_leak, 2)
    assert isinstance(outcome, Enforced) and outcome.disabled
    assert built == []


class TestEnforceKSso:
    def test_two_round_cut(self, delayed_leak):
        outcome = enforce_k_sso(delayed_leak, 2)
        assert isinstance(outcome, Enforced)
        assert outcome.disabled == {("4", "b", "5"), ("7", "b", "8")}
        assert verify_k_sso(outcome.subsystem, 2).opaque
        assert outcome.subsystem == disable_transitions(delayed_leak, outcome.disabled)
        assert outcome.disabled & outcome.subsystem.transitions == frozenset()

    def test_already_opaque_cuts_nothing(self, delayed_leak):
        outcome = enforce_k_sso(delayed_leak, 1)
        assert isinstance(outcome, Enforced)
        assert outcome.disabled == frozenset()
        assert outcome.subsystem == accessible_part(delayed_leak)

    def test_impossible_by_uncontrollable_route(self, unfixable_two_step):
        outcome = enforce_k_sso(unfixable_two_step, 2)
        assert isinstance(outcome, Impossible)
        assert outcome.witness == Run(
            start="0", steps=(("a", "14"), ("c", "15"), ("a", "16"))
        )
        acc = accessible_part(unfixable_two_step)
        assert acc.has_run(outcome.witness)
        assert all(not acc.is_controllable(e) for e in outcome.witness.word())

    def test_enforcing_zero_budget_handles_cso(self):
        # a fresh secret sink reachable only through one controllable edge
        nfa = build_nfa(
            ["0", "1", "2"],
            ["a", "b"],
            [("0", "a", "1"), ("0", "b", "2")],
            ["0"],
            ["1"],
            uncontrollable=["b"],
        )
        outcome = enforce_k_sso(nfa, 0)
        assert isinstance(outcome, Enforced)
        assert outcome.disabled == {("0", "a", "1")}
        assert verify_k_sso(outcome.subsystem, 0).opaque


class TestEnforceDssFamily:
    def test_current_state_cut(self, two_initials):
        outcome = enforce_scso(two_initials)
        assert isinstance(outcome, Enforced)
        assert outcome.disabled == {("4", "a", "7"), ("3", "a", "5"), ("4", "a", "5")}
        assert verify_scso(outcome.subsystem).opaque
        assert outcome.subsystem == disable_transitions(two_initials, outcome.disabled)

    def test_initial_state_cut(self, two_initials):
        outcome = enforce_siso(two_initials)
        assert isinstance(outcome, Enforced)
        assert outcome.disabled == {("3", "u", "6"), ("5", "v", "6")}
        assert verify_siso(outcome.subsystem).opaque

    def test_infinite_step_cut(self, two_initials):
        outcome = enforce_inf_sso(two_initials)
        assert isinstance(outcome, Enforced)
        assert outcome.disabled == {
            ("3", "u", "6"),
            ("5", "v", "6"),
            ("4", "a", "7"),
            ("3", "a", "5"),
            ("4", "a", "5"),
        }
        assert verify_inf_sso(outcome.subsystem).opaque

    def test_without_secrets_nothing_to_do(self, two_initials):
        bare = two_initials.replace(secret=frozenset())
        for enforce in (enforce_scso, enforce_siso, enforce_inf_sso):
            outcome = enforce(bare)
            assert isinstance(outcome, Enforced) and outcome.disabled == frozenset()

    def test_scso_impossible_single_uncontrollable_leak(self):
        nfa = build_nfa(
            ["0", "1"], ["b"], [("0", "b", "1")], ["0"], ["1"], uncontrollable=["b"]
        )
        outcome = enforce_scso(nfa)
        assert isinstance(outcome, Impossible)
        assert outcome.witness == Run(start="0", steps=(("b", "1"),))
        assert oracle_enforceable(nfa, "scso", cap=4) is None

    def test_siso_vacuous_without_secret_initials(self, two_initials):
        relabeled = two_initials.replace(secret=frozenset({"5", "9"}))
        outcome = enforce_siso(relabeled)
        assert isinstance(outcome, Enforced) and outcome.disabled == frozenset()

    def test_siso_impossible_when_only_a_is_controllable(self):
        nfa = two_initials_nfa(uncontrollable=("b", "u", "v"))
        outcome = enforce_siso(nfa)
        assert isinstance(outcome, Impossible)
        acc = accessible_part(nfa)
        assert acc.has_run(outcome.witness)
        assert all(not acc.is_controllable(e) for e in outcome.witness.word())
        assert outcome.witness.start in acc.secret_initial
        assert oracle_enforceable(nfa, "siso", cap=10) is None

    def test_inf_sso_with_everything_controllable(self, k_safe_not_inf):
        outcome = enforce_inf_sso(k_safe_not_inf)
        assert isinstance(outcome, Enforced)
        assert verify_inf_sso(outcome.subsystem).opaque

    def test_disabled_set_is_controllable_input_transitions(self, two_initials):
        for enforce in (enforce_scso, enforce_siso, enforce_inf_sso):
            outcome = enforce(two_initials)
            assert outcome.disabled <= two_initials.controllable_transitions
