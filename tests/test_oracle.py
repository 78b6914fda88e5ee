import pytest

from strongopacity import (
    BoundedRunSet,
    Event,
    Nfa,
    OracleUnsound,
    TooLarge,
    disable_transitions,
    oracle_enforceable,
    oracle_inf_sso,
    oracle_k_sso,
    oracle_scso,
    oracle_siso,
    verify_inf_sso,
    verify_k_sso,
    verify_scso,
    verify_siso,
)
from strongopacity.oracle import certified_horizon

from conftest import build_nfa


class TestBoundedRunSet:
    def test_exhaustive_up_to_cap(self):
        nfa = build_nfa(
            ["0", "1", "2"],
            ["a", "b"],
            [("0", "a", "1"), ("0", "a", "2"), ("1", "b", "2")],
            ["0"],
            [],
        )
        runs = BoundedRunSet.enumerate(nfa, 2).runs
        assert len(runs) == len(set(runs)) == 4  # ε, a->1, a->2, a->1 b->2

    def test_cap_truncates(self, delayed_leak):
        shallow = BoundedRunSet.enumerate(delayed_leak, 1).runs
        assert all(len(r) <= 1 for r in shallow)
        assert {r.end for r in shallow if len(r) == 1} == {"1", "3", "6"}


class TestCertifiedHorizon:
    def test_unobservable_cycle_is_unsound(self):
        nfa = build_nfa(
            ["0"], ["u"], [("0", "u", "0")], ["0"], ["0"], unobservable=["u"]
        )
        with pytest.raises(OracleUnsound):
            certified_horizon(nfa, 10)

    def test_acyclic_system_is_complete(self):
        nfa = build_nfa(["0", "1"], ["a"], [("0", "a", "1")], ["0"], [])
        assert certified_horizon(nfa, 1) is None

    def test_cyclic_system_gets_finite_horizon(self, delayed_leak):
        assert certified_horizon(delayed_leak, 12) == 5

    def test_long_unobservable_chain(self):
        # 3,000 states chained by an unobservable event: the cycle check and
        # the longest-chain measure must not recurse once per state.
        n = 3000
        states = [str(i) for i in range(n)]
        chain = [(states[i], "u", states[i + 1]) for i in range(n - 1)]
        acyclic = build_nfa(states, ["a", "u"], chain, ["0"], [], unobservable=["u"])
        assert certified_horizon(acyclic, n) is None
        looping = acyclic.replace(transitions=frozenset(chain + [(states[-1], "a", states[-1])]))
        assert certified_horizon(looping, 2 * n) == 1  # 1 + 2 * 2999 <= 6000 < 2 + 3 * 2999
        with pytest.raises(OracleUnsound):
            certified_horizon(looping, n - 2)  # the chain alone needs n - 1

    def test_too_small_cap_is_unsound(self, k_safe_not_inf):
        # longest unobservable chain is 2, so even a zero-length observation
        # needs three transitions of room
        with pytest.raises(OracleUnsound):
            certified_horizon(k_safe_not_inf, 1)


class TestOracleVerdicts:
    def test_k_step_golden(self, delayed_leak):
        assert oracle_k_sso(delayed_leak, 0, 12)
        assert oracle_k_sso(delayed_leak, 1, 12)
        assert not oracle_k_sso(delayed_leak, 2, 12)

    def test_k_step_without_secrets(self, delayed_leak):
        assert oracle_k_sso(delayed_leak.replace(secret=frozenset()), 5, 12)

    def test_dss_family_golden(self, two_initials):
        assert not oracle_scso(two_initials, 10)
        assert not oracle_siso(two_initials, 10)
        assert not oracle_inf_sso(two_initials, 10)

    def test_k_safe_system(self, k_safe_not_inf):
        assert not oracle_inf_sso(k_safe_not_inf, 8)
        assert oracle_k_sso(k_safe_not_inf, 1, 8)

    def test_enforced_subsystem_passes(self, two_initials):
        sub = disable_transitions(
            two_initials, {("4", "a", "7"), ("3", "a", "5"), ("4", "a", "5")}
        )
        assert oracle_scso(sub, 10)

    def test_agreement_with_verifiers_on_goldens(
        self, delayed_leak, two_initials, k_safe_not_inf
    ):
        assert oracle_k_sso(delayed_leak, 1, 12) == verify_k_sso(delayed_leak, 1).opaque
        assert oracle_k_sso(delayed_leak, 2, 12) == verify_k_sso(delayed_leak, 2).opaque
        assert oracle_scso(two_initials, 10) == verify_scso(two_initials).opaque
        assert oracle_siso(two_initials, 10) == verify_siso(two_initials).opaque
        assert oracle_inf_sso(k_safe_not_inf, 8) == verify_inf_sso(k_safe_not_inf).opaque


class TestOracleEnforceable:
    def test_no_cut_can_fix_the_two_step_leak(self, unfixable_two_step):
        assert oracle_enforceable(unfixable_two_step, "k-sso", cap=12, k=2) is None

    def test_already_opaque_needs_nothing(self, delayed_leak):
        assert oracle_enforceable(delayed_leak, "k-sso", cap=12, k=1) == frozenset()

    def test_finds_an_initial_state_cut(self, two_initials):
        found = oracle_enforceable(two_initials, "siso", cap=10)
        assert found is not None
        assert oracle_siso(disable_transitions(two_initials, found), 10)

    def test_too_many_controllable_transitions(self):
        states = [str(i) for i in range(17)]
        transitions = [(states[i], "a", states[i + 1]) for i in range(16)]
        nfa = build_nfa(states, ["a"], transitions, ["0"], [])
        with pytest.raises(TooLarge):
            oracle_enforceable(nfa, "scso", cap=17)

    def test_unknown_notion_rejected(self, delayed_leak):
        with pytest.raises(ValueError):
            oracle_enforceable(delayed_leak, "weak-sso", cap=5)

    def test_k_required_for_k_sso(self, delayed_leak):
        with pytest.raises(ValueError):
            oracle_enforceable(delayed_leak, "k-sso", cap=5)
