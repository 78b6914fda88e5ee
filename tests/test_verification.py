import pytest

from strongopacity import (
    Run,
    cc_hat,
    disable_transitions,
    effective_k_bound,
    enforce_k_sso,
    last_controllable_frontier,
    observational_reach_within,
    oracle_enforceable,
    oracle_inf_sso,
    oracle_k_sso,
    oracle_scso,
    oracle_siso,
    product,
    subset_construction,
    verify_cso,
    verify_inf_sso,
    verify_k_sso,
    verify_scso,
    verify_siso,
)
from strongopacity.oracle import BoundedRunSet, certified_horizon

from conftest import build_nfa
from corpus import corpus


def by_name(reach):
    return {s.name: d for s, d in reach.items()}


class TestObservationalReach:
    def test_nine_state_composition(self, delayed_leak):
        cc = cc_hat(delayed_leak)
        reach = by_name(observational_reach_within(cc, 5))
        assert reach["(8,∅)"] == 2
        assert reach["(7,{1,2,3,4})"] == 0
        assert reach["(8,{2})"] == 1

    def test_budget_zero_is_silent_closure(self, delayed_leak):
        cc = cc_hat(delayed_leak)
        reach = observational_reach_within(cc, 0)
        assert set(reach) == set(cc.initials)  # no silent transitions here

    def test_unobservable_steps_are_free(self):
        nfa = build_nfa(
            ["0", "1", "2"],
            ["a", "u"],
            [("0", "u", "1"), ("1", "a", "2")],
            ["0"],
            ["0", "1"],
            unobservable=["u"],
        )
        cc = cc_hat(nfa)
        reach = by_name(observational_reach_within(cc, 0))
        assert "(1,∅)" in reach or "(0,∅)" in reach

    def test_seventeen_state_distance(self, unfixable_two_step):
        cc = cc_hat(unfixable_two_step)
        reach = by_name(observational_reach_within(cc, 2))
        assert reach["(5,∅)"] == 2


class TestEffectiveKBound:
    def test_nine_state_system(self, delayed_leak):
        assert effective_k_bound(delayed_leak) == 3 * 2**7 - 1 == 383

    def test_no_secrets(self, delayed_leak):
        assert effective_k_bound(delayed_leak.replace(secret=frozenset())) == 0

    def test_single_absorbing_secret(self):
        nfa = build_nfa(["0", "1"], ["a"], [("0", "a", "1")], ["0"], ["1"])
        assert effective_k_bound(nfa) == 1 * 2**1 - 1 == 1


# A line of 17 states joined by 16 controllable transitions: more than
# ``oracle_enforceable`` will enumerate.
CHAIN = build_nfa([str(i) for i in range(17)], ["a"], [(str(i), "a", str(i + 1)) for i in range(16)], ["0"], ["16"])

# Each function that takes a step bound K, called with ``k`` as that bound.
K_TAKERS = {
    "verify_k_sso": verify_k_sso,
    "enforce_k_sso": enforce_k_sso,
    "product": lambda nfa, k: product(nfa, subset_construction(nfa), [], empty_sink=True, max_layer=k),
    "observational_reach_within": lambda nfa, k: observational_reach_within(cc_hat(nfa), k),
    "last_controllable_frontier": lambda nfa, k: last_controllable_frontier(cc_hat(nfa), [], budget=k),
    # The oracle's doors; all but ``oracle_k_sso`` take ``k`` as the enumeration cap.
    "certified_horizon": certified_horizon,
    "BoundedRunSet.enumerate": BoundedRunSet.enumerate,
    "oracle_k_sso": lambda nfa, k: oracle_k_sso(nfa, k, 10),
    "oracle_k_sso-cap": lambda nfa, k: oracle_k_sso(nfa, 1, k),
    "oracle_scso": oracle_scso,
    "oracle_siso": oracle_siso,
    "oracle_inf_sso": oracle_inf_sso,
    "oracle_enforceable": lambda nfa, k: oracle_enforceable(nfa, "scso", k),
    # On a model too large to enumerate, the cap and K are checked first.
    "oracle_enforceable-chain": lambda nfa, k: oracle_enforceable(CHAIN, "scso", k),
    "oracle_enforceable-chain-K": lambda nfa, k: oracle_enforceable(CHAIN, "k-sso", 3, k),
}


@pytest.mark.parametrize(
    "taker, k",
    [
        pytest.param(taker, k, id=f"{taker}-{k!r}")
        for taker in K_TAKERS
        for k in (-1, 1.5, True, "1", None)
        # None is the default of product's max_layer (explore every layer)
        # and of the frontier's budget (no bound); the oracle's missing K
        # has its own test.
        if not (taker in ("product", "last_controllable_frontier", "oracle_enforceable-chain-K") and k is None)
    ],
)
def test_k_must_be_a_non_negative_int(delayed_leak, taker, k):
    with pytest.raises(ValueError, match="must be non-negative" if k == -1 else "must be a non-negative int"):
        K_TAKERS[taker](delayed_leak, k)


@pytest.mark.parametrize(
    "args, message",
    [(("nope", 3), "unknown notion"), (("k-sso", 3), "needs K"), (("nope", -1), "unknown notion")],
    ids=["unknown-notion", "k-sso-without-K", "notion-before-cap"],
)
def test_oracle_enforceable_checks_its_notion_before_counting(args, message):
    with pytest.raises(ValueError, match=message):
        oracle_enforceable(CHAIN, *args)


class TestVerifyKSso:
    def test_nine_state_verdicts(self, delayed_leak):
        assert verify_k_sso(delayed_leak, 0).opaque
        assert verify_k_sso(delayed_leak, 1).opaque
        assert not verify_k_sso(delayed_leak, 2).opaque
        assert not verify_k_sso(delayed_leak, 3).opaque
        assert not verify_k_sso(delayed_leak, 383).opaque

    def test_witness_is_a_shortest_leaking_run(self, delayed_leak):
        verdict = verify_k_sso(delayed_leak, 2)
        assert verdict.witness == Run(
            start="(7,{1,2,3,4})",
            steps=(("(b,b)", "(8,{2})"), ("(c,c)", "(8,∅)")),
        )

    def test_k_safe_for_any_budget(self, k_safe_not_inf):
        for k in (0, 1, 5, 10**9):
            assert verify_k_sso(k_safe_not_inf, k).opaque

    def test_seventeen_state_verdicts(self, unfixable_two_step):
        assert verify_k_sso(unfixable_two_step, 1).opaque
        assert not verify_k_sso(unfixable_two_step, 2).opaque

    def test_witness_absent_iff_opaque(self, delayed_leak):
        assert verify_k_sso(delayed_leak, 1).witness is None
        assert verify_k_sso(delayed_leak, 2).witness is not None


class TestVerifyCso:
    def test_nine_state_system(self, delayed_leak):
        assert verify_cso(delayed_leak).opaque

    def test_no_secrets(self, delayed_leak):
        assert verify_cso(delayed_leak.replace(secret=frozenset())).opaque

    def test_single_secret_state(self):
        nfa = build_nfa(["0"], [], [], ["0"], ["0"])
        verdict = verify_cso(nfa)
        assert not verdict.opaque
        assert verdict.witness == Run(start="{0}", steps=())

    def test_witness_path_reaches_all_secret_estimate(self, delayed_leak):
        sub = disable_transitions(delayed_leak, {("7", "b", "8")})
        verdict = verify_cso(sub)
        assert not verdict.opaque
        assert verdict.witness.start == "{0,6}"
        assert verdict.witness.steps[-1][1] == "{5}"

    def test_zero_sso_equals_cso(self, delayed_leak, two_initials, k_safe_not_inf):
        for nfa in (delayed_leak, two_initials, k_safe_not_inf):
            assert verify_k_sso(nfa, 0).opaque == verify_cso(nfa).opaque


class TestDssNotions:
    def test_two_initial_system(self, two_initials):
        scso = verify_scso(two_initials)
        siso = verify_siso(two_initials)
        inf = verify_inf_sso(two_initials)
        assert not scso.opaque and not siso.opaque and not inf.opaque
        assert scso.witness.steps[-1][1] == "(9,∅)"
        assert siso.witness.start == "(1,{0,2})"
        assert siso.witness.steps[-1][1] == "(8,∅)"

    def test_k_safe_system_is_not_inf_sso(self, k_safe_not_inf):
        assert not verify_inf_sso(k_safe_not_inf).opaque

    def test_no_secrets_all_opaque(self, two_initials):
        bare = two_initials.replace(secret=frozenset())
        assert verify_scso(bare).opaque
        assert verify_siso(bare).opaque
        assert verify_inf_sso(bare).opaque

    def test_siso_vacuous_without_secret_initials(self, two_initials):
        relabeled = two_initials.replace(secret=frozenset({"5", "9"}))
        assert verify_siso(relabeled).opaque

    def test_empty_system_opaque_everywhere(self, delayed_leak):
        empty = delayed_leak.replace(initial=frozenset())
        assert verify_k_sso(empty, 3).opaque
        assert verify_cso(empty).opaque
        assert verify_scso(empty).opaque
        assert verify_siso(empty).opaque
        assert verify_inf_sso(empty).opaque


class TestStructuralProperties:
    def test_monotone_in_k(self):
        for nfa in corpus(20260802, 40):
            bound = effective_k_bound(nfa)
            previous = True
            for k in range(min(bound, 6) + 2):
                opaque = verify_k_sso(nfa, k).opaque
                assert not (opaque and not previous)  # opacity can only degrade
                previous = opaque

    def test_inf_sso_implies_the_rest(self):
        for nfa in corpus(20260803, 40):
            if verify_inf_sso(nfa).opaque:
                assert verify_scso(nfa).opaque
                assert verify_siso(nfa).opaque
                for k in range(min(effective_k_bound(nfa), 5) + 1):
                    assert verify_k_sso(nfa, k).opaque

    def test_k_beyond_the_bound_changes_nothing(self):
        # No composition state lies further than the bound, so K needs no cap.
        for nfa in corpus(20260804, 40):
            at_bound = verify_k_sso(nfa, effective_k_bound(nfa))
            huge = verify_k_sso(nfa, 10**9)
            assert (huge.opaque, huge.witness) == (at_bound.opaque, at_bound.witness)
