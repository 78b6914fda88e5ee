"""Decision procedures for the strong state-based opacity notions.

The K-step check first runs the current-state pre-check on the observer (a
system that already reveals a secret at distance zero fails every K), then
looks for an empty-estimate state within K observable steps of the
secret-restart composition. K needs no cap: that composition has at most
|X̂|·2^|X\\X_S| states, so none lies further than ``effective_k_bound``, and
runtime never depends on the numeric K.

The current-/initial-/infinite-step checks all read the composition with the
deleted-secret-states observer: an empty-estimate state with a secret left
component, an empty-estimate state reachable from a secret initial pair, or
any empty-estimate state at all, respectively.

Negative verdicts carry one shortest leaking run (observable length first,
then transition count, ties by state-name order). The current-state witness
is a breadth-first observer path instead, ties going to the first discovered.

None of these checks needs the whole composition. Each builds it one
observable layer at a time (for siso, seeded from the secret initial pairs
only) and stops after layer K or at the first offending state. For k-sso,
siso and inf-sso every empty-estimate state offends, and the search stops
after the layer whose observable moves find the first one; for scso it
stops only after the first layer holding a secret one, whose cheapest path
may end with an unobservable move from a non-secret empty-estimate state of
the same layer. Every state cheaper than the cheapest offending one is then
expanded, so its cost and its in-edges are exact, and the search on the
partial composition gives the verdict and the witness the whole one gives.

The offending states are picked by state number, from the layer ``product``
records for each state and from the left state of each number, so
a verdict builds no ``CcState`` beyond those on its witness path and the
ones its tie-breaks compare.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass

from .automaton import Nfa, Run, accessible_part
from .composition import CcAutomaton, CcState, _cc_dss, _cc_hat
from .observer import Observer, estimate_name, subset_construction
from .search import cc_shortest_path
from .subautomata import initial_secret_subautomaton

K_SSO = "k-sso"
CSO = "cso"
SCSO = "scso"
SISO = "siso"
INF_SSO = "inf-sso"


@dataclass(frozen=True)
class Verdict:
    """An opacity answer, with a witness leaking run when negative."""

    opaque: bool
    notion: str
    k: int | None = None
    witness: Run | None = None

    def describe(self) -> str:
        label = f"{self.notion}(K={self.k})" if self.notion == K_SSO else self.notion
        return f"{label}: {'opaque' if self.opaque else 'not opaque'}"


def effective_k_bound(nfa: Nfa) -> int:
    """The step bound beyond which the K-step verdict can no longer change."""
    acc = accessible_part(nfa)
    ghat = initial_secret_subautomaton(acc)
    return max(0, len(ghat.states) * 2 ** len(acc.states - acc.secret) - 1)


def observational_reach_within(cc: CcAutomaton, budget: int) -> dict[CcState, int]:
    """States within ``budget`` observable steps of the initials, with their
    minimal observable distance (unobservable transitions are free), which
    is the layer ``product`` recorded for the state."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    state = cc._core.state
    return {state(i): n for i, n in enumerate(cc._layer) if n <= budget}


def _cso_witness(obs: Observer, secret: frozenset[str]) -> Run | None:
    """Breadth-first observer path from the initial estimate to the nearest
    all-secret estimate (ties by estimate), each step the one on which the
    search first discovered its estimate; None when no estimate is all-secret.

    It runs on estimate ids and masks, layer by layer, and stops at the
    first layer holding an all-secret estimate: only that layer's offenders
    and the path are rendered."""
    table = obs._table
    inside = table.mask_of(secret)
    if all(mask & ~inside for mask in table.masks):
        return None
    (start,) = table.initials
    parent: dict[int, tuple[int, str] | None] = {start: None}
    names = [event.name for event in obs.events]  # natural order, as the alphabet is kept
    level = [start]
    while level:
        hits = [i for i in level if not table.masks[i] & ~inside]
        if hits:
            break
        found = []
        for i in level:
            moves = table.step[i]
            for event in names:
                j = moves.get(event)
                if j is not None and j not in parent:
                    parent[j] = (i, event)
                    found.append(j)
        level = found
    here = min(hits, key=table.estimate)
    steps = []
    while parent[here] is not None:
        prev, event = parent[here]
        steps.append((event, estimate_name(table.estimate(here))))
        here = prev
    steps.reverse()
    return Run(start=estimate_name(table.estimate(start)), steps=tuple(steps))


def verify_cso(nfa: Nfa) -> Verdict:
    """Current-state opacity: no reachable estimate may be entirely secret."""
    acc = accessible_part(nfa)
    if not acc.initial:
        return Verdict(True, CSO)
    witness = _cso_witness(subset_construction(acc), acc.secret)
    return Verdict(witness is None, CSO, witness=witness)


def verify_k_sso(nfa: Nfa, k: int) -> Verdict:
    """Strong K-step opacity of the system w.r.t. its secret states."""
    if k < 0:
        raise ValueError("K must be non-negative")
    acc = accessible_part(nfa)
    if not acc.initial:
        return Verdict(True, K_SSO, k)
    obs = subset_construction(acc)
    witness = _cso_witness(obs, acc.secret)
    if witness is not None:
        return Verdict(False, K_SSO, k, witness=witness)
    # Every empty-estimate state within K layers offends; only a witness searches.
    cc = _cc_hat(acc, obs, stop_on=acc.states, max_layer=k)
    layer = cc._layer
    bad = cc._subset(i for i in cc.empty_states._ids if layer[i] <= k)
    if not bad:
        return Verdict(True, K_SSO, k)
    return Verdict(False, K_SSO, k, witness=cc_shortest_path(cc, cc.initials, bad).to_run())


def _dss_offenders(cc: CcAutomaton, notion: str) -> AbstractSet[CcState]:
    """The offending empty-estimate states of ``notion`` in a
    deleted-secret-states composition: those with a secret left state for
    scso, and all for inf-sso, and for siso, whose composition the secret
    initial pairs alone seed (``product`` reaches every state from them)."""
    if notion == SCSO:
        secret = cc.left.secret
        return cc._subset(i for i in cc.empty_states._ids if cc._core.left_of(i) in secret)
    return cc.empty_states


def _dss_verdict(nfa: Nfa, notion: str) -> Verdict:
    acc = accessible_part(nfa)
    if not acc.initial:
        return Verdict(True, notion)
    # Only the secret initial pairs start an offending siso run, and only a
    # secret left state offends for scso.
    cc = _cc_dss(
        acc,
        secret_only=notion == SISO,
        stop_on=acc.secret if notion == SCSO else acc.states,
    )
    bad = _dss_offenders(cc, notion)
    if not bad:
        return Verdict(True, notion)
    return Verdict(False, notion, witness=cc_shortest_path(cc, cc.initials, bad).to_run())


def verify_scso(nfa: Nfa) -> Verdict:
    """Strong current-state opacity (every secret-ending run has an
    observationally equivalent run through non-secret states only)."""
    return _dss_verdict(nfa, SCSO)


def verify_siso(nfa: Nfa) -> Verdict:
    """Strong initial-state opacity (every run from a secret initial state has
    a non-secret observational twin)."""
    return _dss_verdict(nfa, SISO)


def verify_inf_sso(nfa: Nfa) -> Verdict:
    """Strong infinite-step opacity (secret visits stay deniable forever)."""
    return _dss_verdict(nfa, INF_SSO)
