"""Decision procedures for the strong state-based opacity notions.

One rule per strong notion (``_RULES``) says what its check reads: which
composition, which initial pairs seed it, and which of its empty-estimate
states offend.

=======  ===================================  ====================  ======================
notion   composition                          seeded from           offending states
=======  ===================================  ====================  ======================
k-sso    secret-restart (``cc_hat``)          its restart pairs     all, within layer K
scso     deleted-secret-states (``cc_dss``)   every initial pair    secret left state only
siso     deleted-secret-states (``cc_dss``)   secret initial pairs  all
inf-sso  deleted-secret-states (``cc_dss``)   every initial pair    all
=======  ===================================  ====================  ======================

Every verdict comes from one body (``_verdict``): the notion is violated
exactly when its composition holds an offending state, after the one
K-step extra, the current-state pre-check on the observer (a system that
already reveals a secret at distance zero fails every K). K needs no cap:
the secret-restart composition has at most |X̂|·2^|X\\X_S| states, so none
lies further than ``effective_k_bound``, and runtime never depends on the
numeric K. Enforcement reads the same rules. Every check, and
``effective_k_bound``, reads its operands (the accessible part, its
observer, the deleted-secret-states observer, the secret-restart operands)
from the bundle that ``composition._operands`` holds for the model it is
given, so the notions checked back to back on one model build each of
them once.

Negative verdicts carry one shortest leaking run (observable length first,
then transition count, ties by state-name order). The current-state witness
is a breadth-first observer path instead, ties going to the first discovered.

None of these checks needs the whole composition. Each builds it one
observable layer at a time and stops after layer K or at the first
offending state: ``product``'s ``stop_on`` is the rule's set of left states
whose empty-estimate states offend. For k-sso, siso and inf-sso that is
every left state, and the search stops after the layer whose observable
moves find the first empty-estimate state; for scso it stops only after
the first layer holding a secret one, whose cheapest path may end with an
unobservable move from a non-secret empty-estimate state of the same layer.
Every state cheaper than the cheapest offending one is then expanded, so
its cost and its in-edges are exact, and the search on the partial
composition gives the verdict and the witness the whole one gives. So does
any composition expanded further: the bundle keeps the composition built
furthest (``composition._kept``), and the build's own stop rule
(``composition._grown``) answers a later check with it as it is when the
check stops within its layers, or else expands a copy of it on. So k-sso
at K = 3 goes on from the layers that K = 1 built, and inf-sso, which
never stops later than scso, reads the prefix that scso built.

The offending states are picked by state number, from the layer ``product``
records for each state and from the left state of each number, so
a verdict builds no ``CcState`` beyond those on its witness path and the
ones its tie-breaks compare.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import Nfa, Run, _check_k
from .composition import CcAutomaton, CcState, _cc_dss, _cc_hat, _operands
from .observer import Observer, _IdSet, estimate_name
from .search import cc_shortest_path

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


@dataclass(frozen=True)
class _Rule:
    """What a strong notion reads. ``dss``: the deleted-secret-states
    composition, else the secret-restart one. ``secret_only``: only the
    secret initial pairs seed it. ``offending``: the field of the left
    automaton ("states" or "secret") holding the left states whose
    empty-estimate states offend, within layer K for k-sso; that field of
    the checked system is ``product``'s ``stop_on``."""

    dss: bool
    secret_only: bool
    offending: str


_RULES = {
    K_SSO: _Rule(dss=False, secret_only=False, offending="states"),
    SCSO: _Rule(dss=True, secret_only=False, offending="secret"),
    SISO: _Rule(dss=True, secret_only=True, offending="states"),
    INF_SSO: _Rule(dss=True, secret_only=False, offending="states"),
}


def _offenders(cc: CcAutomaton, rule: _Rule, k: int | None) -> _IdSet:
    """The offending empty-estimate states of ``cc`` under ``rule``, within
    layer ``k`` when a K is given."""
    left = getattr(cc.left, rule.offending)
    layer, left_of = cc._layer, cc._core.left_of
    return cc._subset(i for i in cc.empty_states._ids if (k is None or layer[i] <= k) and left_of(i) in left)


def effective_k_bound(nfa: Nfa) -> int:
    """The step bound beyond which the K-step verdict can no longer change."""
    ops = _operands(nfa)
    return max(0, len(ops.ghat.states) * 2 ** len(ops.acc.states - ops.acc.secret) - 1)


def observational_reach_within(cc: CcAutomaton, budget: int) -> dict[CcState, int]:
    """States within ``budget`` observable steps of the initials, with their
    minimal observable distance (unobservable transitions are free), which
    is the layer ``product`` recorded for the state."""
    _check_k(budget, "budget")
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
    ops = _operands(nfa)
    acc = ops.acc
    if not acc.initial:
        return Verdict(True, CSO)
    witness = _cso_witness(ops.observer, acc.secret)
    return Verdict(witness is None, CSO, witness=witness)


def _verdict(nfa: Nfa, notion: str, k: int | None = None) -> Verdict:
    """The verdict of ``notion`` (at ``k`` for k-sso) under its rule, from
    the composition built up to its first offender or layer ``k``."""
    rule = _RULES[notion]
    ops = _operands(nfa)
    acc = ops.acc
    if not acc.initial:
        return Verdict(True, notion, k)
    stop = {"stop_on": getattr(acc, rule.offending), "max_layer": k}
    if rule.dss:
        cc = _cc_dss(ops, secret_only=rule.secret_only, **stop)
    else:
        witness = _cso_witness(ops.observer, acc.secret)
        if witness is not None:
            return Verdict(False, notion, k, witness=witness)
        cc = _cc_hat(ops, **stop)
    bad = _offenders(cc, rule, k)
    witness = cc_shortest_path(cc, cc.initials, bad).to_run() if bad else None
    return Verdict(witness is None, notion, k, witness=witness)


def verify_k_sso(nfa: Nfa, k: int) -> Verdict:
    """Strong K-step opacity of the system w.r.t. its secret states."""
    _check_k(k)
    return _verdict(nfa, K_SSO, k)


def verify_scso(nfa: Nfa) -> Verdict:
    """Strong current-state opacity (every secret-ending run has an
    observationally equivalent run through non-secret states only)."""
    return _verdict(nfa, SCSO)


def verify_siso(nfa: Nfa) -> Verdict:
    """Strong initial-state opacity (every run from a secret initial state has
    a non-secret observational twin)."""
    return _verdict(nfa, SISO)


def verify_inf_sso(nfa: Nfa) -> Verdict:
    """Strong infinite-step opacity (secret visits stay deniable forever)."""
    return _verdict(nfa, INF_SSO)
