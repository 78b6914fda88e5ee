"""Transition-disablement synthesis for the strong opacity notions.

The enforcement mechanism picks a set of controllable transitions to disable
before the system runs, cutting every leaking-secret run. Each round of the
fixpoint loop rebuilds the verification structures for the current subsystem,
collects the offending empty-estimate states, and either

* declares the problem impossible, when some offending state is reached by a
  run containing no controllable transition (for the K-step notion this means
  an uncontrollable leaking run whose matching predecessor states in the
  system/observer composition are themselves uncontrollably reachable), or
* disables the whole frontier of "last controllable transitions": every
  controllable transition from whose target an offending state is reachable
  using uncontrollable transitions only (within the remaining observable-step
  budget, for the K-step notion).

Disabling can turn previously matched runs into leaking ones, which is exactly
why the loop rebuilds and repeats; every round removes at least one
controllable transition, so it ends within |controllable transitions| rounds.

A round builds only the part of a composition that it reads: the K-step
round explores the secret-restart composition up to observable layer K, and
the siso round the deleted-secret-states composition from the secret initial
pairs. The first part holds every predecessor of the states it expands
(observable cost never falls along a path), the second every successor of
its sources, so the offenders, the costs, the frontier and the witness are
those of the whole composition.

A round runs no search for reachability or layers: ``product`` reaches every
state it lists from the initials, and a layered product knows each state's
observable layer. A scso, siso or inf-sso round searches forward from the
initials over uncontrollable transitions (the Impossible check) and backward
from the offenders over uncontrollable in-edges (the frontier). A K-step
round searches backward from the offenders, and the system/observer
composition only when an initial pair leaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .automaton import Nfa, Run, Transition, accessible_part, disable_transitions
from .composition import CcAutomaton, CcState, CcTransition, _cc_full_observer, _cc_hat, cc_dss
from .errors import InternalInvariantError, InvalidState
from .observer import subset_construction
from .search import Cost, cc_observable_costs, cc_shortest_path
from .verification import INF_SSO, SCSO, SISO, _dss_offenders


@dataclass(frozen=True)
class Enforced:
    """A successful outcome: the cut set and the resulting subsystem."""

    disabled: frozenset[Transition]
    subsystem: Nfa


@dataclass(frozen=True)
class Impossible:
    """No cut works: ``witness`` is a leaking-secret run of the system whose
    events are all uncontrollable (for the K-step notion it already includes
    the predecessor segment that reaches the secret state)."""

    witness: Run


EnforcementOutcome = Union[Enforced, Impossible]


def last_controllable_frontier(
    cc: CcAutomaton,
    bad: Iterable[CcState],
    budget: int | None = None,
    sources: Iterable[CcState] | None = None,
) -> frozenset[CcTransition]:
    """Controllable transitions that end some offending run.

    A transition qualifies when its source is reachable from ``sources``
    (the initials by default) and some state of ``bad`` is reachable from its
    target through uncontrollable transitions only. With a ``budget``, the
    combined observable length (minimal distance to the source, plus the
    transition's own cost, plus the minimal uncontrollable distance onward)
    must not exceed it: that is exactly membership in some offending run of
    observable length within the budget.
    """
    bad = set(bad)
    for s in bad:
        if s not in cc.by_source:
            raise InvalidState(f"not a composition state: {s.name}")
    if not bad:
        return frozenset()
    reach = None  # ``product`` reaches every state it lists from the initials
    if budget is not None or sources is not None:
        costs = cc_observable_costs(cc, cc.initials if sources is None else sources)
        reach = {s: c[0] for s, c in costs.items()}
    bad_costs = cc_observable_costs(cc, bad, uncontrollable_only=True, backward=True)
    return _frontier(cc, reach, bad_costs, budget)


def _frontier(
    cc: CcAutomaton,
    reach: dict[CcState, int] | None,
    bad_costs: dict[CcState, Cost],
    budget: int | None,
) -> frozenset[CcTransition]:
    """``last_controllable_frontier`` from maps the caller holds: ``reach``,
    each state's observable distance from the sources (None when they reach
    every state and no budget applies), and ``bad_costs``, the costs into
    the offending states through uncontrollable transitions."""
    frontier = set()
    controllable = cc.controllable_events
    for src, pairs in cc.by_source.items():
        if reach is not None and src not in reach:
            continue
        for event, dst in pairs:
            if dst not in bad_costs or event not in controllable:
                continue
            if budget is not None:
                length = reach[src] + (1 if event.observable else 0) + bad_costs[dst][0]
                if length > budget:
                    continue
            frontier.add((src, event, dst))
    return frozenset(frontier)


def _left_cut(frontier: Iterable[CcTransition], system: Nfa) -> frozenset[Transition]:
    cut = frozenset((src.left, event.left_event, dst.left) for src, event, dst in frontier)
    return cut & system.transitions


def enforce_k_sso(nfa: Nfa, k: int) -> EnforcementOutcome:
    """Disable controllable transitions until the system is strongly K-step
    opaque, or report that no cut can achieve it."""
    if k < 0:
        raise ValueError("K must be non-negative")
    current = accessible_part(nfa)
    disabled: set[Transition] = set()
    for _ in range(len(current.controllable_transitions) + 2):
        obs = subset_construction(current) if current.secret else None
        # Observable cost never falls along a path, so every state that this
        # round reads (theta, its predecessors, the frontier, the Impossible
        # suffix) lies within layer K of the composition.
        cc = _cc_hat(current, obs, max_layer=k)
        theta = {s for s in cc.empty_states if cc._layers[s] <= k}
        if not theta:
            return Enforced(frozenset(disabled), current)

        # Initial pairs from which an offending state is reachable by a run
        # with no controllable transition and observable length within K.
        unc_back = cc_observable_costs(cc, theta, uncontrollable_only=True, backward=True)
        leaky = [i for i in cc.initials if i in unc_back and unc_back[i][0] <= k]
        marked: set[CcState] = set()
        if leaky:  # only a leaky initial needs the system/observer composition
            ccobs = _cc_full_observer(current, obs)
            # The pairs whose left state and non-secret remainder are a leaky
            # initial's, in one scan.
            lefts = {i.left for i in leaky}
            wanted = {(i.left, frozenset(i.right or ())) for i in leaky}
            marked = {
                s
                for s in ccobs.edges
                if s.left in lefts and (s.left, frozenset(s.right) - current.secret) in wanted
            }
        if leaky and not marked:
            raise InternalInvariantError("no predecessor states correspond to a leaking initial")
        if marked:
            prefix = cc_shortest_path(ccobs, ccobs.initials, marked, uncontrollable_only=True)
            if prefix is not None:
                end = prefix.end
                remainder = frozenset(end.right) - current.secret
                anchor = min(
                    (i for i in leaky if i.left == end.left and frozenset(i.right or ()) == remainder),
                    key=CcState.sort_key,
                )
                suffix = cc_shortest_path(cc, [anchor], theta, uncontrollable_only=True)
                head = prefix.to_left_run()
                return Impossible(Run(head.start, head.steps + suffix.to_left_run().steps))

        frontier = _frontier(cc, cc._layers, unc_back, budget=k)
        if marked:
            frontier |= last_controllable_frontier(ccobs, marked, budget=None)
        cut = _left_cut(frontier, current)
        if not cut:
            raise InternalInvariantError("enforcement round made no progress")
        disabled |= cut
        current = disable_transitions(current, cut)
    raise InternalInvariantError("enforcement loop exceeded its round bound")


def _enforce_dss(nfa: Nfa, notion: str) -> EnforcementOutcome:
    current = accessible_part(nfa)
    disabled: set[Transition] = set()
    for _ in range(len(current.controllable_transitions) + 2):
        cc = cc_dss(current, secret_only=notion == SISO)
        bad = _dss_offenders(cc, notion)
        if not bad:
            return Enforced(frozenset(disabled), current)
        offending = cc_shortest_path(cc, cc.initials, bad, uncontrollable_only=True)
        if offending is not None:
            return Impossible(offending.to_left_run())
        cut = _left_cut(last_controllable_frontier(cc, bad), current)
        if not cut:
            raise InternalInvariantError("enforcement round made no progress")
        disabled |= cut
        current = disable_transitions(current, cut)
    raise InternalInvariantError("enforcement loop exceeded its round bound")


def enforce_scso(nfa: Nfa) -> EnforcementOutcome:
    """Enforce strong current-state opacity by transition disablement."""
    return _enforce_dss(nfa, SCSO)


def enforce_siso(nfa: Nfa) -> EnforcementOutcome:
    """Enforce strong initial-state opacity by transition disablement."""
    return _enforce_dss(nfa, SISO)


def enforce_inf_sso(nfa: Nfa) -> EnforcementOutcome:
    """Enforce strong infinite-step opacity by transition disablement."""
    return _enforce_dss(nfa, INF_SSO)
