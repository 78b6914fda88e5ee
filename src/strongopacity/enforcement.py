"""Transition-disablement synthesis for the strong opacity notions.

The enforcement mechanism picks a set of controllable transitions to disable
before the system runs, cutting every leaking-secret run. One fixpoint loop
(``_enforce``) serves every notion. Each round rebuilds, for the current
subsystem, the composition that the notion's rule (``verification._RULES``)
names, collects the offending empty-estimate states by the same rule
(``verification._offenders``), and, when there are any, either

* declares the problem impossible, when some offending state is reached by a
  run containing no controllable transition (for the K-step notion this means
  an uncontrollable leaking run whose matching predecessor states in the
  system/observer composition are themselves uncontrollably reachable), or
* disables the whole frontier of "last controllable transitions": every
  controllable transition from whose target an offending state is reachable
  using uncontrollable transitions only (within the remaining observable-step
  budget, for the K-step notion).

Those two answers come from the round of the composition: the K-step round
(``_k_step_round``) on the secret-restart composition, or the
deleted-secret-states round (``_dss_round``) for scso, siso and inf-sso.
The loop alone keeps the round bound, drops what a cut names outside the
current subsystem, and raises when a round makes no progress.

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
state it lists from the initials and records each state's observable layer,
which a frontier with a budget reads as its distance. A
scso, siso or inf-sso round searches forward from the initials over
uncontrollable transitions (the Impossible check) and backward from the
offenders over uncontrollable in-edges (the frontier). A K-step round
searches backward from the offenders, and the system/observer composition
only when an initial pair leaks.

A round works on state numbers (see ``composition``): theta, the leaky
initial pairs, the predecessor states matched to them, the K-step frontier
and the cut are found without building a ``CcState``; a leaky initial pair
and its predecessor states match by an int pair (``_pair``). The frontier
is a set of (source id, packed edge) pairs, which
``last_controllable_frontier`` hands out as an id view, and both rounds cut
the left projections of those pairs (``_Core.left_transition``): only a
witness is rendered. ``CcState`` and ``CcEvent`` are output types only: a
composition state handed in, to the frontier or to a search, is looked up
by its key, and one that is not the composition's is an ``InvalidState``.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import Iterable, Union

from .automaton import Nfa, Run, Transition, _check_k, accessible_part, disable_transitions
from .composition import CcAutomaton, CcState, CcTransition, _cc_full_observer, _cc_hat, _Core, cc_dss
from .errors import InternalInvariantError
from .observer import Observer, _IdSet, subset_construction
from .search import _cost_shift, cc_observable_costs, cc_shortest_path
from .verification import _RULES, INF_SSO, K_SSO, SCSO, SISO, _offenders


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
) -> AbstractSet[CcTransition]:
    """Controllable transitions that end some offending run.

    A transition qualifies when some state of ``bad`` is reachable from its
    target through uncontrollable transitions only (every state of ``cc``
    is reachable from its initials). With a ``budget``, the combined
    observable length (the source's observable layer, plus the
    transition's own cost, plus the minimal uncontrollable distance onward)
    must not exceed it: that is exactly membership in some offending run of
    observable length within the budget. A state of ``bad`` that is not one
    of ``cc`` is an ``InvalidState``.

    The answer is a read-only set view (``_IdSet``) over the (source id,
    packed edge) pairs of ``_frontier``, as ``cc.states`` is over state ids:
    it renders a transition only when it hands one out.
    """
    if budget is not None:
        _check_k(budget, "budget")
    bad = cc_observable_costs(cc, bad, uncontrollable_only=True, backward=True)._data
    core = cc._core
    return _IdSet(core.transition, core.edge_id, _frontier(cc, bad, budget))


def _frontier(cc: CcAutomaton, bad: dict[int, int], budget: int | None) -> set[tuple[int, int]]:
    """``last_controllable_frontier`` from ``bad``, the packed costs into
    the offending states through uncontrollable transitions, as a set of
    (source id, packed edge) pairs. With a ``budget``, a source's distance
    is its observable layer (``cc._layer``): ``product`` reaches every
    state it lists from the initials and records that layer."""
    frontier = set()
    controllable = cc._controllable
    shift = _cost_shift(cc)
    ebits, emask = cc._core.ebits, cc._core.emask
    observable = [e.observable for e in cc._core.events]
    for src, row in enumerate(cc.by_source._data):
        for edge in row:
            if edge >> ebits not in bad or not controllable[edge & emask]:
                continue
            if budget is not None:
                length = cc._layer[src] + observable[edge & emask] + (bad[edge >> ebits] >> shift)
                if length > budget:
                    continue
            frontier.add((src, edge))
    return frontier


def _enforce(nfa: Nfa, notion: str, k: int | None = None) -> EnforcementOutcome:
    """The fixpoint loop. Each round builds the composition that the rule of
    ``notion`` names for the current subsystem, up to layer ``k`` for k-sso,
    and finds its offenders. With none the subsystem is enforced; otherwise
    the round of that composition answers Impossible or the transitions to
    disable."""
    rule = _RULES[notion]
    current = accessible_part(nfa)
    disabled: set[Transition] = set()
    for _ in range(len(current.controllable_transitions) + 2):
        if rule.dss:
            cc = cc_dss(current, secret_only=rule.secret_only)
        else:
            obs = subset_construction(current) if current.secret else None
            # Observable cost never falls along a path, so every state that
            # this round reads (the offenders, their predecessors, the
            # frontier, the Impossible suffix) lies within layer K.
            cc = _cc_hat(current, obs, max_layer=k)
        bad = _offenders(cc, rule, k)
        if not bad:
            return Enforced(frozenset(disabled), current)
        cut = _dss_round(cc, bad) if rule.dss else _k_step_round(current, obs, cc, bad, k)
        if isinstance(cut, Impossible):
            return cut
        cut &= current.transitions
        if not cut:
            raise InternalInvariantError("enforcement round made no progress")
        disabled |= cut
        current = disable_transitions(current, cut)
    raise InternalInvariantError("enforcement loop exceeded its round bound")


def _k_step_round(current: Nfa, obs: Observer, cc: CcAutomaton, theta: _IdSet, k: int) -> Impossible | set[Transition]:
    """A K-step round on the secret-restart composition ``cc`` of
    ``current`` up to layer K, whose offenders ``theta`` are found."""
    # Initial pairs from which an offending state is reachable by a run
    # with no controllable transition and observable length within K.
    back = cc_observable_costs(cc, theta, uncontrollable_only=True, backward=True)._data
    shift = _cost_shift(cc)
    leaky = {_pair(cc._core, i): i for i in cc.initials._ids if i in back and back[i] >> shift <= k}
    cut = set(map(cc._core.left_transition, _frontier(cc, back, budget=k)))
    if leaky:  # only a leaky initial needs the system/observer composition
        ccobs = _cc_full_observer(current, obs)
        # The predecessor states: a leaky pair's left bit and remainder.
        core, keep = ccobs._core, ~obs._table.mask_of(current.secret)
        marked = ccobs._subset(i for i in range(len(core.keys)) if _pair(core, i, keep) in leaky)
        if not marked:
            raise InternalInvariantError("no predecessor states correspond to a leaking initial")
        prefix = cc_shortest_path(ccobs, ccobs.initials, marked, uncontrollable_only=True)
        if prefix is not None:
            anchor = leaky[_pair(core, core.id(prefix.end), keep)]
            suffix = cc_shortest_path(cc, cc._subset([anchor]), theta, uncontrollable_only=True)
            head = prefix.to_left_run()
            return Impossible(Run(head.start, head.steps + suffix.to_left_run().steps))
        cut.update(map(core.left_transition, last_controllable_frontier(ccobs, marked)._ids))
    return cut


def _dss_round(cc: CcAutomaton, bad: _IdSet) -> Impossible | set[Transition]:
    """A scso, siso or inf-sso round on the deleted-secret-states
    composition ``cc``, whose offenders ``bad`` are found."""
    offending = cc_shortest_path(cc, cc.initials, bad, uncontrollable_only=True)
    if offending is not None:
        return Impossible(offending.to_left_run())
    return set(map(cc._core.left_transition, last_controllable_frontier(cc, bad)._ids))


def _pair(core: _Core, i: int, keep: int = -1) -> tuple[int, int]:
    """State ``i``'s left bit and its estimate's mask (0 if empty) cut to
    ``keep``: over the one numbering of a model and all derived from it, so
    the pairs of two compositions built on them compare as they are."""
    key = core.keys[i]
    slot, pos = divmod(key, core.size)
    return pos, (0 if key < 0 else core.table.masks[slot] & keep)


def enforce_k_sso(nfa: Nfa, k: int) -> EnforcementOutcome:
    """Disable controllable transitions until the system is strongly K-step
    opaque, or report that no cut can achieve it."""
    _check_k(k)
    return _enforce(nfa, K_SSO, k)


def enforce_scso(nfa: Nfa) -> EnforcementOutcome:
    """Enforce strong current-state opacity by transition disablement."""
    return _enforce(nfa, SCSO)


def enforce_siso(nfa: Nfa) -> EnforcementOutcome:
    """Enforce strong initial-state opacity by transition disablement."""
    return _enforce(nfa, SISO)


def enforce_inf_sso(nfa: Nfa) -> EnforcementOutcome:
    """Enforce strong infinite-step opacity by transition disablement."""
    return _enforce(nfa, INF_SSO)
