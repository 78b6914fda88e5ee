"""Deterministic shortest-path machinery over composition graphs.

Costs are (observable length, transition count) pairs added componentwise and
compared lexicographically, so a minimal path is shortest by observable steps
first and by transition count second. Inside the search a cost is one int,
observable << 32 | total, which adds and compares the same way.

There is one search, ``cc_observable_costs``; it visits states in whatever
order the unordered indexes give. It walks ``by_source`` forward and
``by_target`` backward, but a backward walk over uncontrollable transitions
only, the one kind that enforcement runs, walks a private index of the
uncontrollable in-edges, built on first use. A path is read back from its
cost map along ``by_target``: the cheapest target, ties by ``sort_key()``,
then at each step the cheapest in-edge least by (predecessor ``sort_key()``,
event name in natural order). Neither rule depends on visit order, so
witnesses are reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .automaton import Run, natural_key
from .composition import CcAutomaton, CcEvent, CcState, CcTransition

Cost = tuple[int, int]
_OBSERVABLE_STEP = (1 << 32) + 1
_LOW = (1 << 32) - 1


def _plus(cost: Cost, event: CcEvent) -> Cost:
    return (cost[0] + 1, cost[1] + 1) if event.observable else (cost[0], cost[1] + 1)


def cc_observable_costs(
    cc: CcAutomaton,
    sources: Iterable[CcState],
    *,
    uncontrollable_only: bool = False,
    backward: bool = False,
) -> dict[CcState, Cost]:
    """Minimal (observable, total) costs from ``sources`` to every reachable state.

    ``backward`` measures cost of paths INTO the sources instead. With
    ``uncontrollable_only`` the walk may only use transitions whose left event
    is uncontrollable.
    """
    if not backward:
        adjacency = cc.by_source
    elif uncontrollable_only:
        adjacency = cc._uncontrollable_into  # holds no controllable edge
    else:
        adjacency = {dst: [(e, p) for p, e in pairs] for dst, pairs in cc.by_target.items()}
    events = cc.events - cc.controllable_events if uncontrollable_only and not backward else cc.events
    step = {e: _OBSERVABLE_STEP if e.observable else 1 for e in events}  # none: skip the edge
    # A heap entry is one int, cost << 32 | push number: ties go to the first
    # pushed, and the cost map does not depend on which is settled first.
    dist: dict[CcState, int] = {}
    pushed: list[CcState] = []
    for s in sources:
        if s in cc.edges and s not in dist:
            dist[s] = 0
            pushed.append(s)
    heap = list(range(len(pushed)))
    while heap:
        key = heapq.heappop(heap)
        here = pushed[key & _LOW]
        cost = key >> 32
        if cost > dist[here]:
            continue
        for event, nxt in adjacency.get(here, ()):
            weight = step.get(event)
            if weight is None:
                continue
            nc = cost + weight
            old = dist.get(nxt)
            if old is None or nc < old:
                dist[nxt] = nc
                heapq.heappush(heap, nc << 32 | len(pushed))
                pushed.append(nxt)
    return {s: (c >> 32, c & _LOW) for s, c in dist.items()}


@dataclass(frozen=True)
class CcPath:
    """A concrete path through a composition, kept structured so that both the
    composition-level run and its left projection can be produced without
    parsing state names."""

    start: CcState
    edges: tuple[CcTransition, ...]

    @property
    def end(self) -> CcState:
        return self.edges[-1][2] if self.edges else self.start

    def to_run(self) -> Run:
        return Run(
            start=self.start.name,
            steps=tuple((event.name, dst.name) for _, event, dst in self.edges),
        )

    def to_left_run(self) -> Run:
        return Run(
            start=self.start.left,
            steps=tuple((event.left_event, dst.left) for _, event, dst in self.edges),
        )


def _walk_back(
    cc: CcAutomaton,
    dist: dict[CcState, Cost],
    targets: Iterable[CcState],
    *,
    uncontrollable_only: bool = False,
) -> CcPath | None:
    """The canonical cheapest path to any of ``targets``, read from the cost
    map ``dist`` that ``cc_observable_costs`` returned for the same sources
    and transition filter. None when no target is in the map."""
    hit = [t for t in targets if t in dist]
    if not hit:
        return None
    here = min(hit, key=lambda t: (dist[t], t.sort_key()))
    edges: list[CcTransition] = []
    controllable = cc.controllable_events
    while dist[here] != (0, 0):  # every transition costs, so only sources are free
        cost = dist[here]
        best = None
        for pred, event in cc.by_target[here]:
            if uncontrollable_only and event in controllable:
                continue
            if pred not in dist or _plus(dist[pred], event) != cost:
                continue
            tie = (pred.sort_key(), natural_key(event.name))
            if best is None or tie < best[0]:
                best = (tie, (pred, event, here))
        edges.append(best[1])
        here = best[1][0]
    edges.reverse()
    return CcPath(start=here, edges=tuple(edges))


def cc_shortest_path(
    cc: CcAutomaton,
    sources: Iterable[CcState],
    targets: Iterable[CcState],
    *,
    uncontrollable_only: bool = False,
) -> CcPath | None:
    """The canonical cheapest path from ``sources`` to any of ``targets``.

    Returns None when no target is reachable (under the transition filter).
    An empty path is returned when a source is itself a target.
    """
    dist = cc_observable_costs(cc, sources, uncontrollable_only=uncontrollable_only)
    return _walk_back(cc, dist, targets, uncontrollable_only=uncontrollable_only)
