"""Deterministic shortest-path machinery over composition graphs.

Costs are (observable length, transition count) pairs added componentwise and
compared lexicographically, so a minimal path is shortest by observable steps
first and by transition count second.

There is one search, ``cc_observable_costs``; it visits states in whatever
order the unordered indexes give. A path is read back from its cost map: the
cheapest target, ties by ``sort_key()``, then at each step the cheapest
in-edge least by (predecessor ``sort_key()``, event name in natural order).
Neither rule depends on visit order, so witnesses are reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count
from typing import Iterable

from .automaton import Run, natural_key
from .composition import CcAutomaton, CcEvent, CcState, CcTransition

Cost = tuple[int, int]


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
    dist: dict[CcState, Cost] = {}
    # Heap ties are broken by insertion order: the cost map does not depend
    # on which of two equally cheap states is settled first.
    order = count()
    heap: list[tuple[Cost, int, CcState]] = []
    for s in sources:
        if s in cc.by_source and s not in dist:
            dist[s] = (0, 0)
            heapq.heappush(heap, ((0, 0), next(order), s))
    adjacency = cc.by_target if backward else cc.by_source
    controllable = cc.controllable_events
    while heap:
        cost, _, here = heapq.heappop(heap)
        if cost > dist[here]:
            continue
        for first, second in adjacency.get(here, ()):
            event = second if backward else first
            nxt = first if backward else second
            if uncontrollable_only and event in controllable:
                continue
            nc = _plus(cost, event)
            if nxt not in dist or nc < dist[nxt]:
                dist[nxt] = nc
                heapq.heappush(heap, (nc, next(order), nxt))
    return dist


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
