"""Deterministic shortest-path machinery over composition graphs.

Costs are (observable length, transition count) pairs added componentwise and
compared lexicographically, so a minimal path is shortest by observable steps
first and by transition count second. Inside the search a cost is one int,
observable << b | total, which adds and compares the same way; ``b`` bits
hold the number of states, which no minimal total exceeds.

There is one search, ``cc_observable_costs``: a heap of plain ints, each a
cost shifted by ``b`` with a state number below it, over the composition's
int edges. It visits states in whatever order the state numbers give. It
walks the int rows under ``by_source`` forward and under ``by_target``
backward, but a backward walk over uncontrollable transitions only, the one
kind that enforcement runs, walks a private int index of the uncontrollable
in-edges, built on first use. Its answer is an ``_IdMap`` from ``CcState``
to ``Cost`` over the int cost map, whose layout ``_cost_shift`` gives;
callers in the package read the int map itself. ``cc_shortest_path`` runs
that search and reads its path back from the cost map along the in-edges:
the cheapest target, ties by the composition's one state order
(``_Core.sort_key``, which is ``CcState.sort_key``), then at each step the
cheapest in-edge least by (predecessor in that order, event name in natural
order). Neither rule depends on visit order or numbering, so witnesses are
reproducible, and only the path itself is rendered into ``CcState``
objects.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable

from .automaton import Run, natural_key
from .composition import CcAutomaton, CcState, CcTransition
from .observer import _IdMap

Cost = tuple[int, int]


def _cost_shift(cc: CcAutomaton) -> int:
    """The bits of a packed cost that hold its total, below its observable
    part: a total never exceeds the number of states."""
    return len(cc._core.keys).bit_length()


def _weights(cc: CcAutomaton, shift: int, uncontrollable_only: bool) -> list[int | None]:
    """Per event index, the packed cost of one step (None: skip the edge)."""
    step = [(1 << shift) + 1 if e.observable else 1 for e in cc._core.events]
    if uncontrollable_only:
        step = [None if c else w for w, c in zip(step, cc._controllable)]
    return step


def cc_observable_costs(
    cc: CcAutomaton,
    sources: Iterable[CcState],
    *,
    uncontrollable_only: bool = False,
    backward: bool = False,
) -> Mapping[CcState, Cost]:
    """Minimal (observable, total) costs from ``sources`` to every reachable state.

    ``backward`` measures cost of paths INTO the sources instead. With
    ``uncontrollable_only`` the walk may only use transitions whose left event
    is uncontrollable.
    """
    if not backward:
        rows = cc.by_source._data
    elif uncontrollable_only:
        rows = cc._unc_into  # holds no controllable edge
    else:
        rows = cc.by_target._data
    # A heap entry, cost << shift | state id, is one int.
    shift = _cost_shift(cc)
    low = (1 << shift) - 1
    weights = _weights(cc, shift, uncontrollable_only and not backward)
    core = cc._core
    ebits, emask = core.ebits, core.emask
    dist = dict.fromkeys(core.ids_of(sources), 0)
    heap = sorted(dist)
    while heap:
        key = heapq.heappop(heap)
        here = key & low
        cost = key >> shift
        if cost > dist[here]:
            continue
        for edge in rows[here]:
            weight = weights[edge & emask]
            if weight is None:
                continue
            nc = cost + weight
            nxt = edge >> ebits
            old = dist.get(nxt)
            if old is None or nc < old:
                dist[nxt] = nc
                heapq.heappush(heap, nc << shift | nxt)
    return _IdMap(core.state, core.id, dist, dist, lambda cost: (cost >> shift, cost & low))


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


def cc_shortest_path(
    cc: CcAutomaton,
    sources: Iterable[CcState],
    targets: Iterable[CcState],
    *,
    uncontrollable_only: bool = False,
) -> CcPath | None:
    """The canonical cheapest path from ``sources`` to any of ``targets``.

    Returns None when no target is reachable (under the transition filter).
    An empty path is returned when a source is itself a target. The path is
    read back from the cost map along the in-edges (see the module text).
    """
    dist = cc_observable_costs(cc, sources, uncontrollable_only=uncontrollable_only)._data
    core = cc._core
    hit = [t for t in core.ids_of(targets) if t in dist]
    if not hit:
        return None
    sort_key, events, ebits, emask = core.sort_key, core.events, core.ebits, core.emask
    here = min(hit, key=lambda t: (dist[t], sort_key(t)))
    rows = cc._unc_into if uncontrollable_only else cc.by_target._data
    weights = _weights(cc, _cost_shift(cc), False)
    edges: list[CcTransition] = []
    while dist[here]:  # every transition costs, so only sources are free
        cost = dist[here]
        best = None
        for edge in rows[here]:
            pred, event = edge >> ebits, edge & emask
            if pred not in dist or dist[pred] + weights[event] != cost:
                continue
            tie = (sort_key(pred), natural_key(events[event].name))
            if best is None or tie < best[0]:
                best = (tie, pred, event)
        _, pred, event = best
        edges.append(core.transition((pred, here << ebits | event)))
        here = pred
    edges.reverse()
    return CcPath(start=core.state(here), edges=tuple(edges))
