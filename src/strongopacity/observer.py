"""Subset construction (observers) and secret-based classification of estimates.

An estimate is a nonempty, unobservable-reach-closed set of source states,
canonicalized as a naturally-sorted tuple so that set identity is syntactic
and estimates can name product states downstream.

The construction runs on the system's dense index (``Nfa._dense``): an
estimate is a bitmask over the states' natural-order positions, and one step
is the OR of the precomputed reach-closed successor masks of its bits. Each
distinct mask is rendered into its public tuple once, by reading its bits in
ascending order, which is natural order already; that one tuple object is
the estimate everywhere in ``estimates``, ``delta`` and ``initials``. Beside
the public ``delta`` an observer carries ``_table``, the same transition
function over estimate ids, which the product runs on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .automaton import Event, Nfa, _bits, natural_key
from .errors import EmptyEstimate, EmptyInitial, InternalInvariantError, InvalidState

#: Canonical estimate: naturally-sorted tuple of state ids.
Estimate = tuple[str, ...]


def make_estimate(states: Iterable[str]) -> Estimate:
    return tuple(sorted(set(states), key=natural_key))


def estimate_name(estimate: Estimate) -> str:
    return "{" + ",".join(estimate) + "}"


class EstimateClass(Enum):
    SECRET = "Secret"
    NON_SECRET = "NonSecret"
    HYBRID = "Hybrid"


class _Table(NamedTuple):
    """An observer's transition function over estimate ids: ``estimates[i]``
    is the estimate with id ``i``, ``ids`` maps it back, and ``step[i]`` maps
    an event to the id it reaches."""

    estimates: list[Estimate]
    ids: dict[Estimate, int]
    step: list[dict[str, int]]


@dataclass(frozen=True, eq=False)
class Observer:
    """A deterministic automaton over state estimates.

    ``delta`` is a partial function (estimate, observable event) -> estimate;
    undefined steps are simply absent, never mapped to an empty estimate (the
    empty estimate exists only inside composition states).
    """

    estimates: frozenset[Estimate]
    events: tuple[Event, ...]
    delta: Mapping[tuple[Estimate, str], Estimate]
    initials: frozenset[Estimate]

    @cached_property
    def _table(self) -> _Table:
        # Derived from ``delta`` for an observer built by hand; the subset
        # construction sets it directly.
        estimates = list(self.estimates)
        ids = {q: i for i, q in enumerate(estimates)}
        step: list[dict[str, int]] = [{} for _ in estimates]
        for (q, event), q2 in self.delta.items():
            step[ids[q]][event] = ids[q2]
        return _Table(estimates, ids, step)

    def step(self, estimate: Estimate, event: str) -> Estimate | None:
        return self.delta.get((estimate, event))

    def sorted_estimates(self) -> list[Estimate]:
        return sorted(self.estimates)


def _close_and_explore(nfa: Nfa, starts: list[int]) -> Observer:
    """The observer reached from the distinct closed estimate masks ``starts``."""
    dense = nfa._dense
    order = dense.order
    rows = [(e.name, dense.step[e.name]) for e in nfa.alphabet if e.observable]
    ids: dict[int, int] = {}  # mask -> estimate id, ids in discovery order
    estimates: list[Estimate] = []
    todo: deque[list[int]] = deque()  # bits of the discovered, unexpanded estimates

    def discover(mask: int) -> int:
        bits = _bits(mask)
        ids[mask] = len(estimates)
        estimates.append(tuple([order[b] for b in bits]))
        todo.append(bits)
        return ids[mask]

    initials = [discover(m) for m in starts]
    step: list[dict[str, int]] = []
    delta: dict[tuple[Estimate, str], Estimate] = {}
    while todo:
        bits = todo.popleft()  # expanded in id order, so its id is len(step)
        q = estimates[len(step)]
        moves = {}
        for sigma, row in rows:
            mask = 0
            for b in bits:
                mask |= row[b]
            if not mask:
                continue
            j = ids.get(mask)
            if j is None:
                j = discover(mask)
            moves[sigma] = j
            delta[(q, sigma)] = estimates[j]
        step.append(moves)
    table = _Table(estimates, {q: i for i, q in enumerate(estimates)}, step)
    obs = Observer(
        estimates=frozenset(table.ids),
        events=tuple(e for e in nfa.alphabet if e.observable),
        delta=delta,
        initials=frozenset(estimates[i] for i in initials),
    )
    object.__setattr__(obs, "_table", table)
    return obs


def subset_construction(nfa: Nfa) -> Observer:
    """The standard observer: one initial estimate, the unobservable reach of X0."""
    if not nfa.initial:
        raise EmptyInitial("observer of an automaton with no initial states")
    dense = nfa._dense
    start = 0
    for x in nfa.initial:
        start |= dense.reach[dense.position[x]]
    return _close_and_explore(nfa, [start])


def multi_initial_observer(nfa: Nfa, seeds: Iterable[Iterable[str]]) -> Observer:
    """Subset construction started from several initial estimates at once.

    Each seed must be a nonempty subset of the states, already closed under
    unobservable reach; closure is asserted rather than repaired, since a
    violation means the caller's construction is wrong. Seeds that are subsets
    of one another are deliberately not merged.
    """
    dense = nfa._dense
    starts: dict[int, None] = {}  # distinct seed masks, in first-seen order
    for seed in seeds:
        members = set(seed)
        if not members:
            raise EmptyEstimate("empty observer seed")
        mask = closed = 0
        for x in members:
            i = dense.position.get(x)
            if i is None:
                raise InvalidState(f"not a state: {x!r}")
            mask |= 1 << i
            closed |= dense.reach[i]
        if closed != mask:
            raise InternalInvariantError(
                f"seed not closed under unobservable reach: {make_estimate(members)}"
            )
        starts[mask] = None
    return _close_and_explore(nfa, list(starts))


def classify_estimates(obs: Observer, secret: Iterable[str]) -> dict[Estimate, EstimateClass]:
    """Partition estimates into all-secret, all-non-secret, and hybrid."""
    secret = frozenset(secret)
    out = {}
    for q in obs.estimates:
        inside = sum(1 for x in q if x in secret)
        if inside == 0:
            out[q] = EstimateClass.NON_SECRET
        elif inside == len(q):
            out[q] = EstimateClass.SECRET
        else:
            out[q] = EstimateClass.HYBRID
    return out
