"""Subset construction (observers) and secret-based classification of estimates.

An estimate is a nonempty, unobservable-reach-closed set of source states,
canonicalized as a naturally-sorted tuple so that set identity is syntactic
and estimates can name product states downstream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .automaton import Event, Nfa, natural_key, unobservable_reach
from .errors import EmptyEstimate, EmptyInitial, InternalInvariantError

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

    def step(self, estimate: Estimate, event: str) -> Estimate | None:
        return self.delta.get((estimate, event))

    def sorted_estimates(self) -> list[Estimate]:
        return sorted(self.estimates)

    def sorted_edges(self) -> list[tuple[Estimate, str, Estimate]]:
        return sorted(
            ((q, ev, q2) for (q, ev), q2 in self.delta.items()),
            key=lambda e: (e[0], natural_key(e[1]), e[2]),
        )


def _close_and_explore(nfa: Nfa, initials: list[Estimate]) -> Observer:
    observable = nfa.observable_events
    delta: dict[tuple[Estimate, str], Estimate] = {}
    seen: set[Estimate] = set(initials)
    todo = deque(initials)
    while todo:
        q = todo.popleft()
        for sigma in observable:
            moved = set()
            for x in q:
                moved.update(nfa.successors(x, sigma))
            if not moved:
                continue
            q2 = make_estimate(unobservable_reach(nfa, moved))
            delta[(q, sigma)] = q2
            if q2 not in seen:
                seen.add(q2)
                todo.append(q2)
    events = tuple(e for e in nfa.alphabet if e.observable)
    return Observer(
        estimates=frozenset(seen),
        events=events,
        delta=delta,
        initials=frozenset(initials),
    )


def subset_construction(nfa: Nfa) -> Observer:
    """The standard observer: one initial estimate, the unobservable reach of X0."""
    if not nfa.initial:
        raise EmptyInitial("observer of an automaton with no initial states")
    start = make_estimate(unobservable_reach(nfa, nfa.initial))
    return _close_and_explore(nfa, [start])


def multi_initial_observer(nfa: Nfa, seeds: Iterable[Iterable[str]]) -> Observer:
    """Subset construction started from several initial estimates at once.

    Each seed must be a nonempty subset of the states, already closed under
    unobservable reach; closure is asserted rather than repaired, since a
    violation means the caller's construction is wrong. Seeds that are subsets
    of one another are deliberately not merged.
    """
    unique: list[Estimate] = []
    for seed in seeds:
        est = make_estimate(seed)
        if not est:
            raise EmptyEstimate("empty observer seed")
        if frozenset(est) != unobservable_reach(nfa, est):
            raise InternalInvariantError(f"seed not closed under unobservable reach: {est}")
        if est not in unique:
            unique.append(est)
    return _close_and_explore(nfa, unique)


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
