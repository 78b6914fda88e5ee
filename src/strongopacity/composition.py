"""Concurrent compositions: product automata pairing a concrete run with an
estimate of matching runs.

One product engine serves all three structures used by the verifiers and
enforcers; they differ only in operand choice and in whether an undefined
observer step collapses the estimate to the empty sink:

* secret-restart side vs. the multi-initial observer of the non-secret
  remainder (empty sink on) — decides strong K-step opacity;
* the system vs. its own observer (sink never needed: the estimate always
  contains the concrete state) — supplies enforcement's predecessor runs;
* the system vs. the observer of the deleted-secret-states remainder (empty
  sink on) — decides strong current-/initial-/infinite-step opacity.

A product state whose estimate has collapsed marks a leaking-secret run; the
empty estimate is absorbing.

The product is explored, and its ``by_source``/``by_target`` indexes are
built, in no particular order; ``CcState.sort_key`` orders states only where
they are output (``sorted_states``, ``sorted_transitions``) or where a
witness tie is broken.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .automaton import Event, Nfa, accessible_part, natural_key
from .errors import AlphabetMismatch, InternalInvariantError
from .observer import (
    Estimate,
    EstimateClass,
    Observer,
    classify_estimates,
    make_estimate,
    multi_initial_observer,
    subset_construction,
)
from .subautomata import (
    dss_subautomaton,
    initial_secret_subautomaton,
    nonsecret_subautomaton,
)

EMPTY_MARK = "∅"  # rendered empty estimate
EPSILON_MARK = "ε"  # rendered silent right component


@dataclass(frozen=True)
class CcState:
    """A product state: concrete state on the left, estimate (or None) on the right."""

    left: str
    right: Estimate | None

    @property
    def is_empty(self) -> bool:
        return self.right is None

    @property
    def name(self) -> str:
        if self.right is None:
            return f"({self.left},{EMPTY_MARK})"
        return f"({self.left},{{{','.join(self.right)}}})"

    def sort_key(self) -> tuple:
        return (natural_key(self.left), self.right is None, self.right or ())


@dataclass(frozen=True)
class CcEvent:
    """A paired event: (sigma, sigma) when observable, (sigma, epsilon) otherwise."""

    left_event: str
    right_event: str | None

    @property
    def name(self) -> str:
        right = self.right_event if self.right_event is not None else EPSILON_MARK
        return f"({self.left_event},{right})"

    @property
    def observable(self) -> bool:
        return self.right_event is not None


CcTransition = tuple[CcState, CcEvent, CcState]


@dataclass(frozen=True, eq=False)
class CcAutomaton:
    """The reachable part of a concurrent composition.

    Keeps references to its operands so downstream code can interrogate
    controllability and secrecy of the left components.
    """

    left: Nfa
    right: Observer
    states: frozenset[CcState]
    events: frozenset[CcEvent]
    transitions: frozenset[CcTransition]
    initials: frozenset[CcState]

    @cached_property
    def by_source(self) -> dict[CcState, tuple[tuple[CcEvent, CcState], ...]]:
        index: dict[CcState, list[tuple[CcEvent, CcState]]] = {s: [] for s in self.states}
        for src, event, dst in self.transitions:
            index[src].append((event, dst))
        return {s: tuple(pairs) for s, pairs in index.items()}

    @cached_property
    def by_target(self) -> dict[CcState, tuple[tuple[CcState, CcEvent], ...]]:
        index: dict[CcState, list[tuple[CcState, CcEvent]]] = {s: [] for s in self.states}
        for src, event, dst in self.transitions:
            index[dst].append((src, event))
        return {s: tuple(pairs) for s, pairs in index.items()}

    def is_controllable(self, transition: CcTransition) -> bool:
        return self.left.is_controllable(transition[1].left_event)

    @cached_property
    def empty_states(self) -> frozenset[CcState]:
        return frozenset(s for s in self.states if s.is_empty)

    @cached_property
    def secret_initials(self) -> frozenset[CcState]:
        return frozenset(s for s in self.initials if s.left in self.left.secret)

    def sorted_states(self) -> list[CcState]:
        return sorted(self.states, key=CcState.sort_key)

    def sorted_transitions(self) -> list[CcTransition]:
        return sorted(
            self.transitions,
            key=lambda t: (t[0].sort_key(), natural_key(t[1].name), t[2].sort_key()),
        )

    def state_names(self) -> frozenset[str]:
        return frozenset(s.name for s in self.states)


def _paired_events(left: Nfa) -> frozenset[CcEvent]:
    return frozenset(
        CcEvent(e.name, e.name if e.observable else None) for e in left.alphabet
    )


def product(
    left: Nfa,
    right: Observer,
    initials: Iterable[CcState],
    empty_sink: bool,
) -> CcAutomaton:
    """BFS closure of ``initials`` under the paired-transition rules.

    An observable event moves both sides (the right along the observer's
    partial map, collapsing to the empty estimate when the map is undefined
    and ``empty_sink`` holds, and dropping the pair transition otherwise); an
    unobservable event moves the left side only. Once empty, the right side
    stays empty while the left moves freely.
    """
    right_names = {e.name for e in right.events}
    if not right_names <= left.observable_events:
        raise AlphabetMismatch(
            f"observer events {sorted(right_names)} exceed left observable alphabet"
        )
    initials = list(initials)
    for s in initials:
        if s.left not in left.states:
            raise AlphabetMismatch(f"initial left component is not a left state: {s.left!r}")
        if s.right is not None and s.right not in right.estimates:
            raise AlphabetMismatch(f"initial right component is not an estimate: {s.right}")

    states: set[CcState] = set(initials)
    transitions: set[CcTransition] = set()
    todo = deque(states)
    while todo:
        src = todo.popleft()
        for sigma, left_dst in left.by_source.get(src.left, ()):
            if left.is_observable(sigma):
                if src.right is None:
                    dst_right: Estimate | None = None
                else:
                    stepped = right.step(src.right, sigma)
                    if stepped is None and not empty_sink:
                        continue
                    dst_right = stepped
                event = CcEvent(sigma, sigma)
            else:
                dst_right = src.right
                event = CcEvent(sigma, None)
            dst = CcState(left_dst, dst_right)
            transitions.add((src, event, dst))
            if dst not in states:
                states.add(dst)
                todo.append(dst)
    return CcAutomaton(
        left=left,
        right=right,
        states=frozenset(states),
        events=_paired_events(left),
        transitions=frozenset(transitions),
        initials=frozenset(initials),
    )


def _empty_observer(nfa: Nfa) -> Observer:
    return Observer(
        estimates=frozenset(),
        events=tuple(e for e in nfa.alphabet if e.observable),
        delta={},
        initials=frozenset(),
    )


def _empty_cc(left: Nfa, right: Observer) -> CcAutomaton:
    return CcAutomaton(
        left=left,
        right=right,
        states=frozenset(),
        events=_paired_events(left),
        transitions=frozenset(),
        initials=frozenset(),
    )


def cc_hat(nfa: Nfa) -> CcAutomaton:
    """The composition of the secret-restart side with the multi-initial
    observer of the non-secret remainder.

    Initial states pair each secret member of an all-secret or hybrid estimate
    with that estimate's non-secret part (the empty estimate when there is
    none). No such estimate means an empty composition.
    """
    nfa = accessible_part(nfa)
    return _cc_hat(nfa, subset_construction(nfa) if nfa.secret else None)


def _cc_hat(nfa: Nfa, obs: Observer | None) -> CcAutomaton:
    """``cc_hat`` of an accessible ``nfa`` whose observer ``obs`` the caller
    already holds. ``obs`` may be None when ``nfa`` has no secret state (an
    accessible automaton without initial states has none)."""
    ghat = initial_secret_subautomaton(nfa)
    if obs is None or not ghat.states:
        return _empty_cc(ghat, _empty_observer(ghat))
    classes = classify_estimates(obs, nfa.secret)
    relevant = [q for q, c in classes.items() if c is not EstimateClass.NON_SECRET]
    if not relevant:
        return _empty_cc(ghat, _empty_observer(ghat))
    pruned, seeds = nonsecret_subautomaton(nfa, obs)
    right = multi_initial_observer(pruned, seeds) if seeds else _empty_observer(pruned)
    initials = []
    for q in relevant:
        remainder = make_estimate(x for x in q if x not in nfa.secret)
        paired: Estimate | None = remainder if remainder else None
        if paired is not None and paired not in right.initials:
            raise InternalInvariantError(f"hybrid remainder missing from observer initials: {paired}")
        for x in q:
            if x in nfa.secret:
                initials.append(CcState(x, paired))
    return product(ghat, right, initials, empty_sink=True)


def cc_full_observer(nfa: Nfa) -> CcAutomaton:
    """The composition of the system with its own observer.

    Along left-feasible words the estimate always contains the left state, so
    the observer step is always defined and no empty sink is needed.
    """
    nfa = accessible_part(nfa)
    return _cc_full_observer(nfa, subset_construction(nfa))


def _cc_full_observer(nfa: Nfa, obs: Observer) -> CcAutomaton:
    """``cc_full_observer`` of an accessible ``nfa`` with its observer ``obs``."""
    (q0,) = obs.initials
    return product(nfa, obs, [CcState(x0, q0) for x0 in nfa.initial], empty_sink=False)


def cc_dss(nfa: Nfa) -> CcAutomaton:
    """The composition of the system with the observer of its
    deleted-secret-states remainder.

    Every initial state of the system is paired with the remainder's single
    initial estimate, or with the empty estimate when no non-secret initial
    state exists (every secret visit is then immediately leaking).
    """
    nfa = accessible_part(nfa)
    dss = dss_subautomaton(nfa)
    if dss.initial:
        right = subset_construction(dss)
        (q0,) = right.initials
        paired: Estimate | None = q0
    else:
        right = _empty_observer(dss)
        paired = None
    return product(nfa, right, [CcState(x0, paired) for x0 in nfa.initial], empty_sink=True)
