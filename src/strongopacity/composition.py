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

The product is explored over int keys, a left state's dense natural-order
position paired with an estimate's id in the observer's transition table, and
renders each reached key into its public ``CcState`` once; states share the
observer's estimate tuples and cache their hash. Each state is expanded once,
and its out-edges, recorded as it is expanded, are the composition's only
stored edge relation: the state set, the transition set and the
``by_source``/``by_target`` indexes are views of them. The exploration and
the indexes are in no particular order; ``CcState.sort_key`` orders states
only where they are output (``sorted_states``, ``sorted_transitions``) or
where a witness tie is broken.

The public constructors build whole compositions. The verifiers and the
K-step enforcer ask ``product`` to stop early instead: it then explores one
observable layer at a time and ends after layer K, or at the first offending
empty-estimate state (after its layer, or after the layer before when every
empty-estimate state offends). The result is a partial composition whose
unexpanded states, the next layer, have no out-edges.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable

from .automaton import Event, Nfa, accessible_part, natural_key
from .errors import AlphabetMismatch, InternalInvariantError
from .observer import (
    Estimate,
    EstimateClass,
    Observer,
    classify_estimates,
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
    """A product state: concrete state on the left, estimate (or None) on the right.

    The hash is computed once, at construction; it is not pickled, so a
    state loaded in another process hashes afresh.
    """

    left: str
    right: Estimate | None

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (CcState, (self.left, self.right))

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
    """A paired event: (sigma, sigma) when observable, (sigma, epsilon) otherwise.

    The hash is cached as ``CcState``'s is, for the set lookups of the
    searches.
    """

    left_event: str
    right_event: str | None

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.left_event, self.right_event)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (CcEvent, (self.left_event, self.right_event))

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

    ``edges`` maps every state to its out-edges, each an (event, target)
    pair listed once. It is the only stored edge relation: ``states``,
    ``transitions``, ``by_source`` and ``by_target`` are views of it, each
    built on first use. Keeps references to its operands so downstream code
    can interrogate controllability and secrecy of the left components.
    """

    left: Nfa
    right: Observer
    events: frozenset[CcEvent]
    initials: frozenset[CcState]
    edges: dict[CcState, tuple[tuple[CcEvent, CcState], ...]]
    # A layered ``product``'s end offset of each layer in ``edges``' order.
    _layer_ends: tuple[int, ...] | None = None

    @cached_property
    def states(self) -> frozenset[CcState]:
        return frozenset(self.edges)

    @cached_property
    def transitions(self) -> frozenset[CcTransition]:
        return frozenset((src, event, dst) for src, pairs in self.edges.items() for event, dst in pairs)

    @cached_property
    def by_source(self) -> dict[CcState, tuple[tuple[CcEvent, CcState], ...]]:
        return self.edges

    @cached_property
    def by_target(self) -> dict[CcState, tuple[tuple[CcState, CcEvent], ...]]:
        index: dict[CcState, list[tuple[CcState, CcEvent]]] = {s: [] for s in self.edges}
        for src, pairs in self.edges.items():
            for event, dst in pairs:
                index[dst].append((src, event))
        return {s: tuple(pairs) for s, pairs in index.items()}

    @cached_property
    def _uncontrollable_into(self) -> dict[CcState, list[tuple[CcEvent, CcState]]]:
        """(event, predecessor) pairs of the uncontrollable in-edges; a state
        with none has no entry."""
        controllable, index = self.controllable_events, defaultdict(list)
        for src, pairs in self.edges.items():
            for event, dst in pairs:
                if event not in controllable:
                    index[dst].append((event, src))
        return index

    @cached_property
    def _layers(self) -> dict[CcState, int]:
        """Each state's observable layer in a layered ``product``; the states
        found but not expanded lie in the layer after the last one expanded."""
        states, layers, start = list(self.edges), {}, 0
        for layer, end in enumerate(self._layer_ends + (len(states),)):
            layers.update(dict.fromkeys(states[start:end], layer))
            start = end
        return layers

    @cached_property
    def controllable_events(self) -> frozenset[CcEvent]:
        """The paired events whose left event is controllable."""
        return frozenset(e for e in self.events if self.left.is_controllable(e.left_event))

    @cached_property
    def empty_states(self) -> frozenset[CcState]:
        return frozenset(s for s in self.edges if s.is_empty)

    @cached_property
    def secret_initials(self) -> frozenset[CcState]:
        return frozenset(s for s in self.initials if s.left in self.left.secret)

    def sorted_states(self) -> list[CcState]:
        return sorted(self.states, key=CcState.sort_key)

    def sorted_transitions(self) -> list[CcTransition]:
        keys = {s: s.sort_key() for s in self.states}
        event_keys = {e: natural_key(e.name) for e in self.events}
        return sorted(
            self.transitions,
            key=lambda t: (keys[t[0]], event_keys[t[1]], keys[t[2]]),
        )

    def state_names(self) -> frozenset[str]:
        return frozenset(s.name for s in self.states)


def _paired_events(left: Nfa) -> dict[str, CcEvent]:
    return {e.name: CcEvent(e.name, e.name if e.observable else None) for e in left.alphabet}


def product(
    left: Nfa,
    right: Observer,
    initials: Iterable[CcState],
    empty_sink: bool,
    *,
    stop_on: Collection[str] | None = None,
    max_layer: int | None = None,
) -> CcAutomaton:
    """BFS closure of ``initials`` under the paired-transition rules.

    An observable event moves both sides (the right along the observer's
    partial map, collapsing to the empty estimate when the map is undefined
    and ``empty_sink`` holds, and dropping the pair transition otherwise); an
    unobservable event moves the left side only. Once empty, the right side
    stays empty while the left moves freely.

    The search runs over int keys: a left state's dense position and an
    estimate's id in the observer's ``_table`` (the number of estimates
    for the empty estimate). Each ``CcState`` and each ``CcEvent`` is created
    once, every state shares the observer's estimate tuples, and each
    state's out-edges are recorded once, as it is expanded.

    With no stop argument the closure is complete. Either stop argument
    makes the search go one observable layer at a time (layer L holds the
    states whose cheapest path has L observable steps; inside a layer the
    queue is first-in-first-out over unobservable moves), and end after
    the first layer that expands an empty-estimate state whose left state
    is in ``stop_on``, or after layer ``max_layer``. The states found but
    not expanded then belong to the next layer and are listed with no
    out-edges, so every state of the layers searched has its cost and its
    in-edges from cheaper states exactly as in the complete closure. Each
    layer's end offset in ``edges`` is recorded, so ``_layers`` gives every
    state's layer with no search.

    When ``stop_on`` holds every left state, every empty-estimate state
    offends, and the search ends one layer earlier: after the layer whose
    observable moves find the first empty-estimate state of the next one.
    An unobservable move into an empty-estimate state then comes from
    another one, so the cheapest empty-estimate state of the next layer is
    entered by an observable move from a layer searched, and it has its
    exact cost and every in-edge that a cheapest path can end with.
    """
    if max_layer is not None and max_layer < 0:
        raise ValueError("max_layer must be non-negative")
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

    order, position = left._dense.order, left._dense.position
    table = right._table
    observable = left.observable_events
    # A slot is an estimate's id, or ``empty``, one past the last, for the
    # empty estimate, which every observable event maps back to itself.
    empty = len(table.estimates)
    rights = table.estimates + [None]  # slot -> right component
    steps = table.step + [dict.fromkeys(observable, empty)]  # slot -> event -> slot
    events = _paired_events(left)
    # Per left position: the unobservable moves, as (paired event, target
    # position), and the observable ones, as (paired event, event name,
    # target position).
    silent: list[list[tuple[CcEvent, int]]] = []
    loud: list[list[tuple[CcEvent, str, int]]] = []
    for x in order:
        silent.append([])
        loud.append([])
        for sigma, dst in left.by_source[x]:
            if sigma in observable:
                loud[-1].append((events[sigma], sigma, position[dst]))
            else:
                silent[-1].append((events[sigma], position[dst]))
    layered = stop_on is not None or max_layer is not None
    offends = [stop_on is not None and x in stop_on for x in order]
    early = stop_on is not None and all(offends)  # every empty state offends
    width = len(rights)
    states: dict[int, CcState] = {}
    now: deque[tuple[CcState, int, int]] = deque()  # this layer's queue
    # Layered search only: the states found by an observable move and not
    # (yet) by an unobservable one, the next layer, key -> queue entry.
    later: dict[int, tuple[CcState, int, int]] = {}
    for s in initials:
        pos, slot = position[s.left], empty if s.right is None else table.ids[s.right]
        if pos * width + slot not in states:
            state = states[pos * width + slot] = CcState(order[pos], rights[slot])
            now.append((state, pos, slot))
    start = list(states.values())
    edges: dict[CcState, tuple[tuple[CcEvent, CcState], ...]] = {}
    layer_ends: list[int] = []
    layer, stop = 0, False
    while True:
        while now:
            src, pos, slot = now.popleft()
            out = []
            for event, dst_pos in silent[pos]:
                key = dst_pos * width + slot
                dst = states.get(key)
                if dst is None:
                    if key in later:  # found by an observable move, yet in this layer
                        entry = later.pop(key)
                        dst = states[key] = entry[0]
                        now.append(entry)
                    else:
                        dst = states[key] = CcState(order[dst_pos], rights[slot])
                        now.append((dst, dst_pos, slot))
                out.append((event, dst))
            row = steps[slot]
            for event, sigma, dst_pos in loud[pos]:
                dst_slot = row.get(sigma)
                if dst_slot is None:
                    if not empty_sink:
                        continue
                    dst_slot = empty
                key = dst_pos * width + dst_slot
                dst = states.get(key)
                if dst is None:
                    if layered:
                        entry = later.get(key)
                        if entry is None:
                            entry = later[key] = (CcState(order[dst_pos], rights[dst_slot]), dst_pos, dst_slot)
                            if early and dst_slot == empty:
                                stop = True
                        dst = entry[0]
                    else:
                        dst = states[key] = CcState(order[dst_pos], rights[dst_slot])
                        now.append((dst, dst_pos, dst_slot))
                out.append((event, dst))
            # Each state is expanded once and its left moves are distinct, so
            # every edge is listed once.
            edges[src] = tuple(out)
            if slot == empty and offends[pos]:
                stop = True
        layer_ends.append(len(edges))
        if stop or not later or layer == max_layer:
            break
        layer += 1
        for key, entry in later.items():
            states[key] = entry[0]
            now.append(entry)
        later.clear()
    for dst, _, _ in later.values():  # found, not expanded
        edges[dst] = ()
    return CcAutomaton(
        left=left,
        right=right,
        events=frozenset(events.values()),
        initials=frozenset(start),
        edges=edges,
        _layer_ends=tuple(layer_ends) if layered else None,
    )


def _empty_observer(nfa: Nfa) -> Observer:
    return Observer(
        estimates=frozenset(),
        events=tuple(e for e in nfa.alphabet if e.observable),
        delta={},
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


def _cc_hat(nfa: Nfa, obs: Observer | None, **stop) -> CcAutomaton:
    """``cc_hat`` of an accessible ``nfa`` whose observer ``obs`` the caller
    already holds. ``obs`` may be None when ``nfa`` has no secret state (an
    accessible automaton without initial states has none). ``stop`` holds
    ``product``'s stop arguments."""
    ghat = initial_secret_subautomaton(nfa)
    if obs is None or not ghat.states:
        events = frozenset(_paired_events(ghat).values())
        return CcAutomaton(ghat, _empty_observer(ghat), events, initials=frozenset(), edges={})
    classes = classify_estimates(obs, nfa.secret)
    relevant = [q for q, c in classes.items() if c is not EstimateClass.NON_SECRET]
    pruned, seeds = nonsecret_subautomaton(nfa, obs)
    right = multi_initial_observer(pruned, seeds) if seeds else _empty_observer(pruned)
    initials = []
    for q in relevant:
        remainder = tuple(x for x in q if x not in nfa.secret)  # q is in natural order
        paired: Estimate | None = remainder if remainder else None
        if paired is not None and paired not in right.initials:
            raise InternalInvariantError(f"hybrid remainder missing from observer initials: {paired}")
        for x in q:
            if x in nfa.secret:
                initials.append(CcState(x, paired))
    return product(ghat, right, initials, empty_sink=True, **stop)


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


def cc_dss(nfa: Nfa, *, secret_only: bool = False) -> CcAutomaton:
    """The composition of the system with the observer of its
    deleted-secret-states remainder.

    Every initial state of the system is paired with the remainder's single
    initial estimate, or with the empty estimate when no non-secret initial
    state exists (every secret visit is then immediately leaking). With
    ``secret_only`` only the secret initial pairs seed it: that part is all
    that initial-state opacity reads.
    """
    return _cc_dss(accessible_part(nfa), secret_only=secret_only)


def _cc_dss(nfa: Nfa, *, secret_only: bool = False, **stop) -> CcAutomaton:
    """``cc_dss`` of an accessible ``nfa``; ``stop`` holds ``product``'s
    stop arguments."""
    dss = dss_subautomaton(nfa)
    if dss.initial:
        right = subset_construction(dss)
        (q0,) = right.initials
        paired: Estimate | None = q0
    else:
        right = _empty_observer(dss)
        paired = None
    starts = nfa.initial & nfa.secret if secret_only else nfa.initial
    return product(nfa, right, [CcState(x0, paired) for x0 in starts], empty_sink=True, **stop)
