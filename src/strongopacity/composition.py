"""Concurrent compositions: product automata pairing a concrete run with an
estimate of matching runs.

One product engine, with one edge rule, serves all three structures used
by the verifiers and enforcers: an observable move whose observer step is
undefined leads to the empty estimate. The structures differ only in their
operands and seeds:

* secret-restart side vs. the multi-initial observer of the non-secret
  remainder — decides strong K-step opacity;
* the system vs. its own observer — supplies enforcement's predecessor
  runs; it has no empty-estimate state, since its estimate always contains
  the left state;
* the system vs. the observer of the deleted-secret-states remainder —
  decides strong current-/initial-/infinite-step opacity.

A product state whose estimate is empty marks a leaking-secret run; the
empty estimate is absorbing.

The product is explored over int keys, a left state's bit in its model's
numbering (see ``automaton``) paired with an estimate's id in the
observer's table, or -1 for the empty estimate, so that exactly the
empty-estimate states have negative keys (see ``_Core``); it numbers each
state as it finds it. A composition is held as that int core: each state's
key and its out-edges, each packed into one int (target number, event
number), recorded once as the state is expanded. The initial states, the
state set, the transition set, the ``by_source``/``by_target`` indexes and
the empty-estimate and secret-initial sets are read-only views of the core;
each set is an ``_IdSet`` over state ids, the view an observer's estimate
sets use too, and each index an ``_IdMap`` over the int rows. A view
renders a state into its public ``CcState`` only when it hands it out, once
per state (states share the observer's estimate tuples), and finds the
number of a ``CcState`` handed in from its key. A
transition is found as a (source id, packed out-edge) pair
(``_Core.edge_id``), the one membership test of the transition set and of
the frontier that ``enforcement.last_controllable_frontier`` returns. The
package's own constructors seed ``product`` with int keys (``_Keys``); the
left automaton and the observed one share their model's numbering, so
``_cc_hat`` reads an estimate's bit as a left position and names no state.
The searches, the
offending sets and the frontier run on state numbers, which follow the
hash-seeded order of ``Nfa.by_source``, so no output reads them directly.
Sorted output (``sorted_states``, ``sorted_transitions``, DOT export) and
the witness tie-breaks of ``search`` read one order of states,
``_Core.sort_key``: ``CcState.sort_key`` with the left state's bit, its
place in the natural order of the numbering, standing in for its natural
key.

``product`` is the only builder of a composition: a 0-1 BFS over one
queue that expands the states in observable-layer order and records each
state's layer. The public constructors explore every layer; the verifiers
and the K-step enforcer give it a last layer to expand: K, or the layer of
the first offending empty-estimate state (the layer that finds it, when
every empty-estimate state offends). The result is then a partial
composition whose unexpanded states, the next layer, have no out-edges.

A system's operands, its accessible part, that part's observer, the
deleted-secret-states observer and the secret-restart operands, are held
in one bundle (``_Operands``), each built on first use by the public
builders. One module slot holds the bundle of one model, under one rule:
the doors a user calls on a model (the verifiers, the enforcers,
``verification.effective_k_bound``) hold it through ``_operands``, and
the public constructors borrow through ``_borrowed``, which hands out the
held bundle for the held model or its accessible part and otherwise a
bundle that the slot never holds. So the notions checked back to back on
one model build each operand once, and after a call the slot keeps at
most one model alive, with its operands; ``_release`` empties it.

A bundle also keeps each whole composition built on it, one asked for with
no stop set: the secret-restart composition, the deleted-secret-states
composition seeded by every initial pair and by the secret ones only, and
the system/observer composition (``_kept``). It never keeps a stopped one,
whose stop differs per notion and per K. So the enforcers called on one
model share the whole compositions of their first rounds, with their lazy
views.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Iterator

from .automaton import Nfa, _bits, _check_k, _ranked, _state_names, accessible_part, natural_key
from .errors import AlphabetMismatch, InternalInvariantError, InvalidState
from .observer import (
    Estimate,
    Observer,
    _IdMap,
    _IdSet,
    _View,
    estimate_name,
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

    A plain value, built only when a composition hands a state out (see
    ``_Core``): the package's searches and sets run on state ids.
    """

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


def _index_bits(count: int) -> int:
    """The bits an index below ``count`` needs."""
    return max(count - 1, 0).bit_length()


class _Core:
    """A composition's int core, which its views and searches read.

    States are numbered in the order ``product`` finds them. ``keys[i]`` is
    state ``i``'s key, ``slot * size + position``: its left state's bit in
    the left automaton's numbering, which it shares with its model (see
    ``automaton``) and whose length is ``size``, and its estimate's id in
    the observer's ``_table``, or -1 for the empty estimate. So the
    empty-estimate states are exactly those with a negative key,
    ``divmod(key, size)`` gives (slot, position) for every key, and the
    layout does not depend on how many estimates the observer holds.
    ``out[i]`` lists the out-edges of state ``i`` once each, as
    ``target << ebits | event``, an event being an index into ``events``.
    ``state`` builds a state's ``CcState`` once, when it is first handed
    out, and ``id`` finds the number of a ``CcState`` from its key, or None
    for anything that is not one of this core's states.
    ``sort_key`` is the one order of states that any output or tie-break
    reads. The core holds no reference to its ``CcAutomaton``, so a
    composition and its cached views form no reference cycle and are freed
    as soon as they are dropped.
    """

    __slots__ = (
        "events", "ebits", "emask", "ids", "keys", "out", "edge_count",
        "order", "position", "size", "table", "rendered",
    )

    def __init__(self, left: Nfa, right: Observer, events: tuple[CcEvent, ...], ids, keys, out):
        self.events = events
        self.ebits = _index_bits(len(events))
        self.emask = (1 << self.ebits) - 1
        self.ids: dict[int, int] = ids  # key -> id
        self.keys: list[int] = keys
        self.out: list = out
        self.edge_count = sum(map(len, out))
        self.order, self.position = left._numbering
        self.size = len(self.order)
        self.table = right._table
        self.rendered: list[CcState | None] = [None] * len(keys)

    def state(self, i: int) -> CcState:
        state = self.rendered[i]
        if state is None:
            slot, pos = divmod(self.keys[i], self.size)
            right = None if slot < 0 else self.table.estimate(slot)
            state = self.rendered[i] = CcState(self.order[pos], right)
        return state

    def id(self, state) -> int | None:
        """The id of ``state``, or None when it is not a state of this composition."""
        if not isinstance(state, CcState):
            return None
        pos = self.position.get(state.left)
        slot = -1 if state.right is None else self.table.id(state.right)
        if pos is None or slot is None:
            return None
        return self.ids.get(slot * self.size + pos)

    def ids_of(self, states: Iterable[CcState]) -> Collection[int]:
        """The ids of ``states``; any item that is not a state of this
        composition is an error."""
        if isinstance(states, _IdSet) and states._find == self.id:
            return states._ids
        ids = set()
        for s in states:
            i = self.id(s)
            if i is None:
                raise InvalidState(f"not a composition state: {s.name if isinstance(s, CcState) else repr(s)}")
            ids.add(i)
        return ids

    def sort_key(self, i: int) -> tuple:
        """``CcState.sort_key`` of state ``i``, its left state's position
        standing in for ``natural_key(left)``: the numbering is natural
        order."""
        slot, pos = divmod(self.keys[i], self.size)
        return (pos, slot < 0, () if slot < 0 else self.table.estimate(slot))

    def left_of(self, i: int) -> str:
        return self.order[self.keys[i] % self.size]

    def transition(self, pair: tuple[int, int]) -> CcTransition:
        """The transition of a (source id, packed out-edge) pair."""
        src, edge = pair
        return (self.state(src), self.events[edge & self.emask], self.state(edge >> self.ebits))

    def left_transition(self, pair: tuple[int, int]) -> tuple[str, str, str]:
        src, edge = pair
        event = self.events[edge & self.emask].left_event
        return (self.left_of(src), event, self.left_of(edge >> self.ebits))

    def edge_id(self, transition) -> tuple[int, int] | None:
        """The (source id, packed out-edge) pair of ``transition``, or None
        when it is not a transition of this composition."""
        if not (isinstance(transition, tuple) and len(transition) == 3 and transition[1] in self.events):
            return None
        src, event, dst = transition
        i, j = self.id(src), self.id(dst)
        if i is None or j is None:
            return None
        edge = j << self.ebits | self.events.index(event)
        return (i, edge) if edge in self.out[i] else None

    def out_edges(self, row: list) -> tuple:
        """The packed out-edges ``row`` as (event, target) pairs."""
        return tuple((self.events[e & self.emask], self.state(e >> self.ebits)) for e in row)

    def in_edges(self, row: list) -> tuple:
        """The packed in-edges ``row`` as (source, event) pairs."""
        return tuple((self.state(e >> self.ebits), self.events[e & self.emask]) for e in row)

    def in_index(self, keep: list[bool]) -> list:
        """Per state, its in-edges whose event ``keep`` holds, each packed
        as ``source << ebits | event``."""
        shift, mask = self.ebits, self.emask
        rows: list = [()] * len(self.out)
        for src, row in enumerate(self.out):
            for edge in row:
                event = edge & mask
                if keep[event]:
                    dst = edge >> shift
                    if rows[dst]:
                        rows[dst].append(src << shift | event)
                    else:
                        rows[dst] = [src << shift | event]
        return rows


class _Transitions(_View):
    """The transitions of a composition, read from its int out-edges. Its
    membership test is ``_Core.edge_id``, which the frontier's id view
    shares."""

    __slots__ = ("_core",)

    def __init__(self, core: _Core):
        self._core = core

    def __len__(self) -> int:
        return self._core.edge_count

    def __iter__(self) -> Iterator[CcTransition]:
        core = self._core
        for src, row in enumerate(core.out):
            for edge in row:
                yield core.transition((src, edge))

    def __contains__(self, transition) -> bool:
        return self._core.edge_id(transition) is not None


class CcAutomaton:
    """The reachable part of a concurrent composition.

    ``product`` builds it. It holds its int core (``_Core``): the states
    numbered as ``product`` found them and each state's out-edges, the only
    stored edge relation. ``_layer`` holds each state's observable layer,
    its least number of observable steps from the initials. ``initials``,
    ``states``, ``transitions``, ``edges``/``by_source``, ``by_target``,
    ``empty_states`` and ``secret_initials`` are read-only views of the
    core, built on first use; a view builds a state's ``CcState`` only when
    it hands it out, once per state. Keeps references to its operands so
    downstream code can interrogate controllability and secrecy of the left
    components.
    """

    def __init__(self, left: Nfa, right: Observer, events, ids, keys, out, initials, layer) -> None:
        """The composition whose int core ``product`` found: ``events``,
        ``ids``, ``keys`` and ``out`` as in ``_Core``, the initial state ids
        and each state's observable layer."""
        self.left, self.right = left, right
        self.events: frozenset[CcEvent] = frozenset(events)
        self._core = _Core(left, right, events, ids, keys, out)
        self._initial_ids = frozenset(initials)
        self._layer: list[int] = layer

    def _subset(self, ids: Iterable[int]) -> _IdSet:
        return _IdSet(self._core.state, self._core.id, frozenset(ids))

    @cached_property
    def states(self) -> AbstractSet[CcState]:
        core = self._core
        return _IdSet(core.state, core.id, range(len(core.keys)))

    @cached_property
    def transitions(self) -> AbstractSet[CcTransition]:
        return _Transitions(self._core)

    @cached_property
    def initials(self) -> AbstractSet[CcState]:
        return self._subset(self._initial_ids)

    @cached_property
    def by_source(self) -> Mapping[CcState, tuple[tuple[CcEvent, CcState], ...]]:
        core = self._core
        return _IdMap(core.state, core.id, range(len(core.out)), core.out, core.out_edges)

    @cached_property
    def by_target(self) -> Mapping[CcState, tuple[tuple[CcState, CcEvent], ...]]:
        core = self._core
        rows = core.in_index([True] * len(core.events))
        return _IdMap(core.state, core.id, range(len(rows)), rows, core.in_edges)

    @property
    def edges(self) -> Mapping[CcState, tuple[tuple[CcEvent, CcState], ...]]:
        """Every state's out-edges, each (event, target) pair listed once."""
        return self.by_source

    @cached_property
    def _unc_into(self) -> list:
        """The int in-index of the uncontrollable edges."""
        return self._core.in_index([not c for c in self._controllable])

    @cached_property
    def _controllable(self) -> list[bool]:
        """Per event index, whether its left event is controllable."""
        return [self.left.is_controllable(e.left_event) for e in self._core.events]

    @cached_property
    def empty_states(self) -> AbstractSet[CcState]:
        return self._subset(i for i, key in enumerate(self._core.keys) if key < 0)

    @cached_property
    def secret_initials(self) -> AbstractSet[CcState]:
        secret, left_of = self.left.secret, self._core.left_of
        return self._subset(i for i in self._initial_ids if left_of(i) in secret)

    def _sorted_ids(self) -> list[int]:
        """The state ids in ``sort_key`` order."""
        return sorted(range(len(self._core.keys)), key=self._core.sort_key)

    def sorted_states(self) -> list[CcState]:
        return [self._core.state(i) for i in self._sorted_ids()]

    @cached_property
    def _event_rank(self) -> tuple[list[int], list[str]]:
        """``_ranked`` of the event names: per event index, the rank of its
        name in natural order, and the distinct names in that order."""
        return _ranked([e.name for e in self._core.events])

    def sorted_transitions(self) -> list[CcTransition]:
        core = self._core
        shift, mask = core.ebits, core.emask
        state_key = list(map(core.sort_key, range(len(core.keys))))
        event_rank = self._event_rank[0]
        edges = [(src, edge) for src, row in enumerate(core.out) for edge in row]
        edges.sort(key=lambda p: (state_key[p[0]], event_rank[p[1] & mask], state_key[p[1] >> shift]))
        return list(map(core.transition, edges))

    def _names(self) -> list[str]:
        """Per state id, its ``CcState.name``, with each estimate's name
        built once and no ``CcState`` built."""
        core = self._core
        order, size = core.order, core.size
        estimate_names: dict[int, str] = {-1: EMPTY_MARK}
        names = []
        for key in core.keys:
            slot, pos = divmod(key, size)
            text = estimate_names.get(slot)
            if text is None:
                text = estimate_names[slot] = estimate_name(core.table.estimate(slot))
            names.append("(" + order[pos] + "," + text + ")")
        return names

    def state_names(self) -> frozenset[str]:
        return frozenset(s.name for s in self.states)


class _Keys(list):
    """Initial pairs handed to ``product`` as (left position, slot) pairs,
    slot -1 for the empty estimate, instead of ``CcState`` objects (see
    ``_Core``): the package's own constructors seed a composition this way,
    building no state."""


def product(
    left: Nfa,
    right: Observer,
    initials: Iterable[CcState],
    *,
    stop_on: Collection[str] | None = None,
    max_layer: int | None = None,
) -> CcAutomaton:
    """BFS closure of ``initials`` under the paired-transition rules.

    An observable event moves both sides, the right along the observer's
    partial map, to the empty estimate where the map is undefined; an
    unobservable event moves the left side only. Once empty, the right side
    stays empty while the left moves freely.

    The search runs over int keys, a left state's bit in its model's
    numbering paired with an estimate's slot in the observer's ``_table``
    (-1 for the empty estimate), and numbers each state as it finds it;
    each state's out-edges are recorded once, as it is expanded, as packed
    ints (see ``_Core``). No ``CcState`` is built here.

    The search is a 0-1 BFS over one queue of (layer, id, position, slot)
    entries. Layer L holds the states whose cheapest path has L observable
    steps, and ``_layer`` records it. An unobservable move queues the state
    it finds at the front, in this layer, and an observable move at the
    back, in the next; a state found both ways in one layer is lowered and
    queued again at the front, and its entry at the back is skipped.

    The search ends at the first live entry past the last layer: ``max_layer``
    (none by default), or the current layer once an empty-estimate state
    offends. It offends when it is expanded and its left state is in
    ``stop_on`` (a collection of state names, not a bare string), or, when
    ``stop_on`` holds every left state, as soon as an
    observable move finds it: an unobservable move into an empty-estimate
    state then comes from another one, so the cheapest one has its exact
    cost and every in-edge a cheapest path can end with. The states found
    but not expanded are listed with no out-edges, so every state of the
    layers expanded has its cost and its in-edges from cheaper states
    exactly as in the complete closure.
    """
    if max_layer is not None:
        _check_k(max_layer, "max_layer")
    stop_on = _state_names(stop_on, "stop_on")
    right_names = {e.name for e in right.events}
    if not right_names <= left.observable_events:
        raise AlphabetMismatch(
            f"observer events {sorted(right_names)} exceed left observable alphabet"
        )
    order, position = left._numbering
    size = len(order)
    table = right._table
    if isinstance(initials, _Keys):
        starts = initials
    else:
        starts = []
        for s in initials:
            if not isinstance(s, CcState):
                raise InvalidState(f"not a composition state: {s!r}")
            if s.left not in left.states:
                raise AlphabetMismatch(f"initial left component is not a left state: {s.left!r}")
            slot = -1 if s.right is None else table.id(s.right)
            if slot is None:
                raise AlphabetMismatch(f"initial right component is not an estimate: {s.right}")
            starts.append((position[s.left], slot))

    observable = left.observable_events
    # slot -> event -> slot. A slot is an estimate's id, or -1 for the empty
    # estimate, whose row, the last, is empty: an undefined step leads to it.
    steps = table.step + [{}]
    events = tuple(CcEvent(e.name, e.name if e.observable else None) for e in left.alphabet)
    index = {e.left_event: i for i, e in enumerate(events)}
    shift = _index_bits(len(events))
    # Per left position: the unobservable moves, as (event, target
    # position), and the observable ones, as (event, event name, target
    # position); an event is an index into ``events``. Only the left
    # automaton's own positions are filled.
    silent: list = [None] * len(order)
    loud: list = [None] * len(order)
    offends = [False] * len(order)
    for x, pairs in left.by_source.items():
        pos = position[x]
        silent[pos], loud[pos] = quiet, moves = [], []
        for sigma, dst in pairs:
            if sigma in observable:
                moves.append((index[sigma], sigma, position[dst]))
            else:
                quiet.append((index[sigma], position[dst]))
        offends[pos] = stop_on is not None and x in stop_on
    early = stop_on is not None and all(x in stop_on for x in left.states)  # every empty state offends
    ids: dict[int, int] = {}  # key -> id, of every state found
    keys: list[int] = []  # id -> key
    out: list = []  # id -> packed out-edges, () until expanded
    layers: list[int] = []  # id -> layer, lowered when an unobservable move finds a state sooner
    queue: deque[tuple[int, int, int, int]] = deque()  # (layer, id, position, slot)
    for pos, slot in starts:
        key = slot * size + pos
        if key not in ids:
            ids[key] = len(keys)
            keys.append(key)
            out.append(())
            layers.append(0)
            queue.append((0, ids[key], pos, slot))
    starts = list(range(len(keys)))
    last = float("inf") if max_layer is None else max_layer  # the last layer expanded
    while queue:
        layer, src, pos, slot = queue.popleft()
        if layers[src] != layer:  # lowered, and expanded in an earlier layer
            continue
        if layer > last:
            break
        row = []
        for event, dst_pos in silent[pos]:
            key = slot * size + dst_pos
            dst = ids.get(key)
            if dst is None:
                dst = ids[key] = len(keys)
                keys.append(key)
                out.append(())
                layers.append(layer)
                queue.appendleft((layer, dst, dst_pos, slot))
            elif layers[dst] > layer:  # found by an observable move, yet in this layer
                layers[dst] = layer
                queue.appendleft((layer, dst, dst_pos, slot))
            row.append(dst << shift | event)
        moves = steps[slot]
        for event, sigma, dst_pos in loud[pos]:
            dst_slot = moves.get(sigma, -1)
            key = dst_slot * size + dst_pos
            dst = ids.get(key)
            if dst is None:
                dst = ids[key] = len(keys)
                keys.append(key)
                out.append(())
                layers.append(layer + 1)
                queue.append((layer + 1, dst, dst_pos, dst_slot))
                if early and dst_slot < 0:
                    last = layer
            row.append(dst << shift | event)
        # Each state is expanded once and its left moves are distinct, so
        # every edge is listed once.
        out[src] = row
        if slot < 0 and offends[pos]:
            last = layer
    return CcAutomaton(left, right, events, ids, keys, out, starts, layers)


class _Operands:
    """The operands of one system's compositions, each built on first use
    with the public builders: ``acc``, its accessible part; ``observer``,
    the observer of that part; ``dss``, the deleted-secret-states observer
    with its seed slot; ``ghat``, the secret-restart side; ``restart``, the
    secret-restart operands; ``whole``, the whole compositions built on
    them, by name (see ``_kept``): "hat" (``cc_hat``), "full"
    (``cc_full_observer``), "dss" and "siso" (``cc_dss`` seeded by every
    initial pair and by the secret ones)."""

    def __init__(self, acc: Nfa) -> None:
        self.acc = acc
        self.whole: dict[str, CcAutomaton] = {}

    @cached_property
    def observer(self) -> Observer:
        return subset_construction(self.acc)

    @cached_property
    def dss(self) -> tuple[Observer, int]:
        """The observer of the deleted-secret-states remainder and the slot
        of its one initial estimate (0), or, when the remainder has no
        initial state, the empty observer and the empty estimate (-1)."""
        dss = dss_subautomaton(self.acc)
        if dss.initial:
            return subset_construction(dss), 0
        return multi_initial_observer(dss, []), -1

    @cached_property
    def ghat(self) -> Nfa:
        return initial_secret_subautomaton(self.acc)

    @cached_property
    def restart(self) -> tuple[Nfa, Observer, _Keys]:
        """The secret-restart side, the multi-initial observer of the
        non-secret remainder and the initial keys that ``cc_hat`` seeds
        ``product`` with."""
        nfa, ghat = self.acc, self.ghat
        if not ghat.states:  # no secret state
            return ghat, multi_initial_observer(ghat, []), _Keys()
        obs = self.observer
        right = multi_initial_observer(*nonsecret_subautomaton(nfa, obs))
        # ``nfa``, ``ghat`` and the remainder share one numbering: each secret
        # bit of an estimate is a left position of ``ghat``, paired with the
        # initial id of the estimate's non-secret remainder.
        table, rtable = obs._table, right._table
        secret = table.mask_of(nfa.secret)
        slots = {rtable.masks[j]: j for j in rtable.initials}
        slots[0] = -1  # no remainder: the empty estimate
        initials = _Keys()
        for mask in table.masks:
            inside = mask & secret
            if not inside:
                continue
            slot = slots.get(mask & ~secret)
            if slot is None:
                raise InternalInvariantError(
                    f"hybrid remainder missing from observer initials: {tuple(table.names(mask & ~secret))}"
                )
            initials.extend((b, slot) for b in _bits(inside))
        return ghat, right, initials


_last: tuple[Nfa, _Operands] | None = None  # the model that the slot holds, with its bundle


def _borrowed(nfa: Nfa) -> _Operands:
    """The held bundle when ``nfa`` is the held model or its accessible
    part, else a new bundle of ``nfa`` that the slot does not hold.

    The slot is read once, so a thread that races another can only miss.
    The key is identity, not equality: two equal automata can carry
    different numberings."""
    last = _last
    if last is not None and (last[0] is nfa or last[1].acc is nfa):
        return last[1]
    return _Operands(accessible_part(nfa))


def _operands(nfa: Nfa) -> _Operands:
    """The bundle of ``nfa``, which the slot holds from then on, in place of
    any other model's: back-to-back calls on one model build each operand
    once, and no more than one model stays alive after a call. The slot is
    replaced whole, with a model and its own bundle."""
    global _last
    ops, last = _borrowed(nfa), _last
    if last is None or last[1] is not ops:
        _last = (nfa, ops)
    return ops


def _release() -> None:
    """Empty the slot, so that the model it holds, and its bundle, can go:
    for a caller that knows no later call will be on that model object."""
    global _last
    _last = None


def cc_hat(nfa: Nfa) -> CcAutomaton:
    """The composition of the secret-restart side with the multi-initial
    observer of the non-secret remainder.

    Initial states pair each secret member of an all-secret or hybrid estimate
    with that estimate's non-secret part (the empty estimate when there is
    none). No such estimate means an empty composition.
    """
    return _cc_hat(_borrowed(nfa))


def _cc_hat(ops: _Operands, **stop) -> CcAutomaton:
    """``cc_hat`` of the system whose operands are ``ops``; ``stop`` holds
    ``product``'s stop arguments."""
    return _kept(ops, "hat", *ops.restart, stop)


def cc_full_observer(nfa: Nfa) -> CcAutomaton:
    """The composition of the system with its own observer.

    Its estimate always contains its left state, so every observer step
    along a left move is defined and it has no empty-estimate state.
    """
    return _cc_full_observer(_borrowed(nfa))


def _cc_full_observer(ops: _Operands) -> CcAutomaton:
    """``cc_full_observer`` of the system whose operands are ``ops``."""
    obs = ops.observer
    (slot,) = obs._table.initials
    return _kept(ops, "full", ops.acc, obs, _seeds(ops.acc, slot, ops.acc.initial), {})


def cc_dss(nfa: Nfa, *, secret_only: bool = False) -> CcAutomaton:
    """The composition of the system with the observer of its
    deleted-secret-states remainder.

    Every initial state of the system is paired with the remainder's single
    initial estimate, or with the empty estimate when no non-secret initial
    state exists (every secret visit is then immediately leaking). With
    ``secret_only`` only the secret initial pairs seed it: that part is all
    that initial-state opacity reads.
    """
    return _cc_dss(_borrowed(nfa), secret_only=secret_only)


def _cc_dss(ops: _Operands, *, secret_only: bool = False, **stop) -> CcAutomaton:
    """``cc_dss`` of the system whose operands are ``ops``; ``stop`` holds
    ``product``'s stop arguments."""
    nfa, (right, slot) = ops.acc, ops.dss
    starts = nfa.initial & nfa.secret if secret_only else nfa.initial
    return _kept(ops, "siso" if secret_only else "dss", nfa, right, _seeds(nfa, slot, starts), stop)


def _seeds(nfa: Nfa, slot: int, starts: Iterable[str]) -> _Keys:
    """The initial keys pairing each state of ``starts`` with the estimate
    ``slot`` (-1 for the empty estimate)."""
    position = nfa._numbering[1]
    return _Keys((position[x0], slot) for x0 in starts)


def _kept(ops: _Operands, name: str, left: Nfa, right: Observer, initials: _Keys, stop: dict) -> CcAutomaton:
    """``product(left, right, initials, **stop)``. A whole composition, one
    asked for with no stop set, is built once per bundle and kept in
    ``ops.whole`` under ``name``; a stopped one is never kept. Of two
    threads that build the same whole one, both get the one kept first."""
    if any(value is not None for value in stop.values()):
        return product(left, right, initials, **stop)
    cc = ops.whole.get(name)
    if cc is None:
        cc = ops.whole.setdefault(name, product(left, right, initials))
    return cc
