"""Subset construction (observers) and secret-based classification of estimates.

An estimate is a nonempty, unobservable-reach-closed set of source states,
canonicalized as a naturally-sorted tuple so that set identity is syntactic
and estimates can name product states downstream.

The construction runs on the system's dense index (``Nfa._dense``): an
estimate is a bitmask over the numbering (``Nfa._numbering``) that a model
shares with all that derives from it (see ``automaton``), and one step is
the OR of the precomputed reach-closed successor masks of its bits. An
observer is held as that table (``_Table``): each estimate's mask, numbered
in discovery order, and its moves over those numbers, which the product, the
classification, the verifiers and DOT export read. The construction is the
only way an observer is built; started from no estimate
(``multi_initial_observer(nfa, [])``) it gives the empty observer that a
composition with nothing to estimate pairs with, and reads no index rows.
``estimates``, ``delta`` and ``initials`` are read-only views of the table;
the two sets are ``_IdSet``s over estimate ids, the view that a
composition's state sets and enforcement's frontier use too, and ``delta``
is an ``_IdMap``, the map view of a composition's edges and of a search's
costs, keyed by (estimate id, event) pairs. ``delta`` builds that key map
on first use; the package reads ``_table.step`` instead. An estimate is
rendered into its public tuple only when a view or an output hands it out,
by reading its bits in ascending order, which is natural order already;
that one tuple object is the estimate from then on, in every view and every
composition state. ``len(obs.estimates)`` renders nothing.
"""

from __future__ import annotations

from collections.abc import Mapping
from collections.abc import Set as AbstractSet
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator

from .automaton import Event, Nfa, _bits, _state_names, natural_key
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


class _Table:
    """An observer's transition function over estimate ids.

    Estimate ``i`` is the bitmask ``masks[i]`` over the model's ``order``
    (bit ``b`` stands for state ``order[b]``, ``position`` maps a state to
    its bit), and ``ids`` maps a mask back to its id. ``step[i]`` maps an
    observable event to the id it reaches, and ``initials`` the initial ids.
    ``estimate(i)`` renders estimate ``i`` on first use and hands out that
    one tuple from then on.
    """

    __slots__ = ("order", "position", "masks", "ids", "step", "initials", "_rendered")

    def __init__(self, order, position, masks, ids, step, initials):
        self.order: tuple[str, ...] = order
        self.position: dict[str, int] = position
        self.masks: list[int] = masks
        self.ids: dict[int, int] = ids
        self.step: list[dict[str, int]] = step
        self.initials: list[int] = initials
        self._rendered: list[Estimate | None] = [None] * len(masks)

    def estimate(self, i: int) -> Estimate:
        q = self._rendered[i]
        if q is None:
            order = self.order
            q = self._rendered[i] = tuple([order[b] for b in _bits(self.masks[i])])
        return q

    def mask_of(self, states: Iterable[str]) -> int:
        """The mask of those of ``states`` that have a bit."""
        mask, position = 0, self.position
        for x in states:
            b = position.get(x)
            if b is not None:
                mask |= 1 << b
        return mask

    def id(self, estimate) -> int | None:
        """The id of the estimate tuple ``estimate``, or None when it is not
        an estimate of this observer. Renders nothing: every rendered
        estimate lists its bits in ascending order, so no other order is
        one."""
        if not isinstance(estimate, tuple):
            return None
        mask, last, position = 0, -1, self.position
        for x in estimate:
            b = position.get(x)
            if b is None or b <= last:
                return None
            last = b
            mask |= 1 << b
        return self.ids.get(mask)

    def move(self, key: tuple[int, str]) -> tuple[Estimate, str]:
        """The ``delta`` key of an (estimate id, event) pair."""
        return (self.estimate(key[0]), key[1])

    def move_id(self, key) -> tuple[int, str] | None:
        """The (estimate id, event) pair of the ``delta`` key ``key``, or
        None when ``key`` is no (estimate, event) pair of this observer."""
        i = self.id(key[0]) if isinstance(key, tuple) and len(key) == 2 else None
        return None if i is None else (i, key[1])

    def names(self, mask: int) -> list[str]:
        order = self.order
        return [order[b] for b in _bits(mask)]


class _View(AbstractSet):
    """A read-only set view; ``|``, ``&`` and ``-`` give frozensets."""

    __slots__ = ()

    @classmethod
    def _from_iterable(cls, items):
        return frozenset(items)


class _Ids:
    """Some items of one structure held as ids: the estimates or the moves
    of an observer, or the states or the transitions of a composition (an
    id may be a pair of ints, or of an int and an event). ``render`` hands
    out the item of an id, and ``find`` gives the id of an item, or None
    when it is none of the structure's."""

    __slots__ = ("_render", "_find", "_ids")

    def __init__(self, render, find, ids):
        self._render, self._find, self._ids = render, find, ids

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator:
        return map(self._render, self._ids)

    def __contains__(self, item) -> bool:
        i = self._find(item)
        return i is not None and i in self._ids


class _IdSet(_Ids, _View):
    """A read-only set of items held as ids."""

    __slots__ = ()


class _IdMap(_Ids, Mapping):
    """A read-only map whose keys are items held as ids, over int data:
    ``data[i]`` is what key ``i`` stores, and ``value`` renders it into the
    value handed out. The package reads ``_data`` itself."""

    __slots__ = ("_data", "_value")

    def __init__(self, render, find, ids, data, value):
        super().__init__(render, find, ids)
        self._data, self._value = data, value

    def __getitem__(self, item):
        i = self._find(item)
        if i is None or i not in self._ids:
            raise KeyError(item)
        return self._value(self._data[i])


class Observer:
    """A deterministic automaton over state estimates.

    ``delta`` is a partial function (estimate, observable event) -> estimate;
    undefined steps are simply absent, never mapped to an empty estimate (the
    empty estimate exists only inside composition states). ``estimates``,
    ``delta`` and ``initials`` are read-only views of the private table
    ``_table``, which the subset construction builds; see the module
    docstring.
    """

    def __init__(self, events: tuple[Event, ...], table: _Table):
        self.events = events
        self._table = table

    @cached_property
    def estimates(self) -> AbstractSet[Estimate]:
        table = self._table
        return _IdSet(table.estimate, table.id, range(len(table.masks)))

    @cached_property
    def delta(self) -> Mapping[tuple[Estimate, str], Estimate]:
        table = self._table
        moves = {(i, sigma): j for i, row in enumerate(table.step) for sigma, j in row.items()}
        return _IdMap(table.move, table.move_id, moves, moves, table.estimate)

    @cached_property
    def initials(self) -> AbstractSet[Estimate]:
        table = self._table
        return _IdSet(table.estimate, table.id, frozenset(table.initials))

    def step(self, estimate: Estimate, event: str) -> Estimate | None:
        return self.delta.get((estimate, event))

    def sorted_estimates(self) -> list[Estimate]:
        return sorted(self.estimates)


def _close_and_explore(nfa: Nfa, starts: list[int]) -> Observer:
    """The observer reached from the distinct closed estimate masks ``starts``,
    which get the ids 0, 1, ... in their order."""
    rows = []
    if starts:  # the empty observer reads no index rows
        rows = [(e.name, nfa._dense.step[e.name]) for e in nfa.alphabet if e.observable]
    masks = list(starts)  # id -> mask, ids in discovery order
    ids = {mask: i for i, mask in enumerate(masks)}
    step: list[dict[str, int]] = []
    for source in masks:  # grows as estimates are discovered; expanded in id order
        bits = _bits(source)
        moves = {}
        for sigma, row in rows:
            mask = 0
            for b in bits:
                mask |= row[b]
            if not mask:
                continue
            j = ids.get(mask)
            if j is None:
                j = ids[mask] = len(masks)
                masks.append(mask)
            moves[sigma] = j
        step.append(moves)
    table = _Table(*nfa._numbering, masks, ids, step, list(range(len(starts))))
    return Observer(tuple(e for e in nfa.alphabet if e.observable), table)


def subset_construction(nfa: Nfa) -> Observer:
    """The standard observer: one initial estimate, the unobservable reach of X0."""
    if not nfa.initial:
        raise EmptyInitial("observer of an automaton with no initial states")
    reach, position = nfa._dense.reach, nfa._numbering[1]
    start = 0
    for x in nfa.initial:
        start |= reach[position[x]]
    return _close_and_explore(nfa, [start])


def multi_initial_observer(nfa: Nfa, seeds: Iterable[Iterable[str]]) -> Observer:
    """Subset construction started from several initial estimates at once.

    Each seed must be a nonempty subset of the states (a collection of
    names, not a bare string), already closed under unobservable reach;
    closure is asserted rather than repaired, since a violation means the
    caller's construction is wrong. Seeds that are subsets of one another
    are deliberately not merged. The distinct seeds get the estimate ids 0,
    1, ... in the order given.
    """
    position = nfa._numbering[1]
    starts: dict[int, None] = {}  # distinct seed masks, in first-seen order
    for seed in seeds:
        members = set(_state_names(seed, "observer seed"))
        if not members:
            raise EmptyEstimate("empty observer seed")
        mask = closed = 0
        for x in members:
            if x not in nfa.states:
                raise InvalidState(f"not a state: {x!r}")
            i = position[x]
            mask |= 1 << i
            closed |= nfa._dense.reach[i]
        if closed != mask:
            raise InternalInvariantError(
                f"seed not closed under unobservable reach: {make_estimate(members)}"
            )
        starts[mask] = None
    return _close_and_explore(nfa, list(starts))


def classify_estimates(obs: Observer, secret: Iterable[str]) -> dict[Estimate, EstimateClass]:
    """Partition estimates into all-secret, all-non-secret, and hybrid."""
    table = obs._table
    inside = table.mask_of(secret)
    out = {}
    for i, mask in enumerate(table.masks):
        if not mask & inside:
            out[table.estimate(i)] = EstimateClass.NON_SECRET
        elif mask & ~inside:
            out[table.estimate(i)] = EstimateClass.HYBRID
        else:
            out[table.estimate(i)] = EstimateClass.SECRET
    return out
