"""Partially-observed, partially-controllable NFAs and their elementary operations.

States are opaque string tokens; the library never parses meaning out of them.
All values are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across threads.

The adjacency indexes (``by_source``/``by_target``) are unordered. Order is
applied only where something is output or a tie is broken: ``natural_key``,
``sorted_states`` and ``sorted_transitions``. A model's states are sorted by
``natural_key`` once (``_numbering``); from then on a state's position in that
order and an event's position in the alphabet, kept in natural order, are
its ranks, and ``sorted_transitions``, the CLI's cut lines and DOT export
sort by those ints.

Each ``Nfa`` also caches a private dense index (``_dense``): per state,
bitmasks over those positions for its unobservable reach and its
reach-closed successors under each observable event. The numbering itself
is read from ``_numbering`` alone, so only code that needs those rows (the
observer and ``unobservable_reach``) builds the index.

Every derived automaton (``accessible_part``, ``disable_transitions``, the
subautomata) comes from one walk of its parent's ``by_source`` (``_restrict``),
inherits the reached entries and shares its root model's numbering: a state
has one bit in a model, in everything derived from it and in their observers
and compositions. Its index rows are root-sized but filled for its own
states only, and a name handed in is checked against ``states``.

Each input is validated once. The public ``Nfa(...)`` constructor and
``Nfa.replace`` are the door for library input and check every field.
``modelio.parse_model`` checks a document itself, and a derived automaton
is a restriction of a validated parent; both are built by ``Nfa._trusted``,
which checks nothing again.
"""

from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import InvalidEvent, InvalidState, UncontrollableCut

#: A transition triple (source state, event name, target state).
Transition = tuple[str, str, str]

_DIGIT_RUN = re.compile(r"(\d+)")
#: A lone surrogate: a JSON escape can give one, but no output can encode it.
_SURROGATE = re.compile("[\ud800-\udfff]")


def natural_key(text: str) -> tuple:
    """Sort key that orders digit runs numerically ('2' before '10').

    The raw text is the last tie-break, so distinct strings never share a key
    ('01' before '1', 'a01' before 'a1'). A digit run is a run of decimal
    digits (``\\d``, any script); other characters that ``str.isdigit``
    accepts, such as '²', are text.
    """
    try:
        # The split alternates text and digit runs: the odd parts are the runs.
        parts = tuple(
            (0, int(part)) if i % 2 else (1, part)
            for i, part in enumerate(_DIGIT_RUN.split(text))
            if part != ""
        )
    except ValueError:  # a run past the interpreter's limit on int conversion
        parts = tuple(_long_run_key(p) if p.isdecimal() else (1, p) for p in _DIGIT_RUN.split(text) if p)
    return (parts, text)


def _long_run_key(run: str) -> tuple:
    """A digit run's key when ``int`` may refuse the run: ``(0, value)``
    when its digits past the leading zeros convert, and otherwise a key
    above every such one, ordered by those digits as a number."""
    digits = "".join(str(unicodedata.decimal(c)) for c in run).lstrip("0")
    try:
        return (0, int(digits or "0"))
    except ValueError:  # more digits than any convertible value has
        return (0, math.inf, len(digits), digits)


def _ranked(names: list[str]) -> tuple[list[int], list[str]]:
    """Per item of ``names``, the rank of its name among the distinct names
    in natural order, and those distinct names in that order: one natural
    key per distinct name."""
    distinct = sorted(set(names), key=natural_key)
    rank = {name: r for r, name in enumerate(distinct)}
    return [rank[name] for name in names], distinct


def sort_states(states: Iterable[str]) -> list[str]:
    """``states`` sorted by ``natural_key``. When every name is decimal that
    order is (value, text): text first, then a stable sort by value."""
    names = list(states)
    if all(map(str.isdecimal, names)):
        names.sort()
        try:
            names.sort(key=int)
            return names
        except ValueError:  # a name past the interpreter's limit on int conversion
            pass
    names.sort(key=natural_key)
    return names


def _check_k(k, name: str = "K") -> None:
    """Reject a step bound that is not a non-negative int (a bool is not one)."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"{name} must be a non-negative int, not {k!r}")
    if k < 0:
        raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class Event:
    """A named event with its observability and controllability flags.

    The flags partition the alphabet: every event is exactly one of
    observable/unobservable and exactly one of controllable/uncontrollable.
    """

    name: str
    observable: bool = True
    controllable: bool = True


@dataclass(frozen=True)
class Run:
    """A chained sequence of steps ``start -(event)-> ... -(event)-> end``.

    ``steps`` holds (event name, target state) pairs; consecutive steps chain.
    """

    start: str
    steps: tuple[tuple[str, str], ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def end(self) -> str:
        return self.steps[-1][1] if self.steps else self.start

    def word(self) -> tuple[str, ...]:
        """The event-name sequence of the run."""
        return tuple(event for event, _ in self.steps)

    def states(self) -> tuple[str, ...]:
        """All visited states, start included."""
        return (self.start,) + tuple(target for _, target in self.steps)

    def transitions(self) -> tuple[Transition, ...]:
        out = []
        here = self.start
        for event, target in self.steps:
            out.append((here, event, target))
            here = target
        return tuple(out)


@dataclass(frozen=True)
class Nfa:
    """A nondeterministic finite automaton with secret states.

    ``transitions`` is a set of (source, event name, target) triples; duplicate
    triples in the input are deduplicated silently (set semantics). Empty-state
    automata are legal values: they arise when enforcement deletes everything
    reachable.

    The constructor validates library input: a name that is not a string, an
    event flag that is not a bool, a transition that is not a triple, a
    duplicate event, a lone surrogate, an undeclared endpoint or event, or a
    marked state outside ``states`` raises ``InvalidState``/``InvalidEvent``.
    ``parse_model`` checks documents and derived automata are restrictions
    of a checked parent; those two build through ``_trusted`` without
    checking again.
    """

    states: frozenset[str]
    alphabet: tuple[Event, ...]
    transitions: frozenset[Transition]
    initial: frozenset[str]
    secret: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "secret", frozenset(self.secret))
        alphabet = tuple(self.alphabet)
        for x in self.states:
            if not isinstance(x, str):
                raise InvalidState(f"state name must be a string, not {x!r}")
        for e in alphabet:
            if not isinstance(e, Event):
                raise InvalidEvent(f"alphabet entry must be an Event, not {e!r}")
            if not isinstance(e.name, str):
                raise InvalidEvent(f"event name must be a string, not {e.name!r}")
            if not isinstance(e.observable, bool) or not isinstance(e.controllable, bool):
                raise InvalidEvent(f"event flags must be True or False: {e!r}")
        alphabet = tuple(sorted(alphabet, key=lambda e: natural_key(e.name)))
        object.__setattr__(self, "alphabet", alphabet)
        names = [e.name for e in alphabet]
        if len(set(names)) != len(names):
            raise InvalidEvent("duplicate event name in alphabet")
        if _SURROGATE.search("".join(names)):
            raise InvalidEvent("event name holds a lone surrogate, which no output can encode")
        if _SURROGATE.search("".join(self.states)):
            raise InvalidState("state name holds a lone surrogate, which no output can encode")
        by_name = {e.name: e for e in alphabet}
        for t in self.transitions:
            if not isinstance(t, tuple) or len(t) != 3:
                raise InvalidState(f"transition must be a (source, event, target) triple, not {t!r}")
            src, event, dst = t
            if src not in self.states or dst not in self.states:
                raise InvalidState(f"transition endpoint outside state set: {(src, event, dst)}")
            if event not in by_name:
                raise InvalidEvent(f"transition uses undeclared event: {event!r}")
        for x in self.initial | self.secret:
            if x not in self.states:
                raise InvalidState(f"marked state outside state set: {x!r}")

    @classmethod
    def _trusted(cls, states, alphabet, transitions, initial, secret) -> "Nfa":
        """An ``Nfa`` of fields its caller has already checked, built without
        ``__post_init__``: frozensets, and the alphabet in natural order."""
        nfa = cls.__new__(cls)
        nfa.__dict__.update(states=states, alphabet=alphabet, transitions=transitions, initial=initial, secret=secret)
        return nfa

    # -- lookups ------------------------------------------------------------

    @cached_property
    def events_by_name(self) -> dict[str, Event]:
        return {e.name: e for e in self.alphabet}

    def event(self, name: str) -> Event:
        try:
            return self.events_by_name[name]
        except KeyError:
            raise InvalidEvent(f"unknown event: {name!r}") from None

    def is_observable(self, name: str) -> bool:
        return self.event(name).observable

    def is_controllable(self, name: str) -> bool:
        return self.event(name).controllable

    @cached_property
    def observable_events(self) -> frozenset[str]:
        return frozenset(e.name for e in self.alphabet if e.observable)

    @cached_property
    def unobservable_events(self) -> frozenset[str]:
        return frozenset(e.name for e in self.alphabet if not e.observable)

    @cached_property
    def controllable_transitions(self) -> frozenset[Transition]:
        return frozenset(t for t in self.transitions if self.event(t[1]).controllable)

    @property
    def nonsecret(self) -> frozenset[str]:
        return self.states - self.secret

    @property
    def secret_initial(self) -> frozenset[str]:
        return self.initial & self.secret

    @property
    def nonsecret_initial(self) -> frozenset[str]:
        return self.initial - self.secret

    # Forward and backward indexes, in no particular order. The package reads
    # only ``by_source``: enforcement walks its compositions both ways, not
    # the ``Nfa``.
    @cached_property
    def by_source(self) -> dict[str, tuple[tuple[str, str], ...]]:
        index: dict[str, list[tuple[str, str]]] = {x: [] for x in self.states}
        for src, event, dst in self.transitions:
            index[src].append((event, dst))
        return {x: tuple(pairs) for x, pairs in index.items()}

    @cached_property
    def by_target(self) -> dict[str, tuple[tuple[str, str], ...]]:
        index: dict[str, list[tuple[str, str]]] = {x: [] for x in self.states}
        for src, event, dst in self.transitions:
            index[dst].append((src, event))
        return {x: tuple(pairs) for x, pairs in index.items()}

    def has_run(self, run: Run) -> bool:
        """Whether ``run`` chains through actual transitions of this automaton."""
        if run.start not in self.states:
            return False
        return all(t in self.transitions for t in run.transitions())

    def replace(self, **changes) -> "Nfa":
        """A copy with the given fields swapped out (validated afresh)."""
        fields = {
            "states": self.states,
            "alphabet": self.alphabet,
            "transitions": self.transitions,
            "initial": self.initial,
            "secret": self.secret,
        }
        fields.update(changes)
        return Nfa(**fields)

    @cached_property
    def _numbering(self) -> tuple[tuple[str, ...], dict[str, int]]:
        """The root model's states in natural order and their positions."""
        order = tuple(sort_states(self.states))
        return order, {x: i for i, x in enumerate(order)}

    @cached_property
    def _dense(self) -> "_Dense":
        return _dense_index(self)

    def sorted_states(self) -> list[str]:
        return sorted(self.states, key=self._numbering[1].__getitem__)

    def sorted_transitions(self) -> list[Transition]:
        return self._sort_transitions(self.transitions)

    def _sort_transitions(self, transitions: Iterable[Transition]) -> list[Transition]:
        """``transitions``, over this automaton's states and events, in
        natural order: by positions in the numbering and in the alphabet,
        which are natural-order ranks."""
        rank = self._numbering[1]
        event_rank = {e.name: i for i, e in enumerate(self.alphabet)}
        return sorted(transitions, key=lambda t: (rank[t[0]], event_rank[t[1]], rank[t[2]]))


class _Dense(NamedTuple):
    """An ``Nfa``'s relations as bitmasks over its numbering (``_numbering``,
    its root's: bit ``i`` stands for ``order[i]``).

    ``reach[i]`` is the unobservable reach of state ``i``. For an observable
    ``sigma``, ``step[sigma][i]`` is the unobservable reach of the
    ``sigma``-successors of state ``i``; one observer step from an estimate
    is the OR of ``step[sigma]`` over the estimate's bits. A root state that
    the ``Nfa`` lacks reads 0.
    """

    reach: list[int]
    step: dict[str, list[int]]


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _dense_index(nfa: Nfa) -> _Dense:
    order, position = nfa._numbering
    moves = [(position[x], pairs) for x, pairs in nfa.by_source.items()]
    unobs = nfa.unobservable_events
    silent: list = [()] * len(order)
    if unobs:
        for i, pairs in moves:
            silent[i] = [position[dst] for event, dst in pairs if event in unobs]
    reach = _closures(silent, [i for i, _ in moves])
    step = {e.name: [0] * len(order) for e in nfa.alphabet if e.observable}
    for i, pairs in moves:
        for event, dst in pairs:
            row = step.get(event)
            if row is not None:
                row[i] |= reach[position[dst]]
    return _Dense(reach, step)


def _closures(edges: list, nodes: list[int]) -> list[int]:
    """Per node ``i`` of the graph ``edges`` (``edges[i]`` lists the targets
    of ``i``), the bitmask of nodes reachable from ``i``, itself included;
    0 for a node that neither ``nodes`` lists nor a listed node reaches.

    Iterative Tarjan: a strongly connected component is closed once every
    component it reaches is, so it shares one mask and each edge is read once
    to find components and once to close them. A listed node with no edges
    is closed at once, without a frame; in a fully observable model every
    node is one.
    """
    n = len(edges)
    reach = [0] * n
    number = [0] * n  # discovery number, 0 while unvisited
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    for root in nodes:
        if number[root]:
            continue
        counter += 1
        if not edges[root]:  # a sink is its own closed component
            number[root] = counter
            reach[root] = 1 << root
            continue
        number[root] = low[root] = counter
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(edges[root]))]
        while work:
            x, todo = work[-1]
            for y in todo:
                if not number[y]:
                    counter += 1
                    number[y] = low[y] = counter
                    stack.append(y)
                    on_stack[y] = True
                    work.append((y, iter(edges[y])))
                    break
                if on_stack[y] and number[y] < low[x]:
                    low[x] = number[y]
            else:
                work.pop()
                if work and low[x] < low[work[-1][0]]:
                    low[work[-1][0]] = low[x]
                if low[x] != number[x]:
                    continue
                members = []
                mask = 0
                while True:
                    y = stack.pop()
                    on_stack[y] = False
                    members.append(y)
                    mask |= 1 << y
                    if y == x:
                        break
                # Components reached from this one are closed already; this
                # one's own members still read 0.
                for y in members:
                    for z in edges[y]:
                        mask |= reach[z]
                for y in members:
                    reach[y] = mask
    return reach


def natural_projection(word: Iterable[str], alphabet: Iterable[Event]) -> tuple[str, ...]:
    """Erase unobservable events from ``word``, preserving order.

    Raises InvalidEvent if the word uses an event missing from ``alphabet``.
    """
    observable = {e.name: e.observable for e in alphabet}
    projected = []
    for name in word:
        try:
            if observable[name]:
                projected.append(name)
        except KeyError:
            raise InvalidEvent(f"unknown event: {name!r}") from None
    return tuple(projected)


def unobservable_reach(nfa: Nfa, sources: Iterable[str]) -> frozenset[str]:
    """Least fixed point of ``sources`` under unobservable transitions."""
    order, position = nfa._numbering
    mask = 0
    for x in sources:
        if x not in nfa.states:
            raise InvalidState(f"not a state: {x!r}")
        mask |= nfa._dense.reach[position[x]]
    return frozenset(order[i] for i in _bits(mask))


def _restrict(nfa: Nfa, initial: frozenset[str], edges: dict[str, tuple[tuple[str, str], ...]]) -> Nfa:
    """The part of ``nfa`` that ``edges``, a restriction of ``nfa.by_source``
    (some states, each with some of its out-edges), reaches from ``initial``;
    ``nfa`` itself when that drops nothing. One walk builds it: the reached
    entries become its ``by_source``, and it shares ``nfa``'s numbering, so
    neither is built again."""
    alive = set(initial)
    todo = list(alive)
    while todo:
        for _, dst in edges[todo.pop()]:
            if dst not in alive:
                alive.add(dst)
                todo.append(dst)
    if len(alive) == len(nfa.states) and edges is nfa.by_source and initial == nfa.initial:
        return nfa
    if len(alive) < len(nfa.states):
        edges = {x: edges[x] for x in alive}
    transitions = nfa.transitions
    if edges is not nfa.by_source:
        transitions = frozenset((x, event, dst) for x, pairs in edges.items() for event, dst in pairs)
    alive = frozenset(alive)
    child = Nfa._trusted(alive, nfa.alphabet, transitions, initial, nfa.secret & alive)
    object.__setattr__(child, "by_source", edges)
    object.__setattr__(child, "_numbering", nfa._numbering)
    return child


def accessible_part(nfa: Nfa) -> Nfa:
    """The sub-NFA induced by states reachable from the initial set."""
    return _restrict(nfa, nfa.initial, nfa.by_source)


def disable_transitions(nfa: Nfa, cut: Iterable[Transition]) -> Nfa:
    """Remove ``cut`` from the transition relation and take the accessible part.

    Every transition in ``cut`` must exist and carry a controllable event; the
    input automaton is left unmodified.
    """
    cut = frozenset(cut)
    for t in cut:
        if t not in nfa.transitions:
            raise InvalidState(f"not a transition of the automaton: {t}")
        if not nfa.event(t[1]).controllable:
            raise UncontrollableCut(f"transition labeled by uncontrollable event: {t}")
    edges = dict(nfa.by_source)
    for src in {t[0] for t in cut}:
        edges[src] = tuple((event, dst) for event, dst in edges[src] if (src, event, dst) not in cut)
    return _restrict(nfa, nfa.initial, edges)
