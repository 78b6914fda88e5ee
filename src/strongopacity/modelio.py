"""The on-disk model document, and graph export of every structure.

The model document is JSON shaped:

    {
      "version": 1,
      "states": [{"id": "0", "initial": true, "secret": false}, ...],
      "events": [{"name": "a", "observable": true, "controllable": true}, ...],
      "transitions": [{"from": "0", "event": "a", "to": "1"}, ...]
    }

Flags are JSON booleans and default to secret=false, initial=false,
observable=true, controllable=true. Every transition endpoint and event name
must be declared. The writer emits exactly the bytes of
``json.dumps(document, indent=2, ensure_ascii=False)`` and a newline, from
a fixed template: each name is quoted once, by the C quoting that call
uses, and an empty section is ``[]``.
Graph export emits deterministic DOT text: one node line per state carrying
its annotations, one edge line per ordered pair of node names with all its
event labels merged (self-loops included; two nodes with one name share
their edge lines), nodes and edges in canonical order. One renderer,
``_dot``, writes every structure. Each structure supplies only what differs,
read from its int form: the rank of each id's node name among the distinct
names (``_ranked``, one natural sort key per distinct name; an automaton's
states are distinct and in natural order already, so it skips the sort),
the attribute text of each id, the ids in output order, its labels
(distinct, in natural order) and its edges as (source id, label rank, target
id) int triples. The renderer quotes each distinct name once, packs each
edge into one int, and sorts the distinct ints once; a run of equal name
pairs is one edge line. Nodes follow ``sorted_states`` (an automaton's
natural order, an observer's estimate tuples in plain order, a
composition's one state order, ``_Core.sort_key``).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from typing import IO, Iterable, Sequence, Union

from .automaton import _SURROGATE, Event, Nfa, _ranked, natural_key
from .composition import CcAutomaton
from .errors import EmptyModel, InvalidEvent, InvalidState, IoError, ParseError, UnknownReference
from .observer import Observer, estimate_name

MODEL_VERSION = 1


def _structural(message: str) -> ParseError:
    # A structurally malformed (but syntactically valid) document; the message
    # names the offending entry by its JSON path, as position is unknown.
    return ParseError(message, 0, 0)


def _field_id(entry: dict, key: str, section: str, i: int) -> str:
    value = entry[key]
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise _structural(f"{section}[{i}].{key} must be a string (or integer) identifier")


def _check_encodable(names: set[str], entries: list, section: str, key: str) -> None:
    """Reject a name holding a lone surrogate, which a JSON escape can give
    but no output can encode; the error names the first such entry."""
    if _SURROGATE.search("".join(names)):
        i = next(i for i, entry in enumerate(entries) if _SURROGATE.search(str(entry[key])))
        raise _structural(f"{section}[{i}].{key} holds a lone surrogate, which no output can encode")


def _flag(entry: dict, key: str, default: bool, section: str, i: int) -> bool:
    value = entry.get(key, default)
    if not isinstance(value, bool):
        raise _structural(f"{section}[{i}].{key} must be true or false, not {json.dumps(value)}")
    return value


def _entries(doc: dict, section: str) -> list:
    entries = doc.get(section, [])
    if not isinstance(entries, list):
        raise _structural(f"{section} must be a list")
    return entries


def parse_model(text: Union[bytes, str]) -> Nfa:
    """Parse and validate a model document into an automaton; a structural
    error names the offending entry by its path, e.g. ``states[3].secret``.

    The checks here cover everything ``Nfa``'s constructor checks, so the
    automaton is built by ``Nfa._trusted`` and validated only once."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = text.count(b"\n", 0, exc.start) + 1
            col = exc.start - text.rfind(b"\n", 0, exc.start)
            raise ParseError(f"not UTF-8: {exc.reason}", line, col) from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise _structural("document holds an integer too long to read") from None
    except RecursionError:
        raise _structural("document nests too deeply") from None
    if not isinstance(doc, dict):
        raise _structural("top level must be an object")
    version = doc.get("version", MODEL_VERSION)
    if type(version) is not int or version != MODEL_VERSION:
        raise _structural(f"version must be {MODEL_VERSION}, not {json.dumps(version)}")

    raw_states = doc.get("states")
    if not isinstance(raw_states, list) or not raw_states:
        raise EmptyModel("model declares no states")
    # Each field is read directly when it has its common type (a string id,
    # a boolean flag); ``_field_id`` and ``_flag`` see only the rest, to
    # accept an integer id or to raise.
    states, initial, secret = set(), set(), set()
    for i, entry in enumerate(raw_states):
        if not isinstance(entry, dict) or "id" not in entry:
            raise _structural(f"states[{i}] needs an 'id'")
        sid = entry["id"]
        if type(sid) is not str:
            sid = _field_id(entry, "id", "states", i)
        if sid in states:
            raise InvalidState(f"state declared twice: {sid!r} (states[{i}])")
        states.add(sid)
        flag = entry.get("initial", False)
        if type(flag) is not bool:
            _flag(entry, "initial", False, "states", i)  # raises
        if flag:
            initial.add(sid)
        flag = entry.get("secret", False)
        if type(flag) is not bool:
            _flag(entry, "secret", False, "states", i)  # raises
        if flag:
            secret.add(sid)
    _check_encodable(states, raw_states, "states", "id")

    alphabet = []
    seen_events = set()
    for i, entry in enumerate(_entries(doc, "events")):
        if not isinstance(entry, dict) or "name" not in entry:
            raise _structural(f"events[{i}] needs a 'name'")
        name = _field_id(entry, "name", "events", i)
        if name in seen_events:
            raise InvalidEvent(f"event declared twice: {name!r} (events[{i}])")
        seen_events.add(name)
        alphabet.append(
            Event(
                name=name,
                observable=_flag(entry, "observable", True, "events", i),
                controllable=_flag(entry, "controllable", True, "events", i),
            )
        )
    _check_encodable(seen_events, _entries(doc, "events"), "events", "name")

    transitions = set()
    for i, entry in enumerate(_entries(doc, "transitions")):
        if not isinstance(entry, dict) or "from" not in entry or "event" not in entry or "to" not in entry:
            raise _structural(f"transitions[{i}] needs 'from', 'event' and 'to'")
        src, dst, name = entry["from"], entry["to"], entry["event"]
        if type(src) is not str:
            src = _field_id(entry, "from", "transitions", i)
        if type(dst) is not str:
            dst = _field_id(entry, "to", "transitions", i)
        if type(name) is not str:
            name = _field_id(entry, "event", "transitions", i)
        if src not in states:
            raise UnknownReference(src, kind="state")
        if dst not in states:
            raise UnknownReference(dst, kind="state")
        if name not in seen_events:
            raise UnknownReference(name, kind="event")
        transitions.add((src, name, dst))

    return Nfa._trusted(
        frozenset(states),
        tuple(sorted(alphabet, key=lambda e: natural_key(e.name))),
        frozenset(transitions),
        frozenset(initial),
        frozenset(secret),
    )


def serialize_model(nfa: Nfa) -> bytes:
    """Deterministic document for an automaton; parse(serialize(n)) == n.
    The bytes are those of ``json.dumps(doc, indent=2, ensure_ascii=False)``
    and a newline; each name is quoted by ``encode_basestring``, as there."""
    flag = ("false", "true")  # indexed by a bool
    initial, secret = nfa.initial, nfa.secret
    order = nfa.sorted_states()
    quoted = dict(zip(order, map(encode_basestring, order)))
    named = {e.name: encode_basestring(e.name) for e in nfa.alphabet}
    states = [
        f'    {{\n      "id": {quoted[x]},\n'
        f'      "initial": {flag[x in initial]},\n      "secret": {flag[x in secret]}\n    }}'
        for x in order
    ]
    events = [
        f'    {{\n      "name": {named[e.name]},\n      "observable": {flag[e.observable]},\n'
        f'      "controllable": {flag[e.controllable]}\n    }}'
        for e in nfa.alphabet
    ]
    transitions = [
        f'    {{\n      "from": {quoted[src]},\n'
        f'      "event": {named[event]},\n      "to": {quoted[dst]}\n    }}'
        for src, event, dst in nfa.sorted_transitions()
    ]
    body = ",\n".join(
        f'  "{section}": [\n' + ",\n".join(items) + "\n  ]" if items else f'  "{section}": []'
        for section, items in (("states", states), ("events", events), ("transitions", transitions))
    )
    return f'{{\n  "version": {MODEL_VERSION},\n{body}\n}}\n'.encode("utf-8")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(
    kind: str,
    ranked: tuple[Sequence[int], list[str]],
    order: Iterable[int],
    attributes: list[str],
    labels: list[str],
    edges: Iterable[tuple[int, int, int]],
) -> str:
    """The DOT text of one structure, whose node ids are the indexes of
    ``attributes``: ``ranked`` is ``_ranked`` of the ids' node names (a
    structure whose names are distinct and in natural order already passes
    its ids as their ranks), ``attributes[i]`` is the attribute text of id
    ``i``, ``order`` lists the ids in output order, ``labels`` the distinct
    edge labels in natural order, and ``edges`` (source id, label rank,
    target id) triples in any order.

    Ids with one name share its rank and its edge lines. Each triple packs
    into one int, ``(source rank * width + target rank) * len(labels) +
    label``: one sort of the distinct ints orders the name pairs and each
    pair's labels, and the labels of a pair form one run of the sorted ints,
    merged on one line."""
    rank, distinct = ranked
    quoted = [_quote(name) for name in distinct]
    lines = [f"digraph {kind} {{"]
    lines += [f"  {quoted[rank[i]]} [{attributes[i]}];" for i in order]
    width, count = len(quoted), len(labels)
    single = [_quote(label) for label in labels]
    last = -1
    for packed in sorted({(rank[src] * width + rank[dst]) * count + label for src, label, dst in edges}):
        pair = packed // count
        if pair != last:
            last = pair
            src, dst = quoted[pair // width], quoted[pair % width]
            run = [packed - pair * count]
            lines.append(f"  {src} -> {dst} [label={single[run[0]]}];")
        else:  # one more label of the pair on the last line
            run.append(packed - pair * count)
            lines[-1] = f"  {src} -> {dst} [label={_quote(','.join(labels[r] for r in run))}];"
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_graph(structure: Union[Nfa, Observer, CcAutomaton], sink: IO[str]) -> None:
    """Write a deterministic DOT description of the structure to ``sink``."""
    flag = ("false", "true")  # indexed by a bool
    if isinstance(structure, Nfa):
        # Each state is its own id, ranked by its position: the states and
        # the alphabet are distinct and in natural order already.
        names = structure.sorted_states()
        position = {x: i for i, x in enumerate(names)}
        event_rank = {e.name: r for r, e in enumerate(structure.alphabet)}
        texts = [f"initial={a}, secret={b}" for a in flag for b in flag]  # indexed by 2 * initial + secret
        attributes = [texts[2 * (x in structure.initial) + (x in structure.secret)] for x in names]
        edges = ((position[src], event_rank[event], position[dst]) for src, event, dst in structure.transitions)
        text = _dot("nfa", (list(position.values()), names), range(len(names)), attributes, list(event_rank), edges)
    elif isinstance(structure, Observer):
        table = structure._table
        ids = range(len(table.masks))
        initial = set(table.initials)
        event_rank = {e.name: r for r, e in enumerate(structure.events)}  # natural order, as the alphabet is kept
        names = [estimate_name(table.estimate(i)) for i in ids]
        attributes = [("initial=false", "initial=true")[i in initial] for i in ids]
        edges = ((i, event_rank[e], j) for i, moves in enumerate(table.step) for e, j in moves.items())
        text = _dot("observer", _ranked(names), sorted(ids, key=table.estimate), attributes, list(event_rank), edges)
    elif isinstance(structure, CcAutomaton):
        core, initial = structure._core, structure._initial_ids
        event_rank, events = structure._event_rank
        ebits, emask = core.ebits, core.emask
        texts = [f"initial={a}, empty={b}" for a in flag for b in flag]  # indexed by 2 * initial + empty
        attributes = [texts[2 * (i in initial) + (key < 0)] for i, key in enumerate(core.keys)]
        edges = ((src, event_rank[edge & emask], edge >> ebits) for src, row in enumerate(core.out) for edge in row)
        text = _dot("composition", _ranked(structure._names()), structure._sorted_ids(), attributes, events, edges)
    else:
        raise TypeError(f"cannot export {type(structure).__name__}")
    try:
        sink.write(text)
    except OSError as exc:
        raise IoError(str(exc)) from exc
