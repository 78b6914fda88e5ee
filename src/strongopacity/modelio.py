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
must be declared.
Graph export emits deterministic DOT text: one node line per state carrying
its annotations, one edge line per ordered state pair with all its event
labels merged (self-loops included), nodes and edges in canonical order.
"""

from __future__ import annotations

import json
from functools import cache
from typing import IO, Union

from .automaton import Event, Nfa, natural_key
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
    error names the offending entry by its path, e.g. ``states[3].secret``."""
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
    states, initial, secret = set(), set(), set()
    for i, entry in enumerate(raw_states):
        if not isinstance(entry, dict) or "id" not in entry:
            raise _structural(f"states[{i}] needs an 'id'")
        sid = _field_id(entry, "id", "states", i)
        if sid in states:
            raise InvalidState(f"state declared twice: {sid!r} (states[{i}])")
        states.add(sid)
        if _flag(entry, "initial", False, "states", i):
            initial.add(sid)
        if _flag(entry, "secret", False, "states", i):
            secret.add(sid)

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

    transitions = set()
    for i, entry in enumerate(_entries(doc, "transitions")):
        if not isinstance(entry, dict) or not {"from", "event", "to"} <= entry.keys():
            raise _structural(f"transitions[{i}] needs 'from', 'event' and 'to'")
        src = _field_id(entry, "from", "transitions", i)
        dst = _field_id(entry, "to", "transitions", i)
        name = _field_id(entry, "event", "transitions", i)
        if src not in states:
            raise UnknownReference(src, kind="state")
        if dst not in states:
            raise UnknownReference(dst, kind="state")
        if name not in seen_events:
            raise UnknownReference(name, kind="event")
        transitions.add((src, name, dst))

    return Nfa(
        states=frozenset(states),
        alphabet=tuple(alphabet),
        transitions=frozenset(transitions),
        initial=frozenset(initial),
        secret=frozenset(secret),
    )


def serialize_model(nfa: Nfa) -> bytes:
    """Deterministic document for an automaton; parse(serialize(n)) == n."""
    doc = {
        "version": MODEL_VERSION,
        "states": [
            {"id": x, "initial": x in nfa.initial, "secret": x in nfa.secret}
            for x in nfa.sorted_states()
        ],
        "events": [
            {"name": e.name, "observable": e.observable, "controllable": e.controllable}
            for e in nfa.alphabet
        ],
        "transitions": [
            {"from": src, "event": event, "to": dst}
            for src, event, dst in nfa.sorted_transitions()
        ],
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _merged_edges(edges) -> list[str]:
    """One DOT line per (source, target) name pair, its labels merged; the
    pairs and the labels are put in natural order here, so ``edges`` may
    come in any order."""
    grouped: dict[tuple[str, str], list[str]] = {}
    for src, label, dst in edges:
        grouped.setdefault((src, dst), []).append(label)
    key = cache(natural_key)  # one key per distinct name or label

    lines = []
    ordered = sorted(grouped.items(), key=lambda kv: (key(kv[0][0]), key(kv[0][1])))
    for (src, dst), labels in ordered:
        joined = ",".join(sorted(set(labels), key=key))
        lines.append(f"  {_quote(src)} -> {_quote(dst)} [label={_quote(joined)}];")
    return lines


def _nfa_lines(nfa: Nfa) -> list[str]:
    lines = ["digraph nfa {"]
    for x in nfa.sorted_states():
        flags = f"initial={'true' if x in nfa.initial else 'false'}, secret={'true' if x in nfa.secret else 'false'}"
        lines.append(f"  {_quote(x)} [{flags}];")
    lines += _merged_edges(nfa.transitions)
    lines.append("}")
    return lines


def _observer_lines(obs: Observer) -> list[str]:
    lines = ["digraph observer {"]
    names = {q: estimate_name(q) for q in obs.estimates}
    for q in obs.sorted_estimates():
        flag = "true" if q in obs.initials else "false"
        lines.append(f"  {_quote(names[q])} [initial={flag}];")
    lines += _merged_edges((names[q1], event, names[q2]) for (q1, event), q2 in obs.delta.items())
    lines.append("}")
    return lines


def _composition_lines(cc: CcAutomaton) -> list[str]:
    lines = ["digraph composition {"]
    names = {s: s.name for s in cc.states}
    event_names = {e: e.name for e in cc.events}
    for s in cc.sorted_states():
        init = "true" if s in cc.initials else "false"
        empty = "true" if s.is_empty else "false"
        lines.append(f"  {_quote(names[s])} [initial={init}, empty={empty}];")
    lines += _merged_edges((names[src], event_names[event], names[dst]) for src, event, dst in cc.transitions)
    lines.append("}")
    return lines


def export_graph(structure: Union[Nfa, Observer, CcAutomaton], sink: IO[str]) -> None:
    """Write a deterministic DOT description of the structure to ``sink``."""
    if isinstance(structure, Nfa):
        lines = _nfa_lines(structure)
    elif isinstance(structure, Observer):
        lines = _observer_lines(structure)
    elif isinstance(structure, CcAutomaton):
        lines = _composition_lines(structure)
    else:
        raise TypeError(f"cannot export {type(structure).__name__}")
    try:
        sink.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc
