"""A seeded structural fuzz of the CLI contract: whatever the model document
holds, ``run_cli`` returns 0, 1 or 2 and lets no exception escape.

The documents are the ones under ``tests/models``, mutated: an entry is
dropped or duplicated, a field is dropped or gets a value of another type,
a section or the whole document is replaced, and identifiers take odd values
such as a lone surrogate, ``1e308`` and ``10**30``. The same documents pin
``parse_model``'s error type and message against a plain per-entry checker.
"""

import copy
import json
import random
import re

from strongopacity import (
    EmptyModel,
    Event,
    InvalidEvent,
    InvalidState,
    Nfa,
    OpacityError,
    ParseError,
    UnknownReference,
    parse_model,
)
from strongopacity.cli import run_cli

from conftest import MODELS

SEED = 20261019
RUNS = 800

IDS = ["\ud800", 10**30, "10" * 40, "²", "01", "a b", '"', "\\", "\u00e9", "x\u0000", 7]
ODD = ["\ud800", 1e308, 10**30, -1, 0, 0.5, True, False, None, "", "²", "0", "01", [], {}, ["0"], {"id": "0"}]
SECTIONS = ("states", "events", "transitions")
COMMANDS = (
    ["verify", "--notion", "cso"],
    ["verify", "--notion", "scso"],
    ["verify", "--notion", "siso"],
    ["verify", "--notion", "inf-sso"],
    ["verify", "--notion", "k-sso", "--k", "2"],
    ["enforce", "--notion", "k-sso", "--k", "1"],
    ["enforce", "--notion", "scso"],
    ["enforce", "--notion", "inf-sso"],
    ["export", "--structure", "cc-hat"],
    ["export", "--structure", "observer"],
    ["bound"],
)


def rename(doc: dict, old, new) -> None:
    """Rename the state or event ``old`` to ``new`` wherever it occurs."""
    for section, fields in (("states", ("id",)), ("events", ("name",)), ("transitions", ("from", "event", "to"))):
        for entry in doc[section]:
            for field in fields:
                if entry.get(field) == old:
                    entry[field] = new


def mutate(doc: dict, rng: random.Random) -> object:
    """``doc`` with a state or an event renamed to an odd identifier, which
    keeps it valid, or with up to two structural changes, or both."""
    doc = copy.deepcopy(doc)
    if rng.random() < 0.6:
        entry = rng.choice(doc["states"] + doc["events"])
        rename(doc, entry.get("id", entry.get("name")), rng.choice(IDS))
    for _ in range(rng.randrange(3)):
        choice = rng.randrange(6)
        section = rng.choice(SECTIONS)
        entries = doc.get(section)
        if choice == 0:
            doc[rng.choice(["version", *SECTIONS])] = rng.choice(ODD)
        elif choice == 1:
            return rng.choice(ODD)
        elif not isinstance(entries, list) or not entries:
            continue
        elif choice == 2:
            del entries[rng.randrange(len(entries))]
        elif choice == 3:
            entries.append(copy.deepcopy(rng.choice(entries)))
        else:
            entry = rng.choice(entries)
            if not isinstance(entry, dict) or not entry:
                continue
            field = rng.choice(sorted(entry))
            if choice == 4:
                del entry[field]
            else:
                entry[field] = rng.choice(ODD)
    return doc


def test_cli_exit_codes_on_mutated_models(tmp_path, capsys):
    rng = random.Random(SEED)
    docs = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(MODELS.glob("*.json"))]
    model, out = tmp_path / "model.json", tmp_path / "out"
    for run in range(RUNS):
        model.write_text(json.dumps(mutate(rng.choice(docs), rng)), encoding="utf-8")
        argv = rng.choice(COMMANDS) + [str(model)]
        if argv[0] in ("enforce", "export"):
            argv += ["--out", str(out)]
        code = run_cli(argv)
        assert code in (0, 1, 2), (run, argv, model.read_text(encoding="utf-8"))
    capsys.readouterr()


def reference_parse(text: str) -> Nfa:
    """``parse_model`` of a syntactically valid document as plain checks, one
    entry at a time in document order; a section's lone-surrogate check runs
    after its entries. The reference for the parser's error type and message."""
    doc = json.loads(text)

    def structural(message):
        return ParseError(message, 0, 0)

    def ident(entry, section, i, key):
        value = entry[key]
        if isinstance(value, bool) or not isinstance(value, (str, int)):
            raise structural(f"{section}[{i}].{key} must be a string (or integer) identifier")
        return str(value)

    def flag(entry, section, i, key, default):
        value = entry.get(key, default)
        if not isinstance(value, bool):
            raise structural(f"{section}[{i}].{key} must be true or false, not {json.dumps(value)}")
        return value

    def listed(section):
        entries = doc.get(section, [])
        if not isinstance(entries, list):
            raise structural(f"{section} must be a list")
        return entries

    def encodable(entries, section, key):
        for i, entry in enumerate(entries):
            if re.search("[\ud800-\udfff]", str(entry[key])):
                raise structural(f"{section}[{i}].{key} holds a lone surrogate, which no output can encode")

    if not isinstance(doc, dict):
        raise structural("top level must be an object")
    version = doc.get("version", 1)
    if type(version) is not int or version != 1:
        raise structural(f"version must be 1, not {json.dumps(version)}")
    raw_states = doc.get("states")
    if not isinstance(raw_states, list) or not raw_states:
        raise EmptyModel("model declares no states")
    states, initial, secret = [], [], []
    for i, entry in enumerate(raw_states):
        if not isinstance(entry, dict) or "id" not in entry:
            raise structural(f"states[{i}] needs an 'id'")
        sid = ident(entry, "states", i, "id")
        if sid in states:
            raise InvalidState(f"state declared twice: {sid!r} (states[{i}])")
        states.append(sid)
        if flag(entry, "states", i, "initial", False):
            initial.append(sid)
        if flag(entry, "states", i, "secret", False):
            secret.append(sid)
    encodable(raw_states, "states", "id")
    events = []
    for i, entry in enumerate(listed("events")):
        if not isinstance(entry, dict) or "name" not in entry:
            raise structural(f"events[{i}] needs a 'name'")
        name = ident(entry, "events", i, "name")
        if name in [e.name for e in events]:
            raise InvalidEvent(f"event declared twice: {name!r} (events[{i}])")
        observable = flag(entry, "events", i, "observable", True)
        events.append(Event(name, observable, flag(entry, "events", i, "controllable", True)))
    encodable(listed("events"), "events", "name")
    transitions = []
    for i, entry in enumerate(listed("transitions")):
        if not isinstance(entry, dict) or not {"from", "event", "to"} <= entry.keys():
            raise structural(f"transitions[{i}] needs 'from', 'event' and 'to'")
        src, dst = ident(entry, "transitions", i, "from"), ident(entry, "transitions", i, "to")
        name = ident(entry, "transitions", i, "event")
        for ref, kind, known in ((src, "state", states), (dst, "state", states), (name, "event", [e.name for e in events])):
            if ref not in known:
                raise UnknownReference(ref, kind=kind)
        transitions.append((src, name, dst))
    return Nfa(
        states=frozenset(states),
        alphabet=tuple(events),
        transitions=frozenset(transitions),
        initial=frozenset(initial),
        secret=frozenset(secret),
    )


def outcome(parse, text: str):
    try:
        return parse(text)
    except OpacityError as exc:
        return type(exc), str(exc)


def test_parse_errors_match_the_per_entry_reference():
    rng = random.Random(SEED)
    docs = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(MODELS.glob("*.json"))]
    errors = set()
    for run in range(RUNS):
        text = json.dumps(mutate(rng.choice(docs), rng))
        expected = outcome(reference_parse, text)
        assert outcome(parse_model, text) == expected, (run, text)
        if isinstance(expected, tuple):
            errors.add((expected[0], re.sub(r"\[\d+\]|'.*'|not .*", "", expected[1])))
    # Fields and entry numbers aside, the documents reach over 20 distinct
    # errors, so the comparison is not a vacuous one.
    assert len(errors) >= 20, sorted(errors)
