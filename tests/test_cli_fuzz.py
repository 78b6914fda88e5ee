"""A seeded structural fuzz of the CLI contract: whatever the model document
holds, ``run_cli`` returns 0, 1 or 2 and lets no exception escape.

The documents are the ones under ``tests/models``, mutated: an entry is
dropped or duplicated, a field is dropped or gets a value of another type,
a section or the whole document is replaced, and identifiers take odd values
such as a lone surrogate, ``1e308`` and ``10**30``.
"""

import copy
import json
import random

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
