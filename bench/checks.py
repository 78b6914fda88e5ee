"""Output checks that read the model documents directly.

Apart from re-verifying an enforced subsystem with the matching ``verify_*``
function, nothing here calls the package: models are read from their JSON
documents, witnesses and cut lists from the text every job's output is turned
into, and structure sizes come from this directory's own constructions.  Every
function returns a problem description, or None when the output is right.
"""

from __future__ import annotations

import json
import re
from collections import deque

from instances import dss_product_size, observer_size

SIZE_LIMIT = 10**7
STEP = re.compile(r" -\((.+?)\)-> ")


class Model:
    """A model document as plain sets."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.states = {s["id"] for s in doc["states"]}
        self.initial = {s["id"] for s in doc["states"] if s.get("initial")}
        self.secret = {s["id"] for s in doc["states"] if s.get("secret")}
        self.observable = {e["name"] for e in doc["events"] if e.get("observable", True)}
        self.controllable = {e["name"] for e in doc["events"] if e.get("controllable", True)}
        self.transitions = {(t["from"], t["event"], t["to"]) for t in doc["transitions"]}

    def reachable(self, roots, transitions) -> set[str]:
        succ: dict[str, list[str]] = {}
        for src, _, dst in transitions:
            succ.setdefault(src, []).append(dst)
        seen = set(roots)
        todo = deque(seen)
        while todo:
            for y in succ.get(todo.popleft(), ()):
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    def effective_k_bound(self) -> int:
        alive = self.reachable(self.initial, self.transitions)
        inner = {t for t in self.transitions if t[0] in alive}
        ghat = self.reachable(self.secret & alive, inner)
        if not ghat:
            return 0
        return max(0, len(ghat) * 2 ** len(alive - self.secret) - 1)


def parse_run(text: str) -> tuple[str, list[tuple[str, str]]]:
    """Inverse of the CLI's witness notation ``s -(e)-> t -(e)-> ...``."""
    parts = STEP.split(text)
    return parts[0], list(zip(parts[1::2], parts[2::2]))


def _left(name: str) -> str:
    return name[1 : name.index(",")]


def check_verdict(m: Model, notion: str, k: int | None, text: str) -> str | None:
    lines = text.splitlines()
    if lines == ["OPAQUE"]:
        return None
    if len(lines) != 2 or lines[0] != "NOT OPAQUE" or not lines[1].startswith("witness: "):
        return f"malformed verdict {text!r}"
    start, steps = parse_run(lines[1][len("witness: ") :])
    names = [start] + [target for _, target in steps]
    if start.startswith("{"):  # an observer path: cso, or the k-sso pre-check
        if notion not in ("cso", "k-sso"):
            return "observer witness for a composition notion"
        if any(event not in m.observable for event, _ in steps):
            return "observer witness uses an unobservable event"
        last = names[-1][1:-1].split(",")
        if not all(x in m.secret for x in last):
            return "observer witness does not end in an all-secret estimate"
        return None
    lefts = [_left(name) for name in names]
    events = [_left(event) for event, _ in steps]
    if any(t not in m.transitions for t in zip(lefts, events, lefts[1:])):
        return "witness is not a run of the model"
    if not names[-1].endswith(",∅)"):
        return "witness does not end at an empty estimate"
    if notion == "k-sso":
        if lefts[0] not in m.secret:
            return "k-sso witness does not start at a secret state"
        if sum(1 for e in events if e in m.observable) > k:
            return "k-sso witness longer than K observable steps"
        return None
    if lefts[0] not in m.initial:
        return "witness does not start at an initial state"
    if notion == "siso" and lefts[0] not in m.secret:
        return "siso witness does not start at a secret initial state"
    if notion == "scso" and lefts[-1] not in m.secret:
        return "scso witness does not end at a secret state"
    return None


def check_implications(verdicts: dict[tuple[str, int | None], bool]) -> str | None:
    """The lattice between notions on one model, for the verdicts present."""
    v = verdicts.get
    ks = sorted(k for notion, k in verdicts if notion == "k-sso")
    rules = [(v(("scso", None)), v(("cso", None)))]
    rules += [(v(("inf-sso", None)), v((n, None))) for n in ("scso", "siso")]
    for k in ks:
        rules.append((v(("k-sso", k)), v(("cso", None))))
        rules.append((v(("inf-sso", None)), v(("k-sso", k))))
    rules += [(v(("k-sso", hi)), v(("k-sso", lo))) for lo, hi in zip(ks, ks[1:])]
    if any(strong is True and weak is False for strong, weak in rules):
        return f"verdicts break the implication lattice: {verdicts}"
    return None


def check_enforcement(m: Model, text: str, subsystem: dict | None) -> str | None:
    """``text`` is ``ENFORCED`` plus cut lines, or ``IMPOSSIBLE`` plus a
    witness; ``subsystem`` is the enforced subsystem's document."""
    lines = text.splitlines()
    if lines and lines[0] == "IMPOSSIBLE":
        if len(lines) != 2 or not lines[1].startswith("witness: "):
            return f"malformed impossibility {text!r}"
        start, steps = parse_run(lines[1][len("witness: ") :])
        run = list(zip([start] + [t for _, t in steps], [e for e, _ in steps], [t for _, t in steps]))
        if start not in m.initial or any(t not in m.transitions for t in run):
            return "impossibility witness is not a run of the model"
        if any(event in m.controllable for event, _ in steps):
            return "impossibility witness uses a controllable event"
        return None
    if not lines or lines[0] != "ENFORCED":
        return f"malformed enforcement {text!r}"
    cut = set()
    for line in lines[1:]:
        src, rest = line.split(" -", 1)
        event, dst = rest.split("-> ", 1)
        cut.add((src, event, dst))
    if not cut <= m.transitions:
        return "cut names a transition the model does not have"
    if any(event not in m.controllable for _, event, _ in cut):
        return "cut names an uncontrollable transition"
    kept = m.transitions - cut
    alive = m.reachable(m.initial, kept)
    want = {t for t in kept if t[0] in alive and t[2] in alive}
    if subsystem is None:
        return "enforced without a subsystem"
    sub = Model(subsystem)
    if sub.transitions != want or sub.states != alive or sub.secret != m.secret & alive:
        return "subsystem is not the accessible part of the model minus the cut"
    return None


def check_dot(text: str, nodes: int) -> str | None:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("digraph ") or lines[-1] != "}":
        return "malformed DOT"
    found = sum(1 for line in lines[1:-1] if " -> " not in line)
    if found != nodes:
        return f"DOT has {found} nodes, expected {nodes}"
    return None


def nfa_document(nfa) -> dict:
    """The document of an enforced subsystem, read field by field."""
    return {
        "states": [{"id": x, "initial": x in nfa.initial, "secret": x in nfa.secret} for x in nfa.states],
        "events": [
            {"name": e.name, "observable": e.observable, "controllable": e.controllable}
            for e in nfa.alphabet
        ],
        "transitions": [{"from": s, "event": e, "to": d} for s, e, d in nfa.transitions],
    }


def check_cli(m: Model, argv: tuple[str, ...], code: int, stdout: str, out_bytes: bytes | None):
    """Returns (problem, verdict or None, subsystem document or None)."""
    command = argv[0]
    if command == "verify":
        notion = argv[2]
        k = int(argv[4]) if notion == "k-sso" else None
        expected_code = 0 if stdout.startswith("OPAQUE") else 1
        if code != expected_code:
            return f"exit {code} does not match the verdict", None, None
        return check_verdict(m, notion, k, stdout), (notion, k, code == 0), None
    if command == "enforce":
        if code == 1:
            return check_enforcement(m, stdout, None), None, None
        if code != 0 or out_bytes is None:
            return f"enforce exited {code}", None, None
        sub = json.loads(out_bytes)
        return check_enforcement(m, "ENFORCED\n" + stdout, sub), None, sub
    if command == "export":
        if code != 0 or out_bytes is None:
            return f"export exited {code}", None, None
        size = observer_size if argv[2] == "observer" else dss_product_size
        return check_dot(out_bytes.decode("utf-8"), size(m.doc, SIZE_LIMIT)), None, None
    if command == "bound":
        if code != 0 or stdout != f"{m.effective_k_bound()}\n":
            return "bound differs from the structural cap", None, None
        return None, None, None
    return f"unknown command {command}", None, None
