"""Golden corpus: exact outputs of every verifier and enforcer on seeded
cyclic instances (``corpus.random_cyclic_nfa``), recorded in
``data/golden.json``.

A verdict is recorded as the CLI prints it, with its witness; an enforcement
outcome as its cut set in natural order, or its ``Impossible`` witness. Any
intended change of output must re-record the file and say so:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from corpus import random_cyclic_nfa  # noqa: E402

from strongopacity import (  # noqa: E402
    Enforced,
    enforce_inf_sso,
    enforce_k_sso,
    enforce_scso,
    enforce_siso,
    serialize_model,
    verify_cso,
    verify_inf_sso,
    verify_k_sso,
    verify_scso,
    verify_siso,
)
from strongopacity.automaton import natural_key  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "golden.json"
SEED = 20261018
COUNT = 200

VERIFIERS = {
    "verify cso": verify_cso,
    "verify k-sso 1": lambda nfa: verify_k_sso(nfa, 1),
    "verify k-sso 2": lambda nfa: verify_k_sso(nfa, 2),
    "verify scso": verify_scso,
    "verify siso": verify_siso,
    "verify inf-sso": verify_inf_sso,
}
ENFORCERS = {
    "enforce cso": lambda nfa: enforce_k_sso(nfa, 0),
    "enforce k-sso 1": lambda nfa: enforce_k_sso(nfa, 1),
    "enforce scso": enforce_scso,
    "enforce siso": enforce_siso,
    "enforce inf-sso": enforce_inf_sso,
}


def _run_text(run) -> str:
    return run.start + "".join(f" -({event})-> {target}" for event, target in run.steps)


def _outputs(nfa) -> dict[str, str]:
    out = {"model": hashlib.sha256(serialize_model(nfa)).hexdigest()[:12]}
    for name, verify in VERIFIERS.items():
        verdict = verify(nfa)
        out[name] = "OPAQUE" if verdict.opaque else "NOT OPAQUE " + _run_text(verdict.witness)
    for name, enforce in ENFORCERS.items():
        outcome = enforce(nfa)
        if isinstance(outcome, Enforced):
            cut = sorted(outcome.disabled, key=lambda t: tuple(natural_key(x) for x in t))
            out[name] = "ENFORCED " + "; ".join(" ".join(t) for t in cut)
        else:
            out[name] = "IMPOSSIBLE " + _run_text(outcome.witness)
    return out


def _corpus_outputs() -> list[dict[str, str]]:
    rng = random.Random(SEED)
    return [_outputs(random_cyclic_nfa(rng)) for _ in range(COUNT)]


def test_golden_corpus_outputs_unchanged():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = _corpus_outputs()
    assert len(actual) == len(expected) == COUNT
    for index, (want, got) in enumerate(zip(expected, actual)):
        assert got["model"] == want["model"], f"instance {index}: generator changed"
        assert got == want, f"instance {index}"


def test_library_writes_nothing_to_stdout(capsys):
    # A program that calls the library owns its stdout (the benchmark's last
    # stdout line is its result), so no verifier or enforcer may print.
    rng = random.Random(SEED)
    for _ in range(40):
        nfa = random_cyclic_nfa(rng)
        for run in [*VERIFIERS.values(), *ENFORCERS.values()]:
            run(nfa)
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_corpus_outputs(), indent=1) + "\n", encoding="utf-8")
