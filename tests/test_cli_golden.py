"""CLI golden bytes: every command over each model in ``tests/models``, with
its exit code, stdout, stderr and the bytes of every file it writes,
recorded in ``data/cli_golden.json``.

The commands are ``verify`` and ``enforce`` (with ``--out`` and
``--emit-ec``) for each notion, k-sso at several K, ``export`` of each
structure and ``bound``. Any intended change of CLI output must re-record
the file and say so:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import MODELS  # noqa: E402

from strongopacity.cli import run_cli  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
NOTIONS = [["--notion", n] for n in ("cso", "scso", "siso", "inf-sso")] + [
    ["--notion", "k-sso", "--k", str(k)] for k in (0, 1, 2, 3, 1000)
]
STRUCTURES = ("observer", "cc-hat", "cc-obs", "cc-dss")


def _invocations(model: str) -> list[list[str]]:
    """Each command run on ``model``; written files go to the working directory."""
    return (
        [["verify", *notion, model] for notion in NOTIONS]
        + [["enforce", *notion, model, "--out", "subsystem.json", "--emit-ec", "cuts.txt"] for notion in NOTIONS]
        + [["export", "--structure", s, model, "--out", "graph.dot"] for s in STRUCTURES]
        + [["bound", model]]
    )


def _run(argv: list[str], workdir: Path) -> dict:
    """One in-process invocation in an empty ``workdir``: its exit code,
    stdout, stderr and each file it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    files = {path.name: path.read_bytes().decode("utf-8") for path in sorted(workdir.iterdir())}
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def _cli_outputs() -> dict[str, dict]:
    """Every invocation's record, keyed by its command line with the model
    named by its file name."""
    records = {}
    here = os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as scratch:
            for path in sorted(MODELS.glob("*.json")):
                for argv in _invocations(str(path)):
                    workdir = Path(scratch) / str(len(records))
                    workdir.mkdir()
                    os.chdir(workdir)
                    name = " ".join(path.name if arg == str(path) else arg for arg in argv)
                    records[name] = _run(argv, workdir)
    finally:
        os.chdir(here)
    return records


def test_cli_outputs_unchanged():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = _cli_outputs()
    assert len(actual) == 23 * len(list(MODELS.glob("*.json")))
    assert sorted(actual) == sorted(expected)
    for name, want in expected.items():
        assert actual[name] == want, name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_cli_outputs(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
