"""A mutation gate: plant known faults in the package and check that the
tests catch each one.

Each mutation replaces one exact piece of text in one module of
``src/strongopacity``. The anchor text must occur exactly once, so a
refactor that moves or rewrites a mutated line fails the gate loudly
instead of leaving the fault unchecked; such a change updates the table
below along with the line. The unmutated copy and every mutation get a
fresh copy of ``src``, ``tests`` and ``pyproject.toml`` in a temporary
directory, and each runs its test files with ``-x -q -p no:cacheprovider``
once per Hypothesis seed in ``SEEDS``, under the ``mutants`` Hypothesis
profile (no shrinking, no example database, no deadline; see
``tests/conftest.py``). The unmutated copy must pass every listed file
under each seed. A mutation is killed when the run under every seed fails
a test.

The pytest runs, the unmutated copy's first, run as concurrent
subprocesses, at most ``WORKERS`` at a time; the lines are printed in
table order as their runs finish.

Standard library only. Run from anywhere in a checkout::

    python3 tools/mutants.py

It prints a line for the unmutated copy, then one line per mutation,
``killed`` or ``survived`` with the first failing test under each seed,
each line with the seconds its runs took together, then the whole gate's
seconds. It exits 1 when a mutation survives (2 when the unmutated copy
fails or an anchor does not occur exactly once).
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)
TIMEOUT = 600  # seconds per pytest run
WORKERS = min(os.cpu_count() or 1, 4)  # pytest runs at a time

# (name, module, anchor text, replacement, test files)
MUTATIONS = [
    (
        # A state found by an observable move and then by an unobservable
        # one in the same layer keeps the later layer.
        "lowering",
        "composition.py",
        "            elif layers[dst] > layer:  # found by an observable move, yet in this layer\n"
        "                layers[dst] = layer\n"
        "                queue.appendleft((layer, dst, dst_pos, slot))\n",
        "",
        ["tests/test_kernel.py"],
    ),
    (
        # An observable move whose observer step is undefined is dropped
        # instead of leading to the empty estimate.
        "sink",
        "composition.py",
        "            dst_slot = moves.get(sigma, -1)\n",
        "            dst_slot = moves.get(sigma)\n"
        "            if dst_slot is None:\n"
        "                continue\n",
        ["tests/test_composition.py"],
    ),
    (
        # Strong current-state opacity reads the infinite-step offender
        # rule: every empty-estimate state offends, not only a secret one.
        "scso-rule",
        "verification.py",
        'SCSO: _Rule(dss=True, secret_only=False, offending="secret"),',
        'SCSO: _Rule(dss=True, secret_only=False, offending="states"),',
        ["tests/test_verification.py"],
    ),
    (
        # Witness ties go to the plain string order of a predecessor's name,
        # not its natural order.
        "tie-break",
        "search.py",
        "            tie = (sort_key(pred), event_rank[event])\n",
        "            tie = (core.state(pred).name, event_rank[event])\n",
        ["tests/test_search.py"],
    ),
    (
        # The left projection of a cut transition ends where it starts.
        "left-transition",
        "composition.py",
        "        return (self.left_of(src), event, self.left_of(edge >> self.ebits))\n",
        "        return (self.left_of(src), event, self.left_of(src))\n",
        ["tests/test_enforcement.py"],
    ),
    (
        # A failed write also removes a path that existed before the call.
        "write-files",
        "cli.py",
        "                new = not os.path.lexists(path)\n",
        "                new = True\n",
        ["tests/test_cli.py"],
    ),
    (
        # The operand memo takes every model for the one it holds, so a
        # later model reads the first model's observers.
        "memo-key",
        "composition.py",
        "    if last is not None and (last[0] is nfa or last[1].acc is nfa):\n",
        "    if last is not None:\n",
        ["tests/test_operands.py"],
    ),
    (
        # A composition constructor seats the model it borrows for in the
        # operand slot, in place of the model a verifier or enforcer holds.
        "borrow-holds",
        "composition.py",
        "    return _Operands(accessible_part(nfa))\n",
        "    ops = _Operands(accessible_part(nfa))\n"
        '    globals()["_last"] = (nfa, ops)\n'
        "    return ops\n",
        ["tests/test_operands.py"],
    ),
    (
        # The kept deleted-secret-states composition ignores its seeding:
        # the one seeded by the secret initial pairs only and the one seeded
        # by every initial pair are one entry.
        "whole-seeding",
        "composition.py",
        '"siso" if secret_only else "dss"',
        '"dss"',
        ["tests/test_operands.py"],
    ),
    (
        # The kept composition answers every request, however far its stop:
        # K = 3 reads the layers that K = 1 built.
        "prefix-covers",
        "composition.py",
        "    if last <= cc._reach:\n",
        "    if cc._reach >= 0:\n",
        ["tests/test_operands.py"],
    ),
    (
        # The stop read before the loop ignores the offenders a kept prefix
        # already lists, so a request that stops within it expands it on.
        "prefix-offenders",
        "composition.py",
        "    for i in cc.empty_states._ids:  # the offenders already listed\n",
        "    for i in ():\n",
        ["tests/test_operands.py"],
    ),
    (
        # An extension grows the kept composition's lists in place, so a
        # composition handed out earlier changes under its holder.
        "prefix-shared",
        "composition.py",
        "    ids: dict[int, int] = dict(core.ids)  # key -> id, of every state found\n"
        "    keys: list[int] = list(core.keys)  # id -> key\n"
        "    out: list = list(core.out)  # id -> packed out-edges, () until expanded\n"
        "    layers: list[int] = list(cc._layer)  # id -> layer, lowered when an unobservable move finds a state sooner\n"
        "    queue: deque[tuple[int, int, int, int]] = deque(cc._queue)  # (layer, id, position, slot)\n",
        "    ids, keys, out, layers, queue = core.ids, core.keys, core.out, cc._layer, cc._queue\n",
        ["tests/test_operands.py"],
    ),
    (
        # A CLI command leaves the cyclic collector off for good.
        "collector-off",
        "cli.py",
        "                gc.enable()\n",
        "                pass\n",
        ["tests/test_cli.py"],
    ),
    (
        # A CLI command turns the cyclic collector on even when it was off
        # before the command.
        "collector-forced-on",
        "cli.py",
        "            if not self._inside and self._was_on:\n",
        "            if not self._inside:\n",
        ["tests/test_cli.py"],
    ),
]


def copy_tree(into: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def run_tests(tree: Path, files: list[str], seed: int) -> tuple[str, str]:
    """Run ``files`` in ``tree`` under ``seed``: ("passed", ""), ("failed",
    the first failing test) or ("error", why no test result was read)."""
    command = [sys.executable, "-m", "pytest", *files, "-x", "-q", "-p", "no:cacheprovider"]
    command += [f"--hypothesis-seed={seed}", "--hypothesis-profile=mutants"]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "error", f"timed out after {TIMEOUT} s"
    failed = re.search(r"^FAILED (\S+)", done.stdout, re.MULTILINE)
    if done.returncode == 0:
        return "passed", ""
    if done.returncode == 1 and failed:
        return "failed", failed.group(1)
    return "error", f"pytest exited {done.returncode}"


def timed_run(tree: Path, files: list[str], seed: int) -> tuple[str, str, float]:
    """``run_tests`` and the run's seconds."""
    began = time.perf_counter()
    return (*run_tests(tree, files, seed), time.perf_counter() - began)


def main() -> int:
    for name, module, anchor, _, _ in MUTATIONS:
        count = (ROOT / "src" / "strongopacity" / module).read_text(encoding="utf-8").count(anchor)
        if count != 1:
            print(f"{name}: its anchor occurs {count} times in {module}, not once", file=sys.stderr)
            return 2
    files = sorted({f for *_, tests in MUTATIONS for f in tests})
    start = time.perf_counter()
    # The unmutated copy first, then the table: (name, module, anchor,
    # replacement, test files), with no replacement for the unmutated copy.
    rows = [("unmutated", None, None, None, files)] + MUTATIONS
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(WORKERS) as pool:
        runs = []
        for i, (name, module, anchor, replacement, tests) in enumerate(rows):
            tree = Path(tmp) / str(i)
            copy_tree(tree)
            if module is not None:
                path = tree / "src" / "strongopacity" / module
                path.write_text(path.read_text(encoding="utf-8").replace(anchor, replacement), encoding="utf-8")
            runs.append([pool.submit(timed_run, tree, tests, seed) for seed in SEEDS])
        survivors = 0
        for (name, module, *_), futures in zip(rows, runs):
            results = [(seed, *future.result()) for seed, future in zip(SEEDS, futures)]
            seconds = sum(r[3] for r in results)
            if module is None:
                for seed, status, detail, _ in results:
                    if status != "passed":
                        print(f"unmutated copy under seed {seed}: {status} {detail}", file=sys.stderr)
                        pool.shutdown(cancel_futures=True)
                        return 2
                print(f"{'passed':8} {name:19} seeds {', '.join(map(str, SEEDS))} ({seconds:.1f} s)", flush=True)
                continue
            killed = all(status == "failed" for _, status, _, _ in results)
            survivors += not killed
            detail = "; ".join(f"seed {seed}: {status} {detail}".rstrip() for seed, status, detail, _ in results)
            print(f"{'killed' if killed else 'survived':8} {name:19} {detail} ({seconds:.1f} s)", flush=True)
    print(f"gate: {time.perf_counter() - start:.1f} s", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
