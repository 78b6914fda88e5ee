"""Record the expected output of every job for the default seeds.

    python3 bench/record.py

Runs one pass of every workload for each of the seeds 0-20 on the code in
``src/``, applies the same independent checks as ``run.py``, and
cross-checks every verdict (the ``verify_mix`` verdicts and the CLI
``verify`` verdicts of ``cli_large_models``) against the brute-force oracle
of the matching notion wherever ``oracle.certified_horizon`` certifies the
instance.  Any failed check or disagreement stops the recording.  The
digests of the job signatures go to ``expected.json``, which ``run.py``
compares against.

Direction of the oracle comparison (the oracle is bounded by a run-length
cap): an oracle violation is always real, so an opaque verdict must have an
opaque oracle answer; a leak whose witness starts at an initial state and
lies within the certified horizon must be found by the oracle too.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import run
import workloads

ORACLE_CAP = 8
SEEDS = range(21)


def verdict_of(job) -> tuple[str, int | None] | None:
    """The notion and K of a job that gives a verdict."""
    if job.kind == "verify":
        return job.notion, job.k
    if job.argv[:1] == ("verify",):
        notion = job.argv[2]
        return notion, int(job.argv[4]) if notion == "k-sso" else None
    return None


def oracle_agrees(so, doc: dict, notion: str, k: int | None, text: str) -> str | None:
    from strongopacity import oracle
    from strongopacity.errors import OracleUnsound

    nfa = so.accessible_part(so.parse_model(json.dumps(doc)))
    try:
        horizon = oracle.certified_horizon(nfa, ORACLE_CAP)
    except OracleUnsound:
        return None
    if notion in ("cso", "k-sso"):
        slow = oracle.oracle_k_sso(nfa, k or 0, ORACLE_CAP)
    else:
        slow = getattr(oracle, "oracle_" + notion.replace("-", "_"))(nfa, ORACLE_CAP)
    if text.startswith("OPAQUE"):
        return None if slow else "oracle finds a leak the verifier missed"
    start, steps = checks.parse_run(text.splitlines()[1][len("witness: ") :])
    if notion == "k-sso" and start.startswith("("):
        return None  # the witness starts after the secret visit; its full length is unknown
    model = checks.Model(doc)
    left = (lambda e: e) if start.startswith("{") else (lambda e: e[1 : e.index(",")])
    leak = sum(1 for event, _ in steps if left(event) in model.observable)
    if (horizon is None or leak <= horizon) and slow:
        return f"oracle misses a leak of observable length {leak} (horizon {horizon})"
    return None


def main() -> int:
    so = run.import_package()
    recorded: dict[str, dict[str, str]] = {}
    for workload in workloads.WORKLOADS:
        recorded[workload] = {}
        for seed in SEEDS:
            space = run.Workspace(workload, seed)
            try:
                docs, jobs = workloads.build(workload, seed)
                paths = space.write_models(docs, "m")
                result = run.Pass(so, jobs, run.fresh_instances(so, jobs, paths), paths, space, float("inf"))
            finally:
                space.remove()
            problems, signatures = run.check_pass(so, docs, jobs, result, None)
            for index, job in enumerate(jobs):
                verdict = verdict_of(job)
                if verdict is not None and index not in problems:
                    text = signatures[index]
                    if job.kind == "cli":
                        text = text.split("\n", 1)[1]  # drop the "exit N" line
                    problem = oracle_agrees(so, docs[job.model], *verdict, text)
                    if problem is not None:
                        problems[index] = problem
            for index, problem in sorted(problems.items()):
                print(f"FAIL {workload} seed {seed} job {index} ({jobs[index].describe()}): {problem}", file=sys.stderr)
            if problems:
                return 1
            recorded[workload][str(seed)] = " ".join(workloads.digest(text) for text in signatures)
            print(f"{workload} seed {seed}: {len(jobs)} jobs recorded", file=sys.stderr)
    tmp = run.EXPECTED + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=2)
        handle.write("\n")
    os.replace(tmp, run.EXPECTED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
