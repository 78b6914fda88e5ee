"""Seeded end-to-end and per-layer benchmark of the strongopacity package.

    python3 bench/run.py --workload verify_mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout and nowhere else.  One closed-loop caller in one process and
one thread runs the workload's fixed job list: the next job starts when the
previous one has finished.  The first pass runs the whole list; further
passes, each on instances parsed afresh from their model documents, fill the
rest of ``--seconds``, the last one stopping part way.  Every output is checked, and
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of one traced pass with ``--trace 1``.  End-to-end timings
are scaled to the reference speed of ``gauge.Gauge``.  See README.md.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import gauge  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from instances import leaky_twin  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
EXPECTED = os.path.join(HERE, "expected.json")

# A job running longer than JOB_LIMIT_S is stopped and counts as failed.
# Jobs not started, and outputs not checked, by the two run limits (seconds
# after process start) count as failed too, so a run always ends in time.
JOB_LIMIT_S = 20
RUN_LIMIT_S = 120
CHECK_LIMIT_S = 165
SETUP_REPEATS = 5
SMALL_ENFORCE_INSTANCES = 6
SMALL_ENFORCE_CHOICES = 10


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_LIMIT_S} s")


def import_package():
    """The package from this checkout's ``src/``; an installed copy elsewhere
    must not stand in for a missing one."""
    init = os.path.join(SRC, "strongopacity", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import strongopacity
    import strongopacity.cli  # noqa: F401  (CLI jobs reach it as strongopacity.cli)

    if os.path.realpath(strongopacity.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: imported {strongopacity.__file__}, not {init}")
    return strongopacity


class Workspace:
    """Model files and job outputs of one run, under the checkout's work dir."""

    def __init__(self, workload: str, seed: int):
        self.dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")

    def write_models(self, docs: list[dict], prefix: str) -> list[str]:
        os.makedirs(self.dir, exist_ok=True)
        paths = []
        for i, doc in enumerate(docs):
            path = os.path.join(self.dir, f"{prefix}{i}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            paths.append(path)
        return paths

    def out_path(self, index: int, job) -> str:
        return os.path.join(self.dir, f"out{index}{job.out}") if job.out else ""

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def fresh_instances(so, jobs, paths: list[str]) -> list:
    """New objects for every model, so no cached index carries over."""
    if jobs and jobs[0].kind == "cli":
        return [None] * len(paths)
    instances = []
    for path in paths:
        with open(path, "rb") as handle:
            instances.append(so.parse_model(handle.read()))
    return instances


class Pass:
    """One pass over a job list: latencies, raw outputs and written files.

    Jobs not started by ``deadline`` count as failed.  At ``stop_at`` the
    pass ends early, and the jobs it did not reach are not attempted.  With
    a ``speed`` gauge, it samples the machine's speed between jobs.
    """

    def __init__(
        self, so, jobs, instances, paths, space: Workspace, deadline: float,
        tracer=None, stop_at=float("inf"), speed: gauge.Gauge | None = None,
    ):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.outputs: list = []
        gc.collect()
        start = time.perf_counter()
        for index, job in enumerate(jobs):
            if time.perf_counter() >= stop_at:
                break
            if tracer is not None:
                tracer.job = index
            if speed is not None:
                speed.tick()
            if time.perf_counter() > deadline:
                self.starts.append(time.perf_counter())
                self.latencies.append(JOB_LIMIT_S)
                self.outputs.append(JobTimeout("run time limit reached before the job started"))
                continue
            began = time.perf_counter()
            self.starts.append(began)
            signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
            try:
                output = workloads.run_job(so, job, instances[job.model], paths[job.model], space.out_path(index, job))
            except Exception as exc:  # the failure is counted; the benchmark goes on
                output = exc
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self.latencies.append(time.perf_counter() - began)
            self.outputs.append(output)
        self.wall = time.perf_counter() - start
        self.files: list[bytes | None] = []
        for index, job in enumerate(jobs[: len(self.outputs)]):
            path = space.out_path(index, job)
            if path and os.path.exists(path):
                with open(path, "rb") as handle:
                    self.files.append(handle.read())
                os.remove(path)
            else:
                self.files.append(None)
        self._texts: list[str | None] | None = None

    def scaled(self, speed: gauge.Gauge) -> list[float]:
        """Job latencies at the gauge's reference speed."""
        return [lat * speed.scale(start + lat / 2) for start, lat in zip(self.starts, self.latencies)]

    def signatures(self, jobs) -> list[str | None]:
        """Each job's output as text, None where the job raised."""
        if self._texts is None:
            self._texts = [
                None if isinstance(output, Exception) else workloads.signature(job, output, data)
                for job, output, data in zip(jobs, self.outputs, self.files)
            ]
        return self._texts

    def drop_outputs(self, jobs) -> None:
        self.signatures(jobs)
        self.outputs = self.files = None


def load_expected(workload: str, seed: int) -> list[str] | None:
    """Digests of the recorded job outputs for this seed, if it was recorded."""
    with open(EXPECTED, encoding="utf-8") as handle:
        recorded = json.load(handle)[workload].get(str(seed))
    return None if recorded is None else recorded.split()


def check_job(so, m: checks.Model, job, output, data, verdicts: dict) -> tuple[str, str | None]:
    """The job's signature and its problem, if any.  Verify verdicts are
    added to ``verdicts`` for the implication check."""
    text = workloads.signature(job, output, data)
    notion, k, subsystem = job.notion, job.k, None
    if job.kind == "verify":
        problem = checks.check_verdict(m, notion, k, text)
        verdicts[notion, k] = output.opaque
    elif job.kind == "enforce":
        if hasattr(output, "subsystem"):
            subsystem = checks.nfa_document(output.subsystem)
        problem = checks.check_enforcement(m, text, subsystem)
    else:
        problem, verdict, subsystem = checks.check_cli(m, job.argv, output[0], output[1], data)
        if verdict is not None:
            verdicts[verdict[:2]] = verdict[2]
        if subsystem is not None:
            notion = job.argv[2]
            k = int(job.argv[4]) if notion == "k-sso" else None
    if problem is None and subsystem is not None:
        check = workloads.Job(job.model, "verify", notion, k)
        if not workloads.run_job(so, check, so.parse_model(json.dumps(subsystem)), "", "").opaque:
            problem = f"enforced subsystem fails verify {notion}"
    return text, problem


def check_pass(
    so, docs, jobs, run: Pass, expected: list[str] | None, deadline: float = float("inf")
) -> tuple[dict[int, str], list[str | None]]:
    """The problem of every failed job, by job index, and every job's
    signature.  Outputs not checked by ``deadline`` count as failed."""
    models = [checks.Model(doc) for doc in docs]
    problems: dict[int, str] = {}
    signatures: list[str | None] = []
    verdicts: dict[int, dict] = {}
    for index, (job, output, data) in enumerate(zip(jobs, run.outputs, run.files)):
        text = problem = None
        if isinstance(output, Exception):
            problem = f"raised {output!r}"
        elif time.perf_counter() > deadline:
            problem = "not checked before the run time limit"
        else:
            try:
                text, problem = check_job(so, models[job.model], job, output, data, verdicts.setdefault(job.model, {}))
            except Exception as exc:  # an output the checks cannot read is a failed job
                problem = f"output could not be checked: {exc!r}"
            if text is not None and expected is not None and expected[index : index + 1] != [workloads.digest(text)]:
                problem = problem or "output differs from the recorded output"
        signatures.append(text)
        if problem is not None:
            problems[index] = problem
    for model, found in verdicts.items():
        problem = checks.check_implications(found)
        if problem is not None:
            for index, job in enumerate(jobs):
                if job.model == model:
                    problems.setdefault(index, problem)
    return problems, signatures


def small_enforcement(so, seed: int) -> tuple[dict[str, float], list[str]]:
    """Frontier cut size against the minimum cut on instances small enough
    for the exhaustive ``oracle_enforceable`` search (acyclic, so its
    horizon is certified, with few controllable transitions)."""
    from strongopacity.oracle import oracle_enforceable

    rng = random.Random(f"enforce_rounds:small:{seed}")
    frontier = minimum = 0
    problems: list[str] = []
    done = 0
    while done < SMALL_ENFORCE_INSTANCES:
        doc = leaky_twin(rng, rng.randint(5, 8), rng.randint(1, 3), ("c",), acyclic=True, secret_initial=rng.random() < 0.3)
        controllable = sum(1 for t in doc["transitions"] if t["event"] != "c")
        if controllable > SMALL_ENFORCE_CHOICES:
            continue
        done += 1
        nfa = so.parse_model(json.dumps(doc))
        for notion, k in workloads.ENFORCE_JOBS:
            outcome = workloads.run_job(so, workloads.Job(0, "enforce", notion, k), nfa, "", "")
            best = oracle_enforceable(nfa, notion, cap=len(nfa.states), k=k)
            enforced = hasattr(outcome, "disabled")
            if enforced != (best is not None):
                problems.append(f"small instance {done}, {notion}: enforcement and exhaustive search disagree")
            elif enforced:
                frontier += len(outcome.disabled)
                minimum += len(best)
    values = {
        "enforcement.cut_over_min": frontier / minimum if minimum else 1.0,
        "enforcement.small_frontier_cut": frontier,
        "enforcement.small_min_cut": minimum,
    }
    return values, problems


def timing_metrics(correct: int, latencies: list[tuple[bool, float]], setup_s: float) -> dict:
    """The timing metrics from each job's (failed, latency) and set-up time.
    A failed job counts as missing any latency limit."""
    limited = [max(lat, JOB_LIMIT_S) if bad else lat for bad, lat in latencies]
    return {
        "jobs_per_s": {"value": correct / sum(lat for _, lat in latencies), "unit": "jobs/s"},
        "job_p50_ms": {"value": statistics.median(limited) * 1e3, "unit": "ms"},
        "job_p90_ms": {"value": statistics.quantiles(limited, n=10, method="inclusive")[8] * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    so = import_package()
    import_s = time.perf_counter() - PROCESS_START
    signal.signal(signal.SIGALRM, _alarm)
    space = Workspace(args.workload, args.seed)
    expected = load_expected(args.workload, args.seed)
    try:
        # Every timing is scaled to the reference speed of the gauge, which
        # samples during set-up and between jobs.
        speed = gauge.Gauge()
        # Set-up runs several times and its median counts; the last round's
        # parsed instances are the fresh ones the first pass uses.
        rounds = []
        for _ in range(SETUP_REPEATS):
            # The previous round's objects go first, so the repeats do not
            # add to peak_rss_mb.
            docs = jobs = paths = instances = None
            gc.collect()
            speed.sample()
            began = time.perf_counter()
            docs, jobs = workloads.build(args.workload, args.seed, speed.tick)
            paths = space.write_models(docs, "m")
            instances = fresh_instances(so, jobs, paths)
            warm_docs, warm_jobs = workloads.build_warmup(args.workload, args.seed)
            warm_paths = space.write_models(warm_docs, "w")
            Pass(so, warm_jobs, fresh_instances(so, warm_jobs, warm_paths), warm_paths, space, float("inf"), speed=speed)
            rounds.append((began, time.perf_counter()))
            speed.sample()
        raw_setup_s = import_s + statistics.median(speed.unscaled(*r) for r in rounds)
        setup_s = import_s * speed.scale(PROCESS_START) + statistics.median(speed.scaled(*r) for r in rounds)

        deadline = PROCESS_START + RUN_LIMIT_S
        stop_at = time.perf_counter() + args.seconds
        passes = [Pass(so, jobs, instances, paths, space, deadline, speed=speed)]
        # Read before later passes, whose count depends on the machine's speed.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(so)
            instances = fresh_instances(so, jobs, paths)
            tracer.install()
            try:
                passes.append(Pass(so, jobs, instances, paths, space, deadline, tracer, speed=speed))
            finally:
                tracer.uninstall()
            speed.sample(gauge.NEAREST // 2 + 1)
        else:
            # The first pass is always whole; later ones fill the rest of
            # --seconds, and the last of them may stop part way.  Models are
            # ordered so that any prefix of the job list mixes small and
            # large ones.
            while time.perf_counter() < stop_at:
                instances = fresh_instances(so, jobs, paths)
                passes.append(Pass(so, jobs, instances, paths, space, deadline, stop_at=stop_at, speed=speed))
                passes[-1].drop_outputs(jobs)  # later passes keep only their text, so memory does not grow per pass
            del instances
            speed.sample(gauge.NEAREST // 2 + 1)

        problems, first = check_pass(so, docs, jobs, passes[0], expected, PROCESS_START + CHECK_LIMIT_S)
        failed = [set(problems)]
        for later in passes[1:]:
            failed.append({index for index in problems if index < len(later.latencies)})
            for index, text in enumerate(later.signatures(jobs)):
                if text is None or text != first[index]:
                    failed[-1].add(index)
                    problems.setdefault(index, "output differs between passes")
        attempted = sum(len(p.latencies) for p in passes)
        failures = sum(len(f) for f in failed)

        if args.trace:
            untraced, traced = passes
            enforce_jobs = [
                (job, output) for job, output in zip(jobs, traced.outputs)
                if job.kind == "enforce" or job.argv[:1] == ("enforce",)
            ]
            impossible = sum(
                1 for job, output in enforce_jobs
                if (output[0] == 1 if job.kind == "cli" else not hasattr(output, "disabled"))
            )
            extra = {
                "enforcement.impossible_ratio": impossible / len(enforce_jobs) if enforce_jobs else 0.0,
                "enforcement.cut_over_min": 0.0,
                "enforcement.small_frontier_cut": 0,
                "enforcement.small_min_cut": 0,
                "trace.overhead_ratio": sum(traced.scaled(speed)) / sum(untraced.scaled(speed)),
            }
            if args.workload == "enforce_rounds":
                small, small_problems = small_enforcement(so, args.seed)
                extra.update(small)
                for problem in small_problems:
                    print(f"FAIL {problem}", file=sys.stderr)
                failures = min(failures + len(small_problems), attempted)
            metrics, missing = tracing.report(tracer, args.workload, tracing.layer_metrics(tracer, extra))
            for line in missing:
                print(f"missing: {line}", file=sys.stderr)
            os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
            tracer.write(os.path.join(WORK, "spans", f"{args.workload}-{args.seed}.jsonl"))
        else:
            timed = [
                (index in bad, lat, scaled)
                for p, bad in zip(passes, failed) for index, (lat, scaled) in enumerate(zip(p.latencies, p.scaled(speed)))
            ]
            raw = timing_metrics(attempted - failures, [(bad, lat) for bad, lat, _ in timed], raw_setup_s)
            metrics = timing_metrics(attempted - failures, [(bad, lat) for bad, _, lat in timed], setup_s)
            metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
            metrics["correct_ratio"] = {"value": (attempted - failures) / attempted, "unit": "ratio"}
            print(
                f"{args.workload} seed {args.seed}: {len(passes)} pass(es) of {len(jobs)} jobs, "
                f"{sum(p.wall for p in passes):.2f} s measured, fail_ratio {failures / attempted}",
                file=sys.stderr,
            )
            unscaled = {name: m["value"] for name, m in raw.items()}
            unscaled["gauge_median_ms"] = statistics.median(speed.durations) * 1e3
            print("unscaled: " + json.dumps(unscaled), file=sys.stderr)
        for index, problem in sorted(problems.items())[:20]:
            print(f"FAIL job {index} ({jobs[index].describe()}): {problem}", file=sys.stderr)
        if expected is None:
            print(f"note: no recorded outputs for seed {args.seed}; independent checks only", file=sys.stderr)
        print(json.dumps({"correct": failures == 0, "attempted": attempted, "failed": failures, "metrics": metrics}))
        return 0
    finally:
        space.remove()


if __name__ == "__main__":
    sys.exit(main())
