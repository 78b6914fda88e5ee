"""Workloads: seeded model lists, their fixed job lists, and job execution.

Every workload is a list of model documents plus a fixed list of jobs over
them.  The same seed always gives the same documents and jobs.  Library jobs
call the package's public functions; CLI jobs call ``cli.run_cli`` in process
with stdout and stderr captured.  Functions are looked up on the package at
call time, so the tracer's wrappers are the ones called in a traced pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass

from instances import cso_leaks, dss_product_size, leaky_twin

WORKLOADS = ("verify_mix", "enforce_rounds", "cli_large_models")

# Instances are sorted into buckets by the size of the system x
# deleted-secret-states observer product, a fixed number per bucket, so that
# every seed gets the same mix of small and large structures.  Without this
# the product size of a random instance spans two orders of magnitude and a
# few giants decide the whole run.  Each verify bucket also holds a fixed
# number of models that fail current-state opacity, on which the K-step
# verifiers stop early: how many of the large models do decides much of a
# run's latencies.
VERIFY_BUCKETS = ((200, 400), (400, 800), (800, 1400), (1400, 2200))
VERIFY_PER_BUCKET = 12
VERIFY_CSO_LEAKS = 3
ENFORCE_BUCKETS = ((100, 300), (300, 700), (700, 1200))
ENFORCE_PER_BUCKET = 16
CLI_MODELS = 13
GOLDEN = 0.6180339887498949

VERIFY_JOBS = (("cso", None), ("k-sso", 1), ("k-sso", 3), ("scso", None), ("siso", None), ("inf-sso", None))
ENFORCE_JOBS = (("k-sso", 1), ("k-sso", 2), ("scso", None), ("siso", None), ("inf-sso", None))
CLI_ENFORCE = (("scso",), ("inf-sso",), ("k-sso", "--k", "1"))


@dataclass(frozen=True)
class Job:
    """One call into the package.

    ``kind`` is ``verify`` or ``enforce`` for library calls, and ``cli`` for
    an in-process CLI call whose ``argv`` holds ``{model}`` and ``{out}``
    placeholders; ``out`` is the suffix of the file the call writes.
    """

    model: int
    kind: str
    notion: str = ""
    k: int | None = None
    argv: tuple[str, ...] = ()
    out: str = ""

    def describe(self) -> str:
        if self.kind == "cli":
            return f"model {self.model}: strongopacity " + " ".join(self.argv)
        k = f" K={self.k}" if self.k is not None else ""
        return f"model {self.model}: {self.kind} {self.notion}{k}"


def _bucketed(rng: random.Random, buckets, per_bucket: int, draw, tick, leaks: int = 0) -> list[dict]:
    """``per_bucket`` drawn models in each bucket, ``leaks`` of them failing
    current-state opacity, ordered so that any prefix mixes buckets.
    ``tick`` is called after every draw."""
    slots = [(i + 1) * leaks // per_bucket > i * leaks // per_bucket for i in range(per_bucket)]
    wanted = {True: leaks, False: per_bucket - leaks}
    filled: list[dict[bool, list[dict]]] = [{True: [], False: []} for _ in buckets]
    while any(len(cell[flag]) < wanted[flag] for cell in filled for flag in wanted):
        doc = draw()
        tick()
        # The product only as far as the largest bucket that still has room:
        # most draws near the end are rejected.
        open_buckets = [
            (lo, hi, cell) for (lo, hi), cell in zip(buckets, filled)
            if any(len(cell[flag]) < wanted[flag] for flag in wanted)
        ]
        size = dss_product_size(doc, max(hi for _, hi, _ in open_buckets))
        for lo, hi, cell in open_buckets:
            if size is not None and lo <= size < hi:
                flag = leaks > 0 and cso_leaks(doc)
                if len(cell[flag]) < wanted[flag]:
                    cell[flag].append(doc)
    columns = []
    for cell in filled:
        taken = {flag: iter(docs) for flag, docs in cell.items()}
        columns.append([next(taken[flag]) for flag in slots])
    return [column[i] for i in range(per_bucket) for column in columns]


def _verify_models(rng: random.Random, tick) -> list[dict]:
    return _bucketed(
        rng,
        VERIFY_BUCKETS,
        VERIFY_PER_BUCKET,
        lambda: leaky_twin(
            rng, rng.randint(20, 60), rng.randint(0, 6), ("c",), secret_initial=rng.random() < 0.3
        ),
        tick,
        VERIFY_CSO_LEAKS,
    )


def _enforce_models(rng: random.Random, tick) -> list[dict]:
    return _bucketed(
        rng,
        ENFORCE_BUCKETS,
        ENFORCE_PER_BUCKET,
        lambda: leaky_twin(
            rng,
            rng.randint(15, 45),
            rng.randint(2, 10),
            rng.choice((("c",), ("c", "v"))),
            secret_initial=rng.random() < 0.3,
        ),
        tick,
    )


def _cli_models(rng: random.Random, count: int, lo: int, hi: int) -> list[dict]:
    # Fully observable with a single initial state, so the observer stays
    # near one estimate per state; README.md says what either change does.
    # Sizes follow a golden-ratio sequence over [lo, hi), so any prefix of
    # the model list mixes small and large models.
    return [
        leaky_twin(
            rng,
            (lo + int((hi - lo) * (i * GOLDEN % 1.0))) * 5 // 6,
            rng.randint(2, 12),
            ("c",),
            fully_observable=True,
        )
        for i in range(count)
    ]


def _library_jobs(count: int, kind: str, spec) -> list[Job]:
    return [Job(i, kind, notion, k) for i in range(count) for notion, k in spec]


def _cli_jobs(count: int) -> list[Job]:
    jobs = []
    for i in range(count):
        for argv, out in (
            (("verify", "--notion", "cso", "{model}"), ""),
            (("verify", "--notion", "k-sso", "--k", "2", "{model}"), ""),
            (("verify", "--notion", "scso", "{model}"), ""),
            (("verify", "--notion", "inf-sso", "{model}"), ""),
            (("enforce", "--notion") + CLI_ENFORCE[i % len(CLI_ENFORCE)] + ("{model}", "--out", "{out}"), ".json"),
            (("export", "--structure", "observer", "{model}", "--out", "{out}"), ".dot"),
            (("export", "--structure", "cc-dss", "{model}", "--out", "{out}"), ".dot"),
            (("bound", "{model}"), ""),
        ):
            jobs.append(Job(i, "cli", argv=argv, out=out))
    return jobs


def build(workload: str, seed: int, tick=lambda: None) -> tuple[list[dict], list[Job]]:
    """The model documents and the fixed job list of one workload and seed.
    ``tick`` is called between drawn models, so a speed gauge can sample."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_mix":
        docs = _verify_models(rng, tick)
        return docs, _library_jobs(len(docs), "verify", VERIFY_JOBS)
    if workload == "enforce_rounds":
        docs = _enforce_models(rng, tick)
        return docs, _library_jobs(len(docs), "enforce", ENFORCE_JOBS)
    if workload == "cli_large_models":
        docs = _cli_models(rng, CLI_MODELS, 800, 1600)  # states, twins included
        return docs, _cli_jobs(len(docs))
    raise ValueError(f"unknown workload: {workload}")


def build_warmup(workload: str, seed: int) -> tuple[list[dict], list[Job]]:
    """A small instance from a separate seed stream that runs every job kind
    of the workload once, so warm-up never touches a timed instance."""
    rng = random.Random(f"{workload}:warmup:{seed}")
    if workload == "verify_mix":
        doc = leaky_twin(rng, 15, 2, ("c",), secret_initial=True)
        return [doc], _library_jobs(1, "verify", VERIFY_JOBS)
    if workload == "enforce_rounds":
        doc = leaky_twin(rng, 12, 3, ("c",), secret_initial=True)
        return [doc], _library_jobs(1, "enforce", ENFORCE_JOBS)
    docs = _cli_models(rng, 1, 120, 120)
    return docs, _cli_jobs(1)


def run_job(so, job: Job, instance, model_path: str, out_path: str):
    """Run one job and return its raw output (not yet checked)."""
    if job.kind == "verify":
        if job.notion == "k-sso":
            return so.verify_k_sso(instance, job.k)
        return getattr(so, "verify_" + job.notion.replace("-", "_"))(instance)
    if job.kind == "enforce":
        if job.notion == "k-sso":
            return so.enforce_k_sso(instance, job.k)
        return getattr(so, "enforce_" + job.notion.replace("-", "_"))(instance)
    argv = [a.replace("{model}", model_path).replace("{out}", out_path) for a in job.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = so.cli.run_cli(argv)
    return code, stdout.getvalue()


def format_run(run) -> str:
    """A run in the CLI's witness notation."""
    return run.start + "".join(f" -({event})-> {target}" for event, target in run.steps)


def state_key(text: str):
    return (len(text), text)  # numeric order for the digit-string ids the generator emits


def transition_lines(transitions) -> list[str]:
    ordered = sorted(transitions, key=lambda t: (state_key(t[0]), t[1], state_key(t[2])))
    return [f"{src} -{event}-> {dst}" for src, event, dst in ordered]


def signature(job: Job, output, out_bytes: bytes | None) -> str:
    """The job's observable result as text: what a recorded run must match."""
    if job.kind == "verify":
        if output.opaque:
            return "OPAQUE\n"
        return f"NOT OPAQUE\nwitness: {format_run(output.witness)}\n"
    if job.kind == "enforce":
        if hasattr(output, "disabled"):
            return "ENFORCED\n" + "".join(line + "\n" for line in transition_lines(output.disabled))
        return f"IMPOSSIBLE\nwitness: {format_run(output.witness)}\n"
    code, stdout = output
    text = f"exit {code}\n{stdout}"
    if out_bytes is not None:
        text += f"file {hashlib.sha256(out_bytes).hexdigest()[:16]}\n"
    return text


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:10]
