"""Threads that call every verifier, enforcer and composition constructor on
their models get the answers that serial calls get.

The composition module's one slot holds the operands of the last model a
verifier, an enforcer or the K bound was called on (``composition._operands``),
and the composition constructors borrow them (``composition._borrowed``):
threads that share one model share its bundle, with the composition of
each kind built furthest so far, which they race to extend (K = 3 goes on
from K = 1's layers, inf-sso reads scso's prefix), and threads with their
own models replace each other's in the slot, or build a bundle the slot
never holds. Standard library only, so it also runs on an interpreter
without pytest::

    PYTHONPATH=src python3 tests/thread_check.py

It prints one line and exits 1 when a threaded answer differs or a call
raises. ``tests/test_operands.py`` runs the same check.
"""

import gc
import random
import sys
import threading

from strongopacity import (
    cc_dss,
    cc_full_observer,
    cc_hat,
    effective_k_bound,
    enforce_inf_sso,
    enforce_k_sso,
    enforce_scso,
    enforce_siso,
    verify_cso,
    verify_inf_sso,
    verify_k_sso,
    verify_scso,
    verify_siso,
)

from corpus import random_cyclic_nfa


# Every door that reads a model's operands, by name, each answering a
# comparable value.
CALLS = {
    "verify_cso": verify_cso,
    "verify_k_sso(0)": lambda nfa: verify_k_sso(nfa, 0),
    "verify_k_sso(1)": lambda nfa: verify_k_sso(nfa, 1),
    "verify_k_sso(2)": lambda nfa: verify_k_sso(nfa, 2),
    "verify_k_sso(3)": lambda nfa: verify_k_sso(nfa, 3),
    "verify_scso": verify_scso,
    "verify_siso": verify_siso,
    "verify_inf_sso": verify_inf_sso,
    "enforce_k_sso(0)": lambda nfa: enforce_k_sso(nfa, 0),
    "enforce_k_sso(2)": lambda nfa: enforce_k_sso(nfa, 2),
    "enforce_scso": enforce_scso,
    "enforce_siso": enforce_siso,
    "enforce_inf_sso": enforce_inf_sso,
    "cc_hat": lambda nfa: cc_hat(nfa).sorted_transitions(),
    "cc_dss": lambda nfa: cc_dss(nfa).sorted_transitions(),
    "cc_dss(secret_only)": lambda nfa: cc_dss(nfa, secret_only=True).sorted_transitions(),
    "cc_full_observer": lambda nfa: cc_full_observer(nfa).sorted_transitions(),
    "effective_k_bound": effective_k_bound,
}


def answers(nfa) -> dict:
    return {name: call(nfa) for name, call in CALLS.items()}


def threaded_mismatches(models: list, rounds: int, timeout: float = 120) -> list[str]:
    """Run one thread per entry of ``models`` (a model may be listed twice,
    so that two threads share it), each calling every entry of ``CALLS``
    ``rounds`` times, starting one name later each round. Returns a line
    for each answer that differs from the serial one, each call that
    raised and each thread still running after ``timeout`` seconds, and
    one if the cyclic collector is off once they have joined."""
    serial = [answers(nfa) for nfa in models]
    names = list(CALLS)
    problems: list[str] = []

    def work(i: int) -> None:
        for r in range(rounds):
            for name in names[r % len(names):] + names[: r % len(names)]:
                try:
                    if CALLS[name](models[i]) != serial[i][name]:
                        problems.append(f"thread {i}, round {r}: {name} answered differently")
                except Exception as exc:  # reported, not lost in the thread
                    problems.append(f"thread {i}, round {r}: {name} raised {exc!r}")

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(models))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so calls interleave
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    problems += [f"thread {i} did not finish" for i, thread in enumerate(threads) if thread.is_alive()]
    if not gc.isenabled():  # the library leaves the cyclic collector alone
        problems.append("the cyclic collector is off after the threads joined")
    return problems


def check(seed: int = 0, rounds: int = 100) -> tuple[int, list[str]]:
    """The calls made and the problems found by four threads on two
    models, two threads on each."""
    rng = random.Random(seed)
    models = [random_cyclic_nfa(rng), random_cyclic_nfa(rng)] * 2
    return len(models) * rounds * len(CALLS), threaded_mismatches(models, rounds)


def main() -> int:
    calls, problems = check()
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"python {version}: {calls} threaded calls, {len(problems)} problems")
    for line in problems[:10]:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
