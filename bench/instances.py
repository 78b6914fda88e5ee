"""Seeded instance families for the benchmark.

The leaky-twin family starts from a random cyclic NFA, gives every secret
state a non-secret twin that mirrors its transitions (so every run has an
observational twin that visits no secret state, and the system is opaque
under every notion), then drops ``drop`` seeded twin edges to open leaks at
varying observable depths.  Plain random cyclic NFAs are a poor benchmark:
most of them already fail current-state opacity at distance 0, so the K-step
and product work is never reached.

Unobservable edges only go from a lower to a higher base state, so the
unobservable subgraph is acyclic and the brute-force oracle can certify a
horizon for every instance.  Models are plain JSON documents, so the same
instance can be rebuilt fresh by parsing its document again.
"""

from __future__ import annotations

import random

OBSERVABLE = ("a", "b", "c")
UNOBSERVABLE = ("u", "v")


def leaky_twin(
    rng: random.Random,
    n: int,
    drop: int,
    uncontrollable: tuple[str, ...],
    *,
    fully_observable: bool = False,
    secret_initial: bool = False,
    acyclic: bool = False,
) -> dict:
    """One leaky-twin model document with ``n`` base states.

    Base states have about two outgoing transitions each.  With
    ``fully_observable`` the alphabet has no unobservable event and each base
    state uses distinct events on its outgoing edges, so the base system is
    deterministic and only the twins add nondeterminism.  With ``acyclic``
    every base edge goes from a lower to a higher state, so the whole model
    is acyclic and the brute-force oracle is exact on it.
    """
    events = OBSERVABLE if fully_observable else OBSERVABLE + UNOBSERVABLE
    base: set[tuple[int, str, int]] = set()
    used: dict[int, set[str]] = {x: set() for x in range(n)}

    def add(src: int, dst: int) -> None:
        if acyclic and dst <= src:
            return
        choices = [e for e in events if e not in UNOBSERVABLE or dst > src]
        if fully_observable:
            choices = [e for e in choices if e not in used[src]]
        if choices:
            event = rng.choice(choices)
            used[src].add(event)
            base.add((src, event, dst))

    for x in range(1, n):  # a random spanning tree keeps every state reachable
        add(rng.randrange(x), x)
    while len(base) < 2 * n - 1:
        add(rng.randrange(n), rng.randrange(n))

    secret = sorted(rng.sample(range(1, n), max(1, n // 5)))
    twin = {s: n + i for i, s in enumerate(secret)}
    tw = lambda x: twin.get(x, x)
    mirrored = {(tw(x), e, tw(y)) for x, e, y in base} - base
    dropped = set(rng.sample(sorted(mirrored), min(drop, len(mirrored))))
    transitions = sorted(base | (mirrored - dropped))

    initial = {0}
    if secret_initial:
        s = rng.choice(secret)
        initial |= {s, twin[s]}
    total = n + len(secret)
    return {
        "version": 1,
        "states": [
            {"id": str(x), "initial": x in initial, "secret": x in twin}
            for x in range(total)
        ],
        "events": [
            {"name": e, "observable": e in OBSERVABLE, "controllable": e not in uncontrollable}
            for e in events
        ],
        "transitions": [
            {"from": str(x), "event": e, "to": str(y)} for x, e, y in transitions
        ],
    }


def _subset_steps(doc: dict, allowed):
    """Closure and step functions of a subset construction over the states
    ``allowed`` accepts, read straight from the document.  Empty sets are
    returned as None."""
    unobservable = {e["name"] for e in doc["events"] if not e["observable"]}
    succ: dict[str, list[tuple[str, str]]] = {}
    for t in doc["transitions"]:
        succ.setdefault(t["from"], []).append((t["event"], t["to"]))

    def close(states) -> frozenset[str] | None:
        seen = {x for x in states if allowed(x)}
        todo = list(seen)
        while todo:
            for event, y in succ.get(todo.pop(), ()):
                if event in unobservable and allowed(y) and y not in seen:
                    seen.add(y)
                    todo.append(y)
        return frozenset(seen) or None

    delta: dict = {}

    def step(q: frozenset[str], event: str) -> frozenset[str] | None:
        if (q, event) not in delta:
            delta[q, event] = close(y for x in q for e, y in succ.get(x, ()) if e == event)
        return delta[q, event]

    return succ, unobservable, close, step


def _estimates(doc: dict):
    """The estimates of the model's observer, as a subset construction
    reaches them."""
    _, unobservable, close, step = _subset_steps(doc, lambda x: True)
    observable = [e["name"] for e in doc["events"] if e["name"] not in unobservable]
    start = close(s["id"] for s in doc["states"] if s["initial"])
    seen, todo = {start}, [start]
    yield start
    while todo:
        q = todo.pop()
        for event in observable:
            q2 = step(q, event)
            if q2 is not None and q2 not in seen:
                seen.add(q2)
                todo.append(q2)
                yield q2


def observer_size(doc: dict, limit: int) -> int | None:
    """Number of estimates of the model's observer, or None past ``limit``.

    A plain subset construction over the document, independent of the
    package, so the checks do not depend on the code under test.
    """
    count = 0
    for _ in _estimates(doc):
        count += 1
        if count > limit:
            return None
    return count


def cso_leaks(doc: dict) -> bool:
    """Whether some estimate of the model's observer holds only secret
    states: current-state opacity fails, and the K-step verifiers stop
    before they build their product."""
    secret = {s["id"] for s in doc["states"] if s["secret"]}
    return any(q <= secret for q in _estimates(doc))


def dss_product_size(doc: dict, limit: int) -> int | None:
    """States of the system paired with the observer of its
    deleted-secret-states remainder, or None past ``limit``.

    This is the size of the structure the scso/siso/inf-sso verifiers build,
    computed without the package.  It is the work measure that keeps the
    instance mix of every seed alike.
    """
    secret = {s["id"] for s in doc["states"] if s["secret"]}
    succ, unobservable, close, step = _subset_steps(doc, lambda x: x not in secret)
    initial = [s["id"] for s in doc["states"] if s["initial"]]
    q0 = close(initial)
    seen = {(x, q0) for x in initial}
    todo = list(seen)
    while todo:
        x, q = todo.pop()
        for event, y in succ.get(x, ()):
            if event in unobservable or q is None:
                pair = (y, q)
            else:
                pair = (y, step(q, event))
            if pair not in seen:
                if len(seen) >= limit:
                    return None
                seen.add(pair)
                todo.append(pair)
    return len(seen)
