"""Random-instance generator for the cross-check suites.

Instances are acyclic by construction (edges only go from lower to higher
state index), which makes the brute-force oracles provably exhaustive at
cap = |states|: no run can be longer than |states| - 1 transitions.
"""

import random

from strongopacity import Event, Nfa, accessible_part

EVENT_NAMES = ("a", "b", "c", "d")


def random_dag_nfa(
    rng: random.Random,
    max_states: int = 6,
    max_events: int = 4,
    secret_bias: float = 0.35,
) -> Nfa:
    while True:
        n = rng.randint(2, max_states)
        m = rng.randint(1, max_events)
        names = EVENT_NAMES[:m]
        alphabet = tuple(
            Event(
                name,
                observable=rng.random() < 0.7,
                controllable=rng.random() < 0.6,
            )
            for name in names
        )
        states = [str(i) for i in range(n)]
        transitions = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    transitions.add((states[i], rng.choice(names), states[j]))
                    if rng.random() < 0.2:
                        transitions.add((states[i], rng.choice(names), states[j]))
        initial = {states[0]}
        if n > 1 and rng.random() < 0.35:
            initial.add(states[1])
        secret = {x for x in states if rng.random() < secret_bias}
        nfa = accessible_part(
            Nfa(
                states=frozenset(states),
                alphabet=alphabet,
                transitions=frozenset(transitions),
                initial=frozenset(initial),
                secret=frozenset(secret),
            )
        )
        if len(nfa.states) >= 2 and nfa.transitions:
            return nfa


def corpus(seed: int, count: int, **kwargs) -> list[Nfa]:
    rng = random.Random(seed)
    return [random_dag_nfa(rng, **kwargs) for _ in range(count)]


GOLDEN_EVENTS = (("a", True), ("b", True), ("u", False), ("v", False))


def random_cyclic_nfa(rng: random.Random) -> Nfa:
    """A cyclic NFA of 6-14 states whose unobservable edges only go forward.

    Observable edges may go backward or loop, so runs are unbounded, but the
    unobservable subgraph stays acyclic (as the oracle's certification needs).
    Up to two initial states, so initial-state opacity is not trivial.
    """
    while True:
        n = rng.randint(6, 14)
        secret_bias = rng.uniform(0.1, 0.3)
        alphabet = tuple(
            Event(name, observable=observable, controllable=rng.random() < 0.6)
            for name, observable in GOLDEN_EVENTS
            if observable or rng.random() < 0.7
        )
        observable = [e.name for e in alphabet if e.observable]
        unobservable = [e.name for e in alphabet if not e.observable]
        states = [str(i) for i in range(n)]
        transitions = set()
        for i in range(n):
            for _ in range(rng.randint(1, 2)):
                transitions.add((states[i], rng.choice(observable), states[rng.randrange(n)]))
            if unobservable and i + 1 < n and rng.random() < 0.35:
                j = rng.randint(i + 1, min(n - 1, i + 3))
                transitions.add((states[i], rng.choice(unobservable), states[j]))
        initial = {states[0]}
        if rng.random() < 0.4:
            initial.add(states[rng.randrange(1, n)])
        nfa = accessible_part(
            Nfa(
                states=frozenset(states),
                alphabet=alphabet,
                transitions=frozenset(transitions),
                initial=frozenset(initial),
                secret=frozenset(x for x in states if rng.random() < secret_bias),
            )
        )
        if len(nfa.states) >= 6 and nfa.secret:
            return nfa
