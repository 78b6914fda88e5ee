"""Brute-force ground truth: the opacity definitions evaluated literally over
bounded run enumerations, plus exhaustive enforcement search.

This module deliberately shares nothing with the observer/composition layers
(only the automaton core), so its answers are an independent check on them.

A bounded enumeration can only be trusted where it is provably exhaustive.
The certification used here: the unobservable-transition subgraph must be
acyclic (otherwise OracleUnsound); if the whole transition graph is acyclic
and the cap covers the longest possible run, enumeration is complete and the
oracle is exact; otherwise any run of observable length m has at most
m + (m+1)*M transitions, M being the longest unobservable chain, so the oracle
is exact for violations whose total observable length fits the largest m the
cap affords (and raises OracleUnsound when even m = 0 does not fit). Matching
runs share the violating run's projection, hence its observable length, and
are therefore always inside the certified horizon.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .automaton import (
    Nfa,
    Run,
    Transition,
    _check_k,
    accessible_part,
    disable_transitions,
    natural_key,
    natural_projection,
)
from .errors import OracleUnsound, TooLarge

MAX_ENFORCEMENT_CHOICES = 15


@dataclass(frozen=True)
class BoundedRunSet:
    """Every run of an automaton with at most ``cap`` transitions, each once."""

    runs: tuple[Run, ...]
    cap: int

    @classmethod
    def enumerate(cls, nfa: Nfa, cap: int) -> "BoundedRunSet":
        _check_k(cap, "cap")
        runs: list[Run] = []
        stack = [Run(start=x) for x in nfa.initial]
        while stack:
            run = stack.pop()
            runs.append(run)
            if len(run.steps) >= cap:
                continue
            for event, dst in nfa.by_source.get(run.end, ()):
                stack.append(Run(start=run.start, steps=run.steps + ((event, dst),)))
        return cls(runs=tuple(runs), cap=cap)


def _unobservable_edges(nfa: Nfa) -> list[tuple[str, str]]:
    unobs = nfa.unobservable_events
    return [(src, dst) for src, event, dst in nfa.transitions if event in unobs]


def _topological_order(states: Iterable[str], edges: list[tuple[str, str]]) -> list[str] | None:
    """The states with every edge going forward (Kahn's algorithm), or None
    when the edges form a cycle. Iterative, so chains of any length work."""
    states = set(states)
    adjacency: dict[str, list[str]] = {}
    indegree = dict.fromkeys(states, 0)
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
        indegree[dst] += 1
    order = [x for x, n in indegree.items() if n == 0]
    for x in order:  # grows while it is walked
        for y in adjacency.get(x, ()):
            indegree[y] -= 1
            if indegree[y] == 0:
                order.append(y)
    return order if len(order) == len(states) else None


def _longest_chain(states: Iterable[str], edges: list[tuple[str, str]]) -> int:
    """Longest path length (in edges) of an acyclic edge set."""
    adjacency: dict[str, list[str]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
    depth: dict[str, int] = {}
    for x in reversed(_topological_order(states, edges)):
        depth[x] = max((1 + depth[y] for y in adjacency.get(x, ())), default=0)
    return max(depth.values(), default=0)


def certified_horizon(nfa: Nfa, cap: int) -> Optional[int]:
    """The observable-length horizon the cap provably covers.

    None means the enumeration is complete (every run of the automaton has at
    most ``cap`` transitions), so no horizon restriction applies at all. A
    cap that is not a non-negative int is a ``ValueError``.
    """
    _check_k(cap, "cap")
    unobs = _unobservable_edges(nfa)
    if _topological_order(nfa.states, unobs) is None:
        raise OracleUnsound("unobservable transition cycle; bounded enumeration undecidable")
    all_edges = [(src, dst) for src, _, dst in nfa.transitions]
    if _topological_order(nfa.states, all_edges) is not None and cap >= max(len(nfa.states) - 1, 0):
        return None
    chain = _longest_chain(nfa.states, unobs)
    horizon = None
    m = 0
    while m + (m + 1) * chain <= cap:
        horizon = m
        m += 1
    if horizon is None:
        raise OracleUnsound(f"cap {cap} covers no observable horizon (chain {chain})")
    return horizon


def _prepared(nfa: Nfa, cap: int):
    acc = accessible_part(nfa)
    horizon = certified_horizon(acc, cap)
    runs = BoundedRunSet.enumerate(acc, cap).runs
    project = lambda word: natural_projection(word, acc.alphabet)
    return acc, horizon, runs, project


def _nonsecret_projections(acc: Nfa, runs, project) -> set:
    """Projections of runs from non-secret initial states visiting no secret."""
    out = set()
    for run in runs:
        if run.start in acc.nonsecret_initial and all(
            x not in acc.secret for x in run.states()
        ):
            out.add(project(run.word()))
    return out


def oracle_k_sso(nfa: Nfa, k: int, cap: int) -> bool:
    """Literal two-quantifier evaluation of strong K-step opacity."""
    _check_k(k)
    acc, horizon, runs, project = _prepared(nfa, cap)
    matched = set()
    for run in runs:
        states = run.states()
        word = run.word()
        for j in range(len(word) + 1):
            if all(states[t] not in acc.secret for t in range(j, len(states))):
                matched.add((project(word[:j]), project(word[j:])))
    for run in runs:
        word = run.word()
        if horizon is not None and len(project(word)) > horizon:
            continue
        states = run.states()
        for i in range(len(word) + 1):
            if states[i] in acc.secret and len(project(word[i:])) <= k:
                if (project(word[:i]), project(word[i:])) not in matched:
                    return False
    return True


def oracle_scso(nfa: Nfa, cap: int) -> bool:
    """Literal evaluation of strong current-state opacity."""
    acc, horizon, runs, project = _prepared(nfa, cap)
    matched = _nonsecret_projections(acc, runs, project)
    for run in runs:
        if run.end not in acc.secret:
            continue
        observation = project(run.word())
        if horizon is not None and len(observation) > horizon:
            continue
        if observation not in matched:
            return False
    return True


def oracle_siso(nfa: Nfa, cap: int) -> bool:
    """Literal evaluation of strong initial-state opacity."""
    acc, horizon, runs, project = _prepared(nfa, cap)
    matched = _nonsecret_projections(acc, runs, project)
    for run in runs:
        if run.start not in acc.secret_initial:
            continue
        observation = project(run.word())
        if horizon is not None and len(observation) > horizon:
            continue
        if observation not in matched:
            return False
    return True


def oracle_inf_sso(nfa: Nfa, cap: int) -> bool:
    """Literal evaluation of strong infinite-step opacity.

    A candidate is any word feasible from an initial state some prefix of
    which can (along any run, not necessarily the same one) reach a secret
    state.
    """
    acc, horizon, runs, project = _prepared(nfa, cap)
    matched = _nonsecret_projections(acc, runs, project)
    secret_words = {(run.start, run.word()) for run in runs if run.end in acc.secret}
    for run in runs:
        word = run.word()
        observation = project(word)
        if horizon is not None and len(observation) > horizon:
            continue
        if any((run.start, word[:i]) in secret_words for i in range(len(word) + 1)):
            if observation not in matched:
                return False
    return True


# Each notion's oracle as (subsystem, cap, K); K is read by k-sso only.
_ORACLES = {
    "k-sso": lambda sub, cap, k: oracle_k_sso(sub, k, cap),
    "cso": lambda sub, cap, k: oracle_k_sso(sub, 0, cap),
    "scso": lambda sub, cap, k: oracle_scso(sub, cap),
    "siso": lambda sub, cap, k: oracle_siso(sub, cap),
    "inf-sso": lambda sub, cap, k: oracle_inf_sso(sub, cap),
}


def oracle_enforceable(
    nfa: Nfa, notion: str, cap: int, k: int | None = None
) -> Optional[frozenset[Transition]]:
    """Exhaustively search controllable-transition subsets, smallest first,
    for one whose disabled subsystem the corresponding oracle accepts. The
    notion, ``cap`` and K are checked before the candidates are counted."""
    if notion not in _ORACLES:
        raise ValueError(f"unknown notion: {notion!r}")
    _check_k(cap, "cap")
    if notion == "k-sso":
        if k is None:
            raise ValueError("k-sso enforcement search needs K")
        _check_k(k)
    acc = accessible_part(nfa)
    candidates = sorted(
        acc.controllable_transitions,
        key=lambda t: (natural_key(t[0]), natural_key(t[1]), natural_key(t[2])),
    )
    if len(candidates) > MAX_ENFORCEMENT_CHOICES:
        raise TooLarge(f"{len(candidates)} controllable transitions; refusing enumeration")
    check = _ORACLES[notion]
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if check(disable_transitions(acc, combo), cap, k):
                return frozenset(combo)
    return None
