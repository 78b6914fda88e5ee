"""The three derived systems consumed by the concurrent compositions.

* the initial-secret subautomaton: the system restarted from its secret states,
  modeling what can happen after a secret visit;
* the non-secret subautomaton: the system with every secret state (and every
  transition touching one) deleted, seeded from the non-secret parts of hybrid
  estimates;
* the deleted-secret-states subautomaton: the same deletion but restarted from
  the non-secret initial states.

Each enforcement round rebuilds these from scratch; there is no incremental
re-extraction.
"""

from __future__ import annotations

from .automaton import Nfa, accessible_part
from .observer import Estimate, EstimateClass, Observer, classify_estimates


def initial_secret_subautomaton(nfa: Nfa) -> Nfa:
    """The accessible part of ``nfa`` restarted from its secret states.

    Secret flags of surviving states are kept so non-secret-run predicates
    stay evaluable on composition runs. An empty secret set yields an empty
    automaton.
    """
    return accessible_part(nfa.replace(initial=nfa.secret & nfa.states))


def nonsecret_subautomaton(nfa: Nfa, obs: Observer) -> tuple[Nfa, frozenset[frozenset[str]]]:
    """Delete all secret states and restart from hybrid-estimate remainders.

    ``obs`` must be the observer of ``nfa``. Returns the pruned automaton plus
    the seed family {q minus secrets : q hybrid} for the multi-initial
    observer. Seeds are intersected with the surviving states; a seed emptied
    by pruning is dropped (its composition initial states then carry the empty
    estimate).
    """
    classes = classify_estimates(obs, nfa.secret)
    hybrid = [q for q, c in classes.items() if c is EstimateClass.HYBRID]
    pruned = _without_secrets(nfa, frozenset(x for q in hybrid for x in q if x not in nfa.secret))
    seeds = set()
    for q in hybrid:
        seed = frozenset(q) & pruned.states - nfa.secret
        if seed:
            seeds.add(seed)
    return pruned, frozenset(seeds)


def dss_subautomaton(nfa: Nfa) -> Nfa:
    """Delete all secret states and restart from the non-secret initial states."""
    return _without_secrets(nfa, nfa.nonsecret_initial)


def _without_secrets(nfa: Nfa, initial: frozenset[str]) -> Nfa:
    """The accessible part, from ``initial``, of ``nfa`` with every secret
    state and every transition touching one deleted."""
    kept = nfa.nonsecret
    return accessible_part(
        Nfa(
            states=kept,
            alphabet=nfa.alphabet,
            transitions=frozenset(t for t in nfa.transitions if t[0] in kept and t[2] in kept),
            initial=initial,
            secret=frozenset(),
        )
    )
