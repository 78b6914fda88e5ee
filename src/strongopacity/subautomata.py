"""The three derived systems consumed by the concurrent compositions.

* the initial-secret subautomaton: the system restarted from its secret states,
  modeling what can happen after a secret visit;
* the non-secret subautomaton: the system with every secret state (and every
  transition touching one) deleted, seeded from the non-secret parts of hybrid
  estimates;
* the deleted-secret-states subautomaton: the same deletion but restarted from
  the non-secret initial states.

Each is one walk of its parent's ``by_source`` (``automaton._restrict``) and
keeps the parent's edge tuples and its root model's numbering, so a state
has one bit in the system and in each subautomaton. The compositions
build them once per model: the composition module's operand bundle
(``composition._Operands``) holds the deleted-secret-states observer and
the secret-restart operands, and its one slot holds the bundle of the last
model a verifier, an enforcer or the K bound was called on, and no earlier
one. Each enforcement round after the first cuts a new subsystem and
carries a new bundle of it, which builds them afresh; there is no
incremental re-extraction.
"""

from __future__ import annotations

from .automaton import Nfa, _restrict
from .observer import Observer


def initial_secret_subautomaton(nfa: Nfa) -> Nfa:
    """The accessible part of ``nfa`` restarted from its secret states.

    Secret flags of surviving states are kept so non-secret-run predicates
    stay evaluable on composition runs. An empty secret set yields an empty
    automaton.
    """
    return _restrict(nfa, nfa.secret, nfa.by_source)


def nonsecret_subautomaton(nfa: Nfa, obs: Observer) -> tuple[Nfa, frozenset[frozenset[str]]]:
    """Delete all secret states and restart from hybrid-estimate remainders.

    ``obs`` must be the observer of ``nfa``. Returns the pruned automaton plus
    the seed family {q minus secrets : q hybrid} for the multi-initial
    observer; every seed is non-empty and made of initial states of the
    pruned automaton.
    """
    table = obs._table
    secret = table.mask_of(nfa.secret)
    # The remainders of the hybrid estimates, as masks over ``nfa``'s numbering.
    remainders = {mask & ~secret for mask in table.masks if mask & secret and mask & ~secret}
    seeds = frozenset(frozenset(table.names(mask)) for mask in remainders)
    return _without_secrets(nfa, frozenset().union(*seeds)), seeds


def dss_subautomaton(nfa: Nfa) -> Nfa:
    """Delete all secret states and restart from the non-secret initial states."""
    return _without_secrets(nfa, nfa.nonsecret_initial)


def _without_secrets(nfa: Nfa, initial: frozenset[str]) -> Nfa:
    """The accessible part, from ``initial``, of ``nfa`` with every secret
    state and every transition touching one deleted."""
    secret = nfa.secret
    kept = ((x, out) for x, out in nfa.by_source.items() if x not in secret)
    return _restrict(nfa, initial, {x: tuple(p for p in out if p[1] not in secret) for x, out in kept})
