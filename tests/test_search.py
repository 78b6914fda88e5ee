"""Witness tie-breaks against a reference read from public views alone.

``cc_shortest_path`` picks the cheapest target, ties by ``CcState.sort_key``,
and then, step by step backward, the cheapest in-edge least by (predecessor
``sort_key``, event name in natural order). The reference below reads the
same rule off ``cc_observable_costs`` and ``by_target`` only, on models
renamed so that natural order and plain order disagree: '10' against '2',
'01' against '1', and event names that hold commas.
"""

import dataclasses

import hypothesis.strategies as st
from hypothesis import given, settings

from strongopacity import CcState, Event, Nfa, Run, cc_dss, cc_full_observer, cc_hat, product, subset_construction
from strongopacity.automaton import natural_key
from strongopacity.search import CcPath, cc_observable_costs, cc_shortest_path

from test_kernel import cyclic_nfas, each_stop
from test_modelio import EVENT_NAMES, STATE_NAMES, renamed


def reference_path(cc, sources, targets, uncontrollable_only):
    """The canonical cheapest path from ``sources`` to ``targets``, read
    from the public cost map and in-edges."""
    costs = cc_observable_costs(cc, sources, uncontrollable_only=uncontrollable_only)
    hit = [t for t in targets if t in costs]
    if not hit:
        return None
    here = min(hit, key=lambda t: (costs[t], t.sort_key()))
    edges = []
    while costs[here] != (0, 0):  # every transition costs, so only sources are free
        observable, total = costs[here]
        steps = [
            (pred, event)
            for pred, event in cc.by_target[here]
            if not (uncontrollable_only and cc.left.is_controllable(event.left_event))
            and costs.get(pred) == (observable - event.observable, total - 1)
        ]
        pred, event = min(steps, key=lambda step: (step[0].sort_key(), natural_key(step[1].name)))
        edges.append((pred, event, here))
        here = pred
    return CcPath(start=here, edges=tuple(reversed(edges)))


def check_paths(cc, data):
    states = sorted(cc.states, key=CcState.sort_key)
    if not states:
        return
    subsets = st.sets(st.sampled_from(states), min_size=1)
    for sources in (cc.initials, data.draw(subsets)):
        for targets in (cc.empty_states, data.draw(subsets)):
            for uncontrollable_only in (False, True):
                want = reference_path(cc, sources, targets, uncontrollable_only)
                got = cc_shortest_path(cc, sources, targets, uncontrollable_only=uncontrollable_only)
                assert got == want, uncontrollable_only


@given(cyclic_nfas(), st.data())
@settings(max_examples=60, deadline=None)
def test_witness_tie_breaks_match_a_public_view_reference(nfa, data):
    states = dict(zip(sorted(nfa.states), data.draw(st.permutations(STATE_NAMES))))
    events = dict(zip(sorted(e.name for e in nfa.alphabet), data.draw(st.permutations(EVENT_NAMES))))
    nfa = renamed(nfa, states, events)
    uncontrollable = data.draw(st.sets(st.sampled_from([e.name for e in nfa.alphabet])))
    alphabet = tuple(dataclasses.replace(e, controllable=e.name not in uncontrollable) for e in nfa.alphabet)
    nfa = nfa.replace(alphabet=alphabet)
    for cc in (cc_hat(nfa), cc_full_observer(nfa), cc_dss(nfa)):
        check_paths(cc, data)
    # Products of a thinned observer, so that some estimates collapse, whole
    # and stopped early.
    kept = data.draw(st.sets(st.sampled_from(sorted(nfa.transitions)))) if nfa.transitions else set()
    obs = subset_construction(nfa.replace(transitions=kept))
    pair = st.tuples(st.sampled_from(sorted(nfa.states)), st.sampled_from(sorted(obs.estimates) + [None]))
    initials = [CcState(x, q) for x, q in data.draw(st.lists(pair, min_size=1, max_size=3))]
    for stop_on, max_layer in each_stop(nfa):
        check_paths(product(nfa, obs, initials, stop_on=stop_on, max_layer=max_layer), data)


def test_tie_breaks_where_natural_and_plain_orders_differ():
    # Every cheapest path from 0 to t runs through 2 or 10, each hop on two
    # parallel silent edges. Natural order puts state 2 before 10 and event
    # (2,ε) before (10,ε), which plain order reverses; it puts (a,b,ε)
    # before (a,ε), which the alphabet's order reverses.
    silent = ("a", "a,b", "2", "10")
    nfa = Nfa(
        states=frozenset({"0", "2", "10", "t"}),
        alphabet=tuple(Event(e, observable=False, controllable=False) for e in silent),
        transitions=frozenset(
            {(x, e, "t") for x in ("2", "10") for e in ("a", "a,b")}
            | {("0", e, x) for x in ("2", "10") for e in ("2", "10")}
        ),
        initial=frozenset({"0"}),
    )
    cc = cc_full_observer(nfa)
    (estimate,) = cc.right.estimates
    state = {x: CcState(x, estimate) for x in nfa.states}
    for uncontrollable_only in (False, True):
        path = cc_shortest_path(cc, cc.initials, [state["t"]], uncontrollable_only=uncontrollable_only)
        assert path.to_left_run() == Run("0", (("2", "2"), ("a,b", "t")))
        assert path == reference_path(cc, cc.initials, [state["t"]], uncontrollable_only)
        path = cc_shortest_path(cc, cc.initials, [state["10"], state["2"]], uncontrollable_only=uncontrollable_only)
        assert path.to_left_run() == Run("0", (("2", "2"),))
