"""The integer kernel under the observer and the product, checked against
plain set-based references written here.

The random automata have unobservable cycles and self-loops, which the golden
corpus (forward unobservable edges only) does not exercise. The verifiers,
which stop the product at (or one layer before) its first offending layer
or at layer K, and the K-step and siso enforcers, which build only part of
a composition, are checked against the search of the whole public
compositions on these automata and on golden-corpus instances. The search
(packed costs, the uncontrollable in-index), the layers that every product
records and the frontier without a forward search are checked
against references written here, and so is every read-only view of a
composition's int core: each against a reference built from its
transitions, one ``CcState`` object per state, and no foreign state in any
view.
"""

import dataclasses
import heapq
import math
import os
import random
from collections import Counter, deque
import pickle
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import strongopacity
from strongopacity import (
    CcEvent,
    CcState,
    EmptyEstimate,
    Enforced,
    Event,
    Impossible,
    InternalInvariantError,
    InvalidState,
    Nfa,
    Run,
    accessible_part,
    cc_dss,
    cc_full_observer,
    cc_hat,
    disable_transitions,
    dss_subautomaton,
    enforce_inf_sso,
    enforce_k_sso,
    enforce_scso,
    enforce_siso,
    initial_secret_subautomaton,
    last_controllable_frontier,
    multi_initial_observer,
    nonsecret_subautomaton,
    product,
    subset_construction,
    unobservable_reach,
    verify_cso,
    verify_inf_sso,
    verify_k_sso,
    verify_scso,
    verify_siso,
)
from strongopacity.automaton import _closures, natural_key
from strongopacity.search import cc_observable_costs, cc_shortest_path

sys.path.insert(0, str(Path(__file__).parent))

from corpus import random_cyclic_nfa  # noqa: E402
from test_golden import SEED as GOLDEN_SEED  # noqa: E402

# Names whose natural order differs from their string order.
NAMES = ["0", "1", "2", "9", "10", "11", "x2", "x10"]
OBSERVABLE = ["a", "b"]
UNOBSERVABLE = ["u", "v"]


@st.composite
def cyclic_nfas(draw):
    n = draw(st.integers(1, len(NAMES)))
    states = NAMES[:n]
    state = st.sampled_from(states)
    event = st.sampled_from(OBSERVABLE + UNOBSERVABLE)
    transitions = set(draw(st.lists(st.tuples(state, event, state), max_size=16)))
    # An unobservable cycle through distinct states (a self-loop when it has one).
    cycle = draw(st.lists(state, min_size=1, max_size=n, unique=True))
    transitions |= {(x, "u", y) for x, y in zip(cycle, cycle[1:] + cycle[:1])}
    return Nfa(
        states=frozenset(states),
        alphabet=tuple(Event(e) for e in OBSERVABLE)
        + tuple(Event(e, observable=False) for e in UNOBSERVABLE),
        transitions=frozenset(transitions),
        initial=frozenset(draw(st.sets(state, min_size=1, max_size=3))),
        secret=frozenset(draw(st.sets(state, max_size=n))),
    )


def closure(nfa, states, events=UNOBSERVABLE):
    seen = set(states)
    todo = list(seen)
    while todo:
        x = todo.pop()
        for src, event, dst in nfa.transitions:
            if src == x and event in events and dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return frozenset(seen)


def reference_observer(nfa, seeds):
    """Estimates, delta and initials as frozensets, by the textbook construction."""
    initials = {closure(nfa, seed) for seed in seeds}
    estimates, delta, todo = set(initials), {}, list(initials)
    while todo:
        q = todo.pop()
        for sigma in OBSERVABLE:
            moved = {dst for src, event, dst in nfa.transitions if src in q and event == sigma}
            if moved:
                q2 = delta[(q, sigma)] = closure(nfa, moved)
                if q2 not in estimates:
                    estimates.add(q2)
                    todo.append(q2)
    return estimates, delta, initials


def as_sets(obs):
    return (
        {frozenset(q) for q in obs.estimates},
        {(frozenset(q), sigma): frozenset(q2) for (q, sigma), q2 in obs.delta.items()},
        {frozenset(q) for q in obs.initials},
    )


def check_canonical(obs):
    """The private table is the public views, and each estimate is one tuple
    object. The table holds each estimate as a bitmask over ``order`` and
    its moves over estimate ids: each mask renders to its estimate, ``ids``
    inverts ``masks`` and finds each rendered estimate again, and ``step``
    and ``initials`` read over ids are ``delta`` and ``initials``. Every
    view hands out the rendered tuple, on every read, and it is in natural
    order."""
    table = obs._table
    assert len(obs.estimates) == len(table.masks) == len(table.step)
    assert table.ids == {mask: i for i, mask in enumerate(table.masks)}
    rendered = [table.estimate(i) for i in range(len(table.masks))]
    for i, q in enumerate(rendered):
        assert table.estimate(i) is q
        assert list(q) == sorted(q, key=natural_key)
        assert set(q) == {x for b, x in enumerate(table.order) if table.masks[i] >> b & 1}
        assert table.id(q) == i
    canon = {id(q) for q in rendered}
    for _ in range(2):
        assert all(id(q) in canon for q in obs.estimates)
        assert all(id(q) in canon for q in obs.initials)
        for (q, sigma), q2 in obs.delta.items():
            assert id(q) in canon and id(q2) in canon and obs.delta[(q, sigma)] is q2
            assert obs.step(q, sigma) is q2
    steps = {(rendered[i], sigma): rendered[j] for i, moves in enumerate(table.step) for sigma, j in moves.items()}
    assert steps == dict(obs.delta) and len(obs.delta) == len(steps)
    assert {rendered[i] for i in table.initials} == set(obs.initials)
    assert len(obs.initials) == len(set(obs.initials))


@given(cyclic_nfas())
@settings(max_examples=150, deadline=None)
def test_subset_construction_matches_reference(nfa):
    obs = subset_construction(nfa)
    assert as_sets(obs) == reference_observer(nfa, [nfa.initial])
    check_canonical(obs)
    for x in nfa.states:
        assert frozenset(subset_construction(nfa.replace(initial={x})).initials) == {
            tuple(sorted(closure(nfa, {x}), key=natural_key))
        }
        assert unobservable_reach(nfa, {x}) == closure(nfa, {x})
    assert unobservable_reach(nfa, nfa.initial) == closure(nfa, nfa.initial)


@given(cyclic_nfas(), st.data())
@settings(max_examples=150, deadline=None)
def test_multi_initial_observer_matches_reference(nfa, data):
    subsets = st.sets(st.sampled_from(sorted(nfa.states)), min_size=1)
    raw = data.draw(st.lists(subsets, min_size=1, max_size=4))
    seeds = [closure(nfa, seed) for seed in raw]
    obs = multi_initial_observer(nfa, seeds)
    assert as_sets(obs) == reference_observer(nfa, seeds)
    check_canonical(obs)


@given(cyclic_nfas(), st.data())
@settings(max_examples=100, deadline=None)
def test_observer_views_render_on_demand(nfa, data):
    subsets = st.sets(st.sampled_from(sorted(nfa.states)), min_size=1)
    seeds = [closure(nfa, seed) for seed in data.draw(st.lists(subsets, min_size=1, max_size=3))]
    for obs, reference in (
        (subset_construction(nfa), reference_observer(nfa, [nfa.initial])),
        (multi_initial_observer(nfa, seeds), reference_observer(nfa, seeds)),
    ):
        # Sizes and the lookup of one estimate render no other estimate.
        estimates, delta, initials = reference
        assert (len(obs.estimates), len(obs.delta), len(obs.initials)) == (
            len(estimates),
            len(delta),
            len(initials),
        )
        assert obs._table._rendered == [None] * len(estimates)
        q = tuple(sorted(next(iter(initials)), key=natural_key))
        assert q in obs.initials and q in obs.estimates
        assert obs._table._rendered == [None] * len(estimates)
        assert as_sets(obs) == reference
        check_canonical(obs)
        # No view holds what is not an estimate: a reordered, a foreign or
        # a non-tuple estimate, nor a step off the table.
        for q in obs.estimates:
            for alien in (tuple(reversed(q)), q + ("nowhere",), list(q), frozenset(q)):
                if alien != q:
                    assert alien not in obs.estimates and obs.step(alien, "a") is None
                    with pytest.raises(KeyError):
                        obs.delta[(alien, "a")]
            # Nor a key that is no (estimate, event) pair: a non-tuple, a
            # triple, or a step by an event that is not the observer's.
            for key in (None, "a", q, (q, "a", "a"), (q, "nowhere")):
                with pytest.raises(KeyError):
                    obs.delta[key]


def test_dense_reach_on_cycles_and_self_loops():
    nfa = Nfa(
        states=frozenset(NAMES),
        alphabet=(Event("a"), Event("u", observable=False)),
        transitions=frozenset(
            {("0", "u", "1"), ("1", "u", "2"), ("2", "u", "0"), ("2", "u", "9"), ("9", "u", "9"),
             ("10", "u", "11"), ("11", "u", "10"), ("x2", "a", "x10"), ("x10", "u", "0")}
        ),
        initial=frozenset({"0"}),
    )
    order, position = nfa._numbering
    assert list(order) == sorted(NAMES, key=natural_key)
    for x in NAMES:
        mask = nfa._dense.reach[position[x]]
        assert {y for i, y in enumerate(order) if mask >> i & 1} == closure(nfa, {x})
    assert set(subset_construction(nfa.replace(initial={"x2"})).delta.values()) == {
        ("0", "1", "2", "9", "x10")
    }


@st.composite
def sparse_graphs(draw):
    """A graph on up to 24 nodes, most of them without out-edges, with
    self-loops and cycles, and the nodes that its closure is asked for."""
    n = draw(st.integers(1, 24))
    node = st.integers(0, n - 1)
    edges = [[] for _ in range(n)]
    for src, dst in draw(st.lists(st.tuples(node, node), max_size=2 * n)):
        edges[src].append(dst)
    return edges, draw(st.lists(node, unique=True))


@given(sparse_graphs())
@settings(max_examples=300, deadline=None)
def test_closures_are_breadth_first_reach(graph):
    # Edge-free nodes are closed without a Tarjan frame, whether listed or
    # reached only through another node.
    edges, nodes = graph

    def bfs(x):
        seen, todo = {x}, deque([x])
        while todo:
            for y in edges[todo.popleft()]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    reach = _closures(edges, nodes)
    reached = set().union(*map(bfs, nodes))
    for x in range(len(edges)):
        assert reach[x] == (sum(1 << y for y in bfs(x)) if x in reached else 0)


class TestMultiInitialErrors:
    def test_empty_seed(self):
        nfa = Nfa(frozenset({"0"}), (Event("a"),), frozenset(), frozenset({"0"}))
        with pytest.raises(EmptyEstimate):
            multi_initial_observer(nfa, [set()])

    def test_non_state(self):
        nfa = Nfa(frozenset({"0"}), (Event("a"),), frozenset(), frozenset({"0"}))
        with pytest.raises(InvalidState):
            multi_initial_observer(nfa, [{"0", "7"}])

    def test_seed_not_closed(self):
        nfa = Nfa(
            frozenset({"0", "1"}),
            (Event("u", observable=False),),
            frozenset({("1", "u", "0"), ("0", "u", "1")}),
            frozenset({"0"}),
        )
        with pytest.raises(InternalInvariantError):
            multi_initial_observer(nfa, [{"0"}])


def reference_product(left, obs, initials, empty_sink):
    states, transitions, todo = set(initials), set(), list(initials)
    while todo:
        here = todo.pop()
        for src, sigma, dst in left.transitions:
            if src != here.left:
                continue
            if left.is_observable(sigma):
                right = None if here.right is None else obs.delta.get((here.right, sigma))
                if here.right is not None and right is None and not empty_sink:
                    continue
                event = CcEvent(sigma, sigma)
            else:
                right, event = here.right, CcEvent(sigma, None)
            there = CcState(dst, right)
            transitions.add((here, event, there))
            if there not in states:
                states.add(there)
                todo.append(there)
    return states, transitions


@given(cyclic_nfas(), st.data(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_product_matches_reference(nfa, data, empty_sink):
    # The observer of a thinned copy, so that some observer steps are undefined.
    kept = set()
    if nfa.transitions:
        kept = data.draw(st.sets(st.sampled_from(sorted(nfa.transitions))))
    obs = subset_construction(nfa.replace(transitions=kept))
    estimates = sorted(obs.estimates)
    pair = st.tuples(st.sampled_from(sorted(nfa.states)), st.sampled_from(estimates + [None]))
    pairs = data.draw(st.lists(pair, min_size=1, max_size=4))
    initials = [CcState(x, q) for x, q in pairs]
    cc = product(nfa, obs, initials, empty_sink=empty_sink)
    states, transitions = reference_product(nfa, obs, initials, empty_sink)
    assert cc.states == states
    assert cc.transitions == transitions
    # Both indexes list every reference edge exactly once, under every state.
    out = {s: [] for s in states}
    into = {s: [] for s in states}
    for src, event, dst in transitions:
        out[src].append((event, dst))
        into[dst].append((src, event))
    assert cc.by_source.keys() == out.keys()
    assert all(Counter(cc.by_source[s]) == Counter(out[s]) for s in states)
    assert cc.by_target.keys() == into.keys()
    assert all(Counter(cc.by_target[s]) == Counter(into[s]) for s in states)
    assert cc.initials == set(initials)
    assert cc.events == {CcEvent(e.name, e.name if e.observable else None) for e in nfa.alphabet}
    canon = {q: q for q in obs.estimates}
    assert all(s.right is None or canon[s.right] is s.right for s in cc.states)
    assert cc.sorted_transitions() == sorted(
        cc.transitions, key=lambda t: (t[0].sort_key(), natural_key(t[1].name), t[2].sort_key())
    )


def observable_layers(transitions, initials):
    """Each state's least number of observable steps from ``initials``."""
    layer = {s: 0 for s in initials}
    todo = deque(layer)
    while todo:
        here = todo.popleft()
        for src, event, dst in transitions:
            if src != here:
                continue
            cost = layer[here] + (1 if event.observable else 0)
            if cost < layer.get(dst, math.inf):
                layer[dst] = cost
                # 0-1 search: a free step goes to the front of the queue.
                if event.observable:
                    todo.append(dst)
                else:
                    todo.appendleft(dst)
    return layer


def stop_layer(left, layer, stop_on, max_layer):
    """The last layer that ``product`` expands: the layer of the first
    offending empty-estimate state, or the one before it (never below 0)
    when ``stop_on`` holds every state of ``left``, or ``max_layer`` if
    sooner."""
    offending = [n for s, n in layer.items() if s.is_empty and stop_on is not None and s.left in stop_on]
    last = min(offending, default=math.inf)
    if offending and left.states <= set(stop_on):
        last = max(0, last - 1)
    return min(last, math.inf if max_layer is None else max_layer)


def check_layered_product(nfa, obs, initials, empty_sink, stop_on, max_layer):
    """``product`` with a stop against the whole reference product: it
    expands exactly the layers up to ``stop_layer``, and lists the states
    those layers reach."""
    cc = product(nfa, obs, initials, empty_sink=empty_sink, stop_on=stop_on, max_layer=max_layer)
    states, transitions = reference_product(nfa, obs, initials, empty_sink)
    layer = observable_layers(transitions, initials)
    assert layer.keys() == states
    last = stop_layer(nfa, layer, stop_on, max_layer)
    expanded = {s for s in states if layer[s] <= last}
    assert cc.transitions == {t for t in transitions if t[0] in expanded}
    assert cc.states == expanded | {dst for src, _, dst in transitions if src in expanded}
    assert cc.initials == set(initials)
    # Every expanded state has its whole-product cost, and the cheapest
    # empty-estimate state, if it lies at most one layer further, its
    # whole-product witness.
    full = product(nfa, obs, initials, empty_sink=empty_sink)
    part_costs, full_costs = cc_observable_costs(cc, initials), cc_observable_costs(full, initials)
    assert all(part_costs[s] == full_costs[s] for s in expanded)
    bad = [s for s in states if s.is_empty and layer[s] <= last + 1]
    if bad:
        want = cc_shortest_path(full, initials, bad)
        assert cc_shortest_path(cc, initials, cc.empty_states) == want


def each_stop(nfa):
    """Every (stop_on, max_layer) pair the tests try, no stop included."""
    return [(on, k) for on in (None, nfa.secret, nfa.states) for k in (None, 0, 1, 2, 3)]


@given(cyclic_nfas(), st.data(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_layered_product_stops_after_its_layer(nfa, data, empty_sink):
    kept = set()
    if nfa.transitions:
        kept = data.draw(st.sets(st.sampled_from(sorted(nfa.transitions))))
    obs = subset_construction(nfa.replace(transitions=kept))
    pair = st.tuples(st.sampled_from(sorted(nfa.states)), st.sampled_from(sorted(obs.estimates) + [None]))
    initials = [CcState(x, q) for x, q in data.draw(st.lists(pair, min_size=1, max_size=3))]
    for stop_on, max_layer in each_stop(nfa):
        check_layered_product(nfa, obs, initials, empty_sink, stop_on, max_layer)


def test_layered_product_on_golden_instances():
    rng = random.Random(GOLDEN_SEED)
    for _ in range(40):
        nfa = random_cyclic_nfa(rng)
        dss = dss_subautomaton(nfa)
        if not dss.initial:
            continue
        obs = subset_construction(dss)
        initials = [CcState(x, q) for x in nfa.initial for q in obs.initials]
        for stop_on, max_layer in each_stop(nfa):
            check_layered_product(nfa, obs, initials, True, stop_on, max_layer)


def test_state_found_by_an_observable_move_moves_back_into_its_layer():
    # The initial estimate q = {0,1,2} steps to itself on a. So (2,q) is
    # first found by the observable move from (0,q), for layer 1, and then
    # by the unobservable move from (1,q), in layer 0: layer 0 expands it.
    nfa = Nfa(
        frozenset("0123"),
        (Event("a"), Event("b"), Event("u", observable=False)),
        frozenset(
            {("0", "a", "2"), ("0", "u", "1"), ("1", "u", "2"), ("2", "a", "0"), ("2", "b", "3"), ("3", "b", "3")}
        ),
        frozenset({"0"}),
    )
    obs = subset_construction(nfa)
    (q,) = obs.initials
    assert q == ("0", "1", "2") and obs.step(q, "a") == q
    cc = product(nfa, obs, [CcState("0", q)], empty_sink=True, max_layer=0)
    assert {(src.left, event.left_event, dst.left) for src, event, dst in cc.transitions} == {
        ("0", "a", "2"),
        ("0", "u", "1"),
        ("1", "u", "2"),
        ("2", "a", "0"),
        ("2", "b", "3"),
    }
    assert cc.by_source[CcState("3", ("3",))] == ()


def reference_costs(transitions, sources, controllable, backward, uncontrollable_only):
    """(observable, total) costs from ``sources``, or into them when
    ``backward``, by a Dijkstra over tuple costs on the transition set;
    with ``uncontrollable_only`` it skips every event in ``controllable``."""
    moves = {}
    for src, event, dst in transitions:
        if uncontrollable_only and event.left_event in controllable:
            continue
        here, there = (dst, src) if backward else (src, dst)
        moves.setdefault(here, []).append((there, (1, 1) if event.observable else (0, 1)))
    dist = {s: (0, 0) for s in sources}
    heap = [((0, 0), s.sort_key(), s) for s in dist]
    heapq.heapify(heap)
    while heap:
        cost, _, here = heapq.heappop(heap)
        if cost > dist[here]:
            continue
        for there, (obs, total) in moves.get(here, ()):
            nc = (cost[0] + obs, cost[1] + total)
            if there not in dist or nc < dist[there]:
                dist[there] = nc
                heapq.heappush(heap, (nc, there.sort_key(), there))
    return dist


def drawn_products(nfa, data):
    """A whole product and the partial ones under every stop, of ``nfa``
    with a drawn set of uncontrollable events and the observer of a
    thinned copy (so that some estimates collapse), from drawn initials.
    Yields (composition, reference transitions of the whole, initials)."""
    uncontrollable = data.draw(st.sets(st.sampled_from(OBSERVABLE + UNOBSERVABLE)))
    alphabet = tuple(dataclasses.replace(e, controllable=e.name not in uncontrollable) for e in nfa.alphabet)
    nfa = nfa.replace(alphabet=alphabet)
    kept = set()
    if nfa.transitions:
        kept = data.draw(st.sets(st.sampled_from(sorted(nfa.transitions))))
    obs = subset_construction(nfa.replace(transitions=kept))
    pair = st.tuples(st.sampled_from(sorted(nfa.states)), st.sampled_from(sorted(obs.estimates) + [None]))
    initials = [CcState(x, q) for x, q in data.draw(st.lists(pair, min_size=1, max_size=3))]
    _, transitions = reference_product(nfa, obs, initials, True)
    for stop_on, max_layer in each_stop(nfa):
        cc = product(nfa, obs, initials, empty_sink=True, stop_on=stop_on, max_layer=max_layer)
        yield cc, transitions, initials


def in_index(cc, rows):
    """An int in-index rendered: target -> Counter of (event, source) pairs,
    for the targets with an in-edge."""
    core = cc._core
    return {
        core.state(i): Counter((core.events[e & core.emask], core.state(e >> core.ebits)) for e in row)
        for i, row in enumerate(rows)
        if row
    }


@given(cyclic_nfas(), st.data())
@settings(max_examples=100, deadline=None)
def test_searches_match_a_tuple_cost_reference(nfa, data):
    for cc, _, _ in drawn_products(nfa, data):
        controllable = {e.name for e in cc.left.alphabet if e.controllable}
        into = {}
        for src, event, dst in cc.transitions:
            if event.left_event not in controllable:
                into.setdefault(dst, Counter())[(event, src)] += 1
        assert in_index(cc, cc._unc_into) == into
        states = sorted(cc.states, key=CcState.sort_key)
        sources = data.draw(st.sets(st.sampled_from(states))) if states else set()
        for backward in (False, True):
            for uncontrollable_only in (False, True):
                got = cc_observable_costs(cc, sources, backward=backward, uncontrollable_only=uncontrollable_only)
                want = reference_costs(cc.transitions, sources, controllable, backward, uncontrollable_only)
                assert got == want, (backward, uncontrollable_only)


@given(cyclic_nfas(), st.data())
@settings(max_examples=100, deadline=None)
def test_layered_product_records_each_state_layer(nfa, data):
    drawn = [(cc, transitions) for cc, transitions, _ in drawn_products(nfa, data)]
    public = (cc_hat(nfa), cc_full_observer(nfa), cc_dss(nfa), cc_dss(nfa, secret_only=True))
    for cc, transitions in drawn + [(cc, cc.transitions) for cc in public]:
        layer = observable_layers(transitions, cc.initials)
        assert {cc._core.state(i): n for i, n in enumerate(cc._layer)} == {s: layer[s] for s in cc.states}


@given(cyclic_nfas(), st.data())
@settings(max_examples=100, deadline=None)
def test_frontier_without_sources_matches_a_forward_search(nfa, data):
    for cc, _, _ in drawn_products(nfa, data):
        controllable = {e.name for e in cc.left.alphabet if e.controllable}
        states = sorted(cc.states, key=CcState.sort_key)
        bad = data.draw(st.sets(st.sampled_from(states))) if states else set()
        budget = data.draw(st.sampled_from([None, 0, 1, 2, 3]))
        reached = reference_costs(cc.transitions, cc.initials, controllable, False, False)
        into_bad = reference_costs(cc.transitions, bad, controllable, True, True)
        assert last_controllable_frontier(cc, bad, budget) == {
            (src, event, dst)
            for src, event, dst in cc.transitions
            if src in reached
            and event.left_event in controllable
            and dst in into_bad
            and (budget is None or reached[src][0] + event.observable + into_bad[dst][0] <= budget)
        }


VIEWS = ("states", "transitions", "initials", "empty_states", "secret_initials", "edges", "by_source", "by_target")


def check_views(cc, initials, aliens):
    """Every view of ``cc`` against a reference built from its transitions
    and ``initials``; one object per state, whichever view hands it out and
    however often; and no state of ``aliens`` in any view."""
    transitions = set(cc.transitions)
    states = set(initials) | {dst for _, _, dst in transitions}
    out = {s: Counter() for s in states}
    into = {s: Counter() for s in states}
    for src, event, dst in transitions:
        out[src][(event, dst)] += 1
        into[dst][(src, event)] += 1
    sets = {
        "states": states,
        "transitions": transitions,
        "initials": set(initials),
        "empty_states": {s for s in states if s.is_empty},
        "secret_initials": {s for s in initials if s.left in cc.left.secret},
    }
    for name, want in sets.items():
        view = getattr(cc, name)
        assert view == want and len(view) == len(want) == len(list(view)), name
        assert all(x in view for x in want), name
    for name, want in (("edges", out), ("by_source", out), ("by_target", into)):
        index = getattr(cc, name)
        assert index.keys() == want.keys() and len(index) == len(want), name
        assert all(Counter(index[s]) == want[s] for s in states), name
    handed = [s for name in sets if name != "transitions" for s in getattr(cc, name)]
    handed += [s for src, _, dst in cc.transitions for s in (src, dst)]
    handed += [dst for pairs in cc.by_source.values() for _, dst in pairs]
    handed += [src for pairs in cc.by_target.values() for src, _ in pairs]
    handed += list(cc.states)
    assert len({id(s) for s in handed}) == len(states)
    costs = cc_observable_costs(cc, initials)
    for alien in aliens:
        assert all(alien not in getattr(cc, name) for name in VIEWS) and alien not in costs
        for index in (cc.edges, cc.by_source, cc.by_target, costs):
            with pytest.raises(KeyError):
                index[alien]
    for src, event, dst in transitions:
        assert ((dst, event, src) in cc.transitions) == ((dst, event, src) in transitions)
        assert all((src, event, alien) not in cc.transitions for alien in aliens)


def foreign_states(nfa, obs):
    """The states of the composition of ``nfa`` with ``obs`` seeded from
    every pair, and two states that no composition of them has; a caller
    removes its own states."""
    pairs = [CcState(x, q) for x in sorted(nfa.states) for q in sorted(obs.estimates) + [None]]
    return set(product(nfa, obs, pairs, empty_sink=True).states) | {
        CcState("nowhere", None),
        CcState(sorted(nfa.states)[0], ("nowhere",)),
    }


@given(cyclic_nfas(), st.data())
@settings(max_examples=60, deadline=None)
def test_views_match_references_built_from_transitions(nfa, data):
    for cc, _, initials in drawn_products(nfa, data):
        check_views(cc, initials, foreign_states(cc.left, cc.right) - set(cc.states))


def test_views_on_golden_instances():
    rng = random.Random(GOLDEN_SEED)
    for _ in range(20):
        nfa = random_cyclic_nfa(rng)
        dss = dss_subautomaton(nfa)
        if not dss.initial:
            continue
        obs = subset_construction(dss)
        initials = [CcState(x, q) for x in nfa.initial for q in obs.initials]
        aliens = foreign_states(nfa, obs)
        for stop_on, max_layer in each_stop(nfa):
            cc = product(nfa, obs, initials, empty_sink=True, stop_on=stop_on, max_layer=max_layer)
            check_views(cc, initials, aliens - set(cc.states))


def reference_verdicts(nfa):
    """Every composition verdict by the search of the whole public
    composition: (opaque, witness) per notion, K-step at K = 0, 1, 2, 5."""
    acc = accessible_part(nfa)
    if not acc.initial:
        return {name: (True, None) for name in ("scso", "siso", "inf-sso", 0, 1, 2, 5)}
    out = {}
    dss = cc_dss(acc)
    offenders = {
        "scso": (dss.initials, [s for s in dss.empty_states if s.left in acc.secret]),
        "siso": (dss.secret_initials, dss.empty_states),
        "inf-sso": (dss.initials, dss.empty_states),
    }
    for notion, (sources, bad) in offenders.items():
        path = cc_shortest_path(dss, sources, bad)
        out[notion] = (path is None, path and path.to_run())
    cso = verify_cso(acc)
    hat = cc_hat(acc)
    costs = cc_observable_costs(hat, hat.initials)
    for k in (0, 1, 2, 5):
        bad = [s for s, c in costs.items() if s.is_empty and c[0] <= k]
        path = cc_shortest_path(hat, hat.initials, bad)
        if not cso.opaque:
            out[k] = (False, cso.witness)
        else:
            out[k] = (path is None, path and path.to_run())
    return out


def library_verdicts(nfa):
    out = {
        "scso": verify_scso(nfa),
        "siso": verify_siso(nfa),
        "inf-sso": verify_inf_sso(nfa),
        **{k: verify_k_sso(nfa, k) for k in (0, 1, 2, 5)},
    }
    return {name: (v.opaque, v.witness) for name, v in out.items()}


@given(cyclic_nfas())
@settings(max_examples=200, deadline=None)
def test_early_stop_verdicts_match_the_whole_composition(nfa):
    assert library_verdicts(nfa) == reference_verdicts(nfa)


def test_early_stop_keeps_a_layer_found_by_an_unobservable_path():
    # Layer 1 finds (3,∅) first by the observable move from (1,∅), then by
    # the unobservable move from (2,∅). Only through (3,∅) does it reach
    # (4,∅), the secret empty-estimate state that ties with (7,∅) on cost
    # and comes first by name; (7,∅) stops the search after layer 1.
    nfa = Nfa(
        frozenset(str(i) for i in range(10)),
        (Event("a"), Event("b"), Event("u", observable=False)),
        frozenset(
            {
                ("0", "u", "8"),
                ("8", "u", "9"),
                ("8", "a", "1"),
                ("9", "a", "2"),
                ("1", "b", "3"),
                ("2", "u", "3"),
                ("3", "u", "4"),
                ("1", "u", "5"),
                ("5", "u", "6"),
                ("6", "u", "7"),
            }
        ),
        frozenset({"0"}),
        frozenset({"8", "9", "4", "7"}),
    )
    assert library_verdicts(nfa) == reference_verdicts(nfa)
    assert verify_scso(nfa).witness.steps[-1][1] == "(4,∅)"


def test_scso_waits_for_a_secret_offender_behind_a_non_secret_one():
    # Layer 0 finds (5,∅), non-secret, by the observable move from (4,{0,1,2,3})
    # and (7,∅), secret, by the one from (3,{0,1,2,3}). The cheapest secret
    # offender, (6,∅) at cost (1,3) against (1,4), lies behind (5,∅) by an
    # unobservable move of layer 1, so scso must expand layer 1; inf-sso,
    # for which (5,∅) offends, stops after layer 0.
    nfa = Nfa(
        frozenset(str(i) for i in range(8)),
        (Event("a"), Event("b"), Event("u", observable=False)),
        frozenset(
            {
                ("0", "u", "4"),
                ("4", "a", "5"),
                ("5", "u", "6"),
                ("0", "u", "1"),
                ("1", "u", "2"),
                ("2", "u", "3"),
                ("3", "b", "7"),
            }
        ),
        frozenset({"0"}),
        frozenset({"4", "6", "7"}),
    )
    assert library_verdicts(nfa) == reference_verdicts(nfa)
    assert verify_scso(nfa).witness.steps[-1][1] == "(6,∅)"
    assert verify_inf_sso(nfa).witness.steps[-1][1] == "(5,∅)"
    obs = subset_construction(dss_subautomaton(nfa))
    seed = [CcState("0", q0) for q0 in obs.initials]
    secret_stop = product(nfa, obs, seed, empty_sink=True, stop_on=nfa.secret)
    all_stop = product(nfa, obs, seed, empty_sink=True, stop_on=nfa.states)
    assert secret_stop.by_source[CcState("5", None)] != ()
    assert all_stop.by_source[CcState("5", None)] == ()
    assert CcState("6", None) not in all_stop.states


def test_early_stop_verdicts_match_on_golden_instances():
    rng = random.Random(GOLDEN_SEED)
    for index in range(100):
        nfa = random_cyclic_nfa(rng)
        assert library_verdicts(nfa) == reference_verdicts(nfa), f"instance {index}"


def reference_enforce_k_sso(nfa, k):
    """``enforce_k_sso`` on the whole public compositions, with the
    predecessor states matched to each leaky initial one by one."""
    current, disabled = accessible_part(nfa), set()
    while True:
        cc = cc_hat(current)
        forward = cc_observable_costs(cc, cc.initials)
        theta = {s for s in cc.empty_states if forward[s][0] <= k}
        if not theta:
            return Enforced(frozenset(disabled), current)
        unc_back = cc_observable_costs(cc, theta, uncontrollable_only=True, backward=True)
        leaky = [i for i in cc.initials if i in unc_back and unc_back[i][0] <= k]
        ccobs = cc_full_observer(current)
        marked = set()
        for i in leaky:
            remainder = frozenset(i.right or ())
            marked |= {
                s for s in ccobs.states if s.left == i.left and frozenset(s.right) - current.secret == remainder
            }
        prefix = cc_shortest_path(ccobs, ccobs.initials, marked, uncontrollable_only=True)
        if prefix is not None:
            end = prefix.end
            anchor = min(
                (i for i in leaky if i.left == end.left and frozenset(i.right or ()) == frozenset(end.right) - current.secret),
                key=CcState.sort_key,
            )
            suffix = cc_shortest_path(cc, [anchor], theta, uncontrollable_only=True)
            head = prefix.to_left_run()
            return Impossible(Run(head.start, head.steps + suffix.to_left_run().steps))
        frontier = last_controllable_frontier(cc, theta, budget=k) | last_controllable_frontier(ccobs, marked)
        cut = {(s.left, e.left_event, d.left) for s, e, d in frontier} & current.transitions
        disabled |= cut
        current = disable_transitions(current, cut)


def reference_enforce_siso(nfa):
    """``enforce_siso`` on the whole deleted-secret-states composition."""
    current, disabled = accessible_part(nfa), set()
    while True:
        cc = cc_dss(current)
        costs = cc_observable_costs(cc, cc.secret_initials)
        bad = {s for s in cc.empty_states if s in costs}
        if not bad:
            return Enforced(frozenset(disabled), current)
        offending = cc_shortest_path(cc, cc.secret_initials, bad, uncontrollable_only=True)
        if offending is not None:
            return Impossible(offending.to_left_run())
        omega = {t for t in last_controllable_frontier(cc, bad) if t[0] in costs}
        cut = {(s.left, e.left_event, d.left) for s, e, d in omega} & current.transitions
        disabled |= cut
        current = disable_transitions(current, cut)


@given(cyclic_nfas())
@settings(max_examples=60, deadline=None)
def test_secret_only_dss_is_the_part_reached_from_the_secret_initials(nfa):
    whole, part = cc_dss(nfa), cc_dss(nfa, secret_only=True)
    reached = cc_observable_costs(whole, whole.secret_initials)
    assert part.initials == whole.secret_initials
    assert part.states == reached.keys()
    assert part.transitions == {t for t in whole.transitions if t[0] in reached}


def outcome_text(outcome):
    """What an enforcement outcome shows: the cut and the subsystem, or
    the witness."""
    if isinstance(outcome, Impossible):
        return ("impossible", outcome.witness)
    system = outcome.subsystem
    return ("enforced", outcome.disabled, system.states, system.transitions, system.initial, system.secret)


def check_enforcers_match_whole_compositions(nfa):
    for k in (0, 1, 2, 5):
        assert outcome_text(enforce_k_sso(nfa, k)) == outcome_text(reference_enforce_k_sso(nfa, k)), f"K={k}"
    assert outcome_text(enforce_siso(nfa)) == outcome_text(reference_enforce_siso(nfa))


@given(cyclic_nfas(), st.sets(st.sampled_from(OBSERVABLE + UNOBSERVABLE)))
@settings(max_examples=150, deadline=None)
def test_enforcers_match_the_whole_compositions(nfa, uncontrollable):
    alphabet = tuple(dataclasses.replace(e, controllable=e.name not in uncontrollable) for e in nfa.alphabet)
    check_enforcers_match_whole_compositions(nfa.replace(alphabet=alphabet))


def test_enforcers_match_the_whole_compositions_on_golden_instances():
    rng = random.Random(GOLDEN_SEED)
    for index in range(100):
        nfa = random_cyclic_nfa(rng)
        try:
            check_enforcers_match_whole_compositions(nfa)
        except AssertionError as exc:
            raise AssertionError(f"instance {index}: {exc}") from exc


@given(cyclic_nfas(), st.sets(st.sampled_from(OBSERVABLE + UNOBSERVABLE)))
@settings(max_examples=500, deadline=None)
def test_verifier_says_opaque_exactly_when_the_enforcer_cuts_nothing(nfa, uncontrollable):
    # The early-stopped verdict and the first enforcement round, on the
    # whole composition or its first K layers, read one offender rule.
    alphabet = tuple(dataclasses.replace(e, controllable=e.name not in uncontrollable) for e in nfa.alphabet)
    nfa = nfa.replace(alphabet=alphabet)
    pairs = [(verify_k_sso(nfa, k), enforce_k_sso(nfa, k)) for k in range(4)]
    pairs += [
        (verify(nfa), enforce(nfa))
        for verify, enforce in ((verify_scso, enforce_scso), (verify_siso, enforce_siso), (verify_inf_sso, enforce_inf_sso))
    ]
    for verdict, outcome in pairs:
        assert verdict.opaque == (isinstance(outcome, Enforced) and not outcome.disabled), (verdict.notion, verdict.k)


def restricted(transitions, initial):
    """The states reachable from ``initial`` over ``transitions``, and the
    transitions leaving them."""
    alive, todo = set(initial), list(initial)
    while todo:
        x = todo.pop()
        for src, _, dst in transitions:
            if src == x and dst not in alive:
                alive.add(dst)
                todo.append(dst)
    return alive, {t for t in transitions if t[0] in alive}


@given(cyclic_nfas(), st.data())
@settings(max_examples=60, deadline=None)
def test_sorted_transitions_is_natural_order(nfa, data):
    assert nfa.sorted_transitions() == sorted(
        nfa.transitions, key=lambda t: tuple(natural_key(x) for x in t)
    )
    assert nfa.sorted_states() == sorted(nfa.states, key=natural_key)
    # Each derived automaton, with the initial states and transitions of its
    # set-based reference. The subautomata derive from a derived automaton,
    # as in an enforcement round.
    cut = data.draw(st.sets(st.sampled_from(sorted(nfa.transitions)))) if nfa.transitions else set()
    base = disable_transitions(nfa, cut)
    secret = base.secret
    kept = {t for t in base.transitions if t[0] not in secret and t[2] not in secret}
    obs = subset_construction(base)
    seeds = {frozenset(q) - secret for q in obs.estimates if secret & set(q) and set(q) - secret}
    pruned, pruned_seeds = nonsecret_subautomaton(base, obs)
    assert pruned_seeds == seeds
    cases = [
        (accessible_part(nfa), nfa.initial, nfa.transitions),
        (base, nfa.initial, nfa.transitions - cut),
        (initial_secret_subautomaton(base), secret, base.transitions),
        (dss_subautomaton(base), base.initial - secret, kept),
        (pruned, frozenset().union(*seeds), kept),
    ]
    for derived, initial, transitions in cases:
        states, edges = restricted(transitions, initial)
        assert derived.states == states
        assert derived.transitions == edges
        assert derived.initial == initial
        assert derived.secret == nfa.secret & states
        assert derived.sorted_states() == sorted(states, key=natural_key)
        assert derived.by_source.keys() == states
        for x in states:
            assert Counter(derived.by_source[x]) == Counter((e, d) for s, e, d in edges if s == x)


@given(cyclic_nfas())
@settings(max_examples=60, deadline=None)
def test_by_target_lists_each_in_edge_once(nfa):
    assert nfa.by_target.keys() == nfa.states
    for x in nfa.states:
        assert Counter(nfa.by_target[x]) == Counter((s, e) for s, e, d in nfa.transitions if d == x)


@given(cyclic_nfas())
@settings(max_examples=60, deadline=None)
def test_sorted_estimates_is_plain_tuple_order(nfa):
    obs = subset_construction(nfa)
    assert obs.sorted_estimates() == sorted(obs.estimates)


class TestCachedHash:
    def test_replace_recomputes_the_hash(self):
        state = CcState("1", ("2", "10"))
        moved = dataclasses.replace(state, left="3")
        assert hash(moved) == hash(CcState("3", ("2", "10")))
        assert moved in {CcState("3", ("2", "10"))}
        assert dataclasses.replace(moved, right=None) in {CcState("3", None)}

    def test_pickle_round_trip_in_process(self):
        state = CcState("1", ("2", "10"))
        assert pickle.loads(pickle.dumps(state)) in {state}
        event = CcEvent("a", None)
        assert pickle.loads(pickle.dumps(event)) in {event}

    def test_event_hash_follows_its_fields(self):
        assert dataclasses.replace(CcEvent("a", None), right_event="a") in {CcEvent("a", "a")}
        assert CcEvent("a", "a") in frozenset({CcEvent("a", "a")})

    def test_hash_does_not_outlive_the_process(self, tmp_path):
        src = str(Path(strongopacity.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        blob = tmp_path / "states.pickle"
        dump = (
            "import pickle, sys\n"
            "from strongopacity import CcEvent, CcState\n"
            "states = [CcState('1', ('2', '10')), CcState('x', None), CcEvent('a', None)]\n"
            "open(sys.argv[1], 'wb').write(pickle.dumps((states, set(states))))\n"
        )
        load = (
            "import pickle, sys\n"
            "from strongopacity import CcEvent, CcState\n"
            "states, pool = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "fresh = {CcState('1', ('2', '10')), CcState('x', None), CcEvent('a', None)}\n"
            "assert all(s in fresh for s in states), 'loaded state not found'\n"
            "assert fresh <= pool, 'fresh state not found in the loaded set'\n"
        )
        for seed, script in (("1", dump), ("2", load)):
            done = subprocess.run(
                [sys.executable, "-c", script, str(blob)],
                env=dict(env, PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert done.returncode == 0, done.stderr
