"""Spans around the package's layers, and the per-layer metrics built from them.

A layer is one module of the package.  ``Tracer.install`` replaces every
public function of each layer module with a wrapper, at every import site
(``verification.cc_hat`` as well as ``composition.cc_hat`` and the package
namespace), and wraps the lazy ``by_source``/``by_target`` indexes of ``Nfa``
and ``CcAutomaton``.  ``uninstall`` puts the originals back.  Nothing in the
package itself changes.

Each call records a span: name, start, end, parent span and job id.  Self
time is a span's duration minus that of its child spans.  Leaf helpers that
run once per element or per observer step (``natural_key``, ``sort_states``,
``unobservable_reach``, ``make_estimate``, ``estimate_name``) are not
wrapped: wrapping them would multiply the spans and the run time, and their
time stays in the self time of the caller.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

from workloads import WORKLOADS

LAYERS = (
    "automaton",
    "observer",
    "subautomata",
    "composition",
    "search",
    "verification",
    "enforcement",
    "modelio",
    "cli",
)
LEAF_HELPERS = {"natural_key", "sort_states", "unobservable_reach", "make_estimate", "estimate_name"}
INDEXES = (("automaton", "Nfa"), ("composition", "CcAutomaton"))
INDEX_NAMES = ("by_source", "by_target")


def _observer_key(args) -> tuple:
    nfa = args[0]
    seeds = frozenset(frozenset(s) for s in args[1]) if len(args) > 1 else None
    return (hash(nfa), len(nfa.states), len(nfa.transitions), seeds)


# What a span keeps besides its timing, computed from a call's arguments and
# result; this is how sizes are counted at the layer boundary.
INFO = {
    "observer.subset_construction": lambda args, result: (len(result.estimates), _observer_key(args)),
    "observer.multi_initial_observer": lambda args, result: (len(result.estimates), _observer_key(args)),
    "composition.product": lambda args, result: (len(result.states), len(result.transitions)),
    "search.cc_observable_costs": lambda args, result: len(result),
    "enforcement.last_controllable_frontier": lambda args, result: len(result),
    "automaton.disable_transitions": lambda args, result: len(frozenset(args[1])),
    "modelio.parse_model": lambda args, result: len(args[0]),
    "modelio.serialize_model": lambda args, result: len(result),
}


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent, job, child_ns, info]."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.targets: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self.stack
        info = INFO.get(name)
        export = name == "modelio.export_graph"
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, self.job, 0, None]
            spans.append(record)
            stack.append(index)
            before = args[1].tell() if export else 0
            record[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if record[3] >= 0:
                    spans[record[3]][5] += record[2] - record[1]
            if info is not None:
                record[6] = info(args, result)
            elif export:
                record[6] = args[1].tell() - before
            return result

        return wrapper

    def install(self) -> None:
        modules = [self.package] + [
            m for n, m in sys.modules.items() if n.startswith(self.package.__name__ + ".") and m
        ]
        for layer in LAYERS:
            module = sys.modules.get(f"{self.package.__name__}.{layer}")
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                if (
                    not isinstance(value, types.FunctionType)
                    or value.__module__ != module.__name__
                    or attr.startswith("_")
                    or attr in LEAF_HELPERS
                ):
                    continue
                name = f"{layer}.{attr}"
                self.targets.add(name)
                wrapped = self._wrap(name, value)
                for site in modules:
                    for site_attr, site_value in list(vars(site).items()):
                        if site_value is value:
                            self._restore.append((site, site_attr, value))
                            setattr(site, site_attr, wrapped)
        for layer, cls_name in INDEXES:
            cls = getattr(sys.modules.get(f"{self.package.__name__}.{layer}"), cls_name, None)
            for attr in INDEX_NAMES:
                prop = vars(cls).get(attr) if cls is not None else None
                if not isinstance(prop, functools.cached_property):
                    continue
                name = f"{layer}.{cls_name}.{attr}"
                self.targets.add(name)
                wrapped = functools.cached_property(self._wrap(name, prop.func))
                wrapped.__set_name__(cls, attr)
                self._restore.append((cls, attr, prop))
                setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for site, attr, value in reversed(self._restore):
            setattr(site, attr, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, job, _, _) in enumerate(self.spans):
                handle.write(json.dumps([index, name, start, end, parent, job]) + "\n")


# -- per-layer metrics --------------------------------------------------------

ALL = WORKLOADS
LIBRARY_AND_CLI_ENFORCE = ("enforce_rounds", "cli_large_models")
VERIFYING = ("verify_mix", "cli_large_models")
CLI_ONLY = ("cli_large_models",)
ENFORCE_ONLY = ("enforce_rounds",)

AUTOMATON_INDEX = ("automaton.Nfa.by_source", "automaton.Nfa.by_target")
CC_INDEX = ("composition.CcAutomaton.by_source", "composition.CcAutomaton.by_target")
OBSERVERS = ("observer.subset_construction", "observer.multi_initial_observer")
SUBAUTOMATA = (
    "subautomata.initial_secret_subautomaton",
    "subautomata.nonsecret_subautomaton",
    "subautomata.dss_subautomaton",
)
VERIFIERS = {
    "cso": "verification.verify_cso",
    "k_sso": "verification.verify_k_sso",
    "scso": "verification.verify_scso",
    "siso": "verification.verify_siso",
    "inf_sso": "verification.verify_inf_sso",
}
ENFORCERS = (
    "enforcement.enforce_k_sso",
    "enforcement.enforce_scso",
    "enforcement.enforce_siso",
    "enforcement.enforce_inf_sso",
)

# name -> (unit, better, wrap targets the value needs, workloads whose jobs
# must call at least one of those targets).  On any other workload a layer
# that is never called reads 0.  The CLI jobs verify every notion but siso.
METRICS = {
    "automaton.accessible_part.calls": ("count", "lower", ("automaton.accessible_part",), ALL),
    "automaton.accessible_part.self_ms": ("ms", "lower", ("automaton.accessible_part",), ALL),
    "automaton.disable_transitions.self_ms": ("ms", "lower", ("automaton.disable_transitions",), LIBRARY_AND_CLI_ENFORCE),
    "automaton.index.self_ms": ("ms", "lower", AUTOMATON_INDEX, ALL),
    "observer.subset_construction.calls": ("count", "lower", ("observer.subset_construction",), ALL),
    "observer.subset_construction.self_ms": ("ms", "lower", ("observer.subset_construction",), ALL),
    "observer.multi_initial_observer.self_ms": ("ms", "lower", ("observer.multi_initial_observer",), ALL),
    "observer.estimates": ("count", "lower", OBSERVERS, ALL),
    "observer.us_per_estimate": ("us", "lower", OBSERVERS, ALL),
    "observer.rebuilds": ("count", "lower", OBSERVERS, ALL),
    "subautomata.calls": ("count", "lower", SUBAUTOMATA, ALL),
    "subautomata.self_ms": ("ms", "lower", SUBAUTOMATA, ALL),
    "composition.product.calls": ("count", "lower", ("composition.product",), ALL),
    "composition.product.self_ms": ("ms", "lower", ("composition.product",), ALL),
    "composition.product.states": ("count", "lower", ("composition.product",), ALL),
    "composition.product.transitions": ("count", "lower", ("composition.product",), ALL),
    "composition.us_per_state": ("us", "lower", ("composition.product",), ALL),
    "composition.index.self_ms": ("ms", "lower", CC_INDEX, ALL),
    "search.cc_observable_costs.calls": ("count", "lower", ("search.cc_observable_costs",), ALL),
    "search.cc_observable_costs.self_ms": ("ms", "lower", ("search.cc_observable_costs",), ALL),
    "search.cc_shortest_path.calls": ("count", "lower", ("search.cc_shortest_path",), ALL),
    "search.cc_shortest_path.self_ms": ("ms", "lower", ("search.cc_shortest_path",), ALL),
    "search.settled_states": ("count", "lower", ("search.cc_observable_costs",), ALL),
    "search.settled_per_product_state": ("ratio", "lower", ("search.cc_observable_costs", "composition.product"), ALL),
    **{
        f"verification.{short}_ms": ("ms", "lower", (target,), ("verify_mix",) if short == "siso" else VERIFYING)
        for short, target in VERIFIERS.items()
    },
    "verification.self_ms": ("ms", "lower", tuple(VERIFIERS.values()), VERIFYING),
    "verification.product_states_built": ("count", "lower", tuple(VERIFIERS.values()), VERIFYING),
    "enforcement.rounds": ("count", "lower", ENFORCERS + ("composition.cc_hat", "composition.cc_dss"), LIBRARY_AND_CLI_ENFORCE),
    "enforcement.self_ms": ("ms", "lower", ENFORCERS, LIBRARY_AND_CLI_ENFORCE),
    "enforcement.frontier.self_ms": ("ms", "lower", ("enforcement.last_controllable_frontier",), LIBRARY_AND_CLI_ENFORCE),
    "enforcement.frontier_transitions": ("count", "lower", ("enforcement.last_controllable_frontier",), LIBRARY_AND_CLI_ENFORCE),
    "enforcement.cut_transitions": ("count", "lower", ("automaton.disable_transitions",), LIBRARY_AND_CLI_ENFORCE),
    "enforcement.cut_per_frontier": ("ratio", "lower", ("automaton.disable_transitions", "enforcement.last_controllable_frontier"), LIBRARY_AND_CLI_ENFORCE),
    "enforcement.impossible_ratio": ("ratio", "lower", ENFORCERS, LIBRARY_AND_CLI_ENFORCE),
    "enforcement.cut_over_min": ("ratio", "lower", ENFORCERS, ENFORCE_ONLY),
    "enforcement.small_frontier_cut": ("count", "lower", ENFORCERS, ENFORCE_ONLY),
    "enforcement.small_min_cut": ("count", "lower", ENFORCERS, ENFORCE_ONLY),
    "modelio.parse_model.self_ms": ("ms", "lower", ("modelio.parse_model",), CLI_ONLY),
    "modelio.parse_mb_per_s": ("MB/s", "higher", ("modelio.parse_model",), CLI_ONLY),
    "modelio.serialize_model.self_ms": ("ms", "lower", ("modelio.serialize_model",), CLI_ONLY),
    "modelio.export_graph.self_ms": ("ms", "lower", ("modelio.export_graph",), CLI_ONLY),
    "modelio.bytes_out": ("bytes", "lower", ("modelio.serialize_model", "modelio.export_graph"), CLI_ONLY),
    "cli.run_cli.self_ms": ("ms", "lower", ("cli.run_cli",), CLI_ONLY),
    "trace.overhead_ratio": ("ratio", "lower", (), ()),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer value that can be computed from the spans, plus the
    values measured outside them (``extra``)."""
    spans = tracer.spans
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    layer_self_ns: dict[str, int] = defaultdict(int)
    for name, start, end, _, _, child, _ in spans:
        calls[name] += 1
        self_ns[name] += end - start - child
        layer_self_ns[name.split(".", 1)[0]] += end - start - child

    def layer_of(index: int) -> str:
        return spans[index][0].split(".", 1)[0] if index >= 0 else ""

    def under(index: int, layer: str) -> bool:
        parent = spans[index][3]
        while parent >= 0:
            if layer_of(parent) == layer:
                return True
            parent = spans[parent][3]
        return False

    ms = lambda names: sum(self_ns[n] for n in names) / 1e6
    estimates = rebuilds = states = transitions = built_in_verify = settled = 0
    frontier = cut = rounds = parse_bytes = bytes_out = 0
    verify_ns: dict[str, int] = defaultdict(int)
    seen_observers: set[tuple] = set()
    for index, (name, start, end, parent, job, _, info) in enumerate(spans):
        if name in OBSERVERS:
            estimates += info[0]
            key = (job,) + info[1]
            rebuilds += key in seen_observers
            seen_observers.add(key)
        elif name == "composition.product":
            states += info[0]
            transitions += info[1]
            if under(index, "verification"):
                built_in_verify += info[0]
        elif name == "search.cc_observable_costs":
            settled += info
        elif name == "enforcement.last_controllable_frontier":
            frontier += info
        elif name == "automaton.disable_transitions" and layer_of(parent) == "enforcement":
            cut += info
        elif name in ("composition.cc_hat", "composition.cc_dss") and layer_of(parent) == "enforcement":
            rounds += 1
        elif name == "modelio.parse_model":
            parse_bytes += info
        elif name in ("modelio.serialize_model", "modelio.export_graph"):
            bytes_out += info
        if name in VERIFIERS.values() and layer_of(parent) != "verification":
            verify_ns[name] += end - start

    values = {
        "automaton.accessible_part.calls": calls["automaton.accessible_part"],
        "automaton.accessible_part.self_ms": ms(["automaton.accessible_part"]),
        "automaton.disable_transitions.self_ms": ms(["automaton.disable_transitions"]),
        "automaton.index.self_ms": ms(AUTOMATON_INDEX),
        "observer.subset_construction.calls": calls["observer.subset_construction"],
        "observer.subset_construction.self_ms": ms(["observer.subset_construction"]),
        "observer.multi_initial_observer.self_ms": ms(["observer.multi_initial_observer"]),
        "observer.estimates": estimates,
        "observer.us_per_estimate": _ratio(ms(OBSERVERS) * 1e3, estimates),
        "observer.rebuilds": rebuilds,
        "subautomata.calls": sum(calls[n] for n in SUBAUTOMATA),
        "subautomata.self_ms": layer_self_ns["subautomata"] / 1e6,
        "composition.product.calls": calls["composition.product"],
        "composition.product.self_ms": ms(["composition.product"]),
        "composition.product.states": states,
        "composition.product.transitions": transitions,
        "composition.us_per_state": _ratio(ms(["composition.product"]) * 1e3, states),
        "composition.index.self_ms": ms(CC_INDEX),
        "search.cc_observable_costs.calls": calls["search.cc_observable_costs"],
        "search.cc_observable_costs.self_ms": ms(["search.cc_observable_costs"]),
        "search.cc_shortest_path.calls": calls["search.cc_shortest_path"],
        "search.cc_shortest_path.self_ms": ms(["search.cc_shortest_path"]),
        "search.settled_states": settled,
        "search.settled_per_product_state": _ratio(settled, states),
        **{f"verification.{short}_ms": verify_ns[target] / 1e6 for short, target in VERIFIERS.items()},
        "verification.self_ms": layer_self_ns["verification"] / 1e6,
        "verification.product_states_built": built_in_verify,
        "enforcement.rounds": rounds,
        "enforcement.self_ms": layer_self_ns["enforcement"] / 1e6,
        "enforcement.frontier.self_ms": ms(["enforcement.last_controllable_frontier"]),
        "enforcement.frontier_transitions": frontier,
        "enforcement.cut_transitions": cut,
        "enforcement.cut_per_frontier": _ratio(cut, frontier),
        "modelio.parse_model.self_ms": ms(["modelio.parse_model"]),
        "modelio.parse_mb_per_s": _ratio(parse_bytes / 1e6, ms(["modelio.parse_model"]) / 1e3),
        "modelio.serialize_model.self_ms": ms(["modelio.serialize_model"]),
        "modelio.export_graph.self_ms": ms(["modelio.export_graph"]),
        "modelio.bytes_out": bytes_out,
        "cli.run_cli.self_ms": layer_self_ns["cli"] / 1e6,
    }
    values.update(extra)
    return values


def report(tracer: Tracer, workload: str, values: dict[str, float]) -> tuple[dict, list[str]]:
    """The per-layer metrics, with ``None`` for each one that is missing:
    its wrap target no longer exists, or its layer was never called on a
    workload that must call it.  Returns the metrics and why each is missing."""
    calls: dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        calls[span[0]] += 1
    metrics, missing = {}, []
    for name, (unit, _, needs, expected) in METRICS.items():
        value = values.get(name)
        absent = [n for n in needs if n not in tracer.targets]
        if absent:
            value = None
            missing.append(f"{name}: wrap target {', '.join(absent)} not found")
        elif workload in expected and not any(calls[n] for n in needs):
            value = None
            missing.append(f"{name}: {', '.join(needs)} never called on {workload}")
        elif value is None:
            missing.append(f"{name}: not measured")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, missing
