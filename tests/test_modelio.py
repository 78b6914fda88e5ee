import io
import json
import random
import re
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from strongopacity import (
    CcState,
    EmptyModel,
    Event,
    InvalidEvent,
    InvalidState,
    IoError,
    Nfa,
    Observer,
    OpacityError,
    ParseError,
    UnknownReference,
    cc_dss,
    cc_full_observer,
    cc_hat,
    export_graph,
    multi_initial_observer,
    parse_model,
    product,
    serialize_model,
    subset_construction,
    unobservable_reach,
)
from strongopacity.automaton import natural_key

from conftest import MODELS
from corpus import corpus, random_cyclic_nfa
from test_golden import SEED as GOLDEN_SEED
from test_kernel import cyclic_nfas


def dot_lines(structure):
    sink = io.StringIO()
    export_graph(structure, sink)
    return sink.getvalue().splitlines()


def node_lines(lines):
    return [l for l in lines if "[" in l and "->" not in l]


def edge_lines(lines):
    return [l for l in lines if "->" in l]


class TestParseModel:
    def test_nine_state_document(self):
        nfa = parse_model((MODELS / "delayed_leak.json").read_bytes())
        assert len(nfa.states) == 9
        assert len(nfa.transitions) == 12
        assert nfa.initial == {"0"}
        assert nfa.secret == {"5", "7"}
        assert nfa.unobservable_events == {"u"}
        assert not nfa.is_controllable("c")

    def test_minimal_document(self):
        nfa = parse_model(b'{"states": [{"id": "only"}]}')
        assert nfa.states == {"only"}
        assert nfa.alphabet == ()
        assert nfa.transitions == frozenset()

    def test_integer_ids_coerced(self):
        nfa = parse_model(
            b'{"states": [{"id": 0, "initial": true}, {"id": 1}],'
            b' "events": [{"name": "a"}],'
            b' "transitions": [{"from": 0, "event": "a", "to": 1}]}'
        )
        assert nfa.states == {"0", "1"}
        assert ("0", "a", "1") in nfa.transitions

    def test_flag_defaults(self):
        nfa = parse_model(
            b'{"states": [{"id": "x"}], "events": [{"name": "a"}]}'
        )
        assert nfa.initial == frozenset() and nfa.secret == frozenset()
        event = nfa.event("a")
        assert event.observable and event.controllable

    def test_undeclared_event(self):
        with pytest.raises(UnknownReference):
            parse_model(
                b'{"states": [{"id": "x"}],'
                b' "transitions": [{"from": "x", "event": "ghost", "to": "x"}]}'
            )

    def test_undeclared_state(self):
        with pytest.raises(UnknownReference):
            parse_model(
                b'{"states": [{"id": "x"}], "events": [{"name": "a"}],'
                b' "transitions": [{"from": "x", "event": "a", "to": "ghost"}]}'
            )

    def test_empty_state_list(self):
        with pytest.raises(EmptyModel):
            parse_model(b'{"states": []}')

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_model(b'{"states": [,]}')
        assert excinfo.value.line == 1
        assert excinfo.value.col > 1

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises(ParseError, match="not UTF-8") as excinfo:
            parse_model(b'{"states": [{"id": "x"}],\n "events": [{"name": "\xff"}]}')
        assert (excinfo.value.line, excinfo.value.col) == (2, 23)

    def test_deep_nesting_rejected(self):
        with pytest.raises(ParseError, match="nests too deeply"):
            parse_model(b"[" * 100_000)

    def test_huge_integer_rejected(self):
        # Past the interpreter's integer digit limit, json raises a plain
        # ValueError: in an id, the version or a field nothing reads.
        huge = b"9" * 5000
        for doc in (
            b'{"states": [{"id": ' + huge + b', "initial": true}]}',
            b'{"version": ' + huge + b', "states": [{"id": "x"}]}',
            b'{"states": [{"id": "x", "note": ' + huge + b"}]}",
        ):
            with pytest.raises(ParseError, match="integer too long"):
                parse_model(doc)

    def test_lone_surrogate_id_rejected(self):
        # A JSON escape can name a lone surrogate, which no UTF-8 output can
        # hold; a surrogate pair is one character and is accepted.
        for doc, path in (
            (b'{"states": [{"id": "\\ud800", "initial": true}]}', r"states\[0\]\.id"),
            (b'{"states": [{"id": "x"}], "events": [{"name": "a\\udfff"}]}', r"events\[0\]\.name"),
        ):
            with pytest.raises(ParseError, match=path + " holds a lone surrogate"):
                parse_model(doc)
        nfa = parse_model(b'{"states": [{"id": "\\ud83d\\ude00", "initial": true}]}')
        assert serialize_model(nfa).decode("utf-8").count("\U0001f600") == 1

    def test_duplicate_declarations(self):
        with pytest.raises(InvalidState):
            parse_model(b'{"states": [{"id": "x"}, {"id": "x"}]}')
        with pytest.raises(InvalidEvent):
            parse_model(
                b'{"states": [{"id": "x"}],'
                b' "events": [{"name": "a"}, {"name": "a"}]}'
            )

    def test_structural_problems(self):
        for payload in (b"[]", b'{"states": [{}]}', b'{"states": [{"id": "x"}], "version": "one"}'):
            with pytest.raises((ParseError, EmptyModel)):
                parse_model(payload)


    @pytest.mark.parametrize(
        "entry, path",
        [
            ('"states": [{"id": "x", "secret": "false"}]', "states[0].secret"),
            ('"states": [{"id": "x"}, {"id": "y", "initial": 1}]', "states[1].initial"),
            ('"states": [{"id": "x"}], "events": [{"name": "a", "observable": "false"}]', "events[0].observable"),
            ('"states": [{"id": "x"}], "events": [{"name": "a", "controllable": null}]', "events[0].controllable"),
        ],
    )
    def test_non_boolean_flag_rejected(self, entry, path):
        with pytest.raises(ParseError, match="^" + re.escape(path) + " must be true or false"):
            parse_model("{" + entry + "}")

    @pytest.mark.parametrize(
        "entry, error, message",
        [
            *(
                ({"from": "x", "event": "a", "to": "x", key: bad}, ParseError,
                 f"transitions[1].{key} must be a string (or integer) identifier")
                for key in ("from", "to", "event")
                for bad in (True, False, 1.5, None, ["x"])
            ),
            (["x", "a", "x"], ParseError, "transitions[1] needs 'from', 'event' and 'to'"),
            ("x", ParseError, "transitions[1] needs 'from', 'event' and 'to'"),
            (None, ParseError, "transitions[1] needs 'from', 'event' and 'to'"),
            ({"from": "x", "event": "a"}, ParseError, "transitions[1] needs 'from', 'event' and 'to'"),
            ({"event": "a", "to": "x"}, ParseError, "transitions[1] needs 'from', 'event' and 'to'"),
            # With several faults, the first field in from/to/event order wins,
            # and a wrong type wins over an undeclared name.
            ({"from": True, "event": None, "to": 1.5}, ParseError,
             "transitions[1].from must be a string (or integer) identifier"),
            ({"from": "y", "event": None, "to": "x"}, ParseError,
             "transitions[1].event must be a string (or integer) identifier"),
            ({"from": 2, "event": "a", "to": "x"}, UnknownReference, "undeclared state: '2'"),
            ({"from": "x", "event": 3, "to": "x"}, UnknownReference, "undeclared event: '3'"),
        ],
    )
    def test_malformed_transition_field_rejected(self, entry, error, message):
        doc = {
            "states": [{"id": "x", "initial": True}, {"id": "1"}],
            "events": [{"name": "a"}, {"name": "2"}],
            "transitions": [{"from": "x", "event": "a", "to": "1"}, entry],
        }
        with pytest.raises(OpacityError) as excinfo:
            parse_model(json.dumps(doc))
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"id": True}, "states[1].id must be a string (or integer) identifier"),
            ({"id": 1.5, "initial": "yes"}, "states[1].id must be a string (or integer) identifier"),
            ({"id": None}, "states[1].id must be a string (or integer) identifier"),
            ({"id": "y", "initial": 1, "secret": "no"}, "states[1].initial must be true or false, not 1"),
            ({"id": "y", "secret": "no"}, 'states[1].secret must be true or false, not "no"'),
            (["x"], "states[1] needs an 'id'"),
        ],
    )
    def test_malformed_state_field_rejected(self, entry, message):
        with pytest.raises(ParseError) as excinfo:
            parse_model(json.dumps({"states": [{"id": "x"}, entry]}))
        assert str(excinfo.value) == message

    def test_integer_ids_are_accepted(self):
        nfa = parse_model(
            '{"states": [{"id": "x", "initial": true}, {"id": 1, "secret": true}],'
            ' "events": [{"name": "a"}, {"name": 2}],'
            ' "transitions": [{"from": 1, "event": "a", "to": "x"}, {"from": "x", "event": 2, "to": 1}]}'
        )
        assert nfa == Nfa(
            frozenset({"x", "1"}),
            (Event("a"), Event("2")),
            frozenset({("1", "a", "x"), ("x", "2", "1")}),
            frozenset({"x"}),
            frozenset({"1"}),
        )

    @pytest.mark.parametrize("version", ["99", "0", "true", "1.0", '"1"'])
    def test_unsupported_version_rejected(self, version):
        with pytest.raises(ParseError, match="version must be 1"):
            parse_model('{"version": ' + version + ', "states": [{"id": "x"}]}')

    def test_structural_error_names_entry(self):
        with pytest.raises(ParseError) as excinfo:
            parse_model('{"states": [{"id": "x"}, {"id": "y"}, {"id": "z"}, {"id": ["w"]}]}')
        assert str(excinfo.value) == "states[3].id must be a string (or integer) identifier"
        with pytest.raises(ParseError, match=r"^transitions\[0\] needs 'from'"):
            parse_model('{"states": [{"id": "x"}], "transitions": [{"from": "x"}]}')

    @pytest.mark.parametrize("field", ["events", "transitions"])
    def test_non_list_section_rejected(self, field):
        with pytest.raises(ParseError, match=f"{field} must be a list"):
            parse_model('{"states": [{"id": "x"}], "' + field + '": null}')

    def test_many_states_parse_in_linear_time(self):
        # a list membership check per state made this quadratic: about 25x
        # the time of json.loads at 6,000 states, and growing with the count
        n = 20000
        text = json.dumps({"states": [{"id": str(i)} for i in range(n)]})
        start = time.perf_counter()
        json.loads(text)
        baseline = time.perf_counter() - start
        start = time.perf_counter()
        assert len(parse_model(text).states) == n
        assert time.perf_counter() - start < 30 * baseline + 0.5


class TestRoundTrip:
    def test_goldens(self):
        for path in sorted(MODELS.glob("*.json")):
            nfa = parse_model(path.read_bytes())
            assert parse_model(serialize_model(nfa)) == nfa

    def test_random_corpus(self):
        for nfa in corpus(20260804, 25):
            assert parse_model(serialize_model(nfa)) == nfa

    def test_parse_builds_what_the_public_constructor_builds(self):
        # ``parse_model`` builds its automaton without ``Nfa.__post_init__``;
        # the events are listed last to first, so the alphabet is sorted.
        rng = random.Random(GOLDEN_SEED)
        docs = [path.read_bytes() for path in sorted(MODELS.glob("*.json"))]
        docs += [serialize_model(random_cyclic_nfa(rng)) for _ in range(200)]
        for text in docs:
            doc = json.loads(text)
            doc["events"].reverse()
            parsed = parse_model(json.dumps(doc))
            fresh = Nfa(
                states={s["id"] for s in doc["states"]},
                alphabet=[Event(e["name"], e["observable"], e["controllable"]) for e in doc["events"]],
                transitions={(t["from"], t["event"], t["to"]) for t in doc["transitions"]},
                initial={s["id"] for s in doc["states"] if s["initial"]},
                secret={s["id"] for s in doc["states"] if s["secret"]},
            )
            assert parsed == fresh
            assert parsed.alphabet == fresh.alphabet
            assert hash(parsed) == hash(fresh)
            assert parsed.sorted_states() == fresh.sorted_states()

    def test_serialization_is_deterministic(self):
        nfa = parse_model((MODELS / "two_initials.json").read_bytes())
        assert serialize_model(nfa) == serialize_model(nfa)


def reference_document(nfa):
    """The model document as ``json.dumps`` writes it: the reference for
    ``serialize_model``'s bytes."""
    doc = {
        "version": 1,
        "states": [
            {"id": x, "initial": x in nfa.initial, "secret": x in nfa.secret} for x in nfa.sorted_states()
        ],
        "events": [
            {"name": e.name, "observable": e.observable, "controllable": e.controllable} for e in nfa.alphabet
        ],
        "transitions": [{"from": src, "event": event, "to": dst} for src, event, dst in nfa.sorted_transitions()],
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode()


# Control characters, JSON's own escapes, non-BMP characters, the line and
# paragraph separators (which JSON leaves raw) and names that read as numbers.
HOSTILE_NAMES = ["\x00", "\x1f\x7f", "\t\n\r", '"', "\\", '\\"', "\U0001f600", "a\U0010ffff", "\u2028\u2029",
                 "é", "", "1", "01", "-1", "1e3", "10" * 40]


class TestWriter:
    @given(cyclic_nfas())
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_json_dumps(self, nfa):
        assert serialize_model(nfa) == reference_document(nfa)

    def test_hostile_names(self):
        names = HOSTILE_NAMES
        nfa = Nfa(
            states=frozenset(names),
            alphabet=tuple(Event(name, i % 2 == 0, i % 3 == 0) for i, name in enumerate(names)),
            transitions=frozenset((x, e, y) for x, e, y in zip(names, names[3:] + names[:3], names[1:] + names[:1])),
            initial=frozenset(names[::4]),
            secret=frozenset(names[1::3]),
        )
        text = serialize_model(nfa)
        assert text == reference_document(nfa)
        assert parse_model(text) == nfa

    def test_empty_sections(self):
        nfa = Nfa(states=frozenset({"0"}), alphabet=(), transitions=frozenset(), initial=frozenset({"0"}), secret=frozenset())
        text = serialize_model(nfa)
        assert text == reference_document(nfa)
        assert b'  "events": [],\n  "transitions": []\n}\n' in text
        assert parse_model(text) == nfa


class TestExportGraph:
    def test_composition_line_counts(self, delayed_leak):
        lines = dot_lines(cc_hat(delayed_leak))
        assert len(node_lines(lines)) == 5
        assert len(edge_lines(lines)) == 6  # parallel event pairs share one line
        assert any('label="(b,b),(c,c)"' in l for l in edge_lines(lines))

    def test_empty_automaton_is_header_only(self, delayed_leak):
        empty = delayed_leak.replace(initial=frozenset())
        lines = dot_lines(cc_hat(empty))
        assert node_lines(lines) == [] and edge_lines(lines) == []

    def test_deterministic_output(self, two_initials):
        first = dot_lines(two_initials)
        second = dot_lines(two_initials)
        assert first == second

    def test_nfa_annotations(self, two_initials):
        lines = dot_lines(two_initials)
        assert '  "1" [initial=true, secret=true];' in lines
        assert '  "0" [initial=true, secret=false];' in lines
        assert '  "4" [initial=false, secret=false];' in lines

    def test_observer_nodes_are_estimates(self, delayed_leak):
        lines = dot_lines(subset_construction(delayed_leak))
        assert '  "{0,6}" [initial=true];' in lines
        assert any('"{1,2,3,4,7}"' in l for l in node_lines(lines))

    def test_composition_empty_annotation(self, two_initials):
        from strongopacity import cc_dss

        lines = dot_lines(cc_dss(two_initials))
        assert '  "(9,∅)" [initial=false, empty=true];' in lines

    def test_unsupported_structure(self):
        with pytest.raises(TypeError):
            export_graph(42, io.StringIO())

    def test_failed_write_is_an_io_error(self, two_initials):
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        with pytest.raises(IoError, match="No space left on device"):
            export_graph(two_initials, FullDisk())


# -- DOT export against the export that sorts names --------------------------


def _quote(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _name_sorted_edges(edges):
    """One line per (source, target) name pair, by natural keys of names."""
    grouped = {}
    for src, label, dst in edges:
        grouped.setdefault((src, dst), []).append(label)
    lines = []
    for (src, dst), labels in sorted(grouped.items(), key=lambda kv: (natural_key(kv[0][0]), natural_key(kv[0][1]))):
        joined = ",".join(sorted(set(labels), key=natural_key))
        lines.append(f"  {_quote(src)} -> {_quote(dst)} [label={_quote(joined)}];")
    return lines


def name_sorted_dot(structure):
    """The DOT text of ``structure`` as the export once built it: nodes in
    ``sorted`` order of the states (natural order, estimate tuples, or
    ``CcState.sort_key``), edges grouped by name and sorted by natural keys
    of the names."""
    if isinstance(structure, Nfa):
        lines = ["digraph nfa {"]
        for x in sorted(structure.states, key=natural_key):
            flags = f"initial={str(x in structure.initial).lower()}, secret={str(x in structure.secret).lower()}"
            lines.append(f"  {_quote(x)} [{flags}];")
        lines += _name_sorted_edges(structure.transitions)
    elif isinstance(structure, Observer):
        name = lambda q: "{" + ",".join(q) + "}"
        lines = ["digraph observer {"]
        for q in sorted(structure.estimates):
            lines.append(f"  {_quote(name(q))} [initial={str(q in structure.initials).lower()}];")
        lines += _name_sorted_edges((name(q), event, name(q2)) for (q, event), q2 in structure.delta.items())
    else:
        lines = ["digraph composition {"]
        for s in sorted(structure.states, key=CcState.sort_key):
            flags = f"initial={str(s in structure.initials).lower()}, empty={str(s.is_empty).lower()}"
            lines.append(f"  {_quote(s.name)} [{flags}];")
        lines += _name_sorted_edges((src.name, event.name, dst.name) for src, event, dst in structure.transitions)
    lines.append("}")
    return "\n".join(lines) + "\n"


# Digit runs, DOT and estimate punctuation, and names whose estimate and
# composition names collide ('{a,b}' names both ('a,b',) and ('a', 'b')).
STATE_NAMES = ["1", "01", "10", "2", "a", "b", "a,b", "{1}", "(2)", 'q"1', "b\\2", "1,{2", "x}", "c)", "0", "a,{"]
EVENT_NAMES = ["a", "2", "10", "a,b", '"', "u\\", "(x,ε)", "b"]


def renamed(nfa, states, events):
    """``nfa`` with its states and events renamed by the maps given."""
    return Nfa(
        states=frozenset(states[x] for x in nfa.states),
        alphabet=tuple(Event(events[e.name], e.observable, e.controllable) for e in nfa.alphabet),
        transitions=frozenset((states[s], events[e], states[d]) for s, e, d in nfa.transitions),
        initial=frozenset(states[x] for x in nfa.initial),
        secret=frozenset(states[x] for x in nfa.secret),
    )


def check_dot_as_name_sorted(nfa, seeds, pairs):
    """Every exported structure of ``nfa`` against the name-sorted export,
    byte for byte; and each composition's sorted states and transitions
    against a ``sort_key`` sort."""
    structures = [nfa, subset_construction(nfa), multi_initial_observer(nfa, seeds)]
    compositions = [cc_hat(nfa), cc_full_observer(nfa), cc_dss(nfa)]
    obs = structures[1]
    compositions.append(product(nfa, obs, [CcState(x, q) for x, q in pairs if q is None or q in obs.estimates], True))
    for structure in structures + compositions:
        sink = io.StringIO()
        export_graph(structure, sink)
        assert sink.getvalue() == name_sorted_dot(structure), type(structure).__name__
    for cc in compositions:
        assert cc.sorted_states() == sorted(cc.states, key=CcState.sort_key)
        assert cc.sorted_transitions() == sorted(
            cc.transitions, key=lambda t: (t[0].sort_key(), natural_key(t[1].name), t[2].sort_key())
        )


# Two states and two events but no transition, and three states with no
# event at all: the degenerate inputs of the renderer.
NO_TRANSITIONS = Nfa(
    states=frozenset({"0", "1"}),
    alphabet=(Event("a"), Event("u", observable=False)),
    transitions=frozenset(),
    initial=frozenset({"0"}),
    secret=frozenset({"1"}),
)
NO_ALPHABET = Nfa(
    states=frozenset({"2", "10", "a"}),
    alphabet=(),
    transitions=frozenset(),
    initial=frozenset({"10", "a"}),
    secret=frozenset({"10"}),
)


@pytest.mark.parametrize(
    "build",
    [
        lambda: multi_initial_observer(NO_TRANSITIONS, []),
        lambda: NO_ALPHABET,
        lambda: NO_TRANSITIONS,
        lambda: subset_construction(NO_ALPHABET),
        lambda: cc_full_observer(NO_TRANSITIONS),
        lambda: cc_dss(NO_ALPHABET),
    ],
    ids=["empty-observer", "alphabet-free-nfa", "transition-free-nfa", "alphabet-free-observer",
         "edge-free-composition", "alphabet-free-composition"],
)
def test_dot_of_degenerate_structures(build):
    structure = build()
    sink = io.StringIO()
    export_graph(structure, sink)
    assert sink.getvalue() == name_sorted_dot(structure)
    lines = sink.getvalue().splitlines()
    assert edge_lines(lines) == []
    assert len(node_lines(lines)) == len(structure.estimates if isinstance(structure, Observer) else structure.states)


def test_dot_of_colliding_names_and_digit_estimates():
    # The observer has ('b', 'c') and ('b,c',), both named '{b,c}', and the
    # singletons ('10',) < ('2',), which natural order puts the other way.
    nfa = Nfa(
        states=frozenset({"a", "b", "c", "b,c", "2", "10", "d"}),
        alphabet=(Event("x"), Event("y"), Event("z"), Event("w"), Event("u", observable=False)),
        transitions=frozenset(
            {("a", "x", "b"), ("a", "x", "c"), ("a", "y", "b,c"), ("a", "z", "2"), ("a", "w", "10"),
             ("d", "x", "d"), ("2", "u", "d"), ("10", "x", "a")}
        ),
        initial=frozenset({"a", "d"}),
        secret=frozenset({"b", "10"}),
    )
    pairs = [("d", ("b", "c")), ("d", ("b,c",)), ("a", ("2", "d")), ("a", ("10",)), ("2", None)]
    check_dot_as_name_sorted(nfa, [{"a"}, {"b", "c"}, {"b,c"}, {"10"}], pairs)
    dot = io.StringIO()
    export_graph(subset_construction(nfa), dot)
    lines = dot.getvalue().splitlines()
    assert lines.count('  "{b,c}" [initial=false];') == 2
    assert lines.index('  "{10}" [initial=false];') < lines.index('  "{2,d}" [initial=false];')


@given(cyclic_nfas(), st.data())
@settings(max_examples=100, deadline=None)
def test_dot_matches_the_name_sorted_export(nfa, data):
    states = dict(zip(sorted(nfa.states), data.draw(st.permutations(STATE_NAMES))))
    events = dict(zip(sorted(e.name for e in nfa.alphabet), data.draw(st.permutations(EVENT_NAMES))))
    nfa = renamed(nfa, states, events)
    subsets = st.sets(st.sampled_from(sorted(nfa.states)), min_size=1)
    seeds = [unobservable_reach(nfa, seed) for seed in data.draw(st.lists(subsets, min_size=1, max_size=3))]
    estimates = sorted(subset_construction(nfa).estimates) + [None]
    pair = st.tuples(st.sampled_from(sorted(nfa.states)), st.sampled_from(estimates))
    check_dot_as_name_sorted(nfa, seeds, data.draw(st.lists(pair, min_size=1, max_size=4)))


def test_dot_matches_the_name_sorted_export_on_golden_instances():
    rng = random.Random(GOLDEN_SEED)
    names = random.Random(1)
    for index in range(30):
        nfa = random_cyclic_nfa(rng)
        states = dict(zip(sorted(nfa.states), names.sample(STATE_NAMES, len(STATE_NAMES))))
        events = dict(zip(sorted(e.name for e in nfa.alphabet), names.sample(EVENT_NAMES, len(EVENT_NAMES))))
        nfa = renamed(nfa, states, events)
        seeds = [unobservable_reach(nfa, {x}) for x in sorted(nfa.states)[:3]]
        pairs = [(x, q) for x in sorted(nfa.states)[:4] for q in sorted(subset_construction(nfa).estimates)[:3]]
        try:
            check_dot_as_name_sorted(nfa, seeds, pairs + [(sorted(nfa.states)[0], None)])
        except AssertionError as exc:
            raise AssertionError(f"instance {index}: {exc}") from exc
