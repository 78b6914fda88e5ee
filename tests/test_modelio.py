import io
import json
import re
import time

import pytest

from strongopacity import (
    EmptyModel,
    InvalidEvent,
    InvalidState,
    ParseError,
    UnknownReference,
    cc_hat,
    export_graph,
    parse_model,
    serialize_model,
    subset_construction,
)

from conftest import MODELS
from corpus import corpus


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

    def test_serialization_is_deterministic(self):
        nfa = parse_model((MODELS / "two_initials.json").read_bytes())
        assert serialize_model(nfa) == serialize_model(nfa)


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
