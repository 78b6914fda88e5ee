import re
from decimal import Decimal

import hypothesis.strategies as st
import pytest
from hypothesis import given

from strongopacity import (
    Event,
    InvalidEvent,
    InvalidState,
    Nfa,
    Run,
    UncontrollableCut,
    accessible_part,
    disable_transitions,
    natural_projection,
    unobservable_reach,
)
from strongopacity import automaton
from strongopacity.automaton import natural_key, sort_states
from strongopacity.subautomata import dss_subautomaton

from conftest import build_nfa


class TestNaturalOrder:
    def test_digit_runs_compare_numerically(self):
        assert sort_states(["10", "2", "a10", "a2", "b"]) == ["2", "10", "a2", "a10", "b"]

    def test_total_order(self):
        # names equal as numbers still get distinct keys, raw text deciding
        assert sort_states(["1", "01"]) == sort_states(["01", "1"]) == ["01", "1"]
        assert sort_states(["a1", "a01"]) == sort_states(["a01", "a1"])
        assert natural_key("1") != natural_key("01")

    def test_non_decimal_digits_are_text(self):
        # '²' and '①' pass str.isdigit but are not decimal digits, so \d
        # does not match them and they sort as text.
        assert natural_key("²") == (((1, "²"),), "²")
        assert natural_key("①") == (((1, "①"),), "①")
        assert natural_key("1²") == (((0, 1), (1, "²")), "1²")
        assert sort_states(["²", "10", "2", "1²"]) == ["1²", "2", "10", "²"]

    def test_decimal_digits_of_any_script_are_runs(self):
        assert natural_key("٣") == (((0, 3),), "٣")
        assert natural_key("x٣1") == (((1, "x"), (0, 31)), "x٣1")

    @given(st.text(alphabet="0123456789٣²①xa,{}", max_size=8))
    def test_all_decimal_names_take_the_split_key(self, text):
        runs = re.split(r"(\d+)", text)
        slow = tuple((0, int(p)) if i % 2 else (1, p) for i, p in enumerate(runs) if p)
        assert natural_key(text) == (slow, text)


# Names that are all decimal, in several scripts and with leading zeros, and
# names that are not: a non-decimal digit, mixed runs and plain text.
DECIMAL_NAMES = st.text(alphabet="0123456789٣٠۵१", min_size=1, max_size=4)
OTHER_NAMES = st.sampled_from(["²", "x٣1", "a", "a01", "b10", "①", "1²", ""]) | st.text(alphabet="01٣xa²", max_size=4)


@given(st.sets(DECIMAL_NAMES | st.sampled_from(["0", "00"]), max_size=12))
def test_sort_states_on_decimal_names_is_the_natural_order(names):
    assert sort_states(frozenset(names)) == sorted(names, key=natural_key)


@given(st.sets(DECIMAL_NAMES | OTHER_NAMES, max_size=12))
def test_sort_states_on_mixed_names_is_the_natural_order(names):
    assert sort_states(frozenset(names)) == sorted(names, key=natural_key)


def decimal_key(text):
    """``natural_key`` with each digit run read as a ``Decimal``, which
    converts a run of any length."""
    return (tuple((0, Decimal(p)) if p.isdecimal() else (1, p) for p in re.split(r"(\d+)", text) if p), text)


# Digit runs around and past the interpreter's limit on int conversion
# (4,300 digits by default), some of them behind leading zeros.
LONG_RUNS = st.builds(
    lambda zeros, digit, count: "0" * zeros + digit * count,
    st.sampled_from([0, 1, 4400]),
    st.sampled_from("129٣"),
    st.sampled_from([1, 2, 4300, 4301, 5000]),
)
LONG_NAMES = st.lists(LONG_RUNS | st.sampled_from(["x", "a,"]), min_size=1, max_size=3).map("".join)


class TestLongDigitRuns:
    LONG = "1" * 5000

    def test_model_states_sort_by_value(self):
        names = ["2", "0" * 5000 + "3", "10", "9" * 4999, self.LONG, "x3", "x" + self.LONG, "x" + "1" * 4999 + "2"]
        nfa = Nfa(
            states=frozenset(names),
            alphabet=(Event("a"),),
            transitions=frozenset({(self.LONG, "a", "2")}),
            initial=frozenset({self.LONG}),
        )
        assert nfa.sorted_states() == names
        assert accessible_part(nfa).sorted_states() == [names[0], self.LONG]
        decimal = names[:5] + ["3"]
        assert sort_states(frozenset(decimal)) == ["2", "0" * 5000 + "3", "3", "10", "9" * 4999, self.LONG]

    @given(st.sets(LONG_NAMES, max_size=6))
    def test_natural_key_orders_long_runs_by_value(self, names):
        want = sorted(names, key=decimal_key)
        assert sorted(names, key=natural_key) == want
        assert sort_states(frozenset(names)) == want


class TestNaturalProjection:
    def test_empty_word(self, delayed_leak):
        assert natural_projection((), delayed_leak.alphabet) == ()

    def test_drops_unobservable(self, delayed_leak):
        assert natural_projection(("a", "u", "b"), delayed_leak.alphabet) == ("a", "b")

    def test_all_unobservable(self, delayed_leak):
        assert natural_projection(("u", "u", "u"), delayed_leak.alphabet) == ()

    def test_unknown_event(self, delayed_leak):
        with pytest.raises(InvalidEvent):
            natural_projection(("a", "z"), delayed_leak.alphabet)

    def test_morphism(self, delayed_leak):
        words = [(), ("a",), ("u", "b"), ("a", "u", "b", "c"), ("u",)]
        alphabet = delayed_leak.alphabet
        for s in words:
            for t in words:
                assert natural_projection(s + t, alphabet) == natural_projection(
                    s, alphabet
                ) + natural_projection(t, alphabet)

    def test_length_bound(self, delayed_leak):
        alphabet = delayed_leak.alphabet
        for word in [("a", "b"), ("a", "u"), ("u",), ("b", "c", "a")]:
            projected = natural_projection(word, alphabet)
            assert len(projected) <= len(word)
            assert (len(projected) == len(word)) == ("u" not in word)


class TestUnobservableReach:
    def test_initial_closure(self, delayed_leak):
        assert unobservable_reach(delayed_leak, {"0"}) == {"0", "6"}

    def test_no_unobservable_events(self):
        nfa = build_nfa(["x", "y"], ["a"], [("x", "a", "y")], ["x"], [])
        assert unobservable_reach(nfa, {"x"}) == {"x"}

    def test_on_dss_remainder(self, two_initials):
        remainder = dss_subautomaton(two_initials)
        assert unobservable_reach(remainder, {"0"}) == {"0", "2"}

    def test_unknown_state(self, delayed_leak):
        with pytest.raises(InvalidState):
            unobservable_reach(delayed_leak, {"99"})

    def test_bare_string_sources_rejected(self):
        # A string would be read as its characters: "10" as "1" and "0".
        nfa = build_nfa(["0", "1", "10"], ["a"], [], ["10"], [])
        with pytest.raises(InvalidState, match="^sources must be a collection of state names"):
            unobservable_reach(nfa, "10")

    def test_monotone_idempotent_extensive(self, delayed_leak):
        small = unobservable_reach(delayed_leak, {"0"})
        large = unobservable_reach(delayed_leak, {"0", "1"})
        assert small <= large
        assert {"0"} <= small
        assert unobservable_reach(delayed_leak, small) == small


class TestAccessiblePart:
    def test_fixed_point(self, delayed_leak):
        assert accessible_part(delayed_leak) == delayed_leak
        assert accessible_part(accessible_part(delayed_leak)) == accessible_part(delayed_leak)

    def test_pruning_after_edge_removal(self, two_initials):
        clipped = two_initials.replace(
            transitions=two_initials.transitions - {("3", "u", "6"), ("5", "v", "6")}
        )
        pruned = accessible_part(clipped)
        assert pruned.states == {"0", "1", "2", "3", "4", "5", "7", "9"}
        assert "6" not in pruned.states and "8" not in pruned.states

    def test_empty_initial(self, delayed_leak):
        empty = accessible_part(delayed_leak.replace(initial=frozenset()))
        assert empty.states == frozenset()
        assert empty.transitions == frozenset()

    def test_every_state_has_witness_run(self, two_initials):
        pruned = accessible_part(two_initials)
        # breadth-first witnesses: every state hit from some initial state
        seen = set(pruned.initial)
        frontier = list(pruned.initial)
        while frontier:
            x = frontier.pop()
            for _, dst in pruned.by_source[x]:
                if dst not in seen:
                    seen.add(dst)
                    frontier.append(dst)
        assert seen == pruned.states


class TestDisableTransitions:
    def test_empty_cut(self, delayed_leak):
        assert disable_transitions(delayed_leak, ()) == accessible_part(delayed_leak)

    def test_prunes_unreachable(self, delayed_leak):
        sub = disable_transitions(delayed_leak, {("7", "b", "8")})
        assert sub.states == {"0", "1", "2", "3", "4", "5", "6", "7"}
        assert ("7", "b", "8") not in sub.transitions
        assert delayed_leak.states != sub.states  # input untouched

    def test_enforcement_scale_cut(self, two_initials):
        sub = disable_transitions(
            two_initials, {("4", "a", "7"), ("3", "a", "5"), ("4", "a", "5")}
        )
        assert {"7", "9"} & sub.states == set()
        assert sub.states == {"0", "1", "2", "3", "4", "6", "8"}

    def test_a_derived_automaton_is_its_own_accessible_part(self, two_initials, monkeypatch):
        sub = disable_transitions(two_initials, {("4", "a", "7"), ("3", "a", "5"), ("4", "a", "5")})
        dss = dss_subautomaton(two_initials)
        monkeypatch.setattr(automaton, "_restrict", None)  # no walk
        assert accessible_part(sub) is sub
        assert accessible_part(dss) is dss

    def test_uncontrollable_cut_rejected(self, two_initials):
        with pytest.raises(UncontrollableCut):
            disable_transitions(two_initials, {("1", "b", "3")})

    def test_unknown_transition_rejected(self, two_initials):
        with pytest.raises(InvalidState):
            disable_transitions(two_initials, {("0", "a", "9")})

    def test_split_cut_composition(self, two_initials):
        first = {("4", "a", "7")}
        second = {("3", "a", "5"), ("4", "a", "5")}
        combined = disable_transitions(two_initials, first | second)
        staged = disable_transitions(
            disable_transitions(two_initials, first),
            second & disable_transitions(two_initials, first).transitions,
        )
        assert combined == staged


class TestModelTypes:
    def test_duplicate_transitions_are_deduplicated(self):
        nfa = build_nfa(["x", "y"], ["a"], [("x", "a", "y"), ("x", "a", "y")], ["x"], [])
        assert len(nfa.transitions) == 1

    def test_duplicate_event_names_rejected(self):
        with pytest.raises(InvalidEvent):
            Nfa(
                states=frozenset({"x"}),
                alphabet=(Event("a"), Event("a", observable=False)),
                transitions=frozenset(),
                initial=frozenset({"x"}),
            )

    def test_dangling_transition_rejected(self):
        with pytest.raises(InvalidState):
            build_nfa(["x"], ["a"], [("x", "a", "y")], ["x"], [])

    def test_undeclared_event_rejected(self):
        with pytest.raises(InvalidEvent):
            build_nfa(["x", "y"], ["a"], [("x", "b", "y")], ["x"], [])

    def test_marked_state_outside_states_rejected(self):
        with pytest.raises(InvalidState):
            build_nfa(["x"], ["a"], [], ["y"], [])

    def test_lone_surrogate_names_rejected(self):
        # No output can encode a lone surrogate; a surrogate pair is one
        # character and is accepted.
        with pytest.raises(InvalidState, match="lone surrogate"):
            Nfa(frozenset({"\ud800"}), (Event("a"),), frozenset(), frozenset({"\ud800"}))
        with pytest.raises(InvalidEvent, match="lone surrogate"):
            Nfa(frozenset({"x"}), (Event("a\udfff"),), frozenset(), frozenset({"x"}))
        nfa = Nfa(frozenset({"\U0001f600"}), (Event("\U0001f600"),), frozenset(), frozenset({"\U0001f600"}))
        assert nfa.states == {"\U0001f600"}

    def test_non_string_state_rejected(self):
        with pytest.raises(InvalidState, match=r"^state name must be a string, not 1$"):
            Nfa(frozenset({1}), (Event("a"),), frozenset(), frozenset({1}))

    def test_non_string_event_name_rejected(self):
        with pytest.raises(InvalidEvent, match=r"^event name must be a string, not 2$"):
            Nfa(frozenset({"x"}), (Event(2),), frozenset(), frozenset({"x"}))
        with pytest.raises(InvalidEvent, match=r"^alphabet entry must be an Event, not 'a'$"):
            Nfa(frozenset({"x"}), ("a",), frozenset(), frozenset({"x"}))

    @pytest.mark.parametrize("flags", [{"observable": "no"}, {"observable": None}, {"controllable": 1}])
    def test_non_bool_event_flag_rejected(self, flags):
        # A truthy or falsy stand-in would be read as the flag it resembles.
        event = Event("a", **flags)
        with pytest.raises(InvalidEvent, match=re.escape(f"event flags must be True or False: {event!r}")):
            Nfa(frozenset({"x"}), (event,), frozenset(), frozenset({"x"}))

    @pytest.mark.parametrize("field", ["states", "initial", "secret"])
    def test_bare_string_state_field_rejected(self, field):
        # A string would be read as its characters: "10" as "1" and "0".
        fields = dict(states={"0", "1", "10"}, alphabet=(Event("a"),), transitions=(), initial={"10"}, secret={"10"})
        message = f"^{field} must be a collection of state names, not the string '10'$"
        with pytest.raises(InvalidState, match=message):
            Nfa(**dict(fields, **{field: "10"}))
        with pytest.raises(InvalidState, match=message):
            Nfa(**fields).replace(**{field: "10"})

    def test_transition_that_is_not_a_triple_rejected(self):
        with pytest.raises(InvalidState, match=r"^transition must be a \(source, event, target\) triple"):
            Nfa(frozenset({"x"}), (Event("a"),), frozenset({("x", "a")}), frozenset({"x"}))

    def test_empty_nfa_is_legal(self):
        nfa = Nfa(
            states=frozenset(),
            alphabet=(Event("a"),),
            transitions=frozenset(),
            initial=frozenset(),
        )
        assert accessible_part(nfa) == nfa

    def test_run_helpers(self, delayed_leak):
        run = Run(start="0", steps=(("a", "3"), ("u", "4"), ("b", "5")))
        assert run.end == "5"
        assert run.word() == ("a", "u", "b")
        assert run.states() == ("0", "3", "4", "5")
        assert delayed_leak.has_run(run)
        assert not delayed_leak.has_run(Run(start="0", steps=(("b", "5"),)))
        assert not delayed_leak.has_run(Run("nope"))

    def test_unknown_event_name_rejected(self, delayed_leak):
        with pytest.raises(InvalidEvent, match=r"^unknown event: 'zz'$"):
            delayed_leak.event("zz")

    def test_partition_flags(self, two_initials):
        assert two_initials.secret_initial == {"1"}
        assert two_initials.nonsecret_initial == {"0"}
        assert two_initials.nonsecret == {"0", "2", "3", "4", "6", "7", "8"}
        assert two_initials.observable_events == {"a", "b"}
        assert two_initials.unobservable_events == {"u", "v"}
