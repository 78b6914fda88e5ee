"""The operand memo: every notion reads a model's observers and
subautomata from one bundle (``composition._operands``), which keeps only
the last model handed in.

Calls on one model object, in any order and interleaved with calls on
another model, answer as calls on a fresh copy do; the memo keeps no
earlier model alive; and threads get the serial answers.
"""

import weakref

import hypothesis.strategies as st
from hypothesis import given, settings

from strongopacity import composition

from conftest import delayed_leak_nfa, two_initials_nfa
from test_kernel import cyclic_nfas
from thread_check import CALLS, check


def fresh(call, nfa):
    """``call`` on a copy of ``nfa``, with no bundle kept from before."""
    composition._last = None
    return call(nfa.replace())


@given(cyclic_nfas(), cyclic_nfas(), st.data())
@settings(max_examples=40, deadline=None)
def test_calls_in_any_order_answer_as_on_fresh_copies(first, second, data):
    calls = [(model, name) for model in (first, second) for name in CALLS]
    expected = {(id(model), name): fresh(CALLS[name], model) for model, name in calls}
    for model, name in data.draw(st.permutations(calls)):
        assert CALLS[name](model) == expected[id(model), name], name


def test_the_memo_keeps_at_most_one_model():
    first, second = delayed_leak_nfa(), two_initials_nfa()
    for call in CALLS.values():
        call(first)
    gone = weakref.ref(first)
    for call in CALLS.values():
        call(second)
    del first
    assert gone() is None


def test_threads_get_the_serial_answers():
    calls, problems = check()
    assert calls and problems == []
