from pathlib import Path

import pytest
from hypothesis import Phase, settings

from strongopacity import Event, Nfa

MODELS = Path(__file__).parent / "models"

# For ``tools/mutants.py`` only, which selects it with ``--hypothesis-profile``:
# a failing example is reported as drawn, without minutes of shrinking, and
# no example database carries a failure from one seed's run into the next.
# The gate runs several test processes at once, so an example that is slow
# only because it shares the CPU must not fail on a deadline.
settings.register_profile(
    "mutants", phases=(Phase.explicit, Phase.generate, Phase.target), database=None, deadline=None
)


def build_nfa(states, events, transitions, initial, secret, unobservable=(), uncontrollable=()):
    """Shared shorthand: events given by name, flags by exception sets."""
    alphabet = tuple(
        Event(name, observable=name not in unobservable, controllable=name not in uncontrollable)
        for name in events
    )
    return Nfa(
        states=frozenset(states),
        alphabet=alphabet,
        transitions=frozenset(transitions),
        initial=frozenset(initial),
        secret=frozenset(secret),
    )


def delayed_leak_nfa(uncontrollable=("c",)):
    """Nine states; the secret visit is revealed only two observable steps later."""
    return build_nfa(
        states=[str(i) for i in range(9)],
        events=["a", "b", "c", "u"],
        transitions=[
            ("0", "a", "1"),
            ("0", "a", "3"),
            ("0", "u", "6"),
            ("1", "u", "2"),
            ("3", "u", "4"),
            ("4", "b", "5"),
            ("6", "a", "7"),
            ("7", "b", "8"),
            ("5", "c", "5"),
            ("2", "b", "2"),
            ("8", "b", "8"),
            ("8", "c", "8"),
        ],
        initial=["0"],
        secret=["5", "7"],
        unobservable=["u"],
        uncontrollable=uncontrollable,
    )


def k_safe_not_inf_nfa():
    """K-step safe for every K, yet the secret visit is eventually certain."""
    return build_nfa(
        states=["0", "1", "2", "3"],
        events=["a", "b", "u"],
        transitions=[
            ("0", "u", "1"),
            ("1", "a", "2"),
            ("2", "b", "2"),
            ("1", "u", "3"),
            ("3", "a", "2"),
        ],
        initial=["0"],
        secret=["1"],
        unobservable=["u"],
    )


def unfixable_two_step_nfa():
    """Seventeen states; one leaking route consists of uncontrollable events
    only, so two-step opacity cannot be enforced by any cut."""
    return build_nfa(
        states=[str(i) for i in range(17)],
        events=["a", "b", "c", "u", "v", "t"],
        transitions=[
            ("0", "a", "1"),
            ("1", "u", "2"),
            ("2", "c", "3"),
            ("3", "v", "4"),
            ("4", "a", "5"),
            ("5", "a", "5"),
            ("5", "b", "5"),
            ("0", "u", "6"),
            ("6", "a", "7"),
            ("7", "c", "3"),
            ("0", "a", "14"),
            ("14", "c", "15"),
            ("15", "a", "16"),
            ("0", "v", "8"),
            ("8", "a", "9"),
            ("9", "u", "10"),
            ("10", "c", "11"),
            ("11", "a", "12"),
            ("12", "t", "13"),
            ("13", "b", "13"),
        ],
        initial=["0"],
        secret=["4", "13", "16"],
        unobservable=["u", "v", "t"],
        uncontrollable=["a", "b", "c", "t"],
    )


def two_initials_nfa(uncontrollable=("b",)):
    """Ten states, two initial states (one secret); the workhorse for the
    current-/initial-/infinite-step enforcement scenarios."""
    return build_nfa(
        states=[str(i) for i in range(10)],
        events=["a", "b", "u", "v"],
        transitions=[
            ("0", "u", "2"),
            ("2", "b", "4"),
            ("4", "a", "7"),
            ("4", "a", "5"),
            ("7", "b", "9"),
            ("1", "b", "3"),
            ("3", "a", "5"),
            ("3", "u", "6"),
            ("5", "v", "6"),
            ("6", "b", "8"),
        ],
        initial=["0", "1"],
        secret=["1", "5", "9"],
        unobservable=["u", "v"],
        uncontrollable=uncontrollable,
    )


@pytest.fixture
def delayed_leak():
    return delayed_leak_nfa()


@pytest.fixture
def k_safe_not_inf():
    return k_safe_not_inf_nfa()


@pytest.fixture
def unfixable_two_step():
    return unfixable_two_step_nfa()


@pytest.fixture
def two_initials():
    return two_initials_nfa()
