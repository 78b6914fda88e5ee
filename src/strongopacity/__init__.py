"""Verification and enforcement of strong state-based opacity for
partially-observed nondeterministic finite automata.

Every value is immutable and every answer depends only on the arguments, so
all of the API is safe for concurrent use. The one state kept between calls
is the operand memo of ``composition``: the accessible part, observers,
subautomata and whole compositions of the last model that a verifier, an
enforcer or ``effective_k_bound`` was called on.
"""

from .automaton import (
    Event,
    Nfa,
    Run,
    Transition,
    accessible_part,
    disable_transitions,
    natural_projection,
    unobservable_reach,
)
from .composition import (
    CcAutomaton,
    CcEvent,
    CcState,
    cc_dss,
    cc_full_observer,
    cc_hat,
    product,
)
from .enforcement import (
    Enforced,
    EnforcementOutcome,
    Impossible,
    enforce_inf_sso,
    enforce_k_sso,
    enforce_scso,
    enforce_siso,
    last_controllable_frontier,
)
from .errors import (
    AlphabetMismatch,
    EmptyEstimate,
    EmptyInitial,
    EmptyModel,
    InternalInvariantError,
    InvalidEvent,
    InvalidState,
    IoError,
    OpacityError,
    OracleUnsound,
    ParseError,
    TooLarge,
    UncontrollableCut,
    UnknownReference,
)
from .modelio import export_graph, parse_model, serialize_model
from .observer import (
    Estimate,
    EstimateClass,
    Observer,
    classify_estimates,
    multi_initial_observer,
    subset_construction,
)
from .oracle import (
    BoundedRunSet,
    oracle_enforceable,
    oracle_inf_sso,
    oracle_k_sso,
    oracle_scso,
    oracle_siso,
)
from .subautomata import (
    dss_subautomaton,
    initial_secret_subautomaton,
    nonsecret_subautomaton,
)
from .verification import (
    Verdict,
    effective_k_bound,
    observational_reach_within,
    verify_cso,
    verify_inf_sso,
    verify_k_sso,
    verify_scso,
    verify_siso,
)

__version__ = "0.1.0"
