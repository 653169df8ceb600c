"""Deterministic round-based simulator and analysis toolkit for average
consensus with single ternary messages per link per round, on time-varying
undirected graphs, plus the real-valued averaging baseline."""

from .analysis import (
    BoundInputs,
    EffectiveMatrix,
    MetricsRow,
    compute_metrics,
    reconstruct_matrix,
    theorem_bound,
    theorem_bound_terms,
    validate_matrix,
    validate_round,
)
from .engine import (
    EdgeState,
    InitSpec,
    RoundRecord,
    RunResult,
    SimulationConfig,
    init_state,
    run,
    run_round,
)
from .errors import (
    ConfigError,
    DivergenceError,
    InvariantViolationError,
    PolicyViolationError,
    ProtocolError,
)
from .graphs import (
    CoreCheckResult,
    GraphSequence,
    GraphSnapshot,
    check_core_connected,
    make_sequence,
)
from .metropolis import MetropolisConfig, metropolis_round, run_metropolis
from .protocol import (
    LedgerEntry,
    Message,
    NodeState,
    ProtocolParams,
    active_set,
    apply_messages,
    compute_message,
    quantize,
    value_update,
)

__version__ = "0.1.0"
