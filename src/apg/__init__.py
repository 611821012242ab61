"""Achievement positional games: exact solving, the polynomial size-2 case,
and compilers from CNF/QBF formulas to hardness gadgets.

Two players, Left (blue edges) and Right (red edges), alternately pick
vertices of a shared board; whoever first owns every vertex of an edge of
their color wins.
"""

from .core import (
    Game,
    GameResult,
    Hypergraph,
    Outcome,
    Pairing,
    Player,
    Position,
    Status,
    StatusKind,
    disjoint_union,
    leq_left,
    new_game,
    new_hypergraph,
    outcome_from_results,
    parse_outcome,
    status,
    update,
)
from .errors import (
    AlreadyWonError,
    ApgError,
    ApgParseError,
    BadClauseSizeError,
    DuplicateVertexError,
    EdgeTooLargeError,
    EmptyEdgeError,
    IllegalOutcomeError,
    InvalidPathError,
    KTooLargeError,
    OddVarCountError,
    ResourceLimitError,
    ScriptViolationError,
    TooLargeError,
    UnknownVertexError,
)
from .formats import load_game, parse_game, save_game, serialize_game
from .gadgets import butterfly, find_union_witness, outcome_exemplar, win_in_k
from .ops import (
    check_pairing,
    dominated_moves,
    find_pairing,
    greedy_move,
    maker_breaker_game,
    minimal_transversals,
    prune_superset_edges,
    twin_reduce,
)
from .poly22 import solve22
from .reductions import (
    CanonicalRightResult,
    CnfFormula,
    QbfFormula,
    QbfWinner,
    ReductionOutput,
    canonical_right_move,
    check_forced_script,
    maker_maker_embedding,
    parse_dimacs,
    parse_dimacs_qbf,
    qbf_brute,
    qbf_game,
    sat_brute,
    sat_draw_game,
    sat_win_game,
    solve_against_canonical_right,
)
from .solver import (
    INFINITE_DELAY,
    Solver,
    SolverConfig,
    SolveStats,
    Trace,
    TraceStep,
    best_move,
    delay,
    outcome,
    self_play,
    solve,
    union_outcome_allowed,
)

__version__ = "0.1.0"
