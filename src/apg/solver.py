"""Exact memoized search over achievement positional games.

Values are computed by two mutually recursive boolean questions from the
mover's perspective ("can the mover win?", "can the mover avoid losing?"),
asked in that order, with draws as the default.  Positions are canonicalized
(vertices renumbered, twin pairs removed) before memo lookup so that
transposed move orders collapse.  The mask-level state operations (child
states, twin and dead-pair reduction, domination, move order, the canonical
Right strategy) live in ``kernel.py``; this module holds the memo, the node
budget and the queries.  Besides the game values it answers one question
with Right's moves fixed: whether Left survives the canonical Right strategy
(:meth:`Solver.survives_canonical_right`), which the SAT reductions use to
prove unsatisfiable gadgets Right wins.

Pruning used by default, each individually toggleable:
  * immediate win on a one-vertex edge of the mover's color;
  * two or more distinct one-vertex threats of the opponent lose outright,
    a single one forces the blocking move;
  * dominated moves are skipped, keeping one representative per twin class;
  * twin/dead-pair removal at node entry.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    Game,
    GameResult,
    Outcome,
    Player,
    Position,
    Status,
    StatusKind,
    outcome_from_results,
    status,
)
from .errors import EdgeTooLargeError, ResourceLimitError
from .kernel import (
    State,
    candidates,
    canonical_right_index,
    child,
    dead_pair_reduce,
    state_of_game,
    touched_mask,
    twin_reduce,
    unit_positions,
)

_WIN, _DRAW, _LOSS = 1, 0, -1

INFINITE_DELAY = math.inf
Delay = float  # a natural number, or math.inf when the protagonist cannot win


@dataclass
class SolveStats:
    nodes_expanded: int = 0
    memo_hits: int = 0
    max_depth: int = 0
    elapsed: float = 0.0

    def as_text(self) -> str:
        return (f"nodes_expanded: {self.nodes_expanded}\n"
                f"memo_hits: {self.memo_hits}\n"
                f"max_depth: {self.max_depth}")


@dataclass
class SolverConfig:
    node_limit: int = 50_000_000
    use_twin_reduction: bool = True
    use_domination: bool = True
    use_forced_moves: bool = True
    # When set, memoize only positions with at most this many free vertices;
    # exhaustive batteries use it to keep the table tiny while their top-level
    # queries still share all sub-position work.
    memo_max_vertices: Optional[int] = None
    memo_flush_entries: int = 20_000_000


@dataclass(frozen=True)
class TraceStep:
    summary: str
    player: Player
    vertex: str
    justification: str  # one of: winning, forced, pairing, arbitrary


@dataclass(frozen=True)
class Trace:
    steps: tuple[TraceStep, ...]
    final: Status
    result: GameResult

    def moves_by(self, player: Player) -> list[str]:
        return [s.vertex for s in self.steps if s.player is player]


class Solver:
    """Holds the memo tables, configuration and counters for exact search."""

    def __init__(self, config: Optional[SolverConfig] = None):
        self.config = config or SolverConfig()
        self._memo_win: dict[tuple[int, State], bool] = {}
        self._memo_avoid: dict[tuple[int, State], bool] = {}
        self._memo_delay: dict[tuple[int, int, State], float] = {}
        self._memo_canon: dict[State, bool] = {}
        self._nodes = 0
        self._hits = 0
        self._max_depth = 0
        self.last_stats = SolveStats()

    # -- internal search ---------------------------------------------------

    def _tick(self, depth: int) -> None:
        self._nodes += 1
        if self._nodes > self.config.node_limit:
            raise ResourceLimitError(self._nodes, self.config.node_limit)
        if depth > self._max_depth:
            self._max_depth = depth

    def _eval(self, state: State, mover: int, want_win: bool, depth: int,
              touched: Optional[int] = None) -> bool:
        # ``touched`` is the parent's ``touched_mask`` for the pick when the
        # parent node was twin-free, else None (see ``kernel.twin_reduce``).
        self._tick(depth)
        if self.config.use_twin_reduction:
            state = twin_reduce(state, touched)
        n, blue, red = state
        memo = self._memo_win if want_win else self._memo_avoid
        key = (mover, state)
        cached = memo.get(key)
        if cached is not None:
            self._hits += 1
            return cached

        own, other = (blue, red) if mover == 0 else (red, blue)
        result: Optional[bool] = None
        moves: Optional[Iterable[int]] = None

        if n == 0:
            result = not want_win  # draw by exhaustion
        elif any(m & (m - 1) == 0 for m in own):
            result = True  # fill a one-vertex edge now
        elif self.config.use_forced_moves:
            threats = unit_positions(other)
            if len(set(threats)) >= 2:
                result = False  # cannot block two distinct unit threats
            elif threats:
                moves = threats[:1]

        if result is None:
            if moves is None:
                moves = candidates(state, self.config.use_domination)
            result = False
            opp = 1 - mover
            for i in moves:
                after = child(state, mover, i)
                if after is None:
                    result = True  # the pick fills an edge of the mover's color
                    break
                if not self._eval(after, opp, not want_win, depth + 1,
                                  touched_mask(state, mover, i)):
                    result = True
                    break

        self._store(memo, key, result, n)
        return result

    def _store(self, memo: dict, key, result, n: int) -> None:
        config = self.config
        if config.memo_max_vertices is None or n <= config.memo_max_vertices:
            if len(memo) >= config.memo_flush_entries:
                memo.clear()
            memo[key] = result

    def _survive_eval(self, state: State, depth: int) -> bool:
        # Left to move, Right replying with canonical_right_index.  The node's
        # value equals "Left has a non-losing strategy moving first here"
        # (surviving the fixed strategy refutes every Right strategy, and the
        # fixed strategy wins whenever any does), so it is preserved by
        # dead-pair removal and renumbering, which collapse transpositions,
        # and a dominated Left move can be skipped as in _eval.
        self._tick(depth)
        if self.config.use_twin_reduction:
            state = dead_pair_reduce(state)
        n, blue, red = state
        if n == 0:
            return True  # draw by exhaustion
        cached = self._memo_canon.get(state)
        if cached is not None:
            self._hits += 1
            return cached
        if any(m & (m - 1) == 0 for m in blue):
            result = True  # Left fills a blue edge now
        else:
            red_units = set(unit_positions(red))
            if len(red_units) >= 2:
                result = False  # whatever Left picks, a red unit survives
            else:
                moves = (sorted(red_units) if red_units
                         else candidates(state, self.config.use_domination))
                result = False
                for i in moves:
                    after_left = child(state, 0, i)
                    assert after_left is not None  # no blue units here
                    if after_left[0] == 0:
                        result = True  # the board ran out before Right's reply
                        break
                    after_right = child(after_left, 1, canonical_right_index(after_left))
                    # None: Right's reply fills a red edge, so this line loses.
                    if after_right is not None and self._survive_eval(after_right, depth + 1):
                        result = True
                        break
        self._store(self._memo_canon, state, result, n)
        return result

    def _result_for_mover(self, state: State, mover: int) -> int:
        if self._eval(state, mover, True, 0):
            return _WIN
        if self._eval(state, mover, False, 0):
            return _DRAW
        return _LOSS

    @staticmethod
    def _to_game_result(value: int, mover: Player) -> GameResult:
        if value == _DRAW:
            return GameResult.DRAW
        if (value == _WIN) == (mover is Player.LEFT):
            return GameResult.LEFT_WIN
        return GameResult.RIGHT_WIN

    def _begin(self) -> tuple[int, int, float]:
        self._max_depth = 0
        return self._nodes, self._hits, time.perf_counter()

    def _finish(self, mark: tuple[int, int, float]) -> None:
        n0, h0, t0 = mark
        # Positional arguments: keywords double the cost, which shows on the
        # batteries' millions of queries on states of a few vertices.
        self.last_stats = SolveStats(self._nodes - n0, self._hits - h0,
                                     self._max_depth, time.perf_counter() - t0)

    # -- public queries ----------------------------------------------------

    def solve(self, game: Game, first_player: Player) -> GameResult:
        """Game value under optimal play with the given first player."""
        return self.solve_state(state_of_game(game), first_player)

    def solve_state(self, state: State, first_player: Player) -> GameResult:
        """:meth:`solve` on a mask-level state ``(n, blue, red)``, each edge
        tuple deduplicated and sorted (see ``kernel``)."""
        mark = self._begin()
        try:
            mover = 0 if first_player is Player.LEFT else 1
            value = self._result_for_mover(state, mover)
            return self._to_game_result(value, first_player)
        finally:
            self._finish(mark)

    def survives_canonical_right(self, game: Game) -> bool:
        """Whether Left, moving first, avoids losing when Right always plays
        the canonical strategy (``kernel.canonical_right_index``).

        Needs blue edges of size <= 3 and red edges of size <= 2.  There the
        canonical strategy wins whenever Right has a winning strategy, so
        False proves that Right wins with Left moving first.
        """
        if any(m.bit_count() > 3 for m in game.blue) or any(m.bit_count() > 2 for m in game.red):
            raise EdgeTooLargeError("needs blue edges of size <= 3 and red of size <= 2")
        mark = self._begin()
        try:
            return self._survive_eval(state_of_game(game), 0)
        finally:
            self._finish(mark)

    def outcome(self, game: Game) -> Outcome:
        """The pair of values (Left starts, Right starts), checked for legality."""
        return outcome_from_results(*self.outcome_state(state_of_game(game)))

    def outcome_state(self, state: State) -> tuple[GameResult, GameResult]:
        """The values of a mask-level state with Left and with Right first,
        as one query: ``last_stats`` covers both."""
        mark = self._begin()
        try:
            return (self._to_game_result(self._result_for_mover(state, 0), Player.LEFT),
                    self._to_game_result(self._result_for_mover(state, 1), Player.RIGHT))
        finally:
            self._finish(mark)

    def move_value(self, position: Position, vertex: str) -> GameResult:
        """Value of one candidate move from a position, for the side to move."""
        mark = self._begin()
        try:
            game = position.updated_game()
            state = state_of_game(game)
            mover = 0 if position.to_move is Player.LEFT else 1
            i = game.index_of(vertex)
            after = child(state, mover, i)
            if after is None:
                value = _WIN
            else:
                value = -self._result_for_mover(after, 1 - mover)
            return self._to_game_result(value, position.to_move)
        finally:
            self._finish(mark)

    def best_move(self, position: Position) -> tuple[str, GameResult]:
        """A move achieving the position's value.

        An immediate edge completion is preferred when one exists; otherwise
        ties break to the lowest vertex index, so results are deterministic.
        """
        if status(position) != Status(StatusKind.ONGOING):
            raise ValueError("best_move needs an ongoing position")
        mark = self._begin()
        try:
            game = position.updated_game()
            state = state_of_game(game)
            mover = 0 if position.to_move is Player.LEFT else 1
            fallback = None
            value = self._result_for_mover(state, mover)
            for i in range(game.n):
                after = child(state, mover, i)
                if after is None:
                    return game.vertices[i], self._to_game_result(_WIN, position.to_move)
                if fallback is None and -self._result_for_mover(after, 1 - mover) == value:
                    fallback = game.vertices[i]
            if fallback is None:
                raise AssertionError("no move achieves the computed value")
            return fallback, self._to_game_result(value, position.to_move)
        finally:
            self._finish(mark)

    def self_play(self, game: Game, first_player: Player) -> Trace:
        """Play best moves for both sides to the end; the final status must
        agree with the solved value."""
        expected = self.solve(game, first_player)
        pos = Position.start(game, first_player)
        steps: list[TraceStep] = []
        while status(pos).kind is StatusKind.ONGOING:
            mover = pos.to_move
            vertex, value = self.best_move(pos)
            updated = pos.updated_game()
            threats = unit_positions(
                updated.red if mover is Player.LEFT else updated.blue)
            if value == (GameResult.LEFT_WIN if mover is Player.LEFT
                         else GameResult.RIGHT_WIN):
                tag = "winning"
            elif len(set(threats)) == 1 and updated.vertices[threats[0]] == vertex:
                tag = "forced"
            else:
                tag = "arbitrary"
            steps.append(TraceStep(pos.summary(), mover, vertex, tag))
            pos = pos.play(vertex)
        final = status(pos)
        if final.kind is StatusKind.WON:
            got = (GameResult.LEFT_WIN if final.winner is Player.LEFT
                   else GameResult.RIGHT_WIN)
        else:
            got = GameResult.DRAW
        if got != expected:
            raise AssertionError(f"self-play reached {got}, solver said {expected}")
        return Trace(tuple(steps), final, got)

    # -- delay (pass-move scoring game) -------------------------------------

    def _delay_eval(self, state: State, prot: int, prot_turn: bool, depth: int) -> float:
        self._tick(depth)
        n, blue, red = state
        own, other = (blue, red) if prot == 0 else (red, blue)
        key = (prot, int(prot_turn), state)
        cached = self._memo_delay.get(key)
        if cached is not None:
            self._hits += 1
            return cached

        if prot_turn:
            if any(m & (m - 1) == 0 for m in own):
                result = 0.0  # the protagonist fills now; no further passes
            elif n == 0:
                result = INFINITE_DELAY
            else:
                threats = set(unit_positions(other))
                if len(threats) >= 2:
                    result = INFINITE_DELAY  # the antagonist fills next turn
                else:
                    moves = sorted(threats) if threats else range(n)
                    result = INFINITE_DELAY
                    for i in moves:
                        after = child(state, prot, i)
                        if after is None:
                            result = 0.0
                            break
                        v = self._delay_eval(after, prot, False, depth + 1)
                        if v < result:
                            result = v
                        if result == 0.0:
                            break
        else:
            if any(m & (m - 1) == 0 for m in other):
                result = INFINITE_DELAY  # the antagonist fills an edge now
            else:
                # passing costs the protagonist one more point
                result = self._delay_eval(state, prot, True, depth + 1) + 1
                for i in range(n):
                    if result == INFINITE_DELAY:
                        break
                    after = child(state, 1 - prot, i)
                    assert after is not None
                    v = self._delay_eval(after, prot, True, depth + 1)
                    if v > result:
                        result = v

        self._store(self._memo_delay, key, result, n)
        return result

    def delay(self, game: Game, protagonist: Player) -> Delay:
        """Value of the pass-move scoring game for ``protagonist``.

        The protagonist moves first and normally; the antagonist may pass.
        The score counts the antagonist's passes up to the protagonist's win
        and is infinite when the protagonist never fills an edge of their
        color (including when the antagonist fills one first).  Finite iff
        the protagonist wins the plain game as first player.
        """
        mark = self._begin()
        try:
            state = state_of_game(game)
            prot = 0 if protagonist is Player.LEFT else 1
            if self._result_for_mover(state, prot) != _WIN:
                return INFINITE_DELAY
            value = self._delay_eval(state, prot, True, 0)
            assert value == INFINITE_DELAY or value < max(game.n, 1), \
                "a finite delay can never reach the vertex-count cap"
            return int(value) if value != INFINITE_DELAY else INFINITE_DELAY
        finally:
            self._finish(mark)


# ---------------------------------------------------------------------------
# Outcomes of disjoint unions

_L, _LM, _N, _D, _RM, _R = (Outcome.L, Outcome.L_MINUS, Outcome.N,
                            Outcome.D, Outcome.R_MINUS, Outcome.R)

_UNION_ROWS: dict[Outcome, dict[Outcome, tuple[Outcome, ...]]] = {
    _L: {_L: (_L,), _LM: (_L,), _N: (_L, _LM, _N), _D: (_L,),
         _RM: (_L, _LM, _N), _R: (_L, _LM, _N, _RM, _R)},
    _LM: {_L: (_L,), _LM: (_L, _LM), _N: (_L, _LM, _N), _D: (_LM,),
          _RM: (_LM, _N, _RM), _R: (_N, _RM, _R)},
    _N: {_L: (_L, _LM, _N), _LM: (_L, _LM, _N), _N: (_L, _LM, _N, _RM, _R),
         _D: (_N,), _RM: (_N, _RM, _R), _R: (_N, _RM, _R)},
    _D: {_L: (_L,), _LM: (_LM,), _N: (_N,), _D: (_D,), _RM: (_RM,), _R: (_R,)},
    _RM: {_L: (_L, _LM, _N), _LM: (_LM, _N, _RM), _N: (_N, _RM, _R),
          _D: (_RM,), _RM: (_RM, _R), _R: (_R,)},
    _R: {_L: (_L, _LM, _N, _RM, _R), _LM: (_N, _RM, _R), _N: (_N, _RM, _R),
         _D: (_R,), _RM: (_R,), _R: (_R,)},
}

UNION_OUTCOMES: dict[tuple[Outcome, Outcome], frozenset[Outcome]] = {
    (col, row): frozenset(cell)
    for row, cells in _UNION_ROWS.items()
    for col, cell in cells.items()
}


def union_outcome_allowed(o: Outcome, o_prime: Outcome, observed: Outcome) -> bool:
    """Whether ``observed`` can be the outcome of a disjoint union whose
    components have outcomes ``o`` and ``o_prime``."""
    return observed in UNION_OUTCOMES[(o, o_prime)]


# ---------------------------------------------------------------------------
# Module-level convenience API sharing one default solver

_default_solver = Solver()


def default_solver() -> Solver:
    return _default_solver


def solve(game: Game, first_player: Player) -> GameResult:
    return _default_solver.solve(game, first_player)


def outcome(game: Game) -> Outcome:
    return _default_solver.outcome(game)


def best_move(position: Position) -> tuple[str, GameResult]:
    return _default_solver.best_move(position)


def self_play(game: Game, first_player: Player) -> Trace:
    return _default_solver.self_play(game, first_player)


def delay(game: Game, protagonist: Player) -> Delay:
    return _default_solver.delay(game, protagonist)
