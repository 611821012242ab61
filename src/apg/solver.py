"""Exact memoized search over achievement positional games.

Values are computed by two mutually recursive boolean questions from the
mover's perspective ("can the mover win?", "can the mover avoid losing?"),
asked in that order, with draws as the default.  Inside the search a
state is seen from the side to move, ``(n, own, other)`` (see ``kernel``),
so the memo keys carry no player and a position shares its entry with its
colour-swapped mirror; the public queries take Left's view ``(n, blue,
red)`` and turn it once.  Residual positions are renumbered, so
transposed move orders collapse in the memo.  Each query's root is
twin-reduced once (``use_twin_reduction``), never a node below it: the
threat, leaf-oracle and potential cutoffs end most nodes, and a pass at
every node cost more than it saved.  The mask-level state operations
(child states, twin reduction, domination, move order) live in
``kernel.py``; this module holds the memo, the node budget and the
queries.  Each public query runs in one bracket, ``_Query``: it installs
fresh counters (``last_stats``), and with them the node budget, and sets
the query's elapsed time on the way out, also when a limit is reached.  A
query runs out one way, by ``ResourceLimitError``: for the node budget,
for a search deeper than the recursion limit, or for a search that runs
out of memory, which also clears the memo tables.

One search (``Solver._eval``) answers every question but the delay.  The
SAT reductions' question, whether Left survives the canonical Right
strategy (:meth:`Solver.survives_canonical_right`), is one of them: that
strategy wins whenever Right can, so Left survives it exactly when Left
avoids losing moving first, and the query asks that game value.

Each rule is declared once: a ``use_*`` toggle of ``SolverConfig`` (frozen,
every toggle on by default) and, when it counts its firings, a counter of
``SolveStats``, which ``as_text`` prints field by field.  The reference
configurations ``PLAIN`` (every toggle off) and ``SEARCH_ONLY`` (only twin
reduction, domination and forced moves) are built from those fields, so a
new rule starts off in both.

Every node starts with one node-entry rule (:meth:`Solver._settle`), which
ends the node before any move is tried or names the forced block.  It
applies the rules below, all but domination.  Pruning used by default,
each individually toggleable:
  * immediate win on a one-vertex edge of the mover's color;
  * two or more distinct one-vertex threats of the opponent lose outright,
    a single one forces the blocking move;
  * dominated moves are skipped, keeping one representative per twin class;
  * leaf oracle (``use_leaf_oracle``): a node whose edges all have size <= 2
    is answered by ``poly22`` in place of a search below it, asking one
    side: the mover is poly22's Left, "win?" is ``poly22.left_wins`` and
    "avoid losing?" is that rule failing on the colour-swapped board;
  * potential cutoffs (``use_potentials``), after Erdős and Selfridge
    (JCT A 14, 1973): if the sum of 2^-|e| over the mover's edges is below
    1/2, the opponent, playing only to block them while moving second,
    stops the mover from filling any, so the mover cannot win; if the sum
    over the opponent's edges is below 1, the mover, blocking first, stops
    the opponent, so the mover cannot lose.  The sums are compared exactly
    in integers, scaled by 2^n;
  * double threats (``use_double_threats``), ``poly22``'s P3 step on any
    board: a mover with no one-vertex edge who picks a vertex shared by two
    of its pairs holds two one-vertex edges.  If the opponent has no
    one-vertex edge, or only one, at that vertex (the pick blocks it), the
    opponent completes nothing on the next pick and blocks only one of the
    two, so the mover wins: the node is True for both questions.

One rule runs at query roots only, ``_eval`` at depth 0, where ``_settle``
leaves the node open: the pairing rule (``use_pairing``), after Hales and
Jewett (Trans. AMS 106, 1963).  A player holding vertex-disjoint pairs, one
inside each of the other side's edges, answers a pick in a pair with its
partner and so keeps every such edge from being filled, moving first or
second.  So "can the mover win?" is False when ``kernel.pairing`` finds
the opponent a pairing of the mover's edges, and "can the mover avoid
losing?" is True when it finds the mover one of the opponent's.  Depth 0
is every query root: the value questions, the delay's finiteness check
and each child question of ``_pick``.  A root decided this way saves a
whole search, while below the roots the matching cost more than it saved:
asked at every node it was no faster on the benchmark's gadgets and
slowed a 65-vertex draw gadget by a quarter.

One rule runs just before a pick is searched, at a node whose subtree has
grown large: the symmetry rule (``use_symmetry``), orbit pruning by
individualisation and refinement after McKay and Piperno (J. Symb. Comput.
60, 2014).  A ``kernel.MapFinder`` looks for a permutation of the node's
vertices that maps the mover's edges onto themselves, the opponent's onto
themselves and an earlier pick of the node onto this one; when it finds
one, checked on both edge sets, the pick is skipped (``symmetry_cutoffs``,
beside ``symmetry_attempts``, the searches made).  The node makes its
finder at its first pick past the gate and drops it with the node, so the
node's colourings are built once for all its picks.  It is exact: every
earlier pick failed to decide the node, or the loop would have ended, and
the two children are isomorphic, so they have the same value.  A search
costs up to milliseconds, so it runs only once the node's subtree holds
``SYMMETRY_MIN_NODES`` nodes, where a skipped child saves tens; below that
a searched pick pays one integer compare.  The delay search leaves the
rule out.

Three more rules settle a child at its parent, so the child is never
built, ticked or looked up.  The first reads the sum the potential
cutoff takes, the other two masks the parent reads in the pass that
orders its moves (``kernel.expand``, read per pick by
``kernel.opponent_reply``):
  * the potential read (rides on ``use_potentials``, each skip counts in
    ``potential_cutoffs``): at a "can the mover win?" node that its own
    cutoff leaves open, a pick is skipped when the mover's edges, with
    those through the pick one vertex shorter, sum below 1, the child's
    cutoff for "can the opponent avoid losing?" (``_unsettled_picks``).
    It is read before the other rules and the symmetry rule: a skipped
    pick fails, as every earlier pick must for the symmetry rule;
  * the opponent's double threat (rides on ``use_double_threats``): a pick
    after which the opponent, holding no one-vertex edge, has a centre of
    two of its pairs, while the mover holds no one-vertex edge or one at
    such a centre, is skipped.  It is the test ``_settle`` makes on the
    child, which is then the opponent's win, so the pick is bad for both
    questions.  Each skip counts in ``threat_cutoffs``;
  * the forced reply (rides on ``use_forced_moves``, each counts in
    ``forced_replies``): when a pick leaves the opponent no one-vertex
    edge and the mover exactly one, every other reply lets the mover fill
    it, so the opponent's node is worth its one child.  The pick and the
    block are applied in one pass (``kernel.grandchild``) and the
    grandchild is asked the parent's question, two plies deeper, so a
    forced line takes one frame per two moves.

Best moves and self-play share one pick rule (``Solver._pick``): the
mover's lowest one-vertex edge, else the first pick whose child (no query
root, so not twin-reduced) answers the one question the value decides.
``Solver.self_play`` is one query: it solves its root once and walks the
search's own states, where the mover's value only changes sign.  A winning
pick leaves the opponent a loss; a drawing pick leaves it a draw, as a loss
would have made the pick a win; any pick of a lost position leaves a win.

The delay, the pass-move game behind the paper's union law, has a search
of its own, ``Solver._delay_at_most``.  It answers one boolean question,
"does the protagonist win with at most d antagonist passes?", and, as in
``_eval``, a node ends at the first child that decides it.  ``Solver.delay``
checks that the delay is finite with one ``_eval`` question, "can the
protagonist win?", then asks the delay search for d = L, L + 1, ... and
returns the first d answered yes.  Its memo holds
bounds lo <= delay <= hi per state and side to move, so a question is
answered from it when d >= hi or d < lo, and each answer tightens one
bound.  Three rules of the pass game ride on the toggles of the game-value
rules they mirror and count in their counters: a length bound
(``use_potentials``), the antagonist's block of one protagonist unit
(``use_forced_moves``) and the protagonist's double threat
(``use_double_threats``); ``Solver.delay`` gives their arguments.  Twin
removal, domination and the leaf oracle are left out: their soundness
arguments assume alternating picks, and none has been written for a game
in which one side may pass.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, fields, replace
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
    MapFinder,
    State,
    bits,
    child,
    expand,
    grandchild,
    opponent_reply,
    pairing,
    state_of_game,
    twin_reduce,
    unit_mask,
)
from .poly22 import left_wins, resolve_units

_WIN, _DRAW, _LOSS = 1, 0, -1

# The memo tables clear themselves at this many entries.
MEMO_FLUSH_ENTRIES = 20_000_000

# The symmetry rule runs at a node once its subtree holds this many nodes.
SYMMETRY_MIN_NODES = 2_000
# A node count no query reaches: the gate's offset with the rule off.
_NEVER = 1 << 62

INFINITE_DELAY = math.inf
Delay = float  # a natural number, or math.inf when the protagonist cannot win


def _facing(state: State, player: Player) -> State:
    """A game state ``(n, blue, red)`` as ``player`` sees it when to move."""
    if player is Player.LEFT:
        return state
    n, blue, red = state
    return (n, red, blue)


def _room(n: int, masks: Iterable[int]) -> int:
    """2^n less the sum of 2^(n - |e|) over the edges ``masks``, or 0 when
    the sum reaches 2^n; it stops as soon as the running sum does."""
    room = 1 << n
    for m in masks:
        room -= 1 << (n - m.bit_count())
        if room <= 0:
            return 0
    return room


def _unsettled_picks(state: State, room: int, moves: Iterable[int]) -> list[int]:
    """The picks of ``moves`` whose child the potential cutoff does not end,
    at a "can the mover win?" node with ``room`` (see ``Solver._settle``).

    Scaled by 2^n, the mover's edges weigh W and those through a pick
    ``i`` weigh T[i].  In the child, scaled by 2^(n-1), the edges through
    ``i`` lose it and weigh as much as before, and the others half as
    much, so the mover's edges there weigh (W + T[i]) / 2.  That is below
    the child's bound 2^(n-1), where the opponent, moving first, keeps
    them all unfilled, exactly when T[i] < room = 2^n - W.  The child's
    dedup can only merge edges, so a pick skipped here is one whose child
    the cutoff would end."""
    n, own, _ = state
    through = [0] * n  # T: the weight of the mover's edges through each vertex
    for m in own:
        w = 1 << (n - m.bit_count())
        for v in bits(m):
            through[v] += w
    return [i for i in moves if through[i] >= room]


@dataclass
class SolveStats:
    """One query's counters.  Each rule's counter is a field here;
    :meth:`as_text` prints every field but ``elapsed``, in this order."""
    nodes_expanded: int = 0
    memo_hits: int = 0
    max_depth: int = 0
    elapsed: float = 0.0
    leaf_calls: int = 0
    potential_cutoffs: int = 0
    threat_cutoffs: int = 0
    forced_replies: int = 0
    pairing_cutoffs: int = 0
    symmetry_cutoffs: int = 0
    symmetry_attempts: int = 0

    def as_text(self) -> str:
        return "\n".join(f"{f.name}: {getattr(self, f.name)}"
                         for f in fields(self) if f.name != "elapsed")


@dataclass(frozen=True)
class SolverConfig:
    """The search's settings: the node budget and the rules.  Each rule is
    one ``use_*`` field, on by default; ``PLAIN`` and ``SEARCH_ONLY`` below
    are derived from them."""
    node_limit: int = 50_000_000
    use_twin_reduction: bool = True
    use_domination: bool = True
    use_forced_moves: bool = True
    use_leaf_oracle: bool = True
    use_potentials: bool = True
    use_double_threats: bool = True
    use_pairing: bool = True
    use_symmetry: bool = True


# Each rule's toggle, and the reference configurations, which a new rule's
# toggle joins turned off.  PLAIN: every rule off, the pruning-free search.
# SEARCH_ONLY: the move-level rules alone (twin reduction, domination,
# forced moves).  With the cutoffs, the leaf oracle and the pairing rule off,
# no node of a size-2 board is handed to poly22, by the leaf oracle or by
# its P3 step (the double-threat rule).
TOGGLES = tuple(f.name for f in fields(SolverConfig) if f.name.startswith("use_"))
PLAIN = SolverConfig(**dict.fromkeys(TOGGLES, False))
SEARCH_ONLY = replace(PLAIN, use_twin_reduction=True, use_domination=True,
                      use_forced_moves=True)


@dataclass(frozen=True)
class TraceStep:
    summary: str
    player: Player
    vertex: str
    justification: str  # one of: winning, forced, arbitrary


@dataclass(frozen=True)
class Trace:
    steps: tuple[TraceStep, ...]
    final: Status
    result: GameResult

    def moves_by(self, player: Player) -> list[str]:
        return [s.vertex for s in self.steps if s.player is player]


class _Query:
    # One public query's bracket: fresh counters, and with them the node
    # budget, and its elapsed time, set also when a limit is reached.  The
    # searches recurse once per move (a forced line once per two), so a
    # game deeper than the interpreter's recursion limit runs out of
    # resources too: its RecursionError leaves as ResourceLimitError.  So
    # does a MemoryError, after the memo tables are cleared, so that the
    # solver answers later queries.  A class rather than a contextlib
    # generator: on the exhaustive batteries' ~2M queries of at most four
    # vertices (12-16 us each on a 2-vCPU guest, Python 3.11) a generator
    # cost 1.8-2.4 us per query more than a plain try/finally, and this
    # class 0.4-0.9 us.
    __slots__ = ("solver", "stats", "t0")

    def __init__(self, solver: Solver):
        self.solver = solver
        self.stats = solver.last_stats = SolveStats()

    def __enter__(self) -> None:
        self.t0 = time.perf_counter()

    def __exit__(self, kind, exc, tb) -> None:
        self.stats.elapsed = time.perf_counter() - self.t0
        if isinstance(exc, RecursionError):
            raise ResourceLimitError(f"the search went deeper than the recursion "
                                     f"limit ({sys.getrecursionlimit()})") from exc
        if isinstance(exc, MemoryError):
            solver = self.solver
            for memo in (solver._memo_win, solver._memo_avoid, solver._memo_delay):
                memo.clear()
            raise ResourceLimitError("the search ran out of memory") from exc


class Solver:
    """Holds the memo tables, configuration and counters for exact search."""

    def __init__(self, config: Optional[SolverConfig] = None):
        self.config = config or SolverConfig()
        self._memo_win: dict[State, bool] = {}
        self._memo_avoid: dict[State, bool] = {}
        self._memo_delay: dict[tuple[bool, State], float] = {}
        self.last_stats = SolveStats()
        # The symmetry gate's offset, read once when the solver is made:
        # reading the toggle and the constant at every branching node cost
        # about half a percent on sparse rank-3 boards.
        self._gate = SYMMETRY_MIN_NODES - 1 if self.config.use_symmetry else _NEVER

    # -- internal search ---------------------------------------------------

    def _tick(self, depth: int) -> None:
        stats = self.last_stats
        stats.nodes_expanded += 1
        if stats.nodes_expanded > self.config.node_limit:
            raise ResourceLimitError(f"node budget exhausted "
                                     f"({stats.nodes_expanded} >= {self.config.node_limit})")
        if depth > stats.max_depth:
            stats.max_depth = depth

    def _settle(self, state: State,
                want_win: bool) -> tuple[Optional[bool], Optional[int], int]:
        """The node-entry rule of both searches: ``(value, None, 0)`` when a
        rule settles the node before any move is tried, else
        ``(None, block, room)``, where ``block`` is the forced blocking pick,
        or None when every candidate is searched.  ``want_win`` asks "can
        the mover win?", else "can the mover avoid losing?".

        ``room`` is what the potential cutoff leaves for the children: on a
        "win?" node with ``use_potentials``, 2^n less the sum of
        2^(n - |e|) over the mover's edges when that is positive, else 0.
        The sum is taken once, for the node's own cutoff (room above
        2^(n-1)) and for ``_unsettled_picks``, which reads each child's."""
        n, own, other = state
        if n == 0:
            return not want_win, None, 0  # draw by exhaustion
        config = self.config
        small = True  # every edge of the mover has size <= 2
        double = seen = 0  # vertices shared by two of the mover's pairs
        for m in own:
            high = m & (m - 1)  # m without its lowest bit
            if not high:
                return True, None, 0  # fill a one-vertex edge now
            if high & (high - 1):
                small = False
            else:
                double |= seen & m
                seen |= m
        block = None
        if double or config.use_forced_moves:
            units = unit_mask(other)
            if (double and config.use_double_threats
                    and units & (units - 1) == 0 and units & ~double == 0):
                # A centre, the blocking one if the opponent has a unit,
                # leaves two own units against none of the opponent's.
                self.last_stats.threat_cutoffs += 1
                return True, None, 0
            if units and config.use_forced_moves:
                if units & (units - 1):
                    return False, None, 0  # cannot block two distinct unit threats
                block = units.bit_length() - 1
        room = 0
        if config.use_potentials:
            # Erdős–Selfridge, scaled by 2^n: the opponent blocking second
            # keeps a total below 1/2 unfilled, the mover blocking first
            # one below 1.
            if want_win:
                room = _room(n, own)
                if room > 1 << (n - 1):
                    self.last_stats.potential_cutoffs += 1
                    return False, None, 0
            elif _room(n, other):
                self.last_stats.potential_cutoffs += 1
                return True, None, 0
        if small and config.use_leaf_oracle and all(m.bit_count() <= 2 for m in other):
            # The mover is poly22's Left.  The two sides' rules never both
            # hold, and a board decided by forced picks has one winner.
            self.last_stats.leaf_calls += 1
            decided, adj, mover = resolve_units(n, own, other, 0)
            if decided is not None:
                return decided is GameResult.LEFT_WIN, None, 0
            if want_win:
                return left_wins(adj, mover), None, 0
            return not left_wins(adj[::-1], 1 - mover), None, 0
        return None, block, room

    def _eval(self, state: State, want_win: bool, depth: int) -> bool:
        self._tick(depth)
        memo = self._memo_win if want_win else self._memo_avoid
        cached = memo.get(state)
        if cached is not None:
            self.last_stats.memo_hits += 1
            return cached
        result, block, room = self._settle(state, want_win)
        if result is None and depth == 0 and self.config.use_pairing:
            # The query roots' pairing rule: the opponent pairing the
            # mover's edges stops a win, the mover pairing the opponent's
            # stops a loss.
            if pairing(state[1] if want_win else state[2]) is not None:
                self.last_stats.pairing_cutoffs += 1
                result = not want_win
        if result is None:
            config = self.config
            stats = self.last_stats
            threats = config.use_double_threats
            forced = config.use_forced_moves
            # The symmetry rule's gate: the node count at which this node's
            # subtree holds SYMMETRY_MIN_NODES nodes.
            gate = stats.nodes_expanded + self._gate
            moves, reads = expand(state, config.use_domination, block)
            if room:
                # A pick whose child the potential cutoff would end fails.
                kept = _unsettled_picks(state, room, moves)
                stats.potential_cutoffs += len(moves) - len(kept)
                moves = kept
            result = False
            finder = None  # the node's map finder, made at its first gated pick
            for k, i in enumerate(moves):
                # No pick fills an edge: _settle ends a node where the mover
                # holds a unit, and a forced block is folded in only when
                # the opponent holds none after the pick.
                if threats or forced:
                    threat, reply = opponent_reply(reads, i)
                    if threat and threats:
                        stats.threat_cutoffs += 1  # the child is the opponent's win
                        continue
                if stats.nodes_expanded >= gate:
                    if finder is None:
                        finder = MapFinder(state)
                    stats.symmetry_attempts += 1
                    if finder.find(moves[:k], i) is not None:
                        # An earlier pick, which failed, has an isomorphic child.
                        stats.symmetry_cutoffs += 1
                        continue
                if forced and reply >= 0:
                    stats.forced_replies += 1
                    if self._eval(grandchild(state, i, reply), want_win, depth + 2):
                        result = True
                        break
                    continue
                if not self._eval(child(state, i), not want_win, depth + 1):
                    result = True
                    break
        self._store(memo, state, result)
        return result

    def _store(self, memo: dict, key, result) -> None:
        if len(memo) >= MEMO_FLUSH_ENTRIES:
            memo.clear()
        memo[key] = result

    def _root(self, state: State) -> State:
        # A query's root, twin-reduced once: no node below it is.
        if self.config.use_twin_reduction:
            return twin_reduce(state)[0]
        return state

    def _value(self, state: State) -> int:
        # The mover's value of a query root, which the caller has reduced.
        if self._eval(state, True, 0):
            return _WIN
        if self._eval(state, False, 0):
            return _DRAW
        return _LOSS

    @staticmethod
    def _to_game_result(value: int, mover: Player) -> GameResult:
        if value == _DRAW:
            return GameResult.DRAW
        if (value == _WIN) == (mover is Player.LEFT):
            return GameResult.LEFT_WIN
        return GameResult.RIGHT_WIN

    # -- public queries ----------------------------------------------------

    def solve(self, game: Game, first_player: Player) -> GameResult:
        """Game value under optimal play with the given first player."""
        return self.solve_state(state_of_game(game), first_player)

    def solve_state(self, state: State, first_player: Player) -> GameResult:
        """:meth:`solve` on a mask-level state ``(n, blue, red)``, each edge
        tuple deduplicated and sorted (see ``kernel``)."""
        with _Query(self):
            value = self._value(self._root(_facing(state, first_player)))
            return self._to_game_result(value, first_player)

    def survives_canonical_right(self, game: Game) -> bool:
        """Whether Left, moving first, avoids losing when Right always plays
        the canonical strategy (``kernel.canonical_right_reply``).

        Needs blue edges of size <= 3 and red edges of size <= 2.  There the
        canonical strategy wins whenever Right has a winning strategy, so
        the answer is the game value's "can Left avoid losing moving
        first?", which is the one question searched.  False thus proves
        that Right wins with Left moving first, with no appeal to the
        strategy.
        """
        if any(m.bit_count() > 3 for m in game.blue) or any(m.bit_count() > 2 for m in game.red):
            raise EdgeTooLargeError("needs blue edges of size <= 3 and red of size <= 2")
        with _Query(self):
            return self._eval(self._root(state_of_game(game)), False, 0)

    def outcome(self, game: Game) -> Outcome:
        """The pair of values (Left starts, Right starts), checked for legality."""
        return outcome_from_results(*self.outcome_state(state_of_game(game)))

    def outcome_state(self, state: State) -> tuple[GameResult, GameResult]:
        """The values of a mask-level state with Left and with Right first,
        as one query: ``last_stats`` covers both.  Twin reduction treats the
        colours alike, so the root is reduced once for both first players."""
        with _Query(self):
            root = self._root(state)
            return (self._to_game_result(self._value(root), Player.LEFT),
                    self._to_game_result(self._value(_facing(root, Player.RIGHT)),
                                         Player.RIGHT))

    def move_value(self, position: Position, vertex: str) -> GameResult:
        """Value of one candidate move from a position, for the side to move."""
        with _Query(self):
            game = position.updated_game()
            after = child(_facing(state_of_game(game), position.to_move),
                          game.index_of(vertex))
            value = _WIN if after is None else -self._value(self._root(after))
            return self._to_game_result(value, position.to_move)

    def _pick(self, state: State, value: int) -> int:
        # A pick achieving the mover's ``value`` (the pick rule above).
        units = unit_mask(state[1])
        if units:
            return (units & -units).bit_length() - 1
        for i in range(state[0]):
            # No pick fills an edge: the mover holds no unit.
            if value == _LOSS or not self._eval(child(state, i), value == _DRAW, 0):
                return i
        raise AssertionError("no move achieves the computed value")

    def best_move(self, position: Position) -> tuple[str, GameResult]:
        """A move achieving the position's value, with that value.

        An immediate edge completion is preferred when one exists; otherwise
        ties break to the lowest vertex index, so results are deterministic.
        Each child costs one question, the one the value decides (see the
        module docstring); :meth:`self_play` picks by the same rule.
        """
        if status(position) != Status(StatusKind.ONGOING):
            raise ValueError("best_move needs an ongoing position")
        with _Query(self):
            game = position.updated_game()
            state = _facing(state_of_game(game), position.to_move)
            value = _WIN if unit_mask(state[1]) else self._value(self._root(state))
            return (game.vertices[self._pick(state, value)],
                    self._to_game_result(value, position.to_move))

    def self_play(self, game: Game, first_player: Player) -> Trace:
        """Play best moves for both sides to the end; the final status must
        agree with the solved value.  One query: the root is solved once and
        each ply picks as :meth:`best_move` does, so ``last_stats`` and the
        node budget cover the whole trace."""
        with _Query(self):
            state = _facing(state_of_game(game), first_player)
            value = self._value(self._root(state))
            expected = self._to_game_result(value, first_player)
            names = game.vertices
            pos = Position.start(game, first_player)
            steps: list[TraceStep] = []
            while status(pos).kind is StatusKind.ONGOING:
                i = self._pick(state, value)
                tag = ("winning" if value == _WIN else
                       "forced" if unit_mask(state[2]) == 1 << i else "arbitrary")
                steps.append(TraceStep(pos.summary(), pos.to_move, names[i], tag))
                pos = pos.play(names[i])
                state, names, value = child(state, i), names[:i] + names[i + 1:], -value
        final = status(pos)
        got = (GameResult.DRAW if final.winner is None
               else self._to_game_result(_WIN, final.winner))
        if got != expected:
            raise AssertionError(f"self-play reached {got}, solver said {expected}")
        return Trace(tuple(steps), final, got)

    # -- delay (pass-move scoring game) -------------------------------------

    def _delay_at_most(self, state: State, prot_turn: bool, d: int, depth: int) -> bool:
        # Whether the protagonist wins with at most ``d`` antagonist passes.
        # ``state`` is seen from the side to move: the protagonist when
        # ``prot_turn``, else the antagonist.
        self._tick(depth)
        key = (prot_turn, state)
        bounds = self._memo_delay.get(key)
        if bounds is None:
            lo, hi = 0, INFINITE_DELAY
        else:
            lo, hi = bounds
            if d >= hi or d < lo:
                self.last_stats.memo_hits += 1
                return d >= hi
        if prot_turn:
            result = self._delay_prot(state, d, depth)
        else:
            result = self._delay_ant(state, d, depth)
        if result:
            hi = d
        else:
            lo = d + 1
        self._store(self._memo_delay, key, (lo, hi))
        return result

    def _delay_prot(self, state: State, d: int, depth: int) -> bool:
        # The protagonist to move: own holds its edges.
        n, own, other = state
        if not own:
            return False  # nothing left to fill
        config = self.config
        least = n  # the smallest own edge size
        tight = 0  # the vertices of own edges of that size
        double = seen = 0  # vertices shared by two own pairs
        for m in own:
            size = m.bit_count()
            if size == 1:
                return True  # fill it now: no further passes
            if size == 2:
                double |= seen & m
                seen |= m
            if size < least:
                least, tight = size, m
            elif size == least:
                tight |= m
        units = unit_mask(other)
        if units & (units - 1):
            return False  # the antagonist fills one of two units next
        if config.use_potentials and d < least - 1:
            # Against an antagonist who always passes, the protagonist
            # needs ``least`` picks and so concedes ``least - 1`` passes.
            self.last_stats.potential_cutoffs += 1
            return False
        if (d and double and config.use_double_threats
                and not units & ~double):
            # Taking the centre (the blocking one if the antagonist holds a
            # unit) leaves two own units against none: a pass then scores
            # 1 and a pick 0, so the delay here is 1.
            self.last_stats.threat_cutoffs += 1
            return True
        moves = (units.bit_length() - 1,) if units else expand(state, False)[0]
        if config.use_potentials and d < least:
            # The bound is tight: a pick off every smallest edge leaves the
            # child's bound above d.
            kept = [i for i in moves if tight >> i & 1]
            self.last_stats.potential_cutoffs += len(moves) - len(kept)
            moves = kept
        # No pick fills an own edge: the protagonist holds no unit.
        return any(self._delay_at_most(child(state, i), False, d, depth + 1)
                   for i in moves)

    def _delay_ant(self, state: State, d: int, depth: int) -> bool:
        # The antagonist to move: own holds its edges, other the
        # protagonist's.
        n, own, other = state
        if not other or unit_mask(own):
            return False  # the protagonist never fills, or the antagonist fills now
        if d == 0:
            return False  # a pass, always legal, scores at least 1
        config = self.config
        if config.use_potentials:
            least = n  # the protagonist's smallest edge size
            common = -1  # the vertices on all its edges of d + 1 or fewer
            for m in other:
                size = m.bit_count()
                if size < least:
                    least = size
                if size <= d + 1:
                    common &= m
            if d < least or common:
                # A pass now and at every later turn concedes ``least``
                # passes; a pick in ``common`` leaves the protagonist's
                # length bound above d.
                self.last_stats.potential_cutoffs += 1
                return False
        units = unit_mask(other)
        if units and config.use_forced_moves:
            # A pass scores 1 and a pick off the protagonist's units 0; with
            # two units the delay here is 1, with one the block decides.
            self.last_stats.forced_replies += 1
            if units & (units - 1):
                return True
            return self._delay_at_most(child(state, units.bit_length() - 1),
                                       True, d, depth + 1)
        # The pass first, which costs the protagonist one more point.
        if not self._delay_at_most((n, other, own), True, d - 1, depth + 1):
            return False
        # No pick fills an own edge: the antagonist holds no unit.
        return all(self._delay_at_most(child(state, i), True, d, depth + 1)
                   for i in expand(state, False)[0])

    def delay(self, game: Game, protagonist: Player) -> Delay:
        """Value of the pass-move scoring game for ``protagonist``.

        The protagonist moves first and normally; the antagonist may pass.
        The score counts the antagonist's passes up to the protagonist's win
        and is infinite when the protagonist never fills an edge of their
        color (including when the antagonist fills one first).  Finite iff
        the protagonist wins the plain game as first player, which is
        checked first with one question of the game-value search, "can
        the mover win?".  That question's root gets the pairing rule: an
        antagonist who pairs the protagonist's edges blocks every one of
        them, passing or not, so the delay is infinite.

        A finite value is found by bounded questions, "does the protagonist
        win with at most d passes?" (``_delay_at_most``), asked for d = L,
        L + 1, ... until one answers yes.  L is the length bound below, or
        0 with ``use_potentials`` off.  A finite delay is below the vertex
        count, since every pass follows a protagonist pick.  The memo keeps
        bounds lo <= delay <= hi per state, so a question at d is answered
        from it when d >= hi or d < lo, and each answer tightens one bound.

        Besides the protagonist's fill, the loss to two antagonist units,
        the protagonist's block of one and the antagonist's own fill, three
        rules of the pass game run, each on the toggle and counter of the
        game-value rule it mirrors:
          * length bound (``use_potentials``, ``potential_cutoffs``): an
            antagonist who always passes concedes one pass fewer than the
            protagonist's smallest edge size at the protagonist's turn, and
            that size at its own, so a question below that is answered no.
            The bound is also read for the children: where it is tight, a
            protagonist pick off every smallest edge is skipped, and an
            antagonist pick on every protagonist edge of d + 1 or fewer
            vertices answers the antagonist's node no;
          * antagonist's block (``use_forced_moves``, ``forced_replies``):
            facing one protagonist unit, a pass scores 1 and a pick off it
            0, so only the block is asked; facing two, the value is 1;
          * double threat (``use_double_threats``, ``threat_cutoffs``): a
            protagonist without a unit that takes a centre of two own pairs,
            with no antagonist unit off that centre, leaves two units, so
            the value is 1.
        Twin removal, domination and the leaf oracle are not used here:
        their soundness arguments assume alternating picks, and none has
        been written for a game where one side may pass.  Picks are tried
        in the game-value search's score order, without domination.

        One query, like :meth:`outcome_state`: ``last_stats`` counts the
        finiteness check and the delay search together.  Solving the game
        first on the same solver leaves the delay search's counters alone.
        """
        with _Query(self):
            state = _facing(state_of_game(game), protagonist)
            if not self._eval(self._root(state), True, 0):
                return INFINITE_DELAY
            d = 0
            if self.config.use_potentials:
                d = min(m.bit_count() for m in state[1]) - 1
            while d < max(game.n, 1):
                if self._delay_at_most(state, True, d, 0):
                    return d
                d += 1
            raise AssertionError("a finite delay can never reach the vertex-count cap")


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
