"""Game representation and update algebra for achievement positional games.

A game is a triple: a vertex set, a set of blue edges (Left's winning sets)
and a set of red edges (Right's winning sets).  Left and Right alternately
pick unpicked vertices; whoever first owns every vertex of an edge of their
color wins, and the game is a draw if neither ever does.

Vertices are indexed 0..n-1 internally and edges are stored as bitmasks over
those indices; external names live in the ``vertices`` tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .errors import (
    AlreadyWonError,
    DuplicateVertexError,
    EmptyEdgeError,
    IllegalOutcomeError,
    UnknownVertexError,
)
from .kernel import compress, mask_indices


class Player(Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def opponent(self) -> "Player":
        return Player.RIGHT if self is Player.LEFT else Player.LEFT

    def __str__(self) -> str:
        return "Left" if self is Player.LEFT else "Right"


class GameResult(Enum):
    """Result of one playthrough under optimal play, from a fixed first player.

    Totally ordered from Left's perspective: LEFT_WIN > DRAW > RIGHT_WIN.
    """

    LEFT_WIN = "LeftWin"
    DRAW = "Draw"
    RIGHT_WIN = "RightWin"

    @property
    def rank(self) -> int:
        return _RESULT_RANK[self]

    @property
    def mirrored(self) -> "GameResult":
        """The same result with the players' colors swapped."""
        if self is GameResult.LEFT_WIN:
            return GameResult.RIGHT_WIN
        if self is GameResult.RIGHT_WIN:
            return GameResult.LEFT_WIN
        return GameResult.DRAW

    def __str__(self) -> str:
        return self.value


_RESULT_RANK = {GameResult.RIGHT_WIN: 0, GameResult.DRAW: 1, GameResult.LEFT_WIN: 2}


class Outcome(Enum):
    """Pair of optimal-play results (Left starts, Right starts).

    Only six of the nine combinations can occur; the constructor
    :func:`outcome_from_results` rejects the other three.
    """

    L = (GameResult.LEFT_WIN, GameResult.LEFT_WIN)
    L_MINUS = (GameResult.LEFT_WIN, GameResult.DRAW)
    N = (GameResult.LEFT_WIN, GameResult.RIGHT_WIN)
    D = (GameResult.DRAW, GameResult.DRAW)
    R_MINUS = (GameResult.DRAW, GameResult.RIGHT_WIN)
    R = (GameResult.RIGHT_WIN, GameResult.RIGHT_WIN)

    @property
    def when_left_starts(self) -> GameResult:
        return self.value[0]

    @property
    def when_right_starts(self) -> GameResult:
        return self.value[1]

    @property
    def mirrored(self) -> "Outcome":
        """The outcome of the color-swapped game."""
        return outcome_from_results(
            self.when_right_starts.mirrored, self.when_left_starts.mirrored
        )

    def __str__(self) -> str:
        return _OUTCOME_NAMES[self]


_OUTCOME_NAMES = {
    Outcome.L: "L",
    Outcome.L_MINUS: "L-",
    Outcome.N: "N",
    Outcome.D: "D",
    Outcome.R_MINUS: "R-",
    Outcome.R: "R",
}

_OUTCOME_BY_RESULTS = {o.value: o for o in Outcome}
_OUTCOME_BY_NAME = {name: o for o, name in _OUTCOME_NAMES.items()}


def outcome_from_results(when_left_starts: GameResult, when_right_starts: GameResult) -> Outcome:
    """Build an outcome from the two per-start results.

    Raises IllegalOutcomeError for the three combinations that cannot occur
    (the first player can never do worse than the second player).
    """
    try:
        return _OUTCOME_BY_RESULTS[(when_left_starts, when_right_starts)]
    except KeyError:
        raise IllegalOutcomeError(
            f"no outcome has Left-starts={when_left_starts} and "
            f"Right-starts={when_right_starts}"
        ) from None


def parse_outcome(text: str) -> Outcome:
    try:
        return _OUTCOME_BY_NAME[text]
    except KeyError:
        raise ValueError(f"unknown outcome {text!r}; expected one of "
                         f"{sorted(_OUTCOME_BY_NAME)}") from None


def leq_left(a: Outcome, b: Outcome) -> bool:
    """Componentwise comparison of outcomes from Left's point of view.

    ``a <= b`` iff both per-start results of ``a`` are at most those of ``b``
    under LEFT_WIN > DRAW > RIGHT_WIN.  Yields the chain
    R < R- < {D, N} < L- < L, with D and N incomparable.
    """
    return (a.when_left_starts.rank <= b.when_left_starts.rank
            and a.when_right_starts.rank <= b.when_right_starts.rank)


# ---------------------------------------------------------------------------
# Game

@dataclass(frozen=True)
class Game:
    """An achievement positional game.

    ``vertices`` fixes the index order; ``blue`` and ``red`` hold one bitmask
    per edge, deduplicated and sorted by integer value, so equal games
    compare and hash equal and ``(n, blue, red)`` is already a mask-kernel
    state (``kernel.state_of_game``).
    """

    vertices: tuple[str, ...]
    blue: tuple[int, ...]
    red: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index_of(self, name: str) -> int:
        try:
            return self.vertices.index(name)
        except ValueError:
            raise UnknownVertexError(f"unknown vertex {name!r}") from None

    def mask_of(self, names: Iterable[str]) -> int:
        index = {v: i for i, v in enumerate(self.vertices)}
        mask = 0
        for name in names:
            try:
                mask |= 1 << index[name]
            except KeyError:
                raise UnknownVertexError(f"unknown vertex {name!r}") from None
        return mask

    def names_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.vertices[i] for i in mask_indices(mask))

    @property
    def blue_edges(self) -> frozenset[frozenset[str]]:
        return frozenset(self.names_of(m) for m in self.blue)

    @property
    def red_edges(self) -> frozenset[frozenset[str]]:
        return frozenset(self.names_of(m) for m in self.red)

    def __repr__(self) -> str:  # keep test diffs readable
        blue = sorted(sorted(e) for e in self.blue_edges)
        red = sorted(sorted(e) for e in self.red_edges)
        return f"Game(vertices={list(self.vertices)}, blue={blue}, red={red})"


def canonical_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """Deduplicate edge masks and sort them by integer value, as kernel states do."""
    return tuple(sorted(set(masks)))


def new_game(vertices: Iterable[str],
             blue_edges: Iterable[Iterable[str]],
             red_edges: Iterable[Iterable[str]]) -> Game:
    """Validate and build a game.

    Duplicate edges collapse (set semantics) and edges are stored in a
    canonical order so that structurally equal inputs produce equal values.
    """
    verts = tuple(vertices)
    index: dict[str, int] = {}
    for i, v in enumerate(verts):
        if v in index:
            raise DuplicateVertexError(f"vertex {v!r} declared twice")
        index[v] = i

    def to_masks(edges: Iterable[Iterable[str]]) -> tuple[int, ...]:
        masks = []
        for edge in edges:
            mask = 0
            for name in edge:
                try:
                    mask |= 1 << index[name]
                except KeyError:
                    raise UnknownVertexError(f"unknown vertex {name!r}") from None
            if mask == 0:
                raise EmptyEdgeError("edges must be nonempty")
            masks.append(mask)
        return canonical_masks(masks)

    return Game(verts, to_masks(blue_edges), to_masks(red_edges))


def game_from_masks(vertices: tuple[str, ...],
                    blue: Iterable[int],
                    red: Iterable[int]) -> Game:
    """Build a game from pre-validated bitmasks (internal fast path)."""
    return Game(vertices, canonical_masks(blue), canonical_masks(red))


# ---------------------------------------------------------------------------
# Edge updates

def _update_masks(masks: Iterable[int], own: int, other: int,
                  owner: Player) -> list[int]:
    out = []
    for m in masks:
        if m & other:
            continue
        m &= ~own
        if m == 0:
            raise AlreadyWonError(owner)
        out.append(m)
    return out


def update(game: Game,
           left_picks: Iterable[str],
           right_picks: Iterable[str]) -> Game:
    """The residual game after Left picked ``left_picks`` and Right ``right_picks``.

    Blue edges lose Left's vertices and die on Right's; red edges dually.
    Raises AlreadyWonError(player) if a player has already filled an edge,
    and ValueError if the pick sets overlap.
    """
    return _residual(game, game.mask_of(left_picks), game.mask_of(right_picks))


def _residual(game: Game, vl: int, vr: int) -> Game:
    """:func:`update` on Left's and Right's picks as masks, ``vl`` and ``vr``."""
    if vl & vr:
        raise ValueError("left and right picks must be disjoint")
    blue = _update_masks(game.blue, vl, vr, Player.LEFT)
    red = _update_masks(game.red, vr, vl, Player.RIGHT)
    removed = vl | vr
    verts = tuple(v for i, v in enumerate(game.vertices) if not removed >> i & 1)
    blue = [compress(m, removed) for m in blue]
    red = [compress(m, removed) for m in red]
    return game_from_masks(verts, blue, red)


# ---------------------------------------------------------------------------
# Positions and statuses

class StatusKind(Enum):
    ONGOING = "Ongoing"
    WON = "Won"
    DRAW = "Draw"


@dataclass(frozen=True)
class Status:
    kind: StatusKind
    winner: Optional[Player] = None

    def __str__(self) -> str:
        if self.kind is StatusKind.WON:
            return f"Won({self.winner})"
        return self.kind.value


ONGOING = Status(StatusKind.ONGOING)
DRAW_STATUS = Status(StatusKind.DRAW)


@dataclass(frozen=True)
class Position:
    """A game plus the two picked-vertex sets and whose turn it is.

    Positions are built move by move (:meth:`play`), so a win is recorded the
    instant an edge is filled; a "both players filled" state cannot arise.
    """

    game: Game
    left_mask: int
    right_mask: int
    to_move: Player
    winner: Optional[Player] = None

    @staticmethod
    def start(game: Game, first_player: Player) -> "Position":
        return Position(game, 0, 0, first_player)

    @staticmethod
    def from_picks(game: Game,
                   left_picks: Iterable[str],
                   right_picks: Iterable[str],
                   to_move: Player) -> "Position":
        """Build a position directly from pick sets.

        The winner, if any, is inferred from filled edges; a position where
        both players have filled an edge is rejected since it cannot arise in
        per-move play.
        """
        vl = game.mask_of(left_picks)
        vr = game.mask_of(right_picks)
        if vl & vr:
            raise ValueError("left and right picks must be disjoint")
        diff = vl.bit_count() - vr.bit_count()
        if diff not in (-1, 0, 1):
            raise ValueError("pick counts may differ by at most one")
        if diff == 1 and to_move is not Player.RIGHT:
            raise ValueError("Left has the extra pick, so Right must be to move")
        if diff == -1 and to_move is not Player.LEFT:
            raise ValueError("Right has the extra pick, so Left must be to move")
        left_filled = any(m & ~vl == 0 for m in game.blue)
        right_filled = any(m & ~vr == 0 for m in game.red)
        if left_filled and right_filled:
            raise ValueError("both players have filled an edge; unreachable per-move")
        winner = Player.LEFT if left_filled else Player.RIGHT if right_filled else None
        return Position(game, vl, vr, to_move, winner)

    @property
    def picked_left(self) -> frozenset[str]:
        return self.game.names_of(self.left_mask)

    @property
    def picked_right(self) -> frozenset[str]:
        return self.game.names_of(self.right_mask)

    @property
    def free_mask(self) -> int:
        return ((1 << self.game.n) - 1) & ~(self.left_mask | self.right_mask)

    def play(self, vertex: str) -> "Position":
        """Pick ``vertex`` for the player to move, recording a win immediately."""
        if self.winner is not None:
            raise ValueError("game already won")
        i = self.game.index_of(vertex)
        bit = 1 << i
        if (self.left_mask | self.right_mask) & bit:
            raise ValueError(f"vertex {vertex!r} already picked")
        if self.to_move is Player.LEFT:
            new_left = self.left_mask | bit
            won = any(m & bit and m & ~new_left == 0 for m in self.game.blue)
            return Position(self.game, new_left, self.right_mask, Player.RIGHT,
                            Player.LEFT if won else None)
        new_right = self.right_mask | bit
        won = any(m & bit and m & ~new_right == 0 for m in self.game.red)
        return Position(self.game, self.left_mask, new_right, Player.LEFT,
                        Player.RIGHT if won else None)

    def updated_game(self) -> Game:
        """The normal form of this position: the residual game after the picks."""
        return _residual(self.game, self.left_mask, self.right_mask)

    def summary(self) -> str:
        left = ",".join(sorted(self.picked_left))
        right = ",".join(sorted(self.picked_right))
        return f"L[{left}] R[{right}] {self.to_move} to move"


def status(position: Position) -> Status:
    """Won(player) / Draw / Ongoing for a position built move by move."""
    if position.winner is not None:
        return Status(StatusKind.WON, position.winner)
    if position.free_mask == 0:
        return DRAW_STATUS
    return ONGOING


# ---------------------------------------------------------------------------
# Disjoint union

def disjoint_union(g: Game, g2: Game) -> tuple[Game, dict[str, str]]:
    """Disjoint union of two games: vertex and edge sets side by side.

    Colliding vertex names in the second game are renamed deterministically
    with ``#2``, ``#3``, ... suffixes; the returned map records every rename.
    """
    taken = set(g.vertices)
    renames: dict[str, str] = {}
    new_names = []
    for v in g2.vertices:
        name = v
        k = 2
        while name in taken:
            name = f"{v}#{k}"
            k += 1
        if name != v:
            renames[v] = name
        taken.add(name)
        new_names.append(name)
    verts = g.vertices + tuple(new_names)
    shift = g.n
    blue = list(g.blue) + [m << shift for m in g2.blue]
    red = list(g.red) + [m << shift for m in g2.red]
    return game_from_masks(verts, blue, red), renames


# ---------------------------------------------------------------------------
# Single-color hypergraphs and pairings

@dataclass(frozen=True)
class Hypergraph:
    """A single-color view: vertices plus one set of nonempty edges."""

    vertices: tuple[str, ...]
    edges: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def names_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.vertices[i] for i in mask_indices(mask))

    @property
    def edge_sets(self) -> frozenset[frozenset[str]]:
        return frozenset(self.names_of(m) for m in self.edges)

    @property
    def rank(self) -> int:
        return max((m.bit_count() for m in self.edges), default=0)


def new_hypergraph(vertices: Iterable[str],
                   edges: Iterable[Iterable[str]]) -> Hypergraph:
    g = new_game(vertices, edges, ())
    return Hypergraph(g.vertices, g.blue)


@dataclass(frozen=True)
class Pairing:
    """A set of pairwise disjoint two-element vertex sets."""

    pairs: tuple[frozenset[str], ...]

    @staticmethod
    def of(pairs: Iterable[Iterable[str]]) -> "Pairing":
        out = []
        seen: set[str] = set()
        for pair in pairs:
            p = frozenset(pair)
            if len(p) != 2:
                raise ValueError(f"pair {sorted(p)} must have exactly two distinct vertices")
            if p & seen:
                raise ValueError(f"pair {sorted(p)} overlaps another pair")
            seen |= p
            out.append(p)
        return Pairing(tuple(sorted(out, key=lambda p: sorted(p))))

