"""Polynomial decision procedure for games whose edges all have size <= 2.

The board is held as ``adj = (blue_adj, red_adj)``: for each vertex
``0..n-1``, an int mask of its neighbours in the blue and in the red graph
of the pair edges.  A vertex is alive while one of its masks is nonzero.
One rule, :func:`left_wins`, decides whether Left wins; the full value is
built from two such decisions, on ``adj`` and on the colour-swapped board
(the tuple reversed, the mover flipped), which never both say "win".

Pipeline for "does Left win with a given first player":
  1. resolve one-vertex edges: a unit of the mover's color wins, two distinct
     units of the other color lose, a single one forces the mover's pick,
     which turns the mover's pairs through it into units; repeat until none
     is left, so both edge sets are graphs;
  2. if Left is to move, Left wins iff the blue graph has two edges sharing a
     vertex (a P3): the shared vertex creates an unstoppable double threat,
     and without one the blue edges form a matching that Right can pair off;
  3. if Right is to move and the red graph has a P3, Right wins, so Left does
     not; otherwise the red edges form a matching and every candidate move is
     classified by its maximal alternating path (red edges at odd steps, blue
     at even steps).  Even-ended paths are optimal for Right and their
     vertices can be deleted outright; once a pass deletes nothing, only
     branching or odd-ended vertices remain, and Right survives iff some
     odd-ended path of that pass leaves a P3-free blue graph behind.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional

from .core import Game, GameResult, Player
from .errors import EdgeTooLargeError, InvalidPathError
from .kernel import mask_indices

_MOVER = {Player.LEFT: 0, Player.RIGHT: 1}
_WINS = (GameResult.LEFT_WIN, GameResult.RIGHT_WIN)

Adj = tuple[list[int], list[int]]  # blue and red neighbour masks per vertex


class PathKind(Enum):
    BRANCHING = "branching"   # some alternating path forks at an even step
    ODD = "odd"               # unique maximal path, odd number of vertices
    EVEN = "even"             # unique maximal path, even number of vertices


def _delete(adj: Adj, v: int) -> None:
    # The edges through v die with it, at the cost of its degree.
    bit = 1 << v
    for masks in adj:
        for w in mask_indices(masks[v]):
            masks[w] ^= bit
        masks[v] = 0


def resolve_units(n: int, blue: Iterable[int], red: Iterable[int],
                  mover: int) -> tuple[Optional[GameResult], Adj, int]:
    """Play out the forced picks from these edge masks over ``n`` vertices.

    Every mask is size-checked before any decision.  A unit of the mover's
    color (0 blue, 1 red) wins; two distinct units of the other color lose;
    exactly one forces the mover's pick there, which costs the picked
    vertex's degree and turns the mover's pairs through it into units.
    Returns the decided result or None, the board of the pair edges and the
    player then to move.
    """
    adj: Adj = ([0] * n, [0] * n)
    units = [0, 0]  # the unit vertices of each color, as masks
    for color, edges in ((0, blue), (1, red)):
        masks = adj[color]
        for m in edges:
            high = m & (m - 1)  # m without its lowest bit
            if not high:
                units[color] |= m
            elif high & (high - 1):
                raise EdgeTooLargeError("this procedure needs all edges of size <= 2")
            else:
                low = m ^ high
                masks[low.bit_length() - 1] |= high
                masks[high.bit_length() - 1] |= low
    while True:
        if units[mover]:
            return _WINS[mover], adj, mover  # fill a one-vertex edge now
        threats = units[1 - mover]
        if threats & (threats - 1):
            return _WINS[1 - mover], adj, mover  # only one can be blocked
        if not threats:
            return None, adj, mover
        # The mover must take the threat v: the opponent's edges through v
        # die, and the mover's pairs through v shrink to units.
        v = threats.bit_length() - 1
        units[mover] = adj[mover][v]
        units[1 - mover] = 0
        _delete(adj, v)
        mover = 1 - mover


def has_p3(masks: list[int]) -> bool:
    """Whether the graph of one color has two edges sharing a vertex."""
    return any(m & (m - 1) for m in masks)


def classify(adj: Adj, u: int) -> tuple[PathKind, tuple[int, ...]]:
    """Walk the alternating path from ``u``: red edges at odd steps (the red
    edges form a matching, so each is unique), blue edges at even steps.

    At an even step, two or more off-path blue neighbours mean the path
    branches; exactly one extends the walk; none ends it.  A path ending at
    an odd step classifies as ODD, at an even step as EVEN.  Returns the
    kind and the path; for BRANCHING, the prefix walked before the fork.
    """
    blue, red = adj
    path = [u]
    on_path = 1 << u
    cur = u
    while True:
        # odd position: follow the red matching edge, if any
        nxt = red[cur]
        if not nxt:
            return PathKind.ODD, tuple(path)
        assert not nxt & on_path, "a matching partner cannot revisit the path"
        cur = nxt.bit_length() - 1
        path.append(cur)
        on_path |= nxt
        # even position: count blue continuations off the path
        offs = blue[cur] & ~on_path
        if offs & (offs - 1):
            return PathKind.BRANCHING, tuple(path)
        if not offs:
            return PathKind.EVEN, tuple(path)
        cur = offs.bit_length() - 1
        path.append(cur)
        on_path |= offs


def reduce_type3(adj: Adj, path: tuple[int, ...]) -> None:
    """Delete an even-ended alternating path in place.

    Playing along the path is optimal for Right and the forced exchanges
    leave no partial edges behind: every blue edge touching an even-position
    vertex also touches an odd-position one, and every red edge incident to
    the path lies on it.  Violations raise InvalidPathError.
    """
    if len(path) % 2 != 0:
        raise InvalidPathError("an even-ended path must have an even vertex count")
    blue, red = adj
    odd_positions = 0   # 1st, 3rd, ... vertices of the walk
    for v in path[0::2]:
        odd_positions |= 1 << v
    for v in path[1::2]:
        stray = blue[v] & ~odd_positions
        if stray:
            w = (stray & -stray).bit_length() - 1
            raise InvalidPathError(
                f"blue edge ({v},{w}) would survive the path deletion")
    for k, v in enumerate(path):
        partner = path[k + 1] if k % 2 == 0 else path[k - 1]
        if red[v] != 1 << partner:
            raise InvalidPathError(f"red edge at {v} is not the path's matching edge")
    for v in path:
        _delete(adj, v)


def right_to_move_rule(adj: Adj) -> bool:
    """With Right to move and no unit edges: does Left win?

    A red P3 lets Right win in two moves.  Otherwise even-ended paths are
    deleted repeatedly; Right then survives iff some odd-ended path of the
    final board, removed from the blue graph, leaves it without a P3.
    Testing only the odd paths of the last pass is exact: that pass deleted
    nothing, so it classified every live vertex of the final board, and its
    odd paths are all of that board's.
    """
    if has_p3(adj[1]):
        return False
    adj = (list(adj[0]), list(adj[1]))
    blue, red = adj
    n = len(blue)
    # Each deletion preserves the value, so a pass scans on after one, and
    # passes repeat until one deletes nothing: its odd paths are tested.
    deleted = True
    while deleted:
        deleted = False
        odd = []
        for u in range(n):
            if blue[u] or red[u]:
                kind, path = classify(adj, u)
                if kind is PathKind.EVEN:
                    reduce_type3(adj, path)
                    deleted = True
                elif kind is PathKind.ODD:
                    odd.append(path)
    # The centres (blue degree >= 2) are where a blue P3 can survive.  Every
    # branching vertex walks to one, so without any the board is empty or
    # every path is odd and leaves no P3: a draw.
    centres = 0
    for v in range(n):
        if blue[v] & (blue[v] - 1):
            centres |= 1 << v
    if not centres:
        return False
    count = centres.bit_count()
    for path in odd:
        # A P3 survives the path's deletion at a centre off the path that
        # has no neighbour on it, or at a centre next to it that keeps two
        # blue neighbours off it.
        on_path = near = 0
        for v in path:
            on_path |= 1 << v
            near |= blue[v]
        touched = (on_path | near) & centres
        if touched.bit_count() < count:
            continue
        off = ~on_path
        if has_p3([blue[c] & off for c in mask_indices(touched & off)]):
            continue
        return False  # Right picks path[0] and survives
    return True


def left_wins(adj: Adj, mover: int) -> bool:
    """Whether Left wins the unit-free board ``adj`` with ``mover`` (0 Left,
    1 Right) to move; ``left_wins(adj[::-1], 1 - mover)`` asks it of Right."""
    return has_p3(adj[0]) if mover == 0 else right_to_move_rule(adj)


def solve22_masks(n: int, blue: Iterable[int], red: Iterable[int],
                  first_player: Player) -> GameResult:
    """:func:`solve22` on edge masks over ``n`` vertices, which sizes the
    board's neighbour lists.  The forced picks are the same with the colors
    swapped, so they are resolved once; the rule run on the swapped board
    says whether Right wins."""
    decided, adj, mover = resolve_units(n, blue, red, _MOVER[first_player])
    if decided is not None:
        return decided
    left, right = left_wins(adj, mover), left_wins(adj[::-1], 1 - mover)
    if left and right:
        raise AssertionError("both players cannot have winning strategies")
    if left:
        return GameResult.LEFT_WIN
    if right:
        return GameResult.RIGHT_WIN
    return GameResult.DRAW


def solve22(game: Game, first_player: Player) -> GameResult:
    """Full value of a size-<=2 game for the given first player.

    Runs the Left-win decision and its color-swapped mirror; at most one can
    answer "win", and neither means a draw.
    """
    return solve22_masks(game.n, game.blue, game.red, first_player)
