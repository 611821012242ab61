"""Polynomial decision procedure for games whose edges all have size <= 2.

The Left-win question is answered on a :class:`Graph2` of the pair edges;
the full win/draw/loss value comes from asking it again with the colors
swapped and combining the two answers (they can never both say "win").

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
     vertices can be deleted outright; once only branching or odd-ended
     vertices remain, Right survives iff some odd-ended path leaves a P3-free
     blue graph behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Union

from .core import Game, GameResult, Player
from .errors import EdgeTooLargeError, InvalidPathError

_MOVER = {Player.LEFT: 0, Player.RIGHT: 1}
_WINS = (GameResult.LEFT_WIN, GameResult.RIGHT_WIN)


class PathKind(Enum):
    BRANCHING = "branching"   # some alternating path forks at an even step
    ODD = "odd"               # unique maximal path, odd number of vertices
    EVEN = "even"             # unique maximal path, even number of vertices


@dataclass(frozen=True)
class PathProbe:
    kind: PathKind
    path: tuple[int, ...]  # for BRANCHING, the prefix walked before the fork


@dataclass
class Graph2:
    """Blue and red graphs over shared vertices; edges all have size 2."""

    alive: set[int]
    blue_adj: dict[int, set[int]]
    red_adj: dict[int, set[int]]

    def copy(self) -> "Graph2":
        return Graph2(set(self.alive),
                      {v: set(s) for v, s in self.blue_adj.items()},
                      {v: set(s) for v, s in self.red_adj.items()})

    def blue_has_p3(self) -> bool:
        return any(len(self.blue_adj[v]) >= 2 for v in self.alive)

    def red_has_p3(self) -> bool:
        return any(len(self.red_adj[v]) >= 2 for v in self.alive)

    def delete(self, vertices: set[int]) -> None:
        for v in vertices:
            self.alive.discard(v)
            for w in self.blue_adj.pop(v, ()):  # incident edges die with v
                self.blue_adj[w].discard(v)
            for w in self.red_adj.pop(v, ()):
                self.red_adj[w].discard(v)


@dataclass(frozen=True)
class Decided:
    result: GameResult


@dataclass(frozen=True)
class Reduced:
    graph: Graph2
    to_move: Player


def _resolve(blue: Iterable[int], red: Iterable[int],
             mover: int) -> tuple[Optional[GameResult], Graph2, int]:
    """Play out the forced picks from these edge masks, each size-checked
    before any decision.  Units are kept per color (0 blue, 1 red) beside
    the graph of the pair edges, and a pick costs the picked vertex's
    degree.  Returns the decided result or None, the graph and the mover."""
    adjs: tuple[dict[int, set[int]], dict[int, set[int]]] = ({}, {})
    units = (set(), set())
    for color, masks in ((0, blue), (1, red)):
        adj = adjs[color]
        for m in masks:
            if m & (m - 1) == 0:
                units[color].add(m.bit_length() - 1)
                continue
            if m.bit_count() > 2:
                raise EdgeTooLargeError("this procedure needs all edges of size <= 2")
            a = (m & -m).bit_length() - 1
            b = m.bit_length() - 1
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    blue_adj, red_adj = adjs
    alive = blue_adj.keys() | red_adj.keys()
    for adj in adjs:
        for v in alive - adj.keys():
            adj[v] = set()
    g = Graph2(alive, blue_adj, red_adj)
    while True:
        if units[mover]:
            return _WINS[mover], g, mover  # fill a one-vertex edge now
        threats = units[1 - mover]
        if len(threats) >= 2:
            return _WINS[1 - mover], g, mover  # only one can be blocked
        if not threats:
            return None, g, mover
        # The mover must take the threat v: the opponent's edges through v
        # die, and the mover's pairs through v shrink to units.
        v = threats.pop()
        units[mover].update(adjs[mover].get(v, ()))
        for adj in adjs:
            for w in adj.pop(v, ()):
                adj[w].discard(v)
                if not blue_adj[w] and not red_adj[w]:
                    alive.discard(w)  # its last edge went with v
                    del blue_adj[w], red_adj[w]
        alive.discard(v)
        mover = 1 - mover


def preprocess_units(game: Game, first_player: Player) -> Union[Decided, Reduced]:
    """Resolve one-vertex edges, possibly deciding the game outright.

    With the mover owning a unit edge the mover wins; with none of their own
    and two or more distinct opposing units the second player wins; with
    exactly one opposing unit the mover's pick is forced and the analysis
    recurses on the residual game.  Otherwise returns the two graphs with the
    player then to move.
    """
    decided, g2, mover = _resolve(game.blue, game.red, _MOVER[first_player])
    if decided is not None:
        return Decided(decided)
    return Reduced(g2, Player.RIGHT if mover else Player.LEFT)


def left_to_move_rule(g2: Graph2) -> bool:
    """With Left to move and no unit edges: Left wins iff blue has a P3."""
    return g2.blue_has_p3()


def classify(g2: Graph2, u: int) -> PathProbe:
    """Walk the alternating path from ``u``: red edges at odd steps (the red
    edges form a matching, so each is unique), blue edges at even steps.

    At an even step, two or more off-path blue neighbours mean the path
    branches; exactly one extends the walk; none ends it.  A path ending at
    an odd step classifies as ODD, at an even step as EVEN.
    """
    path = [u]
    on_path = {u}
    cur = u
    while True:
        # odd position: follow the red matching edge, if any
        nxt = next(iter(g2.red_adj[cur]), None)
        if nxt is None:
            return PathProbe(PathKind.ODD, tuple(path))
        assert nxt not in on_path, "a matching partner cannot revisit the path"
        path.append(nxt)
        on_path.add(nxt)
        cur = nxt
        # even position: count blue continuations off the path
        offs = sorted(y for y in g2.blue_adj[cur] if y not in on_path)
        if len(offs) >= 2:
            return PathProbe(PathKind.BRANCHING, tuple(path))
        if not offs:
            return PathProbe(PathKind.EVEN, tuple(path))
        path.append(offs[0])
        on_path.add(offs[0])
        cur = offs[0]


def reduce_type3(g2: Graph2, path: tuple[int, ...]) -> None:
    """Delete an even-ended alternating path in place.

    Playing along the path is optimal for Right and the forced exchanges
    leave no partial edges behind: every blue edge touching an even-position
    vertex also touches an odd-position one, and every red edge incident to
    the path lies on it.  Violations raise InvalidPathError.
    """
    if len(path) % 2 != 0:
        raise InvalidPathError("an even-ended path must have an even vertex count")
    on_path = set(path)
    odd_positions = set(path[0::2])   # 1st, 3rd, ... vertices of the walk
    even_positions = set(path[1::2])
    for v in even_positions:
        for w in g2.blue_adj[v]:
            if w not in odd_positions:
                raise InvalidPathError(
                    f"blue edge ({v},{w}) would survive the path deletion")
    for k, v in enumerate(path):
        expect = {path[k + 1]} if k % 2 == 0 else {path[k - 1]}
        if g2.red_adj[v] != expect:
            raise InvalidPathError(f"red edge at {v} is not the path's matching edge")
    g2.delete(on_path)


def right_to_move_rule(g2: Graph2) -> bool:
    """With Right to move and no unit edges: does Left win?

    A red P3 lets Right win in two moves.  Otherwise even-ended paths are
    deleted repeatedly; Right then survives iff some odd-ended path, removed
    from the blue graph, leaves it without a P3.
    """
    if g2.red_has_p3():
        return False
    g2 = g2.copy()
    # Each deletion preserves the value, so a pass scans on after one, and
    # passes repeat until one deletes nothing.
    deleted = True
    while deleted:
        deleted = False
        for u in sorted(g2.alive):
            if u in g2.alive:
                probe = classify(g2, u)
                if probe.kind is PathKind.EVEN:
                    reduce_type3(g2, probe.path)
                    deleted = True
    if not g2.alive:
        return False  # the game ends in a draw
    for u in sorted(g2.alive):
        probe = classify(g2, u)
        if probe.kind is PathKind.ODD:
            trimmed = g2.copy()
            trimmed.delete(set(probe.path))
            if not trimmed.blue_has_p3():
                return False  # Right picks u and survives
    return True


def solve22_masks(n: int, blue: Iterable[int], red: Iterable[int],
                  first_player: Player) -> GameResult:
    """:func:`solve22` on edge masks (``n`` is not needed).  The forced picks
    are the same with the colors swapped, so they are resolved once; the
    rule run on the swapped graph says whether Right wins."""
    decided, g2, mover = _resolve(blue, red, _MOVER[first_player])
    if decided is not None:
        return decided
    mirror = Graph2(g2.alive, g2.red_adj, g2.blue_adj)  # the rules never modify it
    if mover == 0:
        left, right = left_to_move_rule(g2), right_to_move_rule(mirror)
    else:
        left, right = right_to_move_rule(g2), left_to_move_rule(mirror)
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
