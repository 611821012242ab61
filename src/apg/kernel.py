"""Mask-level state operations shared by every exact search.

A state is ``(n, own, other)``: ``n`` free vertices indexed ``0..n-1`` and
the live edges of each side as bitmasks over them, each tuple deduplicated
and sorted by integer value, as ``Game`` stores them.  The searches see a
state from the side to move: ``own`` holds the mover's edges and ``other``
the opponent's, so Left to move on a game is ``(n, blue, red)`` and Right
to move is ``(n, red, blue)``.  The game is colour-symmetric, so one rule
serves both players and a position and its colour-swapped mirror share a
memo entry.  Only :func:`child`, :func:`touched_mask` and
:func:`canonical_right_reply` read the view; the other functions treat
both sides alike.  The functions here are pure; the solver (its queries
and the canonical-Right search), ``reductions.canonical_right_move`` and
the domination queries of ``ops`` all call them, so each rule is written
once.

Per-node costs are kept low by reading each edge's bit positions from a
bounded cache (:func:`bits`) and by working on whole masks where a vertex
loop would compare every pair.

Twin reduction is local in the search.  The touched mask of a pick
(:func:`touched_mask`) holds the other vertices of the opponent's edges
through it, which the pick kills.  When the parent is twin-free, every
twin pair of the child holds a touched vertex, because the mover's edges
through the pick only shrink, and ``e - {i}`` tells two vertices other
than ``i`` apart exactly when ``e`` did.  ``twin_reduce(child, touched)``
then equals ``twin_reduce(child)``; passing the mask of a parent that is
not twin-free gives a wrong state.  The mask is its own function, so the
searches that never twin-reduce do not pay for it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from .core import Game

State = tuple[int, tuple[int, ...], tuple[int, ...]]

# Residual states are renumbered, so few distinct masks recur: the edge
# masks, and the parts of them that twin_reduce reads, number about 5,000 in
# the `gadgets` and `boards` benchmark searches.  The bound keeps the cache
# to a few MB on inputs that meet many more.
BITS_CACHE_SIZE = 1 << 13


def mask_indices(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


bits = lru_cache(maxsize=BITS_CACHE_SIZE)(mask_indices)
bits.__doc__ = ("Cached :func:`mask_indices`, for the edge masks and their parts "
                "met at every node.")


def compress(mask: int, removed: int) -> int:
    """Drop the bit positions set in ``removed`` and close the gaps."""
    while removed:
        low = removed & -removed
        below = low - 1
        mask = (mask & below) | ((mask >> 1) & ~below)
        removed = (removed >> 1) & ~below
    return mask


def state_of_game(game: Game) -> State:
    """The game with Left to move, ``(n, blue, red)``.  A game's edges are
    stored in the kernel's order, so no sort is needed."""
    return (game.n, game.blue, game.red)


def unit_mask(masks: Iterable[int]) -> int:
    """Vertices forming a one-vertex edge among ``masks``."""
    units = 0
    for m in masks:
        if m & (m - 1) == 0:
            units |= m
    return units


def child(state: State, i: int) -> Optional[State]:
    """State after the mover picks vertex ``i``, seen by the opponent, who
    moves next: ``(n - 1, other, own)``.  None when the pick fills an edge
    of the mover's.

    Removing a bit position that a mask lacks is strictly increasing on
    such masks, so edges not through ``i`` stay distinct and sorted; only
    the mover's edges through ``i`` can collide or move.
    """
    n, own, other = state
    bit = 1 << i
    low = bit - 1
    hi = ~low
    new_own = []
    hit = False
    for m in own:
        if m & bit:
            m ^= bit
            if m == 0:
                return None
            hit = True
        new_own.append((m & low) | ((m >> 1) & hi))
    own_t = tuple(sorted(set(new_own))) if hit else tuple(new_own)
    other_t = tuple([(m & low) | ((m >> 1) & hi) for m in other if not m & bit])
    return (n - 1, other_t, own_t)


def touched_mask(state: State, i: int) -> int:
    """The touched mask of :func:`child`'s state: the other vertices of the
    opponent's edges through ``i``, which the pick kills, numbered as in
    the child.  Only those can gain a twin (see :func:`twin_reduce`)."""
    bit = 1 << i
    touched = 0
    for m in state[2]:
        if m & bit:
            touched |= m
    low = bit - 1
    return (touched & low) | ((touched >> 1) & ~low)  # drops i itself


def dead_pair_reduce(state: State) -> State:
    """Remove vertices carried by no edge, in pairs (parity is preserved by
    keeping one when their count is odd).  A cheap special case of twin
    removal; edge masks keep their relative order under the renumbering."""
    n, blue, red = state
    used = 0
    for m in blue:
        used |= m
    for m in red:
        used |= m
    dead = ((1 << n) - 1) & ~used
    count = dead.bit_count()
    if count < 2:
        return state
    if count & 1:
        dead &= ~(dead & -dead)
        count -= 1
    return (n - count,
            tuple(compress(m, dead) for m in blue),
            tuple(compress(m, dead) for m in red))


def twin_reduce(state: State, touched: Optional[int] = None) -> State:
    """Remove twin pairs until no two vertices are twins.

    Twins are non-unit vertices in exactly the same edges; each pair is one
    pick by each player, so both vertices go and every edge holding them
    dies.  Two vertices with edges are twins exactly when their cover masks
    (the AND of the edges holding each) are equal; a unit's cover is the
    unit alone, so units never pair.  Vertices in no edge are twins of each
    other.

    Every twin pair must hold a vertex of ``touched`` (default: all
    vertices); :func:`touched_mask` gives such a mask for the child of a
    twin-free state.  Only the covers of the touched vertices and of the
    vertices inside those covers, where any twin of theirs lies, are built.
    """
    n, blue, red = state
    if touched is None:
        touched = (1 << n) - 1
    # Twin pairs are removed a whole sweep at a time: within one class the
    # removals commute (killing one pair's edges leaves the rest of the
    # class identical), and distinct classes do not interact.  After a
    # sweep, the survivors differed pairwise, and only a killed edge can
    # have told two of them apart, so the survivors of the killed edges
    # are the next touched mask.
    while n >= 2 and touched:
        edges = blue + red
        cover = [-1] * n
        for m in edges:
            if m & touched:
                for i in bits(m & touched):
                    cover[i] &= m
        if touched == (1 << n) - 1:
            # Every cover is built, and the vertices in no edge share -1.
            if len(set(cover)) == n:
                break
            span = touched
        else:
            span = 0
            lonely = False
            for i in bits(touched):
                c = cover[i]
                if c == -1:
                    lonely = True  # a touched vertex in no edge
                else:
                    span |= c
            rest = span & ~touched
            if rest:
                for m in edges:
                    if m & rest:
                        for i in bits(m & rest):
                            cover[i] &= m
            if lonely:
                used = 0
                for m in edges:
                    used |= m
                span |= ((1 << n) - 1) & ~used  # the vertices in no edge
        # Pair each class's members in index order; an odd one out stays.
        unpaired: dict[int, int] = {}
        removed = 0
        for i in bits(span):
            c = cover[i]
            j = unpaired.pop(c, None)
            if j is None:
                unpaired[c] = i
            else:
                removed |= (1 << j) | (1 << i)
        if not removed:
            break
        killed = 0
        for m in edges:
            if m & removed:
                killed |= m
        blue = [m for m in blue if not m & removed]
        red = [m for m in red if not m & removed]
        touched = killed & ~removed
        # Drop the removed positions, the highest first so that the lower
        # ones stay put.  The kept edges miss them all, so they stay
        # distinct and ordered: no sort is needed.
        for b in reversed(bits(removed)):
            low = (1 << b) - 1
            hi = ~low
            blue = [(m & low) | ((m >> 1) & hi) for m in blue]
            red = [(m & low) | ((m >> 1) & hi) for m in red]
            touched = (touched & low) | ((touched >> 1) & hi)
        blue, red = tuple(blue), tuple(red)
        n -= removed.bit_count()
        state = (n, blue, red)
    return state


def _domination(n: int, cover: list[int], units: int) -> tuple[int, int]:
    # The dominated and the prunable vertices.  ``cover[i]`` is the AND of
    # the edges holding i: the j in every edge that holds i.  A dominated
    # i is prunable when such a non-unit j != i comes first or is not
    # dominated back (a strict domination).
    others = ((1 << n) - 1) & ~units
    dominated = pruned = 0
    for i in range(n):
        bit = 1 << i
        js = cover[i] & others & ~bit
        if not js:
            continue
        dominated |= bit
        if js & (bit - 1):
            pruned |= bit
            continue
        while js:  # every j here is above i
            low = js & -js
            if not cover[low.bit_length() - 1] & bit:
                pruned |= bit
                break
            js ^= low
    return dominated, pruned


def covers(state: State) -> tuple[list[int], list[int], int]:
    """Each vertex's cover mask (the AND of the edges holding it, all
    vertices for one in no edge), its ordering score and the unit vertices,
    from one pass over the edge bits."""
    n, blue, red = state
    full = (1 << n) - 1
    cover = [full] * n
    score = [0] * n
    units = 0
    for m in blue + red:
        if m & (m - 1) == 0:
            units |= m
        w = 3 if m.bit_count() == 2 else 1
        for i in bits(m):
            cover[i] &= m
            score[i] += w
    return cover, score, units


def dominated_mask(state: State) -> int:
    """Vertices dominated by another vertex.

    Vertex i is dominated by j != i when neither is a unit and every edge
    holding i holds j.  A unit's own edge leaves it dominated by nothing.
    """
    cover, _, units = covers(state)
    return _domination(state[0], cover, units)[0]


def prunable_mask(state: State) -> int:
    """Dominated vertices safe to skip together (see :func:`dominated_mask`):
    strict dominations plus all but the lowest-indexed member of each mutual
    class."""
    cover, _, units = covers(state)
    return _domination(state[0], cover, units)[1]


def candidates(state: State, prune: bool) -> list[int]:
    """The mover's candidate picks in search order.

    With ``prune`` the :func:`prunable_mask` vertices are left out.  On more
    than six vertices the rest are ordered by descending score (3 per
    two-vertex edge, 1 per other edge through the vertex), ties by index.
    """
    n = state[0]
    order = n > 6
    if not (prune or order):
        return list(range(n))
    cover, score, units = covers(state)
    if prune:
        pruned = _domination(n, cover, units)[1]
        cand = [i for i in range(n) if not pruned >> i & 1]
    else:
        cand = list(range(n))
    if order and len(cand) > 2:
        # A stable sort keeps equal scores in index order.
        cand.sort(key=score.__getitem__, reverse=True)
    return cand


def canonical_right_reply(state: State) -> tuple[int, bool]:
    """Right's priority pick in a blue<=3 / red<=2 game, and whether it
    makes a double threat Left cannot meet.  ``state`` is Right's view,
    ``(n, red, blue)``.

    Fill a red unit if there is one; otherwise block Left's only blue unit
    if there is exactly one; otherwise take the lowest vertex shared by two
    red pairs (the centre of an intact red path of two edges); otherwise
    vertex 0.  The flag is set when the pick is such a centre and neither
    colour holds a unit: Right then holds two red units and Left none, so
    Right fills one of them next.
    """
    _, red, blue = state
    red_unit_mask = 0
    seen = 0
    shared = 0
    for m in red:
        if m & (m - 1) == 0:
            red_unit_mask |= m
        elif m.bit_count() == 2:
            shared |= seen & m
            seen |= m
    if red_unit_mask:
        return (red_unit_mask & -red_unit_mask).bit_length() - 1, False
    blue_unit_mask = unit_mask(blue)
    if blue_unit_mask and blue_unit_mask & (blue_unit_mask - 1) == 0:
        return blue_unit_mask.bit_length() - 1, False
    if shared:
        return (shared & -shared).bit_length() - 1, not blue_unit_mask
    return 0, False
