"""Mask-level state operations shared by every exact search.

A state is ``(n, own, other)``: ``n`` free vertices indexed ``0..n-1`` and
the live edges of each side as bitmasks over them, each tuple deduplicated
and sorted by integer value, as ``Game`` stores them.  The searches see a
state from the side to move: ``own`` holds the mover's edges and ``other``
the opponent's, so Left to move on a game is ``(n, blue, red)`` and Right
to move is ``(n, red, blue)``.  The game is colour-symmetric, so one rule
serves both players and a position and its colour-swapped mirror share a
memo entry.  The twin and domination functions treat both sides alike;
the others read the view.  The functions here are pure; the solver's
search, ``reductions.canonical_right_move`` (through
:func:`canonical_right_reply`, the canonical Right strategy's pick) and
the domination and pairing queries of ``ops`` all call them, so each rule
is written once.

Per-node costs are kept low by reading each edge's bit positions from a
bounded cache (:func:`bits`) and by working on whole masks where a vertex
loop would compare every pair.

Some children are decided by what the parent already knows.
:func:`expand` reads, in the pass that orders the moves, the pairs of each
side through every vertex and the vertices on two and on three of the
opponent's pairs; a forced block is read by the same scan, over the
mover's edges through the block only.  From these, :func:`opponent_reply`
answers, for a pick and without the child being built, whether the
opponent then holds a double threat the mover cannot meet (the child is
the opponent's win) and whether the opponent must block the mover's one
unit (the child is worth its one child).  It rests on one fact: the mover
holds no unit where a pick is searched, so a pick gives it units only at
the other ends of its pairs through the pick, and leaves the opponent's
edges that miss the pick as they were.  :func:`grandchild` then applies a
pick and its forced reply in one pass.

:class:`MapFinder` looks for permutations of one state's vertices that
keep each side's edge set and join two given picks, for the search's
symmetry rule; it builds each colouring it needs once per state, and only
its final check on the edges vouches for a map.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from .core import Game

State = tuple[int, tuple[int, ...], tuple[int, ...]]
# A node's pair reads (see :func:`expand`): per vertex the OR of the mover's
# pairs through it, the same for the opponent's pairs, the opponent's units,
# and the vertices on at least two and three opponent pairs.  At a forced
# block the mover's lists hold only its pairs through the block.
Reads = tuple[list[int], list[int], int, int, int]

# Residual states are renumbered, so few distinct masks recur: the edge
# masks number under 1,000 in the `gadgets` and `boards` benchmark
# searches.  The bound keeps the cache to a few MB on inputs that meet
# many more.
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


def twin_reduce(state: State) -> tuple[State, list[tuple[int, int]]]:
    """Remove twin pairs until no two vertices are twins, and list the
    pairs removed, numbered as in ``state``, in removal order.

    Twins are non-unit vertices in exactly the same edges; each pair is one
    pick by each player, so both vertices go and every edge holding them
    dies.  Two vertices with edges are twins exactly when their cover masks
    (the AND of the edges holding each) are equal; a unit's cover is the
    unit alone, so units never pair.  Vertices in no edge are twins of each
    other.
    """
    n, blue, red = state
    index = list(range(n))  # each vertex's number in ``state``
    pairs: list[tuple[int, int]] = []
    # Twin pairs are removed a whole sweep at a time: within one class the
    # removals commute (killing one pair's edges leaves the rest of the
    # class identical), and distinct classes do not interact.
    while n >= 2:
        cover = [-1] * n
        for m in blue + red:
            for i in bits(m):
                cover[i] &= m
        # The vertices in no edge share -1.
        if len(set(cover)) == n:
            break
        # Pair each class's members in index order; an odd one out stays.
        unpaired: dict[int, int] = {}
        removed = 0
        for i, c in enumerate(cover):
            j = unpaired.pop(c, None)
            if j is None:
                unpaired[c] = i
            else:
                removed |= (1 << j) | (1 << i)
                pairs.append((index[j], index[i]))
        # The kept edges miss every removed position, so dropping those
        # positions keeps them distinct and ordered: no sort is needed.
        blue = tuple([compress(m, removed) for m in blue if not m & removed])
        red = tuple([compress(m, removed) for m in red if not m & removed])
        index = [v for i, v in enumerate(index) if not removed >> i & 1]
        n -= removed.bit_count()
        state = (n, blue, red)
    return state, pairs


def pairing(masks: Sequence[int]) -> Optional[tuple[int, ...]]:
    """A pairing of the distinct edges ``masks``: one two-vertex mask inside
    each edge, in the order given, no two sharing a vertex; None when there
    is none.

    It is a matching of two slots per edge into the vertices, so one exists
    exactly when Hall's condition holds with demand 2: every k of the edges
    hold at least 2k vertices together.  A one-vertex edge, or fewer than
    2k vertices under all k edges, rejects at once.  Otherwise each slot in
    turn is filled by a breadth-first augmenting path, which takes the
    edge's lowest free vertex when it has one; the search is a loop with no
    recursion however long the path.
    """
    union = 0
    for m in masks:
        if not m & (m - 1):
            return None
        union |= m
    if union.bit_count() < 2 * len(masks):
        return None
    owner = [-1] * union.bit_length()  # the edge holding each vertex
    held = [0] * len(masks)  # the vertices each edge holds
    for k in range(len(masks)):
        for _ in range(2):  # two slots per edge
            if not _augment(masks, owner, held, k):
                return None
    return tuple(held)


def _augment(masks: Sequence[int], owner: list[int], held: list[int],
             k: int) -> int:
    # One more vertex for edge k, by a breadth-first search from k for a
    # vertex no edge holds: each edge on the path gives the vertex it was
    # entered by to the edge before it and takes the next one.  Returns the
    # bit of that free vertex, now held, or 0 when there is no such path.
    via = {}  # each reached vertex: the edge that reached it
    entry = {k: -1}  # each reached edge: the vertex it was entered by
    seen = held[k]
    queue = [k]
    for f in queue:  # the queue grows while it is read
        reach = masks[f] & ~seen
        seen |= reach
        while reach:
            low = reach & -reach
            reach ^= low
            v = low.bit_length() - 1
            g = owner[v]
            if g < 0:
                # Flip the path back to k.
                while f != k:
                    u = entry[f]
                    owner[v] = f
                    held[f] ^= (1 << u) | (1 << v)
                    v, f = u, via[u]
                owner[v] = k
                held[k] |= 1 << v
                return low
            via[v] = f
            if g not in entry:
                entry[g] = v
                queue.append(g)
    return 0


def _refine(n: int, edges: list[tuple[int, tuple[int, ...]]],
            incident: list[list[int]], colour: list[int]) -> list[int]:
    # Colour refinement on the vertex-edge incidence structure: an edge's
    # colour hashes its side and its vertices' colours, a vertex's its own
    # colour and its edges' colours, until the number of colours stops
    # growing or every vertex has its own.  Only ints and tuples of ints are
    # hashed, so the colours do not depend on PYTHONHASHSEED.
    count = len(set(colour))
    while count < n:
        ecol = [hash((side, tuple(sorted([colour[v] for v in vs]))))
                for side, vs in edges]
        colour = [hash((colour[v], tuple(sorted([ecol[e] for e in incident[v]]))))
                  for v in range(n)]
        new = len(set(colour))
        if new == count:
            break
        count = new
    return colour


def _first_repeat(colour: list[int]) -> Optional[int]:
    # The first colour met twice, or None when every vertex has its own.
    seen = set()
    for c in colour:
        if c in seen:
            return c
        seen.add(c)
    return None


def _pair_in_order(a: list[int], b: list[int]) -> Optional[list[int]]:
    # The map that sends the k-th vertex of each colour of ``a`` onto the
    # k-th vertex of that colour in ``b``, both in index order; None when a
    # colour has fewer vertices in ``b`` than in ``a``.  The two have the
    # same length, so a map returned takes every vertex once: a permutation.
    members: dict[int, list[int]] = {}
    for v in range(len(b) - 1, -1, -1):  # each list highest first, popped lowest
        members.setdefault(b[v], []).append(v)
    p = []
    for c in a:
        vs = members.get(c)
        if not vs:
            return None
        p.append(vs.pop())
    return p


class MapFinder:
    """Permutations of one state's vertices (``p[v]`` is the image of
    ``v``) that map the ``own`` edges onto themselves and the ``other``
    edges onto themselves, asked pick by pick for the search's symmetry
    rule.  One finder serves one node: it builds the edge and incidence
    lists, the refined base colouring and, at its first use, each vertex's
    individualised and refined colouring once, and every later question at
    the node reads them.

    :meth:`find` makes one attempt, with no backtracking.  The vertex
    tried is the first earlier pick whose base colour is the pick's (no
    automorphism joins two colours).  First the shortcut: the two
    vertices' individualised colourings are paired class by class in
    index order.  A state's symmetric parts are usually numbered in the
    same relative order, so that pairing is usually the map.  When it
    fails, the chain goes on from the same two colourings: while a colour
    holds two vertices, the lowest vertex of that colour is individualised
    in each copy and each is refined in turn, until every vertex has its
    own colour and the map matches the colours.  Refinement stops as soon
    as the colours are distinct and hashed colours may collide, so neither
    step vouches for a map: only the final check does, that it maps each
    edge set onto itself and the earlier pick onto the pick.
    """

    __slots__ = ("n", "edges", "incident", "sides", "base", "_single")

    def __init__(self, state: State):
        n, own, other = state
        self.n = n
        self.edges = [(0, bits(m)) for m in own] + [(1, bits(m)) for m in other]
        self.incident: list[list[int]] = [[] for _ in range(n)]
        for e, (_, vs) in enumerate(self.edges):
            for v in vs:
                self.incident[v].append(e)
        self.sides = (frozenset(own), frozenset(other))
        self.base = _refine(n, self.edges, self.incident, [0] * n)
        self._single: dict[int, list[int]] = {}

    def _individualised(self, v: int) -> list[int]:
        # The base colouring with v given a colour of its own, refined; the
        # caller copies it before changing it.
        colour = self._single.get(v)
        if colour is None:
            colour = self.base[:]
            colour[v] = hash((colour[v], -1))
            colour = self._single[v] = _refine(self.n, self.edges, self.incident, colour)
        return colour

    def _keeps(self, p: Sequence[int], i: int, j: int) -> bool:
        # The final check: p sends i onto j and each edge onto an edge of
        # its own side.
        if p[i] != j:
            return False
        sides = self.sides
        for side, vs in self.edges:
            image = 0
            for v in vs:
                image |= 1 << p[v]
            if image not in sides[side]:
                return False
        return True

    def find(self, earlier: Sequence[int], j: int) -> Optional[tuple[int, ...]]:
        """A checked map that sends a vertex of ``earlier`` onto ``j``;
        None when the attempt finds none."""
        base = self.base
        i = next((k for k in earlier if base[k] == base[j]), None)
        if i is None:
            return None
        a, b = self._individualised(i), self._individualised(j)
        p = _pair_in_order(a, b)
        if p is not None and self._keeps(p, i, j):
            return tuple(p)
        c = _first_repeat(a)
        if c is None:
            return None  # the chain would end with the map just refused
        a, b = a[:], b[:]
        n, edges, incident = self.n, self.edges, self.incident
        for _ in range(n - 1):
            if c not in b:
                return None
            u, v = a.index(c), b.index(c)
            a[u] = b[v] = hash((a[u], -1))
            a = _refine(n, edges, incident, a)
            b = _refine(n, edges, incident, b)
            c = _first_repeat(a)
            if c is None:
                break
        else:
            return None
        p = _pair_in_order(a, b)
        if p is None or not self._keeps(p, i, j):
            return None
        return tuple(p)


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


def _scan_side(edges: tuple[int, ...], cover: list[int], score: list[int],
               pairs: list[int]) -> tuple[int, int, int]:
    # One side's part of _scan: folds its edges into the covers, scores and
    # per-vertex pair masks, and returns its units and the vertices on at
    # least two and three of its pairs.
    units = seen = d2 = d3 = 0
    for m in edges:
        high = m & (m - 1)
        if high and not high & (high - 1):
            d3 |= d2 & m
            d2 |= seen & m
            seen |= m
            for i in bits(m):
                cover[i] &= m
                score[i] += 3
                pairs[i] |= m
        else:
            if not high:
                units |= m
            for i in bits(m):
                cover[i] &= m
                score[i] += 1
    return units, d2, d3


def _scan(state: State) -> tuple[list[int], list[int], int, Reads]:
    # One pass over the edge bits: each vertex's cover mask and ordering
    # score, the unit vertices, and the pair reads of :func:`expand`.
    n, own, other = state
    cover = [(1 << n) - 1] * n
    score = [0] * n
    own_pairs = [0] * n
    other_pairs = [0] * n
    units = _scan_side(own, cover, score, own_pairs)[0]
    other_units, d2, d3 = _scan_side(other, cover, score, other_pairs)
    return (cover, score, units | other_units,
            (own_pairs, other_pairs, other_units, d2, d3))


def covers(state: State) -> tuple[list[int], list[int], int]:
    """Each vertex's cover mask (the AND of the edges holding it, all
    vertices for one in no edge), its ordering score and the unit vertices,
    from one pass over the edge bits."""
    return _scan(state)[:3]


def domination(state: State) -> tuple[int, int]:
    """The dominated vertices, and those of them safe to skip together.

    Vertex i is dominated by j != i when neither is a unit and every edge
    holding i holds j.  A unit's own edge leaves it dominated by nothing.
    The prunable ones are the strict dominations plus all but the
    lowest-indexed member of each mutual class.
    """
    cover, _, units = covers(state)
    return _domination(state[0], cover, units)


def expand(state: State, prune: bool,
           block: Optional[int] = None) -> tuple[Sequence[int], Reads]:
    """The mover's picks in search order and the node's pair reads, from
    one pass over the edges.

    With ``block`` the one pick is ``block`` (the forced block of the
    opponent's only unit), and of the mover's edges only those through it
    are read.  Otherwise the picks are every vertex, less the
    :func:`domination` prunable vertices with ``prune``; on more than six
    vertices they are ordered by descending score (3 per two-vertex edge,
    1 per other edge through the vertex), ties by index.  The pair reads
    come from the pass that builds the covers and scores.
    :func:`opponent_reply` reads a pick's child from them.
    """
    n, own, other = state
    if block is not None:
        # Only the block is picked, so only the mover's edges through it
        # are scanned: scanning them all cost 9-17% more per solve on the
        # QBF gadgets of the benchmark.
        bit = 1 << block
        return (block,), _scan((n, tuple([m for m in own if m & bit]), other))[3]
    cover, score, units, reads = _scan(state)
    if prune:
        pruned = _domination(n, cover, units)[1]
        cand = [i for i in range(n) if not pruned >> i & 1]
    else:
        cand = list(range(n))
    if n > 6 and len(cand) > 2:
        # A stable sort keeps equal scores in index order.
        cand.sort(key=score.__getitem__, reverse=True)
    return cand, reads


def opponent_reply(reads: Reads, i: int) -> tuple[bool, int]:
    """How the opponent meets the mover's pick ``i``, read from the
    parent's pair reads (:func:`expand`) without building the child:
    ``(threat, block)``.

    ``threat`` is the double-threat test that ``Solver._settle`` makes on
    the child: the opponent holds no unit but a P3 centre, and the mover
    holds no unit, or one at such a centre.  The child is then a win for
    the opponent.  ``block`` is the mover's only unit, numbered as in the
    parent, when the opponent holds no unit (else -1): every other reply
    lets the mover fill it, so the opponent's node is worth its one child.
    """
    # The mover holds no unit where a pick is searched, so its units are
    # the other ends of its pairs through i.  The opponent's edges through
    # i die and the rest stay, so a vertex stays on two opponent pairs when
    # it was on three, or on two of which none went through i.
    own_pairs, other_pairs, other_units, d2, d3 = reads
    bit = 1 << i
    units = own_pairs[i] & ~bit
    if other_units & ~bit or units & (units - 1):
        return False, -1
    centres = (d3 | d2 & ~other_pairs[i]) & ~bit
    return (centres != 0 and not units & ~centres), units.bit_length() - 1


def grandchild(state: State, i: int, j: int) -> Optional[State]:
    """The state after the mover picks ``i`` and the opponent ``j`` (both
    numbered as in ``state``), seen by the mover again; None when a pick
    fills an edge of its picker.  One pass for
    ``child(child(state, i), j')``, where ``j'`` is ``j`` as numbered in
    the child.
    """
    n, own, other = state
    bi, bj = 1 << i, 1 << j
    lo, hi = (i, j) if i < j else (j, i)
    low = (1 << lo) - 1
    mid = ((1 << hi) - 1) & ~((2 << lo) - 1)
    top = ~((1 << (hi - 1)) - 1)
    new_own = []
    hit = False
    for m in own:
        if m & bj:
            continue
        if m & bi:
            m ^= bi
            if m == 0:
                return None
            hit = True
        new_own.append((m & low) | ((m & mid) >> 1) | ((m >> 2) & top))
    own_t = tuple(sorted(set(new_own))) if hit else tuple(new_own)
    new_other = []
    hit = False
    for m in other:
        if m & bi:
            continue
        if m & bj:
            m ^= bj
            if m == 0:
                return None
            hit = True
        new_other.append((m & low) | ((m & mid) >> 1) | ((m >> 2) & top))
    other_t = tuple(sorted(set(new_other))) if hit else tuple(new_other)
    return (n - 2, own_t, other_t)


def canonical_right_reply(state: State) -> int:
    """Right's priority pick in a blue<=3 / red<=2 game.  ``state`` is
    Right's view, ``(n, red, blue)``.

    Fill a red unit if there is one; otherwise block Left's only blue unit
    if there is exactly one; otherwise take the lowest vertex shared by two
    red pairs (the centre of an intact red path of two edges); otherwise
    vertex 0.
    """
    n, red, blue = state
    red_units, centres, _ = _scan_side(red, [0] * n, [0] * n, [0] * n)
    if red_units:
        return (red_units & -red_units).bit_length() - 1
    blue_units = unit_mask(blue)
    if blue_units and blue_units & (blue_units - 1) == 0:
        return blue_units.bit_length() - 1
    if centres:
        return (centres & -centres).bit_length() - 1
    return 0
