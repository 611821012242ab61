"""Independent brute-force oracles for cross-checking the engine.

Deliberately written over raw pick sets with no canonicalization, pruning or
reductions, so they share no machinery with the solver they check.  Only
usable on small games.

Beside them, at the end, reference versions of rules that the engine now
computes a faster way, kept as they were so that a test can require equal
answers.
"""

from __future__ import annotations

import math

from apg import Game, GameResult, Player
from apg.errors import InvalidPathError
from apg.kernel import mask_indices
from apg.poly22 import PathKind, classify

LEFT, RIGHT = Player.LEFT, Player.RIGHT


def antichains(pool):
    """Every set of edges from ``pool`` with no edge inside another, in the
    order of the bitmask over ``pool`` that chooses it.  Sets are chosen
    from the last edge down, and a set holding a nested pair is never
    extended, so the cost follows the number of antichains, not 2^|pool|."""
    sets = [frozenset(e) for e in pool]

    def extend(k, chosen):
        # ``chosen``, from sets[k:] with the highest index first, extended by
        # every choice among sets[:k].
        if k == 0:
            yield [sorted(s) for s in reversed(chosen)]
            return
        s = sets[k - 1]
        yield from extend(k - 1, chosen)
        if not any(s < c or c < s for c in chosen):
            yield from extend(k - 1, chosen + [s])

    yield from extend(len(sets), [])


def closed_state(rng, n, blue_sizes, red_sizes):
    """A random state ``(n, blue, red)`` whose edges of each colour are
    closed under one random permutation of the vertices, and that
    permutation: each edge drawn, of a size from the colour's sizes,
    brings its whole orbit."""
    perm = list(range(n))
    rng.shuffle(perm)

    def edges(sizes):
        out = set()
        for _ in range(rng.randint(1, 3)):
            m = sum(1 << v for v in rng.sample(range(n), min(n, rng.choice(sizes))))
            while m not in out:
                out.add(m)
                m = sum(1 << perm[v] for v in range(n) if m >> v & 1)
        return tuple(sorted(out))

    return (n, edges(blue_sizes), edges(red_sizes)), tuple(perm)


def brute_result(game: Game, first_player: Player) -> GameResult:
    edges = {LEFT: [frozenset(e) for e in game.blue_edges],
             RIGHT: [frozenset(e) for e in game.red_edges]}
    verts = tuple(game.vertices)
    memo: dict = {}

    def value(picked_l: frozenset, picked_r: frozenset, mover: Player) -> int:
        # +1 Left wins, 0 draw, -1 Right wins
        key = (picked_l, picked_r, mover)
        if key in memo:
            return memo[key]
        free = [v for v in verts if v not in picked_l and v not in picked_r]
        if not free:
            return 0
        results = []
        for v in free:
            if mover is LEFT:
                nl = picked_l | {v}
                if any(e <= nl for e in edges[LEFT]):
                    results.append(1)
                else:
                    results.append(value(nl, picked_r, RIGHT))
            else:
                nr = picked_r | {v}
                if any(e <= nr for e in edges[RIGHT]):
                    results.append(-1)
                else:
                    results.append(value(picked_l, nr, LEFT))
        best = max(results) if mover is LEFT else min(results)
        memo[key] = best
        return best

    v = value(frozenset(), frozenset(), first_player)
    return {1: GameResult.LEFT_WIN, 0: GameResult.DRAW, -1: GameResult.RIGHT_WIN}[v]


def canonical_right_pick(vertices, blue, red, picked_l: frozenset,
                         picked_r: frozenset) -> str:
    """The canonical Right strategy's pick on a game's ``vertices`` and its
    ``blue`` and ``red`` edges (sets of names), from the paper's statement
    of the strategy: fill a red edge that lacks one vertex; else block Left's only
    vertex that fills a blue edge, when there is exactly one; else take a
    vertex on two distinct red edges that each lack two vertices (the
    centre of an intact red path of two edges); else the first free
    vertex.  Each rule takes the first such vertex in the game's order.
    Only edges the other side has not entered count."""
    free = [v for v in vertices if v not in picked_l and v not in picked_r]
    red = {e - picked_r for e in red if not e & picked_l}
    blue = {e - picked_l for e in blue if not e & picked_r}
    red_units = {v for e in red if len(e) == 1 for v in e}
    blue_units = {v for e in blue if len(e) == 1 for v in e}
    pairs = [e for e in red if len(e) == 2]
    centres = {v for a in pairs for b in pairs if a != b for v in a & b}
    for chosen in (red_units, blue_units if len(blue_units) == 1 else (), centres):
        for v in free:
            if v in chosen:
                return v
    return free[0]


def survives_canonical_right_brute(game: Game, right_turns=None) -> bool:
    """Whether Left, moving first, avoids losing against the canonical Right
    strategy (:func:`canonical_right_pick`), by trying every Left pick.
    When ``right_turns`` is a list, each Right turn met is appended to it
    as ``(Left's picks, Right's picks, Right's pick)``."""
    blue, red = game.blue_edges, game.red_edges
    memo: dict = {}

    def survives(picked_l: frozenset, picked_r: frozenset) -> bool:
        # Left to move.
        free = [v for v in game.vertices if v not in picked_l and v not in picked_r]
        return not free or any(right_turn(picked_l | {v}, picked_r) for v in free)

    def right_turn(picked_l: frozenset, picked_r: frozenset) -> bool:
        if any(e <= picked_l for e in blue) or len(picked_l) + len(picked_r) == game.n:
            return True
        key = (picked_l, picked_r)
        if key not in memo:
            v = canonical_right_pick(game.vertices, blue, red, picked_l, picked_r)
            if right_turns is not None:
                right_turns.append((picked_l, picked_r, v))
            after = picked_r | {v}
            memo[key] = not any(e <= after for e in red) and survives(picked_l, after)
        return memo[key]

    return survives(frozenset(), frozenset())


def brute_delay(game: Game, protagonist: Player) -> float:
    """Score of the pass-move scoring game, by direct minimax."""
    own_edges = [frozenset(e) for e in
                 (game.blue_edges if protagonist is LEFT else game.red_edges)]
    ant_edges = [frozenset(e) for e in
                 (game.red_edges if protagonist is LEFT else game.blue_edges)]
    verts = tuple(game.vertices)
    memo: dict = {}

    def value(picked_p: frozenset, picked_a: frozenset, prot_turn: bool) -> float:
        key = (picked_p, picked_a, prot_turn)
        if key in memo:
            return memo[key]
        free = [v for v in verts if v not in picked_p and v not in picked_a]
        if prot_turn:
            if not free:
                best = math.inf
            else:
                best = math.inf
                for v in free:
                    np = picked_p | {v}
                    if any(e <= np for e in own_edges):
                        best = 0.0
                        break
                    best = min(best, value(np, picked_a, False))
        else:
            best = value(picked_p, picked_a, True) + 1  # pass
            for v in free:
                na = picked_a | {v}
                if any(e <= na for e in ant_edges):
                    best = math.inf
                    break
                best = max(best, value(picked_p, na, True))
        memo[key] = best
        return best

    return value(frozenset(), frozenset(), True)


def has_p3(masks) -> bool:
    """``poly22.has_p3`` as it was: whether some vertex has two neighbours."""
    return any(m & (m - 1) for m in masks)


def _delete22(adj, v: int) -> None:
    # ``poly22._delete`` as it was: v's edges die with it.
    bit = 1 << v
    for masks in adj:
        for w in mask_indices(masks[v]):
            masks[w] ^= bit
        masks[v] = 0


def reduce_type3(adj, path) -> None:
    """``poly22.reduce_type3`` as it was, deleting through ``_delete22``."""
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
        _delete22(adj, v)


def right_to_move_rule_walking_every_vertex(adj) -> bool:
    """``poly22.right_to_move_rule`` as it was before it walked only the
    vertices on the red matching: every pass walks every live vertex, each
    even path goes through ``reduce_type3`` (two-vertex ones too), and the
    final test takes the odd paths of the last pass alone.  It shares only
    ``classify`` with the rule it checks."""
    if has_p3(adj[1]):
        return False
    adj = (list(adj[0]), list(adj[1]))
    blue, red = adj
    n = len(blue)
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
    centres = 0
    for v in range(n):
        if blue[v] & (blue[v] - 1):
            centres |= 1 << v
    if not centres:
        return False
    count = centres.bit_count()
    for path in odd:
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
        return False
    return True
