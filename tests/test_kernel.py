"""The mask-level kernel against written-out definitions and the name-level
game algebra, on exhaustive small boards and seeded random ones."""

import itertools
import random

import pytest

from apg import AlreadyWonError, Player, Solver, update
from apg.core import game_from_masks
from apg.kernel import (
    candidates,
    child,
    compress,
    prunable_mask,
    signatures,
    state_of_game,
    twin_reduce,
)
from apg.reductions import CnfFormula, sat_draw_game, sat_win_game

PHI3 = CnfFormula(3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3)))


def exhaustive_states():
    """Every board on at most 3 vertices, and every board on 4 vertices with
    at most two edges of each color."""
    for n in range(4):
        masks = range(1, 1 << n)
        subsets = [s for k in range(len(masks) + 1)
                   for s in itertools.combinations(masks, k)]
        for blue in subsets:
            for red in subsets:
                yield (n, blue, red)
    few = [s for k in range(3) for s in itertools.combinations(range(1, 16), k)]
    for blue in few:
        for red in few:
            yield (4, blue, red)


def random_states(seed, count, max_vertices=14):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_vertices)

        def edges():
            return tuple(sorted({
                sum(1 << v for v in rng.sample(range(n), rng.randint(1, min(n, 4))))
                for _ in range(rng.randint(0, n))}))

        blue, red = edges(), edges()
        if n >= 2 and rng.random() < 0.4:
            # copy one vertex's memberships onto another to make twins
            a, b = rng.sample(range(n), 2)

            def copy(ms):
                return tuple(sorted({m | 1 << b if m >> a & 1 else m & ~(1 << b)
                                     for m in ms} - {0}))

            blue, red = copy(blue), copy(red)
        yield (n, blue, red)


def all_states():
    yield from exhaustive_states()
    yield from random_states(2503, 3000)


def pairwise_prunable(state):
    """The domination rule by its definition: i is skipped when some other
    non-unit j lies in every edge holding i, and either j does not lie in
    exactly the same edges or j comes first."""
    n, blue, red = state
    edges = blue + red
    units = {m.bit_length() - 1 for m in edges if m.bit_count() == 1}
    holding = [{e for e, m in enumerate(edges) if m >> i & 1} for i in range(n)]
    out = 0
    for i in range(n):
        if i in units:
            continue
        for j in range(n):
            if j != i and j not in units and holding[i] <= holding[j] \
                    and (holding[i] != holding[j] or j < i):
                out |= 1 << i
                break
    return out


def as_game(state):
    n, blue, red = state
    return game_from_masks(tuple(f"v{i}" for i in range(n)), blue, red)


@pytest.mark.parametrize("states", [exhaustive_states, lambda: random_states(2503, 3000)],
                         ids=["exhaustive", "random"])
def test_prunable_mask_matches_pairwise_definition(states):
    for state in states():
        assert prunable_mask(state) == pairwise_prunable(state), state


def test_candidates_are_unpruned_vertices_by_score():
    for state in random_states(17, 2000):
        n, blue, red = state
        score = [sum(3 if m.bit_count() == 2 else 1 for m in blue + red if m >> i & 1)
                 for i in range(n)]
        for prune in (True, False):
            pruned = prunable_mask(state) if prune else 0
            want = [i for i in range(n) if not pruned >> i & 1]
            if n > 6 and len(want) > 2:
                want.sort(key=lambda i: (-score[i], i))
            assert candidates(state, prune) == want, (state, prune)


@pytest.mark.parametrize("states", [exhaustive_states, lambda: random_states(4, 1500)],
                         ids=["exhaustive", "random"])
def test_child_matches_update(states):
    for state in states():
        game = as_game(state)
        for i in range(state[0]):
            for mover, picks in ((0, ([game.vertices[i]], [])),
                                 (1, ([], [game.vertices[i]]))):
                try:
                    want = state_of_game(update(game, *picks))
                except AlreadyWonError:
                    want = None
                assert child(state, mover, i) == want, (state, mover, i)


def test_twin_reduce_reaches_a_fixed_point():
    for state in all_states():
        reduced = twin_reduce(state)
        n, blue, red = reduced
        assert blue == tuple(sorted(set(blue))) and red == tuple(sorted(set(red)))
        sigs = signatures(n, blue + red)
        assert len(set(sigs)) == n, (state, reduced)
        assert twin_reduce(reduced) == reduced
        # pairs are removed, so the move parity is kept
        assert (state[0] - n) % 2 == 0


def test_compress_drops_positions_in_order():
    rng = random.Random(9)
    for _ in range(2000):
        mask, removed = rng.getrandbits(24), rng.getrandbits(24)
        kept = [i for i in range(24) if not removed >> i & 1]
        want = sum(1 << k for k, i in enumerate(kept) if mask >> i & 1)
        assert compress(mask, removed) == want


def test_phi3_node_counts_are_pinned():
    # Exact search size with the default configuration: any change to the
    # candidate set, their order or the canonical states moves these counts.
    s = Solver()
    s.solve(sat_draw_game(PHI3).game, Player.LEFT)
    assert s.last_stats.nodes_expanded == 7222
    s = Solver()
    s.solve(sat_win_game(PHI3).game, Player.LEFT)
    assert s.last_stats.nodes_expanded == 736
