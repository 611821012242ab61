"""Pruning soundness: every cutoff and reduction can be switched off without
changing any value."""

import dataclasses
import itertools

from apg import GameResult, Player, Solver, SolverConfig, new_game, solver
from apg.core import game_from_masks
from apg.gadgets import random_game, random_paired_game, rng_for
from apg.kernel import bits, pairing
from apg.solver import PLAIN, TOGGLES

from oracles import antichains, brute_result, closed_state

L, R = Player.LEFT, Player.RIGHT

NO_THREATS = SolverConfig(use_double_threats=False)

# The pairing rule alone, on the plain search.
PAIRING = dataclasses.replace(PLAIN, use_pairing=True)
# The symmetry rule alone, on the plain search.
SYMMETRY = dataclasses.replace(PLAIN, use_symmetry=True)


def test_exhaustive_three_vertex_games_any_rank():
    verts = ["a", "b", "c"]
    pool = [list(c) for r in (1, 2, 3) for c in itertools.combinations(verts, r)]
    plain = Solver(PLAIN)
    tuned = Solver()
    checked = fired = 0
    for blue_bits in range(1 << len(pool)):
        blue = [pool[i] for i in range(len(pool)) if blue_bits >> i & 1]
        for red_bits in range(1 << len(pool)):
            red = [pool[i] for i in range(len(pool)) if red_bits >> i & 1]
            g = new_game(verts, blue, red)
            for first in (L, R):
                checked += 1
                want = brute_result(g, first)
                assert plain.solve(g, first) == want, g
                assert tuned.solve(g, first) == want, g
                fired += tuned.last_stats.threat_cutoffs
    assert checked == (1 << 7) * (1 << 7) * 2
    assert fired > 0


def test_exhaustive_four_vertex_games_rank3():
    # An edge holding another edge of its colour never decides a game (the
    # smaller one is filled first), so the antichains of edges of size <= 3
    # stand for every board of up to 4 vertices with such edges.
    checked = threats = replies = paired = 0
    for n in range(5):
        verts = "abcd"[:n]
        pool = [c for r in (1, 2, 3) for c in itertools.combinations(verts, r)]
        families = list(antichains(pool))
        plain, tuned, no_threats = Solver(PLAIN), Solver(), Solver(NO_THREATS)
        pairs_only = Solver(PAIRING)
        for blue in families:
            for red in families:
                g = new_game(verts, blue, red)
                for first in (L, R):
                    checked += 1
                    want = brute_result(g, first)
                    assert plain.solve(g, first) == want, g
                    assert no_threats.solve(g, first) == want, g
                    assert tuned.solve(g, first) == want, g
                    assert pairs_only.solve(g, first) == want, g
                    threats += tuned.last_stats.threat_cutoffs
                    replies += tuned.last_stats.forced_replies
                    paired += pairs_only.last_stats.pairing_cutoffs
                    assert no_threats.last_stats.threat_cutoffs == 0
    assert checked == 2 * sum(k * k for k in (1, 2, 5, 19, 166))
    assert threats > 1000 and replies > 1000 and paired > 1000


def test_rank4_games_against_plain_and_brute_force():
    # Fresh tuned solvers per board, so every rule firing of their searches
    # is checked, none answered from an earlier memo.  The double-threat
    # rule ends many nodes before the leaf oracle or the potentials are
    # asked, so those two are counted on a second solver with it off.  The
    # pairing rule is counted alone on the plain search.
    rng = rng_for(92, "pruning-rank4")
    plain = Solver(PLAIN)
    fired = [0, 0, 0, 0, 0]
    for _ in range(3000):
        g = random_game(rng, max_vertices=8, max_edge_size=4)
        for first in (L, R):
            tuned, no_threats = Solver(), Solver(NO_THREATS)
            pairs_only = Solver(PAIRING)
            want = brute_result(g, first)
            assert tuned.solve(g, first) == want, g
            assert no_threats.solve(g, first) == want, g
            assert plain.solve(g, first) == want, g
            assert pairs_only.solve(g, first) == want, g
            fired[0] += no_threats.last_stats.leaf_calls
            fired[1] += no_threats.last_stats.potential_cutoffs
            fired[2] += tuned.last_stats.threat_cutoffs
            fired[3] += tuned.last_stats.forced_replies
            fired[4] += pairs_only.last_stats.pairing_cutoffs
    assert min(fired) > 100  # all five rules are exercised


def test_random_larger_games():
    rng = rng_for(90, "pruning-large")
    plain = Solver(PLAIN)
    tuned = Solver()
    paired = 0
    for _ in range(200):
        g = random_game(rng, max_vertices=8, max_edge_size=3)
        for first in (L, R):
            want = brute_result(g, first)
            pairs_only = Solver(PAIRING)
            assert plain.solve(g, first) == want, g
            assert tuned.solve(g, first) == want, g
            assert pairs_only.solve(g, first) == want, g
            paired += pairs_only.last_stats.pairing_cutoffs
    assert paired > 100


def past_hall(g):
    """``g`` with one blue edge more: two vertices of its first blue edge
    when that edge has three, else one of its two and another vertex.  The
    two edges span three vertices, too few for two disjoint pairs, so
    Hall's condition fails.  Needs three vertices or more."""
    e = g.blue[0]
    if e.bit_count() == 3:
        extra = e & (e - 1)  # e without its lowest vertex
    else:
        a, b = bits(e)
        c = next(i for i in range(g.n) if i not in (a, b))
        extra = 1 << b | 1 << c
    return game_from_masks(g.vertices, g.blue + (extra,), g.red)


def test_pairing_rule_on_paired_boards_and_one_edge_past_them():
    # Boards built so that a pair of the generator's hits every blue edge,
    # and the same boards with one blue edge more that breaks Hall's
    # condition: the rule fires on the first kind when each blue edge can
    # take a pair of its own, and must leave Left's edges of the second
    # kind to the search.
    rng = rng_for(93, "pruning-pairing")
    plain = Solver(PLAIN)
    fired = [0, 0]
    for _ in range(400):
        g, _ = random_paired_game(rng, pairs=rng.randint(1, 3),
                                  extra_vertices=rng.randint(1, 2))
        broken = past_hall(g)
        assert pairing(broken.blue) is None, broken
        for k, board in enumerate((g, broken)):
            for first in (L, R):
                want = brute_result(board, first)
                pairs_only = Solver(PAIRING)
                assert plain.solve(board, first) == want, board
                assert pairs_only.solve(board, first) == want, board
                assert Solver().solve(board, first) == want, board
                fired[k] += pairs_only.last_stats.pairing_cutoffs
    assert fired[0] > 500 and fired[1] > 100


def closed_board(rng, n, blue_sizes, red_sizes):
    """A board on ``n`` vertices whose edges of each colour are closed under
    one random permutation of the vertices."""
    _, blue, red = closed_state(rng, n, blue_sizes, red_sizes)[0]
    return game_from_masks(tuple(f"v{i}" for i in range(n)), blue, red)


def test_symmetry_rule_on_boards_closed_under_a_permutation(monkeypatch):
    # With the gate at 0 every searched pick but a node's first is checked
    # against the picks before it, by the rule alone and with every rule.
    # Both first players against the plain search and brute force, then
    # blue<=3 / red<=2 boards through the canonical-Right query, which asks
    # the game value "can Left avoid losing?".  Fresh solvers per
    # board, so no firing is answered from an earlier board's memo.
    monkeypatch.setattr(solver, "SYMMETRY_MIN_NODES", 0)
    rng = rng_for(94, "pruning-symmetry")
    plain = Solver(PLAIN)
    fired = [0, 0, 0, 0]  # alone and with every rule, per query kind
    for _ in range(150):
        g = closed_board(rng, rng.randint(6, 10), (1, 2, 3, 3), (1, 2, 3, 3))
        for first in (L, R):
            want = brute_result(g, first)
            assert plain.solve(g, first) == want, g
            for k, config in enumerate((SYMMETRY, SolverConfig())):
                tuned = Solver(config)
                assert tuned.solve(g, first) == want, g
                fired[k] += tuned.last_stats.symmetry_cutoffs
    for _ in range(150):
        g = closed_board(rng, rng.randint(6, 10), (2, 3, 3), (1, 2, 2))
        want = brute_result(g, L) is not GameResult.RIGHT_WIN
        for k, config in enumerate((SYMMETRY, SolverConfig()), 2):
            tuned = Solver(config)
            assert tuned.survives_canonical_right(g) == want, g
            fired[k] += tuned.last_stats.symmetry_cutoffs
    # The other rules end most nodes first, so the rule fires far less
    # often beside them.
    assert fired[0] > 1000 and fired[2] > 300 and fired[1] + fired[3] > 50


def test_each_toggle_individually():
    rng = rng_for(91, "pruning-single")
    variants = [Solver(SolverConfig(**{toggle: False})) for toggle in TOGGLES]
    reference = Solver()
    for _ in range(120):
        g = random_game(rng, max_vertices=7, max_edge_size=3)
        for first in (L, R):
            want = reference.solve(g, first)
            for solver in variants:
                assert solver.solve(g, first) == want, g
