"""Pruning soundness: every cutoff and reduction can be switched off without
changing any value."""

import itertools

from apg import Player, Solver, SolverConfig, new_game
from apg.gadgets import random_game, rng_for

from oracles import antichains, brute_result

L, R = Player.LEFT, Player.RIGHT

PLAIN = SolverConfig(use_twin_reduction=False, use_domination=False,
                     use_forced_moves=False, use_leaf_oracle=False,
                     use_potentials=False, use_double_threats=False)


NO_THREATS = SolverConfig(use_double_threats=False)


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
    checked = threats = replies = 0
    for n in range(5):
        verts = "abcd"[:n]
        pool = [c for r in (1, 2, 3) for c in itertools.combinations(verts, r)]
        families = list(antichains(pool))
        plain, tuned, no_threats = Solver(PLAIN), Solver(), Solver(NO_THREATS)
        for blue in families:
            for red in families:
                g = new_game(verts, blue, red)
                for first in (L, R):
                    checked += 1
                    want = brute_result(g, first)
                    assert plain.solve(g, first) == want, g
                    assert no_threats.solve(g, first) == want, g
                    assert tuned.solve(g, first) == want, g
                    threats += tuned.last_stats.threat_cutoffs
                    replies += tuned.last_stats.forced_replies
                    assert no_threats.last_stats.threat_cutoffs == 0
    assert checked == 2 * sum(k * k for k in (1, 2, 5, 19, 166))
    assert threats > 1000 and replies > 1000


def test_rank4_games_against_plain_and_brute_force():
    # Fresh tuned solvers per board, so every rule firing of their searches
    # is checked, none answered from an earlier memo.  The double-threat
    # rule ends many nodes before the leaf oracle or the potentials are
    # asked, so those two are counted on a second solver with it off.
    rng = rng_for(92, "pruning-rank4")
    plain = Solver(PLAIN)
    fired = [0, 0, 0, 0]
    for _ in range(3000):
        g = random_game(rng, max_vertices=8, max_edge_size=4)
        for first in (L, R):
            tuned, no_threats = Solver(), Solver(NO_THREATS)
            want = brute_result(g, first)
            assert tuned.solve(g, first) == want, g
            assert no_threats.solve(g, first) == want, g
            assert plain.solve(g, first) == want, g
            fired[0] += no_threats.last_stats.leaf_calls
            fired[1] += no_threats.last_stats.potential_cutoffs
            fired[2] += tuned.last_stats.threat_cutoffs
            fired[3] += tuned.last_stats.forced_replies
    assert min(fired) > 100  # all four rules are exercised


def test_random_larger_games():
    rng = rng_for(90, "pruning-large")
    plain = Solver(PLAIN)
    tuned = Solver()
    for _ in range(200):
        g = random_game(rng, max_vertices=8, max_edge_size=3)
        for first in (L, R):
            assert plain.solve(g, first) == tuned.solve(g, first), g


def test_each_toggle_individually():
    rng = rng_for(91, "pruning-single")
    variants = [
        Solver(SolverConfig(use_twin_reduction=False)),
        Solver(SolverConfig(use_domination=False)),
        Solver(SolverConfig(use_forced_moves=False)),
        Solver(SolverConfig(use_leaf_oracle=False)),
        Solver(SolverConfig(use_potentials=False)),
        Solver(NO_THREATS),
    ]
    reference = Solver()
    for _ in range(120):
        g = random_game(rng, max_vertices=7, max_edge_size=3)
        for first in (L, R):
            want = reference.solve(g, first)
            for solver in variants:
                assert solver.solve(g, first) == want, g
