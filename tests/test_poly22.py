"""The polynomial size-2 procedure: unit preprocessing, path classification,
and oracle agreement with the exact solver."""

import itertools

import pytest

from apg import EdgeTooLargeError, GameResult, Player, Solver, new_game, solve22
from apg.gadgets import random_game, rng_for
from apg.poly22 import (
    Decided,
    Graph2,
    PathKind,
    Reduced,
    classify,
    left_to_move_rule,
    preprocess_units,
    reduce_type3,
    right_to_move_rule,
)

L, R = Player.LEFT, Player.RIGHT
LW, DR, RW = GameResult.LEFT_WIN, GameResult.DRAW, GameResult.RIGHT_WIN


def graph2(blue_pairs, red_pairs):
    verts = sorted({v for e in blue_pairs + red_pairs for v in e})
    g = Graph2(set(verts), {v: set() for v in verts}, {v: set() for v in verts})
    for a, b in blue_pairs:
        g.blue_adj[a].add(b)
        g.blue_adj[b].add(a)
    for a, b in red_pairs:
        g.red_adj[a].add(b)
        g.red_adj[b].add(a)
    return g


# -- preprocessing ---------------------------------------------------------------

def test_preprocess_own_unit_wins():
    g = new_game(["a"], [["a"]], [])
    step = preprocess_units(g, L)
    assert isinstance(step, Decided) and step.result is LW


def test_preprocess_two_opposing_units_lose():
    g = new_game(["a", "b"], [], [["a"], ["b"]])
    step = preprocess_units(g, L)
    assert isinstance(step, Decided) and step.result is RW


def test_preprocess_forced_chain():
    g = new_game(["a", "b", "c"], [["a", "b"], ["b", "c"]], [["a"]])
    step = preprocess_units(g, L)
    # Left is forced onto a; the shrunken blue unit then forces Right onto b,
    # which kills the remaining blue edge: nothing is left.
    assert isinstance(step, Reduced)
    assert step.to_move is L
    assert not step.graph.alive
    assert solve22(g, L) is DR
    assert Solver().solve(g, L) is DR


def test_preprocess_mixed_unit_priority():
    # the mover's own unit wins even when the opponent also has one
    g = new_game(["a", "b"], [["a"]], [["b"]])
    step = preprocess_units(g, L)
    assert isinstance(step, Decided) and step.result is LW


# -- move rules -------------------------------------------------------------------

def test_left_rule_path_wins():
    assert left_to_move_rule(graph2([("u", "v"), ("v", "w")], []))


def test_left_rule_matching_cannot_win():
    assert not left_to_move_rule(graph2([("a", "b"), ("c", "d")], []))


def test_left_rule_no_edges():
    assert not left_to_move_rule(graph2([], [("a", "b")]))


# -- classification -----------------------------------------------------------------

def test_classify_isolated_is_odd():
    g = graph2([("a", "b")], [])
    probe = classify(g, "a")
    assert probe.kind is PathKind.ODD and probe.path == ("a",)


def test_classify_branching():
    g = graph2([("v", "y1"), ("v", "y2")], [("u", "v")])
    probe = classify(g, "u")
    assert probe.kind is PathKind.BRANCHING


def test_classify_even_end():
    g = graph2([], [("u", "v")])
    probe = classify(g, "u")
    assert probe.kind is PathKind.EVEN and probe.path == ("u", "v")


def test_classify_longer_walk():
    g = graph2([("v", "w")], [("u", "v"), ("w", "x")])
    probe = classify(g, "u")
    assert probe.kind is PathKind.EVEN and probe.path == ("u", "v", "w", "x")


def test_classify_odd_with_blue_tail():
    g = graph2([("v", "w")], [("u", "v")])
    probe = classify(g, "u")
    assert probe.kind is PathKind.ODD and probe.path == ("u", "v", "w")


def test_path_parity_invariants():
    rng = rng_for(40, "classify-parity")
    for _ in range(300):
        g = random_game(rng, max_vertices=8, max_edge_size=2)
        step = preprocess_units(g, L)
        if not isinstance(step, Reduced) or step.graph.red_has_p3():
            continue
        for u in sorted(step.graph.alive):
            probe = classify(step.graph, u)
            if probe.kind is PathKind.ODD:
                assert len(probe.path) % 2 == 1
            elif probe.kind is PathKind.EVEN:
                assert len(probe.path) % 2 == 0
            assert len(set(probe.path)) == len(probe.path)


# -- even-path reduction ---------------------------------------------------------------

def test_reduce_even_pair():
    g = graph2([], [("u", "v")])
    reduce_type3(g, ("u", "v"))
    assert not g.alive


def test_reduce_four_chain():
    g = graph2([("v", "w")], [("u", "v"), ("w", "x")])
    reduce_type3(g, ("u", "v", "w", "x"))
    assert not g.alive


def test_reduce_rejects_bad_path():
    g = graph2([("v", "y")], [("u", "v")])
    with pytest.raises(Exception):
        reduce_type3(g, ("u", "v"))


# -- right-to-move rule -------------------------------------------------------------------

def test_right_rule_red_path_kills_left():
    assert not right_to_move_rule(graph2([("a", "b"), ("b", "c")],
                                         [("x", "y"), ("y", "z")]))


def test_right_rule_single_blue_path():
    # Right takes the centre and survives
    assert not right_to_move_rule(graph2([("u", "v"), ("v", "w")], []))


def test_right_rule_two_disjoint_blue_paths():
    g = graph2([("a", "b"), ("b", "c"), ("d", "e"), ("e", "f")], [])
    assert right_to_move_rule(g)


# -- full values ----------------------------------------------------------------------------

def test_solve22_blue_path():
    g = new_game(["u", "v", "w"], [["u", "v"], ["v", "w"]], [])
    assert solve22(g, L) is LW


def test_solve22_matchings_draw():
    g = new_game(["a", "b", "c", "d"], [["a", "b"]], [["c", "d"]])
    assert solve22(g, L) is DR
    assert solve22(g, R) is DR


def test_solve22_red_path_first_pick_saves():
    g = new_game(["u", "v", "w"], [], [["u", "v"], ["v", "w"]])
    assert solve22(g, L) is DR
    assert solve22(g, R) is RW


def test_solve22_rejects_big_edges():
    g = new_game(["a", "b", "c"], [["a", "b", "c"]], [])
    with pytest.raises(EdgeTooLargeError):
        solve22(g, L)


# -- oracle agreement ------------------------------------------------------------------------

def test_exhaustive_alignment_on_three_vertices():
    verts = ["a", "b", "c"]
    singles = [[v] for v in verts]
    pairs = [list(p) for p in itertools.combinations(verts, 2)]
    pool = singles + pairs
    solver = Solver()
    for blue_bits in range(1 << len(pool)):
        blue = [pool[i] for i in range(len(pool)) if blue_bits >> i & 1]
        for red_bits in range(0, 1 << len(pool), 7):  # stride keeps this quick
            red = [pool[i] for i in range(len(pool)) if red_bits >> i & 1]
            g = new_game(verts, blue, red)
            for first in (L, R):
                assert solve22(g, first) == solver.solve(g, first), g


def test_random_alignment_medium_games():
    rng = rng_for(41, "poly22-random")
    solver = Solver()
    for _ in range(400):
        g = random_game(rng, max_vertices=10, max_edge_size=2, max_edges=12)
        for first in (L, R):
            assert solve22(g, first) == solver.solve(g, first), g


def _forcing_chain(n, unit, first_pair, tail=None):
    """A unit of color ``unit`` on v0, then the pair edges v0v1, v1v2, ...
    in alternating colors from ``first_pair``; ``tail`` adds a P3 of that
    color on three fresh vertices, whose value depends on who moves after
    the forced picks."""
    verts = [f"v{i}" for i in range(n)]
    edges = {L: [], R: []}
    edges[unit].append([verts[0]])
    color = first_pair
    for i in range(n - 1):
        edges[color].append([verts[i], verts[i + 1]])
        color = color.opponent
    if tail is not None:
        verts += ["x", "y", "z"]
        edges[tail] += [["x", "y"], ["y", "z"]]
    return new_game(verts, edges[L], edges[R])


def test_alternating_forcing_chains_match_solver():
    solver = Solver()
    for n in range(2, 15):
        for unit, first_pair, tail, first in itertools.product(
                (L, R), (L, R), (None, L, R), (L, R)):
            g = _forcing_chain(n, unit, first_pair, tail)
            assert solve22(g, first) == solver.solve(g, first), g


def test_long_forcing_chain():
    # Left first must block the red unit v0, and each pick turns the
    # picker's pair through it into the next forced threat: the 3,000 picks
    # leave Left to move beside the blue P3, which Left wins.  One vertex
    # more leaves Right to move, who takes its centre: a draw.
    assert solve22(_forcing_chain(3000, R, L, L), L) is LW
    assert solve22(_forcing_chain(3001, R, L, L), L) is DR


def test_many_even_paths_behind_odd_ones():
    # A blue matching on the low vertices (odd paths, scanned first) and a
    # red matching on the others (even paths, each deleted): Right first
    # draws.  A scan that restarts after each deletion is quadratic here.
    k = 1000
    blue = [[f"v{2 * j}", f"v{2 * j + 1}"] for j in range(k)]
    red = [[f"v{2 * k + 2 * j}", f"v{2 * k + 2 * j + 1}"] for j in range(k)]
    g = new_game([f"v{i}" for i in range(4 * k)], blue, red)
    assert solve22(g, R) is DR


def _graph2_as_game(g2):
    verts = sorted(g2.alive)
    names = [f"v{i}" for i in verts]
    idx = {v: f"v{v}" for v in verts}
    blue = sorted({tuple(sorted((idx[a], idx[b])))
                   for a in g2.alive for b in g2.blue_adj[a]})
    red = sorted({tuple(sorted((idx[a], idx[b])))
                  for a in g2.alive for b in g2.red_adj[a]})
    return new_game(names, [list(e) for e in blue], [list(e) for e in red])


def test_even_path_reduction_preserves_second_player_win():
    # Deleting an even-ended path keeps "Left wins with Right to move"
    # unchanged: the deleted exchange is optimal for Right and forced for
    # Left.  Verified on 300 random instances that expose such a path.
    rng = rng_for(42, "type3-preservation")
    solver = Solver()
    found = 0
    attempts = 0
    while found < 300 and attempts < 30000:
        attempts += 1
        g = random_game(rng, max_vertices=9, max_edge_size=2, max_edges=10)
        step = preprocess_units(g, R)
        if not isinstance(step, Reduced) or step.to_move is not R:
            continue
        g2 = step.graph
        if g2.red_has_p3():
            continue
        probe = None
        for u in sorted(g2.alive):
            probe = classify(g2, u)
            if probe.kind is PathKind.EVEN:
                break
            probe = None
        if probe is None:
            continue
        found += 1
        before = _graph2_as_game(g2)
        trimmed = g2.copy()
        reduce_type3(trimmed, probe.path)
        after = _graph2_as_game(trimmed)
        left_wins_before = solver.solve(before, R) is LW
        left_wins_after = solver.solve(after, R) is LW
        assert left_wins_before == left_wins_after, (before, probe.path)
    assert found == 300
