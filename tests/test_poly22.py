"""The polynomial size-2 procedure: unit preprocessing, path classification,
and oracle agreement with the exact solver."""

import dataclasses
import itertools

import pytest

from apg import EdgeTooLargeError, GameResult, Player, Solver, new_game, solve22
from apg.errors import InvalidPathError
from apg.gadgets import random_game, rng_for
from apg.kernel import mask_indices
from apg.poly22 import (
    has_p3,
    resolve_units,
    right_to_move_rule,
    solve22_masks,
    solve22_outcome_masks,
)
from apg.solver import PLAIN, SEARCH_ONLY
from apg.verification import _exhaustive_22_outcomes, random_22_state

import oracles
from oracles import PathKind, classify, iter_22_states, reduce_type3

L, R = Player.LEFT, Player.RIGHT
LW, DR, RW = GameResult.LEFT_WIN, GameResult.DRAW, GameResult.RIGHT_WIN
# The reference for solve22 is SEARCH_ONLY: the search with its size-2 leaf
# oracle (which asks poly22), its double-threat rule (poly22's own P3 step)
# and its other cutoffs off.


def graph2(blue_pairs, red_pairs):
    """The board of these named pairs, and the index of each name (in
    sorted order)."""
    names = sorted({v for e in blue_pairs + red_pairs for v in e})
    ix = {v: i for i, v in enumerate(names)}
    adj = ([0] * len(names), [0] * len(names))
    for masks, pairs in zip(adj, (blue_pairs, red_pairs)):
        for a, b in pairs:
            masks[ix[a]] |= 1 << ix[b]
            masks[ix[b]] |= 1 << ix[a]
    return adj, ix


def alive(adj):
    return [v for v, (b, r) in enumerate(zip(*adj)) if b or r]


def resolve(game, first):
    return resolve_units(game.n, game.blue, game.red, 0 if first is L else 1)


# -- preprocessing ---------------------------------------------------------------

def test_preprocess_own_unit_wins():
    g = new_game(["a"], [["a"]], [])
    assert resolve(g, L)[0] is LW


def test_preprocess_two_opposing_units_lose():
    g = new_game(["a", "b"], [], [["a"], ["b"]])
    assert resolve(g, L)[0] is RW


def test_preprocess_forced_chain():
    g = new_game(["a", "b", "c"], [["a", "b"], ["b", "c"]], [["a"]])
    decided, adj, mover = resolve(g, L)
    # Left is forced onto a; the shrunken blue unit then forces Right onto b,
    # which kills the remaining blue edge: nothing is left.
    assert decided is None
    assert mover == 0
    assert not alive(adj)
    assert solve22(g, L) is DR
    assert Solver(SEARCH_ONLY).solve(g, L) is DR


def test_preprocess_mixed_unit_priority():
    # the mover's own unit wins even when the opponent also has one
    g = new_game(["a", "b"], [["a"]], [["b"]])
    assert resolve(g, L)[0] is LW


# -- move rules -------------------------------------------------------------------

def test_left_rule_path_wins():
    assert has_p3(graph2([("u", "v"), ("v", "w")], [])[0][0])


def test_left_rule_matching_cannot_win():
    assert not has_p3(graph2([("a", "b"), ("c", "d")], [])[0][0])


def test_left_rule_no_edges():
    assert not has_p3(graph2([], [("a", "b")])[0][0])


# -- classification, by the reference walk that the rule inlines ------------------------

def test_classify_isolated_is_odd():
    adj, ix = graph2([("a", "b")], [])
    assert classify(adj, ix["a"]) == (PathKind.ODD, (ix["a"],))


def test_classify_branching():
    adj, ix = graph2([("v", "y1"), ("v", "y2")], [("u", "v")])
    kind, _ = classify(adj, ix["u"])
    assert kind is PathKind.BRANCHING


def test_classify_even_end():
    adj, ix = graph2([], [("u", "v")])
    assert classify(adj, ix["u"]) == (PathKind.EVEN, (ix["u"], ix["v"]))


def test_classify_longer_walk():
    adj, ix = graph2([("v", "w")], [("u", "v"), ("w", "x")])
    assert classify(adj, ix["u"]) == (PathKind.EVEN, tuple(ix[v] for v in "uvwx"))


def test_classify_odd_with_blue_tail():
    adj, ix = graph2([("v", "w")], [("u", "v")])
    assert classify(adj, ix["u"]) == (PathKind.ODD, tuple(ix[v] for v in "uvw"))


def test_path_parity_invariants():
    rng = rng_for(40, "classify-parity")
    for _ in range(300):
        g = random_game(rng, max_vertices=8, max_edge_size=2)
        decided, adj, _ = resolve(g, L)
        if decided is not None or has_p3(adj[1]):
            continue
        for u in alive(adj):
            kind, path = classify(adj, u)
            if kind is PathKind.ODD:
                assert len(path) % 2 == 1
            elif kind is PathKind.EVEN:
                assert len(path) % 2 == 0
            assert len(set(path)) == len(path)


# -- even-path reduction ---------------------------------------------------------------

def test_reduce_even_pair():
    adj, ix = graph2([], [("u", "v")])
    reduce_type3(adj, (ix["u"], ix["v"]))
    assert not alive(adj)


def test_reduce_four_chain():
    adj, ix = graph2([("v", "w")], [("u", "v"), ("w", "x")])
    reduce_type3(adj, tuple(ix[v] for v in "uvwx"))
    assert not alive(adj)


def test_reduce_rejects_bad_path():
    adj, ix = graph2([("v", "y")], [("u", "v")])
    with pytest.raises(InvalidPathError):
        reduce_type3(adj, (ix["u"], ix["v"]))


# -- right-to-move rule -------------------------------------------------------------------

def test_right_rule_red_path_kills_left():
    adj, _ = graph2([("a", "b"), ("b", "c")], [("x", "y"), ("y", "z")])
    assert not right_to_move_rule(adj)


def test_right_rule_single_blue_path():
    # Right takes the centre and survives
    assert not right_to_move_rule(graph2([("u", "v"), ("v", "w")], [])[0])


def test_right_rule_two_disjoint_blue_paths():
    adj, _ = graph2([("a", "b"), ("b", "c"), ("d", "e"), ("e", "f")], [])
    assert right_to_move_rule(adj)


def _leaf_board(rng, kind):
    # A red matching beside a blue graph of density 0.1-0.5 on 3-14
    # vertices.  "cleared": the higher end of each red edge has no blue
    # edge, so the walk from the lower end ends there, even, and the first
    # pass deletes every red edge; "mixed": one end, either one, of about
    # half the red edges has none, under a sparser blue graph, so two-vertex
    # even paths meet longer ones; "no red": a blue graph alone.
    n = rng.randint(3, 14)
    order = rng.sample(range(n), n)
    pairs = [] if kind == "no red" else [
        tuple(sorted(order[2 * k:2 * k + 2])) for k in range(rng.randint(1, n // 2))]
    if kind == "cleared":
        bare = {b for _, b in pairs}
    elif kind == "mixed":
        bare = {rng.choice(p) for p in pairs if rng.random() < 0.5}
    else:
        bare = set()
    density = rng.uniform(0.05, 0.3) if kind == "mixed" else rng.uniform(0.1, 0.5)
    blue, red = [0] * n, [0] * n
    for a, b in pairs:
        red[a] |= 1 << b
        red[b] |= 1 << a
    for a, b in itertools.combinations(range(n), 2):
        if a not in bare and b not in bare and rng.random() < density:
            blue[a] |= 1 << b
            blue[b] |= 1 << a
    return blue, red


def _pass(adj):
    """One pass walking every live vertex of ``adj``, in place: the lengths
    of the even paths it deletes."""
    lengths = []
    for u in range(len(adj[0])):
        if adj[0][u] or adj[1][u]:
            kind, path = classify(adj, u)
            if kind is PathKind.EVEN:
                reduce_type3(adj, path)
                lengths.append(len(path))
    return lengths


def test_right_rule_equals_the_rule_walking_every_vertex():
    # The rule walks only the matched vertices, each path once, and takes
    # each live unmatched vertex as a one-vertex odd path; the reference
    # walks every live vertex in every pass with classify and deletes every
    # even path through its own reduce_type3.  Both must answer alike, also
    # where the first pass leaves no red edge (the second pass walks
    # nothing), where two-vertex and longer even paths meet in one pass,
    # and where there is no red edge to begin with.
    rng = rng_for(61, "poly22-matched-walk")
    answers = {True: 0, False: 0}
    both_lengths = 0
    for kind in ("matching", "cleared", "mixed", "no red"):
        for _ in range(3000):
            adj = _leaf_board(rng, kind)
            after = (list(adj[0]), list(adj[1]))
            lengths = _pass(after)
            if kind == "cleared":
                assert not any(after[1]), adj
            if kind == "mixed" and 2 in lengths and max(lengths) > 2:
                both_lengths += 1
            for masks in adj:
                assert has_p3(masks) == oracles.has_p3(masks), masks
            want = oracles.right_to_move_rule_walking_every_vertex(adj)
            assert right_to_move_rule(adj) == want, (kind, adj)
            answers[want] += 1
    assert min(answers.values()) > 1000
    assert both_lengths > 300


def test_right_rule_on_large_sparse_boards():
    # Boards drawn as the size2 benchmark draws its Right-first ones: a red
    # matching on about 4/5 of 50-200 vertices and n/3 random blue pairs.
    # There a deletion often turns a path that branched earlier in the pass
    # into an even one, so a later pass deletes it.
    rng = rng_for(62, "poly22-large-paths")
    answers = {True: 0, False: 0}
    later = 0
    for _ in range(300):
        n = rng.randint(50, 200)
        order = rng.sample(range(n), n)
        blue, red = [0] * n, [0] * n
        for k in range(4 * n // 5 // 2):
            a, b = order[2 * k], order[2 * k + 1]
            red[a] |= 1 << b
            red[b] |= 1 << a
        for _ in range(n // 3):
            a, b = rng.sample(range(n), 2)
            blue[a] |= 1 << b
            blue[b] |= 1 << a
        adj = (blue, red)
        want = oracles.right_to_move_rule_walking_every_vertex(adj)
        assert right_to_move_rule(adj) == want, adj
        answers[want] += 1
        after = (blue[:], red[:])
        _pass(after)
        later += bool(_pass(after))
    assert min(answers.values()) >= 40  # 56 wins for Left, 244 not
    assert later >= 60  # 68 of 300


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
    # Left, to move, holds a blue unit, but the red triple is refused first.
    with pytest.raises(EdgeTooLargeError):
        resolve_units(3, [0b001], [0b111], 0)


# -- oracle agreement ------------------------------------------------------------------------

def test_exhaustive_alignment_on_three_vertices():
    verts = ["a", "b", "c"]
    singles = [[v] for v in verts]
    pairs = [list(p) for p in itertools.combinations(verts, 2)]
    pool = singles + pairs
    solver = Solver(SEARCH_ONLY)
    for blue_bits in range(1 << len(pool)):
        blue = [pool[i] for i in range(len(pool)) if blue_bits >> i & 1]
        for red_bits in range(0, 1 << len(pool), 7):  # stride keeps this quick
            red = [pool[i] for i in range(len(pool)) if red_bits >> i & 1]
            g = new_game(verts, blue, red)
            for first in (L, R):
                assert solve22(g, first) == solver.solve(g, first), g


def test_random_alignment_medium_games():
    rng = rng_for(41, "poly22-random")
    solver = Solver(SEARCH_ONLY)
    for _ in range(400):
        g = random_game(rng, max_vertices=10, max_edge_size=2, max_edges=12)
        for first in (L, R):
            assert solve22(g, first) == solver.solve(g, first), g


def test_one_sided_leaf_oracle_matches_the_two_sided_procedure():
    # The search's leaf oracle asks one side's rule per question; the value
    # built from both sides' rules must give the same answers.  Every other
    # rule is off, so _settle reaches the oracle on each unit-free board.
    solver = Solver(dataclasses.replace(PLAIN, use_leaf_oracle=True))
    rng = rng_for(23, "one-sided-oracle")
    states = [state for n in range(4) for state in iter_22_states(n)]
    states += [random_22_state(rng, 9, exact=rng.randint(5, 9)) for _ in range(2000)]
    calls = 0
    for state in states:
        value = solve22_masks(*state, L)
        for want_win, want in ((True, value is LW), (False, value is not RW)):
            before = solver.last_stats.leaf_calls
            got = solver._settle(state, want_win)[0]
            if solver.last_stats.leaf_calls > before:
                calls += 1
                assert got == want, (state, want_win)
    assert calls >= 2700  # 1,060 exhaustive and 1,732 random calls


def test_outcome_entry_matches_one_call_per_first_player():
    # One build of the neighbour lists serves both first players: a board
    # with units is copied before Left's forced picks change it.
    rng = rng_for(24, "outcome-entry")
    states = [state for n in range(4) for state in iter_22_states(n)]
    states += [random_22_state(rng, 12) for _ in range(2000)]
    for state in states:
        assert solve22_outcome_masks(*state) == (solve22_masks(*state, L),
                                                 solve22_masks(*state, R)), state


def test_exhaustive_pass_takes_every_board_once_with_its_search_values():
    # The pass takes each board next to its colour-swapped mirror in one
    # solver per blue edge set: the same boards as iter_22_states, each
    # with the values a fresh solver gives it.
    got = list(_exhaustive_22_outcomes(3))
    assert sorted(state for state, _ in got) == sorted(
        state for n in range(4) for state in iter_22_states(n))
    for state, pair in got:
        assert pair == Solver(SEARCH_ONLY).outcome_state(state), state


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
    solver = Solver(SEARCH_ONLY)
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


def test_many_odd_paths_before_the_saving_centre():
    # Right first, no red edges: a blue matching on the low vertices (odd
    # paths, each leaving the P3 behind) and a blue P3 on the top three,
    # whose centre saves Right.  A copy of the board per odd path is
    # quadratic here.
    k = 2000
    blue = [[f"v{2 * j}", f"v{2 * j + 1}"] for j in range(k)]
    blue += [[f"v{2 * k}", f"v{2 * k + 1}"], [f"v{2 * k + 1}", f"v{2 * k + 2}"]]
    g = new_game([f"v{i}" for i in range(2 * k + 3)], blue, [])
    assert solve22(g, R) is DR


def _adj_as_game(adj):
    verts = alive(adj)
    blue, red = ([[f"v{a}", f"v{b}"] for a in verts for b in mask_indices(masks[a]) if a < b]
                 for masks in adj)
    return new_game([f"v{v}" for v in verts], blue, red)


def test_even_path_reduction_preserves_second_player_win():
    # Deleting an even-ended path keeps "Left wins with Right to move"
    # unchanged: the deleted exchange is optimal for Right and forced for
    # Left.  Verified on 300 random instances that expose such a path.
    rng = rng_for(42, "type3-preservation")
    solver = Solver(SEARCH_ONLY)
    found = 0
    attempts = 0
    while found < 300 and attempts < 30000:
        attempts += 1
        g = random_game(rng, max_vertices=9, max_edge_size=2, max_edges=10)
        decided, adj, mover = resolve(g, R)
        if decided is not None or mover != 1:
            continue
        if has_p3(adj[1]):
            continue
        path = None
        for u in alive(adj):
            kind, path = classify(adj, u)
            if kind is PathKind.EVEN:
                break
            path = None
        if path is None:
            continue
        found += 1
        before = _adj_as_game(adj)
        trimmed = (list(adj[0]), list(adj[1]))
        reduce_type3(trimmed, path)
        after = _adj_as_game(trimmed)
        left_wins_before = solver.solve(before, R) is LW
        left_wins_after = solver.solve(after, R) is LW
        assert left_wins_before == left_wins_after, (before, path)
    assert found == 300
