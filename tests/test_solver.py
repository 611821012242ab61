"""Solver fixed points, independent-oracle agreement, delay, and union table."""

import math

import pytest

from apg import (
    GameResult,
    Outcome,
    Player,
    Position,
    ResourceLimitError,
    Solver,
    SolverConfig,
    butterfly,
    delay,
    new_game,
    outcome,
    self_play,
    solve,
    union_outcome_allowed,
    win_in_k,
)
from apg.gadgets import outcome_exemplar, random_game, rng_for
from apg.kernel import state_of_game
from apg.reductions import CnfFormula, sat_draw_game
from apg.solver import UNION_OUTCOMES

from oracles import brute_delay, brute_result

L, R = Player.LEFT, Player.RIGHT
LW, DR, RW = GameResult.LEFT_WIN, GameResult.DRAW, GameResult.RIGHT_WIN


# -- fixed points -------------------------------------------------------------

def test_butterfly_values():
    g = butterfly()
    assert solve(g, L) is LW
    assert solve(g, R) is DR
    assert outcome(g) is Outcome.L_MINUS


def test_shared_unit_vertex():
    g = new_game(["a"], [["a"]], [["a"]])
    assert solve(g, L) is LW
    assert solve(g, R) is RW


def test_two_blue_units_beat_right():
    g = new_game(["a", "b"], [["a"], ["b"]], [])
    assert outcome(g) is Outcome.L


def test_empty_game_draws():
    assert outcome(new_game([], [], [])) is Outcome.D


def test_exemplars_cover_all_outcomes():
    for target in Outcome:
        assert outcome(outcome_exemplar(target, verify=False)) is target


# -- best_move / self_play ------------------------------------------------------

def test_best_move_butterfly():
    pos = Position.start(butterfly(), L)
    assert Solver().best_move(pos) == ("alpha", LW)


def test_best_move_unit():
    g = new_game(["a"], [["a"]], [])
    assert Solver().best_move(Position.start(g, L)) == ("a", LW)


def test_best_move_red_path_center():
    g = new_game(["u", "v", "w"], [], [["u", "v"], ["v", "w"]])
    assert Solver().best_move(Position.start(g, R)) == ("v", RW)


def test_every_right_reply_to_the_hub_loses():
    # After Left opens on the hub, each of Right's six replies still loses:
    # Left finishes through whichever wing survives.
    s = Solver()
    pos = Position.start(butterfly(), L).play("alpha")
    for reply in ["beta1", "beta2", "gamma1", "gamma2", "gamma3", "gamma4"]:
        assert s.move_value(pos, reply) is LW


def test_self_play_butterfly():
    trace = self_play(butterfly(), L)
    assert trace.result is LW
    assert trace.moves_by(L)[0] == "alpha"
    assert len(trace.moves_by(L)) == 3


def test_self_play_empty():
    trace = self_play(new_game([], [], []), L)
    assert trace.steps == () and trace.result is DR


def test_self_play_win_in_three():
    trace = self_play(win_in_k(3), L)
    assert trace.result is LW
    assert len(trace.moves_by(L)) == 3


def test_self_play_alternates_legally():
    trace = self_play(butterfly(), R)
    players = [s.player for s in trace.steps]
    assert players == [R, L, R, L, R, L, R]
    assert len({s.vertex for s in trace.steps}) == len(trace.steps)


# -- oracle agreement ------------------------------------------------------------

def test_agrees_with_brute_force_on_random_games():
    rng = rng_for(2024, "solver-vs-brute")
    s = Solver()
    for _ in range(400):
        g = random_game(rng, max_vertices=7, max_edge_size=4, max_edges=8)
        for first in (L, R):
            assert s.solve(g, first) == brute_result(g, first), g


def test_pruning_toggles_do_not_change_values():
    rng = rng_for(5, "pruning-toggles")
    plain = Solver(SolverConfig(use_twin_reduction=False, use_domination=False,
                                use_forced_moves=False))
    tuned = Solver()
    for _ in range(150):
        g = random_game(rng, max_vertices=6, max_edge_size=3)
        for first in (L, R):
            assert plain.solve(g, first) == tuned.solve(g, first), g


def test_determinism_across_solver_instances():
    rng = rng_for(6, "determinism")
    games = [random_game(rng, max_vertices=6, max_edge_size=3) for _ in range(40)]
    a = Solver()
    b = Solver()
    res_a = [a.solve(g, L) for g in games]
    res_b = [b.solve(g, L) for g in reversed(games)][::-1]
    assert res_a == res_b
    t1 = a.self_play(butterfly(), L)
    t2 = b.self_play(butterfly(), L)
    assert t1 == t2


def test_second_player_reduction():
    # Left wins moving second iff no red unit exists and Left wins first on
    # every one-vertex update by Right.
    rng = rng_for(7, "second-player-reduction")
    s = Solver()
    from apg import update

    for _ in range(80):
        g = random_game(rng, max_vertices=5, max_edge_size=3)
        lhs = s.solve(g, R) is LW
        red_units = {e for e in g.red_edges if len(e) == 1}
        rhs = not red_units and all(
            s.solve(update(g, [], [u]), L) is LW for u in g.vertices)
        assert lhs == rhs, g


# -- stats, budget -----------------------------------------------------------------

def test_concurrent_queries_share_one_memo():
    # independent queries may run in parallel against a shared solver
    import concurrent.futures

    rng = rng_for(8, "threads")
    games = [random_game(rng, max_vertices=6, max_edge_size=3) for _ in range(60)]
    sequential = [Solver().outcome(g) for g in games]
    shared = Solver()
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(shared.outcome, games))
    assert threaded == sequential


def test_stats_invariant():
    s = Solver()
    s.outcome(butterfly())
    st = s.last_stats
    assert st.nodes_expanded >= st.memo_hits >= 0
    assert st.elapsed >= 0.0


def test_max_depth_covers_one_query():
    fresh = Solver()
    fresh.solve(butterfly(), L)
    assert fresh.last_stats.max_depth == 3
    s = Solver()
    s.solve(sat_draw_game(CnfFormula(3, ((1, 2, 3),))).game, L)
    assert s.last_stats.max_depth > 3
    s.solve(butterfly(), L)
    assert s.last_stats.max_depth == 3


def test_outcome_state_is_one_query_for_both_first_players():
    rng = rng_for(8, "outcome-state")
    for _ in range(40):
        state = state_of_game(random_game(rng, max_vertices=8, max_edge_size=3))
        both = Solver()
        pair = both.outcome_state(state)
        apart = Solver()
        left = apart.solve_state(state, L)
        nodes = apart.last_stats.nodes_expanded
        right = apart.solve_state(state, R)
        assert pair == (left, right)
        assert both.last_stats.nodes_expanded == nodes + apart.last_stats.nodes_expanded


def test_move_value_records_its_stats():
    s = Solver()
    s.outcome(butterfly())
    before = s.last_stats
    pos = Position.start(butterfly(), L)
    s.move_value(pos, pos.game.vertices[1])
    assert s.last_stats is not before
    assert s.last_stats.nodes_expanded > 0


def test_node_budget():
    s = Solver(SolverConfig(node_limit=3))
    with pytest.raises(ResourceLimitError):
        s.solve(butterfly(), L)


# -- delay --------------------------------------------------------------------------

def test_delay_unit():
    assert delay(new_game(["a"], [["a"]], []), L) == 0


def test_delay_butterfly():
    g = butterfly()
    assert brute_delay(g, L) == 2
    assert delay(g, L) == 2


def test_delay_win_in_k_family():
    for k in range(1, 5):
        g = win_in_k(k)
        expected = brute_delay(g, L)
        assert expected == k - 1
        assert delay(g, L) == k - 1


def test_delay_infinite_without_win():
    g = new_game(["a", "b"], [["a", "b"]], [])
    assert delay(g, L) == math.inf


def test_delay_right_protagonist():
    g = win_in_k(2, R)
    assert delay(g, R) == 1
    assert brute_delay(g, R) == 1


def test_delay_memo_obeys_the_memo_bounds():
    s = Solver(SolverConfig(memo_flush_entries=2, memo_max_vertices=0))
    assert s.delay(win_in_k(4), L) == 3
    assert all(state[0] == 0 for _, _, state in s._memo_delay)
    s = Solver(SolverConfig(memo_flush_entries=2))
    assert s.delay(win_in_k(4), L) == 3
    assert 0 < len(s._memo_delay) <= 2


def test_delay_agrees_with_brute_on_random_games():
    rng = rng_for(31, "delay-brute")
    s = Solver()
    for _ in range(60):
        g = random_game(rng, max_vertices=5, max_edge_size=3)
        for prot in (L, R):
            assert s.delay(g, prot) == brute_delay(g, prot), g


def test_delay_finite_iff_first_player_win():
    rng = rng_for(32, "delay-finiteness")
    s = Solver()
    for _ in range(80):
        g = random_game(rng, max_vertices=5, max_edge_size=3)
        for prot in (L, R):
            finite = s.delay(g, prot) != math.inf
            wins = s.solve(g, prot) is (LW if prot is L else RW)
            assert finite == wins, g


def test_delay_finite_iff_first_player_win_on_rank3_boards_and_hubs():
    # The delay skips its search when the protagonist cannot win moving
    # first; brute force confirms both the skipped and the searched values.
    rng = rng_for(33, "delay-rank3")
    games = []
    for _ in range(40):
        verts = [f"v{i}" for i in range(rng.randint(6, 8))]
        games.append(new_game(
            verts,
            [rng.sample(verts, 3) for _ in range(len(verts) // 2)],
            [rng.sample(verts, 3) for _ in range(len(verts) // 2)]))
    games += [win_in_k(k, color) for k in range(1, 5) for color in (L, R)]
    seen = set()
    s = Solver()
    for g in games:
        for prot in (L, R):
            d = s.delay(g, prot)
            wins = s.solve(g, prot) is (LW if prot is L else RW)
            assert (d != math.inf) == wins, g
            assert d == brute_delay(g, prot), g
            seen.add(wins)
    assert seen == {True, False}


# -- union outcome table ---------------------------------------------------------------

def test_union_table_shape():
    assert len(UNION_OUTCOMES) == 36
    for cell in UNION_OUTCOMES.values():
        assert cell and cell <= set(Outcome)


def test_union_table_is_symmetric_in_components():
    for (a, b), cell in UNION_OUTCOMES.items():
        assert UNION_OUTCOMES[(b, a)] == cell


def test_union_table_color_swap_symmetry():
    for (a, b), cell in UNION_OUTCOMES.items():
        mirrored = frozenset(o.mirrored for o in cell)
        assert UNION_OUTCOMES[(a.mirrored, b.mirrored)] == mirrored


def test_union_cell_examples():
    assert union_outcome_allowed(Outcome.L, Outcome.D, Outcome.L)
    assert not union_outcome_allowed(Outcome.L, Outcome.R, Outcome.D)
    assert union_outcome_allowed(Outcome.D, Outcome.D, Outcome.D)
    assert UNION_OUTCOMES[(Outcome.L, Outcome.D)] == {Outcome.L}
