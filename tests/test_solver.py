"""Solver fixed points, independent-oracle agreement, delay, and union table."""

import dataclasses
import itertools
import math
import sys

import pytest

from apg import (
    GameResult,
    Outcome,
    Player,
    Position,
    ResourceLimitError,
    Solver,
    SolverConfig,
    StatusKind,
    butterfly,
    delay,
    new_game,
    outcome,
    self_play,
    solve,
    solve22,
    status,
    twin_reduce,
    union_outcome_allowed,
    win_in_k,
)
from apg import solver
from apg.gadgets import outcome_exemplar, random_game, rng_for
from apg.kernel import state_of_game, unit_mask
from apg.kernel import twin_reduce as kernel_twin_reduce
from apg.reductions import CnfFormula, sat_draw_game, sat_win_game
from apg.solver import PLAIN, SEARCH_ONLY, TOGGLES, UNION_OUTCOMES, SolveStats, TraceStep

from oracles import antichains, brute_delay, brute_result

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


def two_question_best_move(solver, pos):
    # The reference: an immediate completion if there is one, else the
    # lowest-indexed vertex whose full two-question value equals the
    # position's.
    game = pos.updated_game()
    for v in game.vertices:
        if status(pos.play(v)).kind is StatusKind.WON:
            return v, LW if pos.to_move is L else RW
    value = solver.solve(game, pos.to_move)
    return next(v for v in game.vertices if solver.move_value(pos, v) is value), value


def test_best_move_matches_a_two_question_reference():
    rng = rng_for(12, "best-move-one-question")
    reference = Solver(SEARCH_ONLY)
    values = set()
    for _ in range(150):
        pos = Position.start(random_game(rng, max_vertices=8, max_edge_size=3),
                             rng.choice((L, R)))
        while status(pos).kind is StatusKind.ONGOING:
            got = Solver().best_move(pos)
            assert got == two_question_best_move(reference, pos), pos.summary()
            values.add(got[1])
            pos = pos.play(rng.choice(pos.updated_game().vertices))
    assert values == {LW, DR, RW}


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


def best_move_walk(game, first):
    # The reference trace: a best_move query at each position, with the
    # forced tag read from the position's updated game.
    s = Solver()
    pos = Position.start(game, first)
    steps = []
    while status(pos).kind is StatusKind.ONGOING:
        mover = pos.to_move
        vertex, value = s.best_move(pos)
        updated = pos.updated_game()
        threats = unit_mask(updated.red if mover is L else updated.blue)
        if value is (LW if mover is L else RW):
            tag = "winning"
        elif threats == 1 << updated.index_of(vertex):
            tag = "forced"
        else:
            tag = "arbitrary"
        steps.append(TraceStep(pos.summary(), mover, vertex, tag))
        pos = pos.play(vertex)
    final = status(pos)
    result = DR if final.kind is StatusKind.DRAW else LW if final.winner is L else RW
    return tuple(steps), final, result


def sparse_rank3_board(rng, n):
    """A board like the ``boards`` benchmark corpus: n/2 triples per colour."""
    verts = [f"v{i}" for i in range(n)]
    return new_game(verts, [rng.sample(verts, 3) for _ in range(n // 2)],
                    [rng.sample(verts, 3) for _ in range(n // 2)])


def test_self_play_matches_a_best_move_walk():
    rng = rng_for(17, "self-play-walk")
    games = [random_game(rng, max_vertices=9, max_edge_size=3) for _ in range(300)]
    games += [sparse_rank3_board(rng, n) for n in (12, 12, 13, 13, 14, 14)]
    tags = set()
    for g in games:
        for first in (L, R):
            trace = Solver().self_play(g, first)
            steps, final, result = best_move_walk(g, first)
            assert trace.steps == steps, (g, first)
            assert (trace.final, trace.result) == (final, result), (g, first)
            assert result is solve(g, first)
            tags.update(step.justification for step in steps)
    assert tags == {"winning", "forced", "arbitrary"}


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


def test_root_twin_pass_decides_disjoint_triples():
    # Three disjoint triples of each colour: each triple's vertices are
    # twins, so the root pass empties the board, and the search alone
    # (every other rule off) walks thousands of nodes to the same draw.
    vs = [f"v{i}" for i in range(18)]
    g = new_game(vs, [vs[k:k + 3] for k in (0, 3, 6)], [vs[k:k + 3] for k in (9, 12, 15)])
    for twins, nodes in ((True, 2), (False, 2485)):
        s = Solver(dataclasses.replace(PLAIN, use_twin_reduction=twins))
        assert s.solve(g, L) is DR
        assert s.last_stats.nodes_expanded == nodes
    reduced, log = twin_reduce(g)
    assert (reduced.n, reduced.blue, reduced.red) == kernel_twin_reduce(state_of_game(g))[0]
    assert len(log) == 9


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
    fresh = Solver(SEARCH_ONLY)
    fresh.solve(butterfly(), L)
    assert fresh.last_stats.max_depth == 3
    s = Solver(SEARCH_ONLY)
    s.solve(sat_draw_game(CnfFormula(3, ((1, 2, 3),))).game, L)
    assert s.last_stats.max_depth > 3
    s.solve(butterfly(), L)
    assert s.last_stats.max_depth == 3


def test_outcome_state_is_one_query_for_both_first_players():
    # One twin reduction of the root, read in both colour orders, asks the
    # same questions as two solve_state queries: twin reduction treats the
    # colours alike.  Boards with twins are where the two could differ.
    rng = rng_for(8, "outcome-state")
    with_twins = 0
    for _ in range(40):
        n, blue, red = state = state_of_game(random_game(rng, max_vertices=8,
                                                         max_edge_size=3))
        reduced, pairs = kernel_twin_reduce(state)
        with_twins += bool(pairs)
        assert kernel_twin_reduce((n, red, blue))[0] == (reduced[0], reduced[2], reduced[1])
        both = Solver()
        pair = both.outcome_state(state)
        apart = Solver()
        left = apart.solve_state(state, L)
        first = apart.last_stats
        right = apart.solve_state(state, R)
        second = apart.last_stats
        assert pair == (left, right)
        for name in ("nodes_expanded", "memo_hits", "leaf_calls", "potential_cutoffs",
                     "threat_cutoffs", "forced_replies"):
            assert getattr(both.last_stats, name) == getattr(first, name) + getattr(second, name)
        assert both.last_stats.max_depth == max(first.max_depth, second.max_depth)
    assert with_twins >= 10


def test_a_search_past_the_recursion_limit_raises_resource_limit_error():
    # A query answers or raises ResourceLimitError, for the recursion limit
    # as for the node budget, and the solver still answers afterwards.  The
    # limit is lowered so that a 400-vertex alternating chain passes it.  A
    # red unit at its head blocks every pairing of Right's edges, so the
    # root leaves "can Left avoid losing?" to the forced line.
    verts = [f"v{i}" for i in range(400)]
    g = new_game(verts, [verts[i:i + 2] for i in range(0, 399, 2)],
                 [verts[:1]] + [verts[i:i + 2] for i in range(1, 399, 2)])
    s = Solver(SolverConfig(use_leaf_oracle=False))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        with pytest.raises(ResourceLimitError) as exc:
            s.solve(g, L)
    finally:
        sys.setrecursionlimit(limit)
    assert str(exc.value) == "the search went deeper than the recursion limit (200)"
    assert s.last_stats.nodes_expanded > 0 and s.last_stats.elapsed > 0
    assert s.solve(butterfly(), L) is LW


QUERIES = {
    "solve_state": lambda s, g: s.solve_state(state_of_game(g), L),
    "survives_canonical_right": lambda s, g: s.survives_canonical_right(g),
    "outcome_state": lambda s, g: s.outcome_state(state_of_game(g)),
    "move_value": lambda s, g: s.move_value(Position.start(g, L), g.vertices[1]),
    "best_move": lambda s, g: s.best_move(Position.start(g, L)),
    "self_play": lambda s, g: s.self_play(g, L),
    "delay": lambda s, g: s.delay(g, L),
}


@pytest.mark.parametrize("name", QUERIES)
def test_each_query_installs_its_stats(name):
    # Fresh counters and an elapsed time for each query, also when its node
    # budget runs out: each query here expands at least two nodes.
    query, g = QUERIES[name], butterfly()
    for limit in (SEARCH_ONLY.node_limit, 1):
        s = Solver(dataclasses.replace(SEARCH_ONLY, node_limit=limit))
        before = s.last_stats
        if limit == 1:
            with pytest.raises(ResourceLimitError):
                query(s, g)
        else:
            query(s, g)
        assert s.last_stats is not before
        assert s.last_stats.nodes_expanded > 0
        assert s.last_stats.elapsed > 0


def test_node_budget_covers_the_whole_trace():
    g = sat_draw_game(CnfFormula(3, ((1, 2, 3),))).game
    fresh = Solver()
    fresh.solve(g, L)
    solve_nodes = fresh.last_stats.nodes_expanded
    fresh = Solver()
    fresh.self_play(g, L)
    assert fresh.last_stats.nodes_expanded > solve_nodes
    s = Solver(SolverConfig(node_limit=solve_nodes))
    assert s.solve(g, L) is solve(g, L)
    with pytest.raises(ResourceLimitError):
        Solver(SolverConfig(node_limit=solve_nodes)).self_play(g, L)


def test_node_budget():
    s = Solver(dataclasses.replace(SEARCH_ONLY, node_limit=3))
    with pytest.raises(ResourceLimitError):
        s.solve(butterfly(), L)


def test_node_budget_is_per_query():
    # Each repeat is one memo hit; a lifetime count would pass 50 nodes.
    s = Solver(SolverConfig(node_limit=50))
    assert s.solve(win_in_k(3), L) is LW
    for _ in range(100):
        assert s.solve(win_in_k(3), L) is LW
        assert s.last_stats.nodes_expanded == 1


def test_mirrored_query_hits_the_memo():
    # Right first on the colour-swapped board is the same position seen
    # from the mover, so every node of the second query is a memo hit.
    rng = rng_for(8, "mirror")
    for _ in range(40):
        n, blue, red = state = state_of_game(random_game(rng, max_vertices=8,
                                                         max_edge_size=3))
        s = Solver()
        want = s.solve_state(state, L).mirrored
        assert s.solve_state((n, red, blue), R) is want
        assert s.last_stats.memo_hits == s.last_stats.nodes_expanded > 0


# -- cutoffs that end a node early ---------------------------------------------------

def nested(prefix, sizes):
    """Edges ``{prefix0 .. prefix(k-1)}`` for each size k: their 2^-|e| sum
    to 1/2 - 2^-61 over sizes 2..61, which a float rounds to 1/2."""
    return [[f"{prefix}{i}" for i in range(k)] for k in sizes]


def blue_potential_board(at_bound):
    # Left's potential is 1/2 - 2^-61, or 1/2 with the extra size-61 edge;
    # the red pair tells v0 from v1, which would otherwise be twins.
    verts = [f"v{i}" for i in range(62)]
    extra = [verts[:60] + ["v61"]] if at_bound else []
    return new_game(verts, nested("v", range(2, 62)) + extra, [["v0", "v61"]])


def red_potential_board(at_bound):
    # Right's potential is a unit's 1/2 plus 1/2 - 2^-61, or 1 with the extra
    # size-61 edge; Left's one pair keeps its own potential at 1/4.
    verts = ["u", "x"] + [f"w{i}" for i in range(61)]
    extra = [[f"w{i}" for i in range(1, 61)] + ["x"]] if at_bound else []
    return new_game(verts, [["w0", "x"]], [["u"]] + nested("w", range(2, 62)) + extra)


@pytest.mark.parametrize("board", [blue_potential_board, red_potential_board])
def test_potential_cutoffs_fire_at_the_root_with_exact_sums(board):
    # Below the bound both queries end at the root: "can Left win?" on
    # Left's potential, "can Left avoid losing?" on Right's.  At the bound,
    # off by 2^-61 on 62-63 vertices, the cutoff must not fire there.
    s = Solver()
    assert s.solve(board(False), L) is DR
    assert (s.last_stats.nodes_expanded, s.last_stats.max_depth) == (2, 0)
    assert s.last_stats.potential_cutoffs == 2
    want = Solver(SEARCH_ONLY).solve(board(True), L)
    s = Solver()
    assert s.solve(board(True), L) is want
    assert s.last_stats.max_depth > 0


def test_counters_count_firings_and_stay_zero_when_toggled_off():
    rows = (("potential_cutoffs", "use_potentials", blue_potential_board(False)),
            ("leaf_calls", "use_leaf_oracle", butterfly()),
            ("threat_cutoffs", "use_double_threats",
             new_game(["a", "b", "c"], [["a", "b"], ["b", "c"]], [])),
            ("forced_replies", "use_forced_moves",
             sat_win_game(CnfFormula(3, ((1, 2, 3),))).game),
            ("pairing_cutoffs", "use_pairing",
             sat_draw_game(CnfFormula(3, ((1, 2, 3),))).game))
    # Every rule's counter has a row: the fields past the query's own four.
    query = {"nodes_expanded", "memo_hits", "max_depth", "elapsed"}
    counters = {f.name for f in dataclasses.fields(SolveStats)} - query
    assert {field for field, _, _ in rows} == counters
    for field, toggle, game in rows:
        on, off = Solver(), Solver(SolverConfig(**{toggle: False}))
        assert on.solve(game, L) is off.solve(game, L)
        count = getattr(on.last_stats, field)
        assert count >= 1 and getattr(off.last_stats, field) == 0
        assert f"{field}: {count}" in on.last_stats.as_text()


def test_reference_configurations_follow_the_toggles():
    toggles = [f.name for f in dataclasses.fields(SolverConfig) if f.name.startswith("use_")]
    assert list(TOGGLES) == toggles
    assert not any(getattr(PLAIN, t) for t in toggles)
    assert all(getattr(SolverConfig(), t) for t in toggles)
    assert {t for t in toggles if getattr(SEARCH_ONLY, t) != getattr(PLAIN, t)} == {
        "use_twin_reduction", "use_domination", "use_forced_moves"}
    # Both keep the default budget and memo, and no caller can change them.
    for config in (PLAIN, SEARCH_ONLY):
        assert (config.node_limit, config.memo_max_vertices) == (
            SolverConfig().node_limit, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.use_pairing = True


def test_stats_text_prints_every_counter_but_elapsed():
    # The text of apg solve's stats block: one line per field in declaration
    # order, so a new rule's counter is printed after these.
    lines = SolveStats(*range(1, 10)).as_text().splitlines()
    assert lines[:8] == ["nodes_expanded: 1", "memo_hits: 2", "max_depth: 3",
                         "leaf_calls: 5", "potential_cutoffs: 6", "threat_cutoffs: 7",
                         "forced_replies: 8", "pairing_cutoffs: 9"]
    assert len(lines) == len(dataclasses.fields(SolveStats)) - 1


@pytest.mark.parametrize("unit, want", [("b", LW), ("d", DR), (None, LW)])
def test_double_threat_fires_only_when_the_centre_blocks(unit, want):
    # Left's pairs ab and bc share the centre b.  With no red unit, or a red
    # unit at b, Left's first pick makes two threats and the root ends
    # there.  A red unit at d must be blocked elsewhere; Right then takes b
    # and the game is drawn.
    red = [[unit]] if unit else []
    g = new_game(["a", "b", "c", "d"], [["a", "b"], ["b", "c"]], red)
    s = Solver()
    assert s.solve(g, L) is want is brute_result(g, L)
    fired = (s.last_stats.nodes_expanded, s.last_stats.threat_cutoffs) == (1, 1)
    assert fired == (want is LW)


def test_long_alternating_chain_is_answered_by_the_leaf_oracle():
    # Deeper than the recursion limit for the search, but every edge is a
    # pair, so the root is one poly22 call.
    verts = [f"v{i}" for i in range(1500)]
    blue = [verts[i:i + 2] for i in range(0, 1499, 2)]
    red = [verts[i:i + 2] for i in range(1, 1499, 2)]
    g = new_game(verts, blue, red)
    s = Solver()
    for first in (L, R):
        assert s.solve(g, first) is solve22(g, first)
        assert s.last_stats.leaf_calls >= 1 and s.last_stats.max_depth == 0
    assert s.solve(g, L) is DR


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


def test_delay_memo_obeys_the_memo_bounds(monkeypatch):
    monkeypatch.setattr(solver, "MEMO_FLUSH_ENTRIES", 2)
    s = Solver(SolverConfig(memo_max_vertices=0))
    assert s.delay(win_in_k(4), L) == 3
    assert all(state[0] == 0 for _, state in s._memo_delay)
    s = Solver()
    assert s.delay(win_in_k(4), L) == 3
    assert 0 < len(s._memo_delay) <= 2


def test_delay_of_the_sat32_win_gadget():
    # The 35-vertex win gadget of (1 2 3)(-1 -2 -3), a Left win in a few
    # dozen nodes; its delay takes about 105k.
    g = sat_win_game(CnfFormula(3, ((1, 2, 3), (-1, -2, -3)))).game
    assert g.n == 35
    assert Solver(SolverConfig(node_limit=400_000)).delay(g, L) == 3


def test_delay_agrees_with_brute_on_random_games():
    rng = rng_for(31, "delay-brute")
    games = [random_game(rng, max_vertices=5, max_edge_size=3) for _ in range(60)]
    games += [random_game(rng, min_vertices=6, max_vertices=7, max_edge_size=3)
              for _ in range(40)]
    s = Solver()
    for g in games:
        for prot in (L, R):
            assert s.delay(g, prot) == brute_delay(g, prot), g


# The delay search's three toggled rules, each off alone and all off.
DELAY_CONFIGS = (SolverConfig(), SolverConfig(use_potentials=False),
                 SolverConfig(use_forced_moves=False),
                 SolverConfig(use_double_threats=False),
                 SolverConfig(use_potentials=False, use_forced_moves=False,
                              use_double_threats=False))


def test_delay_rules_on_every_four_vertex_board():
    # An edge holding another edge of its colour never decides the pass
    # game either (the smaller one is filled first), so the antichains of
    # edges of size <= 3 stand for every board of up to 4 vertices with
    # such edges.  Right's delay on a board searches the very state that
    # Left's does on the board with the colours swapped, which is also one
    # of these, so Left's delays cover both protagonists.
    boards = []
    for n in range(5):
        verts = "abcd"[:n]
        pool = [c for r in (1, 2, 3) for c in itertools.combinations(verts, r)]
        families = list(antichains(pool))
        boards += [new_game(verts, blue, red) for blue in families for red in families]
    assert len(boards) == sum(k * k for k in (1, 2, 5, 19, 166))
    wants = [brute_delay(g, L) for g in boards]
    fired = [0, 0, 0]
    for config in DELAY_CONFIGS:
        toggles = (config.use_potentials, config.use_forced_moves,
                   config.use_double_threats)
        for g, want in zip(boards, wants):
            # A fresh solver per board, so every rule firing is checked, none
            # answered from an earlier board's memo.  The value first, so the
            # delay query's counters are its search's alone: its value check
            # is then one memo hit.
            s = Solver(config)
            assert (s.solve(g, L) is LW) == (want != math.inf), g
            assert s.delay(g, L) == want, (g, config)
            stats = s.last_stats
            counts = (stats.potential_cutoffs, stats.forced_replies,
                      stats.threat_cutoffs)
            assert all(on or not c for c, on in zip(counts, toggles))
            fired = [f + c for f, c in zip(fired, counts)]
    # Each rule fires thousands of times: 6,998, 12,335 and 27,762.
    assert fired[0] > 3000 and fired[1] > 6000 and fired[2] > 10_000


def test_delay_question_is_monotone_in_d():
    # Seeded rank-3 boards whose delay is finite (2 on these), and hub
    # boards with delays 1 to 3.
    rng = rng_for(34, "delay-monotone")
    games = []
    while len(games) < 10:
        verts = [f"v{i}" for i in range(rng.randint(6, 8))]
        g = new_game(verts, [rng.sample(verts, 3) for _ in verts],
                     [rng.sample(verts, 3) for _ in range(len(verts) // 2)])
        if brute_delay(g, L) != math.inf:
            games.append((g, L))
    games += [(win_in_k(k, color), color) for k in (2, 3, 4) for color in (L, R)]
    for g, prot in games:
        want = brute_delay(g, prot)
        root = (g.n, g.blue, g.red) if prot is L else (g.n, g.red, g.blue)
        span = range(int(want) + 3)
        for d in span:
            assert Solver()._delay_at_most(root, True, d, 0) == (d >= want), (g, d)
        # Descending on one solver: an upper bound is stored first, then the
        # questions below it are asked and a lower bound is stored.
        s = Solver()
        for d in reversed(span):
            assert s._delay_at_most(root, True, d, 0) == (d >= want), (g, d)
        assert s._memo_delay[True, root] == (want, want)


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
