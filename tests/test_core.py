"""Game construction, the update algebra, positions and disjoint unions."""

import pytest

from apg import (
    AlreadyWonError,
    DuplicateVertexError,
    EmptyEdgeError,
    GameResult,
    IllegalOutcomeError,
    Outcome,
    Player,
    Position,
    StatusKind,
    UnknownVertexError,
    butterfly,
    disjoint_union,
    leq_left,
    new_game,
    outcome_from_results,
    status,
    update,
    win_in_k,
)
from apg.gadgets import random_game, rng_for

L, R = Player.LEFT, Player.RIGHT


def test_minimal_game():
    g = new_game(["a"], [["a"]], [])
    assert g.blue_edges == frozenset({frozenset({"a"})})
    assert g.red_edges == frozenset()


def test_butterfly_shape():
    g = butterfly()
    assert g.n == 7
    assert len(g.blue) == 4
    assert all(len(e) == 3 for e in g.blue_edges)
    assert g.red == ()


def test_empty_edge_rejected():
    with pytest.raises(EmptyEdgeError):
        new_game(["a"], [[]], [])


def test_unknown_vertex_rejected():
    with pytest.raises(UnknownVertexError):
        new_game(["a"], [["a", "b"]], [])


def test_duplicate_vertex_rejected():
    with pytest.raises(DuplicateVertexError):
        new_game(["a", "a"], [], [])


def test_duplicate_edges_collapse():
    g = new_game(["a", "b"], [["a", "b"], ["b", "a"]], [])
    assert len(g.blue) == 1


def test_update_butterfly_midgame():
    g = butterfly()
    residual = update(g, ["alpha", "beta2"], ["beta1", "gamma3"])
    assert residual.vertices == ("gamma1", "gamma2", "gamma4")
    assert residual.blue_edges == frozenset({frozenset({"gamma4"})})
    assert residual.red_edges == frozenset()


def test_update_detects_win():
    g = butterfly()
    with pytest.raises(AlreadyWonError) as exc:
        update(g, ["alpha", "beta2", "gamma4"], ["beta1", "gamma3"])
    assert exc.value.player is Player.LEFT


def test_update_identity():
    g = butterfly()
    assert update(g, [], []) == g


def test_update_composes():
    g = new_game(["a", "b", "c", "d"], [["a", "b", "c"]], [["c", "d"]])
    once = update(update(g, ["a"], []), [], ["d"])
    combined = update(g, ["a"], ["d"])
    assert once == combined


def test_update_rejects_overlap():
    g = butterfly()
    with pytest.raises(ValueError):
        update(g, ["alpha"], ["alpha"])


def test_updated_game_matches_update_by_names():
    # Position.updated_game works on the pick masks; update takes names.
    rng = rng_for(17, "updated-game")
    won = 0
    for _ in range(300):
        pos = Position.start(random_game(rng, max_vertices=8, max_edge_size=3),
                             rng.choice((L, R)))
        while True:
            try:
                want = update(pos.game, pos.picked_left, pos.picked_right)
            except AlreadyWonError as exc:
                with pytest.raises(AlreadyWonError) as got:
                    pos.updated_game()
                assert got.value.player is exc.player is pos.winner
                won += 1
                break
            assert pos.updated_game() == want
            if status(pos).kind is not StatusKind.ONGOING:
                break
            pos = pos.play(rng.choice(want.vertices))
    assert won > 50


def test_status_empty_game_is_draw():
    g = new_game([], [], [])
    assert status(Position.start(g, L)).kind is StatusKind.DRAW


def test_status_unit_win():
    g = new_game(["a"], [["a"]], [])
    pos = Position.start(g, L).play("a")
    st = status(pos)
    assert st.kind is StatusKind.WON and st.winner is L


def test_status_butterfly_line():
    pos = Position.start(butterfly(), L)
    for v in ["alpha", "beta1", "beta2", "gamma3", "gamma4"]:
        pos = pos.play(v)
    st = status(pos)
    assert st.kind is StatusKind.WON and st.winner is L


def test_position_turn_bookkeeping():
    pos = Position.start(butterfly(), L).play("alpha")
    assert pos.to_move is R
    assert pos.picked_left == frozenset({"alpha"})
    with pytest.raises(ValueError):
        pos.play("alpha")


def test_position_from_picks_validates_counts():
    g = butterfly()
    with pytest.raises(ValueError):
        Position.from_picks(g, ["alpha", "beta1"], [], L)
    p = Position.from_picks(g, ["alpha"], [], R)
    assert p.to_move is R


def test_disjoint_union_identity():
    g = butterfly()
    empty = new_game([], [], [])
    u, renames = disjoint_union(g, empty)
    assert u == g and renames == {}


def test_disjoint_union_counts():
    u, _ = disjoint_union(butterfly(), butterfly())
    assert u.n == 14
    assert len(u.blue) == 8


def test_disjoint_union_renames_collisions():
    u, renames = disjoint_union(butterfly(), butterfly())
    assert renames["alpha"] == "alpha#2"
    assert "alpha#2" in u.vertices


def test_disjoint_union_wk_sizes():
    u, _ = disjoint_union(win_in_k(2, L), win_in_k(3, R))
    assert u.n == 3 + 5


def test_outcome_legality():
    with pytest.raises(IllegalOutcomeError):
        outcome_from_results(GameResult.RIGHT_WIN, GameResult.LEFT_WIN)
    with pytest.raises(IllegalOutcomeError):
        outcome_from_results(GameResult.DRAW, GameResult.LEFT_WIN)
    with pytest.raises(IllegalOutcomeError):
        outcome_from_results(GameResult.RIGHT_WIN, GameResult.DRAW)
    assert outcome_from_results(GameResult.LEFT_WIN, GameResult.DRAW) is Outcome.L_MINUS


def test_leq_left_chain():
    o = Outcome
    assert leq_left(o.R, o.L)
    assert leq_left(o.R, o.R_MINUS)
    assert leq_left(o.R_MINUS, o.D) and leq_left(o.R_MINUS, o.N)
    assert leq_left(o.D, o.L_MINUS) and leq_left(o.N, o.L_MINUS)
    assert leq_left(o.L_MINUS, o.L)
    assert not leq_left(o.N, o.D) and not leq_left(o.D, o.N)
    for a in o:
        assert leq_left(a, a)


def test_player_opponent_involution():
    assert L.opponent is R and R.opponent is L
    assert L.opponent.opponent is L


def test_result_order():
    assert GameResult.LEFT_WIN.rank > GameResult.DRAW.rank > GameResult.RIGHT_WIN.rank


def test_game_equality_and_hash():
    a = new_game(["x", "y"], [["x", "y"]], [])
    b = new_game(["x", "y"], [["y", "x"]], [])
    assert a == b and hash(a) == hash(b)
