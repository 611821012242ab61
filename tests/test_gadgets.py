"""Named gadgets, generators, and the witness searches."""

import pytest

from apg import (
    KTooLargeError,
    Outcome,
    Player,
    Solver,
    butterfly,
    find_union_witness,
    outcome_exemplar,
    union_outcome_allowed,
    win_in_k,
)
from apg.core import disjoint_union
from apg.gadgets import isomorphic_but_right_wins

L, R = Player.LEFT, Player.RIGHT


def test_butterfly_outcomes():
    s = Solver()
    assert s.outcome(butterfly(L)) is Outcome.L_MINUS
    assert s.outcome(butterfly(R)) is Outcome.R_MINUS


def test_butterfly_three_move_win():
    trace = Solver().self_play(butterfly(L), L)
    assert len(trace.moves_by(L)) == 3


def test_win_in_k_shapes():
    g = win_in_k(1)
    assert g.n == 1 and g.blue_edges == frozenset({frozenset({"u"})})
    g3 = win_in_k(3)
    assert g3.n == 5 and len(g3.blue) == 6
    with pytest.raises(KTooLargeError):
        win_in_k(9)
    with pytest.raises(ValueError):
        win_in_k(0)


def test_win_in_k_outcomes():
    s = Solver()
    for k in (1, 2, 3, 4):
        assert s.outcome(win_in_k(k, L)) is Outcome.L_MINUS
        assert s.outcome(win_in_k(k, R)) is Outcome.R_MINUS


def test_win_in_k_move_counts():
    s = Solver()
    for k in (1, 2, 3, 4):
        trace = s.self_play(win_in_k(k), L)
        assert len(trace.moves_by(L)) == k


def test_win_in_k_delay_is_k_minus_one():
    s = Solver()
    for k in (1, 2, 3, 4, 5):
        assert s.delay(win_in_k(k), L) == k - 1


def test_exemplars():
    s = Solver()
    for target in Outcome:
        g = outcome_exemplar(target)
        assert s.outcome(g) is target


def test_union_witness_trivial_cell():
    pair = find_union_witness((Outcome.L, Outcome.D), Outcome.L, budget=200)
    assert pair is not None


def test_union_witness_mixed_cell():
    pair = find_union_witness((Outcome.L, Outcome.R), Outcome.N, budget=2000)
    assert pair is not None
    g, g2 = pair
    s = Solver()
    assert s.outcome(g) is Outcome.L and s.outcome(g2) is Outcome.R
    union, _ = disjoint_union(g, g2)
    assert s.outcome(union) is Outcome.N


def test_union_witness_one_sided_minus_cell():
    pair = find_union_witness((Outcome.L_MINUS, Outcome.L_MINUS), Outcome.L,
                              budget=2000)
    assert pair is not None
    union, _ = disjoint_union(*pair)
    assert Solver().outcome(union) is Outcome.L


def test_union_witness_rejects_impossible_target():
    with pytest.raises(ValueError):
        find_union_witness((Outcome.D, Outcome.D), Outcome.L, budget=10)


def test_witness_results_satisfy_table():
    s = Solver()
    for cell, target in [((Outcome.L, Outcome.R), Outcome.L),
                         ((Outcome.N, Outcome.N), Outcome.N),
                         ((Outcome.L_MINUS, Outcome.R_MINUS), Outcome.N)]:
        pair = find_union_witness(cell, target, budget=3000)
        if pair is None:
            continue
        union, _ = disjoint_union(*pair)
        assert union_outcome_allowed(s.outcome(pair[0]), s.outcome(pair[1]),
                                     s.outcome(union))


def test_isomorphic_game_can_still_lose():
    game, sigma = isomorphic_but_right_wins()
    assert sorted(sigma) == sorted(sigma.values()) == sorted(game.vertices)
    mapped = frozenset(frozenset(sigma[v] for v in e) for e in game.blue_edges)
    assert mapped == game.red_edges
    assert Solver().outcome(game) is Outcome.R


def test_forced_destruction_order_in_union():
    # One quick threat per side: Right must defuse Left's two-move weapon
    # before anything else, then Left must defuse Right's three-move one.
    union, _ = disjoint_union(win_in_k(2, L), win_in_k(3, R))
    trace = Solver().self_play(union, R)
    assert trace.result.value == "Draw"
    assert trace.steps[0].player is R and trace.steps[0].vertex == "u"
    assert trace.steps[1].player is L and trace.steps[1].vertex == "u#2"


def test_pool_games_all_solve():
    s = Solver()
    for k in (1, 2):
        for color in (L, R):
            g = win_in_k(k, color)
            assert s.outcome(g) in set(Outcome)
