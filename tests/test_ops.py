"""Twin removal, domination, the greedy opener, pairings and transversals."""

import pytest

from apg import (
    EmptyEdgeError,
    Pairing,
    Player,
    Solver,
    TooLargeError,
    UnknownVertexError,
    butterfly,
    check_pairing,
    dominated_moves,
    find_pairing,
    greedy_move,
    maker_breaker_game,
    minimal_transversals,
    new_game,
    new_hypergraph,
    prune_superset_edges,
    twin_reduce,
    update,
)
from apg.ops import antichain

L, R = Player.LEFT, Player.RIGHT


# -- twin removal -----------------------------------------------------------

def test_twin_reduce_removes_dead_pair():
    g = new_game(["a", "b", "c", "d"], [["a", "b"]], [])
    reduced, log = twin_reduce(g)
    removed = {v for pair in log for v in pair}
    assert {"c", "d"} <= removed
    assert reduced.n in (0, 2)  # a,b are twins of each other too


def test_twin_reduce_kills_shared_pair_edges():
    # a and b sit in both edges; treating the pair as one pick each kills both
    # edges entirely, leaving x and y dead.
    g = new_game(["a", "b", "x", "y"], [["a", "b", "x"], ["a", "b", "y"]], [])
    reduced, log = twin_reduce(g)
    assert ("a", "b") in log
    assert reduced.blue == () and reduced.red == ()
    s = Solver()
    assert s.outcome(g) == s.outcome(reduced)


def test_twin_reduce_single_pair_edge():
    g = new_game(["u", "v"], [["u", "v"]], [])
    reduced, log = twin_reduce(g)
    assert reduced.n == 0
    s = Solver()
    assert s.outcome(g) == s.outcome(reduced)


def test_twin_reduce_keeps_odd_dead_vertex():
    g = new_game(["a", "b", "c"], [["a", "b"]], [])
    reduced, _ = twin_reduce(g)
    # one dead vertex must survive: removing it alone would flip parity
    assert reduced.n == 1
    s = Solver()
    assert s.outcome(g) == s.outcome(reduced)


def test_twin_reduce_respects_unit_edges():
    g = new_game(["a", "b"], [["a"], ["b"]], [])
    reduced, log = twin_reduce(g)
    assert log == [] and reduced == g


# -- domination ---------------------------------------------------------------

def test_isolated_vertex_dominated():
    g = new_game(["a", "b", "c"], [["a", "b"]], [])
    assert "c" in dominated_moves(g)


def test_shared_vertex_dominates():
    g = new_game(["a", "b", "c"], [["a", "b"], ["a", "c"]], [])
    dom = dominated_moves(g)
    assert {"b", "c"} <= dom
    assert "a" not in dom


def test_butterfly_hub_dominates():
    g = butterfly()
    dom = dominated_moves(g)
    assert "beta1" in dom
    assert "alpha" not in dom


def test_unit_edge_vertices_never_dominated():
    g = new_game(["a", "b"], [["a"], ["a", "b"]], [])
    assert "a" not in dominated_moves(g)


def test_prunable_subset_keeps_twin_representative():
    from apg.ops import prunable_moves

    g = new_game(["a", "b"], [["a", "b"]], [])
    assert dominated_moves(g) == {"a", "b"}
    assert prunable_moves(g) == {"b"}  # the lowest-indexed twin survives


def _pairwise_domination(g):
    """Reference: (dominated, prunable) vertex sets by comparing every pair."""
    units = {next(iter(e)) for e in g.blue_edges | g.red_edges if len(e) == 1}
    holding = {v: {e for e in g.blue_edges | g.red_edges if v in e} for v in g.vertices}

    def dominators(u):
        return [v for v in g.vertices if v != u and u not in units and v not in units
                and all(v in e for e in holding[u])]

    dominated = {u for u in g.vertices if dominators(u)}
    index = g.vertices.index
    prunable = {u for u in dominated
                if any(index(v) < index(u) or u not in dominators(v) for v in dominators(u))}
    return dominated, prunable


def test_domination_matches_pairwise_reference():
    import random

    from apg.gadgets import random_game
    from apg.ops import prunable_moves

    rng = random.Random(5150)
    for _ in range(200):
        g = random_game(rng, max_vertices=7, max_edge_size=3)
        dominated, prunable = _pairwise_domination(g)
        assert dominated_moves(g) == dominated, g
        assert prunable_moves(g) == prunable, g


# -- greedy forcing move -------------------------------------------------------

def test_greedy_pendant_pair():
    g = new_game(["u", "v"], [["u", "v"]], [])
    assert greedy_move(g, L) == ("v", "u")


def test_greedy_tries_both_edge_orientations():
    # u also sits in a red edge, so picking v does not force u; but v has
    # degree 1, so picking u forces v.
    g = new_game(["u", "v", "w"], [["u", "v"]], [["u", "w"]])
    assert greedy_move(g, L) == ("u", "v")


def test_greedy_none_when_both_endpoints_branch():
    g = new_game(["u", "v", "w", "z"], [["u", "v"]], [["u", "w"], ["v", "z"]])
    assert greedy_move(g, L) is None


def test_greedy_on_clause_gadget_fragment():
    from apg import CnfFormula, sat_draw_game

    phi_game = sat_draw_game(CnfFormula(1, ((1, 1, 1),))).game
    after = update(phi_game, ["x1"], ["nx1"])
    pick, forced = greedy_move(after, L)
    assert (pick, forced) == ("c0s0", "c0s0p")


def test_greedy_requires_no_units():
    g = new_game(["a", "b"], [["a"], ["a", "b"]], [])
    with pytest.raises(ValueError):
        greedy_move(g, L)


# -- pairings -----------------------------------------------------------------

def test_pairing_single_edge():
    g = new_game(["a", "b"], [["a", "b"]], [])
    assert check_pairing(g, Pairing.of([("a", "b")]), R)


def test_pairing_misses_edge():
    g = new_game(["a", "b", "c"], [["a", "b"], ["b", "c"]], [])
    assert not check_pairing(g, Pairing.of([("a", "b")]), R)


def test_pairing_matching():
    g = new_game(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]], [])
    assert check_pairing(g, Pairing.of([("a", "b"), ("c", "d")]), R)


def test_pairing_vertex_not_in_game():
    g = new_game(["a", "b"], [["a", "b"]], [])
    with pytest.raises(UnknownVertexError):
        check_pairing(g, Pairing.of([("a", "z")]), R)


def test_pairing_validation():
    with pytest.raises(ValueError):
        Pairing.of([("a", "a")])
    with pytest.raises(ValueError):
        Pairing.of([("a", "b"), ("b", "c")])


def test_find_pairing_is_one_pair_per_edge():
    # Two blue triples through a and b take disjoint pairs of their own; a
    # third leaves five vertices for three pairs, so none is found, though
    # the shared pair {a, b} alone still blocks every one of them.
    vs = list("abcde")
    g = new_game(vs, [["a", "b", "c"], ["a", "b", "d"]], [["e"]])
    found = find_pairing(g, R)
    assert found is not None and check_pairing(g, found, R)
    assert find_pairing(g, L) is None  # a one-vertex red edge holds no pair
    g = new_game(vs, [["a", "b", v] for v in "cde"], [])
    assert find_pairing(g, R) is None
    assert check_pairing(g, Pairing.of([("a", "b")]), R)


# -- transversals ---------------------------------------------------------------

def test_transversals_single_edge():
    h = new_hypergraph(["a", "b"], [["a", "b"]])
    assert minimal_transversals(h) == frozenset({frozenset({"a"}), frozenset({"b"})})


def test_transversals_path():
    h = new_hypergraph(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    assert minimal_transversals(h) == frozenset({frozenset({"b"}),
                                                 frozenset({"a", "c"})})


def test_transversals_bound():
    h = new_hypergraph([f"v{i}" for i in range(21)], [["v0"]])
    with pytest.raises(TooLargeError):
        minimal_transversals(h)
    with pytest.raises(TooLargeError):
        maker_breaker_game(h, "transversal_red")


def test_transversal_properties():
    h = new_hypergraph(["a", "b", "c", "d"],
                       [["a", "b"], ["b", "c", "d"], ["a", "d"]])
    trs = minimal_transversals(h)
    for t in trs:
        assert all(t & e for e in h.edge_sets)
        assert not any(t2 < t for t2 in trs)


def test_transversal_involution_small():
    # applying the transversal map twice returns the inclusion-minimal edges
    import itertools

    verts = ["a", "b", "c", "d"]
    pool = [set(c) for r in (1, 2, 3) for c in itertools.combinations(verts, r)]
    import random

    rng = random.Random(7)
    for _ in range(60):
        edges = rng.sample(pool, rng.randint(1, 5))
        h = new_hypergraph(verts, edges)
        tr = minimal_transversals(h)
        h_tr = new_hypergraph(verts, [sorted(t) for t in tr])
        assert minimal_transversals(h_tr) == antichain(h)


# -- Maker-Breaker embeddings ----------------------------------------------------

def test_embed_empty_red():
    h = new_hypergraph(["a"], [["a"]])
    g = maker_breaker_game(h, "empty_red")
    s = Solver()
    assert str(s.outcome(g)) == "L-"


def test_embed_transversal_red_unit():
    h = new_hypergraph(["a"], [["a"]])
    g = maker_breaker_game(h, "transversal_red")
    assert g.red_edges == frozenset({frozenset({"a"})})
    s = Solver()
    assert str(s.outcome(g)) == "N"


def test_embed_edgeless_board_rejected():
    h = new_hypergraph(["a"], [])
    with pytest.raises(EmptyEdgeError):
        maker_breaker_game(h, "transversal_red")


def test_embedding_values_agree():
    from apg import GameResult

    h = new_hypergraph(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    s = Solver()
    empty = s.solve(maker_breaker_game(h, "empty_red"), L)
    trans = s.solve(maker_breaker_game(h, "transversal_red"), L)
    assert (empty is GameResult.LEFT_WIN) == (trans is GameResult.LEFT_WIN)
    assert (empty is GameResult.DRAW) == (trans is GameResult.RIGHT_WIN)


# -- superset pruning -------------------------------------------------------------

def test_prune_superset_edges():
    g = new_game(["a", "b", "c"], [["a", "b"], ["a", "b", "c"]], [["c"], ["b", "c"]])
    pruned, log = prune_superset_edges(g)
    assert pruned.blue_edges == frozenset({frozenset({"a", "b"})})
    assert pruned.red_edges == frozenset({frozenset({"c"})})
    assert len(log) == 2
    s = Solver()
    assert s.outcome(g) == s.outcome(pruned)
