"""Named example games and generators used across tests and batteries."""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Optional

from .core import Game, Outcome, Pairing, Player, disjoint_union, new_game
from .errors import KTooLargeError, ResourceLimitError
from .solver import Solver, union_outcome_allowed


def butterfly(color: Player = Player.LEFT) -> Game:
    """Seven vertices and four size-3 edges of one color sharing a hub.

    The owner wins in exactly three moves going first; one opposing pick of
    the hub kills every edge.
    """
    verts = ["alpha", "beta1", "beta2", "gamma1", "gamma2", "gamma3", "gamma4"]
    edges = [
        ["alpha", "beta1", "gamma1"],
        ["alpha", "beta1", "gamma2"],
        ["alpha", "beta2", "gamma3"],
        ["alpha", "beta2", "gamma4"],
    ]
    if color is Player.LEFT:
        return new_game(verts, edges, [])
    return new_game(verts, [], edges)


MAX_WIN_IN_K = 8


def win_in_k(k: int, color: Player = Player.LEFT) -> Game:
    """A game its owner wins in exactly ``k`` moves going first.

    One hub vertex plus 2k-2 spokes; the edges are the hub together with
    every (k-1)-subset of the spokes.  The opponent kills everything by
    taking the hub first, so the outcome is one-sided minus.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k > MAX_WIN_IN_K:
        raise KTooLargeError(f"k={k} exceeds the bound {MAX_WIN_IN_K}")
    spokes = [f"v{i}" for i in range(1, 2 * k - 1)]
    edges = [["u", *combo] for combo in itertools.combinations(spokes, k - 1)]
    if color is Player.LEFT:
        return new_game(["u", *spokes], edges, [])
    return new_game(["u", *spokes], [], edges)


_EXEMPLARS: dict[Outcome, tuple[list[str], list[list[str]], list[list[str]]]] = {
    Outcome.L: (["a", "b"], [["a"], ["b"]], []),
    Outcome.L_MINUS: (["a"], [["a"]], []),
    Outcome.N: (["a"], [["a"]], [["a"]]),
    Outcome.D: (["a"], [], []),
    Outcome.R_MINUS: (["a"], [], [["a"]]),
    Outcome.R: (["a", "b"], [], [["a"], ["b"]]),
}


def outcome_exemplar(target: Outcome, verify: bool = True) -> Game:
    """A fixed small game with the requested outcome, solver-checked on build."""
    verts, blue, red = _EXEMPLARS[target]
    game = new_game(verts, blue, red)
    if verify:
        got = Solver().outcome(game)
        assert got is target, f"exemplar for {target} solved to {got}"
    return game


def isomorphic_but_right_wins() -> tuple[Game, dict[str, str]]:
    """A game whose blue and red hypergraphs are isomorphic yet Right wins
    even moving second (outcome R), with the witnessing vertex bijection.

    Each color holds two disjoint "kits": a wing (two size-3 edges sharing
    two hub vertices) whose hubs each carry a forcing pair, so its owner
    wins in three tempo-keeping moves once the opener is free.  Search over
    placements found this overlay, where Left's forcing replies feed Right's
    kits instead of his own.
    """
    verts = [f"v{i}" for i in range(12)]
    blue = [["v0", "v5"], ["v1", "v3", "v5"], ["v1", "v5", "v9"], ["v1", "v7"],
            ["v10", "v2"], ["v11", "v2", "v4"], ["v11", "v2", "v8"], ["v11", "v6"]]
    red = [["v0", "v1", "v2"], ["v0", "v1", "v3"], ["v0", "v4"], ["v1", "v5"],
           ["v10", "v6"], ["v11", "v7"], ["v6", "v7", "v8"], ["v6", "v7", "v9"]]
    sigma = {"v0": "v5", "v1": "v0", "v2": "v7", "v3": "v2", "v4": "v8",
             "v5": "v1", "v6": "v10", "v7": "v4", "v8": "v9", "v9": "v3",
             "v10": "v11", "v11": "v6"}
    return new_game(verts, blue, red), sigma


# ---------------------------------------------------------------------------
# Random game generation (seeded)

def rng_for(seed: int, label: str) -> random.Random:
    """A deterministic child generator derived from a seed and a label."""
    return random.Random(f"{seed}/{label}")


def random_game(rng: random.Random,
                max_vertices: int = 6,
                max_edge_size: int = 3,
                max_edges: Optional[int] = None,
                min_vertices: int = 1,
                prefix: str = "v") -> Game:
    n = rng.randint(min_vertices, max_vertices)
    verts = [f"{prefix}{i}" for i in range(n)]
    cap = max_edges if max_edges is not None else max(2, n)
    return new_game(verts, _random_edges(rng, verts, cap, max_edge_size),
                    _random_edges(rng, verts, cap, max_edge_size))


def _random_edges(rng: random.Random, verts: list[str], cap: int,
                  max_edge_size: int) -> list[list[str]]:
    # Up to ``cap`` edges, each of 1 to ``max_edge_size`` distinct vertices.
    size_cap = min(max_edge_size, len(verts))
    return [rng.sample(verts, rng.randint(1, size_cap))
            for _ in range(rng.randint(0, cap))]


def random_symmetric_game(rng: random.Random) -> Game:
    n = rng.randint(1, 6)
    verts = [f"v{i}" for i in range(n)]
    edges = _random_edges(rng, verts, max(2, n), 3)
    return new_game(verts, edges, edges)


def random_paired_game(rng: random.Random,
                       pairs: int = 2,
                       extra_vertices: int = 2):
    """A game plus a pairing that hits every blue edge (for blocking checks)."""
    n = 2 * pairs + extra_vertices
    verts = [f"v{i}" for i in range(n)]
    pair_list = [(verts[2 * i], verts[2 * i + 1]) for i in range(pairs)]
    blue = []
    for _ in range(rng.randint(1, 4)):
        a, b = pair_list[rng.randrange(pairs)]
        edge = {a, b}
        target = rng.randint(2, min(3, n))
        while len(edge) < target:
            edge.add(verts[rng.randrange(n)])
        blue.append(sorted(edge))
    red = _random_edges(rng, verts, 3, 3)
    return new_game(verts, blue, red), Pairing.of(pair_list)


# ---------------------------------------------------------------------------
# Disjoint-union witness search

def _component_pool(rng: random.Random, budget: int) -> Iterable[Game]:
    yield from (outcome_exemplar(o, verify=False) for o in Outcome)
    for k in (1, 2, 3):
        yield win_in_k(k, Player.LEFT)
        yield win_in_k(k, Player.RIGHT)
    yield butterfly(Player.LEFT)
    yield butterfly(Player.RIGHT)
    for _ in range(budget):
        yield random_game(rng, max_vertices=6, max_edge_size=3)


def find_union_witness(cell: tuple[Outcome, Outcome],
                       target: Outcome,
                       seed: int = 0,
                       budget: int = 3000) -> Optional[tuple[Game, Game]]:
    """Search small games for a pair with the given component outcomes whose
    disjoint union has the target outcome.  Returns the first hit or None.

    The target must be listed for the cell in the union-outcome table.
    """
    if not union_outcome_allowed(cell[0], cell[1], target):
        raise ValueError(f"{target} is not a possible union outcome for {cell}")
    solver = Solver()
    rng = rng_for(seed, f"union-witness/{cell[0]}/{cell[1]}/{target}")
    first: list[Game] = []
    second: list[Game] = []
    tried = 0
    for game in _component_pool(rng, budget):
        try:
            o = solver.outcome(game)
        except ResourceLimitError:
            continue
        fresh: list[tuple[Game, Game]] = []
        if o is cell[0]:
            fresh += [(game, g2) for g2 in second]
            first.append(game)
        if o is cell[1]:
            fresh += [(g, game) for g in first]
            second.append(game)
        for g, g2 in fresh:
            tried += 1
            if tried > budget:
                return None
            union, _ = disjoint_union(g, g2)
            try:
                if solver.outcome(union) is target:
                    return g, g2
            except ResourceLimitError:
                continue
        # keep the candidate lists bounded so the cross product stays cheap
        del first[:-16]
        del second[:-16]
    return None
