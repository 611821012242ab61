"""Game simplifications and hypergraph utilities.

Twin removal, move domination, the greedy forcing move, pairing checks,
minimal transversals and the two Maker-Breaker embeddings.  All operations
are pure; the solver reuses the same rules on its internal states.
"""

from __future__ import annotations

from typing import Literal, Optional, Sequence

from .core import (
    Game,
    Hypergraph,
    Pairing,
    Player,
    game_from_masks,
    mask_indices,
)
from .errors import EmptyEdgeError, TooLargeError
from .kernel import covers, domination, pairing, state_of_game
from .kernel import twin_reduce as kernel_twin_reduce


def twin_reduce(game: Game) -> tuple[Game, list[tuple[str, str]]]:
    """Remove twin vertices until none remain; the outcome is unchanged.

    Two distinct vertices are twins when neither forms a one-vertex edge and
    they belong to exactly the same edges of both colors.  Treating the pair
    as one pick by each player removes both vertices and kills every edge
    containing them.  Vertices in no edge are vacuous twins of each other, so
    dead vertices disappear in pairs; an odd leftover dead vertex is kept
    because dropping it would flip the move parity.

    Returns the fixpoint together with the removed pairs in removal order.
    """
    (_, blue, red), pairs = kernel_twin_reduce(state_of_game(game))
    gone = {k for pair in pairs for k in pair}
    verts = tuple(v for k, v in enumerate(game.vertices) if k not in gone)
    log = [(game.vertices[i], game.vertices[j]) for i, j in pairs]
    return game_from_masks(verts, blue, red), log


def dominated_moves(game: Game) -> frozenset[str]:
    """Vertices either player may prune from their candidate moves.

    A vertex u is dominated by v when neither forms a one-vertex edge and
    every edge containing u also contains v; picking v is then at least as
    good for either player, so the relation does not depend on the mover.
    Mutually dominating vertices (twins) all appear in the result; a solver
    pruning with it must keep one representative per twin class.
    """
    return game.names_of(domination(state_of_game(game))[0])


def prunable_moves(game: Game) -> frozenset[str]:
    """Dominated moves that are safe to prune all at once.

    Strictly dominated vertices are always included; within a class of mutual
    twins every vertex except the lowest-indexed one is included, so at least
    one optimal representative always survives.
    """
    return game.names_of(domination(state_of_game(game))[1])


def greedy_move(game: Game, player: Player) -> tuple[str, str] | None:
    """An optimal forcing opener for ``player`` as first player, if one exists.

    Looks for an edge {u, v} of the player's color such that every edge
    containing u also contains v.  Picking v turns the edge into the single
    threat {u}, forcing the opponent to answer u, and the exchange loses
    nothing.  Takes the first such edge in stored order (ascending mask
    value, see ``Game``).  Returns (vertex_to_pick, forced_answer) or None.

    Requires a game with no one-vertex edges.
    """
    cover, _, units = covers(state_of_game(game))
    if units:
        raise ValueError("greedy_move is defined only when no edge has size 1")
    own = game.blue if player is Player.LEFT else game.red
    for m in own:
        if m.bit_count() != 2:
            continue
        a, b = mask_indices(m)
        if cover[a] >> b & 1:
            return game.vertices[b], game.vertices[a]
        if cover[b] >> a & 1:
            return game.vertices[a], game.vertices[b]
    return None


def check_pairing(game: Game, pairing: Pairing, defender: Player) -> bool:
    """Whether ``pairing`` certifies a non-losing strategy for the defender.

    True iff every edge of the attacker's color (blue when the defender is
    Right) fully contains some pair: answering each attacker pick inside a
    pair with its partner then blocks every attacker edge, as first or second
    player.  Raises UnknownVertexError for a pair vertex not in the game.
    """
    pair_masks = [game.mask_of(p) for p in pairing.pairs]
    attacked = game.blue if defender is Player.RIGHT else game.red
    for edge in attacked:
        if not any(edge & pm == pm for pm in pair_masks):
            return False
    return True


def find_pairing(game: Game, defender: Player) -> Optional[Pairing]:
    """A pairing that :func:`check_pairing` accepts for the defender, with
    one pair inside each attacker edge and none shared (``kernel.pairing``),
    or None when the attacker's edges admit no such pairing.  An attacker
    edge may hold a pair of another edge's, so None does not rule out every
    pairing :func:`check_pairing` would accept."""
    attacked = game.blue if defender is Player.RIGHT else game.red
    pairs = pairing(attacked)
    if pairs is None:
        return None
    return Pairing.of(game.names_of(m) for m in pairs)


MAX_TRANSVERSAL_VERTICES = 20


def _minimal_transversal_masks(h: Hypergraph) -> list[int]:
    # The masks of minimal_transversals, found in increasing size order.
    if h.n > MAX_TRANSVERSAL_VERTICES:
        raise TooLargeError(
            f"{h.n} vertices exceeds the bound {MAX_TRANSVERSAL_VERTICES}")
    minimal: list[int] = []
    # Subsets in increasing popcount order, so supersets of found transversals
    # can be skipped by a subset test.
    by_size: list[list[int]] = [[] for _ in range(h.n + 1)]
    for s in range(1 << h.n):
        by_size[s.bit_count()].append(s)
    for size_class in by_size:
        for s in size_class:
            if any(t & ~s == 0 for t in minimal):
                continue
            if all(e & s for e in h.edges):
                minimal.append(s)
    return minimal


def minimal_transversals(h: Hypergraph) -> frozenset[frozenset[str]]:
    """All inclusion-minimal vertex sets meeting every edge (brute force).

    Applied twice this yields the antichain reduction of the input.  An
    edgeless hypergraph has the empty set as its one minimal transversal.
    """
    return frozenset(h.names_of(s) for s in _minimal_transversal_masks(h))


def _split_minimal(masks: Sequence[int]) -> tuple[list[int], list[int]]:
    # The inclusion-minimal masks and the rest, each in the order given.
    keep: list[int] = []
    drop: list[int] = []
    for m in masks:
        if any(f != m and f & ~m == 0 for f in masks):
            drop.append(m)
        else:
            keep.append(m)
    return keep, drop


def antichain(h: Hypergraph) -> frozenset[frozenset[str]]:
    """Inclusion-minimal edges of ``h``."""
    return frozenset(h.names_of(e) for e in _split_minimal(h.edges)[0])


def maker_breaker_game(h: Hypergraph,
                       mode: Literal["empty_red", "transversal_red"]) -> Game:
    """Embed a Maker-Breaker board as an achievement game.

    ``empty_red`` leaves Right with no winning sets (her wins are renamed
    draws); ``transversal_red`` gives Right the minimal transversals of the
    board, which she fills exactly when she has blocked every blue edge.
    """
    if mode == "empty_red":
        return Game(h.vertices, h.edges, ())
    if mode == "transversal_red":
        reds = _minimal_transversal_masks(h)
        if 0 in reds:
            raise EmptyEdgeError(
                "an edgeless board has the empty transversal; no game exists")
        return game_from_masks(h.vertices, h.edges, reds)
    raise ValueError(f"unknown mode {mode!r}")


def prune_superset_edges(game: Game) -> tuple[Game, list[tuple[Player, frozenset[str]]]]:
    """Optional normalization: drop same-color edges that contain another edge.

    A superset edge can never be filled first while its subset is alive, so
    removing it changes no results.  Never applied silently; the removals are
    returned for logging.
    """
    blue, blue_gone = _split_minimal(game.blue)
    red, red_gone = _split_minimal(game.red)
    log = [(Player.LEFT, game.names_of(m)) for m in blue_gone]
    log += [(Player.RIGHT, game.names_of(m)) for m in red_gone]
    return game_from_masks(game.vertices, blue, red), log
