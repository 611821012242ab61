"""The mask-level kernel against written-out definitions and the name-level
game algebra, on exhaustive small boards and seeded random ones."""

import itertools
import random

import pytest

from apg import AlreadyWonError, GameResult, Player, Solver, SolverConfig, kernel, update
from apg.core import game_from_masks
from apg.kernel import (
    MapFinder,
    bits,
    canonical_right_reply,
    child,
    compress,
    domination,
    expand,
    grandchild,
    opponent_reply,
    pairing,
    state_of_game,
    twin_reduce,
    unit_mask,
)
from apg.reductions import CnfFormula, sat_draw_game, sat_win_game
from apg.solver import SEARCH_ONLY

from oracles import antichains, closed_state

PHI3 = CnfFormula(3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3)))


def signatures(n, edges):
    """Per-vertex bitmap over the edge list: bit j is set when edge j holds
    the vertex.  The whole-board reference for twin removal."""
    sigs = [0] * n
    j = 1
    for m in edges:
        for i in bits(m):
            sigs[i] |= j
        j <<= 1
    return sigs


def exhaustive_states():
    """Every board on at most 3 vertices, and every board on 4 vertices with
    at most two edges of each color."""
    for n in range(4):
        masks = range(1, 1 << n)
        subsets = [s for k in range(len(masks) + 1)
                   for s in itertools.combinations(masks, k)]
        for blue in subsets:
            for red in subsets:
                yield (n, blue, red)
    few = [s for k in range(3) for s in itertools.combinations(range(1, 16), k)]
    for blue in few:
        for red in few:
            yield (4, blue, red)


def random_states(seed, count, max_vertices=14):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_vertices)

        def edges():
            return tuple(sorted({
                sum(1 << v for v in rng.sample(range(n), rng.randint(1, min(n, 4))))
                for _ in range(rng.randint(0, n))}))

        blue, red = edges(), edges()
        if n >= 2 and rng.random() < 0.4:
            # copy one vertex's memberships onto another to make twins
            a, b = rng.sample(range(n), 2)

            def copy(ms):
                return tuple(sorted({m | 1 << b if m >> a & 1 else m & ~(1 << b)
                                     for m in ms} - {0}))

            blue, red = copy(blue), copy(red)
        yield (n, blue, red)


def all_states():
    yield from exhaustive_states()
    yield from random_states(2503, 3000)


def pairwise_prunable(state):
    """The domination rule by its definition: i is skipped when some other
    non-unit j lies in every edge holding i, and either j does not lie in
    exactly the same edges or j comes first."""
    n, blue, red = state
    edges = blue + red
    units = {m.bit_length() - 1 for m in edges if m.bit_count() == 1}
    holding = [{e for e, m in enumerate(edges) if m >> i & 1} for i in range(n)]
    out = 0
    for i in range(n):
        if i in units:
            continue
        for j in range(n):
            if j != i and j not in units and holding[i] <= holding[j] \
                    and (holding[i] != holding[j] or j < i):
                out |= 1 << i
                break
    return out


def as_game(state):
    n, blue, red = state
    return game_from_masks(tuple(f"v{i}" for i in range(n)), blue, red)


@pytest.mark.parametrize("states", [exhaustive_states, lambda: random_states(2503, 3000)],
                         ids=["exhaustive", "random"])
def test_prunable_mask_matches_pairwise_definition(states):
    for state in states():
        assert domination(state)[1] == pairwise_prunable(state), state


def test_candidates_are_unpruned_vertices_by_score():
    for state in random_states(17, 2000):
        n, blue, red = state
        score = [sum(3 if m.bit_count() == 2 else 1 for m in blue + red if m >> i & 1)
                 for i in range(n)]
        for prune in (True, False):
            pruned = domination(state)[1] if prune else 0
            want = [i for i in range(n) if not pruned >> i & 1]
            if n > 6 and len(want) > 2:
                want.sort(key=lambda i: (-score[i], i))
            assert expand(state, prune)[0] == want, (state, prune)


@pytest.mark.parametrize("states", [exhaustive_states, lambda: random_states(4, 1500)],
                         ids=["exhaustive", "random"])
def test_child_matches_update(states):
    # Each state is checked from both views: Left's pick on (n, blue, red)
    # and Right's on (n, red, blue).  The child is the opponent's view.
    for state in states():
        n, blue, red = state
        game = as_game(state)
        for i, v in enumerate(game.vertices):
            for left, picks in ((True, ([v], [])), (False, ([], [v]))):
                view = (n, blue, red) if left else (n, red, blue)
                try:
                    after = update(game, *picks)
                except AlreadyWonError:
                    assert child(view, i) is None, (view, i)
                    continue
                m, b, r = state_of_game(after)
                assert child(view, i) == ((m, r, b) if left else (m, b, r)), (view, i)


def test_twin_reduce_reaches_a_fixed_point():
    for state in all_states():
        reduced, pairs = twin_reduce(state)
        assert reduced == reference_twin_reduce(state), state
        n, blue, red = reduced
        assert blue == tuple(sorted(set(blue))) and red == tuple(sorted(set(red)))
        sigs = signatures(n, blue + red)
        assert len(set(sigs)) == n, (state, reduced)
        assert twin_reduce(reduced) == (reduced, [])
        # pairs are removed, so the move parity is kept
        assert (state[0] - n) % 2 == 0
        assert replay_pairs(state, pairs) == reduced, (state, pairs)


def replay_pairs(state, pairs):
    """Remove the logged pairs, numbered as in ``state``, one at a time,
    checking that each is a twin pair when it is removed."""
    n, blue, red = state
    index = list(range(n))
    for a, b in pairs:
        i, j = index.index(a), index.index(b)
        sigs = signatures(n, blue + red)
        units = {m for m in blue + red if m.bit_count() == 1}
        assert sigs[i] == sigs[j] and not {1 << i, 1 << j} & units, (state, pairs)
        removed = 1 << i | 1 << j
        blue = tuple(sorted({compress(m, removed) for m in blue if not m & removed}))
        red = tuple(sorted({compress(m, removed) for m in red if not m & removed}))
        n -= 2
        index.remove(a)
        index.remove(b)
    return (n, blue, red)


def reference_twin_reduce(state):
    """Twin removal by whole-board signatures: every sweep pairs each class
    of equal signatures in index order, until all signatures differ."""
    while True:
        n, blue, red = state
        sigs = signatures(n, blue + red)
        units = {m.bit_length() - 1 for m in blue + red if m.bit_count() == 1}
        first = {}
        removed = 0
        for i, sig in enumerate(sigs):
            if i in units:
                continue
            if sig in first:
                removed |= 1 << first.pop(sig) | 1 << i
            else:
                first[sig] = i
        if not removed:
            return state
        state = (n - removed.bit_count(),
                 tuple(sorted({compress(m, removed) for m in blue if not m & removed})),
                 tuple(sorted({compress(m, removed) for m in red if not m & removed})))


def antichain_states():
    """Every board of at most 4 vertices whose edges have size <= 3 and
    hold no other edge of their colour."""
    for n in range(5):
        pool = [sum(1 << v for v in c) for r in (1, 2, 3)
                for c in itertools.combinations(range(n), r)]
        families = [tuple(sorted(c)) for k in range(len(pool) + 1)
                    for c in itertools.combinations(pool, k)
                    if not any(a != b and a & b == a for a in c for b in c)]
        for blue in families:
            for red in families:
                yield (n, blue, red)


def branching_picks(states):
    """Each state from either view where the mover holds no unit, so the
    search tries picks there, with every pick and the pair reads it is
    read from: the full reads, and the forced-block reads when the
    opponent holds one unit."""
    for n, blue, red in states:
        for view in ((n, blue, red), (n, red, blue)):
            if unit_mask(view[1]):
                continue
            _, reads = expand(view, False)
            for i in range(n):
                yield view, i, reads
            units = unit_mask(view[2])
            if units and not units & (units - 1):
                block = units.bit_length() - 1
                yield view, block, expand(view, False, block)[1]


def in_child(j, i):
    """Vertex ``j`` of a state as numbered in its child after pick ``i``."""
    return j - (j > i)


def test_parent_side_reads_match_the_built_child():
    # The reads the searches take from the parent, checked on the child they
    # stand for: the double-threat verdict and the forced block equal what
    # Solver._settle finds on the child, and the fused two-pick step equals
    # two child steps.  On the same children, read as Right's view,
    # canonical_right_reply picks by each priority of its definition.
    settler = Solver(SolverConfig(use_leaf_oracle=False, use_potentials=False))
    seen = {"threat": 0, "reply": 0, "red unit": 0, "blue block": 0,
            "centre": 0, "double": 0, "fallback": 0}
    states = itertools.chain(antichain_states(), random_states(47, 4000))
    for state, i, reads in branching_picks(states):
        after = child(state, i)
        threat, reply = opponent_reply(reads, i)
        for want_win in (True, False):
            settler.last_stats.threat_cutoffs = 0
            value, block = settler._settle(after, want_win)
            assert settler.last_stats.threat_cutoffs == threat, (state, i)
            if threat:
                assert value is True
            elif reply >= 0:
                assert reply != i and (value, block) == (None, in_child(reply, i)), (state, i)
        if reply >= 0:
            assert grandchild(state, i, reply) == child(after, in_child(reply, i))
        seen["threat"] += threat
        seen["reply"] += reply >= 0 and not threat
        if after[0]:
            kind, pick, doubled = reply_kind(after)
            assert canonical_right_reply(after) == (pick, doubled), (state, i)
            seen[kind] += 1
            seen["double"] += doubled
    assert all(seen.values()), seen


def reply_kind(after):
    """Which priority of the canonical Right strategy picks in Right's
    view ``after``, its pick, and whether that pick is a centre with no
    unit of either colour left, by the strategy's definition."""
    _, red, blue = after
    red_units = [m for m in red if m.bit_count() == 1]
    if red_units:
        return "red unit", min(red_units).bit_length() - 1, False
    blue_units = {m for m in blue if m.bit_count() == 1}
    if len(blue_units) == 1:
        return "blue block", blue_units.pop().bit_length() - 1, False
    pairs = [m for m in red if m.bit_count() == 2]
    centres = [a & b for a, b in itertools.combinations(pairs, 2) if a & b]
    if centres:
        return "centre", min(centres).bit_length() - 1, not blue_units
    return "fallback", 0, False


def test_grandchild_matches_two_child_steps():
    nones = 0
    states = itertools.chain(exhaustive_states(), random_states(53, 1000, 10))
    for n, blue, red in set(states):
        for view in ((n, blue, red), (n, red, blue)):
            for i, j in itertools.permutations(range(n), 2):
                after = child(view, i)
                want = None if after is None else child(after, in_child(j, i))
                assert grandchild(view, i, j) == want, (view, i, j)
                nones += want is None
    assert nones


def test_compress_drops_positions_in_order():
    rng = random.Random(9)
    for _ in range(2000):
        mask, removed = rng.getrandbits(24), rng.getrandbits(24)
        kept = [i for i in range(24) if not removed >> i & 1]
        want = sum(1 << k for k, i in enumerate(kept) if mask >> i & 1)
        assert compress(mask, removed) == want


def brute_pairing(masks):
    """Whether each edge can take a pair of its own, disjoint from the
    others', by trying every pair of each edge in turn."""
    def fill(k, used):
        if k == len(masks):
            return True
        return any(fill(k + 1, used | 1 << a | 1 << b)
                   for a, b in itertools.combinations(bits(masks[k]), 2)
                   if not (used >> a | used >> b) & 1)
    return fill(0, 0)


def assert_pairs(masks, pairs):
    # One pair inside each edge, no two sharing a vertex.
    assert len(pairs) == len(masks)
    used = 0
    for pair, m in zip(pairs, masks):
        assert pair.bit_count() == 2 and pair & ~m == 0 and not pair & used
        used |= pair


def test_pairing_agrees_with_brute_force():
    # Every antichain of nonempty edges over at most five vertices, in both
    # edge orders, then seeded random families on more vertices, where an
    # edge's slots are filled by augmenting paths more often.
    found = missing = 0
    families = []
    for n in range(6):
        pool = [c for r in range(1, n + 1) for c in itertools.combinations(range(n), r)]
        for family in antichains(pool):
            masks = [sum(1 << i for i in e) for e in family]
            families += [masks, masks[::-1]]
    rng = random.Random(17)
    for _ in range(3000):
        n = rng.randint(6, 9)
        families.append(list({rng.getrandbits(n) | 1 << rng.randrange(n)
                              for _ in range(rng.randint(2, 4))}))
    for masks in families:
        got = pairing(masks)
        assert (got is not None) == brute_pairing(masks), masks
        if got is None:
            missing += 1
        else:
            found += 1
            assert_pairs(masks, got)
    assert found > 1000 and missing > 1000


def test_pairing_follows_a_long_augmenting_path():
    # Edge i holds vertices 2i+1..2i+3 and each takes its lowest two; the
    # last edge, {0, 1, 2}, then fills its second slot by a path through
    # every edge to vertex 2E-1.  A recursive search would go E frames deep,
    # past the default recursion limit.
    count = 2000
    masks = [0b111 << (2 * i + 1) for i in range(count - 1)] + [0b111]
    got = pairing(masks)
    assert got == tuple(0b11 << (2 * i + 2) for i in range(count - 1)) + (0b11,)
    assert_pairs(masks, got)
    # One edge more on the chain's 2E vertices, {0, 1}, leaves them too
    # few, and is refused after the whole chain is searched; the far edge
    # brings four vertices of its own, so the count over all edges passes.
    assert pairing(masks + [0b1111 << (2 * count), 0b11]) is None


def permuted(mask, p):
    return sum(1 << p[v] for v in bits(mask))


def is_automorphism(state, p):
    """Whether the permutation ``p`` maps each side's edges onto themselves."""
    n, own, other = state
    return sorted(p) == list(range(n)) and all(
        {permuted(m, p) for m in side} == set(side) for side in (own, other))


def automorphisms(state):
    """Every automorphism of the state, by trying every permutation."""
    return {p for p in itertools.permutations(range(state[0])) if is_automorphism(state, p)}


def symmetry_states():
    """Small seeded random states, mostly rigid, and states with a planted
    automorphism, with their automorphisms."""
    rng = random.Random(29)
    states = list(random_states(31, 300, max_vertices=6))
    states += [closed_state(rng, rng.randint(2, 6), (1, 2, 3), (1, 2, 3))[0] for _ in range(300)]
    return [(state, automorphisms(state)) for state in states]


def find(state, earlier, j):
    """The map a fresh finder gives for one pick."""
    return MapFinder(state).find(earlier, j)


def test_automorphism_agrees_with_brute_force():
    # Every map returned is an automorphism sending i to j; a pair that no
    # automorphism joins (every pair of a rigid state) gets None, and on
    # these small states a pair that one joins is always found.
    rigid = found = 0
    for state, autos in symmetry_states():
        n = state[0]
        joined = {(i, p[i]) for p in autos for i in range(n)}
        rigid += len(autos) == 1
        for i in range(n):
            for j in range(n):
                if i != j:
                    got = find(state, [i], j)
                    assert (got is not None) == ((i, j) in joined), (state, i, j)
                    if got is not None:
                        assert got[i] == j and got in autos, (state, i, j)
                        found += 1
    assert rigid > 100 and found > 1000


def test_one_finder_answers_every_pick_as_a_fresh_one():
    # A node asks its one finder pick after pick, in search order, each
    # pick against the picks before it; the colourings it keeps from
    # earlier questions must not change a later answer.  Then every pair
    # again, in a shuffled order, of the same finder.
    rng = random.Random(43)
    asked = 0
    for state, _ in symmetry_states():
        n = state[0]
        finder = MapFinder(state)
        moves = rng.sample(range(n), n)
        for k, j in enumerate(moves):
            assert finder.find(moves[:k], j) == find(state, moves[:k], j), (state, moves, k)
            asked += 1
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        rng.shuffle(pairs)
        for i, j in pairs:
            assert finder.find([i], j) == find(state, [i], j), (state, i, j)
    assert asked > 2000


def test_automorphism_tries_the_first_earlier_vertex_of_its_colour():
    # A vertex of another degree goes before one the planted automorphism
    # sends to j: no automorphism joins vertices of different degrees, so
    # the first is passed over for the second.
    rng = random.Random(37)
    tried = 0
    while tried < 200:
        state, p = closed_state(rng, rng.randint(3, 9), (1, 2, 3), (1, 2, 3))
        n, own, other = state
        degree = [sum(m >> v & 1 for m in own + other) for v in range(n)]
        for i in range(n):
            j = p[i]
            far = [x for x in range(n) if degree[x] != degree[j]]
            if i != j and far:
                got = find(state, [far[0], i], j)
                assert got is not None and got[i] == j and is_automorphism(state, got)
                tried += 1


def shortcut(state, i, j):
    """The shortcut's map for i and j: the two individualised colourings
    paired class by class in index order, before any check."""
    finder = MapFinder(state)
    first = kernel._pair_in_order(finder._individualised(i), finder._individualised(j))
    return None if first is None else tuple(first)


def test_automorphism_is_vouched_for_by_its_final_check(monkeypatch):
    # With a refinement that sees only degrees, the colours pair vertices
    # that no automorphism joins, and only the final edge-set check can
    # refuse the map, the shortcut's as well as the chain's.
    monkeypatch.setattr(kernel, "_refine", lambda n, edges, incident, colour: [
        hash((c, len(incident[v]))) for v, c in enumerate(colour)])
    refused = proposed = 0
    for state, autos in symmetry_states():
        n = state[0]
        for i in range(n):
            for j in range(n):
                if i != j:
                    got = find(state, [i], j)
                    if got is None:
                        refused += 1
                    else:
                        assert got[i] == j and got in autos, (state, i, j)
                    first = shortcut(state, i, j)
                    if first is not None and first not in autos:
                        proposed += 1
                        assert got != first, (state, i, j)
    assert refused > 1000 and proposed > 1000


def test_the_shortcut_map_passes_the_final_check():
    # With the real refinement: the final check accepts the shortcut's map
    # exactly when it is an automorphism sending i onto j, and the finder
    # then answers with it.  The shortcut answers most pairs that one joins.
    taken = 0
    for state, autos in symmetry_states():
        n = state[0]
        finder = MapFinder(state)
        for i in range(n):
            for j in range(n):
                first = shortcut(state, i, j) if i != j else None
                if first is not None:
                    good = first[i] == j and first in autos
                    assert finder._keeps(first, i, j) == good, (state, i, j)
                    if good:
                        assert find(state, [i], j) == first, (state, i, j)
                        taken += 1
    assert taken > 1000


def test_automorphism_checks_the_pair_it_was_asked_about(monkeypatch):
    # A refinement that splits every colour at once, whatever the edges
    # say, hands the final check the identity: it fixes both edge sets but
    # sends 0 onto 0, not onto the 2 asked for, which no automorphism does.
    monkeypatch.setattr(kernel, "_refine", lambda n, edges, incident, colour:
                        colour if len(set(colour)) == 1 else list(range(n)))
    state = (3, (0b011,), (0b110,))
    assert automorphisms(state) == {(0, 1, 2)}
    assert find(state, [0], 2) is None


def test_phi3_node_counts_are_pinned():
    # Exact search size without the cutoffs that end nodes early (forced
    # blocks and the forced replies that ride on them stay on): any change
    # to the candidate set, their order or the canonical states moves these
    # counts.  The default configuration's counts are pinned beside them.
    for config, draw_nodes, win_nodes in ((SEARCH_ONLY, 9545, 9690),
                                          (SolverConfig(), 13, 76)):
        s = Solver(config)
        assert s.solve(sat_draw_game(PHI3).game, Player.LEFT) is GameResult.DRAW
        assert s.last_stats.nodes_expanded == draw_nodes
        s = Solver(config)
        assert s.solve(sat_win_game(PHI3).game, Player.LEFT) is GameResult.LEFT_WIN
        assert s.last_stats.nodes_expanded == win_nodes
