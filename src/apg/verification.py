"""Seeded verification batteries shared by the CLI and the acceptance suite.

Each battery returns a BatteryReport; a battery passes when it recorded no
failures.  All randomness is derived from the given seed, so identical seeds
reproduce identical reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import (
    Game,
    GameResult,
    Outcome,
    Player,
    Position,
    disjoint_union,
    leq_left,
    new_game,
    new_hypergraph,
    outcome_from_results,
    update,
)
from .errors import IllegalOutcomeError
from .gadgets import (
    random_game,
    random_paired_game,
    random_symmetric_game,
    rng_for,
    win_in_k,
)
from .ops import (
    antichain,
    check_pairing,
    find_pairing,
    greedy_move,
    maker_breaker_game,
    minimal_transversals,
    twin_reduce,
)
from .poly22 import solve22_outcome_masks
from .reductions import (
    CanonicalRightResult,
    CnfFormula,
    QbfFormula,
    QbfWinner,
    check_forced_script,
    maker_maker_embedding,
    qbf_brute,
    qbf_game,
    sat_brute,
    sat_draw_game,
    sat_win_game,
    solve_against_canonical_right,
)
from .solver import SEARCH_ONLY, Solver, SolverConfig, union_outcome_allowed

L, R = Player.LEFT, Player.RIGHT
LW, DR, RW = GameResult.LEFT_WIN, GameResult.DRAW, GameResult.RIGHT_WIN


MAX_FAILURE_MESSAGES = 20


@dataclass
class BatteryReport:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    info: dict[str, object] = field(default_factory=dict)
    # Every failure counts here; ``failures`` keeps MAX_FAILURE_MESSAGES.
    failed: int = field(default=0, init=False)

    @property
    def ok(self) -> bool:
        return not self.failed

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(message)
        else:
            self.failures[-1] = "... more failures suppressed"

    def lines(self) -> list[str]:
        out = [f"battery: {self.name}",
               f"checked: {self.checked}",
               f"failures: {self.failed}"]
        for key, value in self.info.items():
            out.append(f"{key}: {value}")
        out += [f"failure_detail: {f}" for f in self.failures]
        return out


# ---------------------------------------------------------------------------
# Exhaustive size-<=2 enumeration helpers

def _edge_masks_22(n: int) -> list[int]:
    singles = [1 << i for i in range(n)]
    pairs = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    return singles + pairs


def _edge_sets_22(n: int) -> list[tuple[int, ...]]:
    """Every set of edges of size <= 2 on ``n`` vertices, each sorted."""
    masks = _edge_masks_22(n)
    return [tuple(sorted(masks[i] for i in range(len(masks)) if bits >> i & 1))
            for bits in range(1 << len(masks))]


def iter_22_states(n: int) -> Iterable[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Every game on exactly ``n`` vertices whose edges all have size <= 2."""
    sets = _edge_sets_22(n)
    for blue in sets:
        for red in sets:
            yield (n, blue, red)


# The exhaustive size-<=2 pass covers every board on at most this many
# vertices: about a million of them.
EXHAUSTIVE_22_MAX_VERTICES = 4


def _exhaustive_22_outcomes(max_vertices: int):
    """Every state of ``iter_22_states`` up to ``max_vertices`` vertices, in
    another order, with its values (Left first, Right first) from the search
    alone.  A fresh solver for each blue edge set bounds the memo (one solver
    for the whole 4-vertex pass holds over a million entries); it also takes
    each board's colour-swapped mirror, whose Left-first root is the board's
    Right-first root, so the two share their memo entries."""
    for n in range(max_vertices + 1):
        sets = _edge_sets_22(n)
        for i, blue in enumerate(sets):
            solver = Solver(SEARCH_ONLY)
            for red in sets[i:]:
                yield (n, blue, red), solver.outcome_state((n, blue, red))
                if red != blue:
                    yield (n, red, blue), solver.outcome_state((n, red, blue))


def random_22_state(rng, max_vertices: int, exact: Optional[int] = None):
    n = exact if exact is not None else rng.randint(2, max_vertices)
    masks = _edge_masks_22(n)

    def side():
        count = rng.randint(0, min(len(masks), max(3, n)))
        return tuple(sorted(set(rng.sample(masks, count))))

    return (n, side(), side())


# ---------------------------------------------------------------------------
# Outcome legality

LEGALITY_RANDOM_TRIALS = 5000


def outcome_legality(seed: int = 0) -> BatteryReport:
    """No game may produce one of the three impossible outcome rows."""
    report = BatteryReport("outcome-legality")
    for state, pair in _exhaustive_22_outcomes(EXHAUSTIVE_22_MAX_VERTICES):
        report.checked += 1
        try:
            outcome_from_results(*pair)
        except IllegalOutcomeError as exc:
            report.fail(f"{exc} for {state}")
    rng = rng_for(seed, "outcome-legality")
    big = Solver()
    for _ in range(LEGALITY_RANDOM_TRIALS):
        game = random_game(rng, max_vertices=7, max_edge_size=3)
        report.checked += 1
        try:
            big.outcome(game)
        except IllegalOutcomeError as exc:
            report.fail(f"{exc} for {game!r}")
    report.info["exhaustive_max_vertices"] = EXHAUSTIVE_22_MAX_VERTICES
    report.info["random_trials"] = LEGALITY_RANDOM_TRIALS
    report.info["seed"] = seed
    return report


# ---------------------------------------------------------------------------
# Size-2 procedure vs the exact solver

def poly22_agreement(seed: int = 0,
                     random_trials: int = 10000,
                     exhaustive_max_vertices: int = EXHAUSTIVE_22_MAX_VERTICES,
                     five_vertex_trials: int = 25000) -> BatteryReport:
    """solve22 must equal the exact solver for both first players.

    Exhaustive through 4 vertices; the 5-vertex layer (2^30 games) is covered
    by a dense seeded sample instead, plus random games up to 14 vertices.
    """
    def sampled():
        rng = rng_for(seed, "poly22-random")
        big = Solver(SEARCH_ONLY)
        for trials, exact in ((five_vertex_trials, 5), (random_trials, None)):
            for _ in range(trials):
                state = random_22_state(rng, max_vertices=14, exact=exact)
                yield state, big.outcome_state(state)

    report = BatteryReport("poly22-agreement")
    for state, pair in itertools.chain(
            _exhaustive_22_outcomes(exhaustive_max_vertices), sampled()):
        report.checked += 1
        for player, want, got in zip((L, R), pair, solve22_outcome_masks(*state)):
            if got != want:
                report.fail(f"{state} first={player}: poly {got} vs solver {want}")
    report.info["seed"] = seed
    report.info["exhaustive_max_vertices"] = exhaustive_max_vertices
    report.info["five_vertex_trials"] = five_vertex_trials
    report.info["random_trials"] = random_trials
    return report


# ---------------------------------------------------------------------------
# Structural laws (each checked on seeded random games)

def law_extra_vertex(seed: int = 0, trials: int = 1000) -> BatteryReport:
    """A free extra vertex for Left never hurts him, moving first or second."""
    report = BatteryReport("law-extra-vertex")
    rng = rng_for(seed, "extra-vertex")
    s = Solver()
    for _ in range(trials):
        g = random_game(rng, max_vertices=6, max_edge_size=3)
        base_first = s.solve(g, L)
        base_second = s.solve(g, R)
        for u in g.vertices:
            if frozenset({u}) in g.blue_edges:
                continue
            report.checked += 1
            gu = update(g, [u], [])
            got_first = s.solve(gu, L)
            got_second = s.solve(gu, R)
            if base_first is LW and got_first is not LW:
                report.fail(f"first-player win lost at {u} in {g!r}")
            if base_first is not RW and got_first is RW:
                report.fail(f"first-player non-loss lost at {u} in {g!r}")
            if base_second is LW and got_second is not LW:
                report.fail(f"second-player win lost at {u} in {g!r}")
            if base_second is not RW and got_second is RW:
                report.fail(f"second-player non-loss lost at {u} in {g!r}")
    report.info["seed"] = seed
    return report


def law_strategy_stealing(seed: int = 0, trials: int = 1000) -> BatteryReport:
    """With identical blue and red edge sets, Left never loses moving first."""
    report = BatteryReport("law-strategy-stealing")
    rng = rng_for(seed, "stealing")
    s = Solver()
    for _ in range(trials):
        g = random_symmetric_game(rng)
        report.checked += 1
        if s.solve(g, L) is RW:
            report.fail(f"symmetric game lost: {g!r}")
    report.info["seed"] = seed
    return report


def law_edge_monotonicity(seed: int = 0, trials: int = 1000) -> BatteryReport:
    """Adding a blue edge, dropping a red edge, or shrinking a blue edge can
    only improve the outcome for Left."""
    report = BatteryReport("law-edge-monotonicity")
    rng = rng_for(seed, "monotonicity")
    s = Solver()
    for _ in range(trials):
        g = random_game(rng, max_vertices=6, max_edge_size=3)
        base = s.outcome(g)
        verts = list(g.vertices)
        if not verts:
            continue
        # canonical edge order: which edge the rng mutates must not depend on
        # set iteration order, or runs diverge across processes
        blue = sorted(sorted(e) for e in g.blue_edges)
        red = sorted(sorted(e) for e in g.red_edges)
        variants = []
        extra = rng.sample(verts, rng.randint(1, min(3, len(verts))))
        variants.append(("add-blue", new_game(verts, blue + [extra], red)))
        if red:
            drop = rng.randrange(len(red))
            variants.append(("drop-red",
                             new_game(verts, blue, red[:drop] + red[drop + 1:])))
        shrinkable = [i for i, e in enumerate(blue) if len(e) >= 2]
        if shrinkable:
            i = rng.choice(shrinkable)
            smaller = blue[i][:]
            smaller.remove(rng.choice(smaller))
            variants.append(("shrink-blue",
                             new_game(verts, blue[:i] + [smaller] + blue[i + 1:], red)))
        for tag, variant in variants:
            report.checked += 1
            if not leq_left(base, s.outcome(variant)):
                report.fail(f"{tag} hurt Left: {g!r}")
    report.info["seed"] = seed
    return report


def law_pairing_blocks(seed: int = 0, trials: int = 1000) -> BatteryReport:
    """A complete pairing of the blue edges keeps Left from ever winning: the
    generator's pairing, and the one ``find_pairing`` finds, which must pass
    ``check_pairing``.  The values come from the search with the pairing
    rule off, so the rule does not answer for the law it rests on."""
    report = BatteryReport("law-pairing")
    rng = rng_for(seed, "pairing")
    s = Solver(SolverConfig(use_pairing=False))
    certified = 0
    for _ in range(trials):
        g, pairing = random_paired_game(rng, pairs=rng.randint(1, 3),
                                        extra_vertices=rng.randint(0, 2))
        if not check_pairing(g, pairing, R):
            report.fail(f"generator produced a non-covering pairing for {g!r}")
            continue
        report.checked += 1
        found = find_pairing(g, R)
        if found is not None:
            certified += 1
            if not check_pairing(g, found, R):
                report.fail(f"find_pairing returned a non-covering pairing for {g!r}")
        if s.outcome(g) not in (Outcome.D, Outcome.R_MINUS, Outcome.R):
            report.fail(f"Left won a paired game: {g!r}")
    report.info["seed"] = seed
    report.info["certified"] = certified
    return report


def _eligible_domination_pairs(g: Game) -> list[tuple[str, str]]:
    units = {next(iter(e)) for e in (g.blue_edges | g.red_edges) if len(e) == 1}
    members: dict[str, set[frozenset[str]]] = {v: set() for v in g.vertices}
    for e in g.blue_edges | g.red_edges:
        for v in e:
            members[v].add(e)
    out = []
    for u in g.vertices:
        for v in g.vertices:
            if u == v or u in units or v in units:
                continue
            if all(v in e for e in members[u]):
                out.append((u, v))
    return out


def law_dominating_option(seed: int = 0, trials: int = 1000) -> BatteryReport:
    """If every edge through u also holds v, then picking v dominates picking
    u for either player, and trading u for v never helps Left."""
    report = BatteryReport("law-dominating-option")
    rng = rng_for(seed, "domination")
    s = Solver()
    attempts = 0
    while report.checked < trials and attempts < trials * 20:
        attempts += 1
        g = random_game(rng, max_vertices=5, max_edge_size=3)
        base = None
        for u, v in _eligible_domination_pairs(g):
            report.checked += 1
            if base is None:
                base = s.outcome(g)
            o_u = s.outcome(update(g, [u], []))
            o_v = s.outcome(update(g, [v], []))
            if not leq_left(o_u, o_v):
                report.fail(f"Left option order broken at ({u},{v}) in {g!r}")
            o_ru = s.outcome(update(g, [], [u]))
            o_rv = s.outcome(update(g, [], [v]))
            if not leq_left(o_rv, o_ru):
                report.fail(f"Right option order broken at ({u},{v}) in {g!r}")
            o_uv = s.outcome(update(g, [u], [v]))
            o_vu = s.outcome(update(g, [v], [u]))
            if not (leq_left(o_uv, base) and leq_left(base, o_vu)):
                report.fail(f"exchange order broken at ({u},{v}) in {g!r}")
    report.info["seed"] = seed
    return report


def law_twin_removal(seed: int = 0, trials: int = 1000) -> BatteryReport:
    """Removing a twin pair preserves the outcome exactly, step by step."""
    report = BatteryReport("law-twin-removal")
    rng = rng_for(seed, "twins")
    s = Solver()
    for _ in range(trials):
        g = random_game(rng, max_vertices=7, max_edge_size=3)
        reduced, log = twin_reduce(g)
        report.checked += 1
        current = g
        base = s.outcome(g)
        for u, v in log:
            current = update(current, [u], [v])
            if s.outcome(current) != base:
                report.fail(f"outcome changed removing ({u},{v}) from {g!r}")
                break
        if current != reduced:
            report.fail(f"log does not replay to the fixpoint for {g!r}")
    report.info["seed"] = seed
    return report


def law_greedy_move(seed: int = 0, trials: int = 1000) -> BatteryReport:
    """The forcing opener returned by greedy_move achieves the game value."""
    report = BatteryReport("law-greedy-move")
    rng = rng_for(seed, "greedy")
    s = Solver()
    found = 0
    attempts = 0
    while found < trials and attempts < trials * 20:
        attempts += 1
        g = random_game(rng, max_vertices=6, max_edge_size=3)
        if any(len(e) == 1 for e in g.blue_edges | g.red_edges):
            continue
        player = rng.choice((L, R))
        move = greedy_move(g, player)
        if move is None:
            # plant a pendant pair so the rule has something to find
            verts = list(g.vertices) + ["p1", "p2"]
            blue = [sorted(e) for e in g.blue_edges]
            red = [sorted(e) for e in g.red_edges]
            (blue if player is L else red).append(["p1", "p2"])
            g = new_game(verts, blue, red)
            move = greedy_move(g, player)
            if move is None:
                continue
        found += 1
        report.checked += 1
        pick, _forced = move
        value = s.solve(g, player)
        achieved = s.move_value(Position.start(g, player), pick)
        if achieved != value:
            report.fail(f"greedy pick {pick} gets {achieved}, best is {value}: {g!r}")
    report.info["seed"] = seed
    return report


def law_batteries(seed: int = 0, trials: int = 1000) -> list[BatteryReport]:
    return [
        law_extra_vertex(seed, trials),
        law_strategy_stealing(seed, trials),
        law_edge_monotonicity(seed, trials),
        law_pairing_blocks(seed, trials),
        law_dominating_option(seed, trials),
        law_twin_removal(seed, trials),
        law_greedy_move(seed, trials),
    ]


# ---------------------------------------------------------------------------
# Disjoint unions

def union_table_battery(seed: int = 0,
                        pairs: int = 2000,
                        forced_draw_pairs: int = 300) -> BatteryReport:
    """Union outcomes always land in the allowed cell; a draw component is an
    identity element."""
    report = BatteryReport("union-table")
    rng = rng_for(seed, "union-table")
    s = Solver()
    draw_pool: list[Game] = []

    def one_pair(g: Game, g2: Game) -> None:
        o, o2 = s.outcome(g), s.outcome(g2)
        u, _ = disjoint_union(g, g2)
        ou = s.outcome(u)
        report.checked += 1
        if not union_outcome_allowed(o, o2, ou):
            report.fail(f"union outcome {ou} outside cell ({o},{o2})")
        if o is Outcome.D and ou != o2:
            report.fail(f"draw component not neutral: {ou} != {o2}")
        if o2 is Outcome.D and ou != o:
            report.fail(f"draw component not neutral: {ou} != {o}")

    for _ in range(pairs):
        g = random_game(rng, max_vertices=7, max_edge_size=3)
        g2 = random_game(rng, max_vertices=7, max_edge_size=3, prefix="w")
        if s.outcome(g) is Outcome.D and len(draw_pool) < 200:
            draw_pool.append(g)
        one_pair(g, g2)
    made = 0
    while made < forced_draw_pairs:
        if draw_pool:
            g = draw_pool[made % len(draw_pool)]
        else:
            g = new_game(["d0"], [], [])
        g2 = random_game(rng, max_vertices=7, max_edge_size=3, prefix="w")
        one_pair(g, g2)
        made += 1
    report.info["seed"] = seed
    report.info["pairs"] = pairs
    report.info["forced_draw_pairs"] = forced_draw_pairs
    return report


DELAY_UNION_PAIRS = 500


def delay_battery(seed: int = 0) -> BatteryReport:
    """Pass-counting delays of the hub family, and the union law: the side
    with the smaller delay wins the disjoint union moving first."""
    report = BatteryReport("delay")
    s = Solver()
    for k in range(1, 6):
        report.checked += 1
        got = s.delay(win_in_k(k, L), L)
        if got != k - 1:
            report.fail(f"hub family k={k}: delay {got} != {k - 1}")
    rng = rng_for(seed, "delay-union")
    made = 0
    attempts = 0
    while made < DELAY_UNION_PAIRS and attempts < DELAY_UNION_PAIRS * 60:
        attempts += 1
        g = random_game(rng, max_vertices=6, max_edge_size=3)
        if s.solve(g, L) is not LW:
            continue
        g2 = random_game(rng, max_vertices=6, max_edge_size=3, prefix="w")
        if s.solve(g2, R) is not RW:
            continue
        made += 1
        report.checked += 1
        d = s.delay(g, L)
        d2 = s.delay(g2, R)
        if d == math.inf or d2 == math.inf:
            report.fail(f"winning game with infinite delay: {g!r} / {g2!r}")
            continue
        u, _ = disjoint_union(g, g2)
        if d <= d2 and s.solve(u, L) is not LW:
            report.fail(f"d={d} <= d'={d2} but Left does not win first: {g!r}|{g2!r}")
        if d2 <= d and s.solve(u, R) is not RW:
            report.fail(f"d'={d2} <= d={d} but Right does not win first: {g!r}|{g2!r}")
    if made < DELAY_UNION_PAIRS:
        report.fail(f"generator produced only {made}/{DELAY_UNION_PAIRS} pairs")
    report.info["seed"] = seed
    report.info["pairs"] = made
    return report


# ---------------------------------------------------------------------------
# Reductions

def _formulas(variables: int, two_clause: bool = True) -> list[tuple]:
    """Every formula of one sorted 3-literal clause over ``variables``
    variables, then, with ``two_clause``, every sorted pair of them."""
    lits = [s * v for v in range(1, variables + 1) for s in (1, -1)]
    clauses = sorted({tuple(sorted(c)) for c in itertools.product(lits, repeat=3)})
    formulas = [(c,) for c in clauses]
    if two_clause:
        formulas += [(a, b) for i, a in enumerate(clauses) for b in clauses[i:]]
    return formulas


def _all_sign_clauses() -> tuple:
    return tuple((a, b, c) for a in (1, -1) for b in (2, -2) for c in (3, -3))


def sat_draw_battery(full_two_clause: bool = True) -> BatteryReport:
    """Satisfiability must match Left's survival of the draw gadget.

    Every 1- and 2-clause 3-CNF over three variables is checked against the
    canonical-Right refutation and the full solver (these small formulas
    are all satisfiable, so the solver value is exactly a draw); the
    all-sign unsatisfiable formula is checked by the refutation.  The
    refutation answers the game value "can Left avoid losing moving
    first?", which equals surviving the canonical strategy because that
    strategy wins whenever Right can; the tests check that lemma against
    a brute-force play of the strategy.
    """
    report = BatteryReport("sat-draw-gadget")
    s = Solver()
    formulas = _formulas(3, full_two_clause)
    for cl in formulas:
        phi = CnfFormula(3, cl)
        game = sat_draw_game(phi).game
        report.checked += 1
        want = sat_brute(phi)
        got = solve_against_canonical_right(game)
        if (got is CanonicalRightResult.LEFT_NON_LOSING) != want:
            report.fail(f"exploration mismatch on {cl}")
        value = s.solve(game, L)
        if want and value is not DR:
            report.fail(f"satisfiable {cl} solved to {value}, not a draw")
        if not want and value is not RW:
            report.fail(f"unsatisfiable {cl} not lost: {value}")
    unsat = CnfFormula(3, _all_sign_clauses())
    report.checked += 1
    if sat_brute(unsat):
        report.fail("the all-sign formula should be unsatisfiable")
    if solve_against_canonical_right(sat_draw_game(unsat).game) \
            is not CanonicalRightResult.RIGHT_WINS:
        report.fail("exploration missed the loss on the all-sign formula")
    report.info["formulas"] = len(formulas) + 1
    return report


def sat_win_battery(full_two_clause: bool = True) -> BatteryReport:
    """Satisfiability must match a first-player Left win of the win gadget."""
    report = BatteryReport("sat-win-gadget")
    s = Solver()
    formulas = _formulas(3, full_two_clause)
    for cl in formulas:
        phi = CnfFormula(3, cl)
        game = sat_win_game(phi).game
        report.checked += 1
        want = sat_brute(phi)
        got = s.solve(game, L)
        if want != (got is LW):
            report.fail(f"win-gadget mismatch on {cl}: {got}")
    unsat = CnfFormula(3, _all_sign_clauses())
    report.checked += 1
    if solve_against_canonical_right(sat_win_game(unsat).game) \
            is not CanonicalRightResult.RIGHT_WINS:
        report.fail("unsatisfiable formula should hand the win gadget to Right")
    report.info["formulas"] = len(formulas) + 1
    return report


def qbf_battery() -> BatteryReport:
    """Exhaustive 2-variable formulas with up to two clauses: the valuation
    game's winner must match the compiled game, and every choice script must
    replay as forced."""
    report = BatteryReport("qbf-gadget")
    s = Solver()
    skipped_scripts = 0
    for cl in _formulas(2):
        psi = QbfFormula(2, cl)
        out = qbf_game(psi)
        report.checked += 1
        want = qbf_brute(psi) is QbfWinner.FALSIFIER
        got = s.solve(out.game, R) is LW
        if want != got:
            report.fail(f"qbf mismatch on {cl}: falsifier={want}, left-second-win={got}")
        if any(m.bit_count() == 1 for m in out.game.blue):
            # A single-literal clause leaves a one-vertex clause edge: a unit
            # threat standing before the first move, so the opening is not a
            # free choice and the script's premise fails by construction.
            # The solver equivalence above still covers these formulas.
            skipped_scripts += 1
            continue
        for choices in ("tt", "tf", "ft", "ff"):
            try:
                check_forced_script(out, choices)
            except Exception as exc:  # ScriptViolationError and kin
                report.fail(f"script {choices} failed on {cl}: {exc}")
    report.info["formulas"] = report.checked
    report.info["script_skipped_degenerate"] = skipped_scripts
    return report


MM_EMBEDDING_TRIALS = 200


def mm_embedding_battery(seed: int = 0) -> BatteryReport:
    """Embedding a game into a symmetric rank-4 board and replaying the two
    anchor picks must reproduce the game and its value."""
    report = BatteryReport("mm-embedding")
    rng = rng_for(seed, "mm-embedding")
    s = Solver()
    for _ in range(MM_EMBEDDING_TRIALS):
        g = random_game(rng, max_vertices=6, max_edge_size=3)
        h, ul, ur = maker_maker_embedding(g)
        mm = Game(h.vertices, h.edges, h.edges)
        reduced = update(mm, [ul], [ur])
        report.checked += 1
        if reduced != g:
            report.fail(f"anchor round did not reproduce {g!r}")
            continue
        if s.solve(reduced, L) != s.solve(g, L):
            report.fail(f"embedded value differs for {g!r}")
    report.info["seed"] = seed
    return report


TRANSVERSAL_MAX_VERTICES = 4


def transversal_battery() -> BatteryReport:
    """Over every hypergraph with at least one edge: the two Maker-Breaker
    embeddings agree (wins match; blocked boards are draws in one and Right
    wins in the other) and the transversal map is an involution."""
    report = BatteryReport("transversal-embedding")
    solver = Solver()
    for n in range(1, TRANSVERSAL_MAX_VERTICES + 1):
        verts = [f"v{i}" for i in range(n)]
        pool = [frozenset(c) for r in range(1, n + 1)
                for c in itertools.combinations(verts, r)]
        for bits in range(1, 1 << len(pool)):
            edges = [sorted(pool[i]) for i in range(len(pool)) if bits >> i & 1]
            hyper = new_hypergraph(verts, edges)
            report.checked += 1
            tr_hyper = new_hypergraph(verts, minimal_transversals(hyper))
            if minimal_transversals(tr_hyper) != antichain(hyper):
                report.fail(f"involution failed for {edges}")
            empty = maker_breaker_game(hyper, "empty_red")
            full = maker_breaker_game(hyper, "transversal_red")
            r_empty = solver.solve(empty, L)
            r_full = solver.solve(full, L)
            if (r_empty is LW) != (r_full is LW):
                report.fail(f"maker value differs for {edges}")
            if (r_empty is DR) != (r_full is RW):
                report.fail(f"draw/right-win correspondence broken for {edges}")
            if r_empty is RW:
                report.fail(f"empty-red board cannot be a Right win: {edges}")
            if r_full is DR:
                report.fail(f"transversal board cannot draw: {edges}")
    report.info["max_vertices"] = TRANSVERSAL_MAX_VERTICES
    return report
