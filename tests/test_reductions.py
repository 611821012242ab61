"""Formula parsing, the gadget compilers, their oracles and script checks."""

import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from apg import (
    ApgParseError,
    BadClauseSizeError,
    CanonicalRightResult,
    CnfFormula,
    EdgeTooLargeError,
    GameResult,
    OddVarCountError,
    Player,
    Position,
    QbfFormula,
    QbfWinner,
    ResourceLimitError,
    ScriptViolationError,
    Solver,
    SolverConfig,
    butterfly,
    canonical_right_move,
    disjoint_union,
    check_forced_script,
    maker_maker_embedding,
    new_game,
    parse_dimacs,
    parse_dimacs_qbf,
    qbf_brute,
    qbf_game,
    sat_brute,
    sat_draw_game,
    sat_win_game,
    solve_against_canonical_right,
    update,
)
from apg import solver
from apg.gadgets import random_game, rng_for
from apg.kernel import canonical_right_reply, twin_reduce
from apg.solver import PLAIN, SEARCH_ONLY, TOGGLES
from apg.verification import _formulas

from oracles import antichains, brute_result, survives_canonical_right_brute

L, R = Player.LEFT, Player.RIGHT
LW, DR, RW = GameResult.LEFT_WIN, GameResult.DRAW, GameResult.RIGHT_WIN
NONLOSS = CanonicalRightResult.LEFT_NON_LOSING
RWINS = CanonicalRightResult.RIGHT_WINS


def all_sign_clauses():
    return tuple((a, b, c) for a in (1, -1) for b in (2, -2) for c in (3, -3))


# An unsatisfiable formula with repeated literals, on 3 variables.
U3A = CnfFormula(3, ((1, 2, 2), (1, -2, -2), (-1, 3, 3), (-1, -3, -3)))


# -- formulas and DIMACS ----------------------------------------------------------

def test_formula_validation():
    with pytest.raises(BadClauseSizeError):
        CnfFormula(2, ())
    with pytest.raises(BadClauseSizeError):
        CnfFormula(2, ((1, 2),))
    with pytest.raises(ValueError):
        CnfFormula(2, ((1, 2, 3),))
    with pytest.raises(OddVarCountError):
        QbfFormula(3, ((1, 2, 3),))


def test_parse_dimacs():
    phi = parse_dimacs("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    assert phi.num_vars == 3
    assert phi.clauses == ((1, -2, 3), (-1, 2, -3))


def test_parse_dimacs_multiline_clause():
    phi = parse_dimacs("p cnf 2 1\n1 2\n-1 0\n")
    assert phi.clauses == ((1, 2, -1),)


def test_parse_dimacs_stops_at_the_satlib_end_marker():
    # SATLIB's uniform random 3-SAT files end with "%" and then "0".
    phi = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n%\n0\n\n")
    assert phi.clauses == ((1, -2, 3), (-1, 2, 3))


def test_parse_dimacs_rejects_wrong_size():
    with pytest.raises(ApgParseError):
        parse_dimacs("p cnf 2 1\n1 2 0\n")


def test_parse_dimacs_requires_header():
    with pytest.raises(ApgParseError):
        parse_dimacs("1 2 3 0\n")


def test_parse_dimacs_qbf_even():
    with pytest.raises(OddVarCountError):
        parse_dimacs_qbf("p cnf 3 1\n1 2 3 0\n")


# -- brute oracles -----------------------------------------------------------------

def test_sat_brute():
    assert sat_brute(CnfFormula(3, ((1, 2, 3),)))
    assert not sat_brute(CnfFormula(3, all_sign_clauses()))


def test_qbf_brute():
    assert qbf_brute(QbfFormula(2, ((1, 1, 1),))) is QbfWinner.SATISFIER
    assert qbf_brute(QbfFormula(2, ((1, 1, 1), (-1, -1, -1)))) is QbfWinner.FALSIFIER
    assert qbf_brute(QbfFormula(2, ((2, 2, 2),))) is QbfWinner.FALSIFIER


# -- the draw gadget -----------------------------------------------------------------

def test_draw_gadget_counts():
    out = sat_draw_game(CnfFormula(3, ((1, 2, 3),)))
    g = out.game
    assert g.n == 2 * 3 + 6 + 3 == 15
    assert len(g.blue) == 6
    assert len(g.red) == 5
    assert all(len(e) <= 3 for e in g.blue_edges)
    assert all(len(e) <= 2 for e in g.red_edges)


def test_draw_gadget_two_clause_count():
    phi = CnfFormula(4, ((-1, 2, 3), (-2, 3, 4)))
    assert sat_draw_game(phi).game.n == 2 * 4 + 12 + 3 == 23


def test_draw_gadget_provenance_covers_vertices():
    out = sat_draw_game(CnfFormula(2, ((1, 2, 2),)))
    assert sorted(out.provenance.values()) == sorted(out.game.vertices)


def test_draw_gadget_satisfiable_not_losing():
    g = sat_draw_game(CnfFormula(3, ((1, 2, 3),))).game
    assert Solver().solve(g, L) is not RW
    assert solve_against_canonical_right(g) is NONLOSS


def test_draw_gadget_never_left_win():
    # even satisfiable formulas give Left only a draw moving first
    s = Solver()
    for clause in ((1, 2, 3), (-1, -2, -3), (1, 1, 2)):
        g = sat_draw_game(CnfFormula(3, (clause,))).game
        assert s.solve(g, L) is DR


def test_draw_gadget_unsat_loses():
    # Pinned so that a change to the search's pruning or order shows: the
    # search alone with the double-threat cutoffs, with every cutoff that
    # ends nodes early, and with those but the symmetry rule, which the
    # gadget's sign flips set off.
    g = sat_draw_game(CnfFormula(3, all_sign_clauses())).game
    s = Solver(dataclasses.replace(SEARCH_ONLY, use_double_threats=True))
    assert not s.survives_canonical_right(g)
    assert s.last_stats.nodes_expanded == 68_935
    s = Solver(SolverConfig(use_symmetry=False))
    assert not s.survives_canonical_right(g)
    assert s.last_stats.nodes_expanded == 13_639
    s = Solver()
    assert not s.survives_canonical_right(g)
    stats = s.last_stats
    assert (stats.nodes_expanded, stats.symmetry_cutoffs, stats.symmetry_attempts,
            stats.forced_replies) == (2_490, 13, 16, 2_489)


def test_symmetry_rule_repeats_under_any_hash_seed():
    # The refinement hashes only ints and tuples of ints, whose hashes
    # PYTHONHASHSEED leaves alone, so the all-sign refutation expands the
    # same nodes in every interpreter.
    code = ("from apg import CnfFormula, Solver, sat_draw_game\n"
            "clauses = tuple((a, b, c) for a in (1, -1) for b in (2, -2) for c in (3, -3))\n"
            "s = Solver()\n"
            "s.survives_canonical_right(sat_draw_game(CnfFormula(3, clauses)).game)\n"
            "print(s.last_stats.nodes_expanded, s.last_stats.symmetry_cutoffs)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    counts = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120,
                             env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
              for seed in ("1", "4242")}
    assert counts == {"2490 13\n"}


def test_canonical_right_priorities():
    g = new_game(["a", "b"], [], [["a"], ["a", "b"]])
    pos = Position.from_picks(g, [], [], R)
    assert canonical_right_move(pos) == "a"  # wins in one
    g = new_game(["a", "b"], [["b"]], [["a", "b"]])
    pos = Position.from_picks(g, [], [], R)
    assert canonical_right_move(pos) == "b"  # blocks the only Left win
    g = new_game(["a", "b", "c"], [], [["a", "b"], ["b", "c"]])
    pos = Position.from_picks(g, [], [], R)
    assert canonical_right_move(pos) == "b"  # red path centre
    g = new_game(["a", "b"], [["a", "b"]], [])
    pos = Position.from_picks(g, [], [], R)
    assert canonical_right_move(pos) == "a"  # arbitrary: lowest index


def test_canonical_right_reply_flags_only_an_unanswerable_double_threat():
    # Red pairs ab and bc meet at b.  The reply b wins outright only when
    # neither colour holds a unit: a red unit is filled first, a single blue
    # unit is blocked first, and two blue units let Left fill one next.
    # The state is Right's view, red edges first.
    red = ((1 << 0) | (1 << 1), (1 << 1) | (1 << 2))
    for blue, want in (((), (1, True)), ((0b11000,), (1, True)),
                       ((0b1000,), (3, False)), ((0b1000, 0b10000), (1, False))):
        assert canonical_right_reply((5, red, blue)) == want, blue
    assert canonical_right_reply((5, red + (1 << 4,), ())) == (4, False)


def test_canonical_right_answers_literal_pick():
    out = sat_draw_game(CnfFormula(3, ((1, 2, 3),)))
    pos = Position.start(out.game, L).play("x1")
    assert canonical_right_move(pos) == "nx1"


def test_canonical_right_exploration_trivial_draw():
    g = new_game(["a", "b"], [], [["a", "b"]])
    assert solve_against_canonical_right(g) is NONLOSS


def random_blue3_red2_game(rng, max_vertices=12):
    n = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(n)]

    def edges(sizes):
        return [rng.sample(verts, min(rng.choice(sizes), n))
                for _ in range(rng.randint(0, n))]

    return new_game(verts, edges((2, 3, 3)), edges((1, 2, 2)))


@pytest.mark.parametrize("use_domination", [True, False])
def test_canonical_right_agrees_with_full_search(use_domination):
    # Surviving the canonical Right strategy is the same as not losing with
    # Left first, on every blue<=3 / red<=2 board.  Each board gets a fresh
    # solver, so no search is cut short by an earlier board's memo.  The
    # reference runs without the size-2 leaf oracle, which the canonical
    # search also calls.
    rng = rng_for(41, "canonical-right")
    full = Solver(SEARCH_ONLY)
    right_wins = 0
    for _ in range(1000):
        g = random_blue3_red2_game(rng)
        want = full.solve(g, L) is not RW
        s = Solver(SolverConfig(use_domination=use_domination))
        assert s.survives_canonical_right(g) == want, g
        right_wins += not want
    assert right_wins > 200  # both answers are exercised


# The unsatisfiable formulas of the benchmark's refutations but the all-sign
# one, with the nodes of each gadget's refutation under the default rules:
# (draw, win), or the draw alone.
UNSAT_NODES = [
    (CnfFormula(1, ((1, 1, 1), (-1, -1, -1))), (3, 15)),
    (CnfFormula(2, ((1, 2, 2), (-1, -1, -1), (1, -2, -2))), (49, 141)),
    (CnfFormula(2, ((1, 2, 2), (1, -2, -2), (-1, 2, 2), (-1, -2, -2))), (101, 389)),
    (CnfFormula(2, ((1, 1, 2), (1, 1, -2), (-1, -1, 2), (-1, -1, -2))), (101, 389)),
    (U3A, (561, 1_101)),
    (CnfFormula(2, ((-1, -2, -1), (-1, -2, -2), (-1, -1, 2), (1, 1, 1), (2, 2, -1))), (301,)),
    (CnfFormula(3, ((1, 1, 1), (-1, 2, 2), (-1, -2, 3), (-1, -2, -3))), (679,)),
    (CnfFormula(3, ((1, 2, 3), (-1, -1, -1), (-2, -2, -2), (-3, -3, -3))), (534,)),
    (CnfFormula(3, ((1, 2, 2), (-1, 3, 3), (-2, -2, -2), (-3, -3, -3))), (509,)),
    (CnfFormula(3, ((1, 2, 3), (1, 2, -3), (-1, -1, -1), (-2, -2, -2))), (581,)),
]


def test_canonical_right_pinned_nodes():
    g = sat_draw_game(U3A).game
    s = Solver(dataclasses.replace(SEARCH_ONLY, use_double_threats=True))
    assert not s.survives_canonical_right(g)
    assert s.last_stats.nodes_expanded == 1_101
    s = Solver()
    assert not s.survives_canonical_right(g)
    stats = s.last_stats
    assert (stats.nodes_expanded, stats.leaf_calls, stats.threat_cutoffs,
            stats.forced_replies) == (561, 136, 1_167, 560)
    for phi, nodes in UNSAT_NODES:
        for build, want in zip((sat_draw_game, sat_win_game), nodes):
            s = Solver()
            assert not s.survives_canonical_right(build(phi).game)
            assert s.last_stats.nodes_expanded == want, (phi, build)


def test_canonical_right_shares_the_avoid_memo():
    # A canonical-Right node has the game value "can Left avoid losing
    # moving first?", so after the game-value query on the same solver the
    # survival query is answered by the memo at its root.
    g = sat_draw_game(U3A).game
    s = Solver()
    assert s.solve(g, L) is RW
    assert not s.survives_canonical_right(g)
    assert s.last_stats.nodes_expanded == 1
    assert s.last_stats.memo_hits == 1
    # The other way round, the survival query leaves only "avoid losing"
    # entries: a later "can Left win?" question must not read them.
    g = sat_draw_game(CnfFormula(3, ((1, 2, 3),))).game
    s = Solver()
    assert s.survives_canonical_right(g)
    assert s.solve(g, L) is DR
    assert s.last_stats.memo_hits > 0


def oracle_survives(g):
    """:func:`survives_canonical_right_brute` on ``g``, with
    ``canonical_right_move`` required to pick as the oracle does at every
    Right turn the oracle meets."""
    turns = []
    survived = survives_canonical_right_brute(g, turns)
    for left, right, pick in turns:
        assert canonical_right_move(Position.from_picks(g, left, right, R)) == pick, (
            g, left, right)
    return survived


def test_canonical_right_exhaustive_four_vertex_boards():
    # Every blue<=3 / red<=2 board of at most 4 vertices whose edges hold no
    # other edge of their colour, against brute force, with every rule on
    # and with twin reduction the only rule.  Each board gets fresh
    # solvers, so no node is answered by an earlier board's memo.  The
    # brute-force play against the canonical strategy checks the lemma
    # that the strategy wins whenever Right can.
    twins_only = dataclasses.replace(PLAIN, use_twin_reduction=True)
    checked = reduced = 0
    for n in range(5):
        verts = "abcd"[:n]
        small = [c for r in (1, 2) for c in itertools.combinations(verts, r)]
        blues = list(antichains(small + list(itertools.combinations(verts, 3))))
        reds = list(antichains(small))
        for blue in blues:
            for red in reds:
                g = new_game(verts, blue, red)
                want = brute_result(g, L) is not RW
                assert oracle_survives(g) == want, g
                for config in (SolverConfig(), twins_only):
                    assert Solver(config).survives_canonical_right(g) == want, g
                checked += 1
                reduced += twin_reduce((g.n, g.blue, g.red))[0][0] < g.n
    assert checked == 1 * 1 + 2 * 2 + 5 * 5 + 19 * 18 + 166 * 113
    assert reduced > 1000  # twin pairs are removed on many of these boards


def test_canonical_right_strategy_wins_whenever_right_can():
    # The lemma behind RIGHT_WINS, by brute force on random boards of up to
    # 9 vertices: Left survives the canonical strategy exactly when Left
    # avoids losing moving first.
    rng = rng_for(45, "canonical-right-lemma")
    right_wins = 0
    for _ in range(400):
        g = random_blue3_red2_game(rng, max_vertices=9)
        want = brute_result(g, L) is not RW
        assert oracle_survives(g) == want, g
        right_wins += not want
    assert right_wins > 80


def test_canonical_right_leaf_oracle_agrees():
    # The node-entry cutoffs change no answer of the canonical search: the
    # same value with all of them on, with the potentials off, with all
    # off and with each single rule off, and the value of the plain search
    # with Left first.  The potentials end most nodes before the leaf
    # oracle or a threat is tried, so those two are counted with the
    # potentials off.
    rng = rng_for(44, "canonical-right-leaf")
    plain = Solver(PLAIN)
    leaf_calls = threats = potentials = right_wins = 0
    for _ in range(1500):
        g = random_blue3_red2_game(rng)
        tuned, no_potentials = Solver(), Solver(SolverConfig(use_potentials=False))
        without = Solver(SEARCH_ONLY)
        got = tuned.survives_canonical_right(g)
        assert got == no_potentials.survives_canonical_right(g), g
        assert got == without.survives_canonical_right(g), g
        assert got == (plain.solve(g, L) is not RW), g
        for toggle in TOGGLES:
            assert Solver(SolverConfig(**{toggle: False})).survives_canonical_right(g) == got, (toggle, g)
        assert without.last_stats.threat_cutoffs == 0
        assert no_potentials.last_stats.potential_cutoffs == 0
        leaf_calls += no_potentials.last_stats.leaf_calls
        threats += no_potentials.last_stats.threat_cutoffs
        potentials += tuned.last_stats.potential_cutoffs
        right_wins += not got
    assert leaf_calls > 500 and threats > 200 and potentials > 500 and right_wins > 300


def test_canonical_right_tiny_memo(monkeypatch):
    # The flush point is read at each store, so the full-memo answers are
    # taken before it is lowered.
    full = Solver()
    u2c = sat_draw_game(CnfFormula(2, ((1, 1, 2), (1, 1, -2), (-1, -1, 2), (-1, -1, -2))))
    assert not full.survives_canonical_right(u2c.game)
    full_nodes = full.last_stats.nodes_expanded
    rng = rng_for(43, "canonical-right-memo")
    games = [random_blue3_red2_game(rng) for _ in range(200)]
    want = [Solver().survives_canonical_right(g) for g in games]
    monkeypatch.setattr(solver, "MEMO_FLUSH_ENTRIES", 2)
    tiny = Solver()
    assert not tiny.survives_canonical_right(u2c.game)
    # The flushes cost the tiny memo its transpositions.
    assert tiny.last_stats.nodes_expanded > full_nodes
    phi3 = CnfFormula(3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3)))
    assert tiny.survives_canonical_right(sat_draw_game(phi3).game)
    assert [tiny.survives_canonical_right(g) for g in games] == want


def test_canonical_right_node_budget():
    g = sat_draw_game(U3A).game
    with pytest.raises(ResourceLimitError):
        Solver(SolverConfig(node_limit=100)).survives_canonical_right(g)
    assert not Solver(SolverConfig(node_limit=561)).survives_canonical_right(g)


def test_canonical_right_edge_size_check():
    with pytest.raises(EdgeTooLargeError):
        solve_against_canonical_right(new_game(["a", "b", "c"], [], [["a", "b", "c"]]))


# -- the win gadget ---------------------------------------------------------------------

def test_win_gadget_counts():
    out = sat_win_game(CnfFormula(3, ((1, 2, 3),)))
    assert out.game.n == 15 + 14 == 29
    assert sorted(out.provenance.values()) == sorted(out.game.vertices)


def test_win_gadget_is_the_draw_gadget_joined_with_two_butterflies():
    # The reference construction: the draw gadget, then each butterfly
    # renamed with its tag and joined by disjoint_union, which must rename
    # nothing.  Game equality compares the vertex order too.
    wing = butterfly(L)
    for clauses in _formulas(3, False) + [all_sign_clauses()]:
        phi = CnfFormula(3, clauses)
        draw = sat_draw_game(phi)
        game, prov = draw.game, dict(draw.provenance)
        for tag in ("bf1", "bf2"):
            renamed = new_game([f"{tag}_{v}" for v in wing.vertices],
                               [[f"{tag}_{v}" for v in e] for e in wing.blue_edges], [])
            game, renames = disjoint_union(game, renamed)
            assert not renames
            prov.update((f"{tag}.{v}", f"{tag}_{v}") for v in wing.vertices)
        out = sat_win_game(phi)
        assert out.game == game, clauses
        assert list(out.provenance.items()) == list(prov.items()), clauses


def test_win_gadget_satisfiable_wins():
    g = sat_win_game(CnfFormula(3, ((1, 2, 3),))).game
    assert Solver().solve(g, L) is LW


def test_win_gadget_unsat_right_wins():
    g = sat_win_game(CnfFormula(3, all_sign_clauses())).game
    assert solve_against_canonical_right(g) is RWINS


# -- the QBF gadget ----------------------------------------------------------------------

def test_qbf_gadget_counts():
    out = qbf_game(QbfFormula(2, ((1, 1, 2),)))
    assert out.game.n == 2 * 11 + 1 == 23
    assert sorted(out.provenance.values()) == sorted(out.game.vertices)
    assert all(len(e) <= 3 for e in out.game.blue_edges | out.game.red_edges)


def test_qbf_gadget_satisfier_side():
    psi = QbfFormula(2, ((1, 1, 2),))
    assert qbf_brute(psi) is QbfWinner.SATISFIER
    g = qbf_game(psi).game
    assert Solver().solve(g, R) is not LW


def test_qbf_gadget_falsifier_side():
    psi = QbfFormula(2, ((1, 1, 1), (-1, -1, -1)))
    assert qbf_brute(psi) is QbfWinner.FALSIFIER
    g = qbf_game(psi).game
    assert Solver().solve(g, R) is LW


def test_forced_script_all_choices():
    out = qbf_game(QbfFormula(2, ((1, 1, 2),)))
    for choices in ("tt", "tf", "ft", "ff"):
        assert check_forced_script(out, choices)


def test_forced_script_moves_count():
    out = qbf_game(QbfFormula(4, ((1, 2, 3),)))
    assert check_forced_script(out, "tftf")


def test_qbf_gadget_four_variable_spot_checks():
    s = Solver()
    for clauses, falsifier_wins in [
        (((1, 2, 3),), False),
        (((2, 2, 2), (-2, -2, -2)), True),
        (((1, 1, 2), (-1, -1, 2)), True),
    ]:
        psi = QbfFormula(4, clauses)
        assert (qbf_brute(psi) is QbfWinner.FALSIFIER) == falsifier_wins
        out = qbf_game(psi)
        assert out.game.n == 4 * 11 + 1 == 45
        assert (s.solve(out.game, R) is GameResult.LEFT_WIN) == falsifier_wins


def test_qbf_gadget_repeated_literals():
    # A clause over fewer than three distinct variables must not compile to
    # a short clause edge, which makes these two Satisfier wins LeftWin.
    s = Solver()
    for clauses in (((3, 4, 4),), ((3, 3, 2),)):
        psi = QbfFormula(4, clauses)
        assert qbf_brute(psi) is QbfWinner.SATISFIER
        assert s.solve(qbf_game(psi).game, R) is not LW
    rng = rng_for(5, "qbf-repeats")
    for _ in range(20):
        clauses = tuple(tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(3))
                        for _ in range(rng.randint(1, 3)))
        psi = QbfFormula(4, clauses)
        falsifier_wins = qbf_brute(psi) is QbfWinner.FALSIFIER
        assert (s.solve(qbf_game(psi).game, R) is LW) == falsifier_wins, clauses


def test_forced_script_detects_tampering():
    from apg.core import game_from_masks
    from apg.reductions import ReductionOutput

    out = qbf_game(QbfFormula(2, ((1, 1, 2),)))
    g = out.game
    dropped = g.mask_of(("tL1", "tR1", "v1"))
    assert dropped in g.red
    tampered = game_from_masks(g.vertices, g.blue, [m for m in g.red if m != dropped])
    with pytest.raises(ScriptViolationError):
        check_forced_script(ReductionOutput(tampered, out.provenance), "tt")


# -- Maker-Maker embedding ------------------------------------------------------------------

def test_embedding_shapes():
    g = new_game(["a", "b"], [["a"]], [["b"]])
    h, ul, ur = maker_maker_embedding(g)
    assert h.edge_sets == frozenset({frozenset({"a", ul}), frozenset({"b", ur})})
    assert h.rank == 2


def test_embedding_butterfly_rank4():
    h, _, _ = maker_maker_embedding(butterfly())
    assert h.rank == 4 and len(h.edges) == 4


def test_embedding_rejects_rank4_input():
    g = new_game(["a", "b", "c", "d"], [["a", "b", "c", "d"]], [])
    with pytest.raises(EdgeTooLargeError):
        maker_maker_embedding(g)


def test_embedding_round_trip_values():
    rng = rng_for(77, "mm-embed")
    s = Solver()
    for _ in range(60):
        g = random_game(rng, max_vertices=6, max_edge_size=3)
        h, ul, ur = maker_maker_embedding(g)
        mm = new_game(h.vertices, [sorted(e) for e in h.edge_sets],
                      [sorted(e) for e in h.edge_sets])
        reduced = update(mm, [ul], [ur])
        assert reduced == g
        assert s.solve(reduced, L) == s.solve(g, L)
