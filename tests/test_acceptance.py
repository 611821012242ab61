"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line with its tolerance.  Run with ``pytest tests/test_acceptance.py -s``.

Criteria and budgets:
  1 butterfly fixed point, < 1 s
  2 outcome legality (exhaustive size-2 games through 4 vertices + 5000
    random rank-3 games), < 5 min
  3 size-2 procedure vs solver (exhaustive through 4 vertices, dense seeded
    5-vertex sample, 10000 random games up to 14 vertices), < 10 min
  4 structural-law batteries, >= 1000 seeded instances each, < 10 min
  5 union outcome table on 2000 seeded pairs + draw-identity pairs, < 10 min
  6 hub-family delays and the delay union law on 500 seeded pairs, < 10 min
  7 formula reductions (draw gadget, win gadget, valuation-game gadget,
    forced scripts), < 30 min combined
  8 symmetric rank-4 embedding round trip on 200 seeded games, < 5 min
  9 transversal embedding and involution over all boards with <= 4 vertices,
    < 2 min
"""

import time

from apg import Outcome, Player, Solver, butterfly, self_play
from apg import verification as V

SEED = 2024


def _finish(criterion: str, checked: int, failed: int, failures: list[str],
            elapsed: float, budget_s: float) -> None:
    # ``failed`` counts every failure; ``failures`` holds the messages kept.
    status = "PASS" if not failed and elapsed < budget_s else "FAIL"
    print(f"criterion {criterion}: {status} - checked={checked} "
          f"failures={failed} elapsed={elapsed:.1f}s (budget {budget_s:.0f}s)")
    assert not failed, (failed, failures[:5])
    assert elapsed < budget_s, f"{elapsed:.1f}s exceeded the {budget_s:.0f}s budget"


def _finish_reports(criterion: str, reports, elapsed: float, budget_s: float) -> None:
    # A report keeps at most 20 messages but counts every failure.
    _finish(criterion, sum(r.checked for r in reports), sum(r.failed for r in reports),
            [f for r in reports for f in r.failures], elapsed, budget_s)


def test_criterion_1_butterfly_fixed_point():
    t0 = time.perf_counter()
    failures = []
    game = butterfly()
    solver = Solver()
    if solver.outcome(game) is not Outcome.L_MINUS:
        failures.append("butterfly outcome is not L-")
    trace = self_play(game, Player.LEFT)
    left_moves = trace.moves_by(Player.LEFT)
    if len(left_moves) != 3:
        failures.append(f"Left used {len(left_moves)} moves, not 3")
    if not left_moves or left_moves[0] != "alpha":
        failures.append("the opening move is not the hub")
    if trace.result.value != "LeftWin":
        failures.append("self-play did not end in a Left win")
    _finish("1 (butterfly fixed point)", 3, len(failures), failures,
            time.perf_counter() - t0, 1.0)


def test_criterion_2_outcome_legality():
    t0 = time.perf_counter()
    report = V.outcome_legality(seed=SEED, random_trials=5000,
                                exhaustive_max_vertices=4)
    _finish_reports("2 (outcome legality)", [report],
                    time.perf_counter() - t0, 300.0)


def test_criterion_3_poly22_oracle_equivalence():
    t0 = time.perf_counter()
    report = V.poly22_agreement(seed=SEED, random_trials=10000,
                                exhaustive_max_vertices=4,
                                five_vertex_trials=25000)
    _finish_reports("3 (size-2 procedure vs solver)", [report],
                    time.perf_counter() - t0, 600.0)


def test_criterion_4_law_batteries():
    t0 = time.perf_counter()
    reports = V.law_batteries(seed=SEED, trials=1000)
    for report in reports:
        assert report.checked >= 1000 or report.name == "law-dominating-option", \
            f"{report.name} ran only {report.checked} instances"
    assert all(r.checked >= 1000 for r in reports), \
        [f"{r.name}={r.checked}" for r in reports]
    _finish_reports("4 (structural laws)", reports,
                    time.perf_counter() - t0, 600.0)


def test_criterion_5_union_table():
    t0 = time.perf_counter()
    report = V.union_table_battery(seed=SEED, pairs=2000, forced_draw_pairs=300)
    _finish_reports("5 (union outcome table)", [report],
                    time.perf_counter() - t0, 600.0)


def test_criterion_6_delay():
    t0 = time.perf_counter()
    report = V.delay_battery(seed=SEED, pairs=500)
    _finish_reports("6 (delay values and union law)", [report],
                    time.perf_counter() - t0, 600.0)


def test_criterion_7_reductions():
    t0 = time.perf_counter()
    reports = [V.sat_draw_battery(full_two_clause=True),
               V.sat_win_battery(full_two_clause=True),
               V.qbf_battery()]
    _finish_reports("7 (formula reductions)", reports,
                    time.perf_counter() - t0, 1800.0)


def test_criterion_8_mm_embedding_round_trip():
    t0 = time.perf_counter()
    report = V.mm_embedding_battery(seed=SEED, trials=200)
    _finish_reports("8 (symmetric embedding round trip)", [report],
                    time.perf_counter() - t0, 300.0)


def test_criterion_9_transversal_embedding():
    t0 = time.perf_counter()
    report = V.transversal_battery(max_vertices=4)
    _finish_reports("9 (transversal embedding)", [report],
                    time.perf_counter() - t0, 120.0)
