"""Exact solving: values, outcomes, best moves, traces and delays.

Run:  python demos/02_solving_and_outcomes.py
"""

from apg import (
    Outcome,
    Player,
    Solver,
    butterfly,
    outcome_exemplar,
    win_in_k,
)

L, R = Player.LEFT, Player.RIGHT
solver = Solver()

print("one tiny game per outcome class:")
for target in Outcome:
    game = outcome_exemplar(target)
    print(f"  {str(target):2s} <- {game}")

print("\nbutterfly, Left moving first (wins in three moves):")
for step in solver.self_play(butterfly(), L).steps:
    print(f"  {step.player} picks {step.vertex:7s} [{step.justification}]")

print("\nbutterfly, Right moving first (the hub pick defuses everything):")
trace = solver.self_play(butterfly(), R)
print("  " + " ".join(s.vertex for s in trace.steps) + f" -> {trace.final}")

print("\nthe hub family: its owner needs k moves, the opponent may pass k-1 times")
for k in range(1, 6):
    print(f"  k={k}: delay {solver.delay(win_in_k(k), L)}")

print("\nsearch statistics for the butterfly outcome:")
# A fresh solver, so no memo entry of the queries above shows in its counters.
fresh = Solver()
fresh.outcome(butterfly())
print("  " + fresh.last_stats.as_text().replace("\n", "\n  "))
