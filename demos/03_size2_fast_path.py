"""The polynomial procedure for size-<=2 games versus plain search.

Run:  python demos/03_size2_fast_path.py
"""

import time

from apg import Player, Solver, solve22
from apg.gadgets import random_game, rng_for
from apg.solver import SEARCH_ONLY

L = Player.LEFT

rng = rng_for(7, "demo-size2")
games = [random_game(rng, max_vertices=12, max_edge_size=2, max_edges=14)
         for _ in range(2000)]

t0 = time.perf_counter()
fast = [solve22(g, L) for g in games]
t_fast = time.perf_counter() - t0

# Search alone: the default configuration would hand these games to solve22 itself,
# and its double-threat rule is solve22's own P3 step.
solver = Solver(SEARCH_ONLY)
t0 = time.perf_counter()
slow = [solver.solve(g, L) for g in games]
t_slow = time.perf_counter() - t0

agree = sum(a == b for a, b in zip(fast, slow))
print(f"games: {len(games)}  agreement: {agree}/{len(games)}")
print(f"direct procedure: {t_fast:.2f}s   memoized search: {t_slow:.2f}s")

from collections import Counter

print("value histogram:", dict(Counter(str(v) for v in fast)))
