"""Brute-force evaluators the benchmark checks the program against.

They work on plain Python data (clause tuples, name sets) and share no code
with ``apg``, so a fault in the engine cannot hide in its own checker.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

LEFT_WIN, DRAW, RIGHT_WIN = 1, 0, -1


def _satisfied(clauses, value) -> bool:
    return all(any(value[abs(l)] == (l > 0) for l in clause) for clause in clauses)


def sat(num_vars: int, clauses) -> bool:
    """Whether some assignment satisfies every clause."""
    for bits in product((False, True), repeat=num_vars):
        if _satisfied(clauses, (None,) + bits):
            return True
    return False


def falsifier_wins(num_vars: int, clauses) -> bool:
    """The valuation game: Satisfier sets x1, Falsifier x2, Satisfier x3, ...
    in index order; Satisfier wins iff every clause ends up satisfied."""

    def satisfier_wins(value: tuple) -> bool:
        i = len(value)
        if i > num_vars:
            return _satisfied(clauses, value)
        options = (satisfier_wins(value + (False,)), satisfier_wins(value + (True,)))
        return any(options) if i % 2 == 1 else all(options)

    return not satisfier_wins((None,))


def minimax(vertices, blue_edges, red_edges, left_first: bool) -> int:
    """Value of the achievement game by exhaustive play: LEFT_WIN, DRAW or
    RIGHT_WIN.  Exponential in the vertex count; for small boards only."""
    index = {v: i for i, v in enumerate(vertices)}
    blue = [sum(1 << index[v] for v in e) for e in blue_edges]
    red = [sum(1 << index[v] for v in e) for e in red_edges]
    full = (1 << len(vertices)) - 1

    @lru_cache(maxsize=None)
    def value(left: int, right: int, left_to_move: bool) -> int:
        free = full & ~(left | right)
        if not free:
            return DRAW
        best = RIGHT_WIN if left_to_move else LEFT_WIN
        while free:
            bit = free & -free
            free ^= bit
            if left_to_move:
                owned = left | bit
                v = (LEFT_WIN if any(e & owned == e for e in blue)
                     else value(owned, right, False))
                best = max(best, v)
                if best == LEFT_WIN:
                    break
            else:
                owned = right | bit
                v = (RIGHT_WIN if any(e & owned == e for e in red)
                     else value(left, owned, True))
                best = min(best, v)
                if best == RIGHT_WIN:
                    break
        return best

    return value(0, 0, left_first)
