"""The names and parameters of the package that the benchmark relies on.

``benchmark/`` runs the package from its own checkout, so a name it imports
or a parameter it passes that goes missing fails the benchmark run.  These
checks fail first, in milliseconds.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from apg import (
    SolverConfig,
    SolveStats,
    disjoint_union,
    new_game,
    parse_game,
    serialize_game,
    solve22,
    solve_against_canonical_right,
)

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def _apg_imports(path):
    # (module, name) for every ``from apg... import name`` in the file.
    tree = ast.parse(path.read_text(), str(path))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "apg"
            for alias in node.names]


@pytest.mark.parametrize("name", ["workloads.py", "test_bench.py"])
def test_benchmark_imports_resolve(name):
    imports = _apg_imports(BENCHMARK / name)
    assert imports, name
    for module, attr in imports:
        assert hasattr(importlib.import_module(module), attr), (name, module, attr)


def test_benchmark_calls_keep_their_signatures():
    assert SolverConfig(node_limit=1).node_limit == 1
    for fn, params in ((solve_against_canonical_right, ["game"]),
                       (solve22, ["game", "first_player"]),
                       (parse_game, ["text", "source"]),
                       (serialize_game, ["game"]),
                       (new_game, ["vertices", "blue_edges", "red_edges"]),
                       (disjoint_union, ["g", "g2"])):
        assert list(inspect.signature(fn).parameters) == params, fn.__name__
    counters = {f.name for f in dataclasses.fields(SolveStats)}
    assert {"nodes_expanded", "memo_hits", "max_depth"} <= counters
