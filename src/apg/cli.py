"""Command-line front end.

Line-oriented ``key: value`` reports; exit codes: 0 answered, 2 verification
failure, 3 resource limit, 64 usage or input error.  The APG_NODE_LIMIT
environment variable, a positive integer, overrides the solver's node budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import verification
from .core import Game, Player, disjoint_union, parse_outcome
from .errors import ApgError, ApgParseError, ResourceLimitError
from .formats import load_game, save_game
from .gadgets import butterfly, outcome_exemplar, win_in_k
from .poly22 import solve22
from .reductions import (
    maker_maker_embedding,
    parse_dimacs,
    parse_dimacs_qbf,
    qbf_game,
    sat_draw_game,
    sat_win_game,
)
from .solver import Solver, SolverConfig, union_outcome_allowed


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit with 64
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(64)


def _player(text: str) -> Player:
    return Player.LEFT if text == "left" else Player.RIGHT


def _count(text: str) -> int:
    # argparse's ``type`` for counts: zero or a negative one is a usage
    # error, since a battery of no trials checks nothing.
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _node_limit(text: str) -> int:
    # The APG_NODE_LIMIT override, parsed as a count; anything but a
    # positive integer is a usage error (run maps the ValueError to exit 64).
    try:
        return _count(text)
    except argparse.ArgumentTypeError:
        raise ValueError(f"APG_NODE_LIMIT must be a positive integer, got {text!r}") from None


def _solver(**settings) -> Solver:
    config = SolverConfig(**settings)
    limit = os.environ.get("APG_NODE_LIMIT")
    if limit:
        config.node_limit = _node_limit(limit)
    return Solver(config)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="apg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="value of a game for a fixed first player")
    p.add_argument("file")
    p.add_argument("--first", choices=("left", "right"), required=True)
    p.add_argument("--algo", choices=("auto", "search", "poly22"), default="auto")
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("outcome", help="pair of values (Left starts, Right starts)")
    p.add_argument("file")

    p = sub.add_parser("delay", help="pass-move scoring value for a protagonist")
    p.add_argument("file")
    p.add_argument("--player", choices=("left", "right"), required=True)

    p = sub.add_parser("union", help="outcome of a disjoint union")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--check-table3", action="store_true")

    p = sub.add_parser("gadget", help="emit a named example game")
    p.add_argument("kind", choices=("butterfly", "wk", "exemplar"))
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--color", choices=("blue", "red"), default="blue")
    p.add_argument("--outcome", default="L-")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("reduce", help="compile a formula into a game")
    p.add_argument("kind", choices=("sat23", "sat32", "qbf33"))
    p.add_argument("cnf_file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--provenance")

    p = sub.add_parser("embed", help="embed a game into a symmetric board")
    p.add_argument("kind", choices=("mm4",))
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("verify", help="run a seeded verification battery")
    p.add_argument("target", choices=("lemmas", "table3", "poly22", "reductions"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_count, default=1000)
    return parser


def _emit(pairs) -> None:
    for key, value in pairs:
        print(f"{key}: {value}")


def _cmd_solve(args) -> int:
    if args.algo == "poly22" and args.trace:
        raise ValueError("--trace needs --algo search or auto: "
                         "traces come from the search")
    game = load_game(args.file)
    small = all(m.bit_count() <= 2 for m in game.blue + game.red)
    algo = args.algo
    if algo == "auto":
        algo = "poly22" if small and not args.trace else "search"
    if algo == "poly22":
        result = solve22(game, _player(args.first))
        _emit([("result", result), ("algo", "poly22")])
        return 0
    # The size-2 procedure has its own --algo; search means search.
    solver = _solver(use_leaf_oracle=False)
    result = solver.solve(game, _player(args.first))
    _emit([("result", result), ("algo", "search")])
    print(solver.last_stats.as_text())
    if args.trace:
        trace = solver.self_play(game, _player(args.first))
        for i, step in enumerate(trace.steps, start=1):
            print(f"move_{i}: {str(step.player).lower()} {step.vertex} "
                  f"{step.justification}")
        print(f"final: {trace.final}")
    return 0


def _cmd_outcome(args) -> int:
    solver = _solver()
    _emit([("outcome", solver.outcome(load_game(args.file)))])
    return 0


def _cmd_delay(args) -> int:
    solver = _solver()
    value = solver.delay(load_game(args.file), _player(args.player))
    _emit([("delay", "inf" if value == float("inf") else int(value))])
    return 0


def _cmd_union(args) -> int:
    solver = _solver()
    g, g2 = load_game(args.file1), load_game(args.file2)
    union, renames = disjoint_union(g, g2)
    o, o2, ou = solver.outcome(g), solver.outcome(g2), solver.outcome(union)
    _emit([("outcome_first", o), ("outcome_second", o2), ("outcome_union", ou)])
    if renames:
        _emit([("renamed", " ".join(f"{a}->{b}" for a, b in sorted(renames.items())))])
    if args.check_table3:
        ok = union_outcome_allowed(o, o2, ou)
        _emit([("table3_ok", "true" if ok else "false")])
        return 0 if ok else 2
    return 0


def _cmd_gadget(args) -> int:
    color = Player.LEFT if args.color == "blue" else Player.RIGHT
    if args.kind == "butterfly":
        game = butterfly(color)
    elif args.kind == "wk":
        game = win_in_k(args.k, color)
    else:
        game = outcome_exemplar(parse_outcome(args.outcome))
    save_game(game, args.output)
    _emit([("written", args.output), ("vertices", game.n),
           ("blue_edges", len(game.blue)), ("red_edges", len(game.red))])
    return 0


def _cmd_reduce(args) -> int:
    with open(args.cnf_file, "r", encoding="utf-8") as fh:
        text = fh.read()
    if args.kind == "qbf33":
        out = qbf_game(parse_dimacs_qbf(text, source=args.cnf_file))
    elif args.kind == "sat23":
        out = sat_draw_game(parse_dimacs(text, source=args.cnf_file))
    else:
        out = sat_win_game(parse_dimacs(text, source=args.cnf_file))
    save_game(out.game, args.output)
    _emit([("written", args.output), ("vertices", out.game.n),
           ("blue_edges", len(out.game.blue)), ("red_edges", len(out.game.red))])
    if args.provenance:
        with open(args.provenance, "w", encoding="utf-8") as fh:
            json.dump(out.provenance, fh, indent=2, sort_keys=True)
        _emit([("provenance", args.provenance)])
    return 0


def _cmd_embed(args) -> int:
    game = load_game(args.file)
    h, ul, ur = maker_maker_embedding(game)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(f"# symmetric board; anchors: first player {ul}, second player {ur}\n")
        save_game(Game(h.vertices, h.edges, h.edges), fh)
    _emit([("written", args.output), ("anchors", f"{ul} {ur}"),
           ("rank", h.rank)])
    return 0


def _cmd_verify(args) -> int:
    reports = []
    if args.target == "lemmas":
        reports = verification.law_batteries(seed=args.seed, trials=args.trials)
    elif args.target == "table3":
        reports = [verification.union_table_battery(
            seed=args.seed, pairs=args.trials,
            forced_draw_pairs=max(50, args.trials // 10))]
    elif args.target == "poly22":
        reports = [verification.poly22_agreement(
            seed=args.seed, random_trials=args.trials,
            exhaustive_max_vertices=-1, five_vertex_trials=0)]
    elif args.target == "reductions":
        full = args.trials >= 1000
        reports = [verification.sat_draw_battery(full_two_clause=full),
                   verification.sat_win_battery(full_two_clause=full),
                   verification.qbf_battery()]
    checked = sum(r.checked for r in reports)
    failed = sum(r.failed for r in reports)
    _emit([("seed", args.seed)])
    for report in reports:
        for line in report.lines():
            print(line)
    _emit([("agreement", f"{checked - failed}/{checked}")])
    return 0 if failed == 0 else 2


_COMMANDS = {
    "solve": _cmd_solve,
    "outcome": _cmd_outcome,
    "delay": _cmd_delay,
    "union": _cmd_union,
    "gadget": _cmd_gadget,
    "reduce": _cmd_reduce,
    "embed": _cmd_embed,
    "verify": _cmd_verify,
}


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ApgParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except (ApgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
