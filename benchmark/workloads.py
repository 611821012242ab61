"""The four workloads: their inputs, the calls they time and the checks on
every answer.

The formulas are fixed below and the boards are drawn from ``CORPUS_SEED``.
The run's ``--seed`` gives every vertex a fresh name and keeps the vertex
order, so every seed is another input with the same answers and exactly the
same search: node counts repeat across seeds, and the spread between runs is
the machine's alone.  Renumbering the vertices per seed moved the gadget
node counts by 6% and the board node counts by 12%, more than the bounds
leave room for.

A workload builds its instances in ``setup``, makes an instance's calls in
``solve`` and judges the answer in ``check``.  Every call into ``apg`` goes
through the recorder, which times it; checks run outside the timed calls.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from time import perf_counter as _clock
from typing import Any, Callable, Optional

import oracles
from apg import (
    CanonicalRightResult,
    GameResult,
    Player,
    Solver,
    SolverConfig,
    disjoint_union,
    new_game,
    parse_game,
    serialize_game,
    solve22,
    solve_against_canonical_right,
)
from apg.reductions import CnfFormula, QbfFormula, qbf_game, sat_draw_game, sat_win_game

CORPUS_SEED = 2503
GADGET_NODE_BUDGET = 200_000
LEFT, RIGHT = Player.LEFT, Player.RIGHT

# 3-CNFs as (name, variable count, clauses).  The satisfiable ones give draw
# gadgets of 27-33 vertices and win gadgets of 41-47; the unsatisfiable ones
# have one or two variables.  PHI3 is the roadmap's baseline formula.
PHI3 = ("phi3", 3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3)))
SAT_FORMULAS = [
    PHI3,
    ("s3b", 3, ((3, -1, -2), (-1, -3, 2), (1, 3, -2))),
    ("s4a", 3, ((3, 3, -1), (-2, -3, 2), (1, 2, -2), (-2, -1, 3))),
    ("s4b", 3, ((3, -2, -2), (-2, 1, -2), (-1, 1, 1), (-1, 2, 2))),
    ("u1", 1, ((1, 1, 1), (-1, -1, -1))),
    ("u2a", 2, ((1, 2, 2), (-1, -1, -1), (1, -2, -2))),
    ("u2b", 2, ((1, 2, 2), (1, -2, -2), (-1, 2, 2), (-1, -2, -2))),
]
# All eight sign patterns over three variables: unsatisfiable, and its draw
# gadget (57 vertices) is the largest canonical-Right refutation here.
ALL_SIGNS = ("allsign", 3, tuple(tuple(s * v for s, v in zip(signs, (1, 2, 3)))
                                 for signs in itertools.product((1, -1), repeat=3)))
# Four-variable QBFs, each clause over three distinct variables; three are
# won by Satisfier and three by Falsifier.
QBF_FORMULAS = [
    ("q2s", ((-3, 2, 1), (1, -4, -2))),
    ("q3s", ((-1, 2, 3), (-1, -2, 3), (-1, 3, 2))),
    ("q6s", ((4, 2, 3), (4, -3, 1), (4, 1, -3), (3, 1, 2), (-1, -2, 3), (-1, 3, 2))),
    ("q4f", ((3, 4, 2), (2, -1, 4), (-4, -3, 2), (4, -2, -3))),
    ("q6f", ((-4, 3, 1), (-3, -2, 1), (4, 1, 3), (3, 4, -1), (4, -1, 3), (-1, -2, -4))),
    ("q6g", ((-1, -4, 3), (-3, -2, 1), (-3, -2, -4), (-1, -2, 4), (-4, 2, 1), (2, -4, 3))),
]

_VALUE = {GameResult.LEFT_WIN: oracles.LEFT_WIN, GameResult.DRAW: oracles.DRAW,
          GameResult.RIGHT_WIN: oracles.RIGHT_WIN}


@dataclass
class Instance:
    id: str
    kind: str
    data: dict[str, Any]
    expected: dict[str, Any] = field(default_factory=dict)  # filled by checks
    timed: bool = True  # False: checked every round, left out of the timings
    repeats: int = 1  # calls per untraced round: more samples of a short instance


class Recorder:
    """Times each call the benchmark makes into ``apg``.

    ``elapsed`` sums the time inside calls since it was last zeroed, less
    the time ``paused`` grew by during them.  With
    ``tracing`` on, each call also leaves a span (id, parent, layer,
    function, instance, start, end); ``group`` opens a parent span for the
    calls of a set-up pass, a round or an instance.  ``overhead`` sums the
    time spent recording spans.
    """

    def __init__(self):
        self.tracing = False
        self.elapsed = 0.0
        self.overhead = 0.0
        self.paused = 0.0  # time taken from calls by other work, such as calibration
        self.spans: list[tuple] = []
        self._parent: Optional[int] = None
        self._instance: Optional[str] = None

    def call(self, layer: str, fn: Callable, *args):
        paused, t0 = self.paused, _clock()
        try:
            return fn(*args)
        finally:
            t1 = _clock()
            self.elapsed += t1 - t0 - (self.paused - paused)
            if self.tracing:
                self.spans.append((len(self.spans), self._parent, layer, fn.__name__,
                                   self._instance, t0, t1))
                self.overhead += _clock() - t1

    def group(self, name: str, instance: Optional[str] = None) -> "_Group":
        return _Group(self, name, instance)


class _Group:
    def __init__(self, rec: Recorder, name: str, instance: Optional[str]):
        self.rec, self.name, self.instance = rec, name, instance

    def __enter__(self):
        rec = self.rec
        self.saved = rec._parent, rec._instance
        self.t0 = _clock()
        if rec.tracing:
            self.id = len(rec.spans)
            rec.spans.append(None)  # filled in on exit
            rec._parent = self.id
            rec.overhead += _clock() - self.t0
        if self.instance is not None:
            rec._instance = self.instance
        return self

    def __exit__(self, *exc):
        rec = self.rec
        if rec.tracing and rec._parent == self.id:
            t1 = _clock()
            rec.spans[self.id] = (self.id, self.saved[0], "bench", self.name,
                                  self.instance, self.t0, t1)
            rec.overhead += _clock() - t1
        rec._parent, rec._instance = self.saved
        return False


# ---------------------------------------------------------------------------
# Helpers shared by the workloads

def fresh_names(rng: random.Random, vertices) -> dict[str, str]:
    """A new, seeded name for every vertex."""
    tags = rng.sample(range(1 << 24), len(vertices))
    return {v: f"{v}.{t:06x}" for v, t in zip(vertices, tags)}


def named(names: dict[str, str], edges) -> list[list[str]]:
    return [[names[v] for v in edge] for edge in edges]


def build(rec: Recorder, rng: random.Random, vertices, blue, red):
    """``new_game`` with fresh names in the same vertex order, and the
    renamed edges."""
    names = fresh_names(rng, vertices)
    blue, red = named(names, blue), named(names, red)
    return rec.call("core", new_game, [names[v] for v in vertices], blue, red), blue, red


def renamed(rec: Recorder, rng: random.Random, game):
    """The same game under fresh vertex names."""
    edges = [[[game.vertices[i] for i in range(game.n) if m >> i & 1] for m in masks]
             for masks in (game.blue, game.red)]
    return build(rec, rng, game.vertices, *edges)[0]


def round_trip(rec: Recorder, game):
    """The game as it comes back from its text form; None if it changed."""
    back = rec.call("formats", parse_game, rec.call("formats", serialize_game, game))
    return back if back == game else None


COMPILERS = {"draw": sat_draw_game, "win": sat_win_game, "qbf": qbf_game}


def gadget(rec: Recorder, rng: random.Random, kind: str, name: str, formula) -> Instance:
    """The compiled, renamed and round-tripped gadget of one formula."""
    game = renamed(rec, rng, rec.call("reductions", COMPILERS[kind], formula).game)
    return Instance(f"{kind}/{name}", kind, {"formula": formula, "game": round_trip(rec, game)})


def query(rec: Recorder, answer: dict, solver: Solver, fn: Callable, *args):
    """A solver query whose ``last_stats`` cover the whole call."""
    value = rec.call("solver", fn, *args)
    st = solver.last_stats
    answer.setdefault("stats", []).append(
        (fn.__name__, st.nodes_expanded, st.memo_hits, st.max_depth))
    return value


def _mismatch(what: str, got, want) -> str:
    return f"{what}: got {got}, expected {want}"


# ---------------------------------------------------------------------------
# gadgets: Solver.solve on the SAT and QBF gadgets

class Gadgets:
    name = "gadgets"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, rec: Recorder) -> list[Instance]:
        rng = random.Random(f"gadgets/{self.seed}")
        return ([gadget(rec, rng, kind, name, CnfFormula(nv, clauses))
                 for name, nv, clauses in SAT_FORMULAS for kind in ("draw", "win")]
                + [gadget(rec, rng, "qbf", name, QbfFormula(4, clauses))
                   for name, clauses in QBF_FORMULAS])

    def solve(self, rec: Recorder, inst: Instance) -> dict:
        answer: dict = {}
        game = inst.data["game"]
        if game is None:
            return answer
        solver = Solver(SolverConfig(node_limit=GADGET_NODE_BUDGET))
        first = RIGHT if inst.kind == "qbf" else LEFT
        answer["result"] = query(rec, answer, solver, solver.solve, game, first)
        return answer

    def check(self, inst: Instance, answer: dict) -> Optional[str]:
        if inst.data["game"] is None:
            return "the text round trip changed the game"
        f = inst.data["formula"]
        if not inst.expected:
            if inst.kind == "qbf":
                left_wins = oracles.falsifier_wins(f.num_vars, f.clauses)
                want = GameResult.LEFT_WIN if left_wins else None
            else:
                satisfiable = oracles.sat(f.num_vars, f.clauses)
                want = {("draw", True): GameResult.DRAW,
                        ("draw", False): GameResult.RIGHT_WIN,
                        ("win", True): GameResult.LEFT_WIN}.get((inst.kind, satisfiable))
            inst.expected["result"] = want
        got, want = answer["result"], inst.expected["result"]
        # None stands for "anything but LeftWin": the win gadget of an
        # unsatisfiable formula and a QBF that Satisfier wins.
        if want is None:
            return None if got is not GameResult.LEFT_WIN else _mismatch(inst.id, got, "not LeftWin")
        return None if got is want else _mismatch(inst.id, got, want)


# ---------------------------------------------------------------------------
# refute: solve_against_canonical_right on draw and win gadgets

class Refute:
    name = "refute"

    # (formula, gadget kinds): the unsatisfiable formulas of gadgets and seven
    # more with two or three variables (their gadgets take 0.05-0.5 s, so the
    # median instance does not rest on a few millisecond-long calls), the
    # all-sign formula on the draw gadget (its 71-vertex win gadget needs
    # ~450 MB), and satisfiable formulas that Left survives.  A round takes
    # 12-20 s, so a run makes two (MIN_ROUNDS).  All but the all-sign gadget are
    # solved SHORT_REPEATS times in an untraced round: with one sample per
    # round they would each have two, and instance_ms_p50 rests on them.
    CASES = ([(f, ("draw", "win")) for f in SAT_FORMULAS if f[0].startswith("u")] + [
        (("u2c", 2, ((1, 1, 2), (1, 1, -2), (-1, -1, 2), (-1, -1, -2))), ("draw", "win")),
        (("u3a", 3, ((1, 2, 2), (1, -2, -2), (-1, 3, 3), (-1, -3, -3))), ("draw", "win")),
        (("u2d", 2, ((-1, -2, -1), (-1, -2, -2), (-1, -1, 2), (1, 1, 1), (2, 2, -1))),
         ("draw",)),
        (("u3b", 3, ((1, 1, 1), (-1, 2, 2), (-1, -2, 3), (-1, -2, -3))), ("draw",)),
        (("u3c", 3, ((1, 2, 3), (-1, -1, -1), (-2, -2, -2), (-3, -3, -3))), ("draw",)),
        (("u3d", 3, ((1, 2, 2), (-1, 3, 3), (-2, -2, -2), (-3, -3, -3))), ("draw",)),
        (("u3e", 3, ((1, 2, 3), (1, 2, -3), (-1, -1, -1), (-2, -2, -2))), ("draw",)),
        (ALL_SIGNS, ("draw",)), (PHI3, ("draw", "win")), (SAT_FORMULAS[1], ("draw",))])
    SHORT_REPEATS = 2

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, rec: Recorder) -> list[Instance]:
        rng = random.Random(f"refute/{self.seed}")
        out = [gadget(rec, rng, kind, name, CnfFormula(nv, clauses))
               for (name, nv, clauses), kinds in self.CASES for kind in kinds]
        for inst in out:
            if inst.data["formula"].clauses != ALL_SIGNS[2]:
                inst.repeats = self.SHORT_REPEATS
        return out

    def solve(self, rec: Recorder, inst: Instance) -> dict:
        if inst.data["game"] is None:
            return {}
        return {"result": rec.call("reductions", solve_against_canonical_right,
                                   inst.data["game"])}

    def check(self, inst: Instance, answer: dict) -> Optional[str]:
        if inst.data["game"] is None:
            return "the text round trip changed the game"
        if not inst.expected:
            f = inst.data["formula"]
            inst.expected["result"] = (CanonicalRightResult.LEFT_NON_LOSING
                                       if oracles.sat(f.num_vars, f.clauses)
                                       else CanonicalRightResult.RIGHT_WINS)
        got, want = answer["result"], inst.expected["result"]
        return None if got is want else _mismatch(inst.id, got, want)


# ---------------------------------------------------------------------------
# boards: outcome, self-play and delay on sparse uniform rank-3 boards

class Boards:
    name = "boards"

    # vertex count -> number of boards; about n/2 edges of size 3 per colour.
    # Skewed to small boards: an 18-vertex board costs about 15 times a
    # 12-vertex one, and a run needs several rounds for each instance's median.
    SIZES = {12: 100, 13: 50, 14: 28, 15: 12, 16: 6, 17: 2, 18: 2}
    DELAY_BOARDS = 2        # the first 12-vertex boards also get both delays
    MIRROR_EVERY = 3        # every third board also gets its colour swap solved
    HUB_KS = (2, 3, 4, 5)   # win_in_k boards, whose delay is k - 1

    def __init__(self, seed: int):
        self.seed = seed

    @staticmethod
    def corpus() -> list[tuple[str, list[str], list, list]]:
        rng = random.Random(f"boards/{CORPUS_SEED}")
        specs = []
        for n, count in Boards.SIZES.items():
            verts = [f"v{i}" for i in range(n)]
            for j in range(count):
                blue = [rng.sample(verts, 3) for _ in range(n // 2)]
                red = [rng.sample(verts, 3) for _ in range(n // 2)]
                specs.append((f"n{n}/{j:02d}", verts, blue, red))
        return specs

    def setup(self, rec: Recorder) -> list[Instance]:
        rng = random.Random(f"boards/{self.seed}")
        out = []
        delays = 0
        for j, (ident, verts, blue, red) in enumerate(self.corpus()):
            game, blue, red = build(rec, rng, verts, blue, red)
            mirror = (rec.call("core", new_game, game.vertices, red, blue)
                      if j % self.MIRROR_EVERY == 0 else None)
            with_delay = len(verts) == 12 and delays < self.DELAY_BOARDS
            delays += with_delay
            out.append(Instance(ident, "board", {"game": game, "mirror": mirror,
                                                 "delay": with_delay}))
        for k in self.HUB_KS:
            spokes = [f"s{i}" for i in range(1, 2 * k - 1)]
            edges = [["hub", *c] for c in itertools.combinations(spokes, k - 1)]
            out.append(Instance(f"hub/{k}", "hub",
                                {"game": build(rec, rng, ["hub", *spokes], edges, [])[0], "k": k}))
        return out

    def solve(self, rec: Recorder, inst: Instance) -> dict:
        answer: dict = {}
        solver = Solver()
        game = inst.data["game"]
        if inst.kind == "hub":
            answer["delay"] = query(rec, answer, solver, solver.delay, game, LEFT)
            return answer
        answer["outcome"] = query(rec, answer, solver, solver.outcome, game)
        if inst.data["mirror"] is not None:
            answer["mirror"] = query(rec, answer, solver, solver.outcome, inst.data["mirror"])
        trace = rec.call("solver", solver.self_play, game, LEFT)
        answer["self_play"] = (trace.result, len(trace.steps))
        if inst.data["delay"]:
            answer["delays"] = [query(rec, answer, solver, solver.delay, game, p)
                                for p in (LEFT, RIGHT)]
        return answer

    def check(self, inst: Instance, answer: dict) -> Optional[str]:
        if inst.kind == "hub":
            k = inst.data["k"]
            return None if answer["delay"] == k - 1 else _mismatch(inst.id, answer["delay"], k - 1)
        o = answer["outcome"]
        if "mirror" in answer and answer["mirror"] is not o.mirrored:
            return _mismatch(f"{inst.id} colour swap", answer["mirror"], o.mirrored)
        if answer["self_play"][0] is not o.when_left_starts:
            return _mismatch(f"{inst.id} self-play", answer["self_play"][0], o.when_left_starts)
        if inst.data["delay"]:
            wins_first = (o.when_left_starts is GameResult.LEFT_WIN,
                          o.when_right_starts is GameResult.RIGHT_WIN)
            for d, wins in zip(answer["delays"], wins_first):
                if (d != float("inf")) != wins:
                    return _mismatch(f"{inst.id} delay finite", d != float("inf"), wins)
        return None


# ---------------------------------------------------------------------------
# size2: solve22 on large boards whose edges have at most two vertices

def _paths(rng: random.Random, n: int):
    """A red matching on most vertices and sparse blue edges; Right first."""
    verts = [f"p{i}" for i in range(n)]
    shuffled = rng.sample(verts, n)
    m = (4 * n // 5) // 2
    red = [shuffled[2 * i:2 * i + 2] for i in range(m)]
    blue = [rng.sample(verts, 2) for _ in range(n // 3)]
    return verts, blue, red, RIGHT


def _ladder(rng: random.Random, n: int):
    """A chain of one-vertex threats each forcing the next pick, over a
    third of the vertices, then a sparse residual game; Left first."""
    verts = [f"l{i}" for i in range(n)]
    rung = n // 3
    red = [[verts[0]]]
    blue = []
    for i in range(rung - 1):
        (blue if i % 2 == 0 else red).append([verts[i], verts[i + 1]])
    rest = verts[rung:]
    for _ in range(len(rest) // 2):
        blue.append(rng.sample(rest, 2))
        red.append(rng.sample(rest, 2))
    return verts, blue, red, LEFT


def _dense(rng: random.Random, n: int):
    """Random graphs with n edges per colour; Left first."""
    verts = [f"d{i}" for i in range(n)]
    blue = [rng.sample(verts, 2) for _ in range(n)]
    red = [rng.sample(verts, 2) for _ in range(n)]
    return verts, blue, red, LEFT


class Size2:
    name = "size2"

    FAMILIES = {"paths": _paths, "ladder": _ladder, "dense": _dense}
    PER_FAMILY = 70               # vertex counts spread evenly over 50..500
    SMALL = range(4, 9)           # vertex counts of the brute-force boards
    D_COMPONENT = (["dz0", "dz1"], [], [["dz0", "dz1"]])  # a single red 2-edge: outcome D

    def __init__(self, seed: int):
        self.seed = seed

    @classmethod
    def corpus(cls):
        """(id, kind, vertices, blue, red, first player, variant).  Each large
        board gets one variant in turn: the colour swap, one more blue edge
        (given as the edge) or a disjoint D component."""
        rng = random.Random(f"size2/{CORPUS_SEED}")
        specs = []
        for family, make in cls.FAMILIES.items():
            for j in range(cls.PER_FAMILY):
                n = 50 + (450 * j) // (cls.PER_FAMILY - 1)
                verts, blue, red, first = make(rng, n)
                variant = ("mirror", rng.sample(verts, 2), "with_d")[j % 3]
                specs.append((f"{family}/{n:03d}", family, verts, blue, red, first, variant))
            for n in cls.SMALL:
                for j in range(3):
                    specs.append((f"small/{family}/{n}.{j}", "small", *make(rng, n), None))
        return specs

    def setup(self, rec: Recorder) -> list[Instance]:
        rng = random.Random(f"size2/{self.seed}")
        d = rec.call("core", new_game, *self.D_COMPONENT)
        out = []
        for ident, kind, verts, blue, red, first, variant in self.corpus():
            game, blue_n, red_n = build(rec, rng, verts, blue, red)
            data = {"game": round_trip(rec, game), "first": first, "spec": (verts, blue, red)}
            if variant == "mirror":
                data["mirror"] = rec.call("core", new_game, game.vertices, red_n, blue_n)
            elif variant == "with_d":
                data["with_d"] = rec.call("core", disjoint_union, game, d)[0]
            elif variant is not None:
                extra = [game.vertices[verts.index(v)] for v in variant]
                data["more_blue"] = rec.call("core", new_game, game.vertices,
                                             blue_n + [extra], red_n)
            out.append(Instance(ident, kind, data, timed=kind != "small"))
        return out

    def solve(self, rec: Recorder, inst: Instance) -> dict:
        data = inst.data
        if data["game"] is None:
            return {}
        first = data["first"]
        answer = {"value": rec.call("poly22", solve22, data["game"], first)}
        if "mirror" in data:
            answer["mirror"] = rec.call("poly22", solve22, data["mirror"], first.opponent)
        for variant in ("more_blue", "with_d"):
            if variant in data:
                answer[variant] = rec.call("poly22", solve22, data[variant], first)
        return answer

    def check(self, inst: Instance, answer: dict) -> Optional[str]:
        if inst.data["game"] is None:
            return "the text round trip changed the game"
        v = answer["value"]
        if inst.kind == "small":
            if not inst.expected:
                verts, blue, red = inst.data["spec"]
                inst.expected["value"] = oracles.minimax(verts, blue, red,
                                                         inst.data["first"] is LEFT)
            want = inst.expected["value"]
            return None if _VALUE[v] == want else _mismatch(f"{inst.id} brute force", _VALUE[v], want)
        if "mirror" in answer and answer["mirror"] is not v.mirrored:
            return _mismatch(f"{inst.id} colour and turn swap", answer["mirror"], v.mirrored)
        if "more_blue" in answer and answer["more_blue"].rank < v.rank:
            return _mismatch(f"{inst.id} extra blue edge", answer["more_blue"], f"at least {v}")
        if "with_d" in answer and answer["with_d"] is not v:
            return _mismatch(f"{inst.id} union with a D component", answer["with_d"], v)
        return None


WORKLOADS = {w.name: w for w in (Gadgets, Refute, Boards, Size2)}
