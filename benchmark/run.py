"""Benchmark of apg on the paper's hardness gadgets, rank-3 boards and large
size-2 boards.

    python3 benchmark/run.py --workload gadgets --seed 1 --seconds 26 --trace 0

runs one workload (gadgets, refute, boards or size2) in this single-threaded
process, from the sources in ``src/`` next to this directory.  ``--workload
all`` runs each in a process of its own, one after another.  A run sets up
its inputs, then repeats whole rounds over them, each in a fresh seeded
order, for ``--seconds`` give or take half a round (and at least two
rounds), checks every answer
after each round, prints each metric as
``name: value unit`` and, last, one JSON line with ``correct``,
``attempted``, ``failed`` and the metrics.  ``--trace 1`` traces every other
round, prints the per-layer metrics and writes the spans to
``benchmark/out/``.  See README.md in this directory.
"""

import argparse
import bisect
import contextlib
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
NAMES = ("gadgets", "refute", "boards", "size2")
SETUP_REPEATS = 3
IMPORT_REPEATS = 11
MIN_ROUNDS = 2  # a traced run needs an untraced and a traced round
TAIL_MIN_INSTANCES = 200  # a 95th percentile with ten instances beyond it
COUNTED_QUERIES = ("solve", "outcome", "delay")  # their last_stats cover the whole call
# About the time of calibrate() on the machine of the reference figures in
# README.md.  Each time is scaled by the machine's mean speed around its
# call, measured against this, so the end-to-end times read as seconds on
# that machine at that speed, whatever speed the shared host gives the run.
CALIBRATION_REF_S = 0.0022
CALIBRATION_PERIOD_S = 0.1
CALIBRATION_WINDOW_S = 0.5  # a call's speed: the samples from this long before to after it


def calibrate() -> float:
    """The time of a fixed piece of pure-Python work of the solver's kind:
    bit tricks on ints, tuple keys, small sets, sorting and a dict memo."""
    t0 = time.perf_counter()
    memo = {}
    for a in range(600):
        m = (a * 2654435761) & 0xFFFFFF
        s = {m & ~(1 << b) for b in range(0, 24, 3) if m >> b & 1}
        memo[(m & 0xFFF, m >> 12, m.bit_count())] = sorted(s)[:2]
        memo.get((a, a))
    return time.perf_counter() - t0


class Calibration:
    """Samples the machine's speed while an untraced round runs: a timer
    signal runs calibrate() every CALIBRATION_PERIOD_S, in the middle of a
    long call into apg too, and the recorder leaves the time it takes out
    of that call's time."""

    def __init__(self, rec):
        self.rec = rec
        self.at: list[float] = []      # when each sample was taken
        self.speed: list[float] = []   # CALIBRATION_REF_S over its time

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.at.append(t0)
        self.speed.append(CALIBRATION_REF_S / calibrate())
        self.rec.paused += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def scale(self, start: float, end: float) -> float:
        """The factor that turns the time of work done from ``start`` to
        ``end`` into its time at the reference speed: the mean speed of the
        samples from CALIBRATION_WINDOW_S before to after it, or of the
        whole round if there are none.  A mean, not a median: the host
        switches between a fast and a slow state, and a median would jump
        from one to the other."""
        lo = bisect.bisect_left(self.at, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + CALIBRATION_WINDOW_S)
        return statistics.fmean(self.speed[lo:hi] or self.speed or [CALIBRATION_REF_S / calibrate()])


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics, as
    BENCHMARK.json at the root of the checkout lists them."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_apg() -> None:
    """Import apg from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "apg", "__init__.py")):
        sys.exit(f"benchmark: no apg sources in {SRC}")
    sys.path.insert(0, SRC)
    import apg
    if os.path.dirname(os.path.dirname(os.path.abspath(apg.__file__))) != SRC:
        sys.exit(f"benchmark: imported apg from {apg.__file__}, not from {SRC}")


def import_seconds(calibration: Calibration) -> float:
    """Median time of ``import apg`` in fresh interpreters, at the
    reference speed: one import is too short and too jittery to time alone."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import apg; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        took = float(subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                                    text=True, check=True, timeout=60).stdout)
        times.append(took * calibration.scale(start, time.perf_counter()))
    return statistics.median(times)


def round_counts(instances, answers) -> dict:
    """Work counts of one round, from the answers' ``last_stats``."""
    c = {"nodes": 0, "hits": 0, "depth": 0, "delay_nodes": 0, "plies": 0, "per_instance": {}}
    for inst in instances:
        ans = answers[inst.id][0]
        if not isinstance(ans, dict):
            continue
        stats = ans.get("stats", [])
        nodes = sum(s[1] for s in stats)
        c["per_instance"][inst.id] = nodes
        c["nodes"] += nodes
        c["hits"] += sum(s[2] for s in stats)
        c["depth"] = max([c["depth"]] + [s[3] for s in stats])
        c["delay_nodes"] += sum(s[1] for s in stats if s[0] == "delay")
        c["plies"] += ans["self_play"][1] if "self_play" in ans else 0
    return c


def busy(spans, layer=None, fns=None, kinds=None, kind_of=None) -> float:
    return sum(s[6] - s[5] for s in spans
               if s[2] != "bench" and (layer is None or s[2] == layer)
               and (fns is None or s[3] in fns)
               and (kinds is None or kind_of.get(s[4]) in kinds))


def layer_metrics(traced, setup_spans, kind_of, overhead_pct) -> dict:
    """Per-layer metrics: medians over the traced rounds and set-up passes."""
    def med(f):
        return statistics.median(f(r) for r in traced)

    def setup_ms(layer, fns=None):
        return 1000 * statistics.median(busy(s, layer, fns) for s in setup_spans)

    def in_solver(r, fns=None):
        return busy(r["spans"], "solver", fns)

    counted = [in_solver(r, COUNTED_QUERIES) for r in traced]
    nodes = med(lambda r: r["counts"]["nodes"])
    return {
        "solver.query_s": med(in_solver),
        "solver.queries": med(lambda r: sum(s[2] == "solver" for s in r["spans"])),
        "solver.nodes": nodes,
        "solver.nodes_per_s": nodes / statistics.median(counted) if nodes else 0.0,
        "solver.memo_hits": med(lambda r: r["counts"]["hits"]),
        "solver.memo_hit_rate": med(lambda r: r["counts"]["hits"]) / nodes if nodes else 0.0,
        "solver.max_depth": med(lambda r: r["counts"]["depth"]),
        "solver.delay_s": med(lambda r: in_solver(r, ("delay",))),
        "solver.delay_nodes": med(lambda r: r["counts"]["delay_nodes"]),
        "solver.self_play_s": med(lambda r: in_solver(r, ("self_play",))),
        "solver.self_play_plies": med(lambda r: r["counts"]["plies"]),
        "reductions.refute_s": med(lambda r: busy(r["spans"], "reductions",
                                                  ("solve_against_canonical_right",))),
        "reductions.compile_ms": setup_ms("reductions",
                                          ("sat_draw_game", "sat_win_game", "qbf_game")),
        "formats.roundtrip_ms": setup_ms("formats"),
        "core.build_ms": setup_ms("core"),
        **{f"poly22.{k}_s": med(lambda r, k=k: busy(r["spans"], "poly22", None, (k,), kind_of))
           for k in ("paths", "ladder", "dense")},
        "trace.overhead_pct": overhead_pct,
    }


def set_up(workload, rec):
    """Runs the workload's set-up SETUP_REPEATS times.  Returns the last
    pass's instances, the set-up time at the reference speed (untraced
    runs only report it, and only they calibrate) and each pass's spans."""
    walls, spans = [], []
    calibration = Calibration(rec)
    with contextlib.nullcontext() if rec.tracing else calibration:
        for _ in range(SETUP_REPEATS):
            mark, paused, t0 = len(rec.spans), rec.paused, time.perf_counter()
            with rec.group("setup"):
                instances = workload.setup(rec)
            t1 = time.perf_counter()
            walls.append((t1 - t0 - (rec.paused - paused)) * calibration.scale(t0, t1))
            spans.append([s for s in rec.spans[mark:] if s[2] != "bench"])
        imports = import_seconds(calibration)
    return instances, imports + statistics.median(walls), spans


def run_round(workload, rec, instances, order: random.Random, traced: bool) -> dict:
    """One round over every instance, in an order drawn from ``order``: the
    times inside apg of each instance's calls, the answers (or the exception
    an instance raised) and, if traced, spans.  An untraced round solves an
    instance ``inst.repeats`` times, for more samples of the short ones, and
    measures its ``scale`` (see Calibration).  The machine's speed drifts by
    tens of percent within seconds, so in a fixed order the instances that
    sit next to each other, and often next to each other in size, would all
    meet the same slow or fast spell in every round."""
    rec.tracing = traced
    mark = len(rec.spans)
    times = {inst.id: [] for inst in instances}
    answers = {inst.id: [] for inst in instances}
    windows = []  # (instance, start, end, time) of each instance's calls
    schedule = [inst for inst in instances for _ in range(1 if traced else inst.repeats)]
    rec.overhead = 0.0
    calibration = Calibration(rec)
    t0 = time.perf_counter()
    with rec.group("round"), (contextlib.nullcontext() if traced else calibration):
        for inst in order.sample(schedule, len(schedule)):
            gc.collect()  # each instance starts from the same heap, untimed
            rec.elapsed = 0.0
            start = time.perf_counter()
            with rec.group("instance", inst.id):
                try:
                    answers[inst.id].append(workload.solve(rec, inst))
                except Exception as exc:  # a fault in apg: count it and go on
                    answers[inst.id].append(exc)
            windows.append((inst.id, start, time.perf_counter(), rec.elapsed))
            times[inst.id].append(rec.elapsed)
    wall = time.perf_counter() - t0
    rec.tracing = False
    scaled = speed = None
    if not traced:
        scaled = {inst.id: [] for inst in instances}
        for ident, start, end, t in windows:
            scaled[ident].append(t * calibration.scale(start, end))
        speed = calibration.scale(t0, t0 + wall)
    return {"traced": traced, "wall": wall, "overhead": rec.overhead, "times": times,
            "scaled": scaled, "speed": speed, "answers": answers,
            "counts": round_counts(instances, answers),
            "spans": [s for s in rec.spans[mark:] if s[2] != "bench"]}


def more_rounds(elapsed: float, rounds: list, seconds: float) -> bool:
    """Whether another round brings the run's end closer to ``seconds``:
    the run then lasts ``seconds`` give or take half a round, or
    MIN_ROUNDS rounds if they take longer."""
    return elapsed + statistics.median(r["wall"] for r in rounds) / 2 < seconds


def check_round(workload, instances, r: dict, first_nodes: dict) -> list[str]:
    """The errors of one round's answers; the answers are dropped."""
    errors = []
    answers = r.pop("answers")
    for inst in instances:
        for ans in answers[inst.id]:
            if isinstance(ans, Exception):
                error = f"{inst.id}: {type(ans).__name__}: {ans}"
            elif r["counts"]["per_instance"].get(inst.id) != first_nodes.get(inst.id):
                error = f"{inst.id}: node count changed from one round to the next"
            else:
                error = workload.check(inst, ans)
            if error:  # one error per instance and round, however many repeats
                errors.append(error)
                break
    return errors


def write_spans(spans, name: str, seed: int) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{name}-seed{seed}.jsonl")
    keys = ("id", "parent", "layer", "function", "instance", "start", "end")
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(keys, s))) + "\n")
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    load_apg()
    from workloads import WORKLOADS, Recorder
    end_to_end, per_layer = metric_units()

    workload = WORKLOADS[name](seed)
    rec = Recorder()
    rec.tracing = trace
    instances, setup_s, setup_spans = set_up(workload, rec)
    # The inputs live to the end: keep the collector from rescanning them
    # before every instance, which cost 12 ms a time on size2.
    gc.collect()
    gc.freeze()

    rounds, first_nodes = [], None
    attempted = failed = 0
    order = random.Random(f"{name}/order/{seed}")
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or more_rounds(time.perf_counter() - start, rounds, seconds):
        r = run_round(workload, rec, instances, order, traced=trace and len(rounds) % 2 == 1)
        first_nodes = first_nodes or r["counts"]["per_instance"]
        errors = check_round(workload, instances, r, first_nodes)
        for error in errors:
            print(f"FAILED {name}: {error}", file=sys.stderr)
        attempted += len(instances)
        failed += len(errors)
        rounds.append(r)

    timed = [inst for inst in instances if inst.timed]
    plain = [r for r in rounds if not r["traced"]]
    per_instance_ms = [1000 * statistics.median(t for r in plain for t in r["scaled"][i.id])
                       for i in timed]
    raw_ms = [1000 * statistics.median(t for r in plain for t in r["times"][i.id])
              for i in timed]
    metrics = {
        "solve_s": sum(per_instance_ms) / 1000,
        "instance_ms_p50": statistics.median(per_instance_ms),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = end_to_end
    # Shown, but not in the JSON: a tail needs enough instances, and only
    # Solver queries report nodes.
    extra = {}
    if len(timed) >= TAIL_MIN_INSTANCES:
        extra["instance_ms_p95"] = (statistics.quantiles(per_instance_ms, n=20)[18], "ms")
    if rounds[0]["counts"]["nodes"]:
        extra["nodes"] = (rounds[0]["counts"]["nodes"], "count")
    print(f"workload: {name}  seed: {seed}  rounds: {len(rounds)}  "
          f"instances: {len(instances)} ({len(timed)} timed)")
    print("round solve_s: " + " ".join(f"{sum(r['times'][i.id][0] for i in timed):.4g}"
                                       for r in rounds) + " (as measured, first repeats)")
    print("round speed: " + " ".join(f"{r['speed']:.4g}" for r in plain)
          + " (untraced rounds, over the reference speed)")
    print(f"as measured: solve_s {sum(raw_ms) / 1000:.6g} s, "
          f"instance_ms_p50 {statistics.median(raw_ms):.6g} ms")
    for key, value in metrics.items():
        print(f"{key}: {value:.6g} {units[key]}")
    for key, (value, unit) in extra.items():
        print(f"{key}: {value:.6g} {unit}")

    if trace:
        traced = [r for r in rounds if r["traced"]]
        overhead = 100 * statistics.median(r["overhead"] / r["wall"] for r in traced)
        kind_of = {inst.id: inst.kind for inst in instances}
        metrics = layer_metrics(traced, setup_spans, kind_of, overhead)
        units = per_layer
        spans = [s for r in traced for s in r["spans"]]
        for layer in sorted({s[2] for s in spans}):
            mine = [s for s in spans if s[2] == layer]
            print(f"layer {layer}: busy {busy(mine) / len(traced):.6g} s/round, "
                  f"{len(mine) / len(traced):g} calls/round")
        for key, value in metrics.items():
            print(f"{key}: {value:.6g} {units[key]}")
        print(f"spans: {write_spans([s for s in rec.spans if s is not None], name, seed)}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
