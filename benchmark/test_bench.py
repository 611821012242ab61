"""Self-tests of the benchmark: every checker rejects a corrupted answer, the
calibration samples the machine's speed in the middle of a call without
counting its own time, a short run of every workload passes, and a run
without the sources fails.

    python3 -m pytest benchmark/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run

run.load_apg()

import workloads as W  # noqa: E402
from apg import CanonicalRightResult, GameResult, Outcome  # noqa: E402

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def instances(workload):
    return {inst.id: inst for inst in workload.setup(W.Recorder())}


def solved(workload, inst):
    answer = workload.solve(W.Recorder(), inst)
    assert workload.check(inst, answer) is None
    return answer


def rejects(workload, inst, answer, **corrupt):
    assert workload.check(inst, {**answer, **corrupt}) is not None


def test_gadgets_checker_rejects_wrong_values():
    wl = W.Gadgets(1)
    by_id = instances(wl)
    for ident, wrong in (("draw/u1", GameResult.DRAW), ("win/u1", GameResult.LEFT_WIN),
                         ("draw/phi3", GameResult.RIGHT_WIN), ("qbf/q2s", GameResult.LEFT_WIN),
                         ("qbf/q4f", GameResult.DRAW)):
        inst = by_id[ident]
        rejects(wl, inst, solved(wl, inst), result=wrong)


def test_refute_checker_rejects_wrong_values():
    wl = W.Refute(1)
    by_id = instances(wl)
    for ident, wrong in (("draw/u1", CanonicalRightResult.LEFT_NON_LOSING),
                         ("win/phi3", CanonicalRightResult.RIGHT_WINS)):
        inst = by_id[ident]
        rejects(wl, inst, solved(wl, inst), result=wrong)


def test_boards_checker_rejects_broken_properties():
    wl = W.Boards(1)
    by_id = instances(wl)
    hub = by_id["hub/3"]
    rejects(wl, hub, solved(wl, hub), delay=3)
    board = next(i for i in by_id.values()
                 if i.kind == "board" and i.data["delay"] and i.data["mirror"])
    answer = solved(wl, board)
    o = answer["outcome"]
    rejects(wl, board, answer, mirror=o if o is not o.mirrored else Outcome.L)
    wrong_end = next(r for r in GameResult if r is not o.when_left_starts)
    rejects(wl, board, answer, self_play=(wrong_end, answer["self_play"][1]))
    flipped = [2.0 if d == float("inf") else float("inf") for d in answer["delays"]]
    rejects(wl, board, answer, delays=flipped)


def test_size2_checker_rejects_broken_properties():
    wl = W.Size2(1)
    by_id = instances(wl)
    small = next(i for i in by_id.values() if i.kind == "small")
    answer = solved(wl, small)
    rejects(wl, small, answer, value=next(r for r in GameResult if r is not answer["value"]))
    for variant in ("mirror", "with_d"):
        inst = next(i for i in by_id.values() if variant in i.data)
        answer = solved(wl, inst)
        rejects(wl, inst, answer, **{variant: next(r for r in GameResult
                                                   if r is not answer[variant])})
    # An extra blue edge may not lower Left's result: find a board Right
    # does not win, and claim that the extra edge hands it to Right.
    for inst in (i for i in by_id.values() if "more_blue" in i.data):
        answer = solved(wl, inst)
        if answer["value"] is not GameResult.RIGHT_WIN:
            rejects(wl, inst, answer, more_blue=GameResult.RIGHT_WIN)
            break
    else:
        pytest.fail("every board with an extra blue edge is a RightWin")


def test_calibration_samples_during_a_call_and_leaves_its_time_out():
    rec = W.Recorder()
    with run.Calibration(rec) as calibration:
        rec.call("bench", time.sleep, 0.45)
    assert len(calibration.speed) >= 3
    assert rec.paused > 0
    # The sleep keeps its deadline, so the call lasts 0.45 s in all, of which
    # the calibrations took ``paused``.
    assert abs(rec.elapsed - (0.45 - rec.paused)) < 0.005
    start = calibration.at[0]
    assert calibration.scale(start, start) > 0


@pytest.mark.parametrize("name", run.NAMES)
def test_smoke_run_passes(name):
    proc = subprocess.run([sys.executable, RUN, "--workload", name, "--seed", "7",
                           "--seconds", "0", "--trace", "0"],
                          capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.metric_units()[0])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_sources_fails(tmp_path):
    copy = tmp_path / "benchmark"
    shutil.copytree(os.path.dirname(RUN), copy,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload", "gadgets",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
