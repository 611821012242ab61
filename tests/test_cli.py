"""End-to-end command-line coverage: subcommands, exit codes, determinism."""

import io
import json
import sys
from contextlib import redirect_stdout

import pytest

from apg import solver, verification
from apg.cli import run


def invoke(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


@pytest.fixture()
def butterfly_file(tmp_path):
    path = tmp_path / "bf.apg"
    code, _ = invoke(["gadget", "butterfly", "-o", str(path)])
    assert code == 0
    return str(path)


def test_solve_butterfly(butterfly_file):
    code, out = invoke(["solve", butterfly_file, "--first", "left"])
    assert code == 0
    assert "result: LeftWin" in out


def test_solve_trace(butterfly_file):
    code, out = invoke(["solve", butterfly_file, "--first", "left", "--trace"])
    assert code == 0
    assert "move_1: left alpha winning" in out
    assert "final: Won(Left)" in out


def test_outcome_empty(tmp_path):
    path = tmp_path / "empty.apg"
    path.write_text("vertices\n")
    code, out = invoke(["outcome", str(path)])
    assert code == 0
    assert "outcome: D" in out


def test_outcome_butterfly(butterfly_file):
    code, out = invoke(["outcome", butterfly_file])
    assert code == 0 and "outcome: L-" in out


def test_delay(butterfly_file):
    code, out = invoke(["delay", butterfly_file, "--player", "left"])
    assert code == 0 and "delay: 2" in out
    code, out = invoke(["delay", butterfly_file, "--player", "right"])
    assert code == 0 and "delay: inf" in out


def test_algo_auto_dispatch(tmp_path):
    path = tmp_path / "small.apg"
    path.write_text("blue a b\nred b c\n")
    code, out = invoke(["solve", str(path), "--first", "left"])
    assert code == 0 and "algo: poly22" in out
    code, out = invoke(["solve", str(path), "--first", "left", "--algo", "search"])
    assert code == 0 and "algo: search" in out


def test_union_with_table_check(butterfly_file, tmp_path):
    other = tmp_path / "w3r.apg"
    assert invoke(["gadget", "wk", "--k", "3", "--color", "red",
                   "-o", str(other)])[0] == 0
    code, out = invoke(["union", butterfly_file, str(other), "--check-table3"])
    assert code == 0
    assert "outcome_union: N" in out and "table3_ok: true" in out


def test_gadget_exemplar(tmp_path):
    path = tmp_path / "ex.apg"
    code, _ = invoke(["gadget", "exemplar", "--outcome", "R-", "-o", str(path)])
    assert code == 0
    code, out = invoke(["outcome", str(path)])
    assert "outcome: R-" in out


def test_reduce_and_provenance(tmp_path):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    out_game = tmp_path / "g.apg"
    prov = tmp_path / "prov.json"
    code, out = invoke(["reduce", "sat23", str(cnf), "-o", str(out_game),
                        "--provenance", str(prov)])
    assert code == 0 and "vertices: 15" in out
    mapping = json.loads(prov.read_text())
    assert len(set(mapping.values())) == 15


def test_reduce_with_an_unopenable_output_writes_nothing(tmp_path, capsys):
    # One of the two output paths is a directory or lies in a missing one:
    # the command fails before it writes either file or prints a line.
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    game, prov = tmp_path / "g.apg", tmp_path / "prov.json"
    for game_path, prov_path in ((game, tmp_path), (tmp_path / "no" / "g.apg", prov)):
        code, out = invoke(["reduce", "sat23", str(cnf), "-o", str(game_path),
                            "--provenance", str(prov_path)])
        err = capsys.readouterr().err
        assert code == 64 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not game.exists() and not prov.exists()


def test_delay_of_the_sat32_win_gadget(tmp_path):
    # The 35-vertex win gadget of (1 2 3)(-1 -2 -3): Left wins moving first,
    # and the pass game's bounded questions settle its delay.
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n")
    game = tmp_path / "w.apg"
    code, out = invoke(["reduce", "sat32", str(cnf), "-o", str(game)])
    assert code == 0 and "vertices: 35" in out
    code, out = invoke(["delay", str(game), "--player", "left"])
    assert code == 0 and out == "delay: 3\n"


def test_reduce_qbf(tmp_path):
    cnf = tmp_path / "psi.cnf"
    cnf.write_text("p cnf 2 1\n1 1 2 0\n")
    out_game = tmp_path / "q.apg"
    code, out = invoke(["reduce", "qbf33", str(cnf), "-o", str(out_game)])
    assert code == 0 and "vertices: 23" in out


def test_embed(tmp_path, butterfly_file):
    out_path = tmp_path / "mm.apg"
    code, out = invoke(["embed", "mm4", butterfly_file, "-o", str(out_path)])
    assert code == 0 and "rank: 4" in out and "anchors: uL uR" in out


def test_verify_exit_codes():
    code, out = invoke(["verify", "poly22", "--seed", "1", "--trials", "200"])
    assert code == 0
    assert "agreement: 200/200" in out


def test_verify_deterministic_output():
    _, out1 = invoke(["verify", "table3", "--seed", "7", "--trials", "40"])
    _, out2 = invoke(["verify", "table3", "--seed", "7", "--trials", "40"])
    assert out1 == out2


def test_verify_counts_every_failure(monkeypatch):
    # Only 20 failure messages are kept, but all 50 failures are counted, in
    # the battery's lines and in the agreement line.
    report = verification.BatteryReport("stub", checked=100)
    for i in range(50):
        report.fail(f"case {i}")
    assert len(report.failures) == 20 and not report.ok
    monkeypatch.setattr(verification, "poly22_agreement", lambda **_: report)
    code, out = invoke(["verify", "poly22"])
    lines = out.splitlines()
    assert code == 2
    assert "failures: 50" in lines and lines[-1] == "agreement: 50/100"
    assert sum(line.startswith("failure_detail: ") for line in lines) == 20


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.apg"
    bad.write_text("bloo a b\n")
    code, _ = invoke(["outcome", str(bad)])
    assert code == 64


def test_missing_file_exit_code():
    code, _ = invoke(["outcome", "/nonexistent/nope.apg"])
    assert code == 64


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["solve"])  # missing required --first and file
    assert exc.value.code == 64


@pytest.mark.parametrize("target", ["lemmas", "table3", "poly22"])
def test_negative_trials_is_a_usage_error(target, capsys):
    # Zero trials too: a battery that checks nothing must not pass.
    for trials in ("-5", "0"):
        with pytest.raises(SystemExit) as exc:
            run(["verify", target, "--trials", trials])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if line.startswith("error:")] \
            == [f"error: argument --trials: must be a positive integer, got {trials}"]


@pytest.mark.parametrize("limit", ["0", "-3", "abc"])
def test_bad_node_limit_is_a_usage_error(butterfly_file, monkeypatch, capsys, limit):
    monkeypatch.setenv("APG_NODE_LIMIT", limit)
    code, out = invoke(["outcome", butterfly_file])
    assert code == 64 and out == ""
    assert capsys.readouterr().err.splitlines() \
        == [f"error: APG_NODE_LIMIT must be a positive integer, got '{limit}'"]


def test_resource_limit_exit_code(butterfly_file, monkeypatch):
    # The butterfly's search takes two nodes: the parent reads Right's
    # double threats, so those children are never expanded.
    monkeypatch.setenv("APG_NODE_LIMIT", "1")
    code, _ = invoke(["solve", butterfly_file, "--first", "left"])
    assert code == 3


def test_out_of_memory_exit_code(butterfly_file, monkeypatch, capsys):
    # A search that runs out of memory exits 3 with one error line, not 1
    # with a traceback.  No memory is spent: the move generator raises.
    def exhausted(*args):
        raise MemoryError
    monkeypatch.setattr(solver, "expand", exhausted)
    code, out = invoke(["solve", butterfly_file, "--first", "left"])
    assert code == 3 and out == ""
    assert capsys.readouterr().err.splitlines() == ["error: the search ran out of memory"]


def chain_file(tmp_path, n, lead=""):
    """An alternating chain of blue and red pairs over ``n`` vertices, after
    the lines ``lead``."""
    path = tmp_path / "chain.apg"
    path.write_text(lead + "".join(f"{'blue' if i % 2 == 0 else 'red'} v{i} v{i + 1}\n"
                                   for i in range(n - 1)))
    return str(path)


# A red unit at the chain's head blocks every pairing of Right's edges, so
# the root does not settle "can Left avoid losing?" and the search follows
# the forced line down the chain.
DEEP = "red v0\n"


def test_deep_search_exit_code(tmp_path, capsys):
    # A game with more moves than the recursion limit allows frames must exit
    # 3 with one error line, not 1 with a traceback.  The limit is lowered for
    # the test so that a short chain reaches it quickly; a forced line takes
    # one frame per two moves.
    path = chain_file(tmp_path, 400, DEEP)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        code, out = invoke(["solve", path, "--first", "left", "--algo", "search"])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 3 and out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_long_chain_search_is_bounded_by_the_node_budget(tmp_path, capsys, monkeypatch):
    # Under the default recursion limit the search of a 1500-vertex chain,
    # which decides in 750 nodes, runs until its smaller node budget is
    # spent, and exits 3 with one error line.  A search that took a frame
    # per move would pass the recursion limit first.
    path = chain_file(tmp_path, 1500, DEEP)
    monkeypatch.setenv("APG_NODE_LIMIT", "500")
    code, out = invoke(["solve", path, "--first", "left", "--algo", "search"])
    assert code == 3 and out == ""
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: node budget exhausted (501 >= 500)"]


def test_paired_chain_is_decided_at_the_root(tmp_path):
    # Deeper than the recursion limit for the search, but each colour's
    # pairs are disjoint, so each side pairs the other's edges and both
    # questions are settled at the root.
    path = chain_file(tmp_path, 2000)
    code, out = invoke(["solve", path, "--first", "left", "--algo", "search"])
    assert code == 0
    assert "result: Draw" in out and "pairing_cutoffs: 2" in out
    # The stats block ends with the symmetry rule's two counters.
    assert out.splitlines()[-2:] == ["symmetry_cutoffs: 0", "symmetry_attempts: 0"]


def test_roundtrip_through_cli(tmp_path, butterfly_file):
    from apg import load_game

    g = load_game(butterfly_file)
    twice = tmp_path / "copy.apg"
    from apg import save_game

    save_game(g, str(twice))
    assert load_game(str(twice)) == g


def test_explicit_poly22_algo(tmp_path):
    path = tmp_path / "small.apg"
    path.write_text("blue a b\nblue b c\n")
    code, out = invoke(["solve", str(path), "--first", "left", "--algo", "poly22"])
    assert code == 0 and "result: LeftWin" in out and "algo: poly22" in out


def test_poly22_trace_is_a_usage_error(tmp_path, capsys):
    # Traces come from the search; the size-2 procedure has none to print.
    path = tmp_path / "small.apg"
    path.write_text("blue a b\nblue b c\n")
    code, out = invoke(["solve", str(path), "--first", "left", "--algo", "poly22",
                        "--trace"])
    assert code == 64 and out == ""
    assert capsys.readouterr().err.splitlines() == [
        "error: --trace needs --algo search or auto: traces come from the search"]


def test_reduce_bad_dimacs_exit_code(tmp_path):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")  # clause of size 2
    code, _ = invoke(["reduce", "sat23", str(cnf), "-o", str(tmp_path / "x.apg")])
    assert code == 64


def test_out_of_range_literal_names_its_line(tmp_path, capsys):
    cnf = tmp_path / "oor.cnf"
    cnf.write_text("c a comment\np cnf 2 2\n1 2 -1 0\n1 -2 5 0\n")
    code, out = invoke(["reduce", "sat23", str(cnf), "-o", str(tmp_path / "x.apg")])
    assert code == 64 and out == ""
    assert capsys.readouterr().err.splitlines() == [
        f"error: {cnf}:4: literal 5 out of range for 2 variables"]


@pytest.mark.parametrize("name, data, command", [
    ("in.apg", b"blue caf\xe9 b\n", ["solve", "--first", "left"]),
    ("in.cnf", b"c caf\xe9\np cnf 3 1\n1 2 3 0\n", ["reduce", "sat23"]),
], ids=["solve", "reduce"])
def test_non_utf8_input_is_an_input_error(tmp_path, capsys, name, data, command):
    # Latin-1 "é" (0xE9) starts no UTF-8 sequence here.
    path, game = tmp_path / name, tmp_path / "out.apg"
    path.write_bytes(data)
    argv = command + [str(path)]
    if command[0] == "reduce":
        argv += ["-o", str(game)]
    code, out = invoke(argv)
    assert code == 64 and out == "" and not game.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_gadget_size_guard_exit_code(tmp_path):
    code, _ = invoke(["gadget", "wk", "--k", "9", "-o", str(tmp_path / "w.apg")])
    assert code == 64

