"""End-to-end command-line coverage: subcommands, exit codes, determinism."""

import io
import json
import sys
from contextlib import redirect_stdout

import pytest

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


def test_resource_limit_exit_code(butterfly_file, monkeypatch):
    monkeypatch.setenv("APG_NODE_LIMIT", "2")
    code, _ = invoke(["solve", butterfly_file, "--first", "left"])
    assert code == 3


def test_deep_search_exit_code(tmp_path, capsys):
    # A game with more moves than the recursion limit allows frames must exit
    # 3 with one error line, not 1 with a traceback.  The limit is lowered for
    # the test so that a short chain reaches it quickly.
    n = 400
    path = tmp_path / "chain.apg"
    path.write_text("".join(f"{'blue' if i % 2 == 0 else 'red'} v{i} v{i + 1}\n"
                            for i in range(n - 1)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        code, out = invoke(["solve", str(path), "--first", "left", "--algo", "search"])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 3 and out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


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


def test_reduce_bad_dimacs_exit_code(tmp_path):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")  # clause of size 2
    code, _ = invoke(["reduce", "sat23", str(cnf), "-o", str(tmp_path / "x.apg")])
    assert code == 64


def test_gadget_size_guard_exit_code(tmp_path):
    code, _ = invoke(["gadget", "wk", "--k", "9", "-o", str(tmp_path / "w.apg")])
    assert code == 64

