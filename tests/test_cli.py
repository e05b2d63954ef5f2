"""Command-line behavior: outputs, exit codes, formats, determinism."""

import json
import os
import subprocess
import sys

import pytest

from tdcount import cli, dpcore, oracle
from tdcount.treedecomp import Violation, ViolationKind

PROG = "a :- not b. b :- not a.\n"
CNF = "p cnf 2 1\n1 -2 0\n"
WCNF = "p cnf 2 1\nw 1 1/2 0\nw -1 1/2 0\nw 2 1/2 0\nw -2 1/2 0\n1 -2 0\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(tmp_path, capsys):
    path = write(tmp_path, "p.lp", PROG)
    code, out, _ = run(capsys, "count", path)
    assert code == 0
    assert out == "2\n"


def test_count_json_shape(tmp_path, capsys):
    path = write(tmp_path, "p.lp", PROG)
    code, out, _ = run(capsys, "count", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == 2
    assert payload["width"] == 1
    assert payload["heuristic"] == "min-fill"
    assert payload["seed"] == 0
    assert isinstance(payload["elapsed_ms"], int)
    assert list(payload) == sorted(payload)


def test_json_runs_agree_modulo_elapsed(tmp_path, capsys):
    path = write(tmp_path, "p.lp", PROG)
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "count", path, "--json", "--seeds", "3")
        payload = json.loads(out)
        payload.pop("elapsed_ms")
        outputs.append(payload)
    assert outputs[0] == outputs[1]


def test_solve_exit_codes(tmp_path, capsys):
    sat = write(tmp_path, "sat.lp", "a.")
    unsat = write(tmp_path, "unsat.lp", "a. :- a.")
    code, out, _ = run(capsys, "solve", sat)
    assert (code, out) == (10, "CONSISTENT\n")
    code, out, _ = run(capsys, "solve", unsat)
    assert (code, out) == (20, "INCONSISTENT\n")
    code, out, _ = run(capsys, "solve", write(tmp_path, "d.lp", ":- ."))
    assert (code, out) == (20, "INCONSISTENT\n")


def test_enumerate_prints_answer_sets(tmp_path, capsys):
    path = write(tmp_path, "p.lp", "a :- not b. b :- not a. c :- a.")
    code, out, _ = run(capsys, "enumerate", path)
    assert code == 0
    assert out == "a c\nb\n"


def test_enumerate_limit(tmp_path, capsys):
    path = write(tmp_path, "p.lp", PROG)
    _, out, _ = run(capsys, "enumerate", path, "--limit", "1")
    assert out == "a\n"


def test_enumerate_empty_answer_set_prints_blank_line(tmp_path, capsys):
    path = write(tmp_path, "p.lp", "a :- b.")
    _, out, _ = run(capsys, "enumerate", path)
    assert out == "\n"


def test_optcount_output(tmp_path, capsys):
    path = write(tmp_path, "p.lp", "a | b. #minimize{ 1:a; 2:b }.")
    code, out, _ = run(capsys, "optcount", path)
    assert (code, out) == (0, "1 1\n")
    path = write(tmp_path, "bad.lp", "a. :- a.")
    code, out, _ = run(capsys, "optcount", path)
    assert (code, out) == (0, "INCONSISTENT\n")


def test_pcount_with_names(tmp_path, capsys):
    path = write(tmp_path, "p.lp", "a :- not b. b :- not a. c :- a.")
    code, out, _ = run(capsys, "pcount", path, "--project", "c")
    assert (code, out) == (0, "2\n")
    code, out, _ = run(capsys, "pcount", path, "--project", "")
    assert (code, out) == (0, "1\n")


def test_pcount_unknown_atom(tmp_path, capsys):
    path = write(tmp_path, "p.lp", PROG)
    code, _, err = run(capsys, "pcount", path, "--project", "zzz")
    assert code == 1
    assert "zzz" in err


def test_mc_wmc_pmc(tmp_path, capsys):
    plain = write(tmp_path, "f.cnf", CNF)
    weighted = write(tmp_path, "w.cnf", WCNF)
    assert run(capsys, "mc", plain) == (0, "3\n", "")
    assert run(capsys, "wmc", weighted) == (0, "3/4\n", "")
    assert run(capsys, "pmc", plain, "--project-vars", "1") == (0, "2\n", "")
    assert run(capsys, "pmc", plain, "--project-vars", "1,2") == (0, "3\n", "")


def test_pmc_rejects_bad_variables(tmp_path, capsys):
    path = write(tmp_path, "f.cnf", CNF)
    assert run(capsys, "pmc", path, "--project-vars", "7")[0] == 1
    assert run(capsys, "pmc", path, "--project-vars", "x")[0] == 1


def test_pmc_too_deep_for_projection_exits_two(tmp_path):
    # the projection pass recurses once per node of a path, so a
    # 1500-variable path projected onto every variable exceeds the
    # default recursion limit; the CLI reports it in one line
    n = 1500
    clauses = "".join(f"{i} {i + 1} 0\n" for i in range(1, n))
    path = write(tmp_path, "path.cnf", f"p cnf {n} {n - 1}\n{clauses}")
    project = ",".join(str(v) for v in range(1, n + 1))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-m", "tdcount", "pmc", path, "--project-vars", project],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("error: instance too deep for the projection pass")


def test_format_sniffing(tmp_path, capsys):
    by_content = write(tmp_path, "noext", CNF)
    assert run(capsys, "mc", by_content)[0] == 0
    smodels = write(tmp_path, "ground", "1 1 1 1 2\n0\n1 a\n2 b\n0\nB+\n0\nB-\n0\n1\n")
    code, out, _ = run(capsys, "count", smodels)
    assert (code, out) == (0, "1\n")
    forced = run(capsys, "count", by_content, "--format", "asp")
    assert forced[0] == 1


def test_command_and_format_must_agree(tmp_path, capsys):
    prog = write(tmp_path, "p.lp", PROG)
    cnf = write(tmp_path, "f.cnf", CNF)
    assert run(capsys, "mc", prog)[0] == 1
    assert run(capsys, "count", cnf)[0] == 1


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "p.lp", "a :- X.")
    code, _, err = run(capsys, "count", path)
    assert code == 1
    assert "variable" in err


def test_unsupported_rule_exit_code(tmp_path, capsys):
    path = write(tmp_path, "p.sm", "3 1 1 0 0\n0\n0\nB+\n0\nB-\n0\n1\n")
    code, _, err = run(capsys, "count", path)
    assert code == 2
    assert "unsupported" in err


def test_oracle_check_too_large_exit_code(tmp_path, capsys):
    text = " ".join(f"a{i}." for i in range(21))
    path = write(tmp_path, "big.lp", text)
    code, _, err = run(capsys, "count", path, "--oracle-check")
    assert code == 2
    assert "brute-force" in err


def test_oracle_check_reports_ok(tmp_path, capsys):
    path = write(tmp_path, "p.lp", PROG)
    code, out, err = run(capsys, "count", path, "--oracle-check")
    assert (code, out) == (0, "2\n")
    assert "oracle-check: ok" in err


def test_missing_file(capsys):
    assert run(capsys, "count", "/does/not/exist.lp")[0] == 1


def test_usage_errors(tmp_path, capsys):
    prog = write(tmp_path, "p.lp", PROG)
    assert run(capsys, "count", prog, "--graph", "incidence")[0] == 1
    assert run(capsys, "count", prog, "--seeds", "0")[0] == 1


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(PROG))
    code, out, _ = run(capsys, "count", "-")
    assert (code, out) == (0, "2\n")


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "p.lp", PROG)
    monkeypatch.setenv("TDCOUNT_SEED", "7")
    payload = json.loads(run(capsys, "count", path, "--json")[1])
    assert payload["seed"] == 7
    payload = json.loads(run(capsys, "count", path, "--json", "--seed", "2")[1])
    assert payload["seed"] == 2


def test_trace_file(tmp_path, capsys):
    path = write(tmp_path, "p.lp", PROG)
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run(capsys, "count", path, "--trace", str(trace))
    assert code == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert records
    assert [r["node"] for r in records] == list(range(len(records)))
    for r in records:
        assert {"node", "type", "bag", "rows", "max_witness_set"} <= set(r)


def test_td_stats(tmp_path, capsys):
    path = write(tmp_path, "p.lp", PROG)
    code, out, _ = run(capsys, "td-stats", path, "--seeds", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "seed=0 width=1"
    assert lines[-1] == "best seed=0 width=1"


def test_td_stats_incidence(tmp_path, capsys):
    prog = write(tmp_path, "p.lp", PROG)
    code, out, _ = run(capsys, "td-stats", prog, "--graph", "incidence")
    assert code == 0
    cnf = write(tmp_path, "f.cnf", CNF)
    code, out, _ = run(capsys, "td-stats", cnf, "--graph", "incidence", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["graph"] == "incidence"
    assert len(payload["result"]["widths"]) == 5


@pytest.mark.parametrize(
    "command, name, text, oracle_name, wrong",
    [
        ("mc", "f.cnf", CNF, "brute_count_models", lambda formula: 99),
        ("solve", "p.lp", PROG, "brute_answer_sets", lambda program: []),
    ],
    ids=["mc", "solve"],
)
def test_oracle_check_mismatch_exits_one(
    tmp_path, capsys, monkeypatch, command, name, text, oracle_name, wrong
):
    monkeypatch.setattr(oracle, oracle_name, wrong)
    code, _, err = run(capsys, command, write(tmp_path, name, text), "--oracle-check")
    assert code == 1
    assert "oracle-check: mismatch" in err


def test_td_stats_oracle_check_mismatch_exits_one(tmp_path, capsys, monkeypatch):
    violation = Violation(ViolationKind.EDGE_NOT_COVERED, (0, 1))
    monkeypatch.setattr(cli, "validate_td", lambda graph, td: violation)
    path = write(tmp_path, "p.lp", PROG)
    code, out, err = run(capsys, "td-stats", path, "--seeds", "2", "--oracle-check")
    assert code == 1
    assert out.splitlines()[-1] == "best seed=0 width=1"
    lines = err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("oracle-check: mismatch seed=") for line in lines)
    assert "edge-not-covered" in lines[0]


def test_td_stats_oracle_check_reports_ok(tmp_path, capsys):
    path = write(tmp_path, "p.lp", PROG)
    plain = run(capsys, "td-stats", path, "--seeds", "3")
    code, out, err = run(capsys, "td-stats", path, "--seeds", "3", "--oracle-check")
    assert code == plain[0] == 0
    assert out == plain[1]
    assert err == "oracle-check: ok (3 decompositions)\n"


def _raise_memory_error(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("target", ["table pass", "decompose"])
def test_memory_error_is_one_line_exit_two(tmp_path, capsys, monkeypatch, target):
    # inside the table pass the MemoryError arrives as the cause of a
    # HandlerFailureError; elsewhere it arrives bare
    if target == "table pass":
        monkeypatch.setattr(dpcore, "_check_table", _raise_memory_error)
    else:
        monkeypatch.setattr(cli, "decompose", _raise_memory_error)
    path = write(tmp_path, "p.lp", PROG)
    code, out, err = run(capsys, "count", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory")
    assert len(err.splitlines()) == 1
