"""Command-line behavior: outputs, exit codes, formats, determinism."""

import io
import json
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest

from tdcount import cli, dpcore, oracle
from tdcount.errors import ParseError
from tdcount.parsers import parse_ground_program, parse_smodels
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


def test_pcount_names_unnamed_atoms_as_enumerate_prints_them(tmp_path, capsys):
    # two smodels rules `1 :- not 2.` and `2 :- not 1.` with no symbol table
    path = write(tmp_path, "s.sm", "1 1 1 1 2\n1 2 1 1 1\n0\n0\nB+\n0\nB-\n0\n1\n")
    assert run(capsys, "enumerate", path) == (0, "x0\nx1\n", "")
    program = parse_smodels(open(path).read())
    for project, atoms in (("x0", {0}), ("x0,x1", {0, 1})):
        expected = oracle.brute_projected_count(program, atoms)
        assert run(capsys, "pcount", path, "--project", project, "--oracle-check") == (
            0, f"{expected}\n", f"oracle-check: ok ({expected})\n"
        )


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


def _subprocess(*argv, stdin=None, **env):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **env)
    return subprocess.run(
        [sys.executable, "-m", "tdcount", *argv],
        input=stdin, capture_output=True, env=env, timeout=120,
    )


def test_deep_pmc_counts_the_path_in_one_pass(tmp_path):
    # a 1500-variable path projected onto every variable: the one table
    # pass of projected CNF counting does not recurse, so it answers
    # the path's model count F(n+2), with F(1) = F(2) = 1
    n = 1500
    clauses = "".join(f"{i} {i + 1} 0\n" for i in range(1, n))
    path = write(tmp_path, "path.cnf", f"p cnf {n} {n - 1}\n{clauses}")
    project = ",".join(str(v) for v in range(1, n + 1))
    out = _subprocess("pmc", path, "--project-vars", project)
    a, b = 0, 1  # F(0), F(1)
    for _ in range(n + 2):
        a, b = b, a + b
    assert (out.returncode, out.stderr) == (0, b"")
    assert out.stdout == f"{a}\n".encode()


@pytest.mark.parametrize(
    "rules",
    [
        lambda n: "a0.\n" + "".join(f"a{i + 1} :- a{i}.\n" for i in range(n - 1)),
        lambda n: "".join(f"a{i} :- not a{i + 1}.\n" for i in range(n - 1)),
    ],
    ids=["implications", "negations"],
)
def test_deep_pcount_counts_the_chain_in_one_pass(tmp_path, rules):
    # a 1500-atom chain projected onto every atom: the one table pass of
    # projected counting does not recurse, and each chain has exactly
    # one answer set
    n = 1500
    path = write(tmp_path, "chain.lp", rules(n))
    project = ",".join(f"a{i}" for i in range(n))
    out = _subprocess("pcount", path, "--project", project)
    assert (out.returncode, out.stdout, out.stderr) == (0, b"1\n", b"")


def test_format_sniffing(tmp_path, capsys):
    by_content = write(tmp_path, "noext", CNF)
    assert run(capsys, "mc", by_content)[0] == 0
    smodels = write(tmp_path, "ground", "1 1 1 1 2\n0\n1 a\n2 b\n0\nB+\n0\nB-\n0\n1\n")
    code, out, _ = run(capsys, "count", smodels)
    assert (code, out) == (0, "1\n")
    forced = run(capsys, "count", by_content, "--format", "asp")
    assert forced[0] == 1
    # a `c` line decides nothing, even with a dot; `p cnf` is the header
    commented = write(tmp_path, "commented", "c made by gen 1.0\np cnf 1 1\n1 0\n")
    assert run(capsys, "mc", commented)[:2] == (0, "1\n")
    # rules whose first atom is `w` or `p` are ASP
    for text in ("w :- a. a.", "p :- a. a."):
        program = write(tmp_path, "rules", text)
        assert run(capsys, "count", program)[:2] == (0, "1\n"), text


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
    cnf = write(tmp_path, "f.cnf", CNF)
    assert run(capsys, "count", prog, "--graph", "incidence")[0] == 1
    unrecognized = "error: unrecognized arguments: --graph incidence\n"
    assert run(capsys, "mc", cnf, "--graph", "incidence") == (1, "", unrecognized)
    assert run(capsys, "pmc", cnf, "--graph", "incidence", "--project-vars", "1")[0] == 1
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


def test_seed_env_must_be_an_integer(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "p.lp", PROG)
    monkeypatch.setenv("TDCOUNT_SEED", "abc")
    error = "error: TDCOUNT_SEED must be an integer, not 'abc'\n"
    assert run(capsys, "count", path) == (1, "", error)
    # an explicit --seed does not read the environment
    assert run(capsys, "count", path, "--seed", "2") == (0, "2\n", "")


def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "p.lp"
    path.write_bytes(b"\xffa.\n")
    assert run(capsys, "count", str(path)) == (1, "", f"error: {path} is not UTF-8 text (byte 0)\n")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"a.\n\xfe"), encoding="utf-8"))
    assert run(capsys, "count", "-") == (1, "", "error: stdin is not UTF-8 text (byte 3)\n")


def test_stdin_that_is_not_utf8_is_an_input_error_in_utf8_mode():
    # UTF-8 mode decodes stdin with surrogateescape, which would pass the
    # bad byte on to the parser; stdin is read as bytes instead
    out = _subprocess("count", "-", stdin=b"a.\n\xff", PYTHONUTF8="1")
    assert (out.returncode, out.stdout) == (1, b"")
    assert out.stderr == b"error: stdin is not UTF-8 text (byte 3)\n"
    out = _subprocess("count", "-", stdin="% café\na.\n".encode(), PYTHONUTF8="1")
    assert (out.returncode, out.stdout, out.stderr) == (0, b"1\n", b"")


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


@pytest.mark.parametrize(
    "command", ["count", "solve", "enumerate", "optcount", "pcount", "mc", "wmc", "pmc"]
)
def test_atomless_rule_writes_no_trace_record(tmp_path, capsys, command):
    # `:- .` and an empty clause are never satisfied: answered before any table
    if command in ("mc", "wmc", "pmc"):
        path = write(tmp_path, "bad.cnf", "p cnf 2 2\n1 2 0\n0\n")
    else:
        path = write(tmp_path, "bad.lp", "a :- not b. :- .")
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run(capsys, command, path, "--trace", str(trace), "--oracle-check")
    assert code == (20 if command == "solve" else 0)
    assert trace.read_text() == ""


def test_td_stats(tmp_path, capsys):
    path = write(tmp_path, "p.lp", PROG)
    code, out, _ = run(capsys, "td-stats", path, "--seeds", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "seed=0 width=1"
    assert lines[-1] == "best seed=0 width=1"


def test_projected_commands_report_the_best_of_their_seeds(tmp_path, capsys):
    # pcount and pmc decompose the primal graph as td-stats does: --seeds
    # keeps the lowest width, ties to the lowest seed.  On these inputs
    # seed 0 is not the best one
    import corpus

    def constraints(formula):
        # the clauses as constraints, on the same graph up to atom order
        return "".join(
            ":- " + ", ".join(("" if lit > 0 else "not ") + f"x{abs(lit)}" for lit in clause)
            + ".\n"
            for clause in (sorted(c, key=abs) for c in formula.clauses)
        )

    cases = [
        ("pmc", "f.cnf", corpus.dimacs_text(corpus.banded_cnf(seed, 60)), "--project-vars", "1,8")
        for seed in (2, 17)
    ]
    cases.append(("pcount", "p.lp", constraints(corpus.banded_cnf(21, 60)), "--project", "x1,x8"))
    for command, name, text, *projection in cases:
        path = write(tmp_path, name, text)
        code, out, _ = run(capsys, "td-stats", path, "--json", "--seeds", "3")
        stats = json.loads(out)["result"]
        assert code == 0 and stats["best_seed"] != 0
        code, out, _ = run(capsys, command, path, *projection, "--json", "--seeds", "3")
        payload = json.loads(out)
        assert code == 0
        assert (payload["width"], payload["seed"]) == (stats["best_width"], stats["best_seed"])


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
        ("count", "p.lp", PROG, "brute_answer_sets", lambda program: []),
        ("solve", "p.lp", PROG, "brute_answer_sets", lambda program: []),
        ("enumerate", "p.lp", PROG, "brute_answer_sets", lambda program: []),
        ("optcount", "p.lp", PROG, "brute_optimum", lambda program: (5, 5)),
        ("pcount", "p.lp", PROG, "brute_projected_count", lambda program, projection: 99),
        ("mc", "f.cnf", CNF, "brute_count_models", lambda formula: 99),
        ("wmc", "w.cnf", WCNF, "brute_weighted_count", lambda formula: Fraction(99)),
        ("pmc", "f.cnf", CNF, "brute_projected_count", lambda formula, projection: 99),
    ],
    ids=["count", "solve", "enumerate", "optcount", "pcount", "mc", "wmc", "pmc"],
)
def test_oracle_check_mismatch_exits_one(
    tmp_path, capsys, monkeypatch, command, name, text, oracle_name, wrong
):
    monkeypatch.setattr(oracle, oracle_name, wrong)
    code, _, err = run(capsys, command, write(tmp_path, name, text), "--oracle-check")
    assert code == 1
    assert err.startswith("oracle-check: mismatch dp=")


def test_enumerate_limit_is_checked_against_the_oracles_first_answer_sets(
    tmp_path, capsys, monkeypatch
):
    path = write(tmp_path, "p.lp", "a :- not b. b :- not a. c :- not d. d :- not c.")
    assert run(capsys, "enumerate", path, "--limit", "2", "--oracle-check") == (
        0, "a c\na d\n", "oracle-check: ok (2)\n"
    )
    for limit in ("0", "-1"):
        assert run(capsys, "enumerate", path, "--limit", limit, "--oracle-check") == (
            1, "", "error: --limit must be positive\n"
        )
    big = write(tmp_path, "big.lp", " ".join(f"a{i}." for i in range(21)))
    code, out, err = run(capsys, "enumerate", big, "--limit", "1", "--oracle-check")
    assert (code, out) == (2, "")
    assert "brute-force" in err
    # an oracle without the first answer set disagrees on the first two,
    # though not on their number
    brute = oracle.brute_answer_sets
    monkeypatch.setattr(oracle, "brute_answer_sets", lambda p: sorted(brute(p), key=sorted)[1:])
    assert run(capsys, "enumerate", path, "--limit", "2", "--oracle-check") == (
        1, "a c\na d\n", "oracle-check: mismatch dp=2 oracle=2\n"
    )


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


class _Hog:
    """Stands for the tables a failing pass still holds."""


class _StderrNeedingMemory(io.StringIO):
    """Writing fails while a hog is alive, as allocating does once
    memory has run out."""

    def __init__(self, hogs):
        super().__init__()
        self.hogs = hogs

    def write(self, text):
        if any(ref() is not None for ref in self.hogs):
            raise MemoryError
        return super().write(text)


@pytest.mark.parametrize("command", ["count", "pcount"])
def test_out_of_memory_is_reported_after_its_frames_are_freed(tmp_path, monkeypatch, command):
    # `count` runs out inside the table pass (a handler failure caused by
    # MemoryError), `pcount` while decomposing (a bare MemoryError)
    hogs = []

    def hog_then_fail(*args, **kwargs):
        hog = _Hog()
        hogs.append(weakref.ref(hog))
        raise MemoryError

    if command == "count":
        monkeypatch.setattr(dpcore, "_check_table", hog_then_fail)
    else:
        monkeypatch.setattr(cli, "decompose", hog_then_fail)
    stderr = _StderrNeedingMemory(hogs)
    monkeypatch.setattr(sys, "stderr", stderr)
    code = cli.run([command, write(tmp_path, "p.lp", PROG)])
    assert code == 2
    assert len(hogs) == 1
    assert stderr.getvalue().startswith("error: out of memory")
    assert len(stderr.getvalue().splitlines()) == 1


# (input, the line it is bad on, exit code, message); an input cut short
# is bad on its last line
SMODELS_ERRORS = [
    ("1 1 0\n0\n", 1, 1, "truncated basic rule"),
    ("1 1 2 0 5\n0\n", 1, 1, "bad literal counts in basic rule"),
    ("1 1 0 -1\n0\n", 1, 1, "bad literal counts in basic rule"),
    ("1 0 1 0\n0\n", 1, 1, "bad literal counts in basic rule"),
    ("6 0 1\n0\n", 1, 1, "truncated minimize rule"),
    ("6 1 1 0 1 1\n0\n", 1, 1, "truncated minimize rule"),
    ("6 0 1 0 1\n0\n", 1, 1, "bad literal counts in minimize rule"),
    ("6 0 1 0 1 -3\n0\n1 a\n0\nB+\n0\nB-\n0\n1\n", 1, 1, "negative minimize weight -3"),
    ("8\n0\n", 1, 1, "truncated disjunctive rule"),
    ("8 -1 0 0\n0\n", 1, 1, "bad head count in disjunctive rule"),
    ("8 3 1 2 0 0\n0\n", 1, 1, "bad head count in disjunctive rule"),
    ("8 1 1 1 0\n0\n", 1, 1, "bad literal counts in disjunctive rule"),
    # a disjunctive rule numbers its heads before it checks the counts
    ("8 1 0 1 0\n0\n", 1, 1, "atom number 0 out of range"),
    ("9 1\n0\n", 1, 1, "unknown rule type 9"),
    ("3 1 1 0 0\n0\n", 1, 2, "unsupported rule type 3"),
    ("1 1 0 0\n1 0 0 0\n0\n", 2, 1, "atom number 0 out of range"),
    ("1 1 0 0\n1 a 0 0\n0\n", 2, 1, "non-numeric token in rules section"),
    ("1 1 0 0\n", 1, 1, "unexpected end of input in rules section"),
    ("1 1 0 0\n0\nx a\n0\n", 3, 1, "bad symbol table entry"),
    ("1 1 0 0\n0\n1 a\n0\nB-\n0\n1\n", 5, 1, "expected 'B+'"),
    ("1 1 0 0\n0\n1 a\n0\nB+\n0\n1\n", 7, 1, "expected 'B-'"),
    ("1 1 0 0\n0\n1 a\n0\nB+\n0 1\n0\nB-\n0\n1\n", 6, 1, "atom number 0 out of range"),
    ("1 1 0 0\n0\n1 a\n0\nB+\nx\n0\nB-\n0\n1\n", 6, 1, "non-numeric token in compute section"),
    ("1 1 0 0\n0\n1 a\n0\nB+\n0\n", 6, 1, "unexpected end of input in compute section"),
    ("1 1 0 0\n0\n1 a\n0\nB+\n0\nB-\n0\nx\n", 9, 1, "non-numeric token in model count"),
    ("1 1 0 0\n0\n1 a\n0\nB+\n0\nB-\n0\n1\n2\n", 10, 1, "trailing content after model count"),
    ("1 1 0 0\n1 2 0 0\n0\n1 a\n2 a\n0\n", 5, 1, "name 'a' given twice in symbol table"),
    ("1 1 0 0\n0\n1 a\n1 b\n0\n", 4, 1, "atom 1 named twice in symbol table"),
]
DIMACS_ERRORS = [
    ("p cnf 2 2\n1 0\n", None, 1, "header declares 2 clauses, found 1"),
    ("p cnf 2 1\n1 0\nw 1 1/2 0\n", 3, 1, "weight line after clauses"),
    ("p cnf 2 1\n3 0\n", 2, 1, "literal 3 exceeds declared variables"),
    ("p cnf 2 1\n1 2\n", 2, 1, "unterminated clause at end of input"),
]


# (input, line, column, message), each exiting 1; a tab and a form feed
# are one column each, "\r\n" ends one line, and a missing '.' is bad at
# the end of input
ASP_ERRORS = [
    ("a :- b(c).\n", 1, 7, "unexpected character '('"),
    ("a.\nb :- Xy.\n", 2, 6, "variable token 'Xy'; input must be ground"),
    ("a :- not not.\n", 1, 10, "'not' is not a valid atom name"),
    ("a.\nb :- a", 2, 7, "expected ',', got ''"),
    ("a.\n#maximize{ 1:a }.\n", 2, 1, "unknown directive '#maximize'"),
    ("a.\n:- b,, c.\n", 2, 6, "expected 'ident', got ','"),
    ("a.\r\nb :- c.\r\n:- d e.\r\n", 3, 6, "expected ',', got 'e'"),
    ("% a comment\na :- b c.\n", 2, 8, "expected ',', got 'c'"),
    ("a.\n\tb :-\x0c $.\n", 2, 8, "unexpected character '$'"),
]


def _blank_lines_before(text, line):
    lines = text.split("\n")
    lines[line - 1 : line - 1] = ["", ""]
    return "\n".join(lines)


def _error_cases(blank):
    for name, command, table in (("in.sm", "count", SMODELS_ERRORS), ("in.cnf", "mc", DIMACS_ERRORS)):
        for i, (text, line, code, message) in enumerate(table):
            if blank:
                text = _blank_lines_before(text, line or 2)
                line = line and line + 2
            case_id = f"{command}-{i}" + ("-blank" if blank else "")
            yield pytest.param(name, command, text, line, code, message, id=case_id)


@pytest.mark.parametrize(
    "name,command,text,line,code,message", [*_error_cases(False), *_error_cases(True)]
)
def test_malformed_input_names_its_line(tmp_path, capsys, name, command, text, line, code, message):
    got = run(capsys, command, write(tmp_path, name, text))
    where = "" if line is None else f"line {line}: "
    assert got == (code, "", f"error: {where}{message}\n")


def _asp_error_cases():
    for i, (text, line, column, message) in enumerate(ASP_ERRORS):
        yield pytest.param(text, line, column, message, id=f"lp-{i}")
        yield pytest.param(_blank_lines_before(text, line), line + 2, column, message, id=f"lp-{i}-blank")


@pytest.mark.parametrize("text,line,column,message", _asp_error_cases())
def test_malformed_asp_names_its_line_and_column(tmp_path, capsys, text, line, column, message):
    got = run(capsys, "count", write(tmp_path, "in.lp", text))
    assert got == (1, "", f"error: line {line}, column {column}: {message}\n")


def _lifted(convert):
    """`convert()` with Python's limit on int/text digits lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return convert()
    finally:
        sys.set_int_max_str_digits(limit)


def test_counts_past_the_digit_limit_print_in_full(tmp_path, capsys):
    # 2^15000 has 4516 digits, past Python's default limit of 4300 on
    # converting ints to text, which `cli.run` lifts for its own run only
    limit = sys.get_int_max_str_digits()
    path = write(tmp_path, "free.cnf", "p cnf 15000 0\n")
    code, out, err = run(capsys, "mc", path)
    assert (code, err) == (0, "")
    assert _lifted(lambda: int(out)) == 2**15000
    code, out, err = run(capsys, "mc", path, "--json")
    assert (code, err) == (0, "")
    assert _lifted(lambda: json.loads(out)["result"]) == 2**15000
    assert sys.get_int_max_str_digits() == limit
    assert run(capsys, "mc", write(tmp_path, "bad.cnf", "p cnf 1 1\nx 0\n"))[0] == 1
    assert sys.get_int_max_str_digits() == limit


def test_minimize_weights_past_the_digit_limit(tmp_path, capsys):
    digits = "7" * 5000
    text = f"a. b.\n#minimize{{ 1:a; {digits}:b }}."
    code, out, err = run(capsys, "optcount", write(tmp_path, "w.lp", text))
    assert (code, err) == (0, "")
    assert out == "7" * 4999 + "8 1\n"  # 1 + the weight
    # the parser alone keeps the interpreter's limit and names the weight
    with pytest.raises(ParseError) as info:
        parse_ground_program(text)
    assert (info.value.line, info.value.column) == (2, 17)
    assert str(info.value) == "line 2, column 17: weight of 5000 digits is too long"


TABLE_PASS_COMMANDS = {
    "count": ("p.lp", PROG, ()),
    "solve": ("p.lp", PROG, ()),
    "enumerate": ("p.lp", PROG, ("--limit", "1")),
    "optcount": ("p.lp", PROG, ()),
    "pcount": ("p.lp", PROG, ("--project", "a")),
    "mc": ("f.cnf", CNF, ()),
    "wmc": ("w.cnf", WCNF, ()),
    "pmc": ("f.cnf", CNF, ("--project-vars", "1")),
}


def test_each_command_takes_only_the_options_it_reads(tmp_path, capsys):
    # --graph is td-stats's own option, and --trace belongs to the
    # commands that run a table pass
    assert set(TABLE_PASS_COMMANDS) | {"td-stats"} == set(cli.COMMANDS)
    prog = write(tmp_path, "p.lp", PROG)
    assert run(capsys, "count", prog, "--graph", "primal") == (
        1, "", "error: unrecognized arguments: --graph primal\n"
    )
    trace = tmp_path / "stats.jsonl"
    code, out, err = run(capsys, "td-stats", prog, "--trace", str(trace))
    assert (code, out) == (1, "") and err.startswith("error: unrecognized arguments: --trace")
    assert not trace.exists()
    code, out, _ = run(capsys, "td-stats", prog, "--graph", "incidence", "--seeds", "2")
    assert (code, out) == (0, "seed=0 width=2\nseed=1 width=2\nbest seed=0 width=2\n")
    for command, (name, text, options) in TABLE_PASS_COMMANDS.items():
        trace = tmp_path / f"{command}.jsonl"
        code, _, err = run(capsys, command, write(tmp_path, name, text), *options, "--trace", str(trace))
        assert (code, err) == (10 if command == "solve" else 0, ""), command
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records and records[-1]["bag"] == [], command


def _random_smodels(rng) -> str:
    """Rule lines of types 1, 2, 3, 5, 6, 8 and an unknown type, mostly
    of the right shape but with random signed ints, then a symbol table
    and the compute sections, each sometimes cut short."""

    def odd(good, bad):  # mostly `good`, now and then `bad`
        return bad() if rng.random() < 0.1 else good()

    def atoms(k):
        return [rng.randint(1, 4) if rng.random() > 0.03 else rng.randint(-2, 0) for _ in range(k)]

    lines = []
    for _ in range(rng.randint(0, 4)):
        rtype = odd(lambda: rng.choice([1, 1, 6, 8]), lambda: rng.choice([2, 3, 5, rng.randint(-2, 12)]))
        n = rng.randint(0, 3)
        neg = odd(lambda: rng.randint(0, n), lambda: rng.choice([-1, n + 1]))
        if rtype == 6:
            weights = [rng.randint(-1, 4) for _ in range(n)]
            fields = [6, odd(lambda: 0, lambda: 1), n, neg, *atoms(n), *weights]
        elif rtype == 8:
            heads = odd(lambda: rng.randint(1, 2), lambda: rng.randint(-1, 0))
            fields = [8, heads, *atoms(max(heads, 0)), n, neg, *atoms(n)]
        else:
            fields = [rtype, *atoms(1), n, neg, *atoms(n)]
        if rng.random() < 0.05:
            del fields[rng.randrange(len(fields)) :]
        lines.append(" ".join(map(str, fields)))
    lines.append("0")
    named = rng.sample(range(1, 5), rng.randint(0, 3))
    lines += [f"{a} {odd(lambda: name, lambda: 'a')}" for a, name in zip(named, "bcd")]
    lines.append("0")
    if rng.random() < 0.8:
        for marker in ("B+", "B-"):
            lines.append(marker)
            lines += [" ".join(map(str, atoms(1))) for _ in range(rng.randint(0, 2))]
            lines.append("0")
        lines.append(str(rng.randint(0, 2)))
    if rng.random() < 0.05:
        del lines[rng.randrange(len(lines)) :]
    return "\n".join(lines) + "\n"


def _random_dimacs(rng) -> str:
    """A header, weight lines and clause lines from random tokens."""

    def odd(good, bad):  # mostly `good`, now and then `bad`
        return rng.choice(bad) if rng.random() < 0.05 else good

    n, m = rng.randint(1, 4), rng.randint(0, 4)
    header = ["p", "cnf", str(n), str(m)]
    if rng.random() < 0.1:
        header[rng.randrange(4)] = rng.choice(["-1", "x", "wcnf", ""])
    lines = [" ".join(header)]
    for _ in range(rng.randint(0, 3)):
        lit = odd(rng.choice([1, -1]) * rng.randint(1, n), [n + 1, 0])
        weight = odd(rng.choice(["1/2", "0", "3", "2/3", "0.5", "1e-3"]), ["-1/2", "1/0", "x", "/4"])
        lines.append(f"w {lit} {weight} {odd('0', ['x', ''])}")
    for _ in range(odd(m, [m - 1, m + 1])):
        tokens = [str(rng.randint(-n - 1, n + 1) or 1) for _ in range(rng.randint(0, 3))]
        lines.append(" ".join(tokens + [odd("0", ["", "y"])]))
    if rng.random() < 0.05:
        rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def test_random_inputs_end_in_an_exit_code_and_at_most_one_error_line(capsys, monkeypatch):
    # whatever the parsers are given, the CLI answers or reports one error
    rng = random.Random(40)
    cases = [("smodels", cmd, _random_smodels) for cmd in ("count", "optcount", "solve")]
    cases += [("dimacs", cmd, _random_dimacs) for cmd in ("mc", "wmc", "td-stats")]
    for _ in range(70):
        for fmt, command, make in cases:
            text = make(rng)
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, out, err = run(capsys, command, "-", "--format", fmt)
            assert isinstance(code, int), text
            assert err == "" or (code in (1, 2) and err.startswith("error: ")), text
            assert len(err.splitlines()) <= 1, text
