"""Projected counts, and a tight program's counts and optima, far past
the brute-force oracles, against the benchmark's references
(`perfbench/references.py`), which count banded CNFs by a sliding window
and tight programs by a frontier pass, without tdcount."""

import contextlib
import io
import random
import sys
import time
from pathlib import Path

import pytest

from tdcount import cli
from tdcount.aspdp import build_store, count_answer_sets, count_optimal
from tdcount.dpcore import Mode, root_aggregate
from tdcount.graphs import instance_graph
from tdcount.parsers import parse_dimacs, parse_ground_program
from tdcount.projection import projected_count
from tdcount.treedecomp import decompose

import corpus

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import instances  # noqa: E402
import references  # noqa: E402
import spans  # noqa: E402


# each count takes well under 1 s on a 2-CPU machine; the bound is loose,
# so that a shared machine does not fail it, and still catches a return
# of the blow-up that deferring the projected vertices caused
SECONDS = 10


def _timed_count(instance, projection):
    started = time.perf_counter()
    count = projected_count(instance, projection)
    return count, time.perf_counter() - started


@pytest.mark.parametrize("n", [400, 1000])
def test_pmc_matches_the_window_reference_on_banded_cnfs(n):
    # eliminating the projected variables last gave these a width far
    # above the plain decomposition's 7 or 8, and the pass ran out of
    # memory
    cnf = instances.banded_cnf(random.Random(f"pmc:{n}"), n)
    formula = parse_dimacs(instances.cnf_text(cnf))
    projection = range(1, n + 1, 7)
    count, seconds = _timed_count(formula, projection)
    assert count == references.cnf_projected_count(cnf, projection)
    assert seconds < SECONDS, seconds


def test_pmc_matches_the_window_reference_on_the_corpus_banded_cnf():
    # every clause of corpus.banded_cnf lies within 8 consecutive
    # variables, the reference's window
    formula = corpus.banded_cnf(1, 120)
    clauses = tuple(tuple(sorted(clause, key=abs)) for clause in formula.clauses)
    cnf = instances.Cnf(formula.num_vars, clauses, (0,) * (formula.num_vars + 1))
    projection = range(1, 121, 7)
    count, seconds = _timed_count(formula, projection)
    assert count == references.cnf_projected_count(cnf, projection) > 1
    assert seconds < SECONDS, seconds


@pytest.mark.parametrize("rows, cols", [(4, 20), (5, 20), (4, 30)])
def test_pcount_matches_the_frontier_reference_on_tight_grid_programs(rows, cols):
    rng = random.Random(f"pcount:{rows}x{cols}")
    prog = instances.grid_program(rng, rows, cols)
    program = parse_ground_program(instances.program_text(prog))
    assert program.is_tight()
    ids = {name: a for a, name in enumerate(program.atom_names())}
    grid = [a for a, name in enumerate(prog.names) if name.startswith("g")]
    for size in (5, 10, 20):
        projection = instances.contiguous(rng, grid, size)
        expected = references.program_projected_count(prog, projection)
        count, seconds = _timed_count(program, {ids[prog.names[a]] for a in projection})
        assert count == expected, (size, projection)
        assert seconds < SECONDS, seconds
    everything = range(len(prog.names))
    assert projected_count(program, set(ids.values())) == references.program_projected_count(
        prog, everything
    )


@pytest.mark.parametrize("rows, cols, width", [(4, 20, 4), (5, 20, 6), (5, 30, 6)])
def test_counts_match_the_frontier_reference_on_tight_grid_programs(rows, cols, width):
    # grids of the benchmark's asp-grid workload: their counts and optima
    # run on packed keys, and their `Row` store (the handler pass) must
    # give the same answers and trace records
    rng = random.Random(f"count:{rows}x{cols}")
    prog = instances.grid_program(rng, rows, cols)
    program = parse_ground_program(instances.program_text(prog))
    assert program.is_tight()
    count, best, at_best = references.program_counts(prog)
    assert count > 1
    decomp = decompose(instance_graph(program))
    assert decomp.width == width
    expected = {Mode.COUNT: count, Mode.OPTCOUNT: (best, at_best)}
    for mode, run in ((Mode.COUNT, count_answer_sets), (Mode.OPTCOUNT, count_optimal)):
        lean = io.StringIO()
        assert run(program, decomp=decomp, trace=lean) == expected[mode]
        rows_trace = io.StringIO()
        store, _ = build_store(program, mode, decomp=decomp, trace=rows_trace)
        assert root_aggregate(store, mode) == expected[mode]
        assert lean.getvalue() == rows_trace.getvalue()


def _small_instances():
    """One small instance of each command the benchmark's workloads run."""
    rng = random.Random("traced")
    yield from (instances.cnf_instance(rng, 30, command) for command in ("mc", "wmc"))
    yield instances.cnf_instance(rng, 30, "pmc", 5)
    yield from (instances.grid_instance(rng, 3, 5, command) for command in ("count", "optcount"))
    yield instances.grid_instance(rng, 3, 5, "pcount", 5)
    yield instances.chain_instance(rng, 12)


def test_the_benchmark_traced_path_gives_the_cli_answers(tmp_path):
    # `perfbench/run.py` imports `spans` on every run, and its traced run
    # solves each instance layer by layer through `spans.run_traced`
    commands = []
    for inst in _small_instances():
        path = tmp_path / f"{inst.label}-{inst.command}{inst.suffix}"
        path.write_text(inst.text, encoding="utf-8")
        totals = dict.fromkeys(spans.COUNTERS, 0)
        traced = spans.run_traced(spans.Tracer(), inst, path, totals)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run([inst.command, str(path), "--seed", str(spans.TD_SEED), *inst.options])
        assert code == 0, inst.label
        assert traced == out.getvalue().splitlines() == references.expected_lines(inst), inst.label
        assert totals["nice.nodes"] > 0 and totals["parse.bytes"] == len(inst.text), inst.label
        commands.append(inst.command)
    assert sorted(commands) == sorted(
        ["mc", "wmc", "pmc", "count", "optcount", "pcount", "enumerate"]
    )
