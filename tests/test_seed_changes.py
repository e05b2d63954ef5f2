"""Answers that must not change with the decomposition seed, on
instances far past the brute-force oracles: each seed gives another
ordering, and `--seeds 3` keeps the narrowest of three.  The expected
answers come from the benchmark's references (`perfbench/references.py`),
computed without tdcount."""

import random
import sys
from pathlib import Path

import pytest

from tdcount import cli
from tdcount.graphs import instance_graph
from tdcount.parsers import parse_dimacs, parse_ground_program
from tdcount.treedecomp import elimination_ordering

import corpus

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import instances  # noqa: E402
import references  # noqa: E402

SEED_FLAGS = [["--seed", str(s)] for s in range(4)] + [["--seeds", "3"]]


def _answers(tmp_path, capsys, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    out = []
    for flags in SEED_FLAGS:
        assert cli.run([command, str(path), *flags]) == 0, flags
        out.append(capsys.readouterr().out)
    return out


def _orderings(instance):
    graph = instance_graph(instance)
    return {tuple(elimination_ordering(graph, "min-fill", s)) for s in range(4)}


def banded_cnf_instance(n):
    """corpus.banded_cnf with weights k/10 and (10 - k)/10 per variable."""
    rng = random.Random(f"seeds:{n}")
    formula = corpus.banded_cnf(0, n)
    clauses = tuple(tuple(sorted(clause, key=abs)) for clause in formula.clauses)
    wnum = (0,) + tuple(rng.randint(1, 9) for _ in range(n))
    return instances.Cnf(n, clauses, wnum)


@pytest.mark.parametrize("command", ["mc", "wmc"])
def test_banded_cnf_answers_hold_for_every_seed(tmp_path, capsys, command):
    cnf = banded_cnf_instance(750)
    text = instances.cnf_text(cnf)
    assert len(_orderings(parse_dimacs(text))) > 1
    expected = str(references.cnf_count(cnf, weighted=command == "wmc")) + "\n"
    assert _answers(tmp_path, capsys, command, "in.cnf", text) == [expected] * len(SEED_FLAGS)


def test_grid_program_count_holds_for_every_seed(tmp_path, capsys):
    prog = instances.grid_program(random.Random("seeds:5x30"), 5, 30)
    text = instances.program_text(prog)
    assert len(_orderings(parse_ground_program(text))) > 1
    expected = f"{references.program_counts(prog)[0]}\n"
    assert _answers(tmp_path, capsys, "count", "in.lp", text) == [expected] * len(SEED_FLAGS)
