"""Model counting and weighted model counting for CNF."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from tdcount.dpcore import Mode, purge, root_aggregate
from tdcount.oracle import brute_count_models, brute_weighted_count
from tdcount.parsers import parse_dimacs
from tdcount.satdp import build_store, count_models, weighted_count

import corpus


def test_count_frozen_examples():
    assert count_models(parse_dimacs("p cnf 2 1\n1 -2 0\n")) == 3
    assert count_models(parse_dimacs("p cnf 3 0\n")) == 8
    assert count_models(parse_dimacs("p cnf 2 2\n1 0\n-1 0\n")) == 0
    assert count_models(parse_dimacs("p cnf 1 1\n0\n")) == 0


def test_unconstrained_variables_double_the_count():
    assert count_models(parse_dimacs("p cnf 3 1\n1 0\n")) == 4


def test_weighted_frozen_example():
    text = "p cnf 2 1\n" + "".join(
        f"w {lit} 1/2 0\n" for lit in (1, -1, 2, -2)
    ) + "1 -2 0\n"
    assert weighted_count(parse_dimacs(text)) == Fraction(3, 4)


def test_weighted_defaults_equal_plain_count():
    f = parse_dimacs("p cnf 3 2\n1 2 0\n-2 3 0\n")
    assert weighted_count(f) == Fraction(count_models(f))


def test_zero_weight_literal():
    f = parse_dimacs("p cnf 2 1\nw 2 0 0\n1 -2 0\n")
    assert weighted_count(f) == Fraction(2)


def test_weighted_empty_clause():
    assert weighted_count(parse_dimacs("p cnf 1 1\n0\n")) == Fraction(0)


def test_tables_stay_within_the_bag_bound():
    f = corpus.random_cnf(5, weighted=False)
    store, decomp = build_store(f)
    for node, table in zip(decomp.ntd.nodes, store.tables):
        assert len(table) <= 1 << len(node.bag)
        for row in table:
            assert row.state == frozenset()


def test_purge_preserves_model_count():
    for seed in range(20):
        f = corpus.random_cnf(seed, weighted=False)
        store, _ = build_store(f)
        before = root_aggregate(store, Mode.COUNT)
        assert root_aggregate(purge(store), Mode.COUNT) == before


def test_count_matches_oracle():
    for seed in range(150):
        f = corpus.random_cnf(seed, weighted=False)
        assert count_models(f) == brute_count_models(f), seed


def test_count_matches_oracle_across_heuristics_and_seeds():
    for seed in range(25):
        f = corpus.random_cnf(seed, weighted=False)
        expected = brute_count_models(f)
        for heuristic in ("min-fill", "min-degree"):
            for td_seed in (0, 3):
                got = count_models(f, heuristic=heuristic, seed=td_seed)
                assert got == expected, (seed, heuristic, td_seed)


def test_weighted_matches_oracle():
    for seed in range(150):
        f = corpus.random_cnf(seed, weighted=True)
        assert weighted_count(f) == brute_weighted_count(f), seed


EMPTY_CLAUSE = """
from tdcount.parsers import parse_dimacs
from tdcount.satdp import build_store
build_store(parse_dimacs("p cnf 2 2\\n1 2 0\\n0\\n"))
"""


def test_build_store_rejects_empty_clause():
    # the public entry points answer 0 before building any table
    assert count_models(parse_dimacs("p cnf 2 2\n1 2 0\n0\n")) == 0
    with pytest.raises(ValueError, match="constraint 1 has no atoms"):
        exec(EMPTY_CLAUSE)


def test_empty_clause_check_holds_under_python_O():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-O", "-c", EMPTY_CLAUSE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 1
    assert "ValueError: constraint 1 has no atoms" in out.stderr
