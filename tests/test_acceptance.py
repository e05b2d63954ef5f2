"""Acceptance suite: one test per shipped guarantee, each printing a
single PASS line with the measured numbers.

  (a) 500-program battery: count, optimize, enumerate, project vs oracle
  (b) 500-CNF battery: count, weighted count, project vs brute force
  (c) decomposition suite over 200 random graphs plus trees and cliques
  (d) purge invariance and reachability on all 1000 corpus instances
  (e) identical results across heuristic/seed pipelines
  (f) table growth bounds and the counting regime contrast
  (g) byte-identical JSON output across repeated runs
  (h) every row's count (or weight numerator) is the sum over its
      derivations of the product of their rows' counts (numerators times
      the forgotten variable's weight), on all 1000 corpus instances in
      every mode ((d) checks it on the stores it builds)
"""

import io
import json
import math
import random
import time
from fractions import Fraction

import pytest

from tdcount import aspdp, cli, oracle, satdp
from tdcount.dpcore import Mode, purge, root_aggregate, solution_rows
from tdcount.model import render_program
from tdcount.parsers import parse_ground_program
from tdcount.projection import projected_count
from tdcount.treedecomp import (
    NodeKind,
    decompose,
    elimination_ordering,
    make_nice,
    td_from_ordering,
    validate_td,
)

import corpus

ASP_BATTERY = 500
CNF_BATTERY = 500
GRAPH_BATTERY = 200
HEURISTICS = ("min-fill", "min-degree")


@pytest.fixture(scope="module")
def asp_corpus():
    return [
        corpus.random_program(seed, max_atoms=10, max_rules=15)
        for seed in range(ASP_BATTERY)
    ]


@pytest.fixture(scope="module")
def cnf_corpus():
    return [
        corpus.random_cnf(seed, max_vars=15, max_clauses=25)
        for seed in range(CNF_BATTERY)
    ]


def test_asp_oracle_battery(asp_corpus):
    started = time.monotonic()
    rng = random.Random(11)
    for seed, program in enumerate(asp_corpus):
        expected_sets = sorted(oracle.brute_answer_sets(program), key=sorted)
        assert aspdp.count_answer_sets(program) == len(expected_sets), seed
        assert aspdp.count_optimal(program) == oracle.brute_optimum(program), seed
        assert list(aspdp.enumerate_answer_sets(program)) == expected_sets, seed
        n = program.num_atoms
        proj = set(rng.sample(range(n), rng.randint(0, n)))
        assert projected_count(program, proj) == oracle.brute_projected_count(
            program, proj
        ), (seed, sorted(proj))
    elapsed = time.monotonic() - started
    assert elapsed < 600
    print(
        f"ACCEPTANCE asp-oracle-battery: PASS "
        f"({len(asp_corpus)} programs, 0 mismatches, {elapsed:.1f}s)"
    )


def test_cnf_oracle_battery(cnf_corpus):
    started = time.monotonic()
    rng = random.Random(12)
    for seed, formula in enumerate(cnf_corpus):
        assert satdp.count_models(formula) == oracle.brute_count_models(formula), seed
        assert satdp.weighted_count(formula) == oracle.brute_weighted_count(
            formula
        ), seed
        n = formula.num_vars
        proj = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
        assert projected_count(formula, proj) == oracle.brute_projected_count(
            formula, proj
        ), (seed, sorted(proj))
    elapsed = time.monotonic() - started
    assert elapsed < 600
    print(
        f"ACCEPTANCE cnf-oracle-battery: PASS "
        f"({len(cnf_corpus)} formulas, 0 mismatches, {elapsed:.1f}s)"
    )


def test_tree_decomposition_suite():
    brute_checked = 0
    for seed in range(GRAPH_BATTERY):
        graph = corpus.random_graph(seed, max_vertices=50)
        exact = (
            oracle.brute_treewidth(graph) if graph.num_vertices <= 11 else None
        )
        for heuristic in HEURISTICS:
            td = td_from_ordering(graph, elimination_ordering(graph, heuristic, seed))
            assert validate_td(graph, td) is None, (seed, heuristic)
            assert make_nice(td).width() == td.width(), (seed, heuristic)
            if exact is not None:
                assert td.width() >= exact, (seed, heuristic)
                brute_checked += 1
    for seed in range(30):
        tree = corpus.random_tree_graph(seed, min_vertices=2)
        for heuristic in HEURISTICS:
            td = td_from_ordering(tree, elimination_ordering(tree, heuristic, seed))
            assert td.width() == 1, (seed, heuristic)
    for n in range(2, 13):
        clique = corpus.complete_graph(n)
        for heuristic in HEURISTICS:
            td = td_from_ordering(clique, elimination_ordering(clique, heuristic))
            assert td.width() == n - 1, (n, heuristic)
    print(
        f"ACCEPTANCE tree-decomposition-suite: PASS "
        f"({GRAPH_BATTERY} graphs x {len(HEURISTICS)} heuristics, "
        f"{brute_checked} exact-width comparisons, 30 trees, 11 cliques)"
    )


def assert_reachable_from_root(store):
    ntd = store.ntd
    marked = [set() for _ in ntd.nodes]
    for row in solution_rows(store):
        marked[ntd.root].add(id(row))
    for i in range(ntd.root, -1, -1):
        node = ntd.nodes[i]
        for row in store.tables[i]:
            assert id(row) in marked[i], f"unreachable row at node {i}"
            for derivation in row.origins:
                for child, ref in zip(node.children, derivation):
                    marked[child].add(id(ref))


def assert_values_sum_over_derivations(store, formula=None):
    """Every row's count, the count of a (cost, count) value, is the sum
    over its derivations of the product of their rows' counts.  With
    `formula`, the store is weighted: its values are weight numerators,
    and forgetting variable v also multiplies by v's literal weight over
    the common denominator of its two weights."""
    nodes = store.ntd.nodes
    rows = 0
    for node, table in zip(nodes, store.tables):
        factor = None
        if formula is not None and node.kind is NodeKind.FORGET:
            weights = formula.charges(node.vertex)
            common = math.lcm(*(Fraction(w).denominator for w in weights))
            factor = [w * common for w in weights]
            pos = nodes[node.children[0]].bag.index(node.vertex)
        for row in table:
            if not node.children:
                assert row.origins == () and amount(row) == 1
                continue
            assert all(len(d) == len(node.children) for d in row.origins)
            total = sum(
                math.prod(amount(r) for r in d)
                * (factor[d[0].assignment >> pos & 1] if factor else 1)
                for d in row.origins
            )
            assert amount(row) == total, f"{row!r} at node {node}"
            rows += 1
    return rows


def amount(row):
    return row.value[1] if isinstance(row.value, tuple) else row.value


def test_purge_invariance(asp_corpus, cnf_corpus):
    checked = 0
    for program in asp_corpus:
        store, _ = aspdp.build_store(program, Mode.COUNT)
        assert_values_sum_over_derivations(store)
        before = root_aggregate(store, Mode.COUNT)
        purged = purge(store)
        assert root_aggregate(purged, Mode.COUNT) == before
        assert_reachable_from_root(purged)
        checked += 1
    for formula in cnf_corpus:
        weighted = formula.weights is not None
        mode = Mode.WEIGHTED if weighted else Mode.COUNT
        store, _ = satdp.build_store(formula, weighted=weighted)
        assert_values_sum_over_derivations(store, formula if weighted else None)
        before = root_aggregate(store, mode)
        purged = purge(store)
        assert root_aggregate(purged, mode) == before
        assert_reachable_from_root(purged)
        checked += 1
    print(f"ACCEPTANCE purge-invariance: PASS ({checked} instances)")


def test_counts_sum_over_derivations(asp_corpus, cnf_corpus):
    # test_purge_invariance checks COUNT mode and each formula's own
    # weighting; this covers the other modes and weightings
    rows = 0
    for program in asp_corpus:
        store, _ = aspdp.build_store(program, Mode.OPTCOUNT)
        rows += assert_values_sum_over_derivations(store)
    for formula in cnf_corpus:
        weighted = formula.weights is None
        store, _ = satdp.build_store(formula, weighted=weighted)
        rows += assert_values_sum_over_derivations(store, formula if weighted else None)
    print(f"ACCEPTANCE counts-sum-over-derivations: PASS ({rows} non-leaf rows)")


def test_pipeline_invariance(asp_corpus, cnf_corpus):
    pipelines = [(h, s) for h in HEURISTICS for s in range(5)]
    for program in asp_corpus[:50]:
        counts = {
            aspdp.count_answer_sets(program, heuristic=h, seed=s)
            for h, s in pipelines
        }
        assert len(counts) == 1
    for formula in cnf_corpus[:50]:
        counts = {
            satdp.count_models(formula, heuristic=h, seed=s) for h, s in pipelines
        }
        assert len(counts) == 1
    print(
        f"ACCEPTANCE pipeline-invariance: PASS "
        f"(100 instances x {len(pipelines)} pipelines)"
    )


def trace_records(build, instance):
    buf = io.StringIO()
    build(instance, trace=buf)
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def test_table_growth_regimes(asp_corpus, cnf_corpus):
    sat_ratio = 0.0
    for formula in cnf_corpus[:100]:
        for record in trace_records(satdp.build_store, formula):
            ratio = record["rows"] / (1 << len(record["bag"]))
            sat_ratio = max(sat_ratio, ratio)
            assert ratio <= 1.0
    asp_ratio = 0.0
    for program in asp_corpus[:100]:
        for record in trace_records(aspdp.build_store, program):
            cap = 1 << (len(record["bag"]) + 1)
            assert record["max_witness_set"] <= cap
            asp_ratio = max(asp_ratio, record["rows"] / (1 << len(record["bag"])))
    # witness bookkeeping lets stable-model tables outgrow the 2^|bag|
    # ceiling that plain model counting never crosses
    assert asp_ratio > 1.0
    print(
        f"ACCEPTANCE table-growth-regimes: PASS "
        f"(max rows/2^|bag|: cnf {sat_ratio:.2f} <= 1.0, asp {asp_ratio:.2f} > 1.0)"
    )


def battery_output(tmp_path, tag):
    rng = random.Random(42)
    chunks = []

    def invoke(*argv):
        import sys
        from io import StringIO

        old = sys.stdout
        sys.stdout = StringIO()
        try:
            code = cli.run(list(argv))
            text = sys.stdout.getvalue()
        finally:
            sys.stdout = old
        payload = json.loads(text)
        payload.pop("elapsed_ms")
        chunks.append(f"{code} " + json.dumps(payload, sort_keys=True))

    for seed in range(25):
        program = corpus.random_program(seed, max_atoms=10, max_rules=15)
        path = tmp_path / f"{tag}-p{seed}.lp"
        path.write_text(render_program(program))
        # atoms that occur in no rule do not survive the round trip
        names = parse_ground_program(path.read_text()).atom_names()
        proj = ",".join(sorted(rng.sample(names, rng.randint(0, len(names)))))
        invoke("count", str(path), "--json", "--seeds", "3")
        invoke("optcount", str(path), "--json")
        invoke("enumerate", str(path), "--json")
        invoke("pcount", str(path), "--json", "--project", proj)
    for seed in range(25):
        formula = corpus.random_cnf(seed, max_vars=15, max_clauses=25)
        path = tmp_path / f"{tag}-f{seed}.cnf"
        path.write_text(corpus.dimacs_text(formula))
        pvars = ",".join(
            str(v)
            for v in sorted(rng.sample(range(1, formula.num_vars + 1),
                                       rng.randint(0, formula.num_vars)))
        )
        invoke("mc", str(path), "--json", "--heuristic", "min-degree")
        invoke("wmc", str(path), "--json")
        invoke("pmc", str(path), "--json", "--project-vars", pvars)
    return "\n".join(chunks).encode()


def test_json_determinism(tmp_path):
    first = battery_output(tmp_path, "one")
    second = battery_output(tmp_path, "two")
    assert first == second
    print(
        f"ACCEPTANCE json-determinism: PASS "
        f"(two battery runs, {len(first)} bytes identical)"
    )
