"""The answer-set engine: handler semantics on hand-built decompositions,
frozen small examples, and randomized agreement with the oracle."""

import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from tdcount import aspdp
from tdcount.aspdp import (
    SUPPORT,
    WITNESS,
    build_store,
    count_answer_sets,
    count_optimal,
    enumerate_answer_sets,
    is_consistent,
    make_handlers,
)
from tdcount.dpcore import (
    Mode,
    lean_values,
    plan_checks,
    root_aggregate,
    row_values,
    solution_rows,
    traverse,
)
from tdcount.errors import InvariantError
from tdcount.graphs import primal_graph
from tdcount.model import Atom, GroundProgram, Rule, has_atomless_rule
from tdcount.oracle import brute_answer_sets, brute_optimum
from tdcount.parsers import parse_dimacs, parse_ground_program
from tdcount.projection import projected_count
from tdcount.satdp import count_models, weighted_count
from tdcount.treedecomp import (
    DecompResult,
    NiceNode,
    NiceTreeDecomposition,
    NodeKind,
    decompose,
    make_nice,
    td_from_ordering,
)

import corpus


def tiny_ntd():
    """Leaf, introduce atom 0, forget atom 0."""
    nodes = [
        NiceNode(NodeKind.LEAF, (), None, ()),
        NiceNode(NodeKind.INTRODUCE, (0,), 0, (0,)),
        NiceNode(NodeKind.FORGET, (), 0, (1,)),
    ]
    return NiceTreeDecomposition(nodes, 1)


def join_ntd():
    """Two introduce branches over atom 0 joined, then forgotten."""
    nodes = [
        NiceNode(NodeKind.LEAF, (), None, ()),
        NiceNode(NodeKind.INTRODUCE, (0,), 0, (0,)),
        NiceNode(NodeKind.LEAF, (), None, ()),
        NiceNode(NodeKind.INTRODUCE, (0,), 0, (2,)),
        NiceNode(NodeKind.JOIN, (0,), None, (1, 3)),
        NiceNode(NodeKind.FORGET, (), 0, (4,)),
    ]
    return NiceTreeDecomposition(nodes, 1)


def run_on(ntd, text, mode=Mode.COUNT):
    program = parse_ground_program(text)
    plan = plan_checks(ntd, program.rules)
    minimize = program.minimize if mode is Mode.OPTCOUNT else None
    values = lean_values(mode, costs=minimize.charges if minimize else None)
    handlers = make_handlers(ntd, plan, values=row_values(values))
    return traverse(ntd, handlers)


def witnesses(state):
    """A witness state (w0, w1) as its sorted (b, strict) pairs: bit b of
    w0 is the witness b, bit b of w1 the strict witness b."""
    return tuple(
        sorted(
            (b, strict)
            for strict, bits in enumerate(state)
            for b in range(bits.bit_length())
            if bits >> b & 1
        )
    )


def rows_of(table):
    return sorted((r.assignment, witnesses(r.state), r.value) for r in table)


def test_fact_walkthrough():
    store = run_on(tiny_ntd(), "a.")
    assert rows_of(store.tables[0]) == [(0, ((0, False),), 1)]
    # introducing a: the false branch keeps witnesses below the candidate,
    # the true branch forks each witness into stay-equal and drop-strict
    assert rows_of(store.tables[1]) == [
        (0, ((0, False),), 1),
        (1, ((0, True), (1, False)), 1),
    ]
    # forgetting a checks the rule: the all-false candidate dies classically,
    # the witness that left a out dies against the reduct
    assert rows_of(store.tables[2]) == [(0, ((0, False),), 1)]
    assert root_aggregate(store, Mode.COUNT) == 1


def test_self_supporting_rule_walkthrough():
    store = run_on(tiny_ntd(), "a :- a.")
    # candidate {a}: the empty witness survives the reduct rule a :- a,
    # so a strict witness remains and the row is not a solution
    assert rows_of(store.tables[2]) == [
        (0, ((0, False),), 1),
        (0, ((0, False), (0, True)), 1),
    ]
    assert root_aggregate(store, Mode.COUNT) == 1


def test_join_matches_assignments_and_ors_strictness():
    store = run_on(join_ntd(), "a.")
    assert rows_of(store.tables[4]) == [
        (0, ((0, False),), 1),
        (1, ((0, True), (1, False)), 1),
    ]
    assert root_aggregate(store, Mode.COUNT) == 1


def test_join_derivations_recorded():
    store = run_on(join_ntd(), "a.")
    assert len(store.tables[4]) > 0
    for row in store.tables[4]:
        assert row.origins
        for lrow, rrow in row.origins:
            assert lrow.assignment == rrow.assignment == row.assignment


def test_count_frozen_examples():
    cases = {
        "": 1,
        "a.": 1,
        "a :- a.": 1,
        "a :- not a.": 0,
        "a :- not b. b :- not a.": 2,
        "a | b.": 2,
        "a | b. :- a.": 1,
        "a. :- a.": 0,
        ":- .": 0,
        "a :- b. b :- a.": 1,
        "a | b. a :- b. b :- a.": 1,
    }
    for text, expected in cases.items():
        assert count_answer_sets(parse_ground_program(text)) == expected, text


def test_consistency_frozen_examples():
    assert is_consistent(parse_ground_program("a."))
    assert not is_consistent(parse_ground_program("a :- not a."))
    assert not is_consistent(parse_ground_program(":- ."))


def test_enumerate_frozen_examples():
    p = parse_ground_program("a :- not b. b :- not a. c :- a.")
    names = p.atom_names()
    got = [frozenset(names[a] for a in s) for s in enumerate_answer_sets(p)]
    assert got == [frozenset({"a", "c"}), frozenset({"b"})]


def test_enumerate_respects_limit():
    p = parse_ground_program("a :- not b. b :- not a.")
    assert len(list(enumerate_answer_sets(p, limit=1))) == 1
    assert list(enumerate_answer_sets(p, limit=0)) == []
    assert len(list(enumerate_answer_sets(p, limit=99))) == 2


def test_enumerate_empty_program_yields_empty_set():
    assert list(enumerate_answer_sets(parse_ground_program(""))) == [frozenset()]


def test_enumerate_deep_implication_chain():
    # a 10,000-atom chain nests about 20,000 nice nodes, twenty times the
    # default recursion limit; the given ordering spares min-fill's time
    n = 10_000
    program = parse_ground_program(
        "a0.\n" + "".join(f"a{i + 1} :- a{i}.\n" for i in range(n - 1))
    )
    td = td_from_ordering(primal_graph(program), list(range(n)))
    decomp = DecompResult(make_nice(td), td, td.width(), 0, "min-fill")
    assert list(enumerate_answer_sets(program, decomp=decomp)) == [frozenset(range(n))]


def test_tuple_order_sorts_as_sorted_atom_tuples():
    rng = random.Random(7)
    for n in range(71):
        key = aspdp._tuple_order(n)
        subsets = [frozenset(), *(frozenset({a}) for a in range(n))]
        if n > 5:
            subsets += [frozenset(s) for s in ({3}, {3, 4}, {3, 5}, {3, 4, 5}, {0, 5}, {0, 1})]
        subsets += [
            frozenset(a for a in range(n) if rng.random() < rng.random())
            for _ in range(10_000 // 71)
        ]
        subsets = list(set(subsets))
        as_int = {sum(1 << (n - 1 - a) for a in s): s for s in subsets}
        assert [as_int[R] for R in sorted(as_int, key=key)] == sorted(subsets, key=sorted), n


def test_enumerate_choice_pairs_in_closed_form():
    # k choices a_i :- not b_i, b_i :- not a_i, with a_i atom 2i: answer
    # set j picks b_i exactly when bit k-1-i of j is set
    k = 14
    rules = []
    for i in range(k):
        rules.append(Rule(frozenset({2 * i}), frozenset(), frozenset({2 * i + 1})))
        rules.append(Rule(frozenset({2 * i + 1}), frozenset(), frozenset({2 * i})))
    program = GroundProgram([Atom(a, f"{'ab'[a % 2]}{a // 2}") for a in range(2 * k)], rules)
    expected = [
        frozenset(2 * i + (j >> (k - 1 - i) & 1) for i in range(k)) for j in range(2**k)
    ]
    assert list(enumerate_answer_sets(program, limit=5)) == expected[:5]
    assert list(enumerate_answer_sets(program)) == expected


def test_enumerate_with_limit_keeps_no_set_per_answer():
    # 16,872 answer sets; building each as a frozenset peaked near 47 MB
    program = corpus.alternating_chain(3, 100)
    assert count_answer_sets(program) == 16_872
    tracemalloc.start()
    try:
        first = list(enumerate_answer_sets(program, limit=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(first) == 10
    assert peak < 10_000_000, peak


def test_a_store_root_has_at_most_one_solution_row():
    # the root bag is empty, so enumeration takes its one solution row's
    # sets as they are
    instances = [corpus.random_program(seed) for seed in range(120)]
    instances += [corpus.random_cnf(seed, weighted=False) for seed in range(40)]
    solved = 0
    for instance in instances:
        if has_atomless_rule(instance):
            continue
        for heuristic in ("min-fill", "min-degree"):
            store, _ = build_store(instance, decomp=decompose(primal_graph(instance), heuristic))
            sols = solution_rows(store)
            assert len(sols) <= 1, (instance, heuristic)
            solved += len(sols)
    assert solved > 100


def test_disjunctive_support_needs_the_only_true_head_atom():
    # {a, b} is a supported model only if a disjunction with two true
    # head atoms supported a; it is not minimal, so {b} is the one answer
    program = parse_ground_program("a | b.  b :- a.")
    assert program.is_tight()
    names = program.atom_names()
    got = [frozenset(names[a] for a in s) for s in enumerate_answer_sets(program)]
    assert got == [frozenset({"b"})]
    assert count_answer_sets(program) == 1
    assert count_optimal(parse_ground_program("a | b.  b :- a.  #minimize{ 1:b }.")) == (1, 1)


def test_build_store_picks_the_check_state_from_the_instance():
    tight, _ = build_store(parse_ground_program("a :- not b. b :- not a."))
    looped, _ = build_store(parse_ground_program("a :- b. b :- a. a :- not c."))
    cnf, _ = build_store(parse_dimacs("p cnf 2 1\n1 2 0\n"))
    kinds = [
        {type(row.state) for table in store.tables for row in table}
        for store in (tight, looped, cnf)
    ]
    assert kinds == [{int}, {tuple}, {frozenset}]
    assert all(row.state == frozenset() for table in cnf.tables for row in table)
    assert {tuple(map(type, row.state)) for table in looped.tables for row in table} == {(int, int)}
    assert tight.root_table.max_witness_set() == 0


def test_witness_bound_rejects_bits_past_the_bag_and_a_lost_self_witness():
    # over a bag of one atom: witnesses 0 and 1, each non-strict (first
    # int) or strict (second int); the candidate's own witness is non-strict
    WITNESS.bound([(0, (0b1, 0b0)), (1, (0b10, 0b1)), (1, (0b11, 0b11))], 1)
    for key, message in [
        ((0, (0b101, 0b0)), "witness-set bound exceeded"),
        ((0, (0b1, 0b100)), "witness-set bound exceeded"),
        ((1, (0b1, 0b10)), "self-witness lost"),
    ]:
        with pytest.raises(InvariantError, match=message):
            WITNESS.bound([key], 1)


def all_answers(program, decomp, proj, heuristic):
    store, _ = build_store(program, Mode.COUNT, decomp=decomp)
    return (
        root_aggregate(store, Mode.COUNT),
        count_optimal(program, decomp=decomp),
        list(enumerate_answer_sets(program, decomp=decomp)),
        projected_count(program, proj, heuristic=heuristic),
    )


def test_support_masks_answer_as_witness_sets_on_tight_programs(monkeypatch):
    """COUNT, OPTCOUNT, enumeration and projected counts on
    every tight corpus program among seeds 0-499, from stores built with
    support masks and with witness sets, under both heuristics."""
    rng = random.Random(5)
    tight = 0
    for seed in range(500):
        program = corpus.random_program(seed)
        if not program.is_tight():
            continue
        tight += 1
        n = program.num_atoms
        proj = set(rng.sample(range(n), rng.randint(0, n)))
        for heuristic in ("min-fill", "min-degree"):
            decomp = decompose(primal_graph(program), heuristic)
            by_check = []
            for check in (SUPPORT, WITNESS):
                monkeypatch.setattr(aspdp, "check_state", lambda instance, check=check: check)
                by_check.append(all_answers(program, decomp, proj, heuristic))
            assert by_check[0] == by_check[1], (seed, heuristic, sorted(proj))
    assert tight == 304


def test_optcount_frozen_examples():
    cases = {
        "a | b. #minimize{ 1:a; 2:b }.": (1, 1),
        "a :- not b. b :- not a. #minimize{ 1:a; 1:b }.": (1, 2),
        "a :- not b. b :- not a. #minimize{ 3:not a }.": (0, 1),
        "a :- not b. b :- not a.": (0, 2),
        "a. :- a.": (None, 0),
        "": (0, 1),
    }
    for text, expected in cases.items():
        assert count_optimal(parse_ground_program(text)) == expected, text


def test_minimize_charges_atoms_outside_all_rules():
    # c occurs only in the minimize statement, so it is an isolated
    # vertex of the primal graph and can never be true
    assert count_optimal(parse_ground_program("a. #minimize{ 2:c }.")) == (0, 1)
    assert count_optimal(parse_ground_program("a. #minimize{ 2:not c }.")) == (2, 1)


def test_count_matches_oracle():
    for seed in range(150):
        program = corpus.random_program(seed)
        expected = len(brute_answer_sets(program))
        assert count_answer_sets(program) == expected, seed


def test_count_matches_oracle_across_heuristics_and_seeds():
    for seed in range(25):
        program = corpus.random_program(seed)
        expected = len(brute_answer_sets(program))
        for heuristic in ("min-fill", "min-degree"):
            for td_seed in (0, 1, 7):
                got = count_answer_sets(program, heuristic=heuristic, seed=td_seed)
                assert got == expected, (seed, heuristic, td_seed)


def test_decision_matches_oracle():
    for seed in range(80):
        program = corpus.random_program(seed)
        assert is_consistent(program) == bool(brute_answer_sets(program)), seed


def test_optcount_matches_oracle():
    for seed in range(150):
        program = corpus.random_program(seed)
        assert count_optimal(program) == brute_optimum(program), seed


def test_enumerate_matches_oracle():
    for seed in range(80):
        program = corpus.random_program(seed)
        expected = sorted(brute_answer_sets(program), key=sorted)
        assert list(enumerate_answer_sets(program)) == expected, seed


def test_store_reports_decomposition():
    program = parse_ground_program("a :- b. b :- c.")
    store, decomp = build_store(program, Mode.COUNT, seeds=3)
    assert decomp.width == 1
    assert decomp.seed == 0
    assert len(store.tables) == len(decomp.ntd.nodes)


ATOMLESS_CONSTRAINT = """
from tdcount.aspdp import build_store
from tdcount.parsers import parse_ground_program
build_store(parse_ground_program("a. :- ."))
"""


def test_build_store_rejects_atomless_constraint():
    # the public entry points answer 0 before building any table
    assert count_answer_sets(parse_ground_program("a. :- .")) == 0
    with pytest.raises(ValueError, match="constraint 1 has no atoms"):
        exec(ATOMLESS_CONSTRAINT)


def test_atomless_constraint_check_holds_under_python_O():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-O", "-c", ATOMLESS_CONSTRAINT],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 1
    assert "ValueError: constraint 1 has no atoms" in out.stderr


@pytest.mark.parametrize(
    "instance",
    [parse_ground_program("a :- not b. b :- not a. :- ."), parse_dimacs("p cnf 2 2\n1 2 0\n0\n")],
    ids=["program", "cnf"],
)
def test_atomless_rule_answers_without_a_table(monkeypatch, instance):
    def no_table(*args, **kwargs):
        raise AssertionError("a table pass ran")

    monkeypatch.setattr(aspdp, "traverse", no_table)
    expected = {
        Mode.COUNT: 0,
        Mode.OPTCOUNT: (None, 0),
        Mode.WEIGHTED: Fraction(0),
    }
    for mode, value in expected.items():
        got = aspdp.answer(instance, mode)
        assert got == value and type(got) is type(value), mode
    assert projected_count(instance, {1}) == 0
    if isinstance(instance, GroundProgram):
        assert count_answer_sets(instance) == 0
        assert is_consistent(instance) is False
        assert count_optimal(instance) == (None, 0)
    else:
        assert count_models(instance) == 0
        assert weighted_count(instance) == Fraction(0)


def test_a_decomposition_over_other_vertices_is_refused():
    # as with an elimination ordering that is not a permutation of the
    # vertices, a given decomposition must forget exactly the instance's
    # vertices: with more, the extra ones counted as free variables (12
    # models for 3); with fewer, an atom had no forget node (KeyError)
    formula = parse_dimacs("p cnf 2 1\n1 2 0\n")
    program = parse_ground_program("a :- not b. b :- not a. c :- a.")
    wider = decompose(primal_graph(parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")))
    narrower = decompose(primal_graph(parse_ground_program("a.")))
    calls = {  # by the entry point each one runs
        "count_models": lambda decomp: count_models(formula, decomp=decomp),
        "count_answer_sets": lambda decomp: count_answer_sets(program, decomp=decomp),
        "projected_count cnf": lambda decomp: projected_count(formula, {1}, decomp=decomp),
        "projected_count program": lambda decomp: projected_count(program, {0}, decomp=decomp),
        "enumerate_answer_sets": lambda decomp: [*enumerate_answer_sets(program, decomp=decomp)],
    }
    for call in calls.values():
        for decomp in (wider, narrower):
            with pytest.raises(ValueError, match="exactly the instance's vertices"):
                call(decomp)
    assert count_models(formula, decomp=decompose(primal_graph(formula))) == 3
    assert count_answer_sets(program, decomp=decompose(primal_graph(program))) == 2
