"""The answer-set engine: handler semantics on hand-built decompositions,
frozen small examples, and randomized agreement with the oracle."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from tdcount import aspdp
from tdcount.aspdp import (
    build_store,
    count_answer_sets,
    count_optimal,
    enumerate_answer_sets,
    is_consistent,
    make_handlers,
)
from tdcount.dpcore import Mode, plan_checks, root_aggregate, traverse
from tdcount.graphs import primal_graph
from tdcount.model import GroundProgram
from tdcount.oracle import brute_answer_sets
from tdcount.parsers import parse_dimacs, parse_ground_program
from tdcount.projection import projected_count
from tdcount.satdp import count_models, weighted_count
from tdcount.treedecomp import (
    DecompResult,
    NiceNode,
    NiceTreeDecomposition,
    NodeKind,
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
    handlers = make_handlers(ntd, plan, costs=minimize.charges if minimize else None)
    return traverse(ntd, handlers, mode)


def rows_of(table):
    return sorted((r.assignment, tuple(sorted(r.witnesses)), r.count) for r in table)


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


def oracle_optcount(program):
    sets_ = brute_answer_sets(program)
    if not sets_:
        return (None, 0)
    m = program.minimize
    costs = [m.cost_of(s) if m else 0 for s in sets_]
    best = min(costs)
    return (best, costs.count(best))


def test_optcount_matches_oracle():
    for seed in range(150):
        program = corpus.random_program(seed)
        assert count_optimal(program) == oracle_optcount(program), seed


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
        Mode.DECISION: False,
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
