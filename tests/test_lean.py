"""Lean counting tables: the pass behind `aspdp.answer` maps each key to
a bare value, builds no `Row`, drops each child table once its parent is
built, and answers and traces exactly as the `Row` store does."""

import io
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from tdcount import aspdp, cli, dpcore
from tdcount.dpcore import Mode, root_aggregate, traverse
from tdcount.errors import HandlerFailureError, InvariantError
from tdcount.graphs import instance_graph
from tdcount.model import CnfFormula, has_atomless_rule
from tdcount.parsers import parse_ground_program
from tdcount.projection import projected_count
from tdcount.satdp import count_models
from tdcount.treedecomp import decompose

import corpus

HEURISTICS = ("min-fill", "min-degree")
PROGRAM_MODES = (Mode.COUNT, Mode.OPTCOUNT)
CNF_MODES = PROGRAM_MODES + (Mode.WEIGHTED,)


def weighted_cnf(seed: int) -> CnfFormula:
    """A corpus CNF with a random rational weight on every literal,
    about one in seven of them 0."""
    formula = corpus.random_cnf(seed, weighted=False)
    rng = random.Random(seed)
    weights = {
        lit: Fraction(rng.randint(0, 6), rng.randint(1, 4))
        for v in range(1, formula.num_vars + 1)
        for lit in (v, -v)
    }
    return CnfFormula(formula.num_vars, formula.clauses, weights)


def traced(run, *args, **options):
    buf = io.StringIO()
    value = run(*args, trace=buf, **options)
    return value, buf.getvalue()


def test_lean_answers_and_traces_match_the_row_store():
    cases = [(corpus.random_program(seed), PROGRAM_MODES) for seed in range(150)]
    cases += [(weighted_cnf(seed), CNF_MODES) for seed in range(150)]
    kinds = {"support": 0, "witness": 0, "cnf": 0}
    for instance, modes in cases:
        if has_atomless_rule(instance):
            continue  # answered before any table is built
        check = aspdp.check_state(instance)
        kind = "cnf" if check is aspdp.EMPTY else "support" if check is aspdp.SUPPORT else "witness"
        kinds[kind] += 1
        for heuristic in HEURISTICS:
            decomp = decompose(instance_graph(instance), heuristic)
            for mode in modes:
                got, lean_trace = traced(aspdp.answer, instance, mode, decomp=decomp)
                (store, _), row_trace = traced(aspdp.build_store, instance, mode, decomp=decomp)
                expected = root_aggregate(store, mode)
                assert got == expected and type(got) is type(expected), (instance, mode)
                assert lean_trace == row_trace, (instance, heuristic, mode)
    assert min(kinds.values()) >= 40, kinds


def test_lean_pass_builds_no_row_and_keeps_no_child_table(monkeypatch):
    stores = []

    class Store(dpcore.TableStore):
        def __init__(self, *args):
            super().__init__(*args)
            stores.append(self)

    monkeypatch.setattr(dpcore, "TableStore", Store)
    monkeypatch.setattr(dpcore, "Row", None)  # building a row would raise

    for instance, mode in [
        (parse_ground_program("a :- not b. b :- not a. c :- a. #minimize{ 1:c }."), Mode.OPTCOUNT),
        (parse_ground_program("a :- b. b :- a. a :- not c. c :- not a."), Mode.COUNT),
        (weighted_cnf(3), Mode.WEIGHTED),
        (corpus.banded_cnf(1, 40), Mode.COUNT),
    ]:
        decomp = decompose(instance_graph(instance))
        nodes = decomp.ntd.nodes
        parent = {c: i for i, node in enumerate(nodes) for c in node.children}
        built = []

        class Trace:
            def write(self, line):
                i = json.loads(line)["node"]
                built.append(i)
                live = {j for j, t in enumerate(stores[-1].tables) if t is not None}
                # a table lives from its node until its parent is built
                assert live == {j for j in range(i + 1) if parent.get(j, i + 1) > i}

        aspdp.answer(instance, mode, decomp=decomp, trace=Trace())
        assert built == list(range(len(nodes)))
        assert [t is not None for t in stores[-1].tables].count(True) == 1


def test_a_failing_handler_in_the_lean_pass_names_its_node():
    formula = corpus.banded_cnf(2, 30)
    decomp = decompose(instance_graph(formula))

    def weights(v):
        if v == 17:
            raise RuntimeError("boom")
        return formula.charges(v)

    handlers = aspdp.make_handlers(
        decomp.ntd,
        dpcore.plan_checks(decomp.ntd, formula.rules),
        check=aspdp.EMPTY,
        values=dpcore.lean_values(Mode.WEIGHTED, weights=weights),
    )
    with pytest.raises(HandlerFailureError) as info:
        traverse(decomp.ntd, handlers)
    assert info.value.node_id == decomp.ntd.forget_node_of[17]
    assert info.value.kind == "forget"
    assert str(info.value.__cause__) == "boom"


def test_lean_table_guards_raise_inside_the_pass():
    decomp = decompose(instance_graph(parse_ground_program("a.")))
    for check, entries in (
        (aspdp.EMPTY, [((0, frozenset()), 0)]),  # a count below 1
        (aspdp.EMPTY, [((a, frozenset()), 1) for a in range(2)]),  # 2 keys in an empty bag
        (aspdp.SUPPORT, [((0, 1), 1)]),  # a support mask outside its assignment
    ):

        def leaf(*_args, entries=entries):
            yield from entries

        handlers = dpcore.Handlers(leaf, None, None, None, dpcore.lean_values(Mode.COUNT), check)
        with pytest.raises(HandlerFailureError) as info:
            traverse(decomp.ntd, handlers)
        assert (info.value.node_id, info.value.kind) == (0, "leaf")


def test_out_of_memory_in_the_lean_pass_names_its_node(tmp_path, capsys, monkeypatch):
    lean_values = aspdp.lean_values

    def failing(*args, **kwargs):
        values = lean_values(*args, **kwargs)

        def table(entries):
            raise MemoryError

        values.table = table
        return values

    monkeypatch.setattr(aspdp, "lean_values", failing)
    path = tmp_path / "p.lp"
    # not tight (a and b support each other), so the handler pass counts it
    path.write_text("a :- b. b :- a. a :- not c. c :- not a.\n", encoding="utf-8")
    assert cli.run(["count", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: out of memory (handler failed at node 0 (leaf))\n"


@pytest.mark.parametrize("command", ["count", "optcount"])
def test_out_of_memory_in_the_packed_pass_names_its_node(tmp_path, capsys, monkeypatch, command):
    def failing(*args):
        raise MemoryError

    # node 0 is a leaf of an empty bag, so node 1 introduces an atom
    monkeypatch.setattr(dpcore, "_packed_introduce", failing)
    path = tmp_path / "p.lp"
    path.write_text("a :- not b. b :- not a. #minimize{ 1:a }.\n", encoding="utf-8")
    assert cli.run([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: out of memory (handler failed at node 1 (introduce))\n"


@pytest.mark.parametrize(
    "mode, table, cause",
    [
        # over the bag (a) keys are A | M << 2: 0 (a false), 1 (a true,
        # unsupported) and 5 (a true, supported)
        (Mode.COUNT, dict.fromkeys([0, 1, 5, 2], 1), InvariantError),  # 4 keys over 3^1
        (Mode.COUNT, {4: 1}, InvariantError),  # a mask bit outside its assignment
        (Mode.COUNT, {0: 1, 5: 0}, ValueError),  # a count below 1
        (Mode.OPTCOUNT, {0: (0, 1), 5: (3, 0)}, ValueError),
    ],
)
def test_packed_table_guards_raise_inside_the_pass(monkeypatch, mode, table, cause):
    program = parse_ground_program("a.")
    decomp = decompose(instance_graph(program))
    assert decomp.ntd.nodes[1].kind.value == "introduce"
    monkeypatch.setattr(dpcore, "_packed_introduce", lambda *args: dict(table))
    with pytest.raises(HandlerFailureError) as info:
        aspdp.answer(program, mode, decomp=decomp)
    assert (info.value.node_id, info.value.kind) == (1, "introduce")
    assert type(info.value.__cause__) is cause


def test_lean_pass_memory_stays_flat():
    # the Row store of this pass peaked near 70 MB under tracemalloc
    formula = corpus.banded_cnf(1, 2000)
    decomp = decompose(instance_graph(formula))
    tracemalloc.start()
    try:
        count = count_models(formula, decomp=decomp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count > 2**1000
    assert peak < 5_000_000, peak


def random_3cnf(seed: int, n: int, m: int) -> CnfFormula:
    """m random 3-clauses over n variables, every literal weighted."""
    rng = random.Random(seed)
    clauses = [
        frozenset(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        for _ in range(m)
    ]
    weights = {
        lit: Fraction(rng.randint(1, 5), rng.randint(1, 4))
        for v in range(1, n + 1)
        for lit in (v, -v)
    }
    return CnfFormula(n, clauses, weights)


def test_vector_pass_matches_the_row_store_past_the_corpus_width():
    # width 14: dense tables of 2^15 entries, a width the corpus's CNFs
    # of at most 10 variables never reach
    formula = random_3cnf(4, 24, 70)
    decomp = decompose(instance_graph(formula))
    assert decomp.width == 14
    for mode in (Mode.COUNT, Mode.WEIGHTED):
        got, vector_trace = traced(aspdp.answer, formula, mode, decomp=decomp)
        (store, _), row_trace = traced(aspdp.build_store, formula, mode, decomp=decomp)
        expected = root_aggregate(store, mode)
        assert got == expected and type(got) is type(expected), mode
        assert got
        assert vector_trace == row_trace, mode


def test_a_failing_weight_in_the_vector_pass_names_its_node():
    formula = corpus.banded_cnf(2, 30)
    decomp = decompose(instance_graph(formula))
    charges = formula.charges

    def weights(v):
        if v == 17:
            raise RuntimeError("boom")
        return charges(v)

    formula.charges = weights
    with pytest.raises(HandlerFailureError) as info:
        aspdp.answer(formula, Mode.WEIGHTED, decomp=decomp)
    assert info.value.node_id == decomp.ntd.forget_node_of[17]
    assert info.value.kind == "forget"
    assert str(info.value.__cause__) == "boom"


def test_only_lean_cnf_counts_and_weights_skip_the_handler_pass(monkeypatch):
    class Reached(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Reached

    # a CNF's lean counts and weights run on dense vectors, its projected
    # counts on bitset sets of rows, and a tight program's lean counts and
    # optima on packed int keys; every other call reaches the handler
    # passes
    formula = weighted_cnf(5)
    tight = parse_ground_program("a :- not b. b :- not a. c :- a. #minimize{ 1:c }.")
    loop = parse_ground_program("a :- b. b :- a. a :- not c. c :- not a. #minimize{ 1:a }.")
    assert tight.is_tight() and not loop.is_tight()
    expected = {mode: aspdp.answer(formula, mode) for mode in CNF_MODES}
    optimum = aspdp.count_optimal(tight)
    projected = projected_count(formula, {1})
    monkeypatch.setattr(aspdp, "traverse", refuse)
    monkeypatch.setattr(aspdp, "projected_traverse", refuse)
    assert count_models(formula) == expected[Mode.COUNT]
    assert aspdp.answer(formula, Mode.WEIGHTED) == expected[Mode.WEIGHTED]
    assert projected_count(formula, {1}) == projected
    with monkeypatch.context() as patch:
        patch.setattr(aspdp, "make_handlers", refuse)
        assert aspdp.count_answer_sets(tight) == 2
        assert aspdp.is_consistent(tight)
        assert aspdp.count_optimal(tight) == optimum == (0, 1)
    for run in (
        lambda: aspdp.answer(formula, Mode.OPTCOUNT),
        lambda: aspdp.count_answer_sets(loop),
        lambda: aspdp.count_optimal(loop),
        lambda: aspdp.build_store(formula, Mode.COUNT),
        lambda: aspdp.build_store(formula, Mode.WEIGHTED),
        lambda: aspdp.build_store(tight, Mode.COUNT),
        lambda: aspdp.build_store(tight, Mode.OPTCOUNT),
        lambda: projected_count(tight, {0}),
        lambda: projected_count(loop, {0}),
    ):
        with pytest.raises(Reached):
            run()


def test_cnf_pmc_builds_no_handlers(tmp_path, capsys, monkeypatch):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 4 3\n1 -2 0\n2 3 -4 0\n-1 4 0\n", encoding="utf-8")
    argv = ["pmc", str(path), "--project-vars", "1,3"]
    assert cli.run(argv) == 0
    expected = capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("handlers were built")

    monkeypatch.setattr(aspdp, "make_handlers", refuse)
    assert cli.run(argv) == 0
    assert capsys.readouterr() == expected
