"""Projected counting: one pass over sets of rows for programs and CNFs
on any decomposition, checked against the oracle and against
`ProjectionPass`, inclusion-exclusion down the derivations of the root's
solution rows, and a CNF's pass on bitset sets of rows against the
handler pass over numbered rows."""

import io
import json
import random

import pytest

from tdcount import cli, dpcore
from tdcount.aspdp import EMPTY, build_store, count_answer_sets, make_handlers
from tdcount.dpcore import (
    PROVENANCE,
    Mode,
    plan_checks,
    projected_bitset_traverse,
    projected_forget_below,
    projected_traverse,
    purge,
)
from tdcount.errors import HandlerFailureError, ProjectionOutOfRangeError
from tdcount.graphs import instance_graph
from tdcount.oracle import brute_projected_count
from tdcount.model import Atom, CnfFormula, GroundProgram, Rule, has_atomless_rule
from tdcount.parsers import parse_dimacs, parse_ground_program
from tdcount.projection import ProjectionPass, projected_count, projection_vertices
from tdcount.satdp import count_models
from tdcount.treedecomp import (
    DecompResult,
    NodeKind,
    decompose,
    elimination_ordering,
    make_nice,
    td_from_ordering,
)

import corpus


SUPPORTS = "b :- c. b :- not e. c :- not d. d :- not c. e :- not f. f :- not e."


def deferred_decomposition(instance, vertices, heuristic="min-fill", seed=0):
    """The decomposition of an ordering that eliminates `vertices` last,
    so that every forget of another vertex lies below every forget of
    one of them."""
    graph = instance_graph(instance)
    td = td_from_ordering(graph, elimination_ordering(graph, heuristic, seed, vertices))
    return DecompResult(make_nice(td), td, td.width(), seed, heuristic)


def test_projection_frozen_example():
    p = parse_ground_program("a :- not b. b :- not a. c :- a.")
    assert projected_count(p, {2}) == 2
    assert projected_count(p, {0}) == 2
    assert projected_count(p, {1, 2}) == 2
    assert projected_count(p, {0, 1, 2}) == 2
    # b has its support from c in some answer sets and from `not e` in
    # others, so one projection reaches several support masks
    p = parse_ground_program(SUPPORTS)
    proj = {p.atom_names().index(name) for name in "bef"}
    for heuristic in ("min-fill", "min-degree"):
        for seed in range(4):
            assert projected_count(p, proj, heuristic=heuristic, seed=seed) == 3


def test_projecting_onto_all_atoms_equals_the_count():
    for seed in range(40):
        program = corpus.random_program(seed)
        full = set(range(program.num_atoms))
        assert projected_count(program, full) == count_answer_sets(program), seed


def test_empty_projection_is_a_consistency_check():
    assert projected_count(parse_ground_program("a."), set()) == 1
    assert projected_count(parse_ground_program("a. :- a."), set()) == 0
    assert projected_count(parse_ground_program("a. :- ."), {0}) == 0


def test_projection_out_of_range():
    p = parse_ground_program("a.")
    with pytest.raises(ProjectionOutOfRangeError):
        projected_count(p, {5})
    f = parse_dimacs("p cnf 2 1\n1 -2 0\n")
    with pytest.raises(ProjectionOutOfRangeError):
        projected_count(f, {3})
    with pytest.raises(ProjectionOutOfRangeError):
        projected_count(f, {0})


def test_projected_count_rejects_other_inputs():
    with pytest.raises(TypeError):
        projected_count("a.", set())


def test_cnf_projection_frozen_example():
    f = parse_dimacs("p cnf 2 1\n1 -2 0\n")
    assert projected_count(f, {1}) == 2
    assert projected_count(f, {2}) == 2
    assert projected_count(f, {1, 2}) == 3
    assert projected_count(f, set()) == 1


def test_program_projections_match_oracle():
    rng = random.Random(404)
    for seed in range(120):
        program = corpus.random_program(seed)
        n = program.num_atoms
        proj = set(rng.sample(range(n), rng.randint(0, n)))
        got = projected_count(program, proj)
        assert got == brute_projected_count(program, proj), (seed, sorted(proj))


def test_cnf_projections_match_oracle():
    rng = random.Random(405)
    for seed in range(160):
        f = corpus.random_cnf(seed, weighted=False)
        n = f.num_vars
        proj = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
        got = projected_count(f, proj)
        assert got == brute_projected_count(f, proj), (seed, sorted(proj))


def test_non_deferred_decompositions_match_oracle():
    # caller-given plain decompositions, as projected_count builds them,
    # forget projected and unprojected vertices in any order
    rng = random.Random(407)
    for heuristic in ("min-fill", "min-degree"):
        for seed in range(30):
            program = corpus.random_program(seed)
            formula = corpus.random_cnf(seed, weighted=False)
            atoms = range(program.num_atoms)
            variables = range(1, formula.num_vars + 1)
            cases = [
                (program, set(rng.sample(atoms, rng.randint(0, len(atoms))))),
                (formula, set(rng.sample(variables, rng.randint(0, len(variables))))),
            ]
            for instance, proj in cases:
                decomp = decompose(instance_graph(instance), heuristic, seed)
                got = projected_count(instance, proj, decomp=decomp)
                assert got == brute_projected_count(instance, proj), (heuristic, seed, sorted(proj))


def test_projection_is_monotone_in_the_projection_set():
    rng = random.Random(406)
    for seed in range(30):
        program = corpus.random_program(seed)
        n = program.num_atoms
        small = set(rng.sample(range(n), rng.randint(0, n)))
        big = small | set(rng.sample(range(n), rng.randint(0, n)))
        assert projected_count(program, small) <= projected_count(program, big)


def test_projection_bounds():
    for seed in range(30):
        program = corpus.random_program(seed)
        proj = set(range(min(3, program.num_atoms)))
        count = count_answer_sets(program)
        got = projected_count(program, proj)
        assert got <= min(count, 1 << len(proj))
        if count:
            assert got >= 1


def test_projection_agrees_across_heuristics():
    for seed in range(20):
        program = corpus.random_program(seed)
        proj = set(range(0, program.num_atoms, 2))
        a = projected_count(program, proj, heuristic="min-fill")
        b = projected_count(program, proj, heuristic="min-degree", seed=3)
        assert a == b, seed


def test_leaf_table_entries_are_one():
    program = parse_ground_program("a :- not b. b :- not a.")
    store, decomp = build_store(program, Mode.COUNT)
    pass_ = ProjectionPass(store, {0})
    for i, node in enumerate(decomp.ntd.nodes):
        if node.kind is NodeKind.LEAF:
            assert len(store.tables[i]) == 1
            for row in store.tables[i]:
                assert pass_.ipmc(i, frozenset({row})) == 1


def test_projection_pass_reads_only_rows_purge_keeps():
    # the pass walks from the root's solution rows down derivations,
    # which is the marking purge does, so on the store as built it
    # fills the same caches with the same values as on the purged store
    rng = random.Random(408)
    for seed in range(40):
        program = corpus.random_program(seed)
        formula = corpus.random_cnf(seed, weighted=False)
        for instance, ids in (
            (program, range(program.num_atoms)),
            (formula, range(1, formula.num_vars + 1)),
        ):
            proj = set(rng.sample(ids, rng.randint(0, len(ids))))
            vertices = projection_vertices(instance, proj)
            for decomp in (
                deferred_decomposition(instance, vertices),
                decompose(instance_graph(instance)),
            ):
                store, _ = build_store(instance, Mode.COUNT, decomp=decomp)
                built = ProjectionPass(store, vertices)
                purged = ProjectionPass(purge(store), vertices)
                assert built.root_value() == purged.root_value(), (seed, sorted(proj))
                assert built.tables == purged.tables
                assert built._pmc_cache == purged._pmc_cache
                assert built._pairs_cache == purged._pairs_cache


def test_root_value_is_cached_and_stable():
    program = parse_ground_program("a :- not b. b :- not a. c :- a.")
    store, _ = build_store(program, Mode.COUNT)
    pass_ = ProjectionPass(purge(store), {2})
    assert pass_.root_value() == pass_.root_value() == 2


def test_given_decomposition_builds_no_graph(monkeypatch):
    from tdcount import graphs
    from tdcount.treedecomp import decompose

    program = parse_ground_program("a :- not b. b :- not a. c :- a.")
    formula = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
    program_decomp = deferred_decomposition(program, {2})
    formula_decomp = deferred_decomposition(formula, {0, 2})

    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built")

    for name in ("primal_graph", "primal_graph_cnf", "incidence_graph", "incidence_graph_cnf"):
        monkeypatch.setattr(graphs, name, no_graph)
    monkeypatch.setattr(graphs.Graph, "__init__", no_graph)
    assert projected_count(program, {2}, decomp=program_decomp) == 2
    assert projected_count(formula, {1, 3}, decomp=formula_decomp) == 3


def test_projected_count_runs_no_purge(monkeypatch):
    from tdcount import aspdp, dpcore, projection

    program = parse_ground_program("a :- not b. b :- not a. c :- a.")
    formula = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")

    def no_purge(*args, **kwargs):
        raise AssertionError("the store was purged")

    for module in (dpcore, aspdp):
        monkeypatch.setattr(module, "purge", no_purge)
    monkeypatch.setattr(projection, "purge", no_purge, raising=False)
    assert projected_count(program, {2}) == 2
    assert projected_count(formula, {1, 3}) == 3


def forgets_projected_below_unprojected(ntd, vertices) -> bool:
    """Whether a forget of a vertex outside `vertices` has a forget of
    one inside below it, which no pass keyed by one assignment and its
    states could count."""
    below = projected_forget_below(ntd, vertices)
    return any(
        node.kind is NodeKind.FORGET and node.vertex not in vertices and below[node.children[0]]
        for node in ntd.nodes
    )


def test_cnf_projections_match_oracle_on_both_paths():
    # the one pass on plain decompositions, as projected_count builds
    # them, and on caller-given ones that eliminate the projected
    # variables last; both kinds of plain decomposition occur often
    rng = random.Random(409)
    paths = {True: 0, False: 0}
    for heuristic in ("min-fill", "min-degree"):
        for seed in range(160):
            f = corpus.random_cnf(seed, weighted=False)
            n = f.num_vars
            proj = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
            expected = brute_projected_count(f, proj)
            vertices = projection_vertices(f, proj)
            got = projected_count(f, proj, heuristic=heuristic, seed=seed)
            assert got == expected, (heuristic, seed, sorted(proj))
            plain = decompose(instance_graph(f), heuristic, seed)
            paths[forgets_projected_below_unprojected(plain.ntd, vertices)] += 1
            deferred = deferred_decomposition(f, vertices, heuristic, seed)
            assert not forgets_projected_below_unprojected(deferred.ntd, vertices)
            got = projected_count(f, proj, decomp=deferred)
            assert got == expected, (heuristic, seed, sorted(proj))
    assert min(paths.values()) >= 100, paths


def test_decomposition_failing_the_path_condition_takes_the_one_pass(monkeypatch):
    # eliminating the unprojected variables last forgets the projected
    # one below them, which a pass keyed by one assignment and its
    # states could not count; the sets-of-rows pass needs no Row store
    # and no inclusion-exclusion
    from tdcount import aspdp, projection

    f = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
    decomp = deferred_decomposition(f, {0, 2})
    assert forgets_projected_below_unprojected(decomp.ntd, {1})

    def no_fallback(*args, **kwargs):
        raise AssertionError("a Row store or projection pass was built")

    monkeypatch.setattr(aspdp, "build_store", no_fallback)
    monkeypatch.setattr(projection, "ProjectionPass", no_fallback)
    assert projected_count(f, {2}, decomp=decomp) == brute_projected_count(f, {2}) == 2


def test_one_pass_builds_no_row_store(monkeypatch):
    from tdcount import aspdp, projection

    def no_store(*args, **kwargs):
        raise AssertionError("a Row store or projection pass was built")

    monkeypatch.setattr(aspdp, "build_store", no_store)
    monkeypatch.setattr(projection, "ProjectionPass", no_store)
    for seed in range(40):
        f = corpus.random_cnf(seed, weighted=False)
        proj = set(range(1, f.num_vars + 1, 2))
        assert projected_count(f, proj) == brute_projected_count(f, proj), seed
    banded = corpus.banded_cnf(1, 60)
    assert projected_count(banded, set(range(1, 61, 5))) > 0
    tight = {True: 0, False: 0}
    for seed in range(60):
        program = corpus.random_program(seed)
        proj = set(range(0, program.num_atoms, 2))
        tight[program.is_tight()] += 1
        assert projected_count(program, proj) == brute_projected_count(program, proj), seed
    assert min(tight.values()) >= 20, tight


def banded_program(seed, n):
    """n atoms paired into choices, and n/2 random rules over three atoms
    at most three apart, so the width stays small; a rule's body atoms
    are positive or negative at random, which makes positive loops."""
    rng = random.Random(seed)
    rules = []
    for i in range(0, n - 1, 2):
        rules.append(Rule(frozenset({i}), frozenset(), frozenset({i + 1})))
        rules.append(Rule(frozenset({i + 1}), frozenset(), frozenset({i})))
    for _ in range(n // 2):
        i = rng.randrange(n)
        head, *body = rng.sample(range(max(0, i - 3), min(n, i + 4)), 3)
        pos = frozenset(b for b in body if rng.random() < 0.6)
        rules.append(Rule(frozenset({head}), pos, frozenset(body) - pos))
    return GroundProgram([Atom(i, f"a{i}") for i in range(n)], rules)


def test_one_pass_matches_the_projection_pass_past_the_oracle():
    # 21-32 atoms, more than the brute-force oracle takes: the one pass
    # and the inclusion-exclusion pass count on the same deferred
    # decomposition, and the one pass on the plain one too
    rng = random.Random(411)
    tight = {True: 0, False: 0}
    for heuristic in ("min-fill", "min-degree"):
        for seed in range(25):
            program = banded_program(seed, rng.randint(21, 32))
            proj = set(rng.sample(range(program.num_atoms), rng.randint(4, 12)))
            decomp = deferred_decomposition(program, proj, heuristic, seed)
            store, _ = build_store(program, Mode.COUNT, decomp=decomp)
            expected = ProjectionPass(store, proj).root_value()
            got = projected_count(program, proj, decomp=decomp)
            assert got == expected, (heuristic, seed, sorted(proj))
            got = projected_count(program, proj, heuristic=heuristic, seed=seed)
            assert got == expected, (heuristic, seed, sorted(proj))
            tight[program.is_tight()] += 1
    assert min(tight.values()) >= 15, tight


def test_one_pass_trace_matches_the_row_store():
    # projected onto every variable, a CNF's set of rows compatible with
    # one projection is the one row of its assignment, so each node has
    # as many sets as the Row store has rows, each of one row
    for seed in range(40):
        f = corpus.random_cnf(seed, weighted=False)
        if has_atomless_rule(f):
            continue
        decomp = decompose(instance_graph(f))
        one_pass, row_store = io.StringIO(), io.StringIO()
        projected_count(f, range(1, f.num_vars + 1), decomp=decomp, trace=one_pass)
        build_store(f, Mode.COUNT, decomp=decomp, trace=row_store)
        records = [
            [json.loads(line) for line in out.getvalue().splitlines()]
            for out in (one_pass, row_store)
        ]
        assert len(records[0]) == len(records[1]) == len(decomp.ntd.nodes)
        for sets, rows in zip(*records):
            assert sets == dict(rows, max_witness_set=min(rows["rows"], 1)), seed


def test_projected_count_matches_the_oracle_on_banded_programs():
    # corpus programs mostly have at most one answer set, so their
    # projected counts are mostly 0 or 1; banded programs have many
    rng = random.Random(412)
    above_one = cases = nontight = 0
    for seed in range(60):
        program = banded_program(seed, rng.randint(10, 14))
        nontight += not program.is_tight()
        proj = set(rng.sample(range(program.num_atoms), rng.randint(1, program.num_atoms)))
        expected = brute_projected_count(program, proj)
        for heuristic in ("min-fill", "min-degree"):
            got = projected_count(program, proj, heuristic=heuristic, seed=seed)
            assert got == expected, (seed, heuristic, sorted(proj))
            cases += 1
            above_one += expected > 1
    assert above_one >= 0.9 * cases and nontight >= 10, (above_one, nontight)


def random_3cnf(rng, n, m) -> CnfFormula:
    """m clauses, each over 3 distinct of the n variables, each literal
    negative when `rng.random() >= 0.5`."""
    clauses = []
    for _ in range(m):
        chosen = rng.sample(range(1, n + 1), 3)
        clauses.append(frozenset(v if rng.random() < 0.5 else -v for v in chosen))
    return CnfFormula(n, clauses)


def test_bitset_pass_matches_the_handler_pass_past_the_oracle():
    # 18-26 variables, more than the brute-force oracle takes: a CNF's
    # pass on bitset sets of rows and the handler pass over numbered rows
    # give equal counts and trace records, on plain and deferred
    # decompositions, with empty, partial and full projections
    rng = random.Random(413)
    counts = []
    for case in range(8):
        n = rng.randint(18, 26)
        formula = random_3cnf(rng, n, 3 * n // 2)
        size = (0, n)[case] if case < 2 else rng.randint(1, n - 1)
        vertices = set(rng.sample(range(n), size))
        for decomp in (
            decompose(instance_graph(formula), "min-fill", case),
            decompose(instance_graph(formula), "min-degree", case),
            deferred_decomposition(formula, vertices, "min-fill", case),
        ):
            plan = plan_checks(decomp.ntd, formula.rules)
            handlers = make_handlers(decomp.ntd, plan, check=EMPTY, values=PROVENANCE)
            bitset_trace, handler_trace = io.StringIO(), io.StringIO()
            got = projected_bitset_traverse(decomp.ntd, plan, vertices, bitset_trace)
            expected = projected_traverse(decomp.ntd, handlers, vertices, handler_trace)
            assert got == expected, (case, decomp.heuristic, sorted(vertices))
            assert bitset_trace.getvalue() == handler_trace.getvalue(), case
            counts.append(expected)
        if case == 1:  # every variable projected: the model count
            assert counts[-3:] == [count_models(formula)] * 3
    assert counts[:3] == [1] * 3  # nothing projected: satisfiable
    assert sum(count > 100 for count in counts) >= 12, counts


def test_width_twenty_projected_count_agrees_across_decompositions():
    # widths 20-21; on min-fill seed 0 the handler pass over numbered
    # rows counted the same 13186 projections in about 35 s and 940 MB of
    # peak RSS (Python 3.11, 2-CPU machine)
    formula = random_3cnf(random.Random(0), 40, 90)
    for heuristic, seed in (("min-fill", 0), ("min-degree", 0), ("min-degree", 1)):
        decomp = decompose(instance_graph(formula), heuristic, seed)
        assert decomp.width >= 20, (heuristic, seed)
        assert projected_count(formula, range(1, 41, 2), decomp=decomp) == 13186


def test_out_of_memory_in_the_bitset_pass_names_its_forget_node(tmp_path, capsys, monkeypatch):
    text = "p cnf 6 5\n1 -2 3 0\n-1 4 0\n2 -5 6 0\n-3 5 0\n4 -6 0\n"
    formula = parse_dimacs(text)
    decomp = decompose(instance_graph(formula))
    first = min(plan_checks(decomp.ntd, formula.rules))  # its first forget node with a clause

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(dpcore, "_clashing", no_memory)
    with pytest.raises(HandlerFailureError) as info:
        projected_count(formula, {1, 4}, decomp=decomp)
    assert (info.value.node_id, info.value.kind) == (first, "forget")
    assert isinstance(info.value.__cause__, MemoryError)
    path = tmp_path / "f.cnf"
    path.write_text(text, encoding="utf-8")
    assert cli.run(["pmc", str(path), "--project-vars", "1,4", "--seed", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: out of memory (handler failed at node {first} (forget))\n"
