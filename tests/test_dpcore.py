"""The generic table-passing engine, exercised with toy handlers."""

import io
import json
import random

import pytest

from tdcount import aspdp
from tdcount.dpcore import (
    PROVENANCE,
    Handlers,
    Mode,
    Row,
    TableStore,
    lean_values,
    plan_checks,
    projected_bitset_traverse,
    projected_traverse,
    purge,
    require_same_bag,
    root_aggregate,
    row_values,
    solution_rows,
    traverse,
    vector_traverse,
)
from tdcount.errors import BagMismatchError, HandlerFailureError, InvariantError
from tdcount.graphs import primal_graph
from tdcount.parsers import parse_dimacs, parse_ground_program
from tdcount.treedecomp import NiceNode, NiceTreeDecomposition, NodeKind, decompose

import corpus

NO_WITNESSES = frozenset()


def build(text, mode=Mode.COUNT, trace=None):
    program = parse_ground_program(text)
    store, decomp = aspdp.build_store(program, mode, trace=trace)
    return program, store, decomp


def row_kind(mode=Mode.COUNT):
    return row_values(lean_values(mode))


def entry(assignment, state, value, origins):
    """A `Row` entry as the row kind's handlers yield it: (key, row)."""
    return (assignment, state), Row(assignment, state, value, origins)


def test_table_merges_equal_keys():
    t = row_kind().table([entry(1, NO_WITNESSES, 2, ((),)), entry(1, NO_WITNESSES, 3, ((),))])
    assert len(t) == 1
    assert [r.value for r in t] == [5]


def test_table_keeps_the_cheapest_rows_of_a_key():
    def entries():  # dear, other, cheap, and one more row of cheap's key
        return [
            entry(1, NO_WITNESSES, (2, 1), ()),
            entry(0, NO_WITNESSES, (5, 1), ()),
            entry(1, NO_WITNESSES, (0, 3), ()),
            entry(1, NO_WITNESSES, (1, 4), ()),
        ]

    table = row_kind(Mode.OPTCOUNT).table
    (_, other), (_, cheap) = (drawn := entries())[1:3]
    # the cheaper row replaced the dearer one in its key's slot, ahead of
    # `other`; the dearer row that came last was dropped
    assert list(table(drawn)) == [cheap, other]
    (_, other), (_, cheap) = (drawn := entries())[1:3]
    assert list(table(drawn + [entry(1, NO_WITNESSES, (0, 2), ())])) == [cheap, other]
    assert cheap.value == (0, 5)


def reference_merge(entries):
    """The merge rule in two passes, as a group-by then a filter:
    entries (assignment, state, cost, amount, origins) are keyed by
    (assignment, state, cost), their amounts summed and origins
    concatenated, then each (assignment, state) keeps only its cheapest
    key, in the order the (assignment, state) pairs were first seen."""
    merged = {}
    for assignment, state, cost, amount, origins in entries:
        key = (assignment, state, cost)
        if key in merged:
            total, seen = merged[key]
            merged[key] = (total + amount, seen + origins)
        else:
            merged[key] = (amount, origins)
    best = {}
    for assignment, state, cost in merged:
        k = (assignment, state)
        best[k] = min(cost, best.get(k, cost))
    return [
        (assignment, state, cost, *merged[assignment, state, cost])
        for (assignment, state), cost in best.items()
    ]


def kind_value(mode, cost, amount):
    return (cost, amount) if mode is Mode.OPTCOUNT else amount


def test_table_follows_the_reference_merge_rule():
    # the same random entries through the lean table and the `Row` table
    # of each kind: a count, a (cost, count) pair or a weight numerator
    rng = random.Random(7)
    witness_sets = [NO_WITNESSES, (0b1, 0b0), (0b1, 0b10)]
    kinds = {  # the cost the merge rule sees and the amount it sums
        Mode.COUNT: lambda cost, count, numerator: (0, count),
        Mode.OPTCOUNT: lambda cost, count, numerator: (cost, count),
        Mode.WEIGHTED: lambda cost, count, numerator: (0, numerator),
    }
    replaced = 0
    for _ in range(500):
        draws = [
            (
                rng.randrange(3),
                rng.choice(witness_sets),
                rng.randrange(4),
                rng.randint(1, 4),
                rng.randint(1, 9),
                ((tag,),),
            )
            for tag in range(rng.randint(0, 25))
        ]
        for mode, kind in kinds.items():
            entries = [(a, s, *kind(*draw), o) for a, s, *draw, o in draws]
            expected = [
                (a, s, kind_value(mode, cost, amount), o)
                for a, s, cost, amount, o in reference_merge(entries)
            ]
            rows = row_kind(mode).table(
                entry(a, s, kind_value(mode, cost, amount), o) for a, s, cost, amount, o in entries
            )
            assert [(r.assignment, r.state, r.value, r.origins) for r in rows] == expected
            lean = lean_values(mode).table(
                ((a, s), kind_value(mode, cost, amount)) for a, s, cost, amount, _ in entries
            )
            assert lean == {(a, s): value for a, s, value, _ in expected}
        cheapest = {}
        for assignment, state, cost, *_ in draws:
            k = (assignment, state)
            replaced += k in cheapest and cost < cheapest[k]
            cheapest[k] = min(cost, cheapest.get(k, cost))
    # cheaper rows often arrive after dearer rows of their key
    assert replaced > 500


def test_table_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        row_kind().table([entry(0, NO_WITNESSES, 0, ())])


def test_traverse_visits_every_node_in_post_order():
    _, store, decomp = build("a :- b. b :- not c. c.")
    assert all(table is not None for table in store.tables)
    for i, node in enumerate(decomp.ntd.nodes):
        assert all(c < i for c in node.children)


def test_traverse_wraps_handler_errors():
    program = parse_ground_program("a.")
    decomp = decompose(primal_graph(program))

    def boom(*_args):
        raise RuntimeError("boom")

    handlers = Handlers(
        leaf=boom, introduce=boom, forget=boom, join=boom, values=row_kind(), check=aspdp.WITNESS
    )
    with pytest.raises(HandlerFailureError) as info:
        traverse(decomp.ntd, handlers)
    assert info.value.node_id == 0
    assert info.value.kind == "leaf"


@pytest.mark.parametrize(
    "rows",
    [
        [entry(0, 1, 1, ())],  # a supported atom that is false
        [entry(a, 0, 1, ()) for a in range(4)],  # more than 3^0 rows in an empty bag
    ],
    ids=["mask-outside-assignment", "row-bound"],
)
def test_support_tables_are_checked(rows):
    decomp = decompose(primal_graph(parse_ground_program("a.")))

    def leaf(*_args):
        yield from rows

    handlers = Handlers(
        leaf=leaf, introduce=None, forget=None, join=None, values=row_kind(), check=aspdp.SUPPORT
    )
    with pytest.raises(HandlerFailureError) as info:
        traverse(decomp.ntd, handlers)
    assert isinstance(info.value.__cause__, InvariantError)


def _count(text, check):
    program = parse_ground_program(text)
    ntd = decompose(primal_graph(program)).ntd
    handlers = aspdp.make_handlers(
        ntd, plan_checks(ntd, program.rules), check=check, values=lean_values(Mode.COUNT)
    )
    return root_aggregate(traverse(ntd, handlers), Mode.COUNT)


def test_the_check_state_decides_which_root_keys_are_solutions():
    text = "a :- not b. b :- not a. c :- a."
    assert _count(text, aspdp.SUPPORT) == 2
    assert _count(text, aspdp.SUPPORT._replace(solution=lambda state: False)) == 0


def test_the_check_state_bounds_every_table():
    def bound(keys, k):
        raise InvariantError("over the bound")

    with pytest.raises(HandlerFailureError) as info:
        _count("a :- not b. b :- not a.", aspdp.SUPPORT._replace(bound=bound))
    assert isinstance(info.value.__cause__, InvariantError)
    assert (info.value.node_id, info.value.kind) == (0, "leaf")


def test_require_same_bag():
    _, store, decomp = build("a.")
    node = decomp.ntd.nodes[-1]
    with pytest.raises(BagMismatchError):
        require_same_bag(node, (0,), (1,))


def mismatched_join_ntd():
    """Atoms 0 and 1 introduced on two branches whose join claims the
    left branch's bag (0,) while the right branch holds (1,)."""
    nodes = [
        NiceNode(NodeKind.LEAF, (), None, ()),
        NiceNode(NodeKind.INTRODUCE, (0,), 0, (0,)),
        NiceNode(NodeKind.LEAF, (), None, ()),
        NiceNode(NodeKind.INTRODUCE, (1,), 1, (2,)),
        NiceNode(NodeKind.JOIN, (0,), None, (1, 3)),
        NiceNode(NodeKind.INTRODUCE, (0, 1), 1, (4,)),
        NiceNode(NodeKind.FORGET, (1,), 0, (5,)),
        NiceNode(NodeKind.FORGET, (), 1, (6,)),
    ]
    return NiceTreeDecomposition(nodes, 2)


@pytest.mark.parametrize("kind", ["traverse", "vector", "projected", "bitset"])
def test_every_pass_refuses_a_join_of_other_bags(kind):
    # the node loop under every pass checks a join's bags: without that
    # check none of the four passes notices the mismatch
    ntd = mismatched_join_ntd()
    program_plan = plan_checks(ntd, parse_ground_program("a :- not b. b :- not a.").rules)
    cnf_plan = plan_checks(ntd, parse_dimacs("p cnf 2 1\n1 2 0\n").rules)

    def handlers(values):
        return aspdp.make_handlers(ntd, program_plan, check=aspdp.SUPPORT, values=values)

    passes = {
        "traverse": lambda: traverse(ntd, handlers(lean_values(Mode.COUNT))),
        "vector": lambda: vector_traverse(ntd, cnf_plan, lean_values(Mode.COUNT), aspdp.EMPTY),
        "projected": lambda: projected_traverse(ntd, handlers(PROVENANCE), {0}),
        "bitset": lambda: projected_bitset_traverse(ntd, cnf_plan, {0}),
    }
    with pytest.raises(HandlerFailureError) as info:
        passes[kind]()
    assert (info.value.node_id, info.value.kind) == (4, "join")
    assert isinstance(info.value.__cause__, BagMismatchError)


def test_solution_rows_exclude_strict_witnesses():
    # bit b of a witness state's first int is the witness b, of its second
    # the strict witness b
    good = entry(0, (0b1, 0b0), 1, ())
    bad = entry(1, (0b10, 0b1), 1, ())
    ntd = decompose(primal_graph(parse_ground_program("a."))).ntd
    store = TableStore(ntd, row_kind(), aspdp.WITNESS)
    store.tables[ntd.root] = row_kind().table([good, bad])
    assert solution_rows(store) == [good[1]]


def test_purge_preserves_root_aggregate():
    for seed in range(25):
        program = corpus.random_program(seed)
        store, _ = aspdp.build_store(program, Mode.COUNT)
        before = root_aggregate(store, Mode.COUNT)
        purged = purge(store)
        assert root_aggregate(purged, Mode.COUNT) == before


def test_purge_drops_rows_off_the_solution_paths():
    # b's truth can never be completed to an answer set
    _, store, _ = build("a. :- b, a. b :- not a.")
    purged = purge(store)
    for table in purged.tables:
        for row in table:
            for refs in row.origins:
                for ref in refs:
                    assert any(
                        ref is kept
                        for kept in purged.tables[_table_of(purged, ref)]
                    )
    total_before = sum(len(t) for t in store.tables)
    total_after = sum(len(t) for t in purged.tables)
    assert total_after < total_before


def _table_of(store, row):
    for i, table in enumerate(store.tables):
        if any(r is row for r in table):
            return i
    raise AssertionError("row vanished from the store")


def test_purge_of_inconsistent_program_empties_every_table():
    _, store, _ = build("a :- not a.")
    purged = purge(store)
    assert all(len(t) == 0 for t in purged.tables)


def test_trace_records_every_node():
    buf = io.StringIO()
    _, store, decomp = build("a :- not b. b :- not a.", trace=buf)
    records = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert [r["node"] for r in records] == list(range(len(decomp.ntd.nodes)))
    kinds = {r["type"] for r in records}
    assert kinds <= {"leaf", "introduce", "forget", "join"}
    for r, table in zip(records, store.tables):
        assert r["rows"] == len(table)


def test_plan_checks_targets_earliest_forget():
    program = parse_ground_program("a :- b, not c.")
    decomp = decompose(primal_graph(program))
    plan = plan_checks(decomp.ntd, program.rules)
    (node_id,) = plan
    node = decomp.ntd.nodes[node_id]
    child_bag = decomp.ntd.nodes[node.children[0]].bag
    assert {0, 1, 2} <= set(child_bag)
    assert node_id == min(decomp.ntd.forget_node_of[a] for a in (0, 1, 2))
    # the rule's (head, body_pos, body_neg) masks over the child bag
    bit = {a: 1 << k for k, a in enumerate(child_bag)}
    assert plan[node_id] == [(bit[0], bit[1], bit[2])]


def test_plan_checks_refuses_a_rule_outside_its_forget_nodes_bag():
    # atoms 0 and 1 never share a bag, so `a :- b.` has no forget node
    # whose child bag holds both
    nodes = [
        NiceNode(NodeKind.LEAF, (), None, ()),
        NiceNode(NodeKind.INTRODUCE, (0,), 0, (0,)),
        NiceNode(NodeKind.FORGET, (), 0, (1,)),
        NiceNode(NodeKind.INTRODUCE, (1,), 1, (2,)),
        NiceNode(NodeKind.FORGET, (), 1, (3,)),
    ]
    with pytest.raises(InvariantError, match="share the child bag"):
        plan_checks(NiceTreeDecomposition(nodes, 2), parse_ground_program("a :- b.").rules)


def test_root_aggregate_modes():
    _, store, _ = build("a :- not b. b :- not a.")
    assert root_aggregate(store, Mode.COUNT) == 2
    _, store, _ = build("a :- not a.", mode=Mode.OPTCOUNT)
    assert root_aggregate(store, Mode.OPTCOUNT) == (None, 0)


def test_root_aggregate_rejects_a_store_of_another_mode():
    # a COUNT store totals counts; read as OPTCOUNT it would answer 2,
    # the number of answer sets, for a program with one optimal one
    text = "a :- not b. b :- not a. #minimize{ 1:a }."
    _, store, _ = build(text, mode=Mode.COUNT)
    with pytest.raises(InvariantError):
        root_aggregate(store, Mode.OPTCOUNT)
    with pytest.raises(InvariantError):
        root_aggregate(store, Mode.WEIGHTED)
    _, store, _ = build(text, mode=Mode.OPTCOUNT)
    assert root_aggregate(store, Mode.OPTCOUNT) == (0, 1)
    with pytest.raises(InvariantError):
        root_aggregate(store, Mode.COUNT)
