"""The generic table-passing engine, exercised with toy handlers."""

import io
import json

import pytest

from tdcount import aspdp
from tdcount.dpcore import (
    DpTable,
    Handlers,
    Mode,
    Row,
    insert_bit,
    plan_checks,
    purge,
    remove_bit,
    require_same_bag,
    root_aggregate,
    solution_rows,
    traverse,
)
from tdcount.errors import BagMismatchError, HandlerFailureError
from tdcount.graphs import primal_graph
from tdcount.parsers import parse_ground_program
from tdcount.treedecomp import decompose

import corpus

NO_WITNESSES = frozenset()


def build(text, mode=Mode.COUNT, trace=None):
    program = parse_ground_program(text)
    store, decomp = aspdp.build_store(program, mode, trace=trace)
    return program, store, decomp


def test_insert_and_remove_bit_are_inverse():
    for mask in range(16):
        for pos in range(5):
            for bit in (0, 1):
                grown = insert_bit(mask, pos, bit)
                assert grown >> pos & 1 == bit
                assert remove_bit(grown, pos) == mask


def test_table_merges_equal_keys():
    t = DpTable(0)
    a = Row(1, NO_WITNESSES, 2, origins=((),))
    b = Row(1, NO_WITNESSES, 3, origins=((),))
    t.add(a)
    t.add(b)
    assert len(t) == 1
    assert t.total_count() == 5


def test_table_keeps_distinct_costs_apart():
    t = DpTable(0)
    t.add(Row(1, NO_WITNESSES, 1, cost=0))
    t.add(Row(1, NO_WITNESSES, 1, cost=2))
    assert len(t) == 2


def test_table_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        DpTable(0).add(Row(0, NO_WITNESSES, 0))


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

    handlers = Handlers(leaf=boom, introduce=boom, forget=boom, join=boom)
    with pytest.raises(HandlerFailureError) as info:
        traverse(decomp.ntd, handlers)
    assert info.value.node_id == 0
    assert info.value.kind == "leaf"


def test_require_same_bag():
    _, store, decomp = build("a.")
    node = decomp.ntd.nodes[-1]
    with pytest.raises(BagMismatchError):
        require_same_bag(node, (0,), (1,))


def test_solution_rows_exclude_strict_witnesses():
    t = DpTable(0)
    good = Row(0, frozenset({(0, False)}), 1)
    bad = Row(1, frozenset({(1, False), (0, True)}), 1)
    t.add(good)
    t.add(bad)
    assert solution_rows(t) == [good]


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


def test_fingerprint_is_deterministic():
    _, store_a, _ = build("a :- not b. b :- not a. c :- a.")
    _, store_b, _ = build("a :- not b. b :- not a. c :- a.")
    assert store_a.fingerprint() == store_b.fingerprint()


def test_fingerprint_distinguishes_programs():
    _, store_a, _ = build("a :- not b. b :- not a.")
    _, store_b, _ = build("a. b :- a.")
    assert store_a.fingerprint() != store_b.fingerprint()


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
    program = parse_ground_program("a :- b, c.")
    decomp = decompose(primal_graph(program))
    plan = plan_checks(decomp.ntd, program.rules)
    (node_id,) = plan
    assert plan[node_id] == program.rules
    node = decomp.ntd.nodes[node_id]
    child_bag = decomp.ntd.nodes[node.children[0]].bag
    assert {0, 1, 2} <= set(child_bag)
    assert node_id == min(decomp.ntd.forget_node_of[a] for a in (0, 1, 2))


def test_root_aggregate_modes():
    _, store, _ = build("a :- not b. b :- not a.")
    assert root_aggregate(store, Mode.COUNT) == 2
    _, store, _ = build("a :- not b. b :- not a.", mode=Mode.DECISION)
    assert root_aggregate(store, Mode.DECISION) is True
    _, store, _ = build("a :- not a.", mode=Mode.OPTCOUNT)
    assert root_aggregate(store, Mode.OPTCOUNT) == (None, 0)
