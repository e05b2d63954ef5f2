"""Answer-set counting, optimization and enumeration over nice tree
decompositions of the primal graph.

Each row pairs a candidate bag assignment with a set of witness states.
A witness (B, strict) tracks a sub-interpretation that still satisfies
every checked rule of the reduct; `strict` records that it is already
properly smaller than the candidate on some decided atom.  A root row
describes answer sets exactly when no strict witness survived.
"""

from __future__ import annotations

from .dpcore import (
    DpTable,
    Handlers,
    Mode,
    Row,
    TableStore,
    constraint_masks,
    insert_bit,
    plan_constraints,
    purge,
    remove_bit,
    require_same_bag,
    root_aggregate,
    solution_rows,
    traverse,
)
from .errors import InvariantError
from .graphs import instance_graph
from .model import GroundProgram, MinimizeStatement, Rule
from .treedecomp import DecompResult, NiceTreeDecomposition, NodeKind, decompose


def plan_rule_checks(program: GroundProgram, ntd: NiceTreeDecomposition) -> dict[int, list[Rule]]:
    """Each rule is checked once, at the forget node of its earliest
    forgotten atom.  An atomless rule is always violated and raises
    ValueError; the public entry points answer such programs first."""
    return plan_constraints(ntd, program.rules)


def make_asp_handlers(
    ntd: NiceTreeDecomposition,
    plan: dict[int, list[Rule]],
    minimize: MinimizeStatement | None = None,
) -> Handlers:
    """Handlers for counting; pass a minimize statement to also accrue
    costs (positive literals at Introduce, negative ones at Forget)."""

    def pos_weight(atom):
        return minimize.positive_weight(atom) if minimize else 0

    def neg_weight(atom):
        return minimize.negative_weight(atom) if minimize else 0

    def leaf(node_id, node):
        table = DpTable(node_id)
        table.add(Row(0, frozenset({(0, False)}), 1))
        return table

    def introduce(node_id, node, child):
        a = node.vertex
        p = node.bag.index(a)
        pw = pos_weight(a)
        table = DpTable(node_id)
        for row in child:
            # candidate sets a false: witnesses must stay below it
            w_false = frozenset(
                (insert_bit(b, p, 0), s) for b, s in row.witnesses
            )
            table.add(
                Row(
                    insert_bit(row.assignment, p, 0),
                    w_false,
                    row.count,
                    row.cost,
                    origins=((row,),),
                )
            )
            # candidate sets a true: each witness forks; choosing false
            # makes the witness strictly smaller from here on
            w_true = frozenset(
                (insert_bit(b, p, 1), s) for b, s in row.witnesses
            ) | frozenset((insert_bit(b, p, 0), True) for b, _ in row.witnesses)
            table.add(
                Row(
                    insert_bit(row.assignment, p, 1),
                    w_true,
                    row.count,
                    row.cost + pw,
                    origins=((row,),),
                )
            )
        return table

    def forget(node_id, node, child):
        a = node.vertex
        child_bag = ntd.nodes[node.children[0]].bag
        p = child_bag.index(a)
        due = constraint_masks(plan.get(node_id, []), child_bag)
        nw = neg_weight(a)
        table = DpTable(node_id)
        for row in child:
            A = row.assignment
            # candidate must satisfy every due rule classically
            if any(
                pos & A == pos and neg & A == 0 and head & A == 0
                for head, pos, neg in due
            ):
                continue
            # witnesses violating a due rule of the reduct w.r.t. A die
            live = [(head, pos) for head, pos, neg in due if neg & A == 0]
            kept = frozenset(
                (remove_bit(b, p), s)
                for b, s in row.witnesses
                if not any(pos & b == pos and head & b == 0 for head, pos in live)
            )
            if (remove_bit(A, p), False) not in kept:
                raise InvariantError("self-witness lost at forget")
            cost = row.cost + (nw if A >> p & 1 == 0 else 0)
            table.add(
                Row(remove_bit(A, p), kept, row.count, cost, origins=((row,),))
            )
        return table

    def join(node_id, node, left, right):
        left_bag = ntd.nodes[node.children[0]].bag
        right_bag = ntd.nodes[node.children[1]].bag
        require_same_bag(node, left_bag, right_bag)
        dup = [pos_weight(a) for a in node.bag] if minimize else None
        by_assignment: dict[int, list[Row]] = {}
        for row in right:
            by_assignment.setdefault(row.assignment, []).append(row)
        table = DpTable(node_id)
        for lrow in left:
            for rrow in by_assignment.get(lrow.assignment, ()):
                flags: dict[int, set[bool]] = {}
                for b, s in rrow.witnesses:
                    flags.setdefault(b, set()).add(s)
                combined = frozenset(
                    (b, s1 or s2)
                    for b, s1 in lrow.witnesses
                    for s2 in flags.get(b, ())
                )
                cost = lrow.cost + rrow.cost
                if dup is not None:
                    A = lrow.assignment
                    cost -= sum(w for i, w in enumerate(dup) if A >> i & 1)
                table.add(
                    Row(
                        lrow.assignment,
                        combined,
                        lrow.count * rrow.count,
                        cost,
                        origins=((lrow, rrow),),
                    )
                )
        return table

    return Handlers(leaf, introduce, forget, join)


def build_store(
    program: GroundProgram,
    mode: Mode = Mode.COUNT,
    heuristic: str = "min-fill",
    seed: int = 0,
    seeds: int = 1,
    trace=None,
    decomp: DecompResult | None = None,
) -> tuple[TableStore, DecompResult]:
    """Run the counting pass; caller picks the aggregate."""
    if decomp is None:
        decomp = decompose(instance_graph(program), heuristic, seed, seeds)
    plan = plan_rule_checks(program, decomp.ntd)
    minimize = program.minimize if mode is Mode.OPTCOUNT else None
    handlers = make_asp_handlers(decomp.ntd, plan, minimize)
    store = traverse(decomp.ntd, handlers, mode, trace)
    return store, decomp


def count_answer_sets(program: GroundProgram, **options) -> int:
    if program.is_trivially_inconsistent():
        return 0
    store, _ = build_store(program, Mode.COUNT, **options)
    return root_aggregate(store, Mode.COUNT)


def is_consistent(program: GroundProgram, **options) -> bool:
    if program.is_trivially_inconsistent():
        return False
    store, _ = build_store(program, Mode.DECISION, **options)
    return root_aggregate(store, Mode.DECISION)


def count_optimal(program: GroundProgram, **options) -> tuple[int | None, int]:
    """(cost of an optimal answer set, number of optimal answer sets);
    (None, 0) when inconsistent.  A missing minimize statement behaves
    as an empty one."""
    if program.is_trivially_inconsistent():
        return (None, 0)
    store, _ = build_store(program, Mode.OPTCOUNT, **options)
    return root_aggregate(store, Mode.OPTCOUNT)


def _materialize(store: TableStore) -> list[frozenset[int]]:
    """Build each purged row's list of true-atom sets from its
    derivations' child lists, node by node in the stored post-order, and
    drop a child's lists once its parent is built.  Join rows recombine
    only the row pairs that actually joined."""
    ntd = store.ntd
    sets: list[dict[int, list[frozenset[int]]] | None] = [None] * len(ntd.nodes)
    for i, node in enumerate(ntd.nodes):
        built: dict[int, list[frozenset[int]]] = {}
        for row in store.tables[i]:
            if node.kind is NodeKind.LEAF:
                result = [frozenset()]
            elif node.kind is NodeKind.INTRODUCE:
                result = sets[node.children[0]][id(row.origins[0][0])]
                if row.assignment >> node.bag.index(node.vertex) & 1:
                    result = [s | {node.vertex} for s in result]
            elif node.kind is NodeKind.FORGET:
                child = sets[node.children[0]]
                gathered: set[frozenset[int]] = set()
                for (ref,) in row.origins:
                    gathered.update(child[id(ref)])
                result = list(gathered)
            else:
                left, right = (sets[c] for c in node.children)
                gathered = set()
                for lrow, rrow in row.origins:
                    for s1 in left[id(lrow)]:
                        gathered.update(s1 | s2 for s2 in right[id(rrow)])
                result = list(gathered)
            if len(result) != row.count:
                raise InvariantError("materialized sets must match the count")
            built[id(row)] = result
        sets[i] = built
        for c in node.children:
            sets[c] = None
    root = sets[ntd.root]
    out: set[frozenset[int]] = set()
    for row in solution_rows(store.root_table):
        out.update(root[id(row)])
    return sorted(out, key=sorted)


def enumerate_answer_sets(program: GroundProgram, limit: int | None = None, **options):
    """Yield answer sets as frozensets of atom ids, sorted by their
    sorted atom tuples, stopping after `limit` when given."""
    if limit is not None and limit <= 0:
        return
    if program.is_trivially_inconsistent():
        return
    store, _ = build_store(program, Mode.COUNT, **options)
    purged = purge(store)
    produced = 0
    for answer in _materialize(purged):
        yield answer
        produced += 1
        if limit is not None and produced >= limit:
            return
