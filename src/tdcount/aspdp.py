"""Answer-set counting, optimization and enumeration over nice tree
decompositions of the primal graph.

Each row pairs a candidate bag assignment with a set of witness states.
A witness (B, strict) tracks a sub-interpretation that still satisfies
every checked rule of the reduct; `strict` records that it is already
properly smaller than the candidate on some decided atom.  A root row
describes answer sets exactly when no strict witness survived.  Minimize
costs, both signs, are charged when their atom is forgotten.

One planner (`dpcore.plan_checks`), one handler set (`make_handlers`),
one `build_store` and one `answer` serve programs and CNFs alike: a
CNF's `rules` are its clauses as constraints, run without witness
states.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .dpcore import (
    Handlers,
    Mode,
    Row,
    TableStore,
    aggregate,
    constraint_masks,
    insert_bit,
    plan_checks,
    purge,
    remove_bit,
    require_same_bag,
    root_aggregate,
    solution_rows,
    traverse,
)
from .errors import InvariantError
from .graphs import instance_graph
from .model import CnfFormula, GroundProgram, Rule
from .treedecomp import DecompResult, NiceTreeDecomposition, NodeKind, decompose


def make_handlers(
    ntd: NiceTreeDecomposition,
    plan: dict[int, list[Rule]],
    *,
    witnesses: bool = True,
    costs=None,
    weights=None,
) -> Handlers:
    """The one handler set, for programs and CNFs alike.  Each handler
    yields the rows its node derives; `dpcore.traverse` builds the table.

    `plan` maps forget nodes to the rules checked there.  A CNF is a
    program of constraints only, whose models need no stability check:
    with `witnesses=False` the leaf starts from an empty witness set and
    every handler skips the witness work.  `costs` and `weights` map an
    atom to its charges (if false, if true): minimize costs are added and
    literal weights multiplied when the atom is forgotten, which happens
    exactly once, so joins combine them without correction.  Rows whose
    weight drops to 0 contribute nothing and are dropped."""

    def leaf(node_id, node):
        start = frozenset({(0, False)}) if witnesses else frozenset()
        yield Row(0, start, 1, weight=Fraction(1) if weights else None)

    def introduce(node_id, node, child):
        p = node.bag.index(node.vertex)
        for row in child:
            w_false = w_true = ws = row.witnesses
            if ws:
                # candidate sets the atom false: witnesses stay below it
                w_false = frozenset((insert_bit(b, p, 0), s) for b, s in ws)
                # candidate sets it true: each witness forks; choosing
                # false makes the witness strictly smaller from here on
                w_true = frozenset((insert_bit(b, p, 1), s) for b, s in ws) | frozenset(
                    (insert_bit(b, p, 0), True) for b, _ in ws
                )
            for bit, w in ((0, w_false), (1, w_true)):
                yield Row(
                    insert_bit(row.assignment, p, bit),
                    w,
                    row.count,
                    row.cost,
                    row.weight,
                    origins=((row,),),
                )

    def forget(node_id, node, child):
        a = node.vertex
        child_bag = ntd.nodes[node.children[0]].bag
        p = child_bag.index(a)
        due = constraint_masks(plan.get(node_id, []), child_bag)
        charge = costs(a) if costs else (0, 0)
        factor = weights(a) if weights else None
        for row in child:
            A = row.assignment
            # candidate must satisfy every due rule classically
            if any(
                pos & A == pos and neg & A == 0 and head & A == 0
                for head, pos, neg in due
            ):
                continue
            kept = row.witnesses
            if kept:
                # witnesses violating a due rule of the reduct w.r.t. A die
                live = [(head, pos) for head, pos, neg in due if neg & A == 0]
                kept = frozenset(
                    (remove_bit(b, p), s)
                    for b, s in kept
                    if not any(pos & b == pos and head & b == 0 for head, pos in live)
                )
                if (remove_bit(A, p), False) not in kept:
                    raise InvariantError("self-witness lost at forget")
            bit = A >> p & 1
            weight = row.weight
            if factor:
                weight = weight * factor[bit]
                if weight == 0:
                    continue
            yield Row(
                remove_bit(A, p),
                kept,
                row.count,
                row.cost + charge[bit],
                weight,
                origins=((row,),),
            )

    def join(node_id, node, left, right):
        left_bag = ntd.nodes[node.children[0]].bag
        right_bag = ntd.nodes[node.children[1]].bag
        require_same_bag(node, left_bag, right_bag)
        by_assignment: dict[int, list[Row]] = {}
        for row in right:
            by_assignment.setdefault(row.assignment, []).append(row)
        for lrow in left:
            for rrow in by_assignment.get(lrow.assignment, ()):
                combined = lrow.witnesses
                if combined:
                    flags: dict[int, set[bool]] = {}
                    for b, s in rrow.witnesses:
                        flags.setdefault(b, set()).add(s)
                    combined = frozenset(
                        (b, s1 or s2)
                        for b, s1 in combined
                        for s2 in flags.get(b, ())
                    )
                yield Row(
                    lrow.assignment,
                    combined,
                    lrow.count * rrow.count,
                    lrow.cost + rrow.cost,
                    lrow.weight * rrow.weight if weights else None,
                    origins=((lrow, rrow),),
                )

    return Handlers(leaf, introduce, forget, join)


def build_store(
    instance: GroundProgram | CnfFormula,
    mode: Mode = Mode.COUNT,
    heuristic: str = "min-fill",
    seed: int = 0,
    seeds: int = 1,
    trace=None,
    decomp: DecompResult | None = None,
) -> tuple[TableStore, DecompResult]:
    """Run the table pass; caller picks the aggregate.  Only program rows
    carry witness states.  OPTCOUNT charges minimize costs and WEIGHTED
    literal weights."""
    if decomp is None:
        decomp = decompose(instance_graph(instance), heuristic, seed, seeds)
    program = isinstance(instance, GroundProgram)
    minimize = instance.minimize if program and mode is Mode.OPTCOUNT else None
    handlers = make_handlers(
        decomp.ntd,
        plan_checks(decomp.ntd, instance.rules),
        witnesses=program,
        costs=minimize.charges if minimize else None,
        weights=instance.charges if mode is Mode.WEIGHTED else None,
    )
    store = traverse(decomp.ntd, handlers, trace)
    return store, decomp


def answer(instance: GroundProgram | CnfFormula, mode: Mode, **options):
    """The mode's answer for a program or CNF.  An atomless rule (`:- .`,
    an empty clause) is never satisfied: then no table is built."""
    if any(rule.is_always_violated() for rule in instance.rules):
        return aggregate([], mode)
    store, _ = build_store(instance, mode, **options)
    return root_aggregate(store, mode)


def count_answer_sets(program: GroundProgram, **options) -> int:
    return answer(program, Mode.COUNT, **options)


def is_consistent(program: GroundProgram, **options) -> bool:
    return answer(program, Mode.DECISION, **options)


def count_optimal(program: GroundProgram, **options) -> tuple[int | None, int]:
    """(cost of an optimal answer set, number of optimal answer sets);
    (None, 0) when inconsistent.  A missing minimize statement behaves
    as an empty one."""
    return answer(program, Mode.OPTCOUNT, **options)


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
    yield from islice(_materialize(purge(store)), limit)
