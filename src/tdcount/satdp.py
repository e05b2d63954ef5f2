"""Model counting and weighted model counting for CNF over nice tree
decompositions of the primal graph.

Tables stay single-exponential: at most one row per bag assignment.
Clause checks run at the forget node of the earliest-forgotten variable;
literal weights are charged when their variable is forgotten, which
happens exactly once, so joins multiply weights without correction.
"""

from __future__ import annotations

from fractions import Fraction

from .dpcore import (
    DpTable,
    Handlers,
    Mode,
    Row,
    TableStore,
    constraint_masks,
    insert_bit,
    plan_constraints,
    remove_bit,
    require_same_bag,
    root_aggregate,
    traverse,
)
from .graphs import instance_graph
from .model import CnfFormula, Rule
from .treedecomp import DecompResult, NiceTreeDecomposition, decompose

_NO_WITNESSES = frozenset()


def plan_clause_checks(formula: CnfFormula, ntd: NiceTreeDecomposition) -> dict[int, list[Rule]]:
    """A clause is the constraint that all of its literals are false: no
    head, the variables of its negative literals as the positive body,
    those of its positive literals as the negative body (0-based)."""
    constraints = [
        Rule(
            frozenset(),
            frozenset(-lit - 1 for lit in c if lit < 0),
            frozenset(lit - 1 for lit in c if lit > 0),
        )
        for c in formula.clauses
    ]
    return plan_constraints(ntd, constraints)


def make_sat_handlers(
    formula: CnfFormula,
    ntd: NiceTreeDecomposition,
    plan: dict[int, list[int]],
    weighted: bool = False,
) -> Handlers:
    def leaf(node_id, node):
        table = DpTable(node_id)
        table.add(Row(0, _NO_WITNESSES, 1, weight=Fraction(1) if weighted else None))
        return table

    def introduce(node_id, node, child):
        p = node.bag.index(node.vertex)
        table = DpTable(node_id)
        for row in child:
            for bit in (0, 1):
                table.add(
                    Row(
                        insert_bit(row.assignment, p, bit),
                        _NO_WITNESSES,
                        row.count,
                        weight=row.weight,
                        origins=((row,),),
                    )
                )
        return table

    def forget(node_id, node, child):
        v = node.vertex
        child_bag = ntd.nodes[node.children[0]].bag
        p = child_bag.index(v)
        due = constraint_masks(plan.get(node_id, []), child_bag)
        table = DpTable(node_id)
        for row in child:
            A = row.assignment
            if any(
                pos & A == pos and neg & A == 0 and head & A == 0
                for head, pos, neg in due
            ):
                continue
            weight = row.weight
            if weighted:
                lit = (v + 1) if A >> p & 1 else -(v + 1)
                weight = weight * formula.literal_weight(lit)
                if weight == 0:
                    continue  # contributes nothing to any extension
            table.add(
                Row(
                    remove_bit(A, p),
                    _NO_WITNESSES,
                    row.count,
                    weight=weight,
                    origins=((row,),),
                )
            )
        return table

    def join(node_id, node, left, right):
        left_bag = ntd.nodes[node.children[0]].bag
        right_bag = ntd.nodes[node.children[1]].bag
        require_same_bag(node, left_bag, right_bag)
        by_assignment = {row.assignment: row for row in right}
        table = DpTable(node_id)
        for lrow in left:
            rrow = by_assignment.get(lrow.assignment)
            if rrow is None:
                continue
            table.add(
                Row(
                    lrow.assignment,
                    _NO_WITNESSES,
                    lrow.count * rrow.count,
                    weight=lrow.weight * rrow.weight if weighted else None,
                    origins=((lrow, rrow),),
                )
            )
        return table

    return Handlers(leaf, introduce, forget, join)


def build_store(
    formula: CnfFormula,
    weighted: bool = False,
    heuristic: str = "min-fill",
    seed: int = 0,
    seeds: int = 1,
    trace=None,
    decomp: DecompResult | None = None,
) -> tuple[TableStore, DecompResult]:
    if decomp is None:
        decomp = decompose(instance_graph(formula), heuristic, seed, seeds)
    plan = plan_clause_checks(formula, decomp.ntd)
    handlers = make_sat_handlers(formula, decomp.ntd, plan, weighted)
    mode = Mode.WEIGHTED if weighted else Mode.COUNT
    store = traverse(decomp.ntd, handlers, mode, trace)
    return store, decomp


def count_models(formula: CnfFormula, **options) -> int:
    """Models over all declared variables; unconstrained variables each
    double the count because they sit in the decomposition as isolated
    vertices."""
    if formula.has_empty_clause():
        return 0
    store, _ = build_store(formula, weighted=False, **options)
    return root_aggregate(store, Mode.COUNT)


def weighted_count(formula: CnfFormula, **options) -> Fraction:
    """Sum over models of the product of satisfied-literal weights;
    missing weights default to 1."""
    if formula.has_empty_clause():
        return Fraction(0)
    store, _ = build_store(formula, weighted=True, **options)
    return root_aggregate(store, Mode.WEIGHTED)
