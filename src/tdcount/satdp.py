"""Model counting and weighted model counting for CNF over nice tree
decompositions of the primal graph.

A CNF is a program of constraints, one per clause, so it runs the one
handler set of `aspdp` without witness states: tables stay
single-exponential, at most one row per bag assignment.  Clause checks
run at the forget node of the earliest-forgotten variable, and literal
weights are charged when their variable is forgotten.
"""

from __future__ import annotations

from fractions import Fraction

from .aspdp import make_handlers
from .dpcore import Mode, TableStore, plan_constraints, root_aggregate, traverse
from .graphs import instance_graph
from .model import CnfFormula, Rule
from .treedecomp import DecompResult, NiceTreeDecomposition, decompose


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
    weights = formula.charges if weighted else None
    handlers = make_handlers(decomp.ntd, plan, witnesses=False, weights=weights)
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
