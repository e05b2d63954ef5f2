"""Model counting and weighted model counting for CNF.

A CNF's `rules` are its clauses as constraints, so it runs `aspdp`'s one
path without witness states: at most one row per bag assignment, and
literal weights charged when their variable is forgotten.
"""

from __future__ import annotations

from fractions import Fraction

from . import aspdp
from .dpcore import Mode
from .model import CnfFormula


def build_store(formula: CnfFormula, weighted: bool = False, **options):
    """`aspdp.build_store` in COUNT or WEIGHTED mode, for callers that
    pass `weighted=`."""
    return aspdp.build_store(formula, Mode.WEIGHTED if weighted else Mode.COUNT, **options)


def count_models(formula: CnfFormula, **options) -> int:
    """Models over all declared variables; unconstrained variables each
    double the count because they sit in the decomposition as isolated
    vertices."""
    return aspdp.answer(formula, Mode.COUNT, **options)


def weighted_count(formula: CnfFormula, **options) -> Fraction:
    """Sum over models of the product of satisfied-literal weights;
    missing weights default to 1."""
    return aspdp.answer(formula, Mode.WEIGHTED, **options)
