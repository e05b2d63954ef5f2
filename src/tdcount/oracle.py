"""Brute-force reference implementations.

Everything here enumerates exhaustively over bitmask interpretations and
is guarded by hard size limits; the dynamic-programming engine is tested
against these functions, never the other way around.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import TooLargeError
from .graphs import Graph
from .model import CnfFormula, GroundProgram

MAX_BRUTE_ATOMS = 20
MAX_BRUTE_VARS = 20
MAX_BRUTE_VERTICES = 11


def _rule_masks(program: GroundProgram):
    masks = []
    for r in program.rules:
        head = sum(1 << a for a in r.head)
        pos = sum(1 << a for a in r.body_pos)
        neg = sum(1 << a for a in r.body_neg)
        masks.append((head, pos, neg))
    return masks


def _is_classical_model(mask: int, rule_masks) -> bool:
    for head, pos, neg in rule_masks:
        if pos & mask == pos and neg & mask == 0 and head & mask == 0:
            return False
    return True


def _has_smaller_reduct_model(mask: int, rule_masks) -> bool:
    reduct = [(head, pos) for head, pos, neg in rule_masks if neg & mask == 0]
    sub = (mask - 1) & mask
    while True:
        ok = True
        for head, pos in reduct:
            if pos & sub == pos and head & sub == 0:
                ok = False
                break
        if ok:
            return True
        if sub == 0:
            return False
        sub = (sub - 1) & mask


def brute_answer_sets(program: GroundProgram) -> list[frozenset[int]]:
    """All answer sets by checking every interpretation against the
    Gelfond-Lifschitz reduct.  Guarded at 20 atoms."""
    n = program.num_atoms
    if n > MAX_BRUTE_ATOMS:
        raise TooLargeError(f"{n} atoms exceeds brute-force limit {MAX_BRUTE_ATOMS}")
    rule_masks = _rule_masks(program)
    out = []
    for mask in range(1 << n):
        if not _is_classical_model(mask, rule_masks):
            continue
        if mask and _has_smaller_reduct_model(mask, rule_masks):
            continue
        out.append(frozenset(a for a in range(n) if mask >> a & 1))
    return out


def brute_optimum(program: GroundProgram) -> tuple[int | None, int]:
    """(lowest cost of an answer set, number of answer sets at that
    cost); (None, 0) when there is none.  A missing minimize statement
    costs 0."""
    minimize = program.minimize
    costs = [minimize.cost_of(s) if minimize else 0 for s in brute_answer_sets(program)]
    if not costs:
        return None, 0
    best = min(costs)
    return best, costs.count(best)


def brute_projected_count(instance, projection) -> int:
    """Distinct projections of answer sets (programs) or models (CNF)."""
    if isinstance(instance, GroundProgram):
        sets = brute_answer_sets(instance)
        return len({s & frozenset(projection) for s in sets})
    models = _brute_models(instance)
    pmask = 0
    for v in projection:
        pmask |= 1 << (v - 1)
    return len({m & pmask for m in models})


def _brute_models(formula: CnfFormula) -> list[int]:
    n = formula.num_vars
    if n > MAX_BRUTE_VARS:
        raise TooLargeError(f"{n} variables exceeds brute-force limit {MAX_BRUTE_VARS}")
    clause_masks = []
    for clause in formula.clauses:
        pos = 0
        neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        clause_masks.append((pos, neg))
    full = (1 << n) - 1
    models = []
    for mask in range(1 << n):
        inv = mask ^ full
        ok = True
        for pos, neg in clause_masks:
            if pos & mask == 0 and neg & inv == 0:
                ok = False
                break
        if ok:
            models.append(mask)
    return models


def brute_count_models(formula: CnfFormula) -> int:
    return len(_brute_models(formula))


def brute_weighted_count(formula: CnfFormula) -> Fraction:
    """Sum over models of the product of satisfied-literal weights.  Each
    variable's two weights are written over their common denominator, so
    the sum is taken over integer numerators and divided once at the end."""
    models = _brute_models(formula)
    numerators = []
    denominator = 1
    for v in range(1, formula.num_vars + 1):
        pos, neg = formula.literal_weight(v), formula.literal_weight(-v)
        d = math.lcm(pos.denominator, neg.denominator)
        numerators.append((v - 1, int(pos * d), int(neg * d)))
        denominator *= d
    total = 0
    for mask in models:
        w = 1
        for bit, pos, neg in numerators:
            w *= pos if mask >> bit & 1 else neg
        total += w
    return Fraction(total, denominator)


def brute_treewidth(graph: Graph) -> int:
    """Exact treewidth: minimum over all elimination orderings of the
    induced width, via dynamic programming over vertex subsets."""
    n = graph.num_vertices
    if n > MAX_BRUTE_VERTICES:
        raise TooLargeError(
            f"{n} vertices exceeds brute-force limit {MAX_BRUTE_VERTICES}"
        )
    if n == 0:
        return -1
    adj = [0] * n
    for u in range(n):
        for v in graph.neighbors[u]:
            adj[u] |= 1 << v

    def eliminated_degree(s: int, v: int) -> int:
        # neighbors of v in the graph after eliminating exactly the set s:
        # vertices outside s reachable from v through s
        seen = adj[v] | 1 << v
        frontier = adj[v] & s
        reach = adj[v]
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            u = low.bit_length() - 1
            new = adj[u] & ~seen
            seen |= new
            reach |= new
            frontier |= new & s
        return (reach & ~s & ~(1 << v)).bit_count()

    f = [0] * (1 << n)
    by_popcount: list[list[int]] = [[] for _ in range(n + 1)]
    for s in range(1 << n):
        by_popcount[s.bit_count()].append(s)
    f[0] = -1
    for size in range(1, n + 1):
        for s in by_popcount[size]:
            best = None
            rest = s
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                prev = s ^ low
                cand = max(f[prev], eliminated_degree(prev, v))
                if best is None or cand < best:
                    best = cand
            f[s] = best
    return f[(1 << n) - 1]
