"""Answers on instances far beyond the brute-force oracles' 20 variables:
closed-form families and a metamorphic relation between the CNF and the
program engines."""

import random
from fractions import Fraction

import pytest

from tdcount.aspdp import count_answer_sets
from tdcount.model import Atom, CnfFormula, GroundProgram, Rule
from tdcount.satdp import count_models, weighted_count

import corpus

N = 1000
HEURISTICS = ("min-fill", "min-degree")


def path_cnf(n: int, weights=None) -> CnfFormula:
    """(x_i ∨ x_{i+1}) for i = 1..n-1."""
    return CnfFormula(n, [frozenset({i, i + 1}) for i in range(1, n)], weights)


def cycle_cnf(n: int) -> CnfFormula:
    """The path CNF closed by (x_n ∨ x_1)."""
    return CnfFormula(n, path_cnf(n).clauses + [frozenset({n, 1})])


def fibonacci(k: int) -> int:
    a, b = 0, 1  # F(0), F(1)
    for _ in range(k):
        a, b = b, a + b
    return a


def lucas(k: int) -> int:
    a, b = 2, 1  # L(0), L(1)
    for _ in range(k):
        a, b = b, a + b
    return a


def test_closed_form_helpers():
    assert [fibonacci(k) for k in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert [lucas(k) for k in range(8)] == [2, 1, 3, 4, 7, 11, 18, 29]
    # small cases by hand: n=3 path has 5 models, n=3 cycle 4
    assert count_models(path_cnf(3)) == fibonacci(5) == 5
    assert count_models(cycle_cnf(3)) == lucas(3) == 4
    # unit weights recover the plain count
    assert transfer_matrix_weight(30, {}) == fibonacci(32)


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_path_cnf_counts_fibonacci(heuristic):
    assert count_models(path_cnf(N), heuristic=heuristic) == fibonacci(N + 2)


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_cycle_cnf_counts_lucas(heuristic):
    assert count_models(cycle_cnf(N), heuristic=heuristic) == lucas(N)


def transfer_matrix_weight(n: int, weights: dict[int, Fraction]) -> Fraction:
    """Weighted models of the path CNF: a row vector over x_1's two
    values times one 2×2 matrix per step, entry (a, b) being the weight
    of x_{i+1} = b when (a ∨ b) holds and 0 otherwise."""

    def w(v, value):
        return weights.get(v if value else -v, Fraction(1))

    vector = [w(1, 0), w(1, 1)]
    for v in range(2, n + 1):
        matrix = [[0, w(v, 1)], [w(v, 0), w(v, 1)]]
        vector = [sum(vector[a] * matrix[a][b] for a in (0, 1)) for b in (0, 1)]
    return sum(vector)


@pytest.mark.parametrize("seed", [1, 2])
def test_weighted_path_matches_transfer_matrix(seed):
    rng = random.Random(seed)
    weights = {}
    for v in range(1, N + 1):
        weights[v] = Fraction(rng.randint(0, 5), rng.randint(1, 4))
        weights[-v] = Fraction(rng.randint(1, 5), rng.randint(1, 4))
    expected = transfer_matrix_weight(N, weights)
    assert weighted_count(path_cnf(N, weights)) == expected


def cnf_as_program(formula: CnfFormula) -> GroundProgram:
    """Variable i (0-based) becomes atom i with its complement atom n+i
    on an even loop, `x :- not x'. x' :- not x.`, and each clause the
    constraint that all of its literals are false.  The answer sets are
    then exactly the models."""
    n = formula.num_vars
    atoms = [Atom(i, f"x{i}") for i in range(n)]
    atoms += [Atom(n + i, f"x{i}_") for i in range(n)]
    rules = []
    for i in range(n):
        rules.append(Rule(frozenset({i}), frozenset(), frozenset({n + i})))
        rules.append(Rule(frozenset({n + i}), frozenset(), frozenset({i})))
    for clause in formula.clauses:
        rules.append(
            Rule(
                frozenset(),
                frozenset(-lit - 1 for lit in clause if lit < 0),
                frozenset(lit - 1 for lit in clause if lit > 0),
            )
        )
    return GroundProgram(atoms, rules)


def test_cnf_as_program_on_small_cnfs():
    for seed in range(40):
        formula = corpus.random_cnf(seed, weighted=False)
        if formula.has_empty_clause():
            continue
        assert count_answer_sets(cnf_as_program(formula)) == count_models(formula)


@pytest.mark.parametrize("seed, n", [(1, 200), (2, 300)])
def test_cnf_as_program_counts_models_on_banded_cnfs(seed, n):
    formula = corpus.banded_cnf(seed, n)
    expected = count_models(formula)
    assert expected > 2 ** (n // 2)  # far past any enumeration
    assert count_answer_sets(cnf_as_program(formula)) == expected
