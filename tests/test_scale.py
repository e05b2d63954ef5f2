"""Answers on instances far beyond the brute-force oracles' 20 variables:
closed-form families, a metamorphic relation between CNFs and programs,
and answers that must not change when ids are permuted."""

import random
from fractions import Fraction

import pytest

from tdcount.aspdp import count_answer_sets, count_optimal
from tdcount.model import Atom, CnfFormula, GroundProgram, MinimizeStatement, Rule
from tdcount.oracle import brute_answer_sets
from tdcount.parsers import parse_ground_program
from tdcount.projection import projected_count
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


K = 300


def even_loops(k: int) -> GroundProgram:
    """k copies of `a :- not b. b :- not a.`: 2^k answer sets."""
    return parse_ground_program(
        "".join(f"a{i} :- not b{i}. b{i} :- not a{i}.\n" for i in range(k))
    )


def loop_gadgets(k: int) -> GroundProgram:
    """k copies of an even loop c/d whose c forces p | r, with p and q on
    an unfounded positive loop: {d}, {c, r} and {c, p, q}, so 3^k answer
    sets."""
    return parse_ground_program(
        "".join(
            f"p{i} :- q{i}. q{i} :- p{i}. c{i} :- not d{i}. d{i} :- not c{i}. "
            f"p{i} | r{i} :- c{i}.\n"
            for i in range(k)
        )
    )


def test_loop_families_match_the_oracle_when_small():
    for k in (1, 2, 3):
        assert len(brute_answer_sets(even_loops(k))) == 2**k
        assert len(brute_answer_sets(loop_gadgets(k))) == 3**k


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_even_loops_count_powers_of_two(heuristic):
    assert count_answer_sets(even_loops(K), heuristic=heuristic) == 2**K


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_disjunctive_positive_loop_gadgets_count_powers_of_three(heuristic):
    assert count_answer_sets(loop_gadgets(K), heuristic=heuristic) == 3**K


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_projection_onto_every_second_loop(heuristic):
    program = even_loops(K)
    ids = {atom.name: atom.id for atom in program.atoms}
    projection = {ids[f"a{i}"] for i in range(0, K, 2)}
    assert projected_count(program, projection, heuristic=heuristic) == 2 ** (K // 2)


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_disjoint_union_squares_the_model_count(heuristic):
    formula = corpus.banded_cnf(1, 200)
    n = formula.num_vars
    shifted = [frozenset(lit + n if lit > 0 else lit - n for lit in c) for c in formula.clauses]
    union = CnfFormula(2 * n, formula.clauses + shifted)
    assert count_models(union, heuristic=heuristic) == count_models(formula) ** 2


def permute_cnf(formula: CnfFormula, rng: random.Random):
    """Renumber the variables and shuffle the clauses, carrying the
    weights along; returns the formula and the variable renaming."""
    n = formula.num_vars
    targets = list(range(1, n + 1))
    rng.shuffle(targets)
    rename = dict(zip(range(1, n + 1), targets))

    def lit(l):
        return rename[l] if l > 0 else -rename[-l]

    clauses = [frozenset(map(lit, c)) for c in formula.clauses]
    rng.shuffle(clauses)
    weights = {lit(l): w for l, w in formula.weights.items()}
    return CnfFormula(n, clauses, weights), rename


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_cnf_answers_survive_renumbering_and_clause_shuffles(heuristic):
    rng = random.Random(5)
    n = 200
    weights = {}
    for v in range(1, n + 1):
        weights[v] = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        weights[-v] = Fraction(rng.randint(1, 5), rng.randint(1, 4))
    formula = CnfFormula(n, corpus.banded_cnf(3, n).clauses, weights)
    projection = set(rng.sample(range(1, 30), 6))
    expected = (
        count_models(formula, heuristic=heuristic),
        weighted_count(formula, heuristic=heuristic),
        projected_count(formula, projection, heuristic=heuristic),
    )
    for seed in (1, 2):
        permuted, rename = permute_cnf(formula, random.Random(seed))
        got = (
            count_models(permuted, heuristic=heuristic),
            weighted_count(permuted, heuristic=heuristic),
            projected_count(permuted, {rename[v] for v in projection}, heuristic=heuristic),
        )
        assert got == expected, seed


def permute_program(program: GroundProgram, rng: random.Random):
    """Renumber the atoms (names travel with them) and shuffle the rules,
    carrying #minimize along; returns the program and the renaming."""
    rename = list(range(program.num_atoms))
    rng.shuffle(rename)
    atoms = sorted((Atom(rename[a.id], a.name) for a in program.atoms), key=lambda a: a.id)

    def move(ids):
        return frozenset(rename[a] for a in ids)

    rules = [Rule(move(r.head), move(r.body_pos), move(r.body_neg)) for r in program.rules]
    rng.shuffle(rules)
    minimize = None
    if program.minimize is not None:
        minimize = MinimizeStatement(
            {(rename[a], sign): w for (a, sign), w in program.minimize.weights.items()}
        )
    return GroundProgram(atoms, rules, minimize), rename


def program_answers(program: GroundProgram, projection, heuristic: str):
    return (
        count_answer_sets(program, heuristic=heuristic),
        count_optimal(program, heuristic=heuristic),
        projected_count(program, projection, heuristic=heuristic),
    )


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_program_answers_survive_atom_permutations(heuristic):
    for seed in range(30):
        program = corpus.random_program(seed)
        rng = random.Random(seed)
        projection = {a for a in range(program.num_atoms) if rng.random() < 0.5}
        expected = program_answers(program, projection, heuristic)
        permuted, rename = permute_program(program, rng)
        got = program_answers(permuted, {rename[a] for a in projection}, heuristic)
        assert got == expected, seed
