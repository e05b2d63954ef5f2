"""Answers on instances far beyond the brute-force oracles' 20 variables:
closed-form families, a metamorphic relation between CNFs and programs,
and answers that must not change when ids are permuted."""

import itertools
import random
from fractions import Fraction

import pytest

from tdcount import cli
from tdcount.aspdp import count_answer_sets, count_optimal, enumerate_answer_sets
from tdcount.graphs import primal_graph
from tdcount.model import Atom, CnfFormula, GroundProgram, MinimizeStatement, Rule
from tdcount.oracle import (
    brute_answer_sets,
    brute_optimum,
    brute_projected_count,
    brute_weighted_count,
)
from tdcount.parsers import parse_ground_program
from tdcount.projection import projected_count
from tdcount.satdp import count_models, weighted_count
from tdcount.treedecomp import decompose

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


def random_path_weights(seed: int, n: int) -> dict[int, Fraction]:
    rng = random.Random(seed)
    weights = {}
    for v in range(1, n + 1):
        weights[v] = Fraction(rng.randint(0, 5), rng.randint(1, 4))
        weights[-v] = Fraction(rng.randint(1, 5), rng.randint(1, 4))
    return weights


@pytest.mark.parametrize("seed", [1, 2])
def test_weighted_path_matches_transfer_matrix(seed):
    weights = random_path_weights(seed, N)
    expected = transfer_matrix_weight(N, weights)
    assert weighted_count(path_cnf(N, weights)) == expected


BIG = 10_000  # the path and cycle closed forms ten times larger


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_path_cnf_counts_fibonacci_at_ten_thousand(heuristic):
    assert count_models(path_cnf(BIG), heuristic=heuristic) == fibonacci(BIG + 2)


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_cycle_cnf_counts_lucas_at_ten_thousand(heuristic):
    assert count_models(cycle_cnf(BIG), heuristic=heuristic) == lucas(BIG)


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_weighted_path_matches_transfer_matrix_at_ten_thousand(heuristic):
    weights = random_path_weights(3, BIG)
    expected = transfer_matrix_weight(BIG, weights)
    assert weighted_count(path_cnf(BIG, weights), heuristic=heuristic) == expected


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_path_cnf_projected_onto_odd_variables_at_ten_thousand(heuristic):
    # setting every even variable true satisfies each clause, so every
    # assignment of the ⌈n/2⌉ odd variables extends to a model
    odd = set(range(1, BIG + 1, 2))
    assert projected_count(path_cnf(BIG), odd, heuristic=heuristic) == 2 ** ((BIG + 1) // 2)


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


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_cnf_as_program_counts_models_at_scale(heuristic):
    # the even-loop encoding is tight, so its tables carry support masks
    formula = corpus.banded_cnf(1, N)
    program = cnf_as_program(formula)
    assert program.is_tight()
    expected = count_models(formula, heuristic=heuristic)
    assert expected > 2 ** (N // 2)
    assert count_answer_sets(program, heuristic=heuristic) == expected


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


def minimize_gadgets(k: int) -> GroundProgram:
    """k copies of the even loops a/b and c/d under
    #minimize{1:a; 1:b; 2:c; 1:d}: each copy's cheapest answer sets hold
    d and one of a, b, so the optimum is 2k with 2^k optimal answer sets.
    Tables meet rows of several costs per key, cheaper after dearer."""
    rules = "".join(
        f"a{i} :- not b{i}. b{i} :- not a{i}. c{i} :- not d{i}. d{i} :- not c{i}.\n"
        for i in range(k)
    )
    charges = "; ".join(f"1:a{i}; 1:b{i}; 2:c{i}; 1:d{i}" for i in range(k))
    return parse_ground_program(rules + "#minimize{ " + charges + " }.\n")


def test_minimize_gadgets_match_the_oracle_when_small():
    for k in (1, 2, 3):
        program = minimize_gadgets(k)
        assert brute_optimum(program) == (2 * k, 2**k)
        assert count_optimal(program) == (2 * k, 2**k)


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_minimize_gadgets_count_optimal_answer_sets(heuristic):
    assert count_optimal(minimize_gadgets(K), heuristic=heuristic) == (2 * K, 2**K)


def looped_copies(m: int, ring: bool = False) -> str:
    """m copies of `a :- b. b :- a. a :- not c. c :- not a.`, which is not
    tight: each copy's answer sets are {a, b} and {c}, so 2^m in all.  With
    `ring`, `:- c_i, c_{i+1 mod m}.` links the copies into a cycle, and the
    answer sets are the sets of c's with no two neighbours: the Lucas
    number L(m)."""
    text = "".join(
        f"a{i} :- b{i}. b{i} :- a{i}. a{i} :- not c{i}. c{i} :- not a{i}.\n" for i in range(m)
    )
    if ring:
        text += "".join(f":- c{i}, c{(i + 1) % m}.\n" for i in range(m))
    return text


def looped_minimize(m: int) -> str:
    """#minimize{1:c_i}: the one answer set of all a's costs 0."""
    return "#minimize{ " + "; ".join(f"1:c{i}" for i in range(m)) + " }.\n"


def every_other_a(m: int) -> str:
    return ",".join(f"a{i}" for i in range(0, m, 2))


@pytest.mark.parametrize("m", [3, 6])
def test_looped_copies_match_the_oracle_through_the_cli(tmp_path, capsys, m):
    text = looped_copies(m)
    cases = [
        ("count", text, [], f"{2**m}"),
        ("optcount", text + looped_minimize(m), [], "0 1"),
        ("pcount", text, ["--project", every_other_a(m)], f"{2 ** ((m + 1) // 2)}"),
        ("count", looped_copies(m, ring=True), [], f"{lucas(m)}"),
    ]
    for i, (command, program, flags, expected) in enumerate(cases):
        path = tmp_path / f"{i}.lp"
        path.write_text(program)
        code = cli.run([command, str(path), "--oracle-check", *flags])
        out, err = capsys.readouterr()
        assert (code, out) == (0, expected + "\n"), command
        assert err.startswith("oracle-check: ok"), command


@pytest.mark.parametrize("m", [40, 150])
def test_looped_copies_count_in_closed_form(m):
    program = parse_ground_program(looped_copies(m))
    assert not program.is_tight()
    assert count_answer_sets(program) == 2**m
    optimum = parse_ground_program(looped_copies(m) + looped_minimize(m))
    assert count_optimal(optimum) == (0, 1)
    ids = {atom.name: atom.id for atom in program.atoms}
    projection = {ids[name] for name in every_other_a(m).split(",")}
    assert projected_count(program, projection) == 2 ** ((m + 1) // 2)
    ring = parse_ground_program(looped_copies(m, ring=True))
    decomp = decompose(primal_graph(ring))
    assert decomp.width == 2
    assert count_answer_sets(ring, decomp=decomp) == lucas(m)


def looped_answer_sets(program: GroundProgram, m: int, ring: bool) -> list[tuple[int, ...]]:
    """The answer sets of `looped_copies(m, ring)` as sorted atom tuples,
    in sorted order: a set of copies takes {c_i} (no two ring neighbours
    with `ring`), the others {a_i, b_i}."""
    ids = {atom.name: atom.id for atom in program.atoms}
    out = []
    for chosen in itertools.product((False, True), repeat=m):
        if ring and any(chosen[i] and chosen[(i + 1) % m] for i in range(m)):
            continue
        names = []
        for i, c in enumerate(chosen):
            names += [f"c{i}"] if c else [f"a{i}", f"b{i}"]
        out.append(tuple(sorted(ids[name] for name in names)))
    return sorted(out)


@pytest.mark.parametrize("case", ["looped", "ring", "altchain"])
def test_enumeration_past_the_oracle(case):
    """Full listings far past the oracle: no duplicates, as many as the
    count, in sorted-tuple order, the closed forms exactly, and the same
    sets after the atom ids are reversed."""
    if case == "altchain":
        program = corpus.alternating_chain(3, 100)  # tight
        expected = None
    else:
        ring = case == "ring"
        program = parse_ground_program(looped_copies(12, ring))  # not tight
        expected = looped_answer_sets(program, 12, ring)
        assert len(expected) == (lucas(12) if ring else 2**12)
    listing = [tuple(sorted(s)) for s in enumerate_answer_sets(program)]
    assert len(set(listing)) == len(listing) == count_answer_sets(program)
    assert listing == sorted(listing)
    if expected is None:
        assert len(listing) == 16_872
    else:
        assert listing == expected
    reverse = list(range(program.num_atoms))[::-1]
    renamed = enumerate_answer_sets(rename_program(program, reverse))
    assert sorted(tuple(sorted(reverse[a] for a in s)) for s in renamed) == listing


def weighted_banded_cnf(seed: int, n: int) -> CnfFormula:
    """`corpus.banded_cnf` with seeded weights on every literal."""
    rng = random.Random(seed)
    weights = {}
    for v in range(1, n + 1):
        weights[v] = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        weights[-v] = Fraction(rng.randint(1, 5), rng.randint(1, 4))
    return CnfFormula(n, corpus.banded_cnf(seed, n).clauses, weights)


def disjoint_union(f: CnfFormula, g: CnfFormula) -> CnfFormula:
    """f beside g, g's variables shifted past f's, weights carried along."""
    n = f.num_vars

    def shift(lit):
        return lit + n if lit > 0 else lit - n

    clauses = f.clauses + [frozenset(map(shift, c)) for c in g.clauses]
    weights = {**f.weights, **{shift(lit): w for lit, w in g.weights.items()}}
    return CnfFormula(n + g.num_vars, clauses, weights)


def test_disjoint_unions_match_the_oracle_when_small():
    for seed in (1, 2, 3):
        f = weighted_banded_cnf(seed, 8)
        # the same clauses under other weights, as the large test does
        g = CnfFormula(8, f.clauses, weighted_banded_cnf(seed + 10, 8).weights)
        union = disjoint_union(f, g)
        product = brute_weighted_count(f) * brute_weighted_count(g)
        assert brute_weighted_count(union) == weighted_count(union) == product
        product = brute_projected_count(f, {1, 4}) * brute_projected_count(g, {2, 6, 7})
        projection = {1, 4, 10, 14, 15}
        assert brute_projected_count(union, projection) == projected_count(union, projection)
        assert projected_count(union, projection) == product


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_disjoint_union_multiplies_weighted_and_projected_counts(heuristic):
    n = 200
    f = weighted_banded_cnf(1, n)
    g = CnfFormula(n, f.clauses, weighted_banded_cnf(2, n).weights)
    union = disjoint_union(f, g)
    assert weighted_count(union, heuristic=heuristic) == weighted_count(f) * weighted_count(g)
    # contiguous projections, which the clauses constrain (64 and 8 of 256)
    left, right = set(range(40, 48)), set(range(100, 108))
    projection = left | {v + n for v in right}
    expected = projected_count(f, left) * projected_count(g, right)
    assert projected_count(union, projection, heuristic=heuristic) == expected


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
    return rename_program(program, rename, rng.shuffle), rename


def rename_program(program: GroundProgram, rename: list[int], shuffle=lambda rules: None):
    """The program with atom a renumbered to rename[a], its rules passed
    through `shuffle`."""
    atoms = sorted((Atom(rename[a.id], a.name) for a in program.atoms), key=lambda a: a.id)

    def move(ids):
        return frozenset(rename[a] for a in ids)

    rules = [Rule(move(r.head), move(r.body_pos), move(r.body_neg)) for r in program.rules]
    shuffle(rules)
    minimize = None
    if program.minimize is not None:
        minimize = MinimizeStatement(
            {(rename[a], sign): w for (a, sign), w in program.minimize.weights.items()}
        )
    return GroundProgram(atoms, rules, minimize)


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
