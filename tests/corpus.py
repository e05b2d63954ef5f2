"""Seeded random instance generators shared across the test modules.

Everything is a pure function of the seed so expected values computed
against the brute-force oracles stay stable between runs.
"""

from fractions import Fraction
import random

from tdcount.graphs import Graph
from tdcount.model import Atom, CnfFormula, GroundProgram, MinimizeStatement, Rule


def random_program(seed: int, max_atoms: int = 8, max_rules: int = 12) -> GroundProgram:
    rng = random.Random(seed)
    n = rng.randint(1, max_atoms)
    atoms = [Atom(i, f"a{i}") for i in range(n)]
    rules = []
    for _ in range(rng.randint(0, max_rules)):
        pool = list(range(n))
        rng.shuffle(pool)
        head_size = rng.choices([0, 1, 2], weights=[2, 6, 2])[0]
        head = frozenset(pool[:head_size])
        rest = pool[head_size:]
        pos_size = rng.randint(0, min(3, len(rest)))
        pos = frozenset(rest[:pos_size])
        rest = rest[pos_size:]
        neg_size = rng.randint(0, min(3, len(rest)))
        neg = frozenset(rest[:neg_size])
        if not head and not pos and not neg:
            head = frozenset(pool[:1])
        rules.append(Rule(head, pos, neg))
    minimize = None
    if rng.random() < 0.4:
        minimize = MinimizeStatement()
        for _ in range(rng.randint(1, 4)):
            minimize.add(rng.randrange(n), rng.random() < 0.7, rng.randint(0, 5))
    return GroundProgram(atoms, rules, minimize)


def random_cnf(seed: int, max_vars: int = 10, max_clauses: int = 18,
               weighted: bool | None = None) -> CnfFormula:
    rng = random.Random(seed)
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, min(4, n))
        variables = rng.sample(range(1, n + 1), width)
        clauses.append(frozenset(v if rng.random() < 0.5 else -v for v in variables))
    if weighted is None:
        weighted = rng.random() < 0.5
    weights = None
    if weighted:
        weights = {}
        for v in range(1, n + 1):
            if rng.random() < 0.7:
                weights[v] = Fraction(rng.randint(0, 6), rng.randint(1, 4))
            if rng.random() < 0.7:
                weights[-v] = Fraction(rng.randint(0, 6), rng.randint(1, 4))
    return CnfFormula(n, clauses, weights)


def random_graph(seed: int, max_vertices: int = 50, edge_prob: float | None = None) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(1, max_vertices)
    if edge_prob is None:
        edge_prob = rng.choice([0.05, 0.1, 0.2, 0.4])
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                g.add_edge(u, v)
    return g


def random_tree_graph(seed: int, max_vertices: int = 40, min_vertices: int = 1) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(min_vertices, max_vertices)
    g = Graph(n)
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v))
    return g


def dimacs_text(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    if formula.weights:
        for lit in sorted(formula.weights, key=lambda l: (abs(l), l < 0)):
            lines.append(f"w {lit} {formula.weights[lit]} 0")
    for clause in formula.clauses:
        lits = sorted(clause, key=lambda l: (abs(l), l < 0))
        lines.append(" ".join(str(l) for l in lits) + " 0")
    return "\n".join(lines) + "\n"


def smodels_text(program: GroundProgram) -> str:
    """lparse/SModels output: one-head rules as type 1, the others (and
    constraints) as type 8, the minimize statement as one type-6 rule,
    atom id a as number a + 1, and a symbol table of the named atoms."""

    def body(rule):
        neg, pos = sorted(rule.body_neg), sorted(rule.body_pos)
        return [len(neg) + len(pos), len(neg), *(a + 1 for a in neg + pos)]

    lines = []
    for rule in program.rules:
        head = [a + 1 for a in sorted(rule.head)]
        fields = [1, *head] if len(head) == 1 else [8, len(head), *head]
        lines.append(fields + body(rule))
    if program.minimize is not None:
        lits = sorted(program.minimize.weights, key=lambda lit: lit[1])
        nneg = sum(not sign for _, sign in lits)
        lines.append([6, 0, len(lits), nneg, *(a + 1 for a, _ in lits)]
                     + [program.minimize.weights[lit] for lit in lits])
    out = [" ".join(map(str, fields)) for fields in lines] + ["0"]
    out += [f"{a.id + 1} {a.name}" for a in program.atoms if a.name is not None]
    return "\n".join(out + ["0", "B+", "0", "B-", "0", "1"]) + "\n"


def cycle_graph(n: int) -> Graph:
    g = Graph(n)
    for v in range(n):
        g.add_edge(v, (v + 1) % n)
    return g


def complete_graph(n: int) -> Graph:
    g = Graph(n)
    g.add_clique(range(n))
    return g


def grid_graph(rows: int, cols: int) -> Graph:
    g = Graph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


def banded_cnf(seed: int, n: int) -> CnfFormula:
    """Random 3-CNF with 2.5·n clauses, each over 3 of 8 consecutive
    variables, so its primal width stays small as n grows."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(5 * n // 2):
        start = rng.randint(1, n - 7)
        chosen = rng.sample(range(start, start + 8), 3)
        clauses.append(frozenset(v if rng.random() < 0.5 else -v for v in chosen))
    return CnfFormula(n, clauses)


def alternating_chain(seed, n):
    """`a_i :- not a_{i+1}` for every i, and `a_{i+2} :- a_i` with
    probability one half, as the benchmark's chains are built."""
    rng = random.Random(seed)
    rules = []
    for i in range(n - 1):
        rules.append(Rule(frozenset({i}), frozenset(), frozenset({i + 1})))
        if i + 2 < n and rng.random() < 0.5:
            rules.append(Rule(frozenset({i + 2}), frozenset({i}), frozenset()))
    return GroundProgram([Atom(i, f"a{i}") for i in range(n)], rules)
