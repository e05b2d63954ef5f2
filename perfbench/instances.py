"""Seeded instance generators for the benchmark workloads.

Every instance is a pure function of its string seed, so the same
workload seed gives byte-identical files.  Each generator returns the
abstract instance (used by the references) and its text (given to
tdcount).  Programs are kept tight -- positive rules always point from
a lower to a higher atom index -- so that their answer sets are the
supported models, which `references` can count without tdcount.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Cnf:
    """Banded CNF; `wnum[v]` is k for weights w(v)=k/10, w(-v)=(10-k)/10."""

    n: int
    clauses: tuple[tuple[int, ...], ...]
    wnum: tuple[int, ...]  # index 0 unused


@dataclass(frozen=True)
class Program:
    """Ground program over atoms 0..len(names)-1 in processing order.

    rules are (head, body_pos, body_neg) tuples of atom indices;
    minimize maps an atom index to the weight charged when it is true.
    """

    names: tuple[str, ...]
    rules: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]
    minimize: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class Instance:
    label: str  # family and size, e.g. "cnf-1000"
    command: str
    options: tuple[str, ...]
    suffix: str  # file extension tdcount sniffs the format from
    model: object  # Cnf or Program
    text: str
    project: tuple[int, ...] = ()  # projected variables (1-based) or atoms


WINDOW = 8  # every banded clause lies within this many consecutive variables
CLAUSES_PER_VAR = 2


def banded_cnf(rng: random.Random, n: int) -> Cnf:
    clauses = []
    for _ in range(CLAUSES_PER_VAR * n):
        start = rng.randint(1, n - WINDOW + 1)
        chosen = rng.sample(range(start, start + WINDOW), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in sorted(chosen)))
    wnum = (0,) + tuple(rng.randint(1, 9) for _ in range(n))
    return Cnf(n, tuple(clauses), wnum)


def cnf_text(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.n} {len(cnf.clauses)}"]
    for v in range(1, cnf.n + 1):
        k = cnf.wnum[v]
        lines.append(f"w {v} {k}/10 0")
        lines.append(f"w -{v} {10 - k}/10 0")
    lines.extend(" ".join(map(str, c)) + " 0" for c in cnf.clauses)
    return "\n".join(lines) + "\n"


def grid_program(rng: random.Random, rows: int, cols: int) -> Program:
    """Atoms on a rows x cols grid, numbered column-major.  Each grid
    edge (u, v), u < v, gets one of: `u :- not v.` (or reversed), the
    positive rule `v :- u.`, the disjunction `u | v.`, or a small odd
    loop through a fresh atom x: `x :- u, not x.  x :- v.`  A third of
    the cells carry a #minimize weight."""
    names: list[str] = []
    rules = []
    index: dict[tuple[int, int], int] = {}
    for c in range(cols):
        for r in range(rows):
            index[r, c] = len(names)
            names.append(f"g{r}x{c}")
            k = index[r, c]
            # edges whose larger endpoint is k: from the cell above and
            # from the cell to the left
            for nb in ((r - 1, c), (r, c - 1)):
                if nb not in index:
                    continue
                u = index[nb]
                kind = rng.random()
                if kind < 0.2:
                    a, b = (u, k) if rng.random() < 0.5 else (k, u)
                    rules.append(((a,), (), (b,)))
                elif kind < 0.5:
                    rules.append(((k,), (u,), ()))
                elif kind < 0.97:
                    rules.append(((u, k), (), ()))
                else:
                    x = len(names)
                    names.append(f"x{x}")
                    rules.append(((x,), (u,), (x,)))
                    rules.append(((x,), (k,), ()))
    minimize = tuple(
        (index[r, c], rng.randint(1, 3))
        for c in range(cols)
        for r in range(rows)
        if rng.random() < 1 / 3
    )
    return Program(tuple(names), tuple(rules), minimize)


def alternating_chain(rng: random.Random, n: int) -> Program:
    """`a_i :- not a_{i+1}` for every i, plus `a_{i+2} :- a_i` with
    probability one half."""
    rules = []
    for i in range(n - 1):
        rules.append(((i,), (), (i + 1,)))
        if i + 2 < n and rng.random() < 0.5:
            rules.append(((i + 2,), (i,), ()))
    return Program(tuple(f"a{i}" for i in range(n)), tuple(rules))


def implication_chain(n: int) -> Program:
    """`a0.` and `a_{i+1} :- a_i`: exactly one answer set, all atoms."""
    rules = [((0,), (), ())] + [((i + 1,), (i,), ()) for i in range(n - 1)]
    return Program(tuple(f"a{i}" for i in range(n)), tuple(rules))


def program_text(prog: Program) -> str:
    names = prog.names
    lines = []
    for head, pos, neg in prog.rules:
        body = [names[a] for a in pos] + [f"not {names[a]}" for a in neg]
        text = " | ".join(names[a] for a in head)
        if body:
            text += " :- " + ", ".join(body)
        lines.append(text + ".")
    if prog.minimize:
        terms = " ; ".join(f"{w}:{names[a]}" for a, w in prog.minimize)
        lines.append(f"#minimize {{ {terms} }}.")
    return "\n".join(lines) + "\n"


def contiguous(rng: random.Random, pool: list[int], size: int) -> tuple[int, ...]:
    start = rng.randrange(len(pool) - size + 1)
    return tuple(pool[start : start + size])


def cnf_instance(rng, n, command, project=0) -> Instance:
    cnf = banded_cnf(rng, n)
    proj = contiguous(rng, list(range(1, n + 1)), project) if project else ()
    options = ("--project-vars", ",".join(map(str, proj))) if project else ()
    label = f"cnf-{n}" + (f"-p{project}" if project else "")
    return Instance(label, command, options, ".cnf", cnf, cnf_text(cnf), proj)


def grid_instance(rng, rows, cols, command, project=0) -> Instance:
    prog = grid_program(rng, rows, cols)
    grid_atoms = [i for i, name in enumerate(prog.names) if name.startswith("g")]
    proj = contiguous(rng, grid_atoms, project) if project else ()
    options = ("--project", ",".join(prog.names[a] for a in proj)) if project else ()
    label = f"grid-{rows}x{cols}" + (f"-p{project}" if project else "")
    return Instance(label, command, options, ".lp", prog, program_text(prog), proj)


def chain_instance(rng, n) -> Instance:
    prog = alternating_chain(rng, n)
    return Instance(
        f"altchain-{n}", "enumerate", ("--limit", "10"), ".lp", prog, program_text(prog)
    )


def deep_chain_instance(n) -> Instance:
    prog = implication_chain(n)
    return Instance(
        f"implchain-{n}", "enumerate", ("--limit", "1"), ".lp", prog, program_text(prog)
    )
