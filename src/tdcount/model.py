"""Data model for ground disjunctive programs and CNF formulas.

Atom ids are dense 0-based ints so they double as graph vertices.
CNF variables keep their 1-based DIMACS numbering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

KEYWORDS = frozenset({"not"})


@dataclass(frozen=True)
class Atom:
    id: int
    name: str | None = None


@dataclass(frozen=True)
class Rule:
    """head <- body_pos, not body_neg.  Empty head encodes a constraint."""

    head: frozenset[int]
    body_pos: frozenset[int]
    body_neg: frozenset[int]

    @property
    def atoms(self) -> frozenset[int]:
        return self.head | self.body_pos | self.body_neg

    def is_always_violated(self) -> bool:
        # no head and no body: the constraint can never be satisfied
        return not self.atoms


@dataclass
class MinimizeStatement:
    """Weighted literals; (atom, True) charges when the atom holds,
    (atom, False) when it does not."""

    weights: dict[tuple[int, bool], int] = field(default_factory=dict)

    def add(self, atom: int, sign: bool, weight: int) -> None:
        if weight < 0:
            raise ValueError(f"negative minimize weight {weight}")
        key = (atom, sign)
        self.weights[key] = self.weights.get(key, 0) + weight

    def cost_of(self, true_atoms: frozenset[int] | set[int]) -> int:
        total = 0
        for (atom, sign), w in self.weights.items():
            if (atom in true_atoms) == sign:
                total += w
        return total

    def charges(self, atom: int) -> tuple[int, int]:
        """The atom's cost when false and when true."""
        return self.weights.get((atom, False), 0), self.weights.get((atom, True), 0)


@dataclass
class GroundProgram:
    atoms: list[Atom]
    rules: list[Rule]
    minimize: MinimizeStatement | None = None

    def __post_init__(self) -> None:
        n = len(self.atoms)
        for i, atom in enumerate(self.atoms):
            if atom.id != i:
                raise ValueError(f"atom ids must be dense, got {atom.id} at {i}")
        for rule in self.rules:
            for a in rule.atoms:
                if not 0 <= a < n:
                    raise ValueError(f"rule mentions unknown atom {a}")
        if self.minimize is not None:
            for (a, _sign), w in self.minimize.weights.items():
                if not 0 <= a < n:
                    raise ValueError(f"minimize mentions unknown atom {a}")
                if w < 0:
                    raise ValueError("negative minimize weight")

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    def is_trivially_inconsistent(self) -> bool:
        return any(r.is_always_violated() for r in self.rules)

    def atom_names(self) -> list[str]:
        """Printable, unique, grammar-safe name per atom."""
        used = {a.name for a in self.atoms if a.name is not None}
        out = []
        for atom in self.atoms:
            if atom.name is not None:
                out.append(atom.name)
                continue
            candidate = f"x{atom.id}"
            while candidate in used:
                candidate += "x"
            used.add(candidate)
            out.append(candidate)
        return out


def render_program(program: GroundProgram) -> str:
    """Serialize back to the textual grammar; reparsing yields an
    structurally identical program when all atom names are grammar-safe."""
    names = program.atom_names()
    lines = []
    for rule in program.rules:
        head = " | ".join(names[a] for a in sorted(rule.head))
        body_parts = [names[a] for a in sorted(rule.body_pos)]
        body_parts += [f"not {names[a]}" for a in sorted(rule.body_neg)]
        body = ", ".join(body_parts)
        if head and body:
            lines.append(f"{head} :- {body}.")
        elif head:
            lines.append(f"{head}.")
        else:
            lines.append(f":- {body}." if body else ":- .")
    if program.minimize is not None:
        elems = []
        for (atom, sign) in sorted(program.minimize.weights):
            w = program.minimize.weights[(atom, sign)]
            lit = names[atom] if sign else f"not {names[atom]}"
            elems.append(f"{w}:{lit}")
        lines.append("#minimize{ " + "; ".join(elems) + " }.")
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class CnfFormula:
    """DIMACS clauses.  `rules`, built once here, holds each clause over
    0-based variables as the headless rule violated when all its literals
    are false."""

    num_vars: int
    clauses: list[frozenset[int]]
    weights: dict[int, Fraction] | None = None
    rules: list[Rule] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("negative variable count")
        self.rules = []
        for clause in self.clauses:
            body_pos, body_neg = [], []
            for lit in clause:
                if lit == 0 or not 1 <= abs(lit) <= self.num_vars:
                    raise ValueError(f"literal {lit} out of range")
                if -lit in clause:
                    raise ValueError(f"clause contains both {lit} and {-lit}")
                if lit < 0:
                    body_pos.append(-lit - 1)
                else:
                    body_neg.append(lit - 1)
            self.rules.append(Rule(frozenset(), frozenset(body_pos), frozenset(body_neg)))
        if self.weights is not None:
            for lit, w in self.weights.items():
                if lit == 0 or not 1 <= abs(lit) <= self.num_vars:
                    raise ValueError(f"weight literal {lit} out of range")
                if w < 0:
                    raise ValueError("negative literal weight")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def has_empty_clause(self) -> bool:
        return any(not c for c in self.clauses)

    def literal_weight(self, lit: int) -> Fraction:
        if self.weights is None:
            return Fraction(1)
        return self.weights.get(lit, Fraction(1))

    def charges(self, v: int) -> tuple[Fraction, Fraction]:
        """The weights of 0-based variable v's literals: false, true."""
        return self.literal_weight(-v - 1), self.literal_weight(v + 1)
