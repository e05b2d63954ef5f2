"""Reference answers computed without tdcount.

CNF instances are banded (every clause lies within WINDOW consecutive
variables), so a sliding window over the last WINDOW-1 variables counts
models, weighted models and projected models exactly.

Generated programs are tight (every positive rule points to a higher
atom index), so their answer sets are the supported models of the
shifted program: a candidate is an answer set when it satisfies every
rule and each true atom heads a rule whose body holds and whose other
head atoms are false.  A frontier pass over atoms in index order checks
each rule when its last atom is decided and each atom's support when its
last rule has been checked.  Frontier states are (true atoms, supported
atoms) bitmasks over the atoms still open.
"""

from __future__ import annotations

import re
from fractions import Fraction

from instances import WINDOW, Cnf, Instance, Program

_KEEP = (1 << (WINDOW - 1)) - 1


# --- banded CNF: window states are the last WINDOW-1 variables, newest at bit 0 ---


def _window_checks(cnf: Cnf) -> list[list[bool] | None]:
    """For each variable v, which WINDOW-bit windows ending at v satisfy
    every clause whose largest variable is v (None: no such clause)."""
    ending: list[list[tuple[int, int]]] = [[] for _ in range(cnf.n + 1)]
    for clause in cnf.clauses:
        top = max(abs(lit) for lit in clause)
        if top - min(abs(lit) for lit in clause) >= WINDOW:
            raise ValueError(f"clause {clause} is wider than the window")
        pos = neg = 0
        for lit in clause:
            bit = 1 << (top - abs(lit))
            if lit > 0:
                pos |= bit
            else:
                neg |= bit
        ending[top].append((pos, neg))
    return [
        [all(w & pos or ~w & neg for pos, neg in checks) for w in range(1 << WINDOW)]
        if checks
        else None
        for checks in ending
    ]


def cnf_count(cnf: Cnf, weighted: bool = False):
    """Model count, or weighted model count as an exact Fraction."""
    ok = _window_checks(cnf)
    table = {0: 1}
    for v in range(1, cnf.n + 1):
        factor = (10 - cnf.wnum[v], cnf.wnum[v]) if weighted else (1, 1)
        allowed = ok[v]
        new: dict[int, int] = {}
        for state, value in table.items():
            for bit in (0, 1):
                w = state << 1 | bit
                if allowed is None or allowed[w]:
                    t = w & _KEEP
                    new[t] = new.get(t, 0) + value * factor[bit]
        table = new
    total = sum(table.values())
    return Fraction(total, 10**cnf.n) if weighted else total


def cnf_projected_count(cnf: Cnf, project) -> int:
    """Distinct assignments to `project` that extend to a model: each
    key is the set of window states one projected prefix can reach."""
    ok = _window_checks(cnf)
    proj = set(project)
    sets = {frozenset({0}): 1}
    for v in range(1, cnf.n + 1):
        allowed = ok[v]
        branches = ((0,), (1,)) if v in proj else ((0, 1),)
        new: dict[frozenset, int] = {}
        for states, count in sets.items():
            for bits in branches:
                reach = frozenset(
                    w & _KEEP
                    for s in states
                    for w in (s << 1 | b for b in bits)
                    if allowed is None or allowed[w]
                )
                if reach:
                    new[reach] = new.get(reach, 0) + count
        sets = new
    return sum(sets.values())


# --- tight programs: supported models over a frontier of open atoms ---


class _Frontier:
    def __init__(self, prog: Program):
        n = len(prog.names)
        self.n = n
        self.ending: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        close = list(range(n))
        for head, pos, neg in prog.rules:
            if any(p >= h for p in pos for h in head):
                raise ValueError("program is not tight in index order")
            atoms = head + pos + neg
            top = max(atoms)
            self.ending[top].append(tuple(sum(1 << a for a in part) for part in (head, pos, neg)))
            for a in atoms:
                close[a] = max(close[a], top)
        self.forget = [0] * n
        for a, step in enumerate(close):
            self.forget[step] |= 1 << a

    def step(self, i: int, state: tuple[int, int], bit: int):
        """Decide atom i, check the rules that end at i and close the
        atoms whose last rule ends at i; None when the state dies."""
        true, sup = state
        if bit:
            true |= 1 << i
        for head, pos, neg in self.ending[i]:
            if true & pos == pos and not true & neg:
                h = true & head
                if not h:
                    return None
                if not h & (h - 1):  # the only true head atom is supported
                    sup |= h
        gone = self.forget[i]
        if true & gone & ~sup:
            return None
        return (true & ~gone, sup & ~gone)


def program_counts(prog: Program) -> tuple[int, int | None, int]:
    """(answer sets, optimal cost or None, optimal answer sets)."""
    fr = _Frontier(prog)
    weight = dict(prog.minimize)
    table = {(0, 0): (1, 0, 1)}
    for i in range(fr.n):
        w = weight.get(i, 0)
        new: dict[tuple[int, int], tuple[int, int, int]] = {}
        for state, (count, best, at_best) in table.items():
            for bit in (0, 1):
                t = fr.step(i, state, bit)
                if t is None:
                    continue
                cost = best + w * bit
                old = new.get(t)
                if old is None or cost < old[1]:
                    new[t] = (count + (old[0] if old else 0), cost, at_best)
                elif cost == old[1]:
                    new[t] = (old[0] + count, cost, old[2] + at_best)
                else:
                    new[t] = (old[0] + count, old[1], old[2])
        table = new
    if not table:
        return 0, None, 0
    ((count, best, at_best),) = table.values()
    return count, best, at_best


def program_projected_count(prog: Program, project) -> int:
    fr = _Frontier(prog)
    proj = set(project)
    sets = {frozenset({(0, 0)}): 1}
    for i in range(fr.n):
        branches = ((0,), (1,)) if i in proj else ((0, 1),)
        new: dict[frozenset, int] = {}
        for states, count in sets.items():
            for bits in branches:
                reach = frozenset(
                    t for s in states for b in bits if (t := fr.step(i, s, b)) is not None
                )
                if reach:
                    new[reach] = new.get(reach, 0) + count
        sets = new
    return sum(sets.values())


def first_answer_sets(prog: Program, limit: int) -> list[tuple[int, ...]]:
    """The first `limit` answer sets in the order of their sorted atom
    tuples.  A forward pass finds reachable states, a backward pass keeps
    those that complete, so the ordered walk below never backtracks."""
    fr = _Frontier(prog)
    n = fr.n
    levels = [{(0, 0)}]
    for i in range(n):
        levels.append({t for s in levels[i] for b in (0, 1) if (t := fr.step(i, s, b))})
    alive = [set() for _ in range(n)] + [levels[n]]
    zeros = [set() for _ in range(n)] + [levels[n]]  # all-false completion works
    for i in range(n - 1, -1, -1):
        for s in levels[i]:
            if fr.step(i, s, 0) in zeros[i + 1]:
                zeros[i].add(s)
            if any(fr.step(i, s, b) in alive[i + 1] for b in (0, 1)):
                alive[i].add(s)

    # sorted-tuple order: the prefix itself, then sets containing i,
    # then sets that skip i but contain a later atom
    def walk(i, state, prefix):
        if state in zeros[i]:
            yield prefix
        if i == n:
            return
        t = fr.step(i, state, 1)
        if t in alive[i + 1]:
            yield from walk(i + 1, t, prefix + (i,))
        t = fr.step(i, state, 0)
        if t in alive[i + 1]:
            yield from (x for x in walk(i + 1, t, prefix) if x != prefix)

    out = []
    if (0, 0) in alive[0]:
        for answer in walk(0, (0, 0), ()):
            out.append(answer)
            if len(out) == limit:
                break
    return out


# --- expected CLI output ---


def first_occurrence_order(text: str) -> list[str]:
    seen: dict[str, None] = {}
    for tok in re.findall(r"[a-z][A-Za-z0-9]*", text):
        if tok != "not":
            seen.setdefault(tok, None)
    return list(seen)


def expected_lines(inst: Instance) -> list[str]:
    """The lines `tdcount <command>` prints for this instance."""
    m = inst.model
    cmd = inst.command
    if cmd in ("mc", "wmc"):
        return [str(cnf_count(m, weighted=cmd == "wmc"))]
    if cmd == "pmc":
        return [str(cnf_projected_count(m, inst.project))]
    if cmd == "pcount":
        return [str(program_projected_count(m, inst.project))]
    if cmd == "count":
        return [str(program_counts(m)[0])]
    if cmd == "optcount":
        _, best, at_best = program_counts(m)
        return ["INCONSISTENT"] if best is None else [f"{best} {at_best}"]
    if cmd == "enumerate":
        # tdcount numbers atoms by first occurrence and sorts by those ids
        if first_occurrence_order(inst.text) != list(m.names):
            raise ValueError(f"{inst.label}: atom ids do not follow the index order")
        limit = int(inst.options[inst.options.index("--limit") + 1])
        if inst.label.startswith("implchain"):
            # closed form: the implication chain has one answer set, all atoms
            answers = [tuple(range(len(m.names)))]
        else:
            answers = first_answer_sets(m, limit)
        return [" ".join(m.names[a] for a in answer) for answer in answers[:limit]]
    raise ValueError(f"no reference for {cmd!r}")
