"""Parsers for the textual rule grammar, the SModels numeric format,
and DIMACS CNF with optional literal weight lines.  A rule-grammar
token keeps its offset; its line and column are computed only for an error."""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction

from .errors import (
    FormatError,
    HeaderMismatchError,
    ParseError,
    UnsupportedRuleError,
    VariableTokenError,
)
from .model import Atom, CnfFormula, GroundProgram, MinimizeStatement, Rule

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<arrow>:-)
      | (?P<int>\d+)
      | (?P<ident>[a-z][A-Za-z0-9]*)
      | (?P<var>[A-Z_][A-Za-z0-9]*)
      | (?P<directive>\#[a-z]+)
      | (?P<punct>[.,|{};:])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _position(text, offset):
    """The 1-based (line, column) of `offset` in `text`; only "\\n" ends a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text):
    """One scan into `(kind, text, offset)` tokens, ending in `eof` at
    `len(text)`; a position is computed only for an error."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", *_position(text, m.start()))
        if kind == "var":
            raise VariableTokenError(
                f"variable token {m.group()!r}; input must be ground", *_position(text, m.start())
            )
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _ProgramParser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.atom_ids: dict[str, int] = {}
        self.atoms: list[Atom] = []
        self.rules: list[Rule] = []
        self.minimize: MinimizeStatement | None = None

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message, offset):
        return ParseError(message, *_position(self.text, offset))

    def expect(self, kind, text=None):
        tok = self.take()
        if tok[0] != kind or (text is not None and tok[1] != text):
            raise self.error(f"expected {text or kind!r}, got {tok[1]!r}", tok[2])
        return tok

    def atom_id(self, name):
        if name not in self.atom_ids:
            self.atom_ids[name] = len(self.atoms)
            self.atoms.append(Atom(len(self.atoms), name))
        return self.atom_ids[name]

    def parse(self):
        while (kind := self.peek()[0]) != "eof":
            if kind == "directive":
                self.parse_minimize()
            else:
                self.parse_rule()
        return GroundProgram(self.atoms, self.rules, self.minimize)

    def parse_atom(self):
        _, name, offset = self.expect("ident")
        if name == "not":
            raise self.error("'not' is not a valid atom name", offset)
        return self.atom_id(name)

    def parse_rule(self):
        head = set()
        kind, text, _ = self.peek()
        if kind == "ident" and text != "not":
            head.add(self.parse_atom())
            while self.peek()[1] == "|":
                self.take()
                head.add(self.parse_atom())
        body_pos, body_neg = set(), set()
        if self.peek()[0] == "arrow":
            self.take()
            # an immediately following '.' is the always-violated constraint
            while self.peek()[1] != ".":
                if body_pos or body_neg:
                    self.expect("punct", ",")
                if self.peek()[1] == "not":  # only an ident reads "not"
                    self.take()
                    body_neg.add(self.parse_atom())
                else:
                    body_pos.add(self.parse_atom())
        self.expect("punct", ".")
        self.rules.append(
            Rule(frozenset(head), frozenset(body_pos), frozenset(body_neg))
        )

    def parse_minimize(self):
        _, text, offset = self.take()
        if text != "#minimize":
            raise self.error(f"unknown directive {text!r}", offset)
        self.expect("punct", "{")
        if self.minimize is None:
            self.minimize = MinimizeStatement()
        need_separator = False  # each element after the first follows a ';'
        while self.peek()[1] != "}":
            if need_separator:
                self.expect("punct", ";")
            need_separator = True
            _, digits, offset = self.expect("int")
            try:
                weight = int(digits)
            except ValueError:  # past the interpreter's limit on digits
                raise self.error(f"weight of {len(digits)} digits is too long", offset) from None
            self.expect("punct", ":")
            sign = True
            if self.peek()[1] == "not":
                self.take()
                sign = False
            atom = self.parse_atom()
            self.minimize.add(atom, sign, weight)
        self.expect("punct", "}")
        self.expect("punct", ".")


def parse_ground_program(text: str) -> GroundProgram:
    """Parse the textual grammar; atom ids follow first occurrence."""
    return _ProgramParser(text).parse()


# --- SModels numeric format (subset: basic 1, minimize 6, disjunctive 8) ---

_BASIC_RULE = 1
_CONSTRAINT_RULE = 2
_CHOICE_RULE = 3
_WEIGHT_RULE = 5
_MINIMIZE_RULE = 6
_DISJUNCTIVE_RULE = 8


class _SmodelsReader:
    def __init__(self, data):
        if isinstance(data, bytes):
            data = data.decode("ascii")
        self.lines = data.splitlines()
        self.i = 0
        self.atom_map: dict[int, int] = {}
        self.atoms: list[Atom] = []

    def next_line(self, context):
        """The next non-blank line and its 1-based number; at the end of
        input, an error that names the last line, if there is one."""
        while self.i < len(self.lines):
            line = self.lines[self.i].strip()
            self.i += 1
            if line:
                return line, self.i
        raise FormatError(f"unexpected end of input in {context}", line=self.i or None)

    def section(self, context):
        """Each line, with its number, up to the `0` that ends the section."""
        while (entry := self.next_line(context))[0] != "0":
            yield entry

    def at_eof(self):
        return all(not line.strip() for line in self.lines[self.i :])

    def intern(self, smodels_atom, line_no):
        if smodels_atom < 1:
            raise FormatError(f"atom number {smodels_atom} out of range", line=line_no)
        if smodels_atom not in self.atom_map:
            self.atom_map[smodels_atom] = len(self.atoms)
            self.atoms.append(Atom(len(self.atoms), None))
        return self.atom_map[smodels_atom]


def _ints(line, line_no, context):
    try:
        return [int(t) for t in line.split()]
    except ValueError:
        raise FormatError(f"non-numeric token in {context}", line=line_no) from None


def _literals(counts, line_no, kind, per_literal=1):
    """Check `nbody nneg` against the numbers after them, `per_literal`
    per literal (a minimize rule's weights follow its literals); returns
    nneg, the literals and the weights."""
    nbody, nneg, *tail = counts
    if nneg < 0 or nbody < nneg or len(tail) != per_literal * nbody:
        raise FormatError(f"bad literal counts in {kind} rule", line=line_no)
    return nneg, tail[:nbody], tail[nbody:]


def parse_smodels(data) -> GroundProgram:
    """Parse grounder output: rules, symbol table, compute section.

    Rule types 2 (constraint), 3 (choice) and 5 (weight) are reported as
    unsupported; B+/B- compute entries become integrity constraints."""
    reader = _SmodelsReader(data)
    rules: list[Rule] = []
    minimize: MinimizeStatement | None = None

    for line, line_no in reader.section("rules section"):
        rtype, *rest = fields = _ints(line, line_no, "rules section")
        if fields == [0]:  # "00" or "-0" ends the section too
            break
        if rtype in (_CONSTRAINT_RULE, _CHOICE_RULE, _WEIGHT_RULE):
            raise UnsupportedRuleError(rtype, line=line_no)
        if rtype == _MINIMIZE_RULE:
            if len(rest) < 3 or rest[0] != 0:
                raise FormatError("truncated minimize rule", line=line_no)
            nneg, lits, wlist = _literals(rest[1:], line_no, "minimize", per_literal=2)
            if minimize is None:
                minimize = MinimizeStatement()
            for k, a in enumerate(lits):
                minimize.add(reader.intern(a, line_no), k >= nneg, wlist[k])
            continue
        # a basic rule is a disjunctive rule with one head, but numbers
        # its head after checking its counts, a disjunctive rule before
        if rtype == _BASIC_RULE:
            if len(rest) < 3:
                raise FormatError("truncated basic rule", line=line_no)
            nneg, lits, _ = _literals(rest[1:], line_no, "basic")
            head = [reader.intern(rest[0], line_no)]
        elif rtype == _DISJUNCTIVE_RULE:
            if not rest:
                raise FormatError("truncated disjunctive rule", line=line_no)
            nheads = rest[0]
            if nheads < 0 or len(rest) < 1 + nheads + 2:
                raise FormatError("bad head count in disjunctive rule", line=line_no)
            head = [reader.intern(a, line_no) for a in rest[1 : 1 + nheads]]
            nneg, lits, _ = _literals(rest[1 + nheads :], line_no, "disjunctive")
        else:
            raise FormatError(f"unknown rule type {rtype}", line=line_no)
        neg = frozenset(reader.intern(a, line_no) for a in lits[:nneg])
        pos = frozenset(reader.intern(a, line_no) for a in lits[nneg:])
        rules.append(Rule(frozenset(head), pos, neg))

    names: set[str] = set()
    for line, line_no in reader.section("symbol table"):
        parts = line.split(maxsplit=1)
        if len(parts) != 2 or not parts[0].isdigit():
            raise FormatError("bad symbol table entry", line=line_no)
        atom = reader.intern(int(parts[0]), line_no)
        if reader.atoms[atom].name is not None:
            raise FormatError(f"atom {parts[0]} named twice in symbol table", line=line_no)
        if parts[1] in names:
            raise FormatError(f"name {parts[1]!r} given twice in symbol table", line=line_no)
        names.add(parts[1])
        reader.atoms[atom] = Atom(atom, parts[1])

    # compute sections may be absent entirely but must not be cut short
    if not reader.at_eof():
        for marker in ("B+", "B-"):
            line, line_no = reader.next_line("compute section")
            if line != marker:
                raise FormatError(f"expected {marker!r}", line=line_no)
            for line, line_no in reader.section(f"compute section {marker}"):
                for a in _ints(line, line_no, "compute section"):
                    atom, none = frozenset({reader.intern(a, line_no)}), frozenset()
                    # B+ a is the constraint `:- not a.`, B- a is `:- a.`
                    rules.append(Rule(none, *((none, atom) if marker == "B+" else (atom, none))))
        # trailing model count is accepted and ignored
        if not reader.at_eof():
            _ints(*reader.next_line("model count"), "model count")
            if not reader.at_eof():
                line_no = reader.next_line("model count")[1]
                raise FormatError("trailing content after model count", line=line_no)

    return GroundProgram(reader.atoms, rules, minimize)


# --- DIMACS CNF with optional weight lines ---


def _weight(text: str) -> Fraction:
    """`Fraction(text)`, skipping its regex when the numerator and any
    denominator are ASCII digits: the same value, or the same error."""
    num, slash, den = text.partition("/")
    if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
        return Fraction(int(num), int(den) if slash else 1)
    return Fraction(text)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF.  Weight lines `w <lit> <num>/<den> 0` must
    precede the clauses; clause and variable counts must match the header.

    Each clause line's tokens become ints once, appended to one list of
    literals and 0s; the clauses are its runs between 0s, and
    `CnfFormula` checks them.  A fault is reported as a reading in file
    order would meet it: a malformed line first, then a literal out of
    range or whose complement comes earlier in its clause, then an
    unterminated last clause, then a wrong clause count."""
    num_vars = None
    num_clauses = None
    weights: dict[int, Fraction] = {}
    weight_of: dict[str, Fraction] = {}  # a weight's text -> its value, read once
    literals: list[int] = []  # every clause token, 0s included, in file order
    ends: list[int] = []  # len(literals) after each clause line ...
    end_lines: list[int] = []  # ... and that line's number

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        if line[0] == "p":
            if num_vars is not None:
                raise ParseError("duplicate header", line_no)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("malformed header; expected 'p cnf <vars> <clauses>'", line_no)
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-numeric header counts", line_no) from None
            if num_vars < 0 or num_clauses < 0:
                raise ParseError("negative header counts", line_no)
            continue
        if line[0] == "w":
            if num_vars is None:
                raise ParseError("weight line before header", line_no)
            if literals:
                raise ParseError("weight line after clauses", line_no)
            parts = line.split()
            if len(parts) != 4 or parts[3] != "0":
                raise ParseError("malformed weight line; expected 'w <lit> <weight> 0'", line_no)
            try:
                lit = int(parts[1])
                value = weight_of.get(parts[2])
                if value is None:
                    value = weight_of[parts[2]] = _weight(parts[2])
            except (ValueError, ZeroDivisionError):
                raise ParseError("malformed weight value", line_no) from None
            if lit == 0 or abs(lit) > num_vars:
                raise ParseError(f"weight literal {lit} out of range", line_no)
            if value.numerator < 0:
                raise ParseError("negative weight", line_no)
            if lit in weights:
                raise ParseError(f"duplicate weight for literal {lit}", line_no)
            weights[lit] = value
            continue
        if num_vars is None:
            raise ParseError("clause before header", line_no)
        parts = line.split()
        try:
            literals.extend(map(int, parts))
        except ValueError:
            bad = next(tok for tok in parts if not _is_int(tok))
            raise ParseError(f"unexpected token {bad!r}", line_no) from None
        ends.append(len(literals))
        end_lines.append(line_no)

    if num_vars is None:
        raise ParseError("missing 'p cnf' header")

    clauses: list[frozenset[int]] = []
    start = 0
    for end in _zeros(literals):
        clauses.append(frozenset(literals[start:end]))
        start = end + 1
    if start == len(literals) and len(clauses) == num_clauses:
        try:
            return CnfFormula(num_vars, clauses, weights or None)
        except ValueError:
            _raise_literal_fault(literals, ends, end_lines, num_vars)
            raise
    _raise_literal_fault(literals, ends, end_lines, num_vars)
    if start < len(literals):
        raise ParseError("unterminated clause at end of input", end_lines[-1])
    raise HeaderMismatchError(f"header declares {num_clauses} clauses, found {len(clauses)}")


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _zeros(literals: list[int]):
    """The positions of the 0s in `literals`, ascending."""
    end = -1
    try:
        while True:
            end = literals.index(0, end + 1)
            yield end
    except ValueError:
        return


def _raise_literal_fault(literals, ends, end_lines, num_vars) -> None:
    """Raise ParseError at the first literal, in file order, that
    exceeds the declared variables or whose complement is earlier in its
    clause; the line is that of the clause line holding it."""
    current: set[int] = set()
    for k, lit in enumerate(literals):
        if lit == 0:
            current = set()
            continue
        if abs(lit) > num_vars:
            message = f"literal {lit} exceeds declared variables"
        elif -lit in current:
            message = f"tautological clause mixes {lit} and {-lit}"
        else:
            current.add(lit)
            continue
        raise ParseError(message, end_lines[bisect_right(ends, k)])
