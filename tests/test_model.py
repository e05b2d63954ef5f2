"""Parsing, rendering, and the three input formats."""

import ast
import random
from fractions import Fraction

import pytest

from tdcount import cli
from tdcount.errors import (
    FormatError,
    HeaderMismatchError,
    ParseError,
    UnsupportedRuleError,
    VariableTokenError,
)
from tdcount.model import Atom, GroundProgram, Rule, render_program
from tdcount.parsers import _weight, parse_dimacs, parse_ground_program, parse_smodels

import corpus


def named_rules(program):
    names = program.atom_names()
    return {
        (
            frozenset(names[a] for a in r.head),
            frozenset(names[a] for a in r.body_pos),
            frozenset(names[a] for a in r.body_neg),
        )
        for r in program.rules
    }


def test_parse_fact_and_rule():
    p = parse_ground_program("a. b :- a, not c.")
    assert [a.name for a in p.atoms] == ["a", "b", "c"]
    assert named_rules(p) == {
        (frozenset({"a"}), frozenset(), frozenset()),
        (frozenset({"b"}), frozenset({"a"}), frozenset({"c"})),
    }


def test_parse_disjunction_and_constraint():
    p = parse_ground_program("a | b :- c.\n:- a, b.")
    assert named_rules(p) == {
        (frozenset({"a", "b"}), frozenset({"c"}), frozenset()),
        (frozenset(), frozenset({"a", "b"}), frozenset()),
    }


def test_parse_degenerate_constraint():
    p = parse_ground_program(":- .")
    assert len(p.rules) == 1
    assert not p.rules[0].atoms
    assert p.is_trivially_inconsistent()


def test_parse_comments_and_whitespace():
    p = parse_ground_program("% intro\n a .  % fact\n\nb:-not a.")
    assert named_rules(p) == {
        (frozenset({"a"}), frozenset(), frozenset()),
        (frozenset({"b"}), frozenset(), frozenset({"a"})),
    }


def test_parse_minimize():
    p = parse_ground_program("a. b. #minimize{ 1:a; 3:not b }.")
    names = p.atom_names()
    weights = {(names[a], s): w for (a, s), w in p.minimize.weights.items()}
    assert weights == {("a", True): 1, ("b", False): 3}


@pytest.mark.parametrize(
    "text",
    ["a. b. #minimize{ 1:a 2:b }.", "a. #minimize{ ;1:a }.", "a. #minimize{1:a}. #minimize{;2:a}.",
     "a. #minimize{ 1:a; }."],
)
def test_minimize_elements_need_one_separator_between(text):
    with pytest.raises(ParseError):
        parse_ground_program(text)


def test_empty_minimize_is_accepted():
    assert parse_ground_program("a. #minimize{}.").minimize.weights == {}


def test_minimize_statements_merge():
    p = parse_ground_program("a. #minimize{ 2:a }. #minimize{ 3:a; 1:not a }.")
    assert p.minimize.weights == {(0, True): 5, (0, False): 1}


def test_atom_ids_follow_first_occurrence():
    p = parse_ground_program("b :- a. c.")
    assert [a.name for a in p.atoms] == ["b", "a", "c"]


def test_variable_token_rejected_with_position():
    with pytest.raises(VariableTokenError) as info:
        parse_ground_program("a :- Xy.")
    assert info.value.line == 1
    assert info.value.column == 6


def test_missing_dot_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_ground_program("a :- b")


def test_stray_token_positions_are_reported():
    with pytest.raises(ParseError) as info:
        parse_ground_program("a.\n:- b,, c.")
    assert info.value.line == 2


def test_not_cannot_be_an_atom():
    with pytest.raises(ParseError):
        parse_ground_program("not.")


def test_unknown_directive_rejected():
    with pytest.raises(ParseError):
        parse_ground_program("#maximize{ 1:a }.")


# pieces of random rule-grammar texts: tokens, whitespace that `\s` takes
# but that ends no line, comments, variables, and characters no token takes
TEXT_PIECES = [
    "a", "b1", "not", " not ", ":-", "|", ".", ",", ";", ":", "{", "}", "2", "#minimize", "#foo",
    "\r\n", "\n", "\t", "\x0b", "\x0c", "\x85", " ", "% c\n", "X", "_y", "(", "\u00e9",
    "a :- b.\n", "#minimize{1:a}.",
]


def test_error_positions_point_at_the_error_and_move_with_a_leading_newline(tmp_path, capsys):
    rng = random.Random(20)
    pointed = {ParseError: 0, VariableTokenError: 0}
    for i in range(400):
        text = "".join(rng.choice(TEXT_PIECES) for _ in range(rng.randint(0, 20)))
        try:
            program = parse_ground_program(text)
        except ParseError as exc:
            message = str(exc).split(": ", 1)[1]
            with pytest.raises(ParseError) as shifted:
                parse_ground_program("\n" + text)
            assert type(shifted.value) is type(exc)
            assert (shifted.value.line, shifted.value.column) == (exc.line + 1, exc.column)
            assert str(shifted.value).split(": ", 1)[1] == message
            if message.startswith("unexpected character "):
                token = ast.literal_eval(message.removeprefix("unexpected character "))
            elif type(exc) is VariableTokenError:
                token = ast.literal_eval(message.removeprefix("variable token ").split(";")[0])
            else:
                token = None
            if token is not None:
                assert text.split("\n")[exc.line - 1][exc.column - 1 :].startswith(token)
                pointed[type(exc)] += 1
        else:
            assert parse_ground_program("\n" + text) == program
        path = tmp_path / f"{i}.lp"
        path.write_text(text, encoding="utf-8")
        code = cli.run(["count", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"))
    assert min(pointed.values()) > 20


def test_render_round_trip_examples():
    text = "a | b :- c, not d.\n:- .\n#minimize{ 2:a; 1:not d }.\n"
    p = parse_ground_program(text)
    assert render_program(p) == text


def test_render_round_trip_random():
    for seed in range(60):
        p = corpus.random_program(seed)
        q = parse_ground_program(render_program(p))
        assert named_rules(q) == named_rules(p)
        pw = p.minimize.weights if p.minimize else {}
        qw = q.minimize.weights if q.minimize else {}
        pn, qn = p.atom_names(), q.atom_names()
        assert {(qn[a], s): w for (a, s), w in qw.items() if w} == {
            (pn[a], s): w for (a, s), w in pw.items() if w
        }


def test_program_validates_atom_ids():
    with pytest.raises(ValueError):
        GroundProgram([Atom(1, "a")], [])
    with pytest.raises(ValueError):
        GroundProgram([Atom(0, "a")], [Rule(frozenset({3}), frozenset(), frozenset())])


def test_smodels_basic_golden():
    data = "1 1 1 1 2\n0\n1 a\n2 b\n0\nB+\n0\nB-\n0\n1\n"
    p = parse_smodels(data)
    assert [a.name for a in p.atoms] == ["a", "b"]
    assert named_rules(p) == {(frozenset({"a"}), frozenset(), frozenset({"b"}))}


def test_smodels_accepts_bytes():
    p = parse_smodels(b"1 1 0 0\n0\n1 a\n0\nB+\n0\nB-\n0\n1\n")
    assert named_rules(p) == {(frozenset({"a"}), frozenset(), frozenset())}


def test_smodels_disjunctive_rule():
    data = "8 2 1 2 2 1 4 3\n0\n1 a\n2 b\n3 c\n4 d\n0\nB+\n0\nB-\n0\n1\n"
    p = parse_smodels(data)
    assert named_rules(p) == {
        (frozenset({"a", "b"}), frozenset({"c"}), frozenset({"d"}))
    }


def test_smodels_minimize_rule():
    data = "1 1 0 0\n6 0 2 1 2 1 3 4\n0\n1 a\n2 b\n0\nB+\n0\nB-\n0\n1\n"
    p = parse_smodels(data)
    names = p.atom_names()
    weights = {(names[a], s): w for (a, s), w in p.minimize.weights.items()}
    assert weights == {("b", False): 3, ("a", True): 4}


def test_smodels_multiple_minimize_rules_sum():
    data = "6 0 1 0 1 2\n6 0 1 0 1 3\n0\n1 a\n0\nB+\n0\nB-\n0\n1\n"
    p = parse_smodels(data)
    assert p.minimize.weights == {(0, True): 5}


def test_smodels_compute_sections_become_constraints():
    data = "1 1 0 0\n1 2 0 0\n0\n1 a\n2 b\n0\nB+\n1\n0\nB-\n2\n0\n1\n"
    p = parse_smodels(data)
    assert (frozenset(), frozenset(), frozenset({"a"})) in named_rules(p)
    assert (frozenset(), frozenset({"b"}), frozenset()) in named_rules(p)


@pytest.mark.parametrize("rtype", [2, 3, 5])
def test_smodels_unsupported_rule_types(rtype):
    with pytest.raises(UnsupportedRuleError) as info:
        parse_smodels(f"{rtype} 1 1 1 0 2\n0\n0\nB+\n0\nB-\n0\n1\n")
    assert info.value.rule_type == rtype


def test_smodels_lenient_truncation_after_symbol_table():
    p = parse_smodels("1 1 0 0\n0\n1 a\n0\n")
    assert named_rules(p) == {(frozenset({"a"}), frozenset(), frozenset())}


def test_smodels_truncated_rule_section():
    with pytest.raises(FormatError):
        parse_smodels("1 1 0 0\n")
    with pytest.raises(FormatError) as info:
        parse_smodels("")
    assert (info.value.line, str(info.value)) == (None, "unexpected end of input in rules section")


def test_smodels_truncated_compute_section():
    with pytest.raises(FormatError):
        parse_smodels("1 1 0 0\n0\n1 a\n0\nB+\n0\n")


def test_smodels_bad_counts():
    with pytest.raises(FormatError):
        parse_smodels("1 1 2 0 5\n0\n0\nB+\n0\nB-\n0\n1\n")


def test_smodels_symbol_table_names_each_atom_once():
    # two atoms printed alike would make `enumerate` output ambiguous and
    # `pcount --project` pick one of them
    with pytest.raises(FormatError) as info:
        parse_smodels("1 1 0 0\n1 2 0 0\n0\n1 a\n2 a\n0\nB+\n0\nB-\n0\n1\n")
    assert str(info.value) == "line 5: name 'a' given twice in symbol table"
    # naming an atom again used to rename it silently
    with pytest.raises(FormatError) as info:
        parse_smodels("1 1 0 0\n0\n1 a\n1 b\n0\n")
    assert str(info.value) == "line 4: atom 1 named twice in symbol table"


def test_smodels_unnamed_atoms_get_fallback_names():
    p = parse_smodels("1 1 1 0 2\n0\n1 a\n0\nB+\n0\nB-\n0\n1\n")
    assert p.atoms[1].name is None
    assert p.atom_names() == ["a", "x1"]


def test_dimacs_basic():
    f = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n")
    assert f.num_vars == 3
    assert f.clauses == [frozenset({1, -2}), frozenset({2, 3})]
    assert f.weights is None


def test_dimacs_clauses_are_token_streams():
    f = parse_dimacs("p cnf 2 2\n1\n-2 0 2 0\n")
    assert f.clauses == [frozenset({1, -2}), frozenset({2})]


def test_dimacs_weight_lines():
    f = parse_dimacs("p cnf 2 1\nw 1 1/2 0\nw -1 1/2 0\n1 2 0\n")
    assert f.literal_weight(1) == Fraction(1, 2)
    assert f.literal_weight(2) == Fraction(1)


WEIGHT_TOKENS = [  # (token, its weight, or the ParseError message)
    ("3/10", Fraction(3, 10)),
    ("0", Fraction(0)),
    ("7", Fraction(7)),
    ("0.5", Fraction(1, 2)),
    ("1e-3", Fraction(1, 1000)),
    ("-1/2", "line 2: negative weight"),
    ("+3/4", Fraction(3, 4)),
    ("1/0", "line 2: malformed weight value"),
    ("1_0/3", Fraction(10, 3)),
    ("\u0663/4", Fraction(3, 4)),  # an Arabic-Indic digit three
    ("x", "line 2: malformed weight value"),
]


@pytest.mark.parametrize("token, expected", WEIGHT_TOKENS)
def test_dimacs_weight_tokens_read_as_fractions_do(token, expected):
    # ASCII digit tokens skip `Fraction`'s string parser; every token
    # gives the value or the error that parsing it as a Fraction gives
    text = f"p cnf 1 0\nw 1 {token} 0\n"
    if isinstance(expected, str):
        with pytest.raises(ParseError) as info:
            parse_dimacs(text)
        assert str(info.value) == expected
    else:
        weight = parse_dimacs(text).literal_weight(1)
        assert weight == expected and type(weight) is Fraction


def test_dimacs_weight_reader_agrees_with_fraction():
    for token in [t for t, _ in WEIGHT_TOKENS] + [" 3/4", "3/", "/4", "007/010", "1/-2"]:
        try:
            expected = Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)):
                _weight(token)
        else:
            assert _weight(token) == expected, token


def test_dimacs_weight_after_clause_rejected():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\n1 0\nw 1 1/2 0\n")


def test_dimacs_duplicate_weight_rejected():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\nw 1 1/2 0\nw 1 1/3 0\n1 0\n")


def test_dimacs_header_mismatch():
    with pytest.raises(HeaderMismatchError):
        parse_dimacs("p cnf 2 2\n1 0\n")


def test_dimacs_missing_header():
    with pytest.raises(ParseError):
        parse_dimacs("1 0\n")


def test_dimacs_tautological_clause_rejected():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\n1 -1 0\n")


def test_dimacs_unterminated_clause():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\n1\n")


def test_dimacs_literal_out_of_range():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\n2 0\n")


def test_dimacs_empty_clause_allowed():
    f = parse_dimacs("p cnf 1 1\n0\n")
    assert f.has_empty_clause()


def test_cnf_rules_are_clause_constraints():
    # a clause is violated when all its literals are false: its negative
    # literals' variables form the positive body, its positive ones the
    # negative body, all 0-based
    f = parse_dimacs("p cnf 3 3\n1 -2 0\n-3 0\n0\n")
    assert f.rules == [
        Rule(frozenset(), frozenset({1}), frozenset({0})),
        Rule(frozenset(), frozenset({2}), frozenset()),
        Rule(frozenset(), frozenset(), frozenset()),
    ]
    assert not f.rules[2].atoms
    assert "rules" not in repr(f)


def test_rule_atoms_are_built_once_and_leave_equality_and_hashing_alone():
    def rule():
        return Rule(frozenset({0}), frozenset({1, 2}), frozenset({3}))

    built, again = rule(), rule()
    atoms = built.atoms
    assert atoms == frozenset({0, 1, 2, 3})
    assert built.atoms is atoms
    # the atoms are no part of a rule's identity: equality, hashing and
    # repr read the three parts alone, and the rule stays frozen
    assert built == again and hash(built) == hash(again)
    assert hash(built) == hash((built.head, built.body_pos, built.body_neg))
    assert repr(built) == (
        "Rule(head=frozenset({0}), body_pos=frozenset({1, 2}), body_neg=frozenset({3}))"
    )
    assert len({built, again}) == 1
    assert built != Rule(frozenset({0}), frozenset({1, 2}), frozenset())
    with pytest.raises(AttributeError):
        built.atoms = frozenset()


def chain_program(n: int, closed: bool) -> GroundProgram:
    """a1 :- a0, ..., a(n-1) :- a(n-2), and a0 :- a(n-1) when closed."""
    atoms = [Atom(i, f"a{i}") for i in range(n)]
    rules = [Rule(frozenset({i + 1}), frozenset({i}), frozenset()) for i in range(n - 1)]
    if closed:
        rules.append(Rule(frozenset({0}), frozenset({n - 1}), frozenset()))
    return GroundProgram(atoms, rules)


def test_tightness_of_long_chains_and_cycles():
    # 10^5 atoms: far past the recursion limit, checked without recursion
    assert chain_program(100_000, closed=False).is_tight()
    assert not chain_program(100_000, closed=True).is_tight()


def test_tightness_frozen_examples():
    cases = {
        "a :- a.": False,
        "a :- not a.": True,
        "": True,
        "a | b.  b :- a.": True,
        "a | b :- c.  c :- a.": False,
        "a :- b, not c.  b :- not d.  :- a, b.": True,
        "a :- b.  b :- c.  c :- a.  d.": False,
    }
    for text, expected in cases.items():
        assert parse_ground_program(text).is_tight() is expected, text



def test_smodels_round_trip_corpus():
    # atom ids follow first occurrence, so atoms compare by name
    def named(program):
        names = program.atom_names()
        rules = [
            tuple(frozenset(names[a] for a in part) for part in (r.head, r.body_pos, r.body_neg))
            for r in program.rules
        ]
        weights = program.minimize and {
            (names[a], s): w for (a, s), w in program.minimize.weights.items()
        }
        return sorted(names), rules, weights

    for seed in range(300):
        p = corpus.random_program(seed)
        assert named(parse_smodels(corpus.smodels_text(p))) == named(p), seed
