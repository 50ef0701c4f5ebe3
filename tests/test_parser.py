"""Surface syntax: parsing, positions, and the printer round-trip."""

import random
import re
import time

import pytest

from conftest import rand_term, rand_type
from grlin import grades as G
from grlin.parser import (
    ParseError, parse_program, parse_term, parse_type, pretty_term, pretty_type,
    tokenize,
)
from grlin.syntax import (
    Box, Case, Con, Derive, Fun, IntLit, Lam, Mu, PBox, Pos, Sum, Tensor, TyVar,
    Var, alpha_eq,
)


def test_parse_copy_program():
    prog = parse_program(
        "copy : (a [2]) -o (a * a)\n"
        "copy = \\y -> case y of [x] -> (x, x)\n")
    assert prog.semiring == G.NAT_EXACT
    assert len(prog.decls) == 1
    d = prog.decls[0]
    assert d.name == "copy"
    assert d.signature == Fun(Box(G.grade_nat(2), TyVar("a")),
                              Tensor(TyVar("a"), TyVar("a")))
    assert isinstance(d.body, Lam)
    assert isinstance(d.body.body, Case)
    assert isinstance(d.body.body.branches[0][0], PBox)


def test_empty_program():
    prog = parse_program("")
    assert prog.decls == []
    assert prog.semiring == G.NAT_EXACT


def test_dangling_arrow_is_positioned():
    with pytest.raises(ParseError) as exc:
        parse_program("f : a -o\nf = \\x -> x")
    assert exc.value.pos.line == 1
    assert exc.value.pos.col >= 7


def test_pragma_selects_semiring():
    prog = parse_program("#semiring interval\nb : Unit [0..1]\nb = [unit]\n")
    assert prog.semiring == "interval"
    from grlin.syntax import Unit
    assert prog.decls[0].signature == Box(G.grade_interval(0, 1), Unit())


def test_type_examples():
    assert parse_type("(a * a) -o b") == Fun(Tensor(TyVar("a"), TyVar("a")), TyVar("b"))
    lists = parse_type("mu X . Unit + (a * X)")
    assert isinstance(lists, Mu) and isinstance(lists.body, Sum)
    assert parse_type("a [0..1]", "interval") == Box(G.grade_interval(0, 1), TyVar("a"))
    # chains are uniform and right-associative
    assert parse_type("a * b * c") == Tensor(TyVar("a"), Tensor(TyVar("b"), TyVar("c")))
    with pytest.raises(ParseError):
        parse_type("a * b + c")


def test_pretty_examples():
    assert pretty_type(Box(G.grade_nat(2), TyVar("a"))) == "a [2]"
    assert pretty_term(Lam("x", parse_term("x"))) == "\\x -> x"
    assert pretty_term(Derive("push", parse_type("mu X . Unit + (a * X)"))) \
        == "push @(mu X . Unit + (a * X))"


def test_comments_and_positions():
    prog = parse_program("-- leading comment\nf : Unit -- trailing\nf = unit\n")
    assert prog.decls[0].pos.line == 2


def test_errors_carry_positions_in_bounds():
    bad = ["f : a -o\nf = \\x -> x", "f :", "f = unit", "#semiring bogus\n",
           "f : a\ng = unit", "f : Unit\nf = case unit of"]
    for src in bad:
        with pytest.raises(ParseError) as exc:
            parse_program(src)
        pos = exc.value.pos
        lines = src.splitlines() or [""]
        assert 1 <= pos.line <= len(lines) + 1
        assert pos.col >= 1


def test_grade_errors_point_at_the_offending_text():
    """A grade syntax error is placed at the source column of the text it
    names, not at the grade's first token."""
    with pytest.raises(ParseError) as exc:
        parse_type("Int [0 ..    2 x]", "interval")
    assert str(exc.value) == "<type>:1:14: bad interval bound '2 x'"
    # a missing bound is placed where it is missing, here at the "]"
    with pytest.raises(ParseError) as exc:
        parse_type("Int [0..]", "interval")
    assert str(exc.value) == "<type>:1:9: bad interval bound ''"


def test_signature_must_precede_definition():
    with pytest.raises(ParseError):
        parse_program("f = unit")
    with pytest.raises(ParseError):
        parse_program("f : Unit\ng = unit")


def test_term_round_trip_1000():
    rng = random.Random(101)
    for _ in range(1000):
        t = rand_term(4, rng, [])
        assert alpha_eq(parse_term(pretty_term(t)), t), pretty_term(t)


def test_type_round_trip_1000():
    rng = random.Random(102)
    for _ in range(1000):
        sr = rng.choice(list(G.SEMIRINGS))
        t = rand_type(4, sr, rng)
        assert parse_type(pretty_type(t), sr) == t, pretty_type(t)


def test_multiline_declarations():
    prog = parse_program(
        "elim : (Unit + Unit) -o Unit\n"
        "elim = \\z -> case z of\n"
        "    inl u -> u;\n"
        "    inr v -> v\n")
    assert len(prog.decls) == 1
    assert len(prog.decls[0].body.body.branches) == 2


def test_tokens_golden():
    """Every golden input lexes as recorded; rewrite the file with
    ``tests/golden/gen_tokens.py`` only for an intended change."""
    from golden import gen_tokens
    want = re.split(r"(?m)^(?=== )", gen_tokens.GOLDEN.read_text(encoding="utf-8"))[1:]
    got = gen_tokens.entries()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, f"golden entry differs: {w.splitlines()[0]}"


def test_parse_golden():
    """Every golden input parses as recorded, positions included; rewrite
    the file with ``tests/golden/gen_parse.py`` only for an intended
    change."""
    from golden import gen_parse
    want = re.split(r"(?m)^(?=== )", gen_parse.GOLDEN.read_text(encoding="utf-8"))[1:]
    got = gen_parse.entries()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, f"golden entry differs: {w.splitlines()[0]}"


def test_trailing_blanks_lex_in_linear_time():
    """A lexer that rescans the blanks after each failed match takes
    seconds here."""
    start = time.perf_counter()
    toks = tokenize("x" + " \t\r" * 30_000)
    assert time.perf_counter() - start < 0.5
    assert [(t[0], t[3]) for t in toks] == [("IDENT", 1), ("EOF", 90_002)]


# Deep inputs, read under the default recursion limit.
DEEP = 10_240


def list_literal(n: int) -> str:
    """The Int list 0, 1, ..., n - 1 as ``grlin run`` prints it."""
    return "".join(f"inr ({x}, " for x in range(n)) + "inl unit" + ")" * n


def test_deep_list_literal_parses():
    text = list_literal(DEEP)
    prog = parse_program(f"main : mu X . Unit + (Int * X)\nmain = {text}\n")
    for term, line, col in ((parse_term(text), 1, 1), (prog.decls[0].body, 2, 8)):
        xs = []
        while term.con == "inr":
            head, term = term.args[0].args
            xs.append(head.value)
        assert xs == list(range(DEEP))
        assert term == Con("inl", (Con("unit", ()),))
        assert term.pos[1:] == (line, col + len(text) - DEEP - len("inl unit"))


def test_deep_list_prints():
    term = Con("inl", (Con("unit", ()),))
    for x in reversed(range(DEEP)):
        term = Con("inr", (Con(",", (IntLit(x), term)),))
    text = pretty_term(term)
    assert text.startswith("inr (0, inr (1, ")
    assert text == list_literal(DEEP)


def test_deep_types_and_parentheses_parse():
    ty = parse_type(" -o ".join(["a"] * 10_001))
    arrows = 0
    while isinstance(ty, Fun):
        assert ty.arg == TyVar("a")
        ty, arrows = ty.res, arrows + 1
    assert (arrows, ty) == (10_000, TyVar("a"))
    assert parse_type("(" * 10_000 + "a" + ")" * 10_000) == TyVar("a")
    x = parse_term("(" * 10_000 + "x" + ")" * 10_000)
    assert (x, x.pos) == (Var("x"), Pos("<term>", 1, 10_001))
