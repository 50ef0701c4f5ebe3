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
    Box, Case, Derive, Fun, Lam, Mu, PBox, Sum, Tensor, TyVar, alpha_eq,
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


def test_trailing_blanks_lex_in_linear_time():
    """A lexer that rescans the blanks after each failed match takes
    seconds here."""
    start = time.perf_counter()
    toks = tokenize("x" + " \t\r" * 30_000)
    assert time.perf_counter() - start < 0.5
    assert [(t.kind, t.pos.col) for t in toks] == [("IDENT", 1), ("EOF", 90_002)]
