"""Surface syntax: parsing, positions, and the printer round-trip."""

import random
import re
import time

import pytest

from conftest import rand_grade, rand_pattern, rand_term, rand_type, same
from grlin import grades as G
from grlin import lawcheck as L
from grlin.parser import (
    ParseError, parse_program, parse_term, parse_type, pretty_term, pretty_type,
    tokenize,
)
from grlin.syntax import (
    App, Base, Box, Case, Con, Derive, DERIVE_KINDS, Fun, IntLit, Lam, LetRec, Mu,
    Pattern, PBox, PCon, PInt, Pos, Promote, PVar, PWild, RecVar, Sum, Tensor, Term,
    TyVar, Type, Unit, Var, alpha_eq,
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
        assert same(term, Con("inl", (Con("unit", ()),)))
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
    assert same((x, x.pos), (Var("x"), Pos("<term>", 1, 10_001)))


# ---------------------------------------------------------------------------
# One printer for types, patterns and terms
# ---------------------------------------------------------------------------

def _in_case(p):
    """A pattern is printed as a case branch."""
    return Case(Var("s"), ((p, Var("e")),))


def test_every_syntax_node_prints():
    """One instance of every node class, with its text: a node class without
    a printer branch fails here."""
    a, X = TyVar("a"), RecVar("X")
    types = [
        (Fun(a, Base("Int")), "a -o Int"), (Tensor(Unit(), a), "Unit * a"),
        (Sum(Unit(), a), "Unit + a"), (Unit(), "Unit"),
        (Box(G.grade_nat(2), a), "a [2]"), (a, "a"), (X, "X"),
        (Mu("X", Sum(Unit(), X)), "mu X . Unit + X"), (Base("Res"), "Res"),
    ]
    terms = [
        (Var("x"), "x"), (App(Var("f"), Var("x")), "f x"),
        (Lam("x", Var("x")), "\\x -> x"), (Promote(Var("x")), "[x]"),
        (Con("inl", (IntLit(1),)), "inl 1"),
        (Case(Var("s"), ((PVar("x"), Var("x")),)), "case s of x -> x"),
        (LetRec("r", Var("r"), Var("r")), "letrec r = r in r"),
        (Derive("push", Box(G.grade_nat(2), a)), "push @(a [2])"), (IntLit(3), "3"),
    ]
    patterns = [
        (PVar("x"), "x"), (PWild(), "_"), (PBox(PVar("x")), "[x]"),
        (PCon("inr", (PCon(",", (PInt(1), PWild())),)), "inr (1, _)"), (PInt(7), "7"),
    ]
    # by name: ``__subclasses__()`` also lists each class as it was before
    # ``@frozen`` rebuilt it with slots
    for base, table in ((Type, types), (Term, terms), (Pattern, patterns)):
        assert {n.__class__.__name__ for n, _ in table} \
            == {c.__name__ for c in base.__subclasses__()}, base
    assert [pretty_type(t) for t, _ in types] == [text for _, text in types]
    assert [pretty_term(t) for t, _ in terms] == [text for _, text in terms]
    assert [pretty_term(_in_case(p)) for p, _ in patterns] \
        == [f"case s of {text} -> e" for _, text in patterns]


# The printers of an earlier version, one per syntactic category, kept as
# the reference that the one printer must agree with.

def ref_pt(t, prec):
    c = t.__class__
    if c is Unit or c is TyVar or c is RecVar or c is Base:
        return "Unit" if c is Unit else t.name
    out = []
    write = out.append
    todo = []
    push = todo.append
    while True:
        c = t.__class__
        if c is TyVar or c is Base or c is RecVar:
            write(t.name)
        elif c is Unit:
            write("Unit")
        else:
            if c is Box:
                push(f" [{G.show_grade(t.grade)}]")
                t, prec = t.body, 2
            elif c is Fun:
                if prec > 0:
                    write("(")
                    push(")")
                push((" -o ", t.res, 0))
                t, prec = t.arg, 1
            elif c is Tensor or c is Sum:
                if prec > 1:
                    write("(")
                    push(")")
                op = " * " if c is Tensor else " + "
                rest = []
                r = t.right
                while r.__class__ is c:
                    rest.append(r.left)
                    r = r.right
                push((op, r, 2))
                for x in reversed(rest):
                    push((op, x, 2))
                t, prec = t.left, 2
            elif c is Mu:
                if prec > 0:
                    write("(")
                    push(")")
                write(f"mu {t.var} . ")
                t, prec = t.body, 0
            else:
                raise AssertionError(f"unhandled type: {t}")
            continue
        while todo:
            item = todo.pop()
            if item.__class__ is str:
                write(item)
            else:
                sep, t, prec = item
                write(sep)
                break
        else:
            return "".join(out)


def ref_pretty_pattern(p):
    c = p.__class__
    if c is PVar or c is PWild:
        return p.name if c is PVar else "_"
    out = []
    write = out.append
    todo = [p]
    while todo:
        p = todo.pop()
        c = p.__class__
        if c is str:
            write(p)
        elif c is PVar:
            write(p.name)
        elif c is PBox:
            write("[")
            todo += ("]", p.pat)
        elif c is not PCon:
            write("_" if c is PWild else str(p.value))
        elif p.con == "unit":
            write("unit")
        elif p.con == ",":
            write("(")
            todo += (")", p.args[1], ", ", p.args[0])
        elif p.args[0].__class__ is PCon and p.args[0].con in ("inl", "inr"):
            write(f"{p.con} (")
            todo += (")", p.args[0])
        else:
            write(f"{p.con} ")
            todo.append(p.args[0])
    return "".join(out)


def ref_ends_open(t):
    while isinstance(t, (Lam, LetRec)):
        t = t.body
    return isinstance(t, Case)


def ref_pretty_term(t):
    out = []
    write = out.append
    todo = [(t, 0)]
    push = todo.append
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            write(item)
            continue
        t, prec = item
        c = t.__class__
        if c is Var:
            write(t.name)
        elif c is IntLit:
            write(str(t.value))
        elif c is Con:
            if t.con == ",":
                write("(")
                todo += (")", (t.args[1], 0), ", ", (t.args[0], 0))
            elif t.con == "unit":
                write("unit")
            elif prec > 1:
                write(f"({t.con} ")
                todo += (")", (t.args[0], 2))
            else:
                write(f"{t.con} ")
                push((t.args[0], 2))
        elif c is App:
            if prec > 1:
                write("(")
                push(")")
            todo += ((t.arg, 2), " ", (t.fn, 1))
        elif c is Promote:
            write("[")
            todo += ("]", (t.body, 0))
        elif c is Derive:
            at = ref_pt(t.at, 2)
            write(f"{t.kind} @({at})" if isinstance(t.at, Box) else f"{t.kind} @{at}")
        elif c is Lam or c is LetRec or c is Case:
            if prec > 0:
                write("(")
                push(")")
            if c is Lam:
                write(f"\\{t.var} -> ")
                push((t.body, 0))
            elif c is LetRec:
                write(f"letrec {t.var} = ")
                todo += ((t.body, 0), " in ", (t.bound, 0))
            else:
                parts = [(t.scrutinee, 1), " of "]
                last = len(t.branches) - 1
                for i, (p, b) in enumerate(t.branches):
                    parts.append(f"{'; ' if i else ''}{ref_pretty_pattern(p)} -> ")
                    if i < last and ref_ends_open(b):
                        parts += ["(", (b, 0), ")"]
                    else:
                        parts.append((b, 0))
                write("case ")
                todo.extend(reversed(parts))
        else:
            raise AssertionError(f"unhandled term: {t}")
    return "".join(out)


def _subject(i, sr, rng):
    """A derive subject: boxed, μ, function or any type, by ``i``."""
    ty = rand_type(2, sr, rng, ("X",))
    return (Box(rand_grade(sr, rng), ty), Mu("X", ty),
            Fun(ty, rand_type(2, sr, rng)), rand_type(3, sr, rng))[i % 4]


def test_printer_matches_the_reference_printers():
    rng = random.Random(2024)
    srs = list(G.SEMIRINGS)
    gen_cfg = L.TypeGenConfig(max_depth=3, allow_fun=True, allow_base=True)
    types = []
    for i in range(3_000):
        sr = srs[i % len(srs)]
        ty = rand_type(4, sr, rng) if i % 2 else L.gen_type(gen_cfg, rng)
        types.append(Box(rand_grade(sr, rng), ty) if i % 3 == 0 else ty)
    patterns = [rand_pattern(4, rng, []) for _ in range(3_000)]
    terms = [rand_term(4, rng, ["f", "x"]) for _ in range(3_000)]
    derives = [Derive(rng.choice(DERIVE_KINDS), _subject(i, srs[i % len(srs)], rng))
               for i in range(3_000)]
    for d in derives:  # in each position a term gives it
        t = rand_term(2, rng, ["f"])
        terms.append(rng.choice((d, App(t, d), App(d, t), Con("inl", (d,)),
                                 Promote(d), Lam("x", d))))
    shapes = {Box, Mu, Fun}
    assert shapes <= {d.at.__class__ for d in derives}
    assert shapes <= {t.__class__ for t in types}
    for t in types:
        assert pretty_type(t) == ref_pt(t, 0)
    for p in patterns:
        assert pretty_term(_in_case(p)) == f"case s of {ref_pretty_pattern(p)} -> e"
    for t in terms:
        assert pretty_term(t) == ref_pretty_term(t)
