"""Concrete surface syntax: lexer, parser and pretty printer.

The surface language is Granule-flavored: ``-o`` for linear functions,
``*``/``+`` for products/sums (one operator per unparenthesized chain),
``A [r]`` for the graded modality, ``[t]``/``[p]`` for promotion and box
patterns, and ``push @T`` style type application for derived combinators.

A file holds one optional ``#semiring`` pragma followed by declarations.
Each declaration is a signature line ``name : type`` and a definition
``name = term``; a new declaration starts wherever an identifier in
column 1 is followed by ``:`` or ``=``, and continuation lines are
indented.

Lexical rules: an identifier starts with a letter or ``_`` and goes on
with letters, digits, ``_`` and ``'``; an integer literal is a run of
decimal digits (Unicode category Nd, so ``٣`` reads as 3 but ``²`` is no
digit); ``--`` starts a comment that runs to the end of the line; ``-o``
is the linear arrow unless an identifier character follows it. Blanks are
spaces, tabs and carriage returns, and a column counts characters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from . import grades, syntax
from .grades import Grade, GradeSyntaxError, NAT_EXACT, SEMIRINGS
from .syntax import (
    App, Base, Box, Case, Con, Derive, Fun, IntLit, Lam, LetRec, Mu, Pattern,
    PBox, PCon, PInt, Pos, Promote, PVar, PWild, RecVar, Sum, Tensor, Term,
    TyVar, Type, Unit, Var,
)

KEYWORDS = {
    "case", "of", "letrec", "in", "mu", "unit", "inl", "inr",
    "push", "pull", "drop", "copyShape", "fmap", "Unit", "Int", "Res",
}

# One alternative per lexeme, after any blanks, and the end of the text. One
# of them matches after the longest run of blanks, so the matches of
# ``finditer`` cover the whole text and no run of blanks is scanned twice
# (``BAD`` never takes a blank). ``\w`` is exactly ``str.isalnum`` plus ``_``;
# ``UIDENT`` takes the identifiers that start with a non-ASCII character,
# which ``tokenize`` checks with ``str.isalpha``.
_LEXEME = re.compile(r"""[ \t\r]*(?:
    (?P<IDENT>[A-Za-z_][\w']*)
  | (?P<PUNCT>\.\.|->|-o(?![\w'])|[()\[\],;:=@\\*+.])
  | (?P<NL>\n)
  | (?P<INT>\d+)
  | (?P<COMMENT>--[^\n]*)
  | (?P<PRAGMA>\#semiring[ \t]*(?P<SEMIRING>(?:[^\W_]|-)*))
  | (?P<UIDENT>[^\W\d][\w']*)
  | (?P<BAD>.)
  | \Z
)""", re.VERBOSE)
_IDENT, _PUNCT, _NL, _INT, _COMMENT, _PRAGMA, _UIDENT = (
    _LEXEME.groupindex[k]
    for k in ("IDENT", "PUNCT", "NL", "INT", "COMMENT", "PRAGMA", "UIDENT"))
_tuple = tuple.__new__


class ParseError(Exception):
    def __init__(self, message: str, pos: Pos, expected: tuple[str, ...] = ()):
        super().__init__(f"{pos}: {message}")
        self.message = message
        self.pos = pos
        self.expected = expected


class Token(NamedTuple):
    kind: str  # IDENT, INT, PRAGMA, punctuation text, or EOF
    text: str
    pos: Pos


@dataclass
class Decl:
    name: str
    signature: Type
    body: Term
    pos: Pos


@dataclass
class SourceProgram:
    semiring: str
    decls: list[Decl]
    file: str = "<input>"

    def decl(self, name: str) -> Decl | None:
        for d in self.decls:
            if d.name == name:
                return d
        return None


def tokenize(text: str, file: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    append = toks.append
    line, bol = 1, 0  # bol: the offset where the current line begins
    eof = len(text)  # the offset the EOF token's column counts to
    for m in _LEXEME.finditer(text):
        g = m.lastindex
        # tuple.__new__ skips the Python-level __new__ of Token and Pos
        if g == _IDENT:
            pos = _tuple(Pos, (file, line, m.start(g) - bol + 1))
            append(_tuple(Token, ("IDENT", m[g], pos)))
        elif g == _PUNCT:
            p = m[g]
            pos = _tuple(Pos, (file, line, m.start(g) - bol + 1))
            append(_tuple(Token, (p, p, pos)))
        elif g == _NL:
            line += 1
            bol = m.end()
        elif g == _INT:
            append(Token("INT", m[g], Pos(file, line, m.start(g) - bol + 1)))
        elif g == _COMMENT:
            if m.end() == eof:  # a comment that ends the text adds no columns
                eof = m.start(g)
        elif g == _PRAGMA:
            append(Token("PRAGMA", "#semiring", Pos(file, line, m.start(g) - bol + 1)))
            if m["SEMIRING"]:
                append(Token("IDENT", m["SEMIRING"],
                             Pos(file, line, m.start("SEMIRING") - bol + 1)))
        elif g is not None:  # UIDENT or BAD; None is the end of the text
            c = m[g][0]
            pos = Pos(file, line, m.start(g) - bol + 1)
            if g == _UIDENT and c.isalpha():
                append(Token("IDENT", m[g], pos))
            elif c == "-":
                raise ParseError(f"stray {c!r}", pos)
            else:
                raise ParseError(f"unexpected character {c!r}", pos)
    append(Token("EOF", "", Pos(file, line, eof - bol + 1)))
    return toks


class _Cursor:
    """Reads a token list that ends in an EOF token, which ``next`` never
    passes."""

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        # callers look ahead only from a token that is not EOF
        return self.toks[self.i + ahead]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.toks[self.i]
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text or 'end of input'!r}",
                             t.pos, expected=(kind,))
        return self.next()

    def at(self, kind: str) -> bool:
        return self.toks[self.i].kind == kind

    def at_end(self) -> bool:
        return self.toks[self.i].kind == "EOF"


# ---------------------------------------------------------------------------
# Types and grades
# ---------------------------------------------------------------------------

def _parse_grade_tokens(c: _Cursor, sr: str) -> Grade:
    start = c.peek()
    parts: list[str] = []
    while not c.at("]") and not c.at_end():
        parts.append(c.next().text)
    text = "".join(parts)
    try:
        return grades.parse_grade(text, sr)
    except GradeSyntaxError as e:
        raise ParseError(str(e), start.pos) from e


def _parse_atype(c: _Cursor, sr: str) -> Type:
    ty = _parse_atype_core(c, sr)
    while c.at("["):
        c.next()
        g = _parse_grade_tokens(c, sr)
        c.expect("]")
        ty = Box(g, ty)
    return ty


def _parse_atype_core(c: _Cursor, sr: str) -> Type:
    t = c.peek()
    if t.kind == "(":
        c.next()
        inner = _parse_type(c, sr)
        c.expect(")")
        ty = inner
    elif t.kind == "IDENT":
        c.next()
        if t.text == "Unit":
            ty = Unit()
        elif t.text == "Int":
            ty = Base("Int")
        elif t.text == "Res":
            ty = Base("Res")
        elif t.text == "mu":
            var = c.expect("IDENT")
            if not var.text[0].isupper():
                raise ParseError("recursion variables are capitalized", var.pos)
            c.expect(".")
            body = _parse_type(c, sr)
            ty = Mu(var.text, body)
        elif t.text in KEYWORDS:
            raise ParseError(f"keyword {t.text!r} is not a type", t.pos)
        elif t.text[0].isupper():
            ty = RecVar(t.text)
        else:
            ty = TyVar(t.text)
    else:
        raise ParseError(f"expected a type, found {t.text or 'end of input'!r}", t.pos)
    return ty


def _parse_btype(c: _Cursor, sr: str) -> Type:
    first = _parse_atype(c, sr)
    op = None
    operands = [first]
    while c.at("*") or c.at("+"):
        t = c.next()
        if op is None:
            op = t.kind
        elif t.kind != op:
            raise ParseError("cannot mix * and + without parentheses", t.pos)
        operands.append(_parse_atype(c, sr))
    if op is None:
        return first
    ctor = Tensor if op == "*" else Sum
    ty = operands[-1]
    for operand in reversed(operands[:-1]):
        ty = ctor(operand, ty)
    return ty


def _parse_type(c: _Cursor, sr: str) -> Type:
    left = _parse_btype(c, sr)
    if c.at("-o"):
        c.next()
        right = _parse_type(c, sr)
        return Fun(left, right)
    return left


def _wellformed(ty: Type, pos: Pos) -> Type:
    try:
        syntax.check_wellformed(ty)
    except syntax.IllFormedType as e:
        raise ParseError(str(e), pos) from e
    return ty


def parse_type(text: str, sr: str = NAT_EXACT, file: str = "<type>") -> Type:
    c = _Cursor(tokenize(text, file))
    ty = _parse_type(c, sr)
    if not c.at_end():
        t = c.peek()
        raise ParseError(f"unexpected {t.text!r} after type", t.pos)
    return _wellformed(ty, c.toks[0].pos)


# ---------------------------------------------------------------------------
# Terms and patterns
# ---------------------------------------------------------------------------

def _int_literal(t: Token) -> int:
    try:
        return int(t.text)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ParseError(f"integer literal too long ({len(t.text)} digits)", t.pos) from None


def _parse_pattern(c: _Cursor) -> Pattern:
    t = c.peek()
    if t.kind == "INT":
        c.next()
        return PInt(_int_literal(t), t.pos)
    if t.kind == "[":
        c.next()
        inner = _parse_pattern(c)
        c.expect("]")
        return PBox(inner, t.pos)
    if t.kind == "(":
        c.next()
        first = _parse_pattern(c)
        if c.at(","):
            c.next()
            second = _parse_pattern(c)
            c.expect(")")
            return PCon(",", (first, second), t.pos)
        c.expect(")")
        return first
    if t.kind == "IDENT":
        c.next()
        if t.text == "_":
            return PWild(t.pos)
        if t.text == "unit":
            return PCon("unit", (), t.pos)
        if t.text == "inl":
            return PCon("inl", (_parse_pattern(c),), t.pos)
        if t.text == "inr":
            return PCon("inr", (_parse_pattern(c),), t.pos)
        if t.text in KEYWORDS:
            raise ParseError(f"keyword {t.text!r} is not a pattern", t.pos)
        return PVar(t.text, t.pos)
    raise ParseError(f"expected a pattern, found {t.text or 'end of input'!r}", t.pos)


def _parse_term(c: _Cursor, sr: str) -> Term:
    t = c.peek()
    if t.kind == "\\":
        c.next()
        var = c.expect("IDENT")
        c.expect("->")
        body = _parse_term(c, sr)
        return Lam(var.text, body, t.pos)
    if t.kind == "IDENT" and t.text == "letrec":
        c.next()
        var = c.expect("IDENT")
        c.expect("=")
        bound = _parse_term(c, sr)
        inkw = c.expect("IDENT")
        if inkw.text != "in":
            raise ParseError("expected 'in'", inkw.pos)
        body = _parse_term(c, sr)
        return LetRec(var.text, bound, body, t.pos)
    if t.kind == "IDENT" and t.text == "case":
        c.next()
        scrut = _parse_term(c, sr)
        ofkw = c.expect("IDENT")
        if ofkw.text != "of":
            raise ParseError("expected 'of'", ofkw.pos)
        branches = [_parse_alt(c, sr)]
        while c.at(";"):
            c.next()
            branches.append(_parse_alt(c, sr))
        return Case(scrut, tuple(branches), t.pos)
    return _parse_app(c, sr)


def _parse_alt(c: _Cursor, sr: str) -> tuple[Pattern, Term]:
    pat = _parse_pattern(c)
    c.expect("->")
    body = _parse_term(c, sr)
    return (pat, body)


def _starts_atom(c: _Cursor) -> bool:
    t = c.peek()
    if t.kind in ("INT", "(", "["):
        return True
    if t.kind == "IDENT":
        if t.text in ("case", "letrec", "of", "in", "mu"):
            return False
        # a new top-level declaration is never absorbed as an argument
        if t.pos.col == 1 and c.peek(1).kind in (":", "="):
            return False
        return True
    return False


def _parse_app(c: _Cursor, sr: str) -> Term:
    term = _parse_atom(c, sr)
    while _starts_atom(c):
        arg = _parse_atom(c, sr)
        term = App(term, arg, term.pos)
    return term


def _parse_atom(c: _Cursor, sr: str) -> Term:
    t = c.peek()
    if t.kind == "INT":
        c.next()
        return IntLit(_int_literal(t), t.pos)
    if t.kind == "[":
        c.next()
        inner = _parse_term(c, sr)
        c.expect("]")
        return Promote(inner, t.pos)
    if t.kind == "(":
        c.next()
        first = _parse_term(c, sr)
        if c.at(","):
            c.next()
            second = _parse_term(c, sr)
            c.expect(")")
            return Con(",", (first, second), t.pos)
        c.expect(")")
        return first
    if t.kind == "IDENT":
        if t.text in syntax.DERIVE_KINDS:
            c.next()
            c.expect("@")
            # no box postfix here: a following [t] is an application argument
            at = _wellformed(_parse_atype_core(c, sr), t.pos)
            return Derive(t.text, at, t.pos)
        c.next()
        if t.text == "unit":
            return Con("unit", (), t.pos)
        if t.text == "inl":
            return Con("inl", (_parse_atom(c, sr),), t.pos)
        if t.text == "inr":
            return Con("inr", (_parse_atom(c, sr),), t.pos)
        if t.text in KEYWORDS:
            raise ParseError(f"keyword {t.text!r} is not a term", t.pos)
        return Var(t.text, t.pos)
    raise ParseError(f"expected a term, found {t.text or 'end of input'!r}", t.pos)


def parse_term(text: str, sr: str = NAT_EXACT, file: str = "<term>") -> Term:
    c = _Cursor(tokenize(text, file))
    term = _parse_term(c, sr)
    if not c.at_end():
        t = c.peek()
        raise ParseError(f"unexpected {t.text!r} after term", t.pos)
    return term


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

def _split_items(toks: list[Token]) -> list[list[Token]]:
    """The declarations in ``toks``, without its final EOF token. Each but
    the first starts at an IDENT in column 1 followed by ':' or '='."""
    heads = [i for i, t in enumerate(toks)
             if t.pos.col == 1 and i > 0 and t.kind == "IDENT"
             and toks[i + 1].kind in (":", "=")]
    cuts = [0, *heads, len(toks) - 1]
    return [toks[a:b] for a, b in zip(cuts, cuts[1:]) if a < b]


def parse_program(text: str, file: str = "<input>") -> SourceProgram:
    toks = tokenize(text, file)
    sr = NAT_EXACT
    idx = 0
    if toks and toks[0].kind == "PRAGMA":
        name = toks[1]
        if name.kind != "IDENT" or name.text not in SEMIRINGS:
            raise ParseError(
                f"unknown semiring {name.text!r} (expected one of {', '.join(SEMIRINGS)})",
                name.pos)
        sr = name.text
        idx = 2
    for t in toks[idx:]:
        if t.kind == "PRAGMA":
            raise ParseError("only one #semiring pragma is allowed, at the top", t.pos)

    items = _split_items(toks[idx:])
    decls: list[Decl] = []
    pending: tuple[str, Type, Pos] | None = None
    for item in items:
        item.append(Token("EOF", "", item[-1].pos))
        c = _Cursor(item)
        name = c.expect("IDENT")
        if c.at(":"):
            if pending is not None:
                raise ParseError(f"signature {pending[0]!r} has no definition", name.pos)
            c.next()
            ty = _parse_type(c, sr)
            if not c.at_end():
                t = c.peek()
                raise ParseError(f"unexpected {t.text!r} after type", t.pos)
            pending = (name.text, _wellformed(ty, name.pos), name.pos)
        elif c.at("="):
            c.next()
            if pending is None:
                raise ParseError(f"definition {name.text!r} has no signature", name.pos)
            if pending[0] != name.text:
                raise ParseError(
                    f"definition {name.text!r} does not match signature {pending[0]!r}",
                    name.pos)
            body = _parse_term(c, sr)
            if not c.at_end():
                t = c.peek()
                raise ParseError(f"unexpected {t.text!r} after definition", t.pos)
            decls.append(Decl(name.text, pending[1], body, pending[2]))
            pending = None
        else:
            raise ParseError("expected ':' or '=' after name", name.pos)
    if pending is not None:
        raise ParseError(f"signature {pending[0]!r} has no definition", pending[2])
    return SourceProgram(sr, decls, file)


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

def pretty_type(t: Type) -> str:
    return _pt(t, 0)


def _pt(t: Type, prec: int) -> str:
    # prec: 0 = function position, 1 = chain operand, 2 = atom
    if isinstance(t, Unit):
        return "Unit"
    if isinstance(t, Base):
        return t.name
    if isinstance(t, TyVar) or isinstance(t, RecVar):
        return t.name
    if isinstance(t, Box):
        return f"{_pt(t.body, 2)} [{grades.show_grade(t.grade)}]"
    if isinstance(t, Mu):
        s = f"mu {t.var} . {_pt(t.body, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(t, (Tensor, Sum)):
        op = "*" if isinstance(t, Tensor) else "+"
        left = _pt(t.left, 2)
        right = t.right
        # flatten right-nested chains of the same operator
        parts = [left]
        while isinstance(right, type(t)):
            parts.append(_pt(right.left, 2))
            right = right.right
        parts.append(_pt(right, 2))
        s = f" {op} ".join(parts)
        return f"({s})" if prec > 1 else s
    if isinstance(t, Fun):
        s = f"{_pt(t.arg, 1)} -o {_pt(t.res, 0)}"
        return f"({s})" if prec > 0 else s
    raise AssertionError(f"unhandled type: {t}")


def pretty_pattern(p: Pattern) -> str:
    if isinstance(p, PVar):
        return p.name
    if isinstance(p, PWild):
        return "_"
    if isinstance(p, PInt):
        return str(p.value)
    if isinstance(p, PBox):
        return f"[{pretty_pattern(p.pat)}]"
    if isinstance(p, PCon):
        if p.con == "unit":
            return "unit"
        if p.con == ",":
            return f"({pretty_pattern(p.args[0])}, {pretty_pattern(p.args[1])})"
        arg = pretty_pattern(p.args[0])
        if isinstance(p.args[0], PCon) and p.args[0].con in ("inl", "inr"):
            arg = f"({arg})"
        return f"{p.con} {arg}"
    raise AssertionError(f"unhandled pattern: {p}")


def pretty_term(t: Term) -> str:
    return _ptm(t, 0)


def _ptm(t: Term, prec: int) -> str:
    # prec: 0 = open position, 1 = application head/argument-ish, 2 = atom
    if isinstance(t, Var):
        return t.name
    if isinstance(t, IntLit):
        return str(t.value)
    if isinstance(t, Promote):
        return f"[{_ptm(t.body, 0)}]"
    if isinstance(t, Derive):
        at = _pt(t.at, 2)
        if isinstance(t.at, Box):
            at = f"({at})"
        return f"{t.kind} @{at}"
    if isinstance(t, Con):
        if t.con == "unit":
            return "unit"
        if t.con == ",":
            return f"({_ptm(t.args[0], 0)}, {_ptm(t.args[1], 0)})"
        s = f"{t.con} {_ptm(t.args[0], 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(t, App):
        s = f"{_ptm(t.fn, 1)} {_ptm(t.arg, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(t, Lam):
        s = f"\\{t.var} -> {_ptm(t.body, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(t, LetRec):
        s = f"letrec {t.var} = {_ptm(t.bound, 0)} in {_ptm(t.body, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(t, Case):
        parts = []
        for i, (p, b) in enumerate(t.branches):
            body = _ptm(b, 0)
            # a case (or a term ending in one) would swallow later branches
            if i + 1 < len(t.branches) and _ends_open(b):
                body = f"({body})"
            parts.append(f"{pretty_pattern(p)} -> {body}")
        s = f"case {_ptm(t.scrutinee, 1)} of {'; '.join(parts)}"
        return f"({s})" if prec > 0 else s
    raise AssertionError(f"unhandled term: {t}")


def _ends_open(t: Term) -> bool:
    if isinstance(t, Case):
        return True
    if isinstance(t, Lam):
        return _ends_open(t.body)
    if isinstance(t, LetRec):
        return _ends_open(t.body)
    return False


def pretty(x) -> str:
    if isinstance(x, Type):
        return pretty_type(x)
    if isinstance(x, Term):
        return pretty_term(x)
    if isinstance(x, Pattern):
        return pretty_pattern(x)
    raise TypeError(f"cannot pretty-print {type(x).__name__}")
