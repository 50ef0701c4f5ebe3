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

A token is a plain tuple ``(kind, text, line, col, file)``, where kind is
``IDENT``, ``INT``, ``PRAGMA``, the text of a punctuation mark, or ``EOF``.
A ``Pos`` is built only where a syntax node or a ``ParseError`` keeps one.
So a token is one tuple, which the garbage collector stops tracking once
it has seen that the tuple holds only strings and ints.

Types and terms are parsed without recursion: each parser is one loop
over an explicit stack of frames, one frame per construct still open (a
parenthesis, a binder, an application, ...), so input nested to any
depth parses. Patterns are parsed the same way. One loop prints types,
patterns and terms from an explicit stack too, for ``pretty_type`` and
``pretty_term``.
Each parser takes a token list that ends in an EOF token and the index
where it starts, and returns its node and the index after it.
"""

from __future__ import annotations

import re

from . import grades, syntax
from .frozen import frozen
from .grades import Grade, GradeSyntaxError, NAT_EXACT, SEMIRINGS
from .syntax import (
    App, Base, Box, Case, Con, Derive, DERIVE_KINDS, Fun, INT, IntLit, Lam, LetRec,
    Mu, Pattern, PBox, PCon, PInt, Pos, Promote, PVar, PWild, RecVar, RES, Sum,
    Tensor, Term, TyVar, Type, UNIT, Unit, Var,
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


Token = tuple[str, str, int, int, str]  # (kind, text, line, col, file)


def _pos(t: Token) -> Pos:
    # tuple.__new__ skips the Python-level __new__ of Pos
    return _tuple(Pos, (t[4], t[2], t[3]))


def _expected(kind: str, t: Token) -> ParseError:
    return ParseError(f"expected {kind!r}, found {t[1] or 'end of input'!r}", _pos(t),
                      expected=(kind,))


@frozen
class Decl:
    name: str
    signature: Type
    body: Term
    pos: Pos


class SourceProgram:
    """A parsed program. Its semiring may be set again, to check the same
    declarations under another semiring."""
    __slots__ = ("semiring", "decls", "file")

    def __init__(self, semiring: str, decls: list[Decl], file: str = "<input>"):
        self.semiring = semiring
        self.decls = decls
        self.file = file

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
        if g == _IDENT:
            append(("IDENT", m[g], line, m.start(g) - bol + 1, file))
        elif g == _PUNCT:
            p = m[g]
            append((p, p, line, m.start(g) - bol + 1, file))
        elif g == _NL:
            line += 1
            bol = m.end()
        elif g == _INT:
            append(("INT", m[g], line, m.start(g) - bol + 1, file))
        elif g == _COMMENT:
            if m.end() == eof:  # a comment that ends the text adds no columns
                eof = m.start(g)
        elif g == _PRAGMA:
            append(("PRAGMA", "#semiring", line, m.start(g) - bol + 1, file))
            if m["SEMIRING"]:
                append(("IDENT", m["SEMIRING"], line, m.start("SEMIRING") - bol + 1, file))
        elif g is not None:  # UIDENT or BAD; None is the end of the text
            c = m[g][0]
            col = m.start(g) - bol + 1
            if g == _UIDENT and c.isalpha():
                append(("IDENT", m[g], line, col, file))
            elif c == "-":
                raise ParseError(f"stray {c!r}", Pos(file, line, col))
            else:
                raise ParseError(f"unexpected character {c!r}", Pos(file, line, col))
    append(("EOF", "", line, eof - bol + 1, file))
    return toks


def _end(toks: list[Token], i: int, what: str) -> None:
    """Refuse a token other than EOF at ``toks[i]``, after the ``what``
    that ends there."""
    t = toks[i]
    if t[0] != "EOF":
        raise ParseError(f"unexpected {t[1]!r} after {what}", _pos(t))


# ---------------------------------------------------------------------------
# Types and grades
# ---------------------------------------------------------------------------

# Frames of the type parser: what a type being read will be part of.
_TPAREN = 0  # (_TPAREN,): the inside of "( ... )"
_TMU = 1  # (_TMU, var): the body of "mu var . ..."
_TFUN = 2  # (_TFUN, arg): the result of "arg -o ..."
_TCHAIN = 3  # [_TCHAIN, op, operands]: the next operand of "a op b op ..."


def _parse_grade(toks: list[Token], i: int, sr: str) -> tuple[Grade, int]:
    """The grade whose tokens run from ``toks[i]`` up to ``]`` or the end.
    Tokens that a blank or a comment separates stay separated by a blank.
    A syntax error points at the character it names in the source."""
    first = i
    parts: list[str] = []
    end = None  # (line, col) just after the previous token
    while toks[i][0] != "]" and toks[i][0] != "EOF":
        _, text, line, col, _ = toks[i]
        if parts and (line, col) != end:
            parts.append(" ")
        parts.append(text)
        end = (line, col + len(text))
        i += 1
    try:
        return grades.parse_grade("".join(parts), sr), i
    except GradeSyntaxError as e:
        # find the token t that holds the offset, which starts at ``at``
        t, at, off = toks[first], 0, 0
        for piece in parts:
            if piece != " ":
                if off > e.offset:
                    break
                t, at = toks[first], off
                first += 1
            off += len(piece)
        raise ParseError(e.message, Pos(t[4], t[2], t[3] + e.offset - at)) from e


def _parse_type(toks: list[Token], i: int, sr: str,
                core: bool = False) -> tuple[Type, int]:
    """A type, or with ``core`` an atomic type without the box postfix.

    ``type ::= btype ['-o' type]``, ``btype ::= atype (op atype)*`` with
    one op, ``*`` or ``+``, per chain, and ``atype ::= core ('[' grade
    ']')*``. A core is a name, ``( type )`` or ``mu X . type``."""
    stack: list = []
    while True:
        # Read a core, opening a frame for each "(" and "mu X ." before it.
        t = toks[i]
        kind = t[0]
        if kind == "(":
            stack.append((_TPAREN,))
            i += 1
            continue
        if kind != "IDENT":
            raise ParseError(f"expected a type, found {t[1] or 'end of input'!r}", _pos(t))
        text = t[1]
        i += 1
        if text == "Unit":
            ty = UNIT
        elif text == "Int":
            ty = INT
        elif text == "Res":
            ty = RES
        elif text == "mu":
            var = toks[i]
            if var[0] != "IDENT":
                raise _expected("IDENT", var)
            if not var[1][0].isupper():
                raise ParseError("recursion variables are capitalized", _pos(var))
            if toks[i + 1][0] != ".":
                raise _expected(".", toks[i + 1])
            stack.append((_TMU, var[1]))
            i += 2
            continue
        elif text in KEYWORDS:
            raise ParseError(f"keyword {text!r} is not a type", _pos(t))
        elif text[0].isupper():
            ty = RecVar(text)
        else:
            ty = TyVar(text)
        # ty is a core. Close the frames it completes, until one needs more.
        while True:
            if core and not stack:
                return ty, i
            while toks[i][0] == "[":
                g, i = _parse_grade(toks, i + 1, sr)
                if toks[i][0] != "]":
                    raise _expected("]", toks[i])
                i += 1
                ty = Box(g, ty)
            # ty is an atype
            kind = toks[i][0]
            op = kind == "*" or kind == "+"
            if stack and stack[-1][0] == _TCHAIN:
                frame = stack[-1]
                frame[2].append(ty)
                if op:
                    if kind != frame[1]:
                        raise ParseError("cannot mix * and + without parentheses",
                                         _pos(toks[i]))
                    i += 1
                    break
                stack.pop()
                operands = frame[2]
                ctor = Tensor if frame[1] == "*" else Sum
                ty = operands.pop()
                while operands:
                    ty = ctor(operands.pop(), ty)
            elif op:
                stack.append([_TCHAIN, kind, [ty]])
                i += 1
                break
            # ty is a btype
            if kind == "-o":
                stack.append((_TFUN, ty))
                i += 1
                break
            # ty is a type
            while stack and stack[-1][0] == _TFUN:
                ty = Fun(stack.pop()[1], ty)
            if not stack:
                return ty, i
            frame = stack.pop()
            if frame[0] == _TPAREN:
                if toks[i][0] != ")":
                    raise _expected(")", toks[i])
                i += 1
            else:
                ty = Mu(frame[1], ty)


def _wellformed(ty: Type, pos: Pos) -> Type:
    try:
        syntax.check_wellformed(ty)
    except syntax.IllFormedType as e:
        raise ParseError(str(e), pos) from e
    return ty


def parse_type(text: str, sr: str = NAT_EXACT, file: str = "<type>") -> Type:
    toks = tokenize(text, file)
    ty, i = _parse_type(toks, 0, sr)
    _end(toks, i, "type")
    return _wellformed(ty, _pos(toks[0]))


# ---------------------------------------------------------------------------
# Terms and patterns
# ---------------------------------------------------------------------------

def _int_literal(t: Token) -> int:
    try:
        return int(t[1])
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ParseError(f"integer literal too long ({len(t[1])} digits)", _pos(t)) from None


# Frames of the pattern parser: what a pattern being read will be part of.
_PBOX = 0  # (_PBOX, pos): the inside of "[ ... ]"
_PPAREN = 1  # (_PPAREN, pos): the inside of "( ... )", or a pair's first half
_PPAIR = 2  # (_PPAIR, pos, first): a pair's second half
_PINJ = 3  # (_PINJ, con, pos): the pattern after "inl" or "inr"


def _parse_pattern(toks: list[Token], i: int) -> tuple[Pattern, int]:
    """A pattern: a name, ``_``, an integer, ``unit``, ``inl pat``, ``inr
    pat``, ``[pat]``, ``(pat)`` or ``(pat, pat)``. Each construct still
    open is a frame on ``stack``."""
    stack: list = []
    while True:
        t = toks[i]
        kind = t[0]
        if kind == "INT":
            pat = PInt(_int_literal(t), _pos(t))
        elif kind == "[" or kind == "(":
            stack.append((_PBOX if kind == "[" else _PPAREN, _pos(t)))
            i += 1
            continue
        elif kind == "IDENT":
            text = t[1]
            if text == "_":
                pat = PWild(_pos(t))
            elif text == "unit":
                pat = PCon("unit", (), _pos(t))
            elif text == "inl" or text == "inr":
                stack.append((_PINJ, text, _pos(t)))
                i += 1
                continue
            elif text in KEYWORDS:
                raise ParseError(f"keyword {text!r} is not a pattern", _pos(t))
            else:
                pat = PVar(text, _pos(t))
        else:
            raise ParseError(f"expected a pattern, found {t[1] or 'end of input'!r}", _pos(t))
        i += 1
        # pat is complete. Close the frames it completes, until one needs more.
        while stack:
            frame = stack[-1]
            tag = frame[0]
            if tag == _PINJ:
                pat = PCon(frame[1], (pat,), frame[2])
            elif tag == _PPAREN and toks[i][0] == ",":
                stack[-1] = (_PPAIR, frame[1], pat)
                i += 1
                break
            else:
                close = "]" if tag == _PBOX else ")"
                if toks[i][0] != close:
                    raise _expected(close, toks[i])
                i += 1
                if tag == _PBOX:
                    pat = PBox(pat, frame[1])
                elif tag == _PPAIR:
                    pat = PCon(",", (frame[2], pat), frame[1])
            stack.pop()
        else:
            return pat, i


# Frames of the term parser: what a term being read will be part of.
_LAM = 0  # (_LAM, var, pos): the body of "\var -> ..."
_LETREC = 1  # (_LETREC, var, pos): the bound term of "letrec var = ... in"
_LETREC_IN = 2  # (_LETREC_IN, var, pos, bound): the body after "in"
_CASE = 3  # (_CASE, pos): the scrutinee of "case ... of"
_ALT = 4  # (_ALT, pos, scrutinee, branches, pattern): a branch's body
_PAREN = 5  # (_PAREN, pos): the inside of "( ... )", or a pair's first half
_PAIR = 6  # (_PAIR, pos, first): a pair's second half
_PROMOTE = 7  # (_PROMOTE, pos): the inside of "[ ... ]"
_APP = 8  # (_APP, fn): the next argument applied to fn
_INJ = 9  # (_INJ, con, pos): the atom after "inl" or "inr"

# identifiers that never start an atom
_NOT_ATOM = frozenset({"case", "letrec", "of", "in", "mu"})


def _parse_alt(toks: list[Token], i: int) -> tuple[Pattern, int]:
    """The pattern of a case branch at ``toks[i]`` and the index of the
    branch's body, after the "->"."""
    pat, i = _parse_pattern(toks, i)
    if toks[i][0] != "->":
        raise _expected("->", toks[i])
    return pat, i + 1


def _parse_term(toks: list[Token], i: int, sr: str) -> tuple[Term, int]:
    """A term: ``\\x -> term``, ``letrec x = term in term``, ``case term of
    pat -> term (; pat -> term)*``, or an application ``atom atom*``. An
    atom is a name, an integer, ``unit``, ``inl atom``, ``inr atom``,
    ``[term]``, ``(term)``, ``(term, term)`` or ``kind @core``. Each
    construct still open is a frame on ``stack``."""
    stack: list = []
    push = stack.append
    term_starts = True  # a term starts at toks[i], else an atom
    while True:
        # Read an atom, opening a frame for each construct that encloses it.
        t = toks[i]
        kind = t[0]
        if kind == "IDENT":
            text = t[1]
            if term_starts and (text == "letrec" or text == "case"):
                if text == "case":
                    push((_CASE, _pos(t)))
                    i += 1
                    continue
                var = toks[i + 1]
                if var[0] != "IDENT":
                    raise _expected("IDENT", var)
                if toks[i + 2][0] != "=":
                    raise _expected("=", toks[i + 2])
                push((_LETREC, var[1], _pos(t)))
                i += 3
                continue
            i += 1
            if text in DERIVE_KINDS:
                if toks[i][0] != "@":
                    raise _expected("@", toks[i])
                pos = _pos(t)
                # no box postfix here: a following [t] is an application argument
                at, i = _parse_type(toks, i + 1, sr, core=True)
                term = Derive(text, _wellformed(at, pos), pos)
            elif text == "unit":
                term = Con("unit", (), _pos(t))
            elif text == "inl" or text == "inr":
                push((_INJ, text, _pos(t)))
                term_starts = False
                continue
            elif text in KEYWORDS:
                raise ParseError(f"keyword {text!r} is not a term", _pos(t))
            else:
                term = Var(text, _pos(t))
        elif kind == "INT":
            term = IntLit(_int_literal(t), _pos(t))
            i += 1
        elif kind == "(" or kind == "[":
            push((_PAREN if kind == "(" else _PROMOTE, _pos(t)))
            i += 1
            term_starts = True
            continue
        elif kind == "\\" and term_starts:
            var = toks[i + 1]
            if var[0] != "IDENT":
                raise _expected("IDENT", var)
            if toks[i + 2][0] != "->":
                raise _expected("->", toks[i + 2])
            push((_LAM, var[1], _pos(t)))
            i += 3
            continue
        else:
            raise ParseError(f"expected a term, found {t[1] or 'end of input'!r}", _pos(t))
        # term is an atom. Close the frames it completes, until one needs more.
        atom = True
        while True:
            if atom:
                while stack and stack[-1][0] == _INJ:
                    frame = stack.pop()
                    term = Con(frame[1], (term,), frame[2])
                if stack and stack[-1][0] == _APP:
                    fn = stack.pop()[1]
                    term = App(fn, term, fn.pos)
                # term is an application; an atom that follows is its argument
                t = toks[i]
                kind = t[0]
                if (kind == "INT" or kind == "(" or kind == "["
                        or kind == "IDENT" and t[1] not in _NOT_ATOM
                        # a new top-level declaration is never an argument
                        and not (t[3] == 1 and toks[i + 1][0] in (":", "="))):
                    push((_APP, term))
                    term_starts = False
                    break
            # term is a term
            if not stack:
                return term, i
            frame = stack[-1]
            tag = frame[0]
            atom = False
            if tag == _LAM:
                stack.pop()
                term = Lam(frame[1], term, frame[2])
            elif tag == _LETREC_IN:
                stack.pop()
                term = LetRec(frame[1], frame[3], term, frame[2])
            elif tag == _ALT:
                frame[3].append((frame[4], term))
                if toks[i][0] != ";":
                    stack.pop()
                    term = Case(frame[2], tuple(frame[3]), frame[1])
                    continue
                pat, i = _parse_alt(toks, i + 1)
                stack[-1] = (_ALT, frame[1], frame[2], frame[3], pat)
                term_starts = True
                break
            elif tag == _PAREN or tag == _PAIR:
                t = toks[i]
                if tag == _PAREN and t[0] == ",":
                    stack[-1] = (_PAIR, frame[1], term)
                    i += 1
                    term_starts = True
                    break
                if t[0] != ")":
                    raise _expected(")", t)
                i += 1
                stack.pop()
                if tag == _PAIR:
                    term = Con(",", (frame[2], term), frame[1])
                atom = True
            elif tag == _PROMOTE:
                if toks[i][0] != "]":
                    raise _expected("]", toks[i])
                i += 1
                stack.pop()
                term = Promote(term, frame[1])
                atom = True
            else:  # _LETREC or _CASE: the keyword that ends the term comes next
                t = toks[i]
                if t[0] != "IDENT":
                    raise _expected("IDENT", t)
                if tag == _LETREC:
                    if t[1] != "in":
                        raise ParseError("expected 'in'", _pos(t))
                    stack[-1] = (_LETREC_IN, frame[1], frame[2], term)
                    i += 1
                else:
                    if t[1] != "of":
                        raise ParseError("expected 'of'", _pos(t))
                    pat, i = _parse_alt(toks, i + 1)
                    stack[-1] = (_ALT, frame[1], term, [], pat)
                term_starts = True
                break


def parse_term(text: str, sr: str = NAT_EXACT, file: str = "<term>") -> Term:
    toks = tokenize(text, file)
    term, i = _parse_term(toks, 0, sr)
    _end(toks, i, "term")
    return term


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

def _split_items(toks: list[Token]) -> list[list[Token]]:
    """The declarations in ``toks``, without its final EOF token. Each but
    the first starts at an IDENT in column 1 followed by ':' or '='."""
    heads = [i for i, t in enumerate(toks)
             if t[3] == 1 and i > 0 and t[0] == "IDENT"
             and toks[i + 1][0] in (":", "=")]
    cuts = [0, *heads, len(toks) - 1]
    return [toks[a:b] for a, b in zip(cuts, cuts[1:]) if a < b]


def parse_program(text: str, file: str = "<input>") -> SourceProgram:
    toks = tokenize(text, file)
    sr = NAT_EXACT
    idx = 0
    if toks and toks[0][0] == "PRAGMA":
        name = toks[1]
        if name[0] != "IDENT" or name[1] not in SEMIRINGS:
            raise ParseError(
                f"unknown semiring {name[1]!r} (expected one of {', '.join(SEMIRINGS)})",
                _pos(name))
        sr = name[1]
        idx = 2
    for t in toks[idx:]:
        if t[0] == "PRAGMA":
            raise ParseError("only one #semiring pragma is allowed, at the top", _pos(t))

    items = _split_items(toks[idx:])
    decls: list[Decl] = []
    pending: tuple[str, Type, Pos] | None = None
    for item in items:
        last = item[-1]
        item.append(("EOF", "", last[2], last[3], last[4]))
        name = item[0]
        if name[0] != "IDENT":
            raise _expected("IDENT", name)
        sep = item[1][0]
        if sep == ":":
            if pending is not None:
                raise ParseError(f"signature {pending[0]!r} has no definition", _pos(name))
            ty, i = _parse_type(item, 2, sr)
            _end(item, i, "type")
            pos = _pos(name)
            pending = (name[1], _wellformed(ty, pos), pos)
        elif sep == "=":
            if pending is None:
                raise ParseError(f"definition {name[1]!r} has no signature", _pos(name))
            if pending[0] != name[1]:
                raise ParseError(
                    f"definition {name[1]!r} does not match signature {pending[0]!r}",
                    _pos(name))
            body, i = _parse_term(item, 2, sr)
            _end(item, i, "definition")
            decls.append(Decl(name[1], pending[1], body, pending[2]))
            pending = None
        else:
            raise ParseError("expected ':' or '=' after name", _pos(name))
    if pending is not None:
        raise ParseError(f"signature {pending[0]!r} has no definition", pending[2])
    return SourceProgram(sr, decls, file)


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

def pretty_type(t: Type) -> str:
    c = t.__class__
    if c is Unit or c is TyVar or c is RecVar or c is Base:
        # a leaf needs no stack; half the types derivation traces print are leaves
        return "Unit" if c is Unit else t.name
    return _pretty(t)


def pretty_term(t: Term) -> str:
    return _pretty(t)


def _pretty(node) -> str:
    # One loop prints types, patterns and terms. prec: 0 = open position,
    # 1 = application head or chain operand, 2 = atom. ``todo`` holds what is
    # left to write, last piece first: strings and (node, prec) pairs. A
    # pattern takes the branch of its term twin.
    out: list[str] = []
    write = out.append
    todo: list = [(node, 0)]
    push = todo.append
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            write(item)
            continue
        t, prec = item
        c = t.__class__
        if c is Var or c is PVar or c is TyVar or c is Base or c is RecVar:
            write(t.name)
        elif c is Con or c is PCon:
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
        elif c is App or c is Tensor or c is Sum:
            if prec > 1:
                write("(")
                push(")")
            if c is App:
                todo += ((t.arg, 2), " ", (t.fn, 1))
            else:  # a right operand with the same operator continues the chain
                r = t.right
                todo += ((r, 1 if r.__class__ is c else 2),
                         " * " if c is Tensor else " + ", (t.left, 2))
        elif c is IntLit or c is PInt:
            write(str(t.value))
        elif c is Promote or c is PBox:
            write("[")
            todo += ("]", (t.body if c is Promote else t.pat, 0))
        elif c is Unit:
            write("Unit")
        elif c is Box:
            todo += (f" [{grades.show_grade(t.grade)}]", (t.body, 2))
        elif c is PWild:
            write("_")
        elif c is Derive:
            if t.at.__class__ is Box:
                write(f"{t.kind} @(")
                push(")")
            else:
                write(f"{t.kind} @")
            push((t.at, 2))
        elif c is Fun or c is Mu or c is Lam or c is LetRec or c is Case:
            if prec > 0:
                write("(")
                push(")")
            if c is Fun:
                todo += ((t.res, 0), " -o ", (t.arg, 1))
            elif c is Mu:
                write(f"mu {t.var} . ")
                push((t.body, 0))
            elif c is Lam:
                write(f"\\{t.var} -> ")
                push((t.body, 0))
            elif c is LetRec:
                write(f"letrec {t.var} = ")
                todo += ((t.body, 0), " in ", (t.bound, 0))
            else:
                parts: list = [(t.scrutinee, 1), " of "]
                last = len(t.branches) - 1
                for i, (p, b) in enumerate(t.branches):
                    if i:
                        parts.append("; ")
                    parts += ((p, 0), " -> ")
                    # a case (or a term ending in one) would swallow later branches
                    if i < last and _ends_open(b):
                        parts += ("(", (b, 0), ")")
                    else:
                        parts.append((b, 0))
                write("case ")
                todo.extend(reversed(parts))
        else:
            raise AssertionError(f"unhandled node: {t}")
    return "".join(out)


def _ends_open(t: Term) -> bool:
    while isinstance(t, (Lam, LetRec)):
        t = t.body
    return isinstance(t, Case)
