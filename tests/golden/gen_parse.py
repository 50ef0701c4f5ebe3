"""Golden parse results of the example programs and of seeded mutations.

The inputs are those of ``gen_tokens.py``: every file under ``programs/``
and its seeded character-level mutations. Each is parsed with
``parse_program``.

An entry is the input's ``==`` header (and ``<<`` line) from
``gen_tokens.py``, then either a single ``!! line:col message`` line for
the ``ParseError`` that ``parse_program`` raises, or the program: a
``semiring`` line, then for each declaration a ``decl name line:col``
line, a ``:`` line with its signature and a ``=`` line with its body.

Signatures and bodies are written as s-expressions that name every node.
Each term and pattern node carries its position as ``@line:col``, written
out here because positions are left out of ``repr``. Types carry no
positions.

Rewrite the golden file from the repo root with

    PYTHONPATH=src python tests/golden/gen_parse.py

``tests/test_parser.py`` regenerates the entries in-process and compares
them with the file.
"""

from __future__ import annotations

import sys
from pathlib import Path

from grlin.grades import show_grade
from grlin.parser import ParseError, parse_program
from grlin.syntax import (
    App, Base, Box, Case, Con, Derive, Fun, IntLit, Lam, LetRec, Mu, PBox, PCon,
    PInt, Promote, PVar, PWild, RecVar, Sum, Tensor, TyVar, Unit, Var,
)

GOLDEN = Path(__file__).with_name("parse.txt")
ROOT = Path(__file__).resolve().parents[2]


def show_type(t) -> str:
    if isinstance(t, Unit):
        return "Unit"
    if isinstance(t, (Base, TyVar, RecVar)):
        return f"({type(t).__name__} {t.name})"
    if isinstance(t, Box):
        return f"(Box [{show_grade(t.grade)}] {show_type(t.body)})"
    if isinstance(t, Mu):
        return f"(Mu {t.var} {show_type(t.body)})"
    if isinstance(t, Fun):
        return f"(Fun {show_type(t.arg)} {show_type(t.res)})"
    if isinstance(t, (Tensor, Sum)):
        return f"({type(t).__name__} {show_type(t.left)} {show_type(t.right)})"
    raise AssertionError(f"unhandled type: {t!r}")


def _at(node) -> str:
    return f"{type(node).__name__}@{node.pos.line}:{node.pos.col}"


def show_pattern(p) -> str:
    if isinstance(p, PVar):
        return f"({_at(p)} {p.name})"
    if isinstance(p, PWild):
        return f"({_at(p)})"
    if isinstance(p, PInt):
        return f"({_at(p)} {p.value})"
    if isinstance(p, PBox):
        return f"({_at(p)} {show_pattern(p.pat)})"
    if isinstance(p, PCon):
        return f"({_at(p)} {p.con}{''.join(' ' + show_pattern(a) for a in p.args)})"
    raise AssertionError(f"unhandled pattern: {p!r}")


def show_term(t) -> str:
    if isinstance(t, Var):
        return f"({_at(t)} {t.name})"
    if isinstance(t, IntLit):
        return f"({_at(t)} {t.value})"
    if isinstance(t, Promote):
        return f"({_at(t)} {show_term(t.body)})"
    if isinstance(t, Derive):
        return f"({_at(t)} {t.kind} {show_type(t.at)})"
    if isinstance(t, Con):
        return f"({_at(t)} {t.con}{''.join(' ' + show_term(a) for a in t.args)})"
    if isinstance(t, App):
        return f"({_at(t)} {show_term(t.fn)} {show_term(t.arg)})"
    if isinstance(t, Lam):
        return f"({_at(t)} {t.var} {show_term(t.body)})"
    if isinstance(t, LetRec):
        return f"({_at(t)} {t.var} {show_term(t.bound)} {show_term(t.body)})"
    if isinstance(t, Case):
        alts = "".join(f" ({show_pattern(p)} {show_term(b)})" for p, b in t.branches)
        return f"({_at(t)} {show_term(t.scrutinee)}{alts})"
    raise AssertionError(f"unhandled term: {t!r}")


def entry(header: str, text: str) -> str:
    lines = [header]
    try:
        prog = parse_program(text, "f")
    except ParseError as e:
        lines.append(f"!! {e.pos.line}:{e.pos.col} {e.message}")
    else:
        lines.append(f"semiring {prog.semiring}")
        for d in prog.decls:
            lines.append(f"decl {d.name} {d.pos.line}:{d.pos.col}")
            lines.append(f": {show_type(d.signature)}")
            lines.append(f"= {show_term(d.body)}")
    return "\n".join(lines) + "\n"


def entries() -> list[str]:
    from golden.gen_tokens import inputs
    return [entry(header, text) for header, text in inputs()]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "tests"))
    GOLDEN.write_text("".join(entries()), encoding="utf-8")
