"""Golden token streams of the example programs and of seeded mutations.

The inputs are every file under ``programs/`` and ``MUTATIONS`` character
level mutations of them. Each mutation applies one to four edits to one
program: insert a chunk of ``ALPHABET``, replace a character by one,
delete a short span, or cut the text off. The alphabet holds the lexer's
tricky cases: comments, the pragma, arrows, ``..``, carriage returns,
tabs, primes, and non-ASCII letters, decimal digits and other numerals.

An entry is a ``==`` header naming the input (and, for a mutation, a
``<<`` line with its text), then one line per token, ``line:col KIND``
followed by the token's text when it is not the kind itself, or a single
``!! line:col message`` line for the ``ParseError`` that ``tokenize``
raises.

Rewrite the golden file from the repo root with

    PYTHONPATH=src python tests/golden/gen_tokens.py

``tests/test_parser.py`` regenerates the entries in-process and compares
them with the file.
"""

from __future__ import annotations

import random
from pathlib import Path

from grlin.parser import ParseError, tokenize

GOLDEN = Path(__file__).with_name("tokens.txt")
ROOT = Path(__file__).resolve().parents[2]
MUTATIONS = 3000
ALPHABET = (
    "--", "-- c\n", "#semiring", "#semiring ", "-o", "->", "-", "..", ".",
    "\r", "\r\n", "\t", "\n", " ", "'", "_", "x", "Y", "é", "λ", "Ω", "ß",
    "0", "7", "٣", "²", "½", "Ⅻ", "(", ")", "[", "]", ",", ";", ":", "=",
    "@", "\\", "*", "+", "#", "$", "\u00a0",
)


def programs() -> list[tuple[str, str]]:
    """(path relative to the repo root, text) of every program, sorted."""
    return [(p.relative_to(ROOT).as_posix(), p.read_text(encoding="utf-8"))
            for p in sorted((ROOT / "programs").rglob("*.grm"))]


def mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(8)
        if op < 3:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif op < 5:
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1:]
        elif op < 7:
            text = text[:i] + text[i + rng.randint(1, 3):]
        else:
            text = text[:i]
    return text


def inputs() -> list[tuple[str, str]]:
    """(header, text) of every golden input: the programs, then the
    mutations."""
    progs = programs()
    out = [(f"== {name}", text) for name, text in progs]
    for i in range(MUTATIONS):
        name, text = progs[i % len(progs)]
        text = mutate(text, random.Random(f"tokens:{i}"))
        out.append((f"== {i} {name}\n<< {text!r}", text))
    return out


def entry(header: str, text: str) -> str:
    lines = [header]
    try:
        toks = tokenize(text, "f")
    except ParseError as e:
        lines.append(f"!! {e.pos.line}:{e.pos.col} {e.message}")
    else:
        for kind, text, line, col, _ in toks:
            shown = "" if kind in (text, "EOF") else f" {text!r}"
            lines.append(f"{line}:{col} {kind}{shown}")
    return "\n".join(lines) + "\n"


def entries() -> list[str]:
    return [entry(header, text) for header, text in inputs()]


if __name__ == "__main__":
    GOLDEN.write_text("".join(entries()), encoding="utf-8")
