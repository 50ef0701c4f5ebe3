"""Golden checker diagnostics of the example programs and of seeded mutations.

The inputs are those of ``gen_tokens.py``: every file under ``programs/``
and its seeded character-level mutations. Every program is recorded, and
every mutation that ``parse_program`` accepts. The derivation memo is
cleared before each input is checked.

An entry is the input's ``==`` header (and ``<<`` line) from
``gen_tokens.py``, then either a single ``!! line:col message`` line for
the ``ParseError`` of a program that does not parse, one line per
diagnostic that ``check_program`` returns, rendered as
``file:line:col: CODE: message``, or a single ``ok`` line when it returns
none.

Rewrite the golden file from the repo root with

    PYTHONPATH=src python tests/golden/gen_check.py

``tests/test_typecheck.py`` regenerates the entries in-process and compares
them with the file.
"""

from __future__ import annotations

import sys
from pathlib import Path

from grlin.deriving import clear_memo
from grlin.parser import ParseError, parse_program
from grlin.typecheck import check_program

GOLDEN = Path(__file__).with_name("check.txt")
ROOT = Path(__file__).resolve().parents[2]


def entry(header: str, text: str) -> str | None:
    """The entry of one input, or None for a mutation that does not parse."""
    lines = [header]
    try:
        prog = parse_program(text, "f")
    except ParseError as e:
        if not header.startswith("== programs/"):
            return None
        lines.append(f"!! {e.pos.line}:{e.pos.col} {e.message}")
    else:
        clear_memo()
        lines += [d.render() for d in check_program(prog)] or ["ok"]
    return "\n".join(lines) + "\n"


def entries() -> list[str]:
    from golden.gen_tokens import inputs
    return [e for e in (entry(header, text) for header, text in inputs())
            if e is not None]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "tests"))
    GOLDEN.write_text("".join(entries()), encoding="utf-8")
