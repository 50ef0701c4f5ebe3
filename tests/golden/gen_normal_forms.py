"""Golden evaluator outcomes over seeded terms and the example programs.

The inputs are ``TERMS`` terms drawn by ``conftest.rand_term`` at depth 4,
each normalized with ``Fuel(TERM_FUEL)``, and ``main`` of every program
under ``programs/`` that defines one, checked first as ``grlin run`` does
and then normalized at each of ``PROGRAM_FUELS``. A third of the terms are
closed, and the rest have one or two free variables, so reduction under
binders, neutral applications and blocked cases all occur.

An entry is a ``==`` header naming the input (for a term, a ``<<`` line
with its text), then one line per normalization: ``deep`` or ``shallow``,
the outcome (``nf``, ``fuel`` or ``stuck``) and ``Fuel.spent``, followed
for a normal form by a ``=>`` line with the printed term. Programs are
normalized deep only, as ``grlin run`` does.

Rewrite the golden file from the repo root with

    PYTHONPATH=src python tests/golden/gen_normal_forms.py

``tests/test_evaluator.py`` regenerates the entries in-process and compares
them with the file.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from grlin import deriving, typecheck
from grlin.evaluator import (
    DEFAULT_FUEL, Evaluator, Fuel, FuelExhausted, StuckTerm, inline_definitions,
)
from grlin.parser import parse_program, pretty_term

GOLDEN = Path(__file__).with_name("normal_forms.txt")
ROOT = Path(__file__).resolve().parents[2]
TERMS = 2000
TERM_FUEL = 80
PROGRAM_FUELS = (1, 2, 4, 8, 16, DEFAULT_FUEL)


def outcome(label: str, term, fuel: int, deep: bool) -> list[str]:
    meter = Fuel(fuel)
    try:
        nf = Evaluator(meter).normalize(term, deep=deep)
    except FuelExhausted:
        return [f"{label} fuel {meter.spent}"]
    except StuckTerm:
        return [f"{label} stuck {meter.spent}"]
    return [f"{label} nf {meter.spent}", f"=> {pretty_term(nf)}"]


def term_entry(i: int) -> str:
    from conftest import rand_term
    rng = random.Random(f"normal-forms:{i}")
    term = rand_term(4, rng, [[], ["u"], ["u", "w"]][i % 3])
    lines = [f"== term {i}", f"<< {pretty_term(term)}"]
    lines += outcome("deep", term, TERM_FUEL, True)
    lines += outcome("shallow", term, TERM_FUEL, False)
    return "\n".join(lines) + "\n"


def program_entries() -> list[str]:
    out = []
    for path in sorted((ROOT / "programs").rglob("*.grm")):
        name = path.relative_to(ROOT).as_posix()
        try:
            prog = parse_program(path.read_text(encoding="utf-8"), file=name)
        except Exception:
            continue
        if all(d.name != "main" for d in prog.decls):
            continue
        typecheck.check_program(prog)  # fills the derivation memo, as ``run`` does
        term = inline_definitions(prog, "main")
        for fuel in PROGRAM_FUELS:
            lines = [f"== program {name} fuel {fuel}"]
            lines += outcome("deep", term, fuel, True)
            out.append("\n".join(lines) + "\n")
    return out


def entries() -> list[str]:
    # derive nodes in the terms read the derivation memo; start it empty
    deriving.clear_memo()
    return [term_entry(i) for i in range(TERMS)] + program_entries()


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "tests"))
    GOLDEN.write_text("".join(entries()), encoding="utf-8")
