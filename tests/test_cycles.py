"""Guard: checking, running, deriving and law cases leave no reference cycle
of functions, cells or frames. Such a cycle (a self-recursive closure, or a
caught exception kept in a local) can only be freed by the cyclic garbage
collector, and one per call made it run hundreds of times a law pass.
The evaluator's ``Rec`` loops are data and are allowed."""

import gc
from collections import Counter
from pathlib import Path

import pytest

from conftest import ROOT
from grlin import deriving as D
from grlin import grades as G
from grlin import lawcheck as L
from grlin import typecheck as T
from grlin.evaluator import run_main
from grlin.parser import ParseError, parse_program, parse_type

PROGRAMS = sorted((ROOT / "programs").glob("*.grm"))
NEGATIVE = sorted((ROOT / "programs" / "negative").glob("*.grm"))


def _load(path: Path):
    return parse_program(path.read_text(encoding="utf-8"), file=str(path))


def check_programs():
    for path in PROGRAMS + NEGATIVE:
        try:
            prog = _load(path)
        except ParseError:
            continue
        T.check_program(prog)


def run_programs():
    for path in PROGRAMS:
        prog = _load(path)
        if any(d.name == "main" for d in prog.decls):
            run_main(prog)


def derive_subjects():
    D.clear_memo()
    two = G.grade_nat(2, G.NAT_LE)
    for src in ("mu X . Unit + (a * X)", "a * (b + Unit)",
                "mu X . Unit + ((mu X . Unit + X) * X)"):
        t = parse_type(src)
        D.derive_push(t, two)
        D.derive_pull(t, {a: two for a in ("a", "b") if a in src}, G.NAT_LE,
                      default_grade=two)
        D.derive_copyshape(t, G.NAT_LE)
    D.derive_drop(parse_type("mu X . Unit + (Int * X)"))
    fm = L._derive_fmap(parse_type("a * a"), "a", G.NAT_EXACT)
    assert fm.grades == (("var", "a"), ("g", G.grade_nat(2)))
    # the re-check fails, and the refusal is raised from its CheckError
    try:
        D.derive_fmap(parse_type("a * a"), "a", G.grade_nat(1))
    except D.DeriveError as e:
        assert e.code == D.SIDE_CONDITION
    else:
        raise AssertionError("fmap at a * a with grade 1 was derived")


def law_cases():
    D.clear_memo()
    for suite in L.SUITES:
        report = L.run_suite(suite, seed=L.DEFAULT_SEED, only_case=3)
        assert not report.failures


def cyclic_garbage(work) -> Counter:
    """The type names of the objects that only the cyclic collector frees
    after ``work`` runs."""
    gc.collect()
    gc.garbage.clear()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


@pytest.mark.parametrize("work", [check_programs, run_programs, derive_subjects, law_cases])
def test_no_reference_cycles_of_functions_cells_or_frames(work):
    work()  # first-time imports and caches are not what this guards
    garbage = cyclic_garbage(work)
    assert not {k: garbage[k] for k in ("function", "cell", "frame") if garbage[k]}
