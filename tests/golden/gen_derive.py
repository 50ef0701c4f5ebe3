"""Golden ``grlin derive --explain`` outputs over a seeded corpus of subjects.

Each instance draws a subject with ``lawcheck.gen_type`` at depth 3, with
recursive types allowed and ``Int`` and function types each allowed in half
of the draws, and grades from the law
suites' pools, rotating the four semirings. Its entry is what ``grlin derive
--explain`` prints (term, type, key and trace), followed by the side
conditions and the type annotations of the elaborated term, or the
``CODE: message`` of the refusal. After the drawn instances come the
written ones of ``REFUSALS``, which break each precondition of each kind,
some of them two or three at once.

Rewrite the golden file from the repo root with

    PYTHONPATH=src python tests/golden/gen_derive.py

``tests/test_deriving.py`` regenerates the entries in-process and compares
them with the file.
"""

from __future__ import annotations

import random
from pathlib import Path

from grlin import deriving, grades, lawcheck
from grlin.deriving import DeriveError
from grlin.frozen import fields
from grlin.grades import INTERVAL, NAT_EXACT, NAT_LE, ZERO_ONE_MANY
from grlin.parser import parse_type, pretty_term, pretty_type
from grlin.syntax import Term, free_tyvars

GOLDEN = Path(__file__).with_name("derive.txt")
KINDS = ("push", "pull", "drop", "copyShape", "fmap")
PER_KIND = 300

# (kind, semiring, subject, arguments after the subject), where a grade is
# (text, its semiring). Grades from another semiring break MIXED_SEMIRING.
REFUSALS = (
    ("push", NAT_EXACT, "a [2]", (("1", NAT_EXACT),)),
    ("push", NAT_EXACT, "(a [2]) + a", (("0", NAT_EXACT),)),
    ("push", NAT_EXACT, "(Int [1]) -o Int", (("0", NAT_EXACT),)),
    ("push", NAT_EXACT, "Int * a", (("0", NAT_EXACT),)),
    ("push", NAT_EXACT, "a -o (a + Unit)", (("0", NAT_EXACT),)),
    ("push", NAT_LE, "(Int -o a) * a", (("1", NAT_LE),)),
    ("push", NAT_LE, "(a -o a) -o a", (("1", NAT_LE),)),
    ("push", INTERVAL, "mu X . (X -o a) + Unit", (("1..1", INTERVAL),)),
    ("push", ZERO_ONE_MANY, "mu X . X", (("w", ZERO_ONE_MANY),)),
    ("pull", NAT_EXACT, "a [2]", ({"a": ("1", NAT_EXACT)}, NAT_EXACT, None)),
    ("pull", NAT_EXACT, "(Int -o a) * (a [2])",
     ({"a": ("1", NAT_EXACT)}, NAT_EXACT, ("1", NAT_EXACT))),
    ("pull", INTERVAL, "(a -o a) [0..1]", ({"a": ("1..1", INTERVAL)}, INTERVAL, None)),
    ("pull", NAT_EXACT, "Int * (a -o a)", ({"a": ("1", NAT_EXACT)}, NAT_EXACT, None)),
    ("pull", NAT_EXACT, "Int + a", ({"a": ("1", NAT_EXACT)}, NAT_EXACT, None)),
    ("pull", NAT_EXACT, "Res", ({}, NAT_EXACT, ("1", NAT_EXACT))),
    ("pull", ZERO_ONE_MANY, "Int * b", ({"a": ("w", ZERO_ONE_MANY)}, ZERO_ONE_MANY, None)),
    ("pull", NAT_LE, "a * b", ({"a": ("1", NAT_EXACT)}, NAT_LE, None)),
    ("pull", NAT_LE, "a * b", ({"a": ("1", NAT_LE), "b": ("0..1", INTERVAL)}, NAT_LE, None)),
    ("pull", NAT_LE, "a", ({"a": ("0..1", INTERVAL)}, NAT_LE, ("1..1", INTERVAL))),
    ("pull", NAT_LE, "Unit + Unit", ({}, NAT_LE, ("1..1", INTERVAL))),
    ("pull", NAT_EXACT, "Unit + Unit", ({}, NAT_EXACT, None)),
    ("pull", NAT_EXACT, "a * b", ({"a": ("1", NAT_EXACT), "b": ("2", NAT_EXACT)},
                                  NAT_EXACT, None)),
    ("drop", NAT_EXACT, "a", (NAT_EXACT,)),
    ("drop", NAT_EXACT, "Res * (a [2])", (NAT_EXACT,)),
    ("drop", NAT_EXACT, "(Int -o Int) * Res", (NAT_EXACT,)),
    ("drop", NAT_LE, "Res", (NAT_LE,)),
    ("drop", NAT_EXACT, "mu X . Unit + (Res * X)", (NAT_EXACT,)),
    ("drop", INTERVAL, "Int -o Int", (INTERVAL,)),
    ("drop", ZERO_ONE_MANY, "(Int [w]) * (Unit -o Unit)", (ZERO_ONE_MANY,)),
    ("drop", NAT_EXACT, "Int [2]", (NAT_EXACT,)),
    ("drop", NAT_EXACT, "mu X . X", (NAT_EXACT,)),
    ("copyShape", NAT_LE, "(a [2]) * (a -o a)", (NAT_LE,)),
    ("copyShape", NAT_EXACT, "a [2]", (NAT_EXACT,)),
    ("copyShape", INTERVAL, "Int -o Int", (INTERVAL,)),
    ("copyShape", NAT_EXACT, "mu X . X", (NAT_EXACT,)),
    ("fmap", NAT_LE, "(a [2]) * (a -o a)", ("a", ("0..1", INTERVAL), NAT_LE)),
    ("fmap", NAT_LE, "a -o a", ("a", ("0..1", INTERVAL), NAT_LE)),
    ("fmap", NAT_LE, "a * a", ("a", ("0..1", INTERVAL), NAT_LE)),
    ("fmap", NAT_EXACT, "a * a", ("a", ("1", NAT_EXACT), NAT_EXACT)),
    ("fmap", NAT_EXACT, "mu X . X", ("a", ("1", NAT_EXACT), NAT_EXACT)),
)


def _grades_in(arg):
    """The argument with each (text, semiring) grade in it parsed."""
    if isinstance(arg, dict):
        return {k: _grades_in(v) for k, v in arg.items()}
    if isinstance(arg, tuple):
        return grades.parse_grade(*arg)
    return arg


def instances():
    """(kind, subject, semiring, args) of every golden instance; ``args`` are
    the arguments of ``deriving.derive_<kind>`` after the subject."""
    for i in range(PER_KIND * len(KINDS)):
        kind = KINDS[i % len(KINDS)]
        sr = lawcheck.SEMIRING_ROTATION[i % len(lawcheck.SEMIRING_ROTATION)]
        rng = random.Random(f"golden:{i}")
        cfg = lawcheck.TypeGenConfig(max_depth=3, allow_fun=rng.random() < 0.5,
                                     allow_mu=True, allow_base=rng.random() < 0.5,
                                     tyvars=("a", "b")[: rng.randrange(3)])
        t = lawcheck.gen_type(cfg, rng)
        pool = lawcheck.GRADE_POOLS[sr]
        if kind == "push":
            args = (rng.choice(pool),)
        elif kind == "pull":
            rs = {a: rng.choice(pool) for a in sorted(free_tyvars(t))}
            args = (rs, sr, rng.choice(pool + [None]))
        elif kind == "fmap":
            args = ("a", rng.choice(pool), sr)
        else:
            args = (sr,)
        yield kind, t, sr, args
    for kind, sr, subject, args in REFUSALS:
        yield kind, parse_type(subject, sr), sr, tuple(map(_grades_in, args))


def derive(kind: str, subject, args) -> deriving.DerivedCombinator:
    fn = {"push": deriving.derive_push, "pull": deriving.derive_pull,
          "drop": deriving.derive_drop, "copyShape": deriving.derive_copyshape,
          "fmap": deriving.derive_fmap}[kind]
    return fn(subject, *args)


def _show_args(args) -> str:
    def one(a):
        if isinstance(a, dict):
            return ",".join(f"{k}={v}" for k, v in a.items()) or "-"
        return str(a)
    return " ".join(one(a) for a in args)


def _annotations(t: Term) -> list[str]:
    """The scrutinee and letrec annotations of a term, in pre-order. Only
    the fields a node is built from are walked, so no cache is."""
    out: list[str] = []

    def go(x) -> None:
        if isinstance(x, tuple):
            for y in x:
                go(y)
        elif isinstance(x, Term):
            annot = getattr(x, "scrut_annot", None) or getattr(x, "annot", None)
            if annot is not None:
                out.append(pretty_type(annot))
            for f in fields(x):
                if f.init:
                    go(getattr(x, f.name))
    go(t)
    return out


def entry(index: int, kind: str, subject, sr: str, args) -> str:
    lines = [f"== {index} {kind} {sr} {pretty_type(subject)} :: {_show_args(args)}"]
    try:
        comb = derive(kind, subject, args)
    except DeriveError as e:
        lines.append(f"!! {e.code}: {e.message}")
    except RuntimeError as e:  # an internal error: the derived term fails to check
        lines.append(f"!! {e}")
    else:
        lines.append(pretty_term(comb.term))
        lines.append(f"  : {pretty_type(comb.type)}")
        lines.append(f"-- key: {comb.key_str()}")
        lines += [f"-- {line}" for line in comb.trace]
        lines += [f"-- side: {c}" for c in comb.side_conditions]
        lines += [f"-- annot: {a}" for a in _annotations(comb.term)]
    return "\n".join(lines) + "\n"


def entries() -> list[str]:
    return [entry(i, kind, t, sr, args)
            for i, (kind, t, sr, args) in enumerate(instances())]


if __name__ == "__main__":
    GOLDEN.write_text("".join(entries()))
