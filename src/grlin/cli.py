"""Batch command-line front end: check, run, derive, laws.

Diagnostics go to stderr as ``file:line:col: CODE: message``; values and
reports go to stdout. Exit codes: 0 success, 1 diagnostics or failures,
2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import deriving, evaluator, grades, lawcheck, parser, typecheck
from .syntax import free_tyvars
from .deriving import DeriveError
from .evaluator import Fuel, FuelExhausted, NoMain, StuckTerm
from .parser import ParseError


def _fuel(args) -> int:
    """The fuel for ``run``: ``--fuel``, else ``GRLIN_FUEL`` if set, else the
    evaluator's default. A bad or negative value is a usage error (exit 2)."""
    source, fuel = "--fuel", args.fuel
    if fuel is None:
        env = os.environ.get("GRLIN_FUEL")
        if not env:
            return evaluator.DEFAULT_FUEL
        source = "GRLIN_FUEL"
        try:
            fuel = int(env)
        except ValueError:
            print(f"grlin: bad GRLIN_FUEL value {env!r}", file=sys.stderr)
            raise SystemExit(2)
    if fuel < 0:
        print(f"grlin: {source} must not be negative (got {fuel})", file=sys.stderr)
        raise SystemExit(2)
    return fuel


def _load_program(path: str):
    """Parse the program in ``path``. A file that cannot be read, or is not
    UTF-8, is a usage error (exit 2)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        reason = e.strerror
    except UnicodeDecodeError as e:
        reason = f"not valid UTF-8 ({e.reason} at byte {e.start})"
    else:
        return parser.parse_program(text, file=path)
    print(f"grlin: cannot read {path}: {reason}", file=sys.stderr)
    raise SystemExit(2)


def cmd_check(args) -> int:
    diags = typecheck.check_program(_load_program(args.file))
    for d in diags:
        print(d.render(), file=sys.stderr)
    return 1 if diags else 0


def cmd_run(args) -> int:
    fuel = _fuel(args)
    prog = _load_program(args.file)
    diags = typecheck.check_program(prog)
    if diags:
        for d in diags:
            print(d.render(), file=sys.stderr)
        return 1
    try:
        print(evaluator.run_main(prog, Fuel(fuel)))
    except (FuelExhausted, NoMain, StuckTerm) as e:
        print(f"grlin: {e}", file=sys.stderr)
        return 1
    return 0


def _parse_grade_arg(text: str, sr: str) -> grades.Grade:
    try:
        return grades.parse_grade(text, sr)
    except grades.GradeError as e:
        print(f"grlin: bad grade {text!r}: {e}", file=sys.stderr)
        raise SystemExit(2)


def cmd_derive(args) -> int:
    sr = args.semiring
    kind = {"copyshape": "copyShape"}.get(args.kind, args.kind)
    subject = parser.parse_type(args.type, sr)
    try:
        if kind == "push":
            if args.grade is None:
                print("grlin: push needs --grade", file=sys.stderr)
                return 2
            comb = deriving.derive_push(subject, _parse_grade_arg(args.grade, sr))
        elif kind == "pull":
            rs, default = _pull_grades(args, subject, sr)
            comb = deriving.derive_pull(subject, rs, sr, default_grade=default)
        elif kind == "drop":
            comb = deriving.derive_drop(subject, sr)
        elif kind == "copyShape":
            comb = deriving.derive_copyshape(subject, sr)
        else:  # fmap
            tyvars = sorted(free_tyvars(subject))
            if len(tyvars) != 1:
                print(f"grlin: fmap needs a subject with exactly one type variable "
                      f"(found {tyvars or 'none'})", file=sys.stderr)
                return 2
            if args.grade is None:  # the least covering grade, else the refusal
                pool = sorted(lawcheck.FMAP_GRADES[sr], key=lambda g: g.value)
                g = deriving.fmap_grade(subject, tyvars[0], pool) or pool[-1]
            else:
                g = _parse_grade_arg(args.grade, sr)
            comb = deriving.derive_fmap(subject, tyvars[0], g, sr)
    except DeriveError as e:
        print(f"grlin: {e.code}: {e.message}", file=sys.stderr)
        return 1
    print(parser.pretty_term(comb.term))
    print(f"  : {parser.pretty_type(comb.type)}")
    if args.explain:
        print(f"-- key: {comb.key_str()}")
        for line in comb.trace:
            print(f"-- {line}")
    return 0


def _pull_grades(args, subject, sr):
    occurring = free_tyvars(subject)
    if args.grades:
        rs = {}
        for part in args.grades.split(","):
            if "=" not in part:
                print(f"grlin: bad --grades entry {part!r} (want var=grade)",
                      file=sys.stderr)
                raise SystemExit(2)
            name, text = (x.strip() for x in part.split("=", 1))
            if name in rs:
                print(f"grlin: --grades names {name!r} twice", file=sys.stderr)
                raise SystemExit(2)
            rs[name] = _parse_grade_arg(text, sr)
        return rs, (_parse_grade_arg(args.grade, sr) if args.grade else None)
    if args.grade is not None:
        g = _parse_grade_arg(args.grade, sr)
        return {a: g for a in occurring}, g
    print("grlin: pull needs --grade or --grades", file=sys.stderr)
    raise SystemExit(2)


def cmd_laws(args) -> int:
    for flag, n in (("--cases", args.cases), ("--case", args.case)):
        if n is not None and n < 0:
            print(f"grlin: {flag} must not be negative (got {n})", file=sys.stderr)
            return 2
    if args.max_depth is not None and not 0 <= args.max_depth <= lawcheck.MAX_DEPTH:
        print(f"grlin: --max-depth must be between 0 and {lawcheck.MAX_DEPTH} "
              f"(got {args.max_depth})", file=sys.stderr)
        return 2
    names = lawcheck.SUITES if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        reports.append(lawcheck.run_suite(
            name, cases=args.cases, seed=args.seed, max_depth=args.max_depth,
            only_case=args.case))
    print(lawcheck.format_reports(reports))
    failed = sum(len(r.failures) for r in reports)
    return 1 if failed else 0


@functools.cache
def _argument_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on first use: building it costs
    more than checking a small program."""
    ap = argparse.ArgumentParser(
        prog="grlin",
        description="Graded linear calculus: check, run, derive, laws.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="type-check a program")
    p_check.add_argument("file")
    p_check.set_defaults(fn=cmd_check)

    p_run = sub.add_parser("run", help="check and evaluate main")
    p_run.add_argument("file")
    p_run.add_argument("--fuel", type=int, default=None,
                       help="evaluation step limit (default: $GRLIN_FUEL, "
                            f"else {evaluator.DEFAULT_FUEL})")
    p_run.set_defaults(fn=cmd_run)

    p_der = sub.add_parser("derive", help="derive a combinator at a type")
    p_der.add_argument("kind",
                       choices=["push", "pull", "drop", "copyshape", "fmap"])
    p_der.add_argument("type")
    p_der.add_argument("--semiring", default=grades.NAT_EXACT,
                       choices=list(grades.SEMIRINGS))
    p_der.add_argument("--grade")
    p_der.add_argument("--grades", help="per-variable grades for pull: a=G,b=H")
    p_der.add_argument("--explain", action="store_true")
    p_der.set_defaults(fn=cmd_derive)

    p_laws = sub.add_parser("laws", help="run the property suites")
    p_laws.add_argument("--suite", default="all",
                        choices=["all"] + list(lawcheck.SUITES))
    p_laws.add_argument("--seed", type=int, default=lawcheck.DEFAULT_SEED)
    p_laws.add_argument("--cases", type=int, default=None)
    p_laws.add_argument("--max-depth", type=int, default=None,
                        help="depth of the generated types, 0 to "
                             f"{lawcheck.MAX_DEPTH} (default {lawcheck.DEFAULT_DEPTH})")
    p_laws.add_argument("--case", type=int, default=None,
                        help="re-run a single case by index")
    p_laws.set_defaults(fn=cmd_laws)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = _argument_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except ParseError as e:
        print(f"{e.pos}: {typecheck.SYNTAX}: {e.message}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader is gone: point stdout at the null device, so that the
        # flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0


if __name__ == "__main__":
    sys.exit(main())
