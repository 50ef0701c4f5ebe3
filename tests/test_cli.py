"""The grlin command line: exit codes, output streams, determinism."""

import json
import os
import random
import re
import subprocess
import sys

import pytest

from conftest import ROOT
from grlin import grades as G
from grlin import lawcheck as L
from grlin.cli import main
from grlin.deriving import derive_pull, derive_push
from grlin.evaluator import deep_normalize
from grlin.parser import parse_type, pretty_term, pretty_type
from grlin.syntax import (
    RES, UNIT, App, Box, Mu, RecVar, Sum, Tensor, TyVar, alpha_eq, free_tyvars,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, **env):
    """Run ``python -m grlin *argv`` in a child process, from the repo root,
    importing grlin from this checkout's ``src``. The child gets the caller's
    environment minus every ``GRLIN_*`` variable, plus ``env``."""
    return run_python("-m", "grlin", *argv, **env)


def run_python(*argv, **env):
    """Run ``python *argv`` in a child process as ``run_module`` does."""
    child_env = {k: v for k, v in os.environ.items()
                 if not k.startswith("GRLIN_")}
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    child_env.update(env)
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, cwd=ROOT,
                          env=child_env)


def test_check_accepts_motivating(capsys):
    code, out, err = run_cli(capsys, "check", "programs/motivating.grm")
    assert code == 0
    assert err == ""


def test_check_reports_diagnostics_on_stderr(capsys):
    code, out, err = run_cli(capsys, "check", "programs/negative/match_usage.grm")
    assert code == 1
    assert "MATCH_USAGE" in err
    assert out == ""
    # file:line:col: CODE: message
    head = err.splitlines()[0]
    parts = head.split(":")
    assert parts[0].endswith("match_usage.grm")
    assert parts[1].isdigit() and parts[2].isdigit()


def test_check_missing_file_is_usage_error(capsys):
    assert main(["check", "programs/nosuch.grm"]) == 2
    assert "grlin: cannot read programs/nosuch.grm" in capsys.readouterr().err


def test_non_utf8_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.grm"
    path.write_bytes(b"main : Int\nmain = \xff\n")
    for cmd in ("check", "run"):
        code, out, err = run_cli(capsys, cmd, str(path))
        assert (code, out) == (2, "")
        assert err == (f"grlin: cannot read {path}: not valid UTF-8 "
                       "(invalid start byte at byte 18)\n")


def test_consecutive_calls_share_no_state(capsys):
    """The argument parser is built once per process; a value given to one
    call must not carry over to the next."""
    code, out, err = run_cli(capsys, "run", "programs/copy.grm", "--fuel", "1")
    assert code == 1 and "fuel exhausted" in err
    assert run_cli(capsys, "run", "programs/copy.grm") == (0, "(5, 5)\n", "")


def test_bad_grade_arguments_are_usage_errors(capsys):
    assert main(["derive", "push", "Unit", "--grade", "zz"]) == 2
    assert "grlin: bad grade 'zz'" in capsys.readouterr().err
    assert main(["derive", "pull", "Unit", "--grades", "a"]) == 2
    assert "grlin: bad --grades entry 'a'" in capsys.readouterr().err
    assert run_cli(capsys, "derive", "pull", "a", "--grades", "a=1,a=2") \
        == (2, "", "grlin: --grades names 'a' twice\n")


def test_run_prints_value(capsys):
    code, out, err = run_cli(capsys, "run", "programs/copyshape.grm")
    assert code == 0
    assert out.strip() == "((unit, unit), (1, 2))"


def test_run_fuel_limit(capsys, tmp_path):
    path = tmp_path / "spin.grm"
    path.write_text("main : Unit\nmain = letrec f = \\x -> f x in f unit\n")
    code, out, err = run_cli(capsys, "run", str(path), "--fuel", "50")
    assert code == 1
    assert "fuel" in err


def test_derive_push_pull(capsys):
    code, out, err = run_cli(capsys, "derive", "push", "(a * a) -o b",
                             "--semiring", "nat-exact", "--grade", "2")
    assert code == 0
    assert ": (a * a -o b) [2] -o a [2] * a [2] -o b [2]" in out

    code, out, err = run_cli(capsys, "derive", "pull", "a * b",
                             "--semiring", "interval",
                             "--grades", "a=0..2,b=2..4")
    assert code == 0
    assert out.strip().endswith("-o (a * b) [2..2]")


def test_derive_drop_polymorphic_fails(capsys):
    code, out, err = run_cli(capsys, "derive", "drop", "a")
    assert code == 1
    assert "POLYMORPHIC_DROP" in err


def test_derive_push_at_function_result_fails_cleanly(capsys):
    code, out, err = run_cli(capsys, "derive", "push", "a -o (a + Unit)", "--grade", "0")
    assert code == 1
    assert out == ""
    assert "SIDE_CONDITION" in err


def test_derive_copyshape_and_fmap(capsys):
    code, out, err = run_cli(capsys, "derive", "copyshape", "Int * Int")
    assert code == 0
    assert ": Int * Int -o (Unit * Unit) * Int * Int" in out

    code, out, err = run_cli(capsys, "derive", "fmap", "a * a",
                             "--semiring", "nat-exact", "--grade", "2")
    assert code == 0
    assert "(a -o " in out


def test_derive_fmap_refusal_names_the_counted_use(capsys):
    """A grade too small for the mapped function is refused with the grade
    one call needs, not a variable of the derived term."""
    code, out, err = run_cli(capsys, "derive", "fmap", "a * a", "--grade", "1")
    assert (code, out) == (1, "")
    assert "at grade 2" in err and not re.search(r"\bf\d+", err), err


def test_derive_fmap_without_a_grade_takes_the_least_covering_one(capsys):
    """Without ``--grade``, fmap is derived at the least grade of the law
    harness's pool that covers the uses, and refused as ``--grade`` at the
    pool's greatest grade refuses when none does."""
    code, out, err = run_cli(capsys, "derive", "fmap", "a * a", "--semiring", "nat-le")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "  : (a -o b) [2] -o a * a -o b * b"

    subject = "(a * a) + a"
    refused = run_cli(capsys, "derive", "fmap", subject, "--semiring", "nat-exact")
    assert refused[0] == 1 and "SIDE_CONDITION" in refused[2]
    assert refused == run_cli(capsys, "derive", "fmap", subject,
                              "--semiring", "nat-exact", "--grade", "8")


def test_derive_explain_prints_trace(capsys):
    code, out, err = run_cli(capsys, "derive", "push", "a * a",
                             "--semiring", "nat-le", "--grade", "1", "--explain")
    assert code == 0
    assert "-- key: push@a * a@nat-le@r=1" in out
    assert any(line.startswith("-- push @") for line in out.splitlines())


def test_derive_output_reparses(capsys):
    from grlin.parser import parse_term
    code, out, err = run_cli(capsys, "derive", "push",
                             "mu X . Unit + (a * X)",
                             "--semiring", "nat-le", "--grade", "2")
    assert code == 0
    parse_term(out.splitlines()[0], "nat-le")


def test_laws_subcommand(capsys):
    code, out, err = run_cli(capsys, "laws", "--suite", "inverses",
                             "--cases", "10", "--seed", "7")
    assert code == 0
    assert "inverses" in out and "0" in out


def test_laws_invalid_suite_usage_error(capsys):
    assert main(["laws", "--suite", "bogus"]) == 2


@pytest.mark.parametrize("flag", ["--cases", "--case"])
def test_laws_negative_case_counts_are_usage_errors(capsys, flag):
    assert run_cli(capsys, "laws", flag, "-5") == (
        2, "", f"grlin: {flag} must not be negative (got -5)\n")


@pytest.mark.parametrize("depth", ["-1", "17"])
def test_laws_max_depth_out_of_range_is_a_usage_error(capsys, depth):
    assert run_cli(capsys, "laws", "--max-depth", depth) == (
        2, "", f"grlin: --max-depth must be between 0 and 16 (got {depth})\n")


def test_laws_draw_a_value_for_a_deeply_nested_product(capsys):
    """At depth 8 this case's type nests products more deeply than the value
    generator's default budget reaches."""
    code, out, err = run_cli(capsys, "laws", "--suite", "inverses", "--case", "13",
                             "--max-depth", "8")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split() == ["inverses", "1", "0"]


def test_laws_single_case_counts_one(capsys):
    code, out, err = run_cli(capsys, "laws", "--suite", "inverses", "--case", "999999")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split() == ["inverses", "1", "0"]


def test_cli_determinism(capsys):
    args = ["derive", "push", "(a * a) -o b", "--semiring", "nat-exact",
            "--grade", "2"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_grlin_imports_neither_dataclasses_nor_inspect():
    """Every module a benchmark set-up loads imports without ``dataclasses``
    and ``inspect``."""
    proc = run_python("-c", "import sys\n"
                      "from grlin import (cli, deriving, evaluator, grades, lawcheck, "
                      "parser, syntax, typecheck)\n"
                      "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_module_entrypoint():
    proc = run_module("run", "programs/copy.grm")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(5, 5)"


def test_env_fuel_override():
    proc = run_module("run", "programs/copy.grm", GRLIN_FUEL="1")
    assert proc.returncode == 1
    assert "fuel" in proc.stderr


def test_bad_env_fuel_is_run_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("GRLIN_FUEL", "abc")
    assert main(["run", "programs/copy.grm"]) == 2
    assert "grlin: bad GRLIN_FUEL value 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["--fuel", "GRLIN_FUEL"])
def test_negative_fuel_is_a_usage_error(monkeypatch, capsys, source):
    argv = ["run", "programs/copy.grm"]
    if source == "--fuel":
        argv += ["--fuel", "-3"]
    else:
        monkeypatch.setenv("GRLIN_FUEL", "-3")
    assert run_cli(capsys, *argv) == (
        2, "", f"grlin: {source} must not be negative (got -3)\n")


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_pipe_ends_quietly(unbuffered):
    """A reader that is gone before grlin writes: exit 1 with nothing on
    stderr, whether stdout is buffered or not."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "grlin", "run", "programs/copy.grm"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                 "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_bad_env_fuel_leaves_check_alone(monkeypatch, capsys):
    monkeypatch.setenv("GRLIN_FUEL", "abc")
    code, out, err = run_cli(capsys, "check", "programs/copy.grm")
    assert code == 0
    assert err == ""


def test_non_decimal_digits_are_not_integers(capsys, tmp_path):
    path = tmp_path / "sup.grm"
    path.write_text("main : Int\nmain = \u00b2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out, err) == (1, "", f"{path}:2:8: SYNTAX: unexpected character '\u00b2'\n")
    path.write_text("main : Int\nmain = case 1 of \u00b2 -> 1; _ -> 2\n", encoding="utf-8")
    assert run_cli(capsys, "run", str(path))[2] \
        == f"{path}:2:18: SYNTAX: unexpected character '\u00b2'\n"
    path.write_text("main : Int\nmain = \u0663\n", encoding="utf-8")  # ARABIC-INDIC DIGIT THREE
    assert run_cli(capsys, "run", str(path)) == (0, "3\n", "")


def test_overlong_integer_literals_are_syntax_errors(capsys, tmp_path):
    digits = "7" * 5000
    path = tmp_path / "long.grm"
    for body, col in ((digits, 8), (f"case 1 of {digits} -> 1; _ -> 2", 18)):
        path.write_text(f"main : Int\nmain = {body}\n")
        code, out, err = run_cli(capsys, "run", str(path))
        assert (code, out) == (1, "")
        assert err == f"{path}:2:{col}: SYNTAX: integer literal too long (5000 digits)\n"
    path.write_text(f"main : Int [{digits}]\nmain = [1]\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 1
    assert err.startswith(f"{path}:1:13: SYNTAX: number too long (5000 digits)")


def test_linear_arrow_at_end_of_input(capsys):
    for subject, col in (("a -o", 5), ("a -o ", 6)):
        code, out, err = run_cli(capsys, "derive", "push", subject, "--grade", "1")
        assert (code, out) == (1, "")
        assert err == f"<type>:1:{col}: SYNTAX: expected a type, found 'end of input'\n"


def test_unbound_recursion_variable_in_a_derive_subject(capsys, tmp_path):
    path = tmp_path / "ill.grm"
    path.write_text("f : Unit -o Unit\nf = push @X\n")
    assert run_cli(capsys, "check", str(path)) \
        == (1, "", f"{path}:2:5: SYNTAX: unbound recursion variable X\n")
    assert run_cli(capsys, "derive", "push", "Unit * X", "--grade", "1") \
        == (1, "", "<type>:1:1: SYNTAX: unbound recursion variable X\n")


def test_a_mu_that_binds_a_name_again_hides_the_outer_binder(capsys, tmp_path):
    """In ``mu X . Unit + (mu X . Unit + (X * X))`` both Xs are the inner
    binder, so the type differs from ``mu Y . Unit + (mu X . Unit + (Y *
    X))``, in either order."""
    outer = "mu Y . Unit + (mu X . Unit + (Y * X))"
    inner = "mu X . Unit + (mu X . Unit + (X * X))"
    path = tmp_path / "rebind.grm"
    for a, b in ((outer, inner), (inner, outer)):
        path.write_text(f"f : ({a}) -o ({b})\nf = \\x -> x\n")
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"{path}:2:11: TYPE_MISMATCH: "), err


def test_blanks_and_comments_separate_grade_tokens(capsys, tmp_path):
    """``1 2`` is two numbers, not grade 12, wherever the break comes from;
    blanks around an interval's ``..`` still read as one interval."""
    path = tmp_path / "grade.grm"
    for grade in ("1 2", "1 -- c\n2"):
        path.write_text(f"main : Int [{grade}]\nmain = [5]\n")
        assert run_cli(capsys, "check", str(path)) == (
            1, "", f"{path}:1:13: SYNTAX: expected a natural number, got '1 2'\n")
    for grade in ("0..2", "0 .. 2", "0..Inf"):
        path.write_text(f"#semiring interval\nmain : Int [{grade}]\nmain = [5]\n")
        assert run_cli(capsys, "check", str(path)) == (0, "", "")
    assert [pretty_type(parse_type(f"Int [{g}]", "interval"))
            for g in ("0..2", "0 .. 2", "0..Inf")] == ["Int [0..2]", "Int [0..2]", "Int [0..Inf]"]


def test_a_deep_signature_checks(capsys, tmp_path):
    """A signature of 3,000 arrows is scanned for its grades without
    recursion."""
    path = tmp_path / "deep.grm"
    arrows = " -o ".join(["Int"] * 3_001)
    path.write_text(f"g : {arrows}\ng = g\n\nmain : Int\nmain = 5\n")
    assert run_cli(capsys, "check", str(path)) == (0, "", "")


def test_pull_at_a_recursive_subject_checks(capsys, tmp_path):
    """Matching pull's argument against a recursive subject reaches the
    subject's recursion variable."""
    path = tmp_path / "pull.grm"
    path.write_text("p : (mu X . Unit + ((a [2]) * X)) -o ((mu X . Unit + (a * X)) [2])\n"
                    "p = pull @(mu X . Unit + (a * X))\n\nmain : Int\nmain = 5\n")
    assert run_cli(capsys, "check", str(path)) == (0, "", "")


NESTED_MU = "mu X . mu Y . Unit + (X * Y)"


@pytest.mark.parametrize("subject", [NESTED_MU, f"Unit + ({NESTED_MU})"])
@pytest.mark.parametrize("kind", ["push", "pull", "copyshape"])
def test_a_mu_directly_under_a_mu_derives(capsys, kind, subject):
    """push, pull and copyShape derive at such a subject, and their terms
    check at it: the inner mu's function concludes at the outer mu unrolled
    once, inside a box or a pair."""
    grade = () if kind == "copyshape" else ("--grade", "2")
    code, out, err = run_cli(capsys, "derive", kind, subject, "--semiring", "nat-le", *grade)
    assert (code, err) == (0, "")
    term, ty = out.splitlines()
    assert ty.startswith("  : ") and subject in ty


def test_a_push_at_a_mu_directly_under_a_mu_checks_and_runs(capsys, tmp_path):
    path = tmp_path / "push.grm"
    path.write_text(f"#semiring nat-le\nunbox : (({NESTED_MU}) [2]) -o ({NESTED_MU})\n"
                    f"unbox = push @({NESTED_MU})\n\n"
                    f"main : {NESTED_MU}\nmain = unbox [inr (inl unit, inr (inl unit, inl unit))]\n")
    assert run_cli(capsys, "check", str(path)) == (0, "", "")
    assert run_cli(capsys, "run", str(path)) \
        == (0, "inr (inl unit, inr (inl unit, inl unit))\n", "")


@pytest.mark.parametrize("subject", [
    NESTED_MU, f"Unit + ({NESTED_MU})", "mu X . mu Y . Unit + ((a * X) * Y)",
    "mu X . mu Y . mu Z . Unit + (a + (X * (Y * (b * Z))))",
    "a * (mu X . mu Y . (Unit + (X * Y)) + a)"])
def test_pull_and_push_are_inverse_at_a_mu_directly_under_a_mu(subject):
    """pull (push v) is v and push (pull w) is w on seeded values, in each
    semiring, at a grade that covers push's match under the box."""
    t, pairs = parse_type(subject), 0
    for sr in L.SEMIRING_ROTATION:
        rng = random.Random(f"{subject} {sr}")
        r = rng.choice([g for g in L.GRADE_POOLS[sr] if G.sr_leq(G.one(sr), g)])
        push = derive_push(t, r)
        pull = derive_pull(t, {a: r for a in free_tyvars(t)}, sr, default_grade=r)
        for _ in range(8):
            v = L.gen_value(Box(r, L.instantiate(t)), rng, 20)
            assert alpha_eq(deep_normalize(App(pull.term, App(push.term, v))), v), (sr, v)
            w = L.gen_value(L.instantiate(t, Box(r, parse_type("Int"))), rng, 20)
            assert alpha_eq(deep_normalize(App(push.term, App(pull.term, w))), w), (sr, w)
            pairs = max(pairs, pretty_term(v).count(","), pretty_term(w).count(","))
    assert pairs >= 3  # some value holds three pairs


def test_drop_and_fmap_derive_at_a_mu_directly_under_a_mu(capsys):
    assert run_cli(capsys, "derive", "drop", NESTED_MU)[::2] == (0, "")
    for sr in ("interval", "zero-one-many"):
        code, out, err = run_cli(capsys, "derive", "fmap",
                                 "mu X . mu Y . Unit + (a * (X * Y))", "--semiring", sr)
        assert (code, err) == (0, ""), sr


def test_a_value_against_an_unguarded_mu_is_a_mismatch(capsys, tmp_path):
    """``mu X . X`` unrolls to itself, so the checker must not keep
    unrolling it."""
    path = tmp_path / "unguarded.grm"
    for ty in ("mu X . X", "mu X . mu Y . X"):
        path.write_text(f"main : {ty}\nmain = 5\n")
        assert run_cli(capsys, "check", str(path)) \
            == (1, "", f"{path}:2:8: TYPE_MISMATCH: integer literal against type {ty}\n")


ROLLED = {
    "roll": (f"(Unit + (({NESTED_MU}) * (mu Y . Unit + (({NESTED_MU}) * Y)))) -o ({NESTED_MU})",
             f"{NESTED_MU}", "inr (inl unit, inl unit)"),
    "box": ("((mu X . Unit + X) [1]) -o ((Unit + (mu X . Unit + X)) [1])",
            "(Unit + (mu X . Unit + X)) [1]", "[inr (inl unit)]"),
    "pair": ("((mu X . Unit + X) * Int) -o ((Unit + (mu X . Unit + X)) * Int)",
             "(Unit + (mu X . Unit + X)) * Int", "(inr (inl unit), 5)"),
}


@pytest.mark.parametrize("name", ROLLED)
def test_an_identity_between_a_type_and_its_unrolling_checks_and_runs(capsys, tmp_path, name):
    """The types of the identity match up to unrolling a mu under a mu,
    under a box and in a pair."""
    fn_ty, main_ty, value = ROLLED[name]
    path = tmp_path / "roll.grm"
    path.write_text(f"f : {fn_ty}\nf = \\y -> y\n\nmain : {main_ty}\nmain = f ({value})\n")
    assert run_cli(capsys, "check", str(path)) == (0, "", "")
    assert run_cli(capsys, "run", str(path)) == (0, value + "\n", "")


# Deep inputs, checked and run under the default recursion limit.
DEEP = 10_240


DEEP_BODY = "(" * DEEP + "Unit" + " * Unit)" * DEEP
DEEP_MU = f"mu X . Unit + ({DEEP_BODY} * X)"


@pytest.mark.parametrize("program", [
    f"main : {DEEP_MU}\nmain = inl unit\n",
    f"f : ({DEEP_MU}) -o (Unit + ({DEEP_BODY} * ({DEEP_MU})))\nf = \\x -> x\n\n"
    f"main : Unit + ({DEEP_BODY} * ({DEEP_MU}))\nmain = f (inl unit)\n",
], ids=["value", "identity"])
def test_a_mu_with_a_deep_body_checks_and_runs(capsys, tmp_path, program):
    """Unrolling the mu reads the free variables of its deep body without
    recursion; the identity ``f`` matches the mu against its unrolling."""
    path = tmp_path / "deep_mu.grm"
    path.write_text(program)
    assert run_cli(capsys, "check", str(path)) == (0, "", "")
    assert run_cli(capsys, "run", str(path)) == (0, "inl unit\n", "")


SPINE_ARGS = " ".join(str(i) for i in range(DEEP))
SPINE_TYPE = "(" + "Int -o " * DEEP + "Int)"


def test_a_long_stuck_spine_runs(capsys, tmp_path):
    """Read-back walks the neutral spine once, not once per argument."""
    path = tmp_path / "spine.grm"
    path.write_text(f"main : {SPINE_TYPE} -o Int\nmain = \\f -> f {SPINE_ARGS}\n")
    assert run_cli(capsys, "run", str(path)) == (0, f"\\f -> f {SPINE_ARGS}\n", "")


def test_a_long_stuck_spine_under_a_renamed_binder_runs(capsys, tmp_path):
    """The inner ``f`` would capture the spine's ``f``: read-back collects
    the spine's free names without building its term, and renames."""
    path = tmp_path / "k.grm"
    path.write_text("k : Int -o ((Int [0]) -o Int)\nk = \\y -> \\f -> case f of [_] -> y\n\n"
                    f"main : {SPINE_TYPE} -o ((Int [0]) -o Int)\n"
                    f"main = \\f -> k (f {SPINE_ARGS})\n")
    assert run_cli(capsys, "run", str(path)) == (
        0, f"\\f -> \\f_1 -> case f_1 of [_] -> f {SPINE_ARGS}\n", "")


def deep_recvar(depth):
    return "mu X . Unit + (" + "(" * depth + "X" + " * Unit)" * depth + ")"


@pytest.mark.parametrize("ty", [
    deep_recvar(1_000),
    "".join(f"mu X{i} . " for i in range(1_000)) + "Unit + X0",
], ids=["deep", "leading"])
def test_unrolling_a_deep_recursion_variable_checks_and_runs(capsys, tmp_path, ty):
    """Substituting for the recursion variable rebuilds the path to it
    without recursion, through nested pairs or through other mus."""
    path = tmp_path / "mu.grm"
    path.write_text(f"main : {ty}\nmain = inl unit\n")
    assert run_cli(capsys, "check", str(path)) == (0, "", "")
    assert run_cli(capsys, "run", str(path)) == (0, "inl unit\n", "")


def test_a_recursion_variable_at_the_deepest_depth_checks(capsys, tmp_path):
    path = tmp_path / "mu.grm"
    path.write_text(f"main : {deep_recvar(DEEP)}\nmain = inl unit\n")
    assert run_cli(capsys, "check", str(path)) == (0, "", "")


def one_diagnostic(err: str, path, code: str) -> bool:
    return re.fullmatch(re.escape(str(path)) + rf":\d+:\d+: {code}: [^\n]*\n", err) is not None


def test_a_deep_list_literal_runs(capsys, tmp_path):
    """The checker spends no frame on a list element's unrolling, injection
    or pair."""
    text = "".join(f"inr ({x}, " for x in range(DEEP)) + "inl unit" + ")" * DEEP
    path = tmp_path / "list.grm"
    path.write_text(f"main : mu X . Unit + (Int * X)\nmain = {text}\n")
    assert run_cli(capsys, "run", str(path)) == (0, text + "\n", "")


def test_a_long_application_spine_checks(capsys, tmp_path):
    path = tmp_path / "spine.grm"
    arrows = " -o ".join(["Int"] * 2_001)
    path.write_text(f"f : {arrows}\nf = f\n\nmain : Int\nmain = f{' 0' * 2_000}\n")
    assert run_cli(capsys, "check", str(path)) == (0, "", "")


def nested_applications(n: int, leaf: str) -> str:
    """``f (f (… (f leaf)…))`` with ``n`` ``f``s."""
    return "f (" * (n - 1) + f"f {leaf}" + ")" * (n - 1)


def test_nested_arguments_check_and_run(capsys, tmp_path):
    """Each argument of an application is checked in the checker's loop,
    so arguments nested DEEP deep check, and a mismatch at the innermost
    one is reported."""
    path = tmp_path / "nested.grm"
    sig = f"main : ((Int -o Int) [{DEEP}]) -o Int\n"
    body = nested_applications(DEEP, "0")
    path.write_text(f"{sig}main = \\g -> case g of [f] -> {body}\n")
    assert run_cli(capsys, "check", str(path)) == (0, "", "")
    assert run_cli(capsys, "run", str(path)) == (0, f"\\g -> case g of [f] -> {body}\n", "")
    path.write_text(f"{sig}main = \\g -> case g of [f] -> {nested_applications(DEEP, 'unit')}\n")
    column = len("main = \\g -> case g of [f] -> ") + 3 * DEEP
    assert run_cli(capsys, "check", str(path)) == (
        1, "", f"{path}:2:{column}: TYPE_MISMATCH: unit against type Int\n")


def test_deep_lambdas_give_a_diagnostic(capsys, tmp_path):
    """2,000 nested lambdas whose body uses only the outermost binder: the
    innermost binder is the first to leave scope unused."""
    path = tmp_path / "lams.grm"
    arrows = " -o ".join(["Int"] * 2_001)
    lams = "".join(f"\\x{i} -> " for i in range(2_000))
    path.write_text(f"f : {arrows}\nf = {lams}x0\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert one_diagnostic(err, path, "LINEARITY"), err
    assert "'x1999'" in err


def test_a_mismatch_against_a_deep_signature_prints_it(capsys, tmp_path):
    path = tmp_path / "deep.grm"
    arrows = " -o ".join(["Int"] * 3_001)
    path.write_text(f"g : {arrows}\ng = 5\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert one_diagnostic(err, path, "TYPE_MISMATCH"), err[:200]
    assert err.endswith(f"integer literal against type {arrows}\n")


def test_deep_patterns_parse_and_check(capsys, tmp_path):
    path = tmp_path / "pat.grm"
    path.write_text(f"main : Int\nmain = case 5 of {'(' * 2_000}x{')' * 2_000} -> x\n")
    assert run_cli(capsys, "run", str(path)) == (0, "5\n", "")
    path.write_text(f"main : Int\nmain = case 5 of {'inl ' * 2_000}x -> x\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert one_diagnostic(err, path, "TYPE_MISMATCH"), err
    sums = "(" * 2_000 + "Int" + " + Unit)" * 2_000
    path.write_text(f"f : {sums} -o Int\nf = \\x -> case x of {'inl ' * 2_000}y -> y\n")
    assert run_cli(capsys, "check", str(path)) == (0, "", "")


# A pair pattern nested 10,000 deep, to the left and to the right: (type,
# pattern, value), each binding x to the Int at the bottom.
DEEP_PAIRS = {
    "left": ("(" * 10_000 + "Int" + " * Unit)" * 10_000,
             "(" * 10_000 + "x" + ", unit)" * 10_000,
             "(" * 10_000 + "7" + ", unit)" * 10_000),
    "right": ("Unit * (" * 10_000 + "Int" + ")" * 10_000,
              "(unit, " * 10_000 + "x" + ")" * 10_000,
              "(unit, " * 10_000 + "7" + ")" * 10_000),
}


@pytest.mark.parametrize("shape", DEEP_PAIRS)
def test_a_deep_pair_pattern_checks_and_runs(capsys, tmp_path, shape):
    """Checking walks either sub-pattern of a pair, and either component of
    a pair value, without recursion; matching compiles the pattern to a
    plan of 20,000 tests and runs it."""
    ty, pat, value = DEEP_PAIRS[shape]
    path = tmp_path / "pairs.grm"
    path.write_text(f"f : {ty} -o Int\nf = \\p -> case p of {pat} -> x\n\n"
                    f"main : Int\nmain = f {value}\n")
    assert run_cli(capsys, "check", str(path)) == (0, "", "")
    assert run_cli(capsys, "run", str(path)) == (0, "7\n", "")


@pytest.mark.parametrize("depth", [1_000, 3_000])
def test_two_signatures_that_spell_one_deep_type_check(capsys, tmp_path, depth):
    """The application compares the two separately parsed types without
    recursion."""
    ty = "Unit * (" * depth + "Int" + ")" * depth
    pat = "(unit, " * depth + "x" + ")" * depth
    path = tmp_path / "twice.grm"
    path.write_text(f"f : {ty} -o Int\nf = \\p -> case p of {pat} -> x\n\n"
                    f"main : {ty} -o Int\nmain = \\y -> f y\n")
    assert run_cli(capsys, "check", str(path)) == (0, "", "")


def test_a_long_chain_of_definitions_runs(capsys, tmp_path):
    """Definitions are inlined without recursion."""
    n = 3_000
    path = tmp_path / "chain.grm"
    path.write_text("".join(f"d{i} : Unit\nd{i} = d{i + 1}\n\n" for i in range(n))
                    + f"d{n} : Unit\nd{n} = unit\n\nmain : Unit\nmain = d0\n")
    assert run_cli(capsys, "run", str(path)) == (0, "unit\n", "")


CYCLE = ("a : Unit * Unit\na = (unit, b)\n\n"
         "b : Unit\nb = case a of (u, v) -> (case u of unit -> v)\n\n"
         "c : Unit\nc = b\n\n"
         "main : Unit * (Unit * Unit)\nmain = (c, a)\n")


def test_a_mutual_cycle_is_named_in_declaration_order(capsys, tmp_path):
    """``main`` names ``c`` and ``a``; ``a``, declared first, is followed
    first, whatever the hash seed."""
    path = tmp_path / "cycle.grm"
    path.write_text(CYCLE)
    assert run_cli(capsys, "check", str(path)) == (0, "", "")
    assert run_cli(capsys, "run", str(path)) == (
        1, "", "grlin: mutually recursive top-level definitions (use letrec): "
               "main -> a -> b -> a\n")


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    """``check`` and ``run`` over ``programs/**`` and the cycle above, then
    ``laws``, in one child process under each of two hash seeds."""
    path = tmp_path / "cycle.grm"
    path.write_text(CYCLE)
    files = sorted(map(str, ROOT.glob("programs/**/*.grm"))) + [str(path)]
    argvs = [[cmd, f] for f in files for cmd in ("check", "run")]
    argvs.append(["laws", "--cases", "40"])
    script = ("import contextlib, io, json, sys\n"
              "from grlin.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    out, err = io.StringIO(), io.StringIO()\n"
              "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
              "        code = main(argv)\n"
              "    print(argv, code, repr(out.getvalue()), repr(err.getvalue()))\n")
    procs = [run_python("-c", script, json.dumps(argvs), PYTHONHASHSEED=seed)
             for seed in ("0", "1")]
    assert [p.returncode for p in procs] == [0, 0], procs[0].stderr + procs[1].stderr
    lines = procs[0].stdout.splitlines()
    assert lines == procs[1].stdout.splitlines()
    assert len(lines) == len(argvs) and "main -> a -> b -> a" in lines[-2]


def test_laws_do_not_depend_on_the_hash_seed():
    """``grlin laws --cases 5``, each in a fresh process, under two hash
    seeds."""
    procs = [run_module("laws", "--cases", "5", PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert [p.returncode for p in procs] == [0, 0], procs[0].stderr + procs[1].stderr
    assert procs[0].stdout == procs[1].stdout and procs[0].stderr == procs[1].stderr == ""
    assert procs[0].stdout.startswith("suite ")


def test_two_fmaps_at_one_subject_run_as_checked(capsys, tmp_path):
    """Each fmap node runs the combinator its own signature chose."""
    path = tmp_path / "fmaps.grm"
    path.write_text("mapL : ((a -o a) [1]) -o ((a * b) -o (a * b))\nmapL = fmap @(a * b)\n\n"
                    "mapR : ((b -o b) [1]) -o ((a * b) -o (a * b))\nmapR = fmap @(a * b)\n\n"
                    "main : ((a -o a) [1]) -o ((a * b) -o (a * b))\n"
                    "main = \\f -> \\p -> mapL f p\n")
    assert run_cli(capsys, "check", str(path)) == (0, "", "")
    assert run_cli(capsys, "run", str(path)) == (
        0, "\\f -> \\p -> case f of [f3] -> case p of (x4, y5) -> (f3 x4, y5)\n", "")


def test_synthesized_case_and_letrec_scrutinees(capsys, tmp_path):
    """A case whose scrutinee is itself a case, or a letrec, synthesizes
    that scrutinee's type, branch by branch for a case."""
    inner = "case b of inl u -> (case u of unit -> 1); inr v -> "
    path = tmp_path / "synth.grm"
    path.write_text("f : (Unit + Unit) -o Int -o (Int * Int)\n"
                    f"f = \\b -> \\x -> (case ({inner}(case v of unit -> 2)) of n -> n, "
                    "case (letrec r = x in r) of m -> m)\n\n"
                    "main : Int * Int\nmain = f (inr unit) 7\n")
    assert run_cli(capsys, "run", str(path)) == (0, "(2, 7)\n", "")
    path.write_text(f"f : (Unit + Unit) -o Int\nf = \\b -> case ({inner}v) of n -> n\n")
    assert run_cli(capsys, "check", str(path)) == (
        1, "", f"{path}:2:17: TYPE_MISMATCH: branches disagree: Int vs Unit\n")


def test_pull_refuses_a_variable_boxed_at_two_grades(capsys, tmp_path):
    path = tmp_path / "pull.grm"
    path.write_text("p : ((a [2]) * (a [3])) -o ((a * a) [2])\np = pull @(a * a)\n")
    assert run_cli(capsys, "check", str(path)) == (
        1, "", f"{path}:2:5: TYPE_MISMATCH: variable 'a' is boxed at both 2 and 3\n")


# ((…(Int + Unit) + …) + Unit), nested 2,000 deep, and a case over it
DEEP_SUM = "(" * 2_000 + "Int" + " + Unit)" * 2_000
DEEP_BRANCHES = f"{'inl ' * 2_000}y -> y; {'inl ' * 1_999}inr u -> case u of unit -> 0"


def test_a_deep_pattern_runs(capsys, tmp_path):
    path = tmp_path / "pat.grm"
    path.write_text(f"f : {DEEP_SUM} -o Int\nf = \\x -> case x of {DEEP_BRANCHES}\n\n"
                    f"main : Int\nmain = f ({'inl ' * 2_000}7)\n")
    assert run_cli(capsys, "run", str(path)) == (0, "7\n", "")


def test_a_deep_pattern_prints(capsys, tmp_path):
    path = tmp_path / "pat.grm"
    path.write_text(f"main : {DEEP_SUM} -o Int\nmain = \\x -> case x of {DEEP_BRANCHES}\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("\\x -> case x of inl (inl (") and out.endswith(" u of unit -> 0\n")


# Lexemes of the fuzz: blanks, comments and words stay whole, so a mutation
# deletes, replaces, duplicates or inserts a token.
FUZZ_LEXEME = re.compile(r"\s+|--[^\n]*|#semiring|[\w']+|->|-o|\.\.|.")
# A stray high byte, a cut-off two-byte sequence and a cut-off three-byte
# one, none of which UTF-8 can decode.
FUZZ_BAD_BYTES = (b"\xff", b"\xc3", b"\xe2\x82")
FUZZ_EXTRA = ("\u00b2", "7" * 5000, "\u0663", "\u03bb", "-", "\t", "\r\n", "\n", " ")


def test_cli_totality_fuzz(capsys, tmp_path):
    """``check`` and ``run`` on seeded token-level mutations of the example
    programs exit with 0, 1 or 2 and raise nothing. On exit 1 every stderr
    line is a diagnostic, ``file:line:col: CODE: message``, except the
    evaluator's ``grlin: ...`` report from ``run``. Every tenth mutation
    also gets a byte that is not UTF-8, which is a usage error."""
    texts = [p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("programs/**/*.grm"))]
    vocab = sorted({lx for t in texts for lx in FUZZ_LEXEME.findall(t)
                    if not lx.isspace() and not lx.startswith("--")}) + list(FUZZ_EXTRA)
    path = tmp_path / "mutant.grm"
    diag = re.compile(re.escape(str(path)) + r":\d+:\d+: [A-Z_]+: \S")
    rng = random.Random(5)
    for i in range(1000):
        lexemes = FUZZ_LEXEME.findall(texts[i % len(texts)])
        for _ in range(rng.randint(1, 3)):
            j = rng.randrange(len(lexemes))
            op = rng.randrange(4)
            if op == 0:
                del lexemes[j]
            elif op == 1:
                lexemes[j] = rng.choice(vocab)
            elif op == 2:
                lexemes.insert(j, rng.choice(vocab))
            else:
                lexemes.insert(j, lexemes[j])
        text = "".join(lexemes)
        data = text.encode("utf-8")
        if i % 10 == 9:
            raw = random.Random(i)
            k = raw.randrange(len(data) + 1)
            data = data[:k] + raw.choice(FUZZ_BAD_BYTES) + data[k:]
        path.write_bytes(data)
        for argv in (["check", str(path)], ["run", str(path), "--fuel", "2000"]):
            try:
                code, out, err = run_cli(capsys, *argv)
            except Exception as e:
                raise AssertionError(f"{argv[0]} raised {e!r} on {data!r}") from e
            assert code in (0, 1, 2), (argv[0], data)
            if i % 10 == 9:
                assert code == 2 and "not valid UTF-8" in err, (argv[0], data)
            if code == 1:
                for line in err.splitlines():
                    assert diag.match(line) or (argv[0] == "run" and line.startswith("grlin: ")), \
                        (argv[0], line, text)


# Characters a mutation of a derive subject puts in place of one character.
DERIVE_FUZZ_CHARS = "()[]*+-o.,@aXY01w\u00b2\u03bc "


def _fuzz_grade(rng, sr):
    """A grade's text from the pool of ``sr``, or one time in five from the
    pool of a semiring drawn at random."""
    g_sr = sr if rng.random() < 0.8 else rng.choice(G.SEMIRINGS)
    return G.show_grade(rng.choice(L.GRADE_POOLS[g_sr]))


def test_derive_totality_fuzz(capsys):
    """``derive`` on seeded arguments exits with 0, 1 or 2 and raises
    nothing, and every stderr line is ``grlin: ...`` or a SYNTAX diagnostic
    of the subject. The arguments cover the five kinds and the four
    semirings; the subjects come from ``gen_type`` with functions and
    ``Int``. Some get a box, a ``Res`` or an outer mu, some one character
    mutated, and some grades come from another semiring."""
    line = re.compile(r"grlin: \S|<type>:\d+:\d+: SYNTAX: \S")
    rng = random.Random(11)
    kinds = ("push", "pull", "drop", "copyshape", "fmap")
    codes = set()
    for i in range(1000):
        kind, sr = kinds[i % 5], G.SEMIRINGS[i % 4]
        cfg = L.TypeGenConfig(max_depth=3, allow_fun=rng.random() < 0.5, allow_mu=True,
                              allow_base=True, tyvars=("a", "b")[: rng.randrange(3)])
        t = L.gen_type(cfg, rng)
        roll = rng.randrange(6)
        if roll == 0:
            t = Tensor(t, Box(rng.choice(L.GRADE_POOLS[sr]), TyVar("a")))
        elif roll == 1:
            t = Tensor(t, RES)
        elif roll == 2:
            t = Mu("Y", Sum(UNIT, Tensor(t, RecVar("Y"))))
        text = pretty_type(t)
        if rng.random() < 0.25:
            k = rng.randrange(len(text))
            text = text[:k] + rng.choice(DERIVE_FUZZ_CHARS) + text[k + 1:]
        argv = ["derive", kind, "--semiring", sr]
        if kind == "pull" and rng.random() < 0.3:
            argv.append("--grades=" + ",".join(f"{a}={_fuzz_grade(rng, sr)}"
                                               for a in sorted(free_tyvars(t))))
        if kind in ("push", "pull", "fmap") and rng.random() < 0.9:
            argv.append(f"--grade={_fuzz_grade(rng, sr)}")
        if i % 2:
            argv.append("--explain")
        argv += ["--", text]
        try:
            code, out, err = run_cli(capsys, *argv)
        except Exception as e:
            raise AssertionError(f"derive raised {e!r} on {argv}") from e
        assert code in (0, 1, 2), argv
        assert (code == 0) == (err == ""), (argv, err)
        for msg in err.splitlines():
            assert line.match(msg), (argv, msg)
        codes.add(code)
    assert codes == {0, 1, 2}
