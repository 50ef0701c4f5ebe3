"""Checker behaviour: a 40-program corpus with hand-derived verdicts, plus
the weakening/dereliction invariants and usage bookkeeping."""

import random
import re

import pytest

from grlin import grades as G
from grlin.evaluator import run_main
from grlin.parser import parse_program, parse_term, parse_type
from grlin.typecheck import (
    CheckError, Checker, Graded, Linear, check_program, merge_branch_usages,
    types_match,
)
from grlin.syntax import (
    Base, Box, Fun, Mu, RecVar, Sum, Tensor, TyVar, Unit, types_equal, unroll_mu,
)
from conftest import rand_type, same

# Each entry: (name, source, expected diagnostic codes in order).
# Positive cases exercise every typing rule: var/abs/app, promotion and its
# scaling, dereliction (grade-1 binders), weakening (grade-0), approximation
# at binder exit, letrec, constructors, case merging; pattern rules both
# bare and under an enclosing grade.
POSITIVE = [
    ("identity", "f : a -o a\nf = \\x -> x", []),
    ("apply", "f : (a -o b) -o (a -o b)\nf = \\g -> \\x -> g x", []),
    ("unit-con", "u : Unit\nu = unit", []),
    ("pair-con", "p : Int * Int\np = (1, 2)", []),
    ("inl-con", "s : Int + Unit\ns = inl 3", []),
    ("promote-closed", "b : Int [3]\nb = [7]", []),
    ("promote-scaling", "f : (Int [6]) -o ((Int * Int) [3])\n"
                        "f = \\b -> case b of [x] -> [(x, x)]", []),
    ("dereliction-one", "g : (Int [1]) -o Int\ng = \\b -> case b of [x] -> x", []),
    ("weakening-zero", "w : (a [0]) -o Unit\nw = \\b -> case b of [_] -> unit", []),
    ("approx-le", "#semiring nat-le\nh : (Int [3]) -o Int\n"
                  "h = \\b -> case b of [x] -> x", []),
    ("letrec-nonrec", "k : Unit\nk = letrec i = unit in i", []),
    ("branch-lub-le", "#semiring nat-le\n"
                      "m : (Int [2]) -o ((Unit + Unit) -o Int)\n"
                      "m = \\b -> \\s -> case b of [x] -> "
                      "(case s of inl u -> (case u of unit -> x); "
                      "inr v -> (case v of unit -> 5))", []),
    ("copy-grade-2", "copy : (a [2]) -o (a * a)\n"
                     "copy = \\y -> case y of [x] -> (x, x)", []),
    ("sum-under-interval", "#semiring interval\n"
                           "q : ((a + b) [0..1]) -o Unit\n"
                           "q = \\z -> case z of [inl x] -> unit; [inr y] -> unit", []),
    ("pair-under-box", "pb : ((a * b) [1]) -o (a * b)\n"
                       "pb = \\z -> case z of [(x, y)] -> (x, y)", []),
    ("toplevel-nonlinear", "one : Int\none = 1\ntwo : Int * Int\ntwo = (one, one)", []),
    ("mu-intro", "nil : mu X . Unit + (Int * X)\nnil = inl unit", []),
    ("mu-match", "uncons : (mu X . Unit + (Unit * X)) -o "
                 "(Unit + (Unit * (mu X . Unit + (Unit * X))))\n"
                 "uncons = \\l -> case l of inl u -> inl u; inr p -> inr p", []),
    ("derive-push-in-program", "pushPair : ((a * b) [3]) -o ((a [3]) * (b [3]))\n"
                               "pushPair = push @(a * b)", []),
    ("sum-elim-functions", "#semiring interval\n"
                           "elim : ((Int -o Int) [0..1]) -o ((Int + Int) -o Int)\n"
                           "elim = \\bf -> \\z -> case bf of [f] -> "
                           "(case z of inl x -> f x; inr y -> y)", []),
]

NEGATIVE = [
    ("unused-linear", "f : a -o Unit\nf = \\x -> unit", ["LINEARITY"]),
    ("double-use-linear", "f : a -o (a * a)\nf = \\x -> (x, x)", ["LINEARITY"]),
    ("app-result-mismatch", "f : (a -o b) -o (a -o a)\nf = \\g -> \\x -> g x",
     ["TYPE_MISMATCH"]),
    ("pair-component-mismatch", "p : Int * Int\np = (1, unit)", ["TYPE_MISMATCH"]),
    ("unknown-variable", "f : a -o a\nf = \\x -> y", ["UNKNOWN_VAR"]),
    ("promote-linear", "box : a -o (a [2])\nbox = \\x -> [x]", ["PROMOTE_LINEAR"]),
    ("exact-grade-underuse", "h : (Int [3]) -o Int\nh = \\b -> case b of [x] -> x",
     ["GRADE_EXCEEDED"]),
    ("copy-at-grade-1", "copy : (a [1]) -o (a * a)\n"
                        "copy = \\y -> case y of [x] -> (x, x)", ["GRADE_EXCEEDED"]),
    ("unused-graded-2", "w : (a [2]) -o Unit\nw = \\b -> case b of [x] -> unit",
     ["GRADE_EXCEEDED"]),
    ("wildcard-under-2", "t : (a [2]) -o Unit\nt = \\b -> case b of [_] -> unit",
     ["WILDCARD_WEAKEN"]),
    ("wildcard-outside-box", "f : a -o Unit\nf = \\x -> case x of _ -> unit",
     ["WILDCARD_WEAKEN"]),
    ("sum-match-under-0", "p : ((a + b) [0]) -o Unit\n"
                          "p = \\z -> case z of [inl x] -> unit; [inr y] -> unit",
     ["MATCH_USAGE"]),
    ("int-match-under-0", "z : (Int [0]) -o Unit\n"
                          "z = \\b -> case b of [0] -> unit; [_] -> unit",
     ["MATCH_USAGE"]),
    ("branch-linear-mismatch", "f : a -o ((Unit + Unit) -o (Unit + a))\n"
                               "f = \\x -> \\s -> case s of "
                               "inl u -> (case u of unit -> inl unit); "
                               "inr v -> (case v of unit -> inr x)", ["LINEARITY"]),
    ("no-upper-bound-exact", "skew : (a [3]) -o ((Unit + Unit) -o ((a * a) + a))\n"
                             "skew = \\b -> \\s -> case b of [x] -> "
                             "(case s of inl u -> (case u of unit -> inl (x, x)); "
                             "inr v -> (case v of unit -> inr x))", ["NO_UPPER_BOUND"]),
    ("pull-meet-undefined", "join : ((a [2]) * (b [3])) -o ((a * b) [2])\n"
                            "join = pull @(a * b)", ["MEET_UNDEFINED"]),
    ("promote-in-synthesis", "oops : Unit\noops = case [unit] of [x] -> x",
     ["NEEDS_ANNOTATION"]),
    ("nested-box-pattern", "f : ((a [1]) [1]) -o a\nf = \\b -> case b of [[x]] -> x",
     ["TYPE_MISMATCH"]),
    ("duplicate-definition", "f : a -o a\nf = \\x -> x\nf : Unit\nf = unit",
     ["DUPLICATE_DEF"]),
    ("push-wrong-shape", "p : a -o a\np = push @a", ["TYPE_MISMATCH"]),
]


@pytest.mark.parametrize("name,src,codes", POSITIVE, ids=[c[0] for c in POSITIVE])
def test_accepted(name, src, codes):
    diags = check_program(parse_program(src))
    assert [d.code for d in diags] == codes


@pytest.mark.parametrize("name,src,codes", NEGATIVE, ids=[c[0] for c in NEGATIVE])
def test_rejected(name, src, codes):
    diags = check_program(parse_program(src))
    assert [d.code for d in diags] == codes
    for d in diags:
        assert d.pos is not None


def test_check_term_usage_map():
    term = parse_term("\\x -> x")
    usage = Checker(G.NAT_EXACT).check({}, term, parse_type("a -o a"))
    assert usage == {}
    # copy's box-bound variable is used at grade 2
    prog = parse_program("copy : (a [2]) -o (a * a)\n"
                         "copy = \\y -> case y of [x] -> (x, x)")
    records = []
    assert check_program(prog, records) == []
    graded = {r.name: r for r in records if r.kind == "graded"}
    assert graded["x"].usage == G.grade_nat(2)


def test_synth_examples():
    ty, usage = Checker(G.NAT_EXACT).synth({"x": Linear(Base("Int"))}, parse_term("x"))
    assert ty == Base("Int")
    assert usage == {"x": 1}
    with pytest.raises(CheckError) as exc:
        Checker(G.NAT_EXACT).synth({}, parse_term("[3]"))
    assert exc.value.diag.code == "NEEDS_ANNOTATION"
    with pytest.raises(CheckError) as exc:
        Checker(G.NAT_EXACT).synth({}, parse_term("inl unit"))
    assert exc.value.diag.code == "NEEDS_ANNOTATION"


def test_check_pattern_examples():
    checker = Checker("interval")
    binders = checker.check_pattern(G.grade_interval(0, 1), _pat("inl x"),
                                    parse_type("a + b", "interval"))
    assert binders[0][0] == "x"
    assert same(binders[0][1], Graded(TyVar("a"), G.grade_interval(0, 1)))

    with pytest.raises(CheckError) as exc:
        checker.check_pattern(G.grade_interval(0, 0), _pat("inl x"),
                              parse_type("a + b", "interval"))
    assert exc.value.diag.code == "MATCH_USAGE"

    with pytest.raises(CheckError) as exc:
        Checker(G.NAT_EXACT).check_pattern(G.grade_nat(2), _pat("(x, _)"),
                                           parse_type("a * b"))
    assert exc.value.diag.code == "WILDCARD_WEAKEN"

    with pytest.raises(CheckError) as exc:
        Checker(G.NAT_EXACT).check_pattern(None, _pat("(x, x)"),
                                           parse_type("a * a"))
    assert exc.value.diag.code == "LINEARITY"


def _pat(text):
    from grlin.parser import _parse_pattern, tokenize
    return _parse_pattern(tokenize(text), 0)[0]


def test_merge_branch_usages():
    le = G.NAT_LE
    u1 = {"x": G.grade_nat(1, le)}
    u2 = {"x": G.grade_nat(3, le)}
    merged = merge_branch_usages([u1, u2], le)
    assert merged["x"] == G.grade_nat(3, le)

    with pytest.raises(CheckError) as exc:
        merge_branch_usages([{"x": G.grade_nat(1)}, {"x": G.grade_nat(2)}], G.NAT_EXACT)
    assert exc.value.diag.code == "NO_UPPER_BOUND"

    assert merge_branch_usages([u1], le) == u1


def test_weakening_invariant():
    # adding an unused 0-graded binder never changes a verdict
    samples = [
        ("\\x -> x", "a -o a", True),
        ("\\x -> (x, x)", "a -o (a * a)", False),
        ("(1, 2)", "Int * Int", True),
    ]
    for text, ty, accepted in samples:
        term, expected = parse_term(text), parse_type(ty)
        for ctx in ({}, {"unused": Graded(Base("Int"), G.grade_nat(0))}):
            try:
                usage = Checker(G.NAT_EXACT).check(dict(ctx), term, expected)
                ok = True
            except CheckError:
                ok = False
            assert ok == accepted


def test_dereliction_invariant():
    # a derivation through a linear assumption also accepts at grade 1
    for sr in (G.NAT_EXACT, G.NAT_LE):
        term = parse_term("(x, 1)")
        expected = parse_type("Int * Int")
        u1 = Checker(sr).check({"x": Linear(Base("Int"))}, term, expected)
        assert u1 == {"x": 1}
        u2 = Checker(sr).check({"x": Graded(Base("Int"), G.one(sr))}, term, expected)
        assert u2 == {"x": G.one(sr)}


def test_mixed_semiring_diagnosed():
    prog = parse_program("b : Unit [2]\nb = [unit]")
    prog.semiring = "interval"  # simulate grades from another semiring
    diags = check_program(prog)
    assert [d.code for d in diags] == ["MIXED_SEMIRING"]


def test_fig1_pipeline_program():
    src = open("programs/motivating.grm", encoding="utf-8").read()
    assert check_program(parse_program(src)) == []


def test_whole_positive_corpus_checks():
    import glob
    for path in sorted(glob.glob("programs/*.grm")):
        src = open(path, encoding="utf-8").read()
        assert check_program(parse_program(src, file=path)) == [], path


def test_diagnostics_accumulate_across_declarations():
    src = ("f : a -o Unit\nf = \\x -> unit\n"
           "g : Int\ng = unit\n"
           "h : a -o a\nh = \\x -> x\n")
    diags = check_program(parse_program(src))
    assert [d.code for d in diags] == ["LINEARITY", "TYPE_MISMATCH"]


def test_in_program_fmap_resolves_from_signature():
    src = ("mapPair : ((a -o b) [2]) -o ((a * a) -o (b * b))\n"
           "mapPair = fmap @(a * a)")
    assert check_program(parse_program(src)) == []
    # beta may be instantiated at a compound type
    src2 = ("mapPair : ((a -o (Int * Int)) [2]) -o ((a * a) -o ((Int * Int) * (Int * Int)))\n"
            "mapPair = fmap @(a * a)")
    assert check_program(parse_program(src2)) == []
    # ... at a linear-only base type, a function type and a box
    for beta in ("Res", "(Int -o Int)", "(Int [3])"):
        src3 = (f"mapPair : ((a -o {beta}) [2]) -o ((a * a) -o ({beta} * {beta}))\n"
                "mapPair = fmap @(a * a)")
        assert check_program(parse_program(src3)) == [], beta
    # the result may be written as one unrolling of its mu
    unrolled = ("#semiring zero-one-many\n"
                "mapL : ((a -o b) [w]) -o ((mu X . Unit + (a * X)) -o "
                "(Unit + (b * (mu X . Unit + (b * X)))))\n"
                "mapL = fmap @(mu X . Unit + (a * X))")
    assert check_program(parse_program(unrolled)) == []
    # ... also inside a product, and a subject unrolled there may have its result rolled
    nested = (("a * (mu X . Unit + (a * X))",
               "b * (Unit + (b * (mu X . Unit + (b * X))))"),
              ("a * (Unit + (a * (mu X . Unit + (a * X))))",
               "b * (mu X . Unit + (b * X))"))
    for subject, result in nested:
        src4 = ("#semiring zero-one-many\n"
                f"m : ((a -o b) [w]) -o (({subject}) -o ({result}))\n"
                f"m = fmap @({subject})")
        assert check_program(parse_program(src4)) == [], subject
    # a result that is not the mapped subject is refused at the fmap node
    wrong = ("mapPair : ((a -o b) [2]) -o ((a * a) -o (b * a))\n"
             "mapPair = fmap @(a * a)")
    assert [d.render() for d in check_program(parse_program(wrong, file="file"))] == [
        "file:2:11: TYPE_MISMATCH: fmap @a * a has type (a -o b) [2] -o a * a -o b * b, "
        "expected (a -o b) [2] -o a * a -o b * a"]
    # grade too small for the occurrence count
    bad = ("mapPair : ((a -o b) [1]) -o ((a * a) -o (b * b))\n"
           "mapPair = fmap @(a * a)")
    assert [d.code for d in check_program(parse_program(bad))] == ["SIDE_CONDITION"]


def test_in_program_drop_and_copyshape_synthesize():
    src = ("clean : (Int * Int) -o Unit\nclean = drop @(Int * Int)\n"
           "spine : (Int * Int) -o ((Unit * Unit) * (Int * Int))\n"
           "spine = copyShape @(Int * Int)")
    assert check_program(parse_program(src)) == []


def test_in_program_push_grade_flows_from_expected():
    # the same node checks at different grades in nat-le
    for grade in ("1", "2", "5"):
        src = (f"p : ((a * b) [{grade}]) -o ((a [{grade}]) * (b [{grade}]))\n"
               "p = push @(a * b)")
        prog = parse_program("#semiring nat-le\n" + src)
        assert check_program(prog) == []
    # and rejects a mismatched conclusion
    src = ("#semiring nat-le\n"
           "p : ((a * b) [2]) -o ((a [2]) * (b [3]))\n"
           "p = push @(a * b)")
    assert [d.code for d in check_program(parse_program(src))] == ["TYPE_MISMATCH"]


def test_shadowing_diagnostics_name_the_source_binder():
    """A binder that shadows another keeps its own name in diagnostics."""
    src = "f : Int -o Int -o Int -o Int\nf = \\x -> \\x -> \\x -> 5"
    diags = check_program(parse_program(src, file="file"))
    assert [d.render() for d in diags] == [
        "file:2:17: LINEARITY: linear variable 'x' used 0 times (expected exactly 1)"]


def test_a_nested_mu_is_unrolled_until_a_constructor_shows():
    """A mu directly under a mu has the constructors of its full unrolling
    in a pattern and in an application spine, as it has for a value."""
    nested = "mu X . mu Y . Unit + (X * Y)"
    src = (f"t : ({nested}) -o ({nested})\n"
           "t = \\x -> case x of inl u -> inl u; inr p -> inr p\n\n"
           f"main : {nested}\nmain = t (inr (inl unit, inl unit))\n")
    prog = parse_program(src)
    assert check_program(prog) == []
    assert run_main(prog) == "inr (inl unit, inl unit)"
    fn = "mu X . mu Y . Int -o X"
    src = (f"f : {fn}\nf = \\n -> case drop @Int n of unit -> f\n\n"
           f"g : {fn}\ng = f 1\n")
    assert check_program(parse_program(src)) == []


def test_a_linear_variable_used_once_in_every_branch_is_used_once():
    src = ("pick : Int -o ((Unit + Unit) -o Int)\n"
           "pick = \\y -> \\s -> case s of inl u -> (case u of unit -> y); "
           "inr v -> (case v of unit -> y)")
    records = []
    assert check_program(parse_program(src), records) == []
    assert {r.name: r.usage for r in records} == {"u": 1, "v": 1, "s": 1, "y": 1}
    assert {r.kind for r in records} == {"linear"}


def test_a_synthesized_case_takes_the_rolled_branch_type():
    """Branch types that differ by one unrolling agree, in either order."""
    rolled = parse_type("mu X . Unit + X")
    term = parse_term("case s of inl u -> (case u of unit -> a); "
                      "inr v -> (case v of unit -> b)")
    ctx = {"s": Linear(parse_type("Unit + Unit"))}
    for a, b in ((rolled, unroll_mu(rolled)), (unroll_mu(rolled), rolled)):
        ty, usage = Checker(G.NAT_EXACT, {"a": a, "b": b}).synth(ctx, term)
        assert (ty, usage) == (rolled, {"s": 1})


# A reference for ``types_match``: both types unfolded to a fixed depth.

def unfolded(t, depth: int):
    """``t`` as a tree of nested tuples down to ``depth`` constructors, with
    each mu unrolled until a constructor shows; ``...`` stands for what lies
    deeper. A mu that shows none after as many unrollings as it has leading
    mus, such as ``mu X . X``, is a leaf that keeps its binding structure."""
    if depth == 0:
        return "..."
    if isinstance(t, Mu):
        leading, head = 0, t
        while isinstance(head, Mu):
            leading, head = leading + 1, head.body
        for _ in range(leading):
            t = unroll_mu(t)
        if isinstance(t, Mu):
            binders, head = [], t
            while isinstance(head, Mu):
                binders, head = [head.var] + binders, head.body
            return ("unguarded", leading, binders.index(head.name))
    d = depth - 1
    if isinstance(t, Fun):
        return ("->", unfolded(t.arg, d), unfolded(t.res, d))
    if isinstance(t, (Tensor, Sum)):
        return (type(t).__name__, unfolded(t.left, d), unfolded(t.right, d))
    if isinstance(t, Box):
        return ("box", t.grade, unfolded(t.body, d))
    return (type(t).__name__, getattr(t, "name", None))


def unrolled_somewhere(t, rng: random.Random, budget: int = 3):
    """``t`` with mus unrolled at random positions: at the top, under a box,
    in a pair or a sum, in a function's argument or result, in a mu's body;
    at most ``budget`` unrollings on any path."""
    if isinstance(t, Mu) and budget and rng.random() < 0.5:
        return unrolled_somewhere(unroll_mu(t), rng, budget - 1)
    if isinstance(t, Fun):
        return Fun(unrolled_somewhere(t.arg, rng, budget), unrolled_somewhere(t.res, rng, budget))
    if isinstance(t, (Tensor, Sum)):
        return type(t)(unrolled_somewhere(t.left, rng, budget),
                       unrolled_somewhere(t.right, rng, budget))
    if isinstance(t, Box):
        return Box(t.grade, unrolled_somewhere(t.body, rng, budget))
    if isinstance(t, Mu):
        return Mu(t.var, unrolled_somewhere(t.body, rng, budget))
    return t


def mutated(t, rng: random.Random):
    """``t`` with each leaf other than a recursion variable turned into
    another one with probability 1/4."""
    if isinstance(t, Fun):
        return Fun(mutated(t.arg, rng), mutated(t.res, rng))
    if isinstance(t, (Tensor, Sum)):
        return type(t)(mutated(t.left, rng), mutated(t.right, rng))
    if isinstance(t, Box):
        return Box(t.grade, mutated(t.body, rng))
    if isinstance(t, Mu):
        return Mu(t.var, mutated(t.body, rng))
    if isinstance(t, RecVar) or rng.random() < 0.75:
        return t
    return rng.choice([x for x in (Unit(), Base("Int"), TyVar("a"), TyVar("b"))
                       if not types_equal(x, t)])


def match_pairs(seed: int, n: int) -> list:
    """Seeded pairs of closed types: a type against copies of it unrolled
    at random positions, two such copies, and copies of a type and of a
    mutation of it."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        t = rand_type(3, rng.choice([G.NAT_EXACT, G.INTERVAL]), rng)
        u, v = unrolled_somewhere(t, rng), unrolled_somewhere(t, rng)
        pairs += [(t, u), (u, v), (u, unrolled_somewhere(mutated(t, rng), rng))]
    return pairs


def disagreements(match, pairs, depth: int = 8) -> list:
    """The pairs on which ``match`` disagrees with the reference, or with
    itself on the pair swapped."""
    return [(a, b) for a, b in pairs
            if match(a, b) != (unfolded(a, depth) == unfolded(b, depth))
            or match(b, a) != match(a, b)]


def top_only(a, b) -> bool:
    """A planted mutant of ``types_match``: one unrolling at the top only."""
    return (types_equal(a, b) or isinstance(a, Mu) and types_equal(unroll_mu(a), b)
            or isinstance(b, Mu) and types_equal(a, unroll_mu(b)))


def test_types_match_agrees_with_the_unfolded_trees():
    pairs = match_pairs(seed=23, n=400)
    assert not disagreements(types_match, pairs)
    # the pairs take both answers, and tell the mutant from the match
    verdicts = [types_match(a, b) for a, b in pairs]
    assert min(verdicts.count(True), verdicts.count(False)) > len(pairs) // 20
    assert len(disagreements(top_only, pairs)) > len(pairs) // 20


def test_types_match_keeps_an_unguarded_mu_as_it_is():
    """``mu X . X`` unrolls to itself, so it matches only what
    ``types_equal`` matches, at the top or below a constructor; a mu whose
    body is a mu that binds nothing unrolls to that mu."""
    pairs = [("mu X . X", "mu Y . Y", True), ("mu X . X", "mu X . mu Y . X", False),
             ("mu X . mu Y . X", "mu Z . mu W . Z", True),
             ("mu X . mu Y . Y", "mu X . mu Y . X", False),
             ("Unit + (mu X . X)", "mu Z . Unit + (mu X . X)", True),
             ("mu X . X", "mu X . Unit + X", False),
             # the inner mu unrolls to the outer one, one step at a time
             ("mu Y . Res -o mu Z . Y", "Res -o mu Z . Res -o mu Z . mu Y . Res -o mu Z . Y", True),
             ("mu Y . Res -o mu Z . Y", "mu Y . Res -o Res -o Y", True),
             ("mu Y . Res -o mu Z . Y", "Res -o mu Z . Res -o mu Z . Int", False)]
    for a, b, want in pairs:
        assert types_match(parse_type(a), parse_type(b)) is want, (a, b)
        assert types_match(parse_type(b), parse_type(a)) is want, (b, a)


@pytest.mark.parametrize("src, rendered", [
    ("main : Int\nmain = letrec main = main in main",
     "file:2:8: NEEDS_ANNOTATION: recursive binding 'main' needs a type annotation"),
    ("g : Int -o Int\ng = \\x -> letrec x = (x, 1) in x",
     "file:2:11: NEEDS_ANNOTATION: recursive binding 'x' needs a type annotation"),
])
def test_unannotated_letrec_hides_its_own_name_from_its_bound(src, rendered):
    """Synthesizing an unannotated letrec's bound, its own name does not
    fall back on a top-level definition or an outer binder of that name."""
    diags = check_program(parse_program(src, file="file"))
    assert [d.render() for d in diags] == [rendered]


def test_check_golden():
    """Every golden input checks as recorded, diagnostics in order; rewrite
    the file with ``tests/golden/gen_check.py`` only for an intended
    change."""
    from golden import gen_check
    want = re.split(r"(?m)^(?=== )", gen_check.GOLDEN.read_text(encoding="utf-8"))[1:]
    got = gen_check.entries()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, f"golden entry differs: {w.splitlines()[0]}"
