"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import time

from conftest import run_derivation_soundness
from grlin import deriving as D
from grlin import grades as G
from grlin import lawcheck as L
from grlin import typecheck as T
from grlin.evaluator import count_uses, deep_normalize, inline_definitions, run_main
from grlin.parser import parse_program, parse_term, parse_type
from grlin.syntax import alpha_eq, types_equal


def report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_program(fh.read(), file=path)


def test_criterion_1_motivating_pipeline():
    t0 = time.time()
    prog = load("programs/motivating.grm")
    ok = prog.semiring == "interval"
    ok = ok and T.check_program(prog) == []
    ok = ok and run_main(prog) == "1"
    elapsed = time.time() - t0
    report(1, "motivating pipeline, exact output, <1s", ok and elapsed < 1.0)


def test_criterion_2_example3_golden():
    comb = D.derive_push(parse_type("(a * a) -o b"), G.grade_nat(2))
    paper_final = parse_term(
        "\\z -> \\y -> case z of [f] -> "
        "case (case y of (q, w) -> case (q, w) of ([u], [v]) -> [(u, v)]) of "
        "[u] -> [(f u)]")
    normalized = deep_normalize(comb.term)
    report(2, "push @((a * a) -o b) matches the displayed derivation",
           alpha_eq(normalized, paper_final))


def test_criterion_3_interval_meet():
    comb = D.derive_pull(
        parse_type("a * b", "interval"),
        {"a": G.grade_interval(0, 2), "b": G.grade_interval(2, 4)},
        G.INTERVAL)
    expect = parse_type("(a [0..2] * b [2..4]) -o ((a * b) [2..2])", "interval")
    report(3, "pull @(a * b) at 0..2 and 2..4 concludes 2..2",
           types_equal(comb.type, expect))


def test_criterion_4_copyshape_pair():
    prog = load("programs/copyshape.grm")
    ok = T.check_program(prog) == []
    ok = ok and run_main(prog) == "((unit, unit), (1, 2))"
    report(4, "copyShape pair prints ((unit, unit), (1, 2))", ok)


def test_criterion_5_law_suites():
    t0 = time.time()
    failures = 0
    for suite in L.SUITES:
        rep = L.run_suite(suite, seed=L.DEFAULT_SEED)  # 500/200/200/200
        failures += len(rep.failures)
        for f in rep.failures[:3]:
            print("  law failure:", f.repro(rep.seed))
    elapsed = time.time() - t0
    # determinism spot-check under the fixed seed
    a = L.run_suite("inverses", cases=50, seed=L.DEFAULT_SEED)
    b = L.run_suite("inverses", cases=50, seed=L.DEFAULT_SEED)
    deterministic = ([f.detail for f in a.failures] == [f.detail for f in b.failures])
    report(5, f"law suites zero failures in {elapsed:.1f}s (<60s), deterministic",
           failures == 0 and deterministic and elapsed < 60.0)


def test_criterion_6_derivation_soundness_300():
    failures = run_derivation_soundness(300, seed=99)
    report(6, "300 random derivations check at their schemes", failures == 0)


NEGATIVE_EXPECTED = {
    "programs/negative/type_mismatch.grm": "TYPE_MISMATCH",
    "programs/negative/linearity.grm": "LINEARITY",
    "programs/negative/grade_exceeded.grm": "GRADE_EXCEEDED",
    "programs/negative/promote_linear.grm": "PROMOTE_LINEAR",
    "programs/negative/wildcard_weaken.grm": "WILDCARD_WEAKEN",
    "programs/negative/match_usage.grm": "MATCH_USAGE",
    "programs/negative/no_upper_bound.grm": "NO_UPPER_BOUND",
    "programs/negative/meet_undefined.grm": "MEET_UNDEFINED",
    "programs/negative/needs_annotation.grm": "NEEDS_ANNOTATION",
    "programs/negative/unknown_var.grm": "UNKNOWN_VAR",
    "programs/negative/duplicate_def.grm": "DUPLICATE_DEF",
    "programs/negative/polymorphic_drop.grm": "POLYMORPHIC_DROP",
    "programs/negative/not_droppable.grm": "NOT_DROPPABLE",
}


def test_criterion_7_negative_suite():
    from grlin.parser import ParseError
    results = {}
    for path, expected in NEGATIVE_EXPECTED.items():
        diags = T.check_program(load(path))
        results[path] = [d.code for d in diags] == [expected]
    # the syntax criterion: a parse error at the dangling arrow
    try:
        load("programs/negative/syntax_error.grm")
        results["programs/negative/syntax_error.grm"] = False
    except ParseError as e:
        results["programs/negative/syntax_error.grm"] = (e.pos.line == 1)
    # MIXED_SEMIRING is unreachable from a single-pragma source file; it is
    # exercised against the checker API directly
    prog = parse_program("b : Unit [2]\nb = [unit]")
    prog.semiring = "interval"
    results["<api mixed semiring>"] = \
        [d.code for d in T.check_program(prog)] == ["MIXED_SEMIRING"]
    bad = [p for p, ok in results.items() if not ok]
    ok = not bad and len(results) >= 10
    if bad:
        print("  wrong verdicts:", bad)
    report(7, f"negative suite: {len(results)} cases, exact codes", ok)


# nat-exact programs whose graded binders are consumed directly (no nested
# promotion, no branch variance): dynamic counts must equal checked grades
USAGE_CORPUS = [
    """copy : (Int [2]) -o (Int * Int)
copy = \\y -> case y of [x] -> (x, x)
main : Int * Int
main = copy [5]
""",
    """toss : (Int [0]) -o Unit
toss = \\b -> case b of [x] -> unit
main : Unit
main = toss [9]
""",
    """unbox : (Int [1]) -o Int
unbox = \\b -> case b of [x] -> x
main : Int
main = unbox [4]
""",
    """triple : (Int [3]) -o (Int * (Int * Int))
triple = \\b -> case b of [x] -> (x, (x, x))
main : Int * (Int * Int)
main = triple [8]
""",
    """copy : (Int [2]) -o (Int * Int)
copy = \\x -> case x of [x] -> (x, x)
main : Int * Int
main = copy [5]
""",
    """map3 : ((Int -o Int) [3]) -o ((mu X . Unit + (Int * X)) -o (mu X . Unit + (Int * X)))
map3 = \\bf -> \\l -> case bf of [f] ->
    case l of inr p1 -> (case p1 of (x1, r1) -> inr (f x1,
        case r1 of inr p2 -> (case p2 of (x2, r2) -> inr (f x2,
            case r2 of inr p3 -> (case p3 of (x3, r3) -> inr (f x3,
                case r3 of inl u -> inl u))))))
main : mu X . Unit + (Int * X)
main = map3 [\\n -> n] (inr (1, inr (2, inr (3, inl unit))))
""",
]


def test_criterion_8_usage_count_cross_check():
    discrepancies = []
    for src in USAGE_CORPUS:
        prog = parse_program(src)
        assert prog.semiring == G.NAT_EXACT
        diags, records = T.check_program(prog, record=True)
        assert diags == [], src
        counts = count_uses(inline_definitions(prog, "main"))
        by_site = {(name, pos): n for (name, pos), n in counts.items()}
        for rec in records:
            if rec.kind != "graded" or rec.pos is None:
                continue
            declared = rec.declared.value
            observed = by_site.get((rec.name, rec.pos))
            if observed != declared:
                discrepancies.append((rec.name, rec.pos, declared, observed))
    if discrepancies:
        print("  discrepancies:", discrepancies)
    report(8, "count_uses equals checked grades on the nat-exact corpus",
           not discrepancies)


def test_criterion_9_semiring_algebra():
    import test_grades
    t0 = time.time()
    for sr in G.SEMIRINGS:
        test_grades.test_add_commutative_associative(sr)
        test_grades.test_mul_associative_units_annihilation(sr)
        test_grades.test_distributivity(sr)
        test_grades.test_preorder_reflexive_transitive(sr)
        test_grades.test_monotonicity(sr)
        test_grades.test_meet_is_greatest_lower_bound(sr)
        test_grades.test_lub_is_least_upper_bound(sr)
    elapsed = time.time() - t0
    report(9, f"semiring algebra exhaustive on bounded carriers in {elapsed:.1f}s (<5s)",
           elapsed < 5.0)
