"""The derivation engine: golden terms, schemes, side conditions, soundness."""

import random
import re

import pytest

from grlin import deriving as D
from grlin import grades as G
from grlin import lawcheck as L
from grlin.deriving import DeriveError
from grlin.evaluator import deep_normalize
from grlin.frozen import fields
from grlin.parser import parse_term, parse_type, pretty_term, pretty_type
from grlin.syntax import (
    App, Base, Box, Case, Con, Fun, IntLit, Lam, LetRec, Mu, Pattern, PBox, PCon,
    Promote, PVar, RecVar, Sum, Tensor, Term, TyVar, Type, Unit, Var, alpha_eq,
    free_tyvars, occurring, pair, types_equal,
)
from grlin.typecheck import GRADE_EXCEEDED, NO_UPPER_BOUND, CheckError, Checker


def nat(n, sr=G.NAT_EXACT):
    return G.grade_nat(n, sr)


def test_push_example3_golden():
    comb = D.derive_push(parse_type("(a * a) -o b"), nat(2))
    expected = parse_term(
        "\\z -> \\y -> case z of [f] -> "
        "case (case y of (q, w) -> case (q, w) of ([u], [v]) -> [(u, v)]) of "
        "[u] -> [(f u)]")
    normalized = deep_normalize(comb.term)
    assert alpha_eq(normalized, expected)
    assert types_equal(comb.type,
                       parse_type("((a * a) -o b) [2] -o ((a [2] * a [2]) -o (b [2]))"))


def test_push_tyvar_is_identity():
    for sr, g in ((G.NAT_EXACT, nat(0)), (G.INTERVAL, G.grade_interval(1, 2))):
        comb = D.derive_push(TyVar("a"), g)
        assert alpha_eq(comb.term, parse_term("\\z -> z"))
        assert types_equal(comb.type, Fun(Box(g, TyVar("a")), Box(g, TyVar("a"))))


def test_push_side_condition():
    with pytest.raises(DeriveError) as exc:
        D.derive_push(parse_type("a + b"), nat(0))
    assert exc.value.code == "SIDE_CONDITION"
    # a box in the subject is rejected outright
    with pytest.raises(DeriveError) as exc:
        D.derive_push(parse_type("a [1]"), nat(2))
    assert exc.value.code == "BOX_IN_SUBJECT"


@pytest.mark.parametrize("subject, g", [
    ("a -o (a + Unit)", 0),
    ("a -o (mu X . Unit + (b * X))", 3),
    ("a -o (b -o (a + Unit))", 0),
    ("mu X . a -o (X * (Unit + Unit))", 0),  # the result's X is a sum too
])
def test_push_side_condition_at_function_results(subject, g):
    """push matches under the box at each function result it crosses, so a
    sum there needs 1 <= r as much as a sum at the top does."""
    t = parse_type(subject)
    with pytest.raises(DeriveError) as exc:
        D.derive_push(t, nat(g))
    assert exc.value.code == "SIDE_CONDITION"
    assert exc.value.grades == (nat(1), nat(g))
    assert D.derive_push(t, nat(1)).side_conditions == ("1 <= 1",)


def test_push_funfree_never_uses_pull():
    comb = D.derive_push(parse_type("(a + Unit) * a"), nat(1))
    assert not any(line.startswith("pull") for line in comb.trace)
    fun_comb = D.derive_push(parse_type("a -o b"), nat(2))
    assert any(line.startswith("pull") for line in fun_comb.trace)


def test_pull_meet_and_identity():
    rs = {"a": G.grade_interval(0, 2), "b": G.grade_interval(2, 4)}
    comb = D.derive_pull(parse_type("a * b", "interval"), rs, G.INTERVAL)
    assert types_equal(comb.type,
                       parse_type("(a [0..2] * b [2..4]) -o ((a * b) [2..2])",
                                  "interval"))

    with pytest.raises(DeriveError) as exc:
        D.derive_pull(parse_type("a * b"), {"a": nat(2), "b": nat(3)}, G.NAT_EXACT)
    assert exc.value.code == "MEET_UNDEFINED"
    assert len(exc.value.grades) == 2

    single = D.derive_pull(TyVar("a"), {"a": nat(5)}, G.NAT_EXACT)
    assert alpha_eq(single.term, parse_term("\\z -> z"))


def test_pull_rejections():
    with pytest.raises(DeriveError) as exc:
        D.derive_pull(parse_type("a -o b"), {"a": nat(1), "b": nat(1)}, G.NAT_EXACT)
    assert exc.value.code == "FUN_IN_SUBJECT"
    with pytest.raises(DeriveError) as exc:
        D.derive_pull(Base("Int"), {}, G.NAT_EXACT)
    assert exc.value.code == "BASE_IN_SUBJECT"
    with pytest.raises(DeriveError) as exc:
        D.derive_pull(parse_type("Unit + Unit"), {}, G.NAT_EXACT)
    assert exc.value.code == "NEEDS_ANNOTATION"  # no variables, no grade given


def test_pull_never_derives_under_fun():
    comb = D.derive_pull(parse_type("(a + Unit) * a"), {"a": nat(2)}, G.NAT_EXACT)
    assert not any("-o" in line for line in comb.trace)


def test_drop_examples():
    comb = D.derive_drop(parse_type("Int * Int"))
    expected = parse_term(
        "\\z -> case z of (x, y) -> "
        "case drop @Int x of unit -> case drop @Int y of unit -> unit")
    assert alpha_eq(comb.term, expected)
    assert deep_normalize(App(comb.term, pair(IntLit(7), IntLit(9)))) \
        == Con("unit", ())

    with pytest.raises(DeriveError) as exc:
        D.derive_drop(TyVar("a"))
    assert exc.value.code == "POLYMORPHIC_DROP"

    for bad, code in (("Res", "NOT_DROPPABLE"), ("Int -o Int", "NOT_DROPPABLE"),
                      ("Int [1]", "NOT_DROPPABLE")):
        with pytest.raises(DeriveError) as exc:
            D.derive_drop(parse_type(bad))
        assert exc.value.code == code


def test_drop_list_evaluates_to_unit():
    lst = parse_type("mu X . Unit + (Int * X)")
    comb = D.derive_drop(lst)
    value = parse_term("inr (7, inr (9, inl unit))")
    assert deep_normalize(App(comb.term, value)) == Con("unit", ())

    # oracle: structural traversal of the same value counts two ints dropped
    def ints_in(t):
        if isinstance(t, IntLit):
            return 1
        if isinstance(t, Con):
            return sum(ints_in(a) for a in t.args)
        return 0
    assert ints_in(value) == 2


def test_copyshape_examples():
    cs = D.derive_copyshape(parse_type("Int * Int"))
    assert types_equal(cs.type, parse_type("(Int * Int) -o ((Unit * Unit) * (Int * Int))"))
    out = deep_normalize(App(cs.term, pair(IntLit(1), IntLit(2))))
    assert pretty_term(out) == "((unit, unit), (1, 2))"

    unit_cs = D.derive_copyshape(parse_type("Unit"))
    out = deep_normalize(App(unit_cs.term, Con("unit", ())))
    assert pretty_term(out) == "(unit, unit)"


def test_copyshape_list_spine():
    lst = parse_type("mu X . Unit + (Int * X)")
    cs = D.derive_copyshape(lst)
    assert types_equal(
        cs.type,
        parse_type("(mu X . Unit + (Int * X)) -o "
                   "((mu X . Unit + (Unit * X)) * (mu X . Unit + (Int * X)))"))
    value = parse_term("inr (1, inr (2, inr (3, inl unit)))")
    out = deep_normalize(App(cs.term, value))
    assert pretty_term(out) == ("(inr (unit, inr (unit, inr (unit, inl unit))), "
                                "inr (1, inr (2, inr (3, inl unit))))")


def test_fmap_examples():
    fm = D.derive_fmap(parse_type("a * a"), "a", nat(2))
    expected = parse_term(
        "\\bf -> \\z -> case bf of [f] -> case z of (x, y) -> (f x, f y)")
    assert alpha_eq(fm.term, expected)

    # constant shape: grade must absorb zero uses
    D.derive_fmap(parse_type("Unit"), "a", nat(0))
    with pytest.raises(DeriveError) as exc:
        D.derive_fmap(parse_type("Unit"), "a", nat(1))
    assert exc.value.code == "SIDE_CONDITION"

    # standard list map under 0..Inf
    fml = D.derive_fmap(parse_type("mu X . Unit + (a * X)", "interval"), "a",
                        G.grade_interval(0, G.INF))
    mapped = App(App(fml.term, Promote(parse_term("\\n -> n"))),
                 parse_term("inr (1, inr (2, inl unit))"))
    assert pretty_term(deep_normalize(mapped)) == "inr (1, inr (2, inl unit))"

    # exact counting rejects branch-uneven subjects
    with pytest.raises(DeriveError) as exc:
        D.derive_fmap(parse_type("a + (a * a)"), "a", nat(1))
    assert exc.value.code == "SIDE_CONDITION"


def test_comonad_witnesses():
    eps = D.comonad_eps(Base("Int"), G.NAT_EXACT)
    assert deep_normalize(App(eps, Promote(IntLit(5)))) == IntLit(5)

    delta = D.comonad_delta(Base("Int"), nat(2), nat(3))
    out = deep_normalize(App(delta, Promote(IntLit(5))))
    assert pretty_term(out) == "[[5]]"
    assert types_equal(D.delta_type(Base("Int"), nat(2), nat(3)),
                       parse_type("(Int [6]) -o ((Int [3]) [2])"))

    r, s = G.grade_interval(0, 1), G.grade_interval(0, 2)
    assert D.delta_type(TyVar("a"), r, s).arg.grade == G.grade_interval(0, 2)


def test_comonad_witnesses_check_once_per_memo(monkeypatch):
    checks = []
    real = D._assert_checks
    monkeypatch.setattr(D, "_assert_checks", lambda *a: checks.append(a[3]) or real(*a))
    D.clear_memo()
    for _ in range(3):
        eps = D.comonad_eps(Base("Int"), G.NAT_EXACT)
        delta = D.comonad_delta(Base("Int"), nat(2), nat(3))
    assert checks == ["eps", "delta"]
    assert D.comonad_eps(Base("Int"), G.NAT_EXACT) is eps
    assert D.comonad_delta(Base("Int"), nat(2), nat(3)) is delta
    D.comonad_delta(Base("Int"), nat(3), nat(2))
    D.comonad_eps(Base("Int"), G.NAT_LE)
    assert checks == ["eps", "delta", "delta", "eps"]
    D.clear_memo()


def _built_nodes(t):
    """The term and pattern nodes of ``t`` in preorder, read through the
    fields they are built from."""
    out, todo = [], [t]
    while todo:
        x = todo.pop()
        if isinstance(x, tuple):
            todo.extend(reversed(x))
        elif isinstance(x, (Term, Pattern)):
            out.append(x)
            todo.extend(reversed([getattr(x, f.name) for f in fields(x)
                                  if f.init and f.name not in ("pos", "scrut_annot", "annot")]))
    return out


def test_derivations_share_patterns_and_variables():
    """Within one memo, derivations build each distinct pattern node and
    variable once; other term nodes are their own. ``clear_memo`` empties
    the table."""
    D.clear_memo()
    subject = parse_type("mu X . Unit + (a * X)")
    one, two = (D.derive_push(subject, nat(k, G.NAT_LE)).term for k in (1, 2))
    assert one is not two and one == two
    pairs = list(zip(_built_nodes(one), _built_nodes(two)))
    kinds = {type(x) for x, y in pairs if x is y}
    assert {PVar, PCon, PBox, Var} <= kinds and not kinds & {Case, Lam, App, LetRec}
    assert all(x is y for x, y in pairs if type(x) in (PVar, PCon, PBox, Var))
    assert D._shared
    D.clear_memo()
    assert not D._shared and not D._memo


def test_memoization_transparency():
    t = parse_type("(a + Unit) * a")
    one = D.derive_push(t, nat(1, G.NAT_LE))
    two = D.derive_push(t, nat(1, G.NAT_LE))
    assert one is two
    # distinct grades are distinct keys but structurally equal terms
    other = D.derive_push(t, nat(2, G.NAT_LE))
    assert alpha_eq(one.term, other.term)
    assert one.key_str().startswith("push@")


def test_derive_key_strings():
    comb = D.derive_pull(parse_type("a * b", "interval"),
                         {"a": G.grade_interval(0, 2), "b": G.grade_interval(2, 4)},
                         G.INTERVAL)
    assert comb.key_str() == "pull@a * b@interval@a=0..2,b=2..4"


def test_memo_concurrent_get_or_insert():
    import concurrent.futures
    t = parse_type("mu X . Unit + ((a + Unit) * X)", "nat-le")
    g = nat(2, G.NAT_LE)
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: D.derive_push(t, g), range(32)))
    assert all(r is results[0] for r in results)


def test_derivation_type_soundness_sample():
    from conftest import run_derivation_soundness
    assert run_derivation_soundness(60, seed=42) == 0


def test_derived_terms_reparse():
    import random
    from grlin import lawcheck as L
    rng = random.Random(17)
    for i in range(120):
        sr = L.SEMIRING_ROTATION[i % 4]
        cfg = L.TypeGenConfig(max_depth=3, allow_mu=True, allow_base=False,
                              tyvars=("a", "b")[: rng.randrange(3)])
        t = L.gen_type(cfg, rng)
        try:
            comb = D.derive_push(t, L._pick_push_grade(t, sr, rng))
        except DeriveError:
            continue
        printed = pretty_term(comb.term)
        assert alpha_eq(parse_term(printed, sr), comb.term), printed


def _golden_entries(text):
    return re.split(r"(?m)^(?=== )", text)[1:]


def test_derive_goldens():
    """Every derivation of the golden corpus prints as recorded; rewrite the
    file with ``tests/golden/gen_derive.py`` only for an intended change."""
    from golden import gen_derive
    want = _golden_entries(gen_derive.GOLDEN.read_text())
    got = gen_derive.entries()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"golden entry {i} differs"


def test_elaborate_untyped_builds_the_derived_term():
    """Run-time elaboration of a node the checker never saw builds the same
    term as the checked derivation. For fmap that holds where the subject
    alone tells the mapped variable: no other type variable occurs in it."""
    from golden import gen_derive
    accepted = 0
    for kind, t, sr, args in gen_derive.instances():
        if kind == "fmap" and not free_tyvars(t) <= {args[0]}:
            continue
        try:
            comb = gen_derive.derive(kind, t, args)
        except (DeriveError, RuntimeError):
            continue
        assert D.elaborate_untyped(kind, t) == comb.term, (kind, t)
        accepted += 1
    assert accepted > 700


def _derive_at(kind, subject):
    """derive ``kind`` at the subject with grade 1 wherever a grade is needed."""
    t = parse_type(subject)
    if kind == "push":
        return D.derive_push(t, nat(1))
    if kind == "pull":
        return D.derive_pull(t, {a: nat(1) for a in free_tyvars(t)}, G.NAT_EXACT, nat(1))
    if kind == "drop":
        return D.derive_drop(t)
    if kind == "copyShape":
        return D.derive_copyshape(t)
    return D.derive_fmap(t, "a", nat(1))


def _degenerate(kind, subject, mu):
    return pytest.param(lambda: _derive_at(kind, subject), "SIDE_CONDITION",
                        f"degenerate recursive type {mu} has no constructor structure",
                        id=f"{kind} @ {subject}")


@pytest.mark.parametrize("derive, code, message", [
    *(_degenerate(kind, subject, mu)
      for kind in ("push", "pull", "copyShape", "fmap")
      for subject, mu in (("mu X . a", "mu X . a"), ("mu X . X", "mu X . X"),
                          ("Unit * (mu X . a)", "mu X . a"))),
    _degenerate("drop", "mu X . X", "mu X . X"),
    _degenerate("drop", "Unit * (mu X . X)", "mu X . X"),
    pytest.param(lambda: D.derive_pull(parse_type("a * b"),
                                       {"a": nat(1), "b": G.grade_interval(0, 1)},
                                       G.NAT_EXACT),
                 "MIXED_SEMIRING", "grade for 'b' is from interval, expected nat-exact",
                 id="pull variable grade"),
    pytest.param(lambda: D.derive_pull(parse_type("a"), {"a": nat(1)}, G.NAT_EXACT,
                                       G.grade_interval(0, 1)),
                 "MIXED_SEMIRING", "result grade is from interval, expected nat-exact",
                 id="pull result grade"),
    pytest.param(lambda: D.derive_fmap(parse_type("a"), "a", G.grade_interval(0, 1),
                                       G.NAT_EXACT),
                 "MIXED_SEMIRING", "grade 0..1 is from interval, expected nat-exact",
                 id="fmap grade"),
])
def test_precondition_rows(derive, code, message):
    with pytest.raises(DeriveError) as exc:
        derive()
    assert (exc.value.code, exc.value.message) == (code, message)


@pytest.mark.parametrize("kind", ["push", "pull", "drop", "copyShape"])
def test_inner_mu_may_rebind_the_recursion_variable(kind):
    """An inner mu binding X again shadows the outer X only in its own body;
    the outer X after it still refers to the outer mu."""
    comb = _derive_at(kind, "mu X . Unit + ((mu X . Unit + X) * X)")
    assert comb.trace[-1] == f"{kind} @ X"


def test_fmap_maps_under_an_inner_mu_rebinding_the_recursion_variable():
    fm = D.derive_fmap(parse_type("mu X . Unit + ((mu X . Unit + (a * X)) * X)", "interval"),
                       "a", G.grade_interval(0, G.INF))
    value = parse_term("inr (inr (1, inl unit), inl unit)")
    out = deep_normalize(App(App(fm.term, Promote(parse_term("\\n -> n"))), value))
    assert pretty_term(out) == "inr (inr (1, inl unit), inl unit)"


def fmap_checks(t, alpha, g, sr):
    """The checker's verdict on fmap's term at grade ``g``, built by the
    walker: False where the mapped function's uses exceed the grade or have
    no upper bound, None where the walk itself refuses the subject."""
    w = D._Fmap(t, alpha, g, sr)
    try:
        w.preconditions(t, occurring(t))
        term, ctx = w.term(t)
    except DeriveError:
        return None
    try:
        Checker(sr).check({}, term, w.scheme(t, ctx))
    except CheckError as e:
        if e.diag.code not in (GRADE_EXCEEDED, NO_UPPER_BOUND):
            raise
        return False
    return True


def nested_subject(rng, depth, recvars=()):
    """A subject of Unit, Int, a and b leaves, products, sums and mus whose
    bodies may hold mus of their own, use the recursion variables of the
    mus around them, and bind the name of an outer mu again."""
    kinds = ["Unit", "Int", "a", "a", "b"] + ["rec"] * bool(recvars)
    if depth > 0:
        kinds += ["*", "+", "*", "+", "mu", "mu", "mu"]
    k = rng.choice(kinds)
    if k == "Unit":
        return Unit()
    if k == "Int":
        return Base("Int")
    if k in ("a", "b"):
        return TyVar(k)
    if k == "rec":
        return RecVar(rng.choice(recvars))
    if k == "mu":
        x = "XY"[len(recvars) % 2] if rng.random() < 0.7 else "X"
        return Mu(x, Sum(Unit(), nested_subject(rng, depth - 1, recvars + (x,))))
    return (Tensor if k == "*" else Sum)(nested_subject(rng, depth - 1, recvars),
                                         nested_subject(rng, depth - 1, recvars))


def test_fmap_grade_agrees_with_the_search():
    """The counted grade is the first of ``FMAP_GRADES`` at which the
    checker accepts fmap's term, as the law harness searched before it
    counted the grade, and there is none exactly where it accepts none; and
    at each grade, fmap is derived exactly where the checker accepts it."""
    rng = random.Random(21)
    cases = [(parse_type(src), sr) for src, sr in (
        ("mu X . Unit + ((mu Y . Unit + (a * Y)) * X)", G.INTERVAL),
        ("mu X . Unit + ((mu Y . Unit + (a * Y)) * X)", G.NAT_LE),
        ("mu X . Unit + ((mu X . Unit + (a * X)) * X)", G.ZERO_ONE_MANY),
        ("a + (a * a)", G.NAT_EXACT), ("a * a", G.NAT_EXACT), ("a * a", G.NAT_LE),
        ("Int * (a + Unit)", G.NAT_LE), ("mu X . a", G.INTERVAL))]
    while len(cases) < 2_000:
        sr = L.SEMIRING_ROTATION[len(cases) % 4]
        if len(cases) % 3:
            cfg = L.TypeGenConfig(max_depth=3, allow_mu=True, allow_base=rng.random() < 0.5,
                                  tyvars=("a", "b")[:rng.randrange(1, 3)])
            cases.append((L.gen_type(cfg, rng), sr))
        else:
            cases.append((Mu("X", Sum(Unit(), nested_subject(rng, 3, ("X",)))), sr))
    found = {None: 0}
    decisions = 0
    D.clear_memo()
    for t, sr in cases:
        pool = L.FMAP_GRADES[sr]
        verdicts = {g: fmap_checks(t, "a", g, sr) for g in dict.fromkeys(pool + L.GRADE_POOLS[sr])}
        expected = next((g for g in pool if verdicts[g]), None)
        assert D.fmap_grade(t, "a", pool) == expected, (pretty_type(t), sr)
        found[expected] = found.get(expected, 0) + 1
        for g, verdict in verdicts.items():
            try:
                D.derive_fmap(t, "a", g, sr)
                derived = True
            except DeriveError as e:
                assert e.code == D.SIDE_CONDITION, (pretty_type(t), sr, g, e)
                derived = False
            assert derived == bool(verdict), (pretty_type(t), sr, g, verdict)
            decisions += verdict is not None
    nested = sum(1 for t, _ in cases if mu_depth(t) > 1)
    assert found[None] > 300 and len(found) > 8 and nested > 200, (found, nested)
    assert decisions > 10_000, decisions


def mu_depth(t):
    """The greatest number of mus nested in ``t``."""
    parts = (getattr(t, n, None) for n in ("left", "right", "body"))
    return isinstance(t, Mu) + max((mu_depth(p) for p in parts if isinstance(p, Type)),
                                   default=0)


def test_trace_is_formatted_when_read(monkeypatch):
    """Deriving formats no type; ``trace`` prints the steps when it is read,
    the pull nested in push at a function type as ``pull @ ...``."""
    t = parse_type("(a -o (b + Unit)) * Int")
    g = nat(2, G.NAT_LE)
    expected = {"push": D.derive_push(t, g).trace,
                "pull": D.derive_pull(parse_type("a * (b + Unit)"), {"a": g, "b": g},
                                      G.NAT_LE).trace}
    D.clear_memo()

    def boom(ty):
        raise AssertionError(f"pretty_type({ty}) called while deriving")

    with monkeypatch.context() as m:
        m.setattr(D, "pretty_type", boom)
        push = D.derive_push(t, g)
        pull = D.derive_pull(parse_type("a * (b + Unit)"), {"a": g, "b": g}, G.NAT_LE)
    assert push.trace == expected["push"] and pull.trace == expected["pull"]
    assert push.trace[:4] == ("push @ (a -o b + Unit) * Int", "push @ a -o b + Unit",
                              "pull @ a", "push @ b + Unit")
