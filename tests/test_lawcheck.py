"""The law harness itself: generator sanity, determinism, small suite runs."""

import random

import pytest

from grlin import grades as G
from grlin import lawcheck as L
from grlin.parser import pretty_type
from grlin.syntax import Base, Box, Fun, Mu, occurring
from grlin.typecheck import Checker


def test_gen_type_respects_config():
    rng = random.Random(5)
    cfg = L.TypeGenConfig(max_depth=3, allow_fun=False, allow_mu=True,
                          allow_base=False, tyvars=("a",))
    saw_mu = False
    for _ in range(200):
        t = L.gen_type(cfg, rng)
        assert Fun not in occurring(t)
        assert Box not in occurring(t)
        saw_mu = saw_mu or isinstance(t, Mu)
    assert saw_mu  # list types are reachable when allow_mu


def test_gen_type_depth_one_leaves():
    rng = random.Random(6)
    cfg = L.TypeGenConfig(max_depth=0, allow_fun=False, allow_mu=False,
                          allow_base=True, tyvars=("a",))
    seen = {pretty_type(L.gen_type(cfg, rng)) for _ in range(100)}
    assert seen <= {"Unit", "a", "Int"}
    assert seen == {"Unit", "a", "Int"}


def test_gen_value_checks_at_its_type():
    rng = random.Random(7)
    cfg = L.TypeGenConfig(max_depth=3, allow_mu=True, allow_base=True, tyvars=())
    for _ in range(150):
        t = L.gen_type(cfg, rng)
        v = L.gen_value(t, rng)
        Checker(G.NAT_LE).check({}, v, t)  # generator self-check


def test_gen_value_boxes_and_lists():
    rng = random.Random(8)
    boxed = L.gen_value(Box(G.grade_nat(2), Base("Int")), rng)
    Checker(G.NAT_EXACT).check({}, boxed, Box(G.grade_nat(2), Base("Int")))
    lst = L.gen_value(L.gen_type(
        L.TypeGenConfig(max_depth=2, allow_mu=True, tyvars=()), rng), rng)
    assert lst is not None


def test_int_fn_total_on_carrier():
    rng = random.Random(9)
    fn = L.gen_int_fn(rng)
    Checker(G.NAT_EXACT).check({}, fn, Fun(Base("Int"), Base("Int")))
    from grlin.evaluator import deep_normalize
    from grlin.syntax import App, IntLit
    for i in range(10):
        out = deep_normalize(App(fn, IntLit(i)))
        assert isinstance(out, IntLit)


@pytest.mark.parametrize("suite", L.SUITES)
def test_small_suites_pass(suite):
    rep = L.run_suite(suite, cases=25, seed=3)
    assert rep.failures == [], [f.detail for f in rep.failures]


def test_reports_deterministic():
    a = L.run_suite("inverses", cases=40, seed=11)
    b = L.run_suite("inverses", cases=40, seed=11)
    assert [f.detail for f in a.failures] == [f.detail for f in b.failures]
    assert a.cases == b.cases


def test_single_case_rerun():
    rep = L.run_suite("naturality", cases=50, seed=7, only_case=17)
    assert rep.failures == []


def test_report_formatting():
    reports = [L.run_suite("equational", cases=7, seed=1)]
    text = L.format_reports(reports)
    assert "suite" in text and "equational" in text and "7" in text


def test_inverse_single_instance_hand_oracle():
    # pull(push [(1, 2)]) at a * a, nat-exact grade 2, reduced by hand:
    #   push [(1,2)] -> ([1], [2]); pull ([1], [2]) -> [(1, 2)]
    from grlin import deriving as D
    from grlin.evaluator import deep_normalize
    from grlin.parser import parse_term, parse_type, pretty_term
    from grlin.syntax import App
    t = parse_type("a * a")
    r = G.grade_nat(2)
    push = D.derive_push(t, r)
    pull = D.derive_pull(t, {"a": r}, G.NAT_EXACT)
    v = parse_term("[(1, 2)]")
    pushed = deep_normalize(App(push.term, v))
    assert pretty_term(pushed) == "([1], [2])"
    back = deep_normalize(App(pull.term, pushed))
    assert pretty_term(back) == "[(1, 2)]"
    # and the other direction from ([1], [2])
    w = parse_term("([1], [2])")
    assert pretty_term(deep_normalize(App(push.term, App(pull.term, w)))) \
        == "([1], [2])"


def test_naturality_single_instance_hand_oracle():
    # fmap (box f) (push [(1,2)]) = push (box (fmap f) [(1,2)]) where f is
    # the successor table; both sides reduce to ([2], [3])
    from grlin import deriving as D
    from grlin.evaluator import deep_normalize
    from grlin.parser import parse_term, parse_type, pretty_term
    from grlin.syntax import App, IntLit, Lam, Case, Var, Promote
    from grlin.syntax import PInt as P_
    t = parse_type("a * a")
    r = G.grade_nat(2)
    push = D.derive_push(t, r)
    fm = D.derive_fmap(t, "a", r)
    succ = Lam("n", Case(Var("n"), tuple((P_(i), IntLit(i + 1)) for i in range(10))))
    v = parse_term("[(1, 2)]")
    lhs = App(App(fm.term, Promote(L.box_lift(succ))), App(push.term, v))
    rhs = App(push.term, App(L.box_lift(App(fm.term, Promote(succ))), v))
    assert pretty_term(deep_normalize(lhs)) == "([2], [3])"
    assert pretty_term(deep_normalize(rhs)) == "([2], [3])"


def test_delta_pentagon_single_instance_hand_oracle():
    # at a * a with r=2, s=3: both pentagon legs send [(1,2)] to ([[1]], [[2]])
    from grlin import deriving as D
    from grlin.evaluator import deep_normalize
    from grlin.parser import parse_term, parse_type, pretty_term
    from grlin.syntax import App, Promote
    t = parse_type("a * a")
    r, s = G.grade_nat(2), G.grade_nat(3)
    rs_prod = G.sr_mul(r, s)
    push_rs = D.derive_push(t, rs_prod)
    push_r = D.derive_push(t, r)
    push_s = D.derive_push(t, s)
    fm = D.derive_fmap(t, "a", G.grade_nat(2))
    delta_f = D.comonad_delta(parse_type("Int * Int"), r, s)
    delta_int = D.comonad_delta(Base("Int"), r, s)
    v = parse_term("[(1, 2)]")
    lhs = App(App(fm.term, Promote(delta_int)), App(push_rs.term, v))
    rhs = App(push_r.term, App(L.box_lift(push_s.term), App(delta_f, v)))
    assert pretty_term(deep_normalize(lhs)) == "([[1]], [[2]])"
    assert pretty_term(deep_normalize(rhs)) == "([[1]], [[2]])"


def test_harness_detects_a_broken_combinator(monkeypatch):
    # corrupt pull into the identity; the inverse suite must notice
    from grlin import deriving as D
    from grlin.parser import parse_term
    real = D.derive_pull

    def broken(subject, rs, semiring, default_grade=None):
        comb = real(subject, rs, semiring, default_grade=default_grade)
        return D.DerivedCombinator(comb.kind, comb.subject, comb.semiring,
                                   comb.grades, parse_term("\\z -> z"),
                                   comb.type, comb.side_conditions, comb.steps)

    monkeypatch.setattr(D, "derive_pull", broken)
    rep = L.run_suite("inverses", cases=30, seed=4)
    assert rep.failures, "the corrupted combinator went undetected"
    assert rep.failures[0].detail.startswith("pull(push v) != v at ")
    assert rep.failures[0].repro(4).startswith(
        "grlin laws --suite inverses --seed 4 --case ")


def test_an_exception_inside_a_case_is_a_reported_failure(monkeypatch, capsys):
    from grlin import deriving as D
    from grlin.cli import main

    def broken(subject, r):
        raise RuntimeError("internal: planted")

    monkeypatch.setattr(D, "derive_push", broken)
    rep = L.run_suite("inverses", cases=3)
    assert [f.detail for f in rep.failures] == \
        ["exception: RuntimeError: internal: planted"] * 3
    assert main(["laws", "--suite", "inverses", "--cases", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["inverses", "3", "3"]
    assert out[2] == ("grlin laws --suite inverses --seed 7 --case 0  -- "
                      "exception: RuntimeError: internal: planted")


def test_every_law_equation_is_compared(monkeypatch):
    calls = []
    real = L._agree

    def counting(lhs, rhs):
        calls.append((lhs, rhs))
        return real(lhs, rhs)

    monkeypatch.setattr(L, "_agree", counting)
    counts = {}
    for suite in L.SUITES:
        calls.clear()
        assert L.run_suite(suite, cases=50, seed=7).failures == []
        counts[suite] = len(calls)
    assert counts == {"inverses": 100, "naturality": 100, "preservation": 200,
                      "equational": 50}


def test_suite_coverage_is_diverse():
    # the inverse suite must actually visit recursive subjects, multi-variable
    # subjects, and all four semirings
    semirings = set()
    saw_mu = saw_two_vars = False
    for i in range(120):
        rng = L.case_rng("inverses", L.DEFAULT_SEED, i)
        sr = L.SEMIRING_ROTATION[i % 4]
        semirings.add(sr)
        cfg = L.TypeGenConfig(max_depth=L.DEFAULT_DEPTH, allow_fun=False,
                              allow_mu=True, allow_base=False,
                              tyvars=("a", "b")[: rng.randrange(3)])
        t = L.gen_type(cfg, rng)
        from grlin.syntax import free_tyvars
        saw_mu = saw_mu or Mu in occurring(t)
        saw_two_vars = saw_two_vars or len(free_tyvars(t)) == 2
    assert semirings == set(L.SEMIRING_ROTATION)
    assert saw_mu and saw_two_vars
