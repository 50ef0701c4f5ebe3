"""Type utilities: constructor counting, unrolling, alpha-equivalence,
free variables and capture-avoiding substitution."""

import copy
import dataclasses
import pickle
import random

import pytest

from conftest import rand_term, rand_type
from grlin import grades as G
from grlin import lawcheck as L
from grlin import typecheck as T
from grlin.parser import parse_term, parse_type, pretty_term
from grlin.syntax import (
    App, Base, Box, Case, Con, Derive, Fun, INT, IntLit, Lam, LetRec, Mu,
    PBox, PCon, PInt, Pos, Promote, PVar, PWild, RecVar, Sum, Tensor, Term,
    TyVar, UNIT, Unit, Var, alpha_eq, check_wellformed, free_recvars,
    free_tyvars, free_vars, IllFormedType, multi_constructor, NotAMu,
    pattern_vars, subst_recvar, subst_term, subst_tyvars, Type, types_equal,
    unroll_mu,
)


def count_oracle(t, depth=3):
    """Bounded-unrolling evaluation of the constructor-count equations with
    saturating arithmetic at 2; the independent check for multi_constructor."""
    if isinstance(t, Unit):
        return 1
    if isinstance(t, TyVar):
        return 1
    if isinstance(t, Base):
        return 2 if t.name == "Int" else 1
    if isinstance(t, RecVar):
        return 0
    if isinstance(t, Box):
        return count_oracle(t.body, depth)
    if isinstance(t, Sum):
        return min(2, 2 * (count_oracle(t.left, depth) + count_oracle(t.right, depth)))
    if isinstance(t, Tensor):
        return min(2, count_oracle(t.left, depth) * count_oracle(t.right, depth))
    if isinstance(t, Mu):
        if depth <= 0:
            return 0
        return count_oracle(unroll_mu(t), depth - 1)
    if hasattr(t, "arg"):  # Fun
        return 1
    raise AssertionError(t)


def test_multi_constructor_examples():
    a, b = TyVar("a"), TyVar("b")
    assert multi_constructor(Sum(a, b))
    assert not multi_constructor(Tensor(Unit(), Unit()))
    lists = parse_type("mu X . Unit + (a * X)")
    assert multi_constructor(lists)
    assert count_oracle(lists) > 1
    assert not multi_constructor(Tensor(a, b))
    assert multi_constructor(Base("Int"))
    assert not multi_constructor(Base("Res"))


def test_multi_constructor_agrees_with_bounded_oracle():
    rng = random.Random(11)
    for _ in range(1000):
        t = rand_type(5, G.NAT_EXACT, rng)
        assert multi_constructor(t) == (count_oracle(t) > 1), t


def test_multi_constructor_reuses_the_count_of_a_closed_node(monkeypatch):
    """Below a fresh unrolling, a closed inner mu answers from its cached
    count; its fixpoint does not run again."""
    from grlin import syntax
    inner = parse_type("mu Y . Unit + (Int * Y)")
    outer = Mu("X", Sum(UNIT, Tensor(inner, RecVar("X"))))
    assert multi_constructor(inner)
    walked = []
    count = syntax._count
    monkeypatch.setattr(syntax, "_count", lambda t, env: walked.append(t) or count(t, env))
    assert multi_constructor(unroll_mu(outer))
    assert inner in walked and inner.body not in walked


def test_unroll_mu_examples():
    assert unroll_mu(parse_type("mu X . Unit")) == Unit()
    lists = parse_type("mu X . Unit + (a * X)")
    assert unroll_mu(lists) == Sum(Unit(), Tensor(TyVar("a"), lists))
    fn = parse_type("mu X . X -o Unit")
    assert unroll_mu(fn) == parse_type("(mu X . X -o Unit) -o Unit")
    with pytest.raises(NotAMu):
        unroll_mu(Unit())


def test_unroll_preserves_free_variables():
    rng = random.Random(12)
    checked = 0
    while checked < 300:
        t = rand_type(4, G.NAT_LE, rng)
        if not isinstance(t, Mu):
            continue
        u = unroll_mu(t)
        assert free_tyvars(u) == free_tyvars(t)
        assert free_recvars(u) == free_recvars(t)
        checked += 1


def test_capture_avoiding_recvar_substitution():
    # substituting under a mu that binds a clashing name must rename
    outer = Mu("Y", Tensor(RecVar("X"), RecVar("Y")))
    value = RecVar("Y")
    result = subst_recvar(outer, "X", value)
    assert isinstance(result, Mu)
    assert result.var != "Y"
    assert free_recvars(result) == {"Y"}


def test_wellformedness():
    check_wellformed(parse_type("mu X . Unit + (a * X)"))
    with pytest.raises(IllFormedType):
        check_wellformed(RecVar("X"))


def test_alpha_eq_examples():
    assert alpha_eq(parse_term("\\x -> x"), parse_term("\\y -> y"))
    assert not alpha_eq(parse_term("\\x -> \\y -> x"), parse_term("\\a -> \\b -> b"))
    assert alpha_eq(parse_term("letrec f = \\x -> f x in f"),
                    parse_term("letrec g = \\z -> g z in g"))
    assert alpha_eq(parse_term("case z of [x] -> (x, x)"),
                    parse_term("case z of [w] -> (w, w)"))
    assert not alpha_eq(parse_term("case z of [x] -> (x, x)"),
                        parse_term("case z of [w] -> (w, unit)"))
    # free variables must match by name
    assert not alpha_eq(parse_term("x"), parse_term("y"))


def test_alpha_eq_is_equivalence():
    rng = random.Random(13)
    sample = [rand_term(3, rng, []) for _ in range(60)]
    for t in sample:
        assert alpha_eq(t, t)
    for t1 in sample[:20]:
        for t2 in sample[:20]:
            if alpha_eq(t1, t2):
                assert alpha_eq(t2, t1)
    for t1 in sample[:10]:
        for t2 in sample[:10]:
            for t3 in sample[:10]:
                if alpha_eq(t1, t2) and alpha_eq(t2, t3):
                    assert alpha_eq(t1, t3)


def test_types_equal_mu_binders():
    assert types_equal(parse_type("mu X . Unit + (a * X)"),
                       parse_type("mu Y . Unit + (a * Y)"))
    assert not types_equal(parse_type("mu X . Unit + (a * X)"),
                           parse_type("mu Y . Unit + (b * Y)"))


def test_alpha_eq_shadowing_keeps_levels_apart():
    # the inner x shadows the outer one: the body refers to the third binder,
    # while the right-hand body refers to the second
    assert not alpha_eq(parse_term("\\x -> \\x -> \\a -> a"),
                        parse_term("\\p -> \\q -> \\b -> q"))
    assert alpha_eq(parse_term("\\x -> \\x -> x"), parse_term("\\p -> \\q -> q"))
    assert not alpha_eq(parse_term("\\x -> \\x -> x"), parse_term("\\p -> \\q -> p"))


def de_bruijn(t, env=()):
    """Nameless form: a bound variable becomes its distance to its binder,
    a free one keeps its name. Independent of ``alpha_eq``."""
    if isinstance(t, Var):
        for i, x in enumerate(reversed(env)):
            if x == t.name:
                return ("bound", i)
        return ("free", t.name)
    if isinstance(t, App):
        return ("app", de_bruijn(t.fn, env), de_bruijn(t.arg, env))
    if isinstance(t, Lam):
        return ("lam", de_bruijn(t.body, env + (t.var,)))
    if isinstance(t, Promote):
        return ("box", de_bruijn(t.body, env))
    if isinstance(t, Con):
        return ("con", t.con, tuple(de_bruijn(a, env) for a in t.args))
    if isinstance(t, IntLit):
        return ("int", t.value)
    if isinstance(t, Derive):
        return ("derive", t.kind, t.at)
    if isinstance(t, LetRec):
        inner = env + (t.var,)
        return ("letrec", de_bruijn(t.bound, inner), de_bruijn(t.body, inner))
    assert isinstance(t, Case)
    return ("case", de_bruijn(t.scrutinee, env), tuple(
        (nameless_pattern(p), de_bruijn(b, env + tuple(pattern_vars(p))))
        for p, b in t.branches))


def nameless_pattern(p):
    if isinstance(p, PVar):
        return "var"
    if isinstance(p, PBox):
        return ("box", nameless_pattern(p.pat))
    if isinstance(p, PCon):
        return (p.con, tuple(nameless_pattern(a) for a in p.args))
    return p  # PWild and PInt carry no names


def rename_binders(t, rng, names, env=None):
    """Give every binder a name drawn from the small pool ``names`` (distinct
    within a pattern), and rename its bound occurrences to match. Free
    variables keep their names, so a draw may capture one, or an outer
    binder's occurrence."""
    env = env or {}
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    if isinstance(t, App):
        return App(rename_binders(t.fn, rng, names, env),
                   rename_binders(t.arg, rng, names, env))
    if isinstance(t, Lam):
        y = rng.choice(names)
        return Lam(y, rename_binders(t.body, rng, names, {**env, t.var: y}))
    if isinstance(t, Promote):
        return Promote(rename_binders(t.body, rng, names, env))
    if isinstance(t, Con):
        return Con(t.con, tuple(rename_binders(a, rng, names, env) for a in t.args))
    if isinstance(t, LetRec):
        y = rng.choice(names)
        inner = {**env, t.var: y}
        return LetRec(y, rename_binders(t.bound, rng, names, inner),
                      rename_binders(t.body, rng, names, inner))
    if isinstance(t, Case):
        branches = []
        for p, b in t.branches:
            mapping = {}
            p2 = _rename_pattern_vars(p, rng, names, mapping)
            branches.append((p2, rename_binders(b, rng, names, {**env, **mapping})))
        return Case(rename_binders(t.scrutinee, rng, names, env), tuple(branches))
    return t


def _rename_pattern_vars(p, rng, names, mapping):
    if isinstance(p, PVar):
        # the pattern's own name is there for when the pool runs out
        y = rng.choice([n for n in names + [p.name] if n not in mapping.values()])
        mapping[p.name] = y
        return PVar(y)
    if isinstance(p, PBox):
        return PBox(_rename_pattern_vars(p.pat, rng, names, mapping))
    if isinstance(p, PCon):
        return PCon(p.con, tuple(_rename_pattern_vars(a, rng, names, mapping)
                                 for a in p.args))
    return p


def rescope(t, rng, env=()):
    """Point about half of the bound occurrences at another binder in scope."""
    if isinstance(t, Var):
        if t.name in env and rng.random() < 0.5:
            return Var(rng.choice(env))
        return t
    if isinstance(t, App):
        return App(rescope(t.fn, rng, env), rescope(t.arg, rng, env))
    if isinstance(t, Lam):
        return Lam(t.var, rescope(t.body, rng, env + (t.var,)))
    if isinstance(t, Promote):
        return Promote(rescope(t.body, rng, env))
    if isinstance(t, Con):
        return Con(t.con, tuple(rescope(a, rng, env) for a in t.args))
    if isinstance(t, LetRec):
        inner = env + (t.var,)
        return LetRec(t.var, rescope(t.bound, rng, inner), rescope(t.body, rng, inner))
    if isinstance(t, Case):
        return Case(rescope(t.scrutinee, rng, env), tuple(
            (p, rescope(b, rng, env + tuple(pattern_vars(p)))) for p, b in t.branches))
    return t


def test_alpha_eq_agrees_with_de_bruijn_equality():
    rng = random.Random(14)
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        t = rand_term(5, rng, ["p"])
        # two names for all binders: shadowing on nearly every path
        u1 = rename_binders(t, rng, ["p", "q"])
        u2 = rescope(rename_binders(t, rng, ["p", "q", "r"]), rng)
        same = de_bruijn(u1) == de_bruijn(u2)
        assert alpha_eq(u1, u2) == same, (u1, u2)
        assert alpha_eq(u2, u1) == same, (u2, u1)
        outcomes[same] += 1
    assert min(outcomes.values()) >= 200, outcomes
    # unrelated pairs: de Bruijn equality decides those too
    sample = [rand_term(2, rng, []) for _ in range(80)]
    for t1 in sample:
        for t2 in sample[:20]:
            assert alpha_eq(t1, t2) == (de_bruijn(t1) == de_bruijn(t2)), (t1, t2)


def first_binders(t):
    """The names bound by the outermost binder of ``t``."""
    if isinstance(t, (Lam, LetRec)):
        return [t.var]
    assert isinstance(t, Case)
    return pattern_vars(t.branches[0][0])


# (term, substitution, expected result up to alpha): each substituted value
# mentions a name that the term binds, so the binder must be renamed
CAPTURE_CASES = [
    ("\\y -> x y", {"x": "y"}, "\\z -> y z"),
    ("letrec f = \\n -> x f in f x", {"x": "f"}, "letrec g = \\n -> f g in g f"),
    ("case z of (a, b) -> (x, a)", {"x": "a"}, "case z of (c, b) -> (a, c)"),
    ("case z of [a] -> (a, x)", {"x": "(a, a_1)"}, "case z of [c] -> (c, (a, a_1))"),
]


@pytest.mark.parametrize("src,sub,expected", CAPTURE_CASES)
def test_subst_term_avoids_capture(src, sub, expected):
    t = parse_term(src)
    values = {k: parse_term(v) for k, v in sub.items()}
    result = subst_term(t, values)
    assert alpha_eq(result, parse_term(expected)), result
    captured = set().union(*(free_vars(v) for v in values.values()))
    renamed = [y for x, y in zip(first_binders(t), first_binders(result)) if x != y]
    assert renamed
    for y in renamed:
        assert y not in captured and y not in free_vars(t)


# (term, substitution, expected result): no binder is in the way
PLAIN_CASES = [
    ("(x, y)", {"x": "y", "y": "x"}, "(y, x)"),  # simultaneous, not in sequence
    ("\\a -> (x, (y, a))", {"x": "1", "y": "inl unit"}, "\\a -> (1, (inl unit, a))"),
    ("\\x -> (x, y)", {"x": "1", "y": "2"}, "\\x -> (x, 2)"),
    ("case y of [x] -> (x, y)", {"x": "1", "y": "z"}, "case z of [x] -> (x, z)"),
]


@pytest.mark.parametrize("src,sub,expected", PLAIN_CASES)
def test_subst_term_simultaneous(src, sub, expected):
    t = parse_term(src)
    result = subst_term(t, {k: parse_term(v) for k, v in sub.items()})
    assert result == parse_term(expected)


@pytest.mark.parametrize("src,sub", [
    ("\\x -> x", {"x": "1"}),                    # the key is bound
    ("letrec f = \\n -> f n in f", {"f": "unit"}),
    ("case z of (a, b) -> (a, b)", {"a": "1", "b": "2"}),
    ("(y, [1])", {"x": "y"}),                       # the key is absent
    ("case z of (a, b) -> (a, \\y -> y)", {"y": "a"}),
])
def test_subst_term_returns_untouched_term_itself(src, sub):
    t = parse_term(src)
    assert subst_term(t, {k: parse_term(v) for k, v in sub.items()}) is t


def test_subst_term_leaves_untouched_subterms_shared():
    t = parse_term("(x, \\y -> y)")
    result = subst_term(t, {"x": IntLit(1)})
    assert result.args[1] is t.args[1]


LISTS = "mu X . Unit + (a * X)"


@pytest.mark.parametrize("src,sub", [
    (LISTS, {"b": "Int"}),                          # the key is absent
    ("(a -o Unit) * (Int + Unit)", {}),
    ("mu X . Unit + ((mu X . Unit + X) * X)", {"a": "Int"}),
])
def test_subst_tyvars_returns_untouched_type_itself(src, sub):
    t = parse_type(src)
    assert subst_tyvars(t, {k: parse_type(v) for k, v in sub.items()}) is t


@pytest.mark.parametrize("t,name", [
    (parse_type(LISTS), "X"),                        # the name is bound
    (parse_type(LISTS).body, "Y"),                   # the name is absent
    (parse_type("mu Y . (mu X . Unit + (a * X)) -o Y").body, "X"),
    (Box(G.grade_nat(2), Tensor(RecVar("Y"), Unit())), "X"),
])
def test_subst_recvar_returns_untouched_type_itself(t, name):
    assert subst_recvar(t, name, parse_type(LISTS)) is t


def test_substitution_returns_a_type_without_the_variable_itself():
    """A type in which no substituted variable is free comes back as it is,
    and a mu binder is renamed only where something is substituted below
    it."""
    rng = random.Random(19)
    cfg = L.TypeGenConfig(max_depth=4, allow_fun=True, allow_mu=True, allow_base=True)
    for _ in range(300):
        t = L.gen_type(cfg, rng)
        absent = {"c": Base("Int"), **{a: UNIT for a in "ab" if a not in free_tyvars(t)}}
        assert subst_tyvars(t, absent) is t
        for s in subtypes(t):
            if isinstance(s, Mu):
                assert subst_recvar(s, s.var, UNIT) is s  # bound, not free
                assert subst_recvar(s.body, "Z", RecVar(s.var)) is s.body
    open_body = parse_type(LISTS).body
    # ``value`` mentions the binder of an inner mu that does not use X:
    # nothing is substituted there, so nothing is renamed
    inner = Mu("Y", Sum(UNIT, RecVar("Y")))
    t = Tensor(open_body, inner)
    result = subst_recvar(t, "X", RecVar("Y"))
    assert result.right is inner and result.left.right.right == RecVar("Y")


def test_cached_type_facts_equal_a_fresh_recomputation():
    """The facts cached on type nodes, shared between types that share
    nodes, equal what a walk of a freshly built copy computes."""
    rng = random.Random(20)
    cfg = L.TypeGenConfig(max_depth=4, allow_fun=True, allow_mu=True, allow_base=True)
    subjects = [L.gen_type(cfg, rng) for _ in range(300)]
    subjects += [rand_type(4, G.NAT_LE, rng) for _ in range(300)]
    subjects += [parse_type(src) for src in REBINDING]
    for t in subjects:
        # read facts of the parts first, then of types built from them
        derived = [t, unroll_mu(t) if isinstance(t, Mu) else t,
                   subst_tyvars(t, {"a": parse_type(LISTS)}), Fun(t, t)]
        for s in subtypes(t)[::-1] + derived:
            fresh = ref_subst_tyvars(s, {})  # a copy with every cache empty
            assert free_tyvars(s) == ref_free(fresh, TyVar), s
            assert free_recvars(s) == ref_free(fresh, RecVar), s
            assert multi_constructor(s) == multi_constructor(fresh), s
            assert isinstance(free_tyvars(s), frozenset)


def ref_free(t, cls, bound=frozenset()):
    """The names of the free ``cls`` nodes of ``t``, by a plain walk."""
    if isinstance(t, cls):
        return {t.name} - bound
    if isinstance(t, Mu):
        return ref_free(t.body, cls, bound | {t.var} if cls is RecVar else bound)
    return set().union(*(ref_free(c, cls, bound) for c in (
        getattr(t, f.name) for f in dataclasses.fields(t) if f.init) if isinstance(c, Type)))


def test_type_substitution_leaves_untouched_children_shared():
    t = parse_type("(a * Unit) + (b -o Unit)")
    result = subst_tyvars(t, {"a": Base("Int")})
    assert result.left.left == Base("Int")
    assert result.left.right is t.left.right and result.right is t.right
    lists = parse_type(LISTS)
    unrolled = unroll_mu(lists)                      # Unit + (a * lists)
    assert unrolled.left is lists.body.left
    assert unrolled.right.left is lists.body.right.left
    assert unrolled.right.right is lists


# Reference copies of the type utilities as they were before they shared
# untouched nodes: every node rebuilt, equality always walked in full. A mu
# binder is renamed only where the substitution would capture under it.

def ref_subst_tyvars(t, sub):
    if isinstance(t, TyVar):
        return sub.get(t.name, t)
    if isinstance(t, Fun):
        return Fun(ref_subst_tyvars(t.arg, sub), ref_subst_tyvars(t.res, sub))
    if isinstance(t, Tensor):
        return Tensor(ref_subst_tyvars(t.left, sub), ref_subst_tyvars(t.right, sub))
    if isinstance(t, Sum):
        return Sum(ref_subst_tyvars(t.left, sub), ref_subst_tyvars(t.right, sub))
    if isinstance(t, Box):
        return Box(t.grade, ref_subst_tyvars(t.body, sub))
    if isinstance(t, Mu):
        return Mu(t.var, ref_subst_tyvars(t.body, sub))
    return t


def ref_subst_recvar(t, name, value):
    if isinstance(t, RecVar):
        return value if t.name == name else t
    if isinstance(t, Fun):
        return Fun(ref_subst_recvar(t.arg, name, value), ref_subst_recvar(t.res, name, value))
    if isinstance(t, Tensor):
        return Tensor(ref_subst_recvar(t.left, name, value),
                      ref_subst_recvar(t.right, name, value))
    if isinstance(t, Sum):
        return Sum(ref_subst_recvar(t.left, name, value), ref_subst_recvar(t.right, name, value))
    if isinstance(t, Box):
        return Box(t.grade, ref_subst_recvar(t.body, name, value))
    if isinstance(t, Mu):
        if t.var == name:
            return t
        if t.var in free_recvars(value) and name in free_recvars(t.body):
            avoid = free_recvars(value) | free_recvars(t.body)
            fresh = next(f"{t.var}{i}" for i in range(1, len(avoid) + 2)
                         if f"{t.var}{i}" not in avoid)
            body = ref_subst_recvar(t.body, t.var, RecVar(fresh))
            return Mu(fresh, ref_subst_recvar(body, name, value))
        return Mu(t.var, ref_subst_recvar(t.body, name, value))
    return t


def ref_unroll_mu(t):
    return ref_subst_recvar(t.body, t.var, t)


def ref_types_equal(a, b):
    return ref_canonical(a) == ref_canonical(b)


def ref_canonical(t, env=None, depth=0):
    """``t`` with each mu binder renamed after its depth, a name that no
    parsed type uses."""
    env = env or {}
    if isinstance(t, RecVar):
        return RecVar(env.get(t.name, t.name))
    if isinstance(t, Mu):
        name = f"#{depth}"
        return Mu(name, ref_canonical(t.body, {**env, t.var: name}, depth + 1))
    if isinstance(t, Fun):
        return Fun(ref_canonical(t.arg, env, depth), ref_canonical(t.res, env, depth))
    if isinstance(t, (Tensor, Sum)):
        return type(t)(ref_canonical(t.left, env, depth), ref_canonical(t.right, env, depth))
    if isinstance(t, Box):
        return Box(t.grade, ref_canonical(t.body, env, depth))
    return t


# subjects in which a mu binds a name again, or binds one that a
# substituted value mentions
REBINDING = [
    "mu X . Unit + ((mu X . Unit + X) * X)",
    "mu X . Unit + (mu Y . Unit + (X * Y))",
    "mu Y . (mu X . Unit + (Y * X)) + (mu X . X -o Unit)",
    "mu X . mu Y . Unit + (X * (Y * (mu X . Unit + (X * Y))))",
    "mu Y . Unit + (mu X . Unit + (Y * X))",
    "mu X . Unit + (mu X . Unit + (X * X))",
]


def subtypes(t):
    """``t`` and every type inside it."""
    out, stack = [], [t]
    while stack:
        s = stack.pop()
        out.append(s)
        stack.extend(v for v in (getattr(s, f.name) for f in dataclasses.fields(s) if f.init)
                     if isinstance(v, Type))
    return out


def rename_mu_binders(t, suffix):
    """``t`` with every mu binder renamed apart, by the shared substitution."""
    if isinstance(t, Mu):
        body = rename_mu_binders(t.body, suffix)
        return Mu(t.var + suffix, subst_recvar(body, t.var, RecVar(t.var + suffix)))
    if isinstance(t, (Fun, Tensor, Sum, Box)):
        fields = {f.name: getattr(t, f.name) for f in dataclasses.fields(t) if f.init}
        return type(t)(**{k: rename_mu_binders(v, suffix) if isinstance(v, Type) else v
                          for k, v in fields.items()})
    return t


def test_type_utilities_agree_with_reference_copies():
    rng = random.Random(18)
    cfg = L.TypeGenConfig(max_depth=4, allow_fun=True, allow_mu=True, allow_base=True)
    subjects = [L.gen_type(cfg, rng) for _ in range(2_000)]
    subjects += [rand_type(4, G.NAT_LE, rng) for _ in range(300)]
    subjects += [parse_type(src) for src in REBINDING]
    two = G.grade_nat(2, G.NAT_LE)
    tyvar_subs = [{}, {"c": Unit()}, {"a": Box(two, TyVar("a"))},
                  {"a": Base("Int"), "b": parse_type(LISTS)}]
    mus = 0
    for i, t in enumerate(subjects):
        other = subjects[i - 1]
        for sub in tyvar_subs:
            assert subst_tyvars(t, sub) == ref_subst_tyvars(t, sub), (t, sub)
        names = {s.var for s in subtypes(t) if isinstance(s, Mu)} | {"X", "Z"}
        for s in subtypes(t):
            if not isinstance(s, Mu):
                continue
            mus += 1
            assert unroll_mu(s) == ref_unroll_mu(s), s
            for value in [s, Unit(), *map(RecVar, sorted(names))]:
                got = subst_recvar(s.body, s.var, value)
                assert got == ref_subst_recvar(s.body, s.var, value), (s, value)
            # the same body under a new binder: equal only if the old one is
            # not used; renamed in the body: equal, inner mus of the old name
            # stay shared
            y = s.var + "'"
            for b in (Mu(y, s.body), Mu(y, subst_recvar(s.body, s.var, RecVar(y)))):
                assert types_equal(s, b) == ref_types_equal(s, b), (s, b)
        copy = ref_subst_tyvars(t, {})
        renamed = rename_mu_binders(t, "'")
        pairs = [(t, t), (t, copy), (copy, t), (t, renamed), (renamed, t),
                 (t, other), (other, t), (t, subst_tyvars(t, tyvar_subs[3]))]
        if isinstance(t, Mu):
            pairs += [(t, unroll_mu(t)), (unroll_mu(t), ref_unroll_mu(t))]
        for a, b in pairs:
            assert types_equal(a, b) == ref_types_equal(a, b), (a, b)
            assert types_equal(a, b) == types_equal(b, a), (a, b)
        assert types_equal(t, renamed)
    assert mus >= 1_000


def test_free_vars_examples():
    assert free_vars(parse_term("\\x -> (x, y)")) == {"y"}
    assert free_vars(parse_term("letrec f = \\n -> f (n, g) in f h")) == {"g", "h"}
    assert free_vars(parse_term("case z of (a, b) -> (a, c) ; inl u -> u")) == {"z", "c"}
    assert free_vars(parse_term("[(1, unit)]")) == set()


def test_free_vars_agrees_with_de_bruijn_free_names():
    rng = random.Random(15)
    for _ in range(300):
        t = rand_term(4, rng, ["p", "q"])
        named = set()
        stack = [de_bruijn(t)]
        while stack:
            x = stack.pop()
            if isinstance(x, tuple) and x[:1] == ("free",):
                named.add(x[1])
            elif isinstance(x, tuple):
                stack.extend(x)
        assert free_vars(t) == named, t


def test_free_variable_cache_is_invisible():
    rng = random.Random(16)
    for _ in range(100):
        t = rand_term(3, rng, ["p"])
        filled, empty = (parse_term(pretty_term(t)) for _ in range(2))
        free_vars(filled)  # fills the cache of filled and its subterms only
        assert filled == empty and empty == filled
        assert hash(filled) == hash(empty)
        assert repr(filled) == repr(empty)
        assert "_fv" not in repr(filled)


# Every frozen node class: (class, the names ``dataclasses.fields`` lists,
# the compared constructor arguments, the arguments left out of ``==``,
# ``hash`` and ``repr``, and the ``repr`` pinned for the sample). A type
# node's fields start with its cached facts, which ``Type`` declares.
P1 = Pos("f.grm", 1, 2)
TWO = G.grade_nat(2)
FACTS = ("_ftv", "_frv", "_multi")
NODES = [
    (Fun, (*FACTS, "arg", "res"), {"arg": INT, "res": UNIT}, {},
     "Fun(arg=Base(name='Int'), res=Unit())"),
    (Tensor, (*FACTS, "left", "right"), {"left": TyVar("a"), "right": INT}, {},
     "Tensor(left=TyVar(name='a'), right=Base(name='Int'))"),
    (Sum, (*FACTS, "left", "right"), {"left": UNIT, "right": RecVar("X")}, {},
     "Sum(left=Unit(), right=RecVar(name='X'))"),
    (Unit, FACTS, {}, {}, "Unit()"),
    (Box, (*FACTS, "grade", "body"), {"grade": TWO, "body": TyVar("a")}, {},
     "Box(grade=Grade(semiring='nat-exact', value=2), body=TyVar(name='a'))"),
    (TyVar, (*FACTS, "name"), {"name": "a"}, {}, "TyVar(name='a')"),
    (RecVar, (*FACTS, "name"), {"name": "X"}, {}, "RecVar(name='X')"),
    (Mu, (*FACTS, "var", "body"), {"var": "X", "body": Sum(UNIT, RecVar("X"))}, {},
     "Mu(var='X', body=Sum(left=Unit(), right=RecVar(name='X')))"),
    (Base, (*FACTS, "name"), {"name": "Res"}, {}, "Base(name='Res')"),
    (PVar, ("name", "pos"), {"name": "x"}, {"pos": P1}, "PVar(name='x')"),
    (PWild, ("pos",), {}, {"pos": P1}, "PWild()"),
    (PBox, ("pat", "pos"), {"pat": PVar("x")}, {"pos": P1}, "PBox(pat=PVar(name='x'))"),
    (PCon, ("con", "args", "pos"), {"con": ",", "args": (PWild(), PInt(3))}, {"pos": P1},
     "PCon(con=',', args=(PWild(), PInt(value=3)))"),
    (PInt, ("value", "pos"), {"value": -4}, {"pos": P1}, "PInt(value=-4)"),
    (Var, ("name", "pos", "_fv"), {"name": "x"}, {"pos": P1}, "Var(name='x')"),
    (App, ("fn", "arg", "pos", "_fv"), {"fn": Var("f"), "arg": IntLit(1)}, {"pos": P1},
     "App(fn=Var(name='f'), arg=IntLit(value=1))"),
    (Lam, ("var", "body", "pos", "_fv"), {"var": "x", "body": Var("y")}, {"pos": P1},
     "Lam(var='x', body=Var(name='y'))"),
    (Promote, ("body", "pos", "_fv"), {"body": Var("x")}, {"pos": P1},
     "Promote(body=Var(name='x'))"),
    (Con, ("con", "args", "pos", "_fv"), {"con": "inl", "args": (Var("x"),)}, {"pos": P1},
     "Con(con='inl', args=(Var(name='x'),))"),
    (Case, ("scrutinee", "branches", "pos", "scrut_annot", "_fv"),
     {"scrutinee": Var("x"), "branches": ((PVar("y"), Var("z")),)},
     {"pos": P1, "scrut_annot": INT},
     "Case(scrutinee=Var(name='x'), branches=((PVar(name='y'), Var(name='z')),))"),
    (LetRec, ("var", "bound", "body", "pos", "annot", "_fv"),
     {"var": "f", "bound": Var("f"), "body": Var("g")}, {"pos": P1, "annot": INT},
     "LetRec(var='f', bound=Var(name='f'), body=Var(name='g'))"),
    (Derive, ("kind", "at", "pos", "_fv"), {"kind": "push", "at": TyVar("a")}, {"pos": P1},
     "Derive(kind='push', at=TyVar(name='a'))"),
    (IntLit, ("value", "pos", "_fv"), {"value": 7}, {"pos": P1}, "IntLit(value=7)"),
    (G.Grade, ("semiring", "value"), {"semiring": G.INTERVAL, "value": (0, G.INF)}, {},
     "Grade(semiring='interval', value=(0, inf))"),
    (T.Linear, ("type",), {"type": INT}, {}, "Linear(type=Base(name='Int'))"),
    (T.Graded, ("type", "grade"), {"type": TyVar("a"), "grade": TWO}, {},
     "Graded(type=TyVar(name='a'), grade=Grade(semiring='nat-exact', value=2))"),
    (T.RecRef, ("type",), {"type": Fun(INT, INT)}, {},
     "RecRef(type=Fun(arg=Base(name='Int'), res=Base(name='Int')))"),
]


@pytest.mark.parametrize("cls,names,args,hidden,shown", NODES,
                         ids=[entry[0].__name__ for entry in NODES])
def test_node_semantics(cls, names, args, hidden, shown):
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    node = cls(**args)
    assert node == cls(*args.values()) and repr(node) == shown
    for name in ("pos", "scrut_annot", "annot", "_fv"):
        if name in names:
            assert getattr(node, name) is None
    for name in FACTS:
        if name in names:
            assert not hasattr(node, name)  # empty until read
    full = cls(**args, **hidden)
    assert full == cls(*args.values(), *hidden.values())
    for name, value in hidden.items():
        assert getattr(full, name) is value
    if isinstance(full, Term):
        free_vars(full)
        assert full._fv is not None
    if isinstance(full, Type):
        free_tyvars(full), multi_constructor(full)
        assert all(hasattr(full, name) for name in FACTS)
    for a, b in ((node, full), (full, node)):
        assert a == b and hash(a) == hash(b) and repr(a) == shown
    for a in (node, full):
        assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)
