"""Property suites for the derived combinators.

Each suite draws (type, grade, value) instances from seeded generators and
compares both sides of a law as deep normal forms under the evaluator:

* ``inverses``     -- pull after push and push after pull are identities
* ``naturality``   -- push/pull commute with the covariant morphism mapping
* ``preservation`` -- push/pull preserve the graded-comonad counit and
                      comultiplication
* ``equational``   -- the non-beta equations hold extensionally

Cases are reproducible: case ``k`` of a suite at seed ``s`` draws from a
generator seeded with the string ``"<suite>:<s>:<k>"``.
"""

from __future__ import annotations

import random

from . import deriving, grades
from .deriving import DeriveError
from .evaluator import Evaluator, Fuel, FuelExhausted, StuckTerm
from .frozen import frozen
from .grades import Grade, INF
from .parser import pretty_term, pretty_type
from .syntax import (
    App, Base, Box, Case, Con, Fun, IntLit, Lam, LetRec, Mu, PBox, PCon,
    PInt, Promote, PVar, RecVar, Sum, Tensor, Term, TyVar, Type, Unit, Var,
    alpha_eq, free_tyvars, occurring, pair, subst_term, subst_tyvars, unroll_mu,
)

SUITES = ("inverses", "naturality", "preservation", "equational")
DEFAULT_SEED = 7
DEFAULT_CASES = {"inverses": 500, "naturality": 200, "preservation": 200,
                 "equational": 200}
DEFAULT_DEPTH = 3
# The generated types and values grow exponentially with the depth:
# ``grlin laws --cases 20`` takes 0.8 s at depth 8, 1.6 s at 12 and 5.7 s
# at 16 on a 2-core VM.
MAX_DEPTH = 16
CASE_FUEL = 60_000
GEN_RETRIES = 60

SEMIRING_ROTATION = (grades.NAT_EXACT, grades.NAT_LE, grades.INTERVAL,
                     grades.ZERO_ONE_MANY)

GRADE_POOLS = {
    grades.NAT_EXACT: [grades.grade_nat(n, grades.NAT_EXACT) for n in (0, 1, 2, 3)],
    grades.NAT_LE: [grades.grade_nat(n, grades.NAT_LE) for n in (0, 1, 2, 3)],
    grades.INTERVAL: [grades.grade_interval(lo, hi) for lo, hi in
                      ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (0, 2), (2, 4),
                       (0, INF), (1, INF))],
    grades.ZERO_ONE_MANY: [grades.grade_zom(v) for v in (0, 1, 2)],
}

# fmap's function-argument grades, in the order ``_derive_fmap`` takes them
FMAP_GRADES = {
    grades.NAT_EXACT: [grades.grade_nat(n, grades.NAT_EXACT) for n in range(0, 9)],
    grades.NAT_LE: [grades.grade_nat(n, grades.NAT_LE) for n in (8, 4, 2, 1, 0)],
    grades.INTERVAL: [grades.grade_interval(0, INF)],
    grades.ZERO_ONE_MANY: [grades.grade_zom(grades.ZOM_MANY)],
}


@frozen
class TypeGenConfig:
    max_depth: int = DEFAULT_DEPTH
    allow_fun: bool = False
    allow_mu: bool = True
    allow_base: bool = False
    tyvars: tuple[str, ...] = ("a", "b")


@frozen
class LawFailure:
    suite: str
    index: int
    detail: str

    def repro(self, seed: int) -> str:
        return (f"grlin laws --suite {self.suite} --seed {seed} "
                f"--case {self.index}  -- {self.detail}")


@frozen
class LawReport:
    suite: str
    cases: int
    seed: int
    failures: list[LawFailure]
    notes: tuple[str, ...] = ()


def case_rng(suite: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{suite}:{seed}:{index}")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_type(cfg: TypeGenConfig, rng: random.Random, depth: int | None = None) -> Type:
    """A well-formed, inhabited type within the config.
    Recursive types are list-shaped (nil + element-cons) so bounded values
    always exist."""
    depth = cfg.max_depth if depth is None else depth
    leaves: list = [Unit()]
    leaves += [TyVar(v) for v in cfg.tyvars]
    if cfg.allow_base:
        leaves.append(Base("Int"))
    if depth <= 0:
        return rng.choice(leaves)
    kinds = ["leaf", "tensor", "sum"]
    if cfg.allow_mu:
        kinds.append("mu")
    if cfg.allow_fun:
        kinds.append("fun")
    kind = rng.choice(kinds)
    if kind == "leaf":
        return rng.choice(leaves)
    if kind == "tensor":
        return Tensor(gen_type(cfg, rng, depth - 1), gen_type(cfg, rng, depth - 1))
    if kind == "sum":
        return Sum(gen_type(cfg, rng, depth - 1), gen_type(cfg, rng, depth - 1))
    if kind == "fun":
        return Fun(gen_type(cfg, rng, depth - 1), gen_type(cfg, rng, depth - 1))
    elem = gen_type(TypeGenConfig(cfg.max_depth, False, False, cfg.allow_base, cfg.tyvars),
                    rng, depth - 1)
    return Mu("X", Sum(Unit(), Tensor(elem, RecVar("X"))))


class Uninhabitable(Exception):
    pass


def gen_value(a: Type, rng: random.Random, depth: int = 6) -> Term:
    """A closed normal form of the given (variable-free) type.

    The depth budget bounds list-like recursive values to a few elements. A
    type with no value within it, such as a product nested more deeply,
    gets one within the least budget that has one; a type with no value at
    all raises ``Uninhabitable``."""
    try:
        return _draw(a, rng, depth)
    except Uninhabitable:
        least = _least_budget(a)
        if least == INF:
            raise
        return _draw(a, rng, least)


def _draw(a: Type, rng: random.Random, depth: int) -> Term:
    """A value of ``a`` within the depth budget. The search tries both sides
    of every sum, so it fails only when no value fits the budget. With a
    budget of 1 or less left, a sum tries first the side that needs less."""
    if isinstance(a, Unit):
        return Con("unit", ())
    if isinstance(a, Base):
        if a.name != "Int":
            raise Uninhabitable("Res has no closed values")
        return IntLit(rng.randrange(10))
    if depth < 0:
        raise Uninhabitable(pretty_type(a))
    if isinstance(a, Tensor):
        return pair(_draw(a.left, rng, depth - 1),
                    _draw(a.right, rng, depth - 1))
    if isinstance(a, Sum):
        options = [("inl", a.left), ("inr", a.right)]
        rng.shuffle(options)
        if depth <= 1:
            options.sort(key=lambda opt: _least_budget(opt[1]))
        for con, side in options:
            try:
                return Con(con, (_draw(side, rng, depth - 1),))
            except Uninhabitable:
                continue
        raise Uninhabitable(pretty_type(a))
    if isinstance(a, Box):
        return Promote(_draw(a.body, rng, depth - 1))
    if isinstance(a, Mu):
        return _draw(unroll_mu(a), rng, depth - 1)
    raise Uninhabitable(pretty_type(a))


def _least_budget(a: Type, env: dict[str, float] | None = None) -> float:
    """The least depth budget within which ``_draw`` finds a value of ``a``:
    -1 for a leaf, which takes any budget, and ``INF`` if ``a`` has no
    value. A recursive type's budget is the least fixed point of its
    unrolling, reached from ``INF``."""
    env = env or {}
    if isinstance(a, Unit) or isinstance(a, Base) and a.name == "Int":
        return -1
    if isinstance(a, Tensor):
        return max(0, 1 + _least_budget(a.left, env), 1 + _least_budget(a.right, env))
    if isinstance(a, Sum):
        return max(0, 1 + min(_least_budget(a.left, env), _least_budget(a.right, env)))
    if isinstance(a, Box):
        return max(0, 1 + _least_budget(a.body, env))
    if isinstance(a, RecVar):
        return env.get(a.name, INF)
    if isinstance(a, Mu):
        cur = INF
        while (nxt := max(0, 1 + _least_budget(a.body, {**env, a.var: cur}))) < cur:
            cur = nxt
        return cur
    return INF


def gen_int_fn(rng: random.Random) -> Term:
    """A total function on the generated Int carrier 0..9, as a literal table."""
    table = [rng.randrange(10) for _ in range(10)]
    branches = tuple((PInt(i), IntLit(table[i])) for i in range(10))
    return Lam("n", Case(Var("n"), branches))


def box_lift(fn: Term) -> Term:
    """The graded-box functor action on morphisms."""
    return Lam("bx", Case(Var("bx"), ((PBox(PVar("by")), Promote(App(fn, Var("by")))),)))


def instantiate(t: Type, at: Type | None = None) -> Type:
    at = at or Base("Int")
    return subst_tyvars(t, {a: at for a in free_tyvars(t)})


def _nf(t: Term) -> Term:
    return Evaluator(Fuel(CASE_FUEL)).normalize(t, deep=True)


def _agree(lhs: Term, rhs: Term) -> str | None:
    """None when both sides share a deep normal form, else a description
    carrying the two normal forms."""
    left, right = _nf(lhs), _nf(rhs)
    if alpha_eq(left, right):
        return None
    return f"lhs => {pretty_term(left)}, rhs => {pretty_term(right)}"


def _pick_push_grade(t: Type, sr: str, rng: random.Random) -> Grade:
    pool = GRADE_POOLS[sr]
    if deriving._push_matches(t, occurring(t)):
        one = grades.one(sr)
        pool = [g for g in pool if grades.sr_leq(one, g)]
    return rng.choice(pool)


def _derive_fmap(t: Type, alpha: str, sr: str) -> deriving.DerivedCombinator | None:
    """fmap at the first grade of ``FMAP_GRADES`` that covers the uses of
    the mapped function, or None if none does."""
    g = deriving.fmap_grade(t, alpha, FMAP_GRADES[sr])
    return None if g is None else deriving.derive_fmap(t, alpha, g, sr)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _case_inverses(i: int, rng: random.Random, max_depth: int) -> str | None:
    sr = SEMIRING_ROTATION[i % 4]
    cfg = TypeGenConfig(max_depth=max_depth, allow_fun=False, allow_mu=True,
                        allow_base=False,
                        tyvars=("a", "b")[: rng.randrange(3)])
    t = gen_type(cfg, rng)
    r = _pick_push_grade(t, sr, rng)
    push = deriving.derive_push(t, r)
    rs = {a: r for a in free_tyvars(t)}
    pull = deriving.derive_pull(t, rs, sr, default_grade=r)

    conc = instantiate(t)
    v = gen_value(Box(r, conc), rng)
    bad = _agree(App(pull.term, App(push.term, v)), v)
    if bad:
        return (f"pull(push v) != v at {pretty_type(t)} [{r}], "
                f"v = {pretty_term(v)}: {bad}")

    boxed = subst_tyvars(t, {a: Box(r, Base("Int")) for a in free_tyvars(t)})
    w = gen_value(boxed, rng)
    bad = _agree(App(push.term, App(pull.term, w)), w)
    if bad:
        return (f"push(pull w) != w at {pretty_type(t)} [{r}], "
                f"w = {pretty_term(w)}: {bad}")
    return None


def _case_naturality(i: int, rng: random.Random, max_depth: int) -> str | None:
    sr = SEMIRING_ROTATION[i % 4]
    allow_mu = sr in (grades.INTERVAL, grades.ZERO_ONE_MANY)
    for _ in range(GEN_RETRIES):
        cfg = TypeGenConfig(max_depth=max_depth, allow_fun=False,
                            allow_mu=allow_mu, allow_base=False,
                            tyvars=("a",))
        t = gen_type(cfg, rng)
        fm = _derive_fmap(t, "a", sr)
        if fm is not None:
            break
    else:
        return f"could not generate an fmap-derivable subject in {sr}"
    r = _pick_push_grade(t, sr, rng)
    push = deriving.derive_push(t, r)

    f = gen_int_fn(rng)
    boxf = box_lift(f)

    v = gen_value(Box(r, instantiate(t)), rng)
    lhs = App(App(fm.term, Promote(boxf)), App(push.term, v))
    rhs = App(push.term, App(box_lift(App(fm.term, Promote(f))), v))
    bad = _agree(lhs, rhs)
    if bad:
        return (f"push not natural at {pretty_type(t)} [{r}], "
                f"v = {pretty_term(v)}: {bad}")

    try:
        pull = deriving.derive_pull(t, {a: r for a in free_tyvars(t)}, sr,
                                    default_grade=r)
    except DeriveError as e:
        return f"pull underivable at {pretty_type(t)}: {e}"
    w = gen_value(subst_tyvars(t, {a: Box(r, Base("Int"))
                                   for a in free_tyvars(t)}), rng)
    lhs = App(box_lift(App(fm.term, Promote(f))), App(pull.term, w))
    rhs = App(pull.term, App(App(fm.term, Promote(boxf)), w))
    bad = _agree(lhs, rhs)
    if bad:
        return (f"pull not natural at {pretty_type(t)} [{r}], "
                f"w = {pretty_term(w)}: {bad}")
    return None


def _preservation_grades(t: Type, sr: str, rng: random.Random) -> tuple[Grade, Grade] | None:
    pool = GRADE_POOLS[sr]
    need_one = deriving._push_matches(t, occurring(t))
    one = grades.one(sr)
    candidates = []
    for r in pool:
        for s in pool:
            if need_one:
                rs_prod = grades.sr_mul(r, s)
                if not (grades.sr_leq(one, r) and grades.sr_leq(one, s)
                        and grades.sr_leq(one, rs_prod)):
                    continue
            candidates.append((r, s))
    if not candidates:
        return None
    return candidates[rng.randrange(len(candidates))]


def _case_preservation(i: int, rng: random.Random, max_depth: int) -> str | None:
    sr = SEMIRING_ROTATION[i % 4]
    allow_mu = sr in (grades.INTERVAL, grades.ZERO_ONE_MANY)
    for _ in range(GEN_RETRIES):
        cfg = TypeGenConfig(max_depth=max_depth, allow_fun=False,
                            allow_mu=allow_mu, allow_base=False,
                            tyvars=("a",)[: rng.randrange(2)])
        t = gen_type(cfg, rng)
        fm = _derive_fmap(t, "a", sr)
        if fm is not None:
            break
    else:
        return f"could not generate an fmap-derivable subject in {sr}"
    one = grades.one(sr)
    conc = instantiate(t)
    varset = free_tyvars(t)

    # counit triangle, at grade 1
    push1 = deriving.derive_push(t, one)
    pull1 = deriving.derive_pull(t, {a: one for a in varset}, sr, default_grade=one)
    eps_f = deriving.comonad_eps(conc, sr)
    eps_int = deriving.comonad_eps(Base("Int"), sr)

    v = gen_value(Box(one, conc), rng)
    lhs = App(App(fm.term, Promote(eps_int)), App(push1.term, v))
    rhs = App(eps_f, v)
    bad = _agree(lhs, rhs)
    if bad:
        return (f"push eps triangle fails at {pretty_type(t)}, "
                f"v = {pretty_term(v)}: {bad}")

    w = gen_value(subst_tyvars(t, {a: Box(one, Base("Int")) for a in varset}), rng)
    lhs = App(eps_f, App(pull1.term, w))
    rhs = App(App(fm.term, Promote(eps_int)), w)
    bad = _agree(lhs, rhs)
    if bad:
        return (f"pull eps triangle fails at {pretty_type(t)}, "
                f"w = {pretty_term(w)}: {bad}")

    # comultiplication pentagon, at grades r, s
    picked = _preservation_grades(t, sr, rng)
    if picked is None:
        return None
    r, s = picked
    rs_prod = grades.sr_mul(r, s)
    push_rs = deriving.derive_push(t, rs_prod)
    push_r = deriving.derive_push(t, r)
    push_s = deriving.derive_push(t, s)
    delta_f = deriving.comonad_delta(conc, r, s)
    delta_int = deriving.comonad_delta(Base("Int"), r, s)

    v = gen_value(Box(rs_prod, conc), rng)
    lhs = App(App(fm.term, Promote(delta_int)), App(push_rs.term, v))
    rhs = App(push_r.term, App(box_lift(push_s.term), App(delta_f, v)))
    bad = _agree(lhs, rhs)
    if bad:
        return (f"push delta pentagon fails at {pretty_type(t)} "
                f"[{r}],[{s}], v = {pretty_term(v)}: {bad}")

    pull_rs = deriving.derive_pull(t, {a: rs_prod for a in varset}, sr,
                                   default_grade=rs_prod)
    pull_r = deriving.derive_pull(t, {a: r for a in varset}, sr, default_grade=r)
    pull_s = deriving.derive_pull(t, {a: s for a in varset}, sr, default_grade=s)
    w = gen_value(subst_tyvars(t, {a: Box(rs_prod, Base("Int")) for a in varset}), rng)
    lhs = App(delta_f, App(pull_rs.term, w))
    rhs = App(box_lift(pull_s.term),
              App(pull_r.term, App(App(fm.term, Promote(delta_int)), w)))
    bad = _agree(lhs, rhs)
    if bad:
        return (f"pull delta pentagon fails at {pretty_type(t)} "
                f"[{r}],[{s}], w = {pretty_term(w)}: {bad}")
    return None


_EQ_RULES = ("eta", "eta_case", "case_assoc", "case_assoc_box", "case_distrib",
             "letrec_distrib", "case_gen")


def _case_equational(i: int, rng: random.Random, max_depth: int) -> str | None:
    rule = _EQ_RULES[i % len(_EQ_RULES)]
    f = gen_int_fn(rng)
    n = gen_value(Base("Int"), rng)

    if rule == "eta":
        t = f if rng.random() < 0.5 else Lam("y", Var("y"))
        lhs = Lam("ex", App(t, Var("ex")))
        bad = _agree(App(lhs, n), App(t, n))
        if bad:
            return f"eta fails for {pretty_term(t)}: {bad}"
        return None

    if rule == "eta_case":
        t1 = gen_value(Tensor(Base("Int"), Base("Int")), rng)
        holes = [Var("hz"), pair(Var("hz"), Con("unit", ())),
                 Con("inl", (Var("hz"),)), Promote(Var("hz"))]
        t2 = holes[rng.randrange(len(holes))]
        lhs = Case(t1, ((PCon(",", (PVar("ex"), PVar("ey"))),
                         subst_term(t2, {"hz": pair(Var("ex"), Var("ey"))})),))
        rhs = subst_term(t2, {"hz": t1})
        bad = _agree(lhs, rhs)
        if bad:
            return f"eta_case fails for t1 = {pretty_term(t1)}: {bad}"
        return None

    if rule in ("case_assoc", "case_distrib"):
        scrut = gen_value(Sum(Unit(), Unit()), rng)
        v1 = gen_value(Base("Int"), rng)
        v2 = gen_value(Base("Int"), rng)
        inner_branches = (
            (PCon("inl", (PCon("unit", ()),)), v1),
            (PCon("inr", (PCon("unit", ()),)), v2),
        )
        if rule == "case_distrib":
            lhs = App(f, Case(scrut, inner_branches))
            rhs = Case(scrut, tuple((p, App(f, b)) for p, b in inner_branches))
            bad = _agree(lhs, rhs)
            if bad:
                return (f"case_distrib fails for scrut = "
                        f"{pretty_term(scrut)}: {bad}")
            return None
        outer = ((PInt(v1.value), Con("inl", (Con("unit", ()),))),
                 (PVar("ow"), Con("inr", (Var("ow"),))))
        lhs = Case(Case(scrut, inner_branches), outer)
        rhs = Case(scrut, tuple((p, Case(b, outer)) for p, b in inner_branches))
        bad = _agree(lhs, rhs)
        if bad:
            return f"case_assoc fails for scrut = {pretty_term(scrut)}: {bad}"
        return None

    if rule == "case_assoc_box":
        scrut = gen_value(Sum(Unit(), Unit()), rng)
        v1 = gen_value(Base("Int"), rng)
        v2 = gen_value(Base("Int"), rng)
        inner_branches = (
            (PCon("inl", (PCon("unit", ()),)), v1),
            (PCon("inr", (PCon("unit", ()),)), v2),
        )
        outer = ((PBox(PVar("ow")), pair(Var("ow"), Var("ow"))),)
        lhs = Case(Promote(Case(scrut, inner_branches)), outer)
        rhs = Case(Promote(scrut),
                   tuple((PBox(p), Case(Promote(b), outer))
                         for p, b in inner_branches))
        bad = _agree(lhs, rhs)
        if bad:
            return f"case_assoc_box fails for scrut = {pretty_term(scrut)}: {bad}"
        return None

    if rule == "letrec_distrib":
        t1 = gen_value(Base("Int"), rng)
        lhs = App(f, LetRec("lx", t1, Var("lx")))
        rhs = LetRec("lx", t1, App(f, Var("lx")))
        bad = _agree(lhs, rhs)
        if bad:
            return f"letrec_distrib fails for t1 = {pretty_term(t1)}: {bad}"
        return None

    # case_gen: a boxed pattern whose body is the pattern itself collapses
    # to a variable (needs 1 <= r; evaluation is grade-blind so any box works)
    shapes = ["pair", "inl", "int"]
    shape = shapes[rng.randrange(len(shapes))]
    if shape == "pair":
        val = gen_value(Tensor(Base("Int"), Base("Int")), rng)
        p = PCon(",", (PVar("gx"), PVar("gy")))
        back = pair(Var("gx"), Var("gy"))
    elif shape == "inl":
        val = Con("inl", (gen_value(Base("Int"), rng),))
        p = PCon("inl", (PVar("gx"),))
        back = Con("inl", (Var("gx"),))
    else:
        val = gen_value(Base("Int"), rng)
        p = PVar("gx")
        back = Var("gx")
    boxed = Promote(val)
    lhs = Case(boxed, ((PBox(p), back),))
    rhs = Case(boxed, ((PBox(PVar("gw")), Var("gw")),))
    bad = _agree(lhs, rhs)
    if bad:
        return f"case_gen fails for value = {pretty_term(val)}: {bad}"
    return None


_NOTES = {
    "preservation": ("delta side conditions use the strongest reading: "
                     "1 <= r, 1 <= s and 1 <= r*s when the subject is "
                     "multi-constructor",),
}

_CASE_FNS = {
    "inverses": _case_inverses,
    "naturality": _case_naturality,
    "preservation": _case_preservation,
    "equational": _case_equational,
}


def run_suite(name: str, cases: int | None = None, seed: int = DEFAULT_SEED,
              max_depth: int | None = None, only_case: int | None = None
              ) -> LawReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    total = cases if cases is not None else DEFAULT_CASES[name]
    indices = [only_case] if only_case is not None else range(total)
    depth = max_depth if max_depth is not None else DEFAULT_DEPTH
    fn = _CASE_FNS[name]
    failures = []
    for i in indices:
        rng = case_rng(name, seed, i)
        try:
            detail = fn(i, rng, depth)
        except (DeriveError, FuelExhausted, StuckTerm, Uninhabitable) as e:
            detail = f"exception: {e}"
        if detail is not None:
            failures.append(LawFailure(name, i, detail))
    return LawReport(name, len(indices), seed, failures, _NOTES.get(name, ()))


def format_reports(reports: list[LawReport]) -> str:
    lines = [f"{'suite':<14}{'cases':>8}{'failures':>10}"]
    for r in reports:
        lines.append(f"{r.suite:<14}{r.cases:>8}{len(r.failures):>10}")
    for r in reports:
        for note in r.notes:
            lines.append(f"note ({r.suite}): {note}")
        for fail in r.failures:
            lines.append(fail.repro(r.seed))
    return "\n".join(lines)
