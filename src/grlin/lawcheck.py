"""Property suites for the derived combinators.

Each suite draws (type, grade, value) instances from seeded generators. A
case of a suite yields its equations one at a time, drawing as it goes;
``run_suite`` compares both sides of each as deep normal forms under the
evaluator, and the first disagreement, or an exception, is the case's
failure. The suites:

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
from collections.abc import Callable, Iterator

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
    elem = gen_type(TypeGenConfig(cfg.max_depth, allow_mu=False, allow_base=cfg.allow_base,
                                  tyvars=cfg.tyvars), rng, depth - 1)
    return Mu("X", Sum(Unit(), Tensor(elem, RecVar("X"))))


class Uninhabitable(Exception):
    """A generator found nothing within its bounds: no value of a type, or
    no subject at which fmap derives."""


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


def instantiate(t: Type, at: Type = Base("Int")) -> Type:
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

# Each equation is (what, lhs, rhs). ``what()`` gives the failure text; it is
# called only when the sides disagree, before the case draws again.
Equations = Iterator[tuple[Callable[[], str], Term, Term]]


def _boxed(t: Type, r: Grade) -> Type:
    return instantiate(t, Box(r, Base("Int")))


def _fmap_subject(sr: str, rng: random.Random, max_depth: int,
                  tyvars: Callable[[], tuple[str, ...]]
                  ) -> tuple[Type, deriving.DerivedCombinator]:
    """A generated subject at which fmap derives, with its fmap. Each try
    draws its type variables from ``tyvars``."""
    allow_mu = sr in (grades.INTERVAL, grades.ZERO_ONE_MANY)
    for _ in range(GEN_RETRIES):
        t = gen_type(TypeGenConfig(max_depth, allow_mu=allow_mu, tyvars=tyvars()), rng)
        fm = _derive_fmap(t, "a", sr)
        if fm is not None:
            return t, fm
    raise Uninhabitable(f"could not generate an fmap-derivable subject in {sr}")


def _case_inverses(i: int, rng: random.Random, max_depth: int) -> Equations:
    sr = SEMIRING_ROTATION[i % 4]
    t = gen_type(TypeGenConfig(max_depth, tyvars=("a", "b")[: rng.randrange(3)]), rng)
    r = _pick_push_grade(t, sr, rng)
    push = deriving.derive_push(t, r)
    pull = deriving.derive_pull(t, {a: r for a in free_tyvars(t)}, sr, default_grade=r)

    v = gen_value(Box(r, instantiate(t)), rng)
    yield (lambda: f"pull(push v) != v at {pretty_type(t)} [{r}], v = {pretty_term(v)}",
           App(pull.term, App(push.term, v)), v)
    w = gen_value(_boxed(t, r), rng)
    yield (lambda: f"push(pull w) != w at {pretty_type(t)} [{r}], w = {pretty_term(w)}",
           App(push.term, App(pull.term, w)), w)


def _case_naturality(i: int, rng: random.Random, max_depth: int) -> Equations:
    sr = SEMIRING_ROTATION[i % 4]
    t, fm = _fmap_subject(sr, rng, max_depth, lambda: ("a",))
    r = _pick_push_grade(t, sr, rng)
    push = deriving.derive_push(t, r)
    f = gen_int_fn(rng)
    fmap_boxf = App(fm.term, Promote(box_lift(f)))
    boxed_fmap_f = box_lift(App(fm.term, Promote(f)))

    v = gen_value(Box(r, instantiate(t)), rng)
    yield (lambda: f"push not natural at {pretty_type(t)} [{r}], v = {pretty_term(v)}",
           App(fmap_boxf, App(push.term, v)), App(push.term, App(boxed_fmap_f, v)))
    pull = deriving.derive_pull(t, {a: r for a in free_tyvars(t)}, sr, default_grade=r)
    w = gen_value(_boxed(t, r), rng)
    yield (lambda: f"pull not natural at {pretty_type(t)} [{r}], w = {pretty_term(w)}",
           App(boxed_fmap_f, App(pull.term, w)), App(pull.term, App(fmap_boxf, w)))


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


def _case_preservation(i: int, rng: random.Random, max_depth: int) -> Equations:
    sr = SEMIRING_ROTATION[i % 4]
    t, fm = _fmap_subject(sr, rng, max_depth, lambda: ("a",)[: rng.randrange(2)])
    one = grades.one(sr)
    conc = instantiate(t)
    varset = free_tyvars(t)

    # counit triangle, at grade 1
    push1 = deriving.derive_push(t, one)
    pull1 = deriving.derive_pull(t, {a: one for a in varset}, sr, default_grade=one)
    eps_f = deriving.comonad_eps(conc, sr)
    fmap_eps = App(fm.term, Promote(deriving.comonad_eps(Base("Int"), sr)))

    v = gen_value(Box(one, conc), rng)
    yield (lambda: f"push eps triangle fails at {pretty_type(t)}, v = {pretty_term(v)}",
           App(fmap_eps, App(push1.term, v)), App(eps_f, v))
    w = gen_value(_boxed(t, one), rng)
    yield (lambda: f"pull eps triangle fails at {pretty_type(t)}, w = {pretty_term(w)}",
           App(eps_f, App(pull1.term, w)), App(fmap_eps, w))

    # comultiplication pentagon, at grades r, s
    picked = _preservation_grades(t, sr, rng)
    if picked is None:
        return
    r, s = picked
    rs_prod = grades.sr_mul(r, s)
    push_rs = deriving.derive_push(t, rs_prod)
    push_r = deriving.derive_push(t, r)
    push_s = deriving.derive_push(t, s)
    delta_f = deriving.comonad_delta(conc, r, s)
    fmap_delta = App(fm.term, Promote(deriving.comonad_delta(Base("Int"), r, s)))

    v = gen_value(Box(rs_prod, conc), rng)
    yield (lambda: f"push delta pentagon fails at {pretty_type(t)} [{r}],[{s}], "
                   f"v = {pretty_term(v)}",
           App(fmap_delta, App(push_rs.term, v)),
           App(push_r.term, App(box_lift(push_s.term), App(delta_f, v))))
    pull_rs = deriving.derive_pull(t, {a: rs_prod for a in varset}, sr,
                                   default_grade=rs_prod)
    pull_r = deriving.derive_pull(t, {a: r for a in varset}, sr, default_grade=r)
    pull_s = deriving.derive_pull(t, {a: s for a in varset}, sr, default_grade=s)
    w = gen_value(_boxed(t, rs_prod), rng)
    yield (lambda: f"pull delta pentagon fails at {pretty_type(t)} [{r}],[{s}], "
                   f"w = {pretty_term(w)}",
           App(delta_f, App(pull_rs.term, w)),
           App(box_lift(pull_s.term), App(pull_r.term, App(fmap_delta, w))))


_EQ_RULES = ("eta", "eta_case", "case_assoc", "case_assoc_box", "case_distrib",
             "letrec_distrib", "case_gen")


def _case_equational(i: int, rng: random.Random, max_depth: int) -> Equations:
    rule = _EQ_RULES[i % len(_EQ_RULES)]
    f = gen_int_fn(rng)
    n = gen_value(Base("Int"), rng)

    if rule == "eta":
        t = f if rng.random() < 0.5 else Lam("y", Var("y"))
        lhs = App(Lam("ex", App(t, Var("ex"))), n)
        yield (lambda: f"eta fails for {pretty_term(t)}"), lhs, App(t, n)

    elif rule == "eta_case":
        t1 = gen_value(Tensor(Base("Int"), Base("Int")), rng)
        holes = [Var("hz"), pair(Var("hz"), Con("unit", ())),
                 Con("inl", (Var("hz"),)), Promote(Var("hz"))]
        t2 = holes[rng.randrange(len(holes))]
        lhs = Case(t1, ((PCon(",", (PVar("ex"), PVar("ey"))),
                         subst_term(t2, {"hz": pair(Var("ex"), Var("ey"))})),))
        rhs = subst_term(t2, {"hz": t1})
        yield (lambda: f"eta_case fails for t1 = {pretty_term(t1)}"), lhs, rhs

    elif rule in ("case_assoc", "case_assoc_box", "case_distrib"):
        scrut = gen_value(Sum(Unit(), Unit()), rng)
        v1 = gen_value(Base("Int"), rng)
        v2 = gen_value(Base("Int"), rng)
        inner = ((PCon("inl", (PCon("unit", ()),)), v1),
                 (PCon("inr", (PCon("unit", ()),)), v2))
        if rule == "case_distrib":
            lhs = App(f, Case(scrut, inner))
            rhs = Case(scrut, tuple((p, App(f, b)) for p, b in inner))
        elif rule == "case_assoc":
            outer = ((PInt(v1.value), Con("inl", (Con("unit", ()),))),
                     (PVar("ow"), Con("inr", (Var("ow"),))))
            lhs = Case(Case(scrut, inner), outer)
            rhs = Case(scrut, tuple((p, Case(b, outer)) for p, b in inner))
        else:
            outer = ((PBox(PVar("ow")), pair(Var("ow"), Var("ow"))),)
            lhs = Case(Promote(Case(scrut, inner)), outer)
            rhs = Case(Promote(scrut),
                       tuple((PBox(p), Case(Promote(b), outer)) for p, b in inner))
        yield (lambda: f"{rule} fails for scrut = {pretty_term(scrut)}"), lhs, rhs

    elif rule == "letrec_distrib":
        t1 = gen_value(Base("Int"), rng)
        yield (lambda: f"letrec_distrib fails for t1 = {pretty_term(t1)}",
               App(f, LetRec("lx", t1, Var("lx"))), LetRec("lx", t1, App(f, Var("lx"))))

    else:
        # case_gen: a boxed pattern whose body is the pattern itself
        # collapses to a variable (needs 1 <= r; evaluation is grade-blind
        # so any box works)
        shape = ("pair", "inl", "int")[rng.randrange(3)]
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
        yield (lambda: f"case_gen fails for value = {pretty_term(val)}",
               Case(Promote(val), ((PBox(p), back),)),
               Case(Promote(val), ((PBox(PVar("gw")), Var("gw")),)))


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


def _first_failure(equations: Equations) -> str | None:
    """The failure text of the first equation whose sides disagree, or of
    an exception raised while drawing or comparing; None if all agree."""
    try:
        for what, lhs, rhs in equations:
            bad = _agree(lhs, rhs)
            if bad:
                return f"{what()}: {bad}"
    except (DeriveError, FuelExhausted, StuckTerm, Uninhabitable) as e:
        return f"exception: {e}"
    except Exception as e:  # an internal error is a failure of the case too
        return f"exception: {type(e).__name__}: {e}"
    return None


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
        detail = _first_failure(fn(i, case_rng(name, seed, i), depth))
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
