"""Datatype-generic derivation of the distributive and structural combinators.

``push`` distributes a graded box over a type constructor, ``pull`` is its
dual (concluding at the meet of the component grades), ``drop`` derives
weakening for closed weakenable types, ``copyShape`` produces a unit-spine
copy alongside the original value, and ``fmap`` is the covariant morphism
mapping with its function argument boxed at a caller-chosen grade;
``fmap_grade`` picks that grade from the subject's structure.

All five are built by one induction on the structure of the subject type
(``_Walker``), after the kind's ``preconditions`` hold at the subject.
Every elaborated term is type-checked against its concluded scheme before
being returned, a failure being an internal error, and results are
memoized per (kind, type, semiring, grades), and so are the checked
comonad witnesses. Elaborated case expressions carry scrutinee-type
annotations so they check without any constraint solving.

Within one memo, derivations share each distinct pattern node and variable
they build (``_share``), so the match plan the evaluator caches on a
pattern serves every term the pattern is in; the unit term is one constant.
Other term nodes and types are built afresh.
"""

from __future__ import annotations

import itertools

from . import grades, syntax
from .frozen import frozen
from .grades import Grade
from .parser import pretty_type
from .syntax import (
    App, Base, Box, Case, Con, Derive, Fun, Lam, LetRec, Mu, Pattern, PBox, PCon,
    Promote, PVar, RecVar, RES, Sum, Tensor, Term, TyVar, Type, UNIT_TERM, Unit, Var,
    free_tyvars, free_recvars, multi_constructor, occurring, subst_tyvars, pair,
)

# Codes of the refusals, which the checker reports as they are; it raises
# NEEDS_ANNOTATION and MIXED_SEMIRING itself too.
BOX_IN_SUBJECT = "BOX_IN_SUBJECT"
FUN_IN_SUBJECT = "FUN_IN_SUBJECT"
BASE_IN_SUBJECT = "BASE_IN_SUBJECT"
SIDE_CONDITION = "SIDE_CONDITION"
MEET_UNDEFINED = "MEET_UNDEFINED"
POLYMORPHIC_DROP = "POLYMORPHIC_DROP"
NOT_DROPPABLE = "NOT_DROPPABLE"
NEEDS_ANNOTATION = "NEEDS_ANNOTATION"
MIXED_SEMIRING = "MIXED_SEMIRING"


class DeriveError(Exception):
    def __init__(self, code: str, message: str, gs: tuple[Grade, ...] = ()):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.grades = gs


@frozen
class DerivedCombinator:
    kind: str
    subject: Type
    semiring: str
    grades: tuple
    term: Term
    type: Type
    side_conditions: tuple[str, ...]
    steps: tuple[tuple[str, Type], ...]  # (kind, subject type) per structural step

    @property
    def trace(self) -> tuple[str, ...]:
        """One line per structural step of the induction, formatted when read."""
        return tuple(f"{kind} @ {pretty_type(s)}" for kind, s in self.steps)

    def key_str(self) -> str:
        gs = ",".join(f"{k}={v}" for k, v in self.grades) if self.grades else "-"
        return f"{self.kind}@{pretty_type(self.subject)}@{self.semiring}@{gs}"


_memo: dict = {}
# The pattern nodes and variables that derivations build, each distinct one
# built once per memo (see ``_share``).
_shared: dict = {}


def clear_memo() -> None:
    _memo.clear()
    _shared.clear()


def _memoized(key, build):
    hit = _memo.get(key)
    if hit is None:
        hit = _memo[key] = build()
    return hit


def _share(key: tuple, make, *fields):
    """The node ``make(*fields)``, built once per memo. ``key`` holds its
    fields, a sub-pattern by its identity, so no node is hashed; the node
    holds its sub-patterns, so no other object takes their identities
    while its key is in the table."""
    node = _shared.get(key)
    if node is None:
        node = _shared[key] = make(*fields)
    return node


def _var(name: str) -> Var:
    return _share(("Var", name), Var, name)


def _pvar(name: str) -> PVar:
    return _share(("PVar", name), PVar, name)


def _pbox(p: Pattern) -> PBox:
    return _share(("PBox", id(p)), PBox, p)


def _pcon(con: str, args: tuple[Pattern, ...]) -> PCon:
    return _share(("PCon", con, *map(id, args)), PCon, con, args)


def _assert_checks(term: Term, ty: Type, semiring: str, what: str) -> None:
    """Check a derived term at its concluded scheme; a failure is an internal
    error."""
    from .typecheck import Checker, CheckError
    try:
        Checker(semiring).check({}, term, ty)
    except CheckError as e:
        raise RuntimeError(
            f"internal: derived {what} fails to check at {pretty_type(ty)}: "
            f"{e.diag.render()}") from e


def _close(s: Type, mu_env: dict[str, Type]) -> Type:
    """The type with the recursion variables of ``mu_env`` replaced by their
    closed mu types."""
    for name, mu in mu_env.items():
        s = syntax.subst_recvar(s, name, mu)
    return s


# ---------------------------------------------------------------------------
# the induction on type structure
# ---------------------------------------------------------------------------

class _Walker:
    """One combinator, built by induction on the structure of its subject.

    The walker does what all kinds share: recording its steps, closing the
    recursion variables of a type (``annot``), the call at a recursion
    variable, the match on a sum or a product, and at a mu the letrec-tied
    function typed by the kind's ``scheme``. A kind supplies ``preconditions``,
    which refuse a subject it cannot be built at; ``split``, the branches of
    a match; and ``node``, its cases for the other constructors. It may
    supply ``context``, what the body at a type is passed (push: the
    subject's type; pull: the target grade; fmap: the unboxed function),
    and ``covered``, which refuses grades too small for the uses of the
    built term (fmap).
    """

    kind = ""
    fn = "f"             # base name of the recursive function at a mu
    boxed_match = False  # whether sums and products are matched under the box
    named = ()           # the named grades of the derived combinator
    start = None         # what ``context`` is given at the subject (pull: the default grade)
    side_conditions: tuple[str, ...] = ()  # push: "1 <= r" where it matches under the box

    def __init__(self, semiring: str):
        self.sr = semiring
        self.names = itertools.count(1)  # numbers the fresh names
        self.steps: list[tuple[str, Type]] = []
        self.env: dict[str, tuple] = {}      # recvar -> (function var, context)
        self.mu_env: dict[str, Type] = {}    # recvar -> its closed mu type

    def annot(self, s: Type) -> Type:
        return _close(s, self.mu_env)

    def fresh(self, base: str) -> str:
        return f"{base}{next(self.names)}"

    def term(self, s: Type) -> tuple[Term, object]:
        """The combinator at the (closed) subject and its body's context."""
        ctx = self.context(s, s, self.start)
        return self.function(s, "z", ctx), ctx

    def function(self, s: Type, x: str, ctx) -> Term:
        z = self.fresh(x)
        return Lam(z, self.body(s, _var(z), ctx))

    def context(self, s: Type, closed: Type, ctx):
        return None

    def covered(self, s: Type) -> None:
        pass

    def call(self, f: str, subj: Term, ctx) -> Term:
        return App(_var(f), subj)

    def scrut_type(self, s: Type, ctx) -> Type:
        return self.annot(s)

    def body(self, s: Type, subj: Term, ctx=None) -> Term:
        self.steps.append((self.kind, s))
        if isinstance(s, RecVar):
            return self.call(self.env[s.name][0], subj, ctx)
        if isinstance(s, (Sum, Tensor)):
            x, y = self.fresh("x"), self.fresh("y")
            if isinstance(s, Sum):
                pats = (_pcon("inl", (_pvar(x),)), _pcon("inr", (_pvar(y),)))
            else:
                pats = (_pcon(",", (_pvar(x), _pvar(y))),)
            if self.boxed_match:
                pats = tuple(map(_pbox, pats))
            branches = self.split(s, _var(x), _var(y), ctx)
            return Case(subj, tuple(zip(pats, branches)), scrut_annot=self.scrut_type(s, ctx))
        if not isinstance(s, Mu):
            return self.node(s, subj, ctx)
        if isinstance(s.body, (TyVar, RecVar)):
            raise DeriveError(
                SIDE_CONDITION,
                f"degenerate recursive type {pretty_type(s)} has no constructor structure")
        mu_closed = self.annot(s)
        inner = self.context(s, mu_closed, ctx)
        f = self.fresh(self.fn)
        env, mu_env = self.env, self.mu_env  # an outer mu may bind the same name
        self.env, self.mu_env = {**env, s.var: (f, inner)}, {**mu_env, s.var: mu_closed}
        fn = self.function(s.body, "w", inner)
        self.env, self.mu_env = env, mu_env
        return LetRec(f, fn, self.call(f, subj, ctx),
                      annot=self.scheme(mu_closed, inner))


class _Push(_Walker):
    """(T) [r] -o T with every type variable boxed at r. The context is the
    type of the subject term."""

    kind = "push"
    boxed_match = True

    def __init__(self, r: Grade):
        super().__init__(r.semiring)
        self.r = r
        self.named = (("r", r),)

    def scheme(self, closed: Type, ctx) -> Type:
        boxed = {a: Box(self.r, TyVar(a)) for a in free_tyvars(closed)}
        return Fun(Box(self.r, closed), subst_tyvars(closed, boxed))

    def context(self, s: Type, closed: Type, ctx) -> Type:
        return Box(self.r, closed)

    def scrut_type(self, s: Type, subj_ty: Type) -> Type:
        return subj_ty

    def preconditions(self, s: Type, occ: set) -> None:
        if Box in occ:
            raise DeriveError(BOX_IN_SUBJECT, _NO_BOX)
        if _push_matches(s, occ):
            one = grades.one(self.sr)
            if not grades.sr_leq(one, self.r):
                raise DeriveError(
                    SIDE_CONDITION,
                    f"matching under the box consumes a use, so 1 must be approximated "
                    f"by the grade: {one} is not approximated by {self.r}", (one, self.r))
            self.side_conditions = (f"1 <= {self.r}",)

    def part(self, s: Type, subj: Term) -> Term:
        """push at ``s`` of a value taken from under the box."""
        return self.body(s, Promote(subj), Box(self.r, self.annot(s)))

    def split(self, s: Type, x: Term, y: Term, subj_ty: Type) -> list[Term]:
        return _rebuild(s, self.part(s.left, x), self.part(s.right, y))

    def node(self, s: Type, subj: Term, subj_ty: Type) -> Term:
        if isinstance(s, Unit):
            return Case(subj, ((_pbox(_pcon("unit", ())), UNIT_TERM),),
                        scrut_annot=subj_ty)
        if isinstance(s, TyVar):
            return subj
        if isinstance(s, Base):
            x = self.fresh("x")
            return Case(subj, ((_pbox(_pvar(x)), _var(x)),), scrut_annot=subj_ty)
        if isinstance(s, Fun):
            if free_recvars(s.arg):
                raise DeriveError(
                    SIDE_CONDITION,
                    "recursion variables under a function argument are not supported")
            y, f, u = self.fresh("y"), self.fresh("f"), self.fresh("u")
            arg = self.annot(s.arg)
            puller = _Pull({a: self.r for a in free_tyvars(arg)}, self.sr)
            puller.names, puller.steps = self.names, self.steps
            inner = Case(puller.body(arg, _var(y), self.r),
                         ((_pbox(_pvar(u)), self.part(s.res, App(_var(f), _var(u)))),),
                         scrut_annot=Box(self.r, arg))
            return Lam(y, Case(subj, ((_pbox(_pvar(f)), inner),), scrut_annot=subj_ty))
        raise AssertionError(f"unhandled type: {s}")


class _Pull(_Walker):
    """The subject with each type variable boxed at its grade -o the subject
    boxed at the meet of those grades (or at the result grade if no variable
    occurs). The context is the target grade."""

    kind = "pull"

    def __init__(self, rs: dict[str, Grade], semiring: str, default: Grade | None = None):
        super().__init__(semiring)
        self.rs = rs
        self.boxes = {a: Box(g, TyVar(a)) for a, g in rs.items()}
        self.start = default
        # with no variables occurring, the result grade is the default
        self.named = tuple(sorted(rs.items())) + ((("result", default),) if not rs else ())

    def preconditions(self, s: Type, occ: set) -> None:
        if Box in occ:
            raise DeriveError(BOX_IN_SUBJECT, _NO_BOX)
        if Fun in occ:
            raise DeriveError(FUN_IN_SUBJECT, _NO_PULL_AT_FUN)
        if Base in occ:
            raise DeriveError(BASE_IN_SUBJECT, _no_pull_at_base(s))
        if set(self.rs) != free_tyvars(s):
            raise DeriveError(
                SIDE_CONDITION,
                f"grades must cover exactly the type variables of the subject (given "
                f"{sorted(self.rs)}, subject has {sorted(free_tyvars(s))})")
        for a, g in self.rs.items():
            if g.semiring != self.sr:
                raise DeriveError(MIXED_SEMIRING,
                                  f"grade for {a!r} is from {g.semiring}, expected {self.sr}",
                                  (g,))
        d = self.start
        if d is not None and d.semiring != self.sr:
            raise DeriveError(MIXED_SEMIRING,
                              f"result grade is from {d.semiring}, expected {self.sr}", (d,))

    def boxed(self, s: Type) -> Type:
        return subst_tyvars(self.annot(s), self.boxes)

    def conclude(self, s: Type, tgt: Grade | None) -> Grade:
        parts = [self.rs[a] for a in sorted(free_tyvars(s))]
        parts += [self.env[x][1] for x in sorted(free_recvars(s))]
        if not parts:
            if tgt is None:
                raise DeriveError(
                    NEEDS_ANNOTATION,
                    f"pull @{pretty_type(s)} has no type variables; its grade must be "
                    f"given explicitly")
            return tgt
        acc = parts[0]
        for g in parts[1:]:
            met = grades.sr_meet(acc, g)
            if met is None:
                raise DeriveError(
                    MEET_UNDEFINED,
                    f"grades {acc} and {g} have no greatest-lower bound",
                    (acc, g))
            acc = met
        return acc

    def scheme(self, closed: Type, c: Grade) -> Type:
        return Fun(self.boxed(closed), Box(c, closed))

    def context(self, s: Type, closed: Type, tgt: Grade | None) -> Grade:
        return self.conclude(s, tgt)

    def scrut_type(self, s: Type, tgt: Grade | None) -> Type:
        return self.boxed(s)

    def node(self, s: Type, subj: Term, tgt: Grade | None) -> Term:
        if isinstance(s, Unit):
            return Case(subj, ((_pcon("unit", ()), Promote(UNIT_TERM)),),
                        scrut_annot=self.annot(s))
        if isinstance(s, TyVar):
            return subj
        if isinstance(s, Base):
            raise DeriveError(BASE_IN_SUBJECT, _no_pull_at_base(s))
        if isinstance(s, Fun):
            raise DeriveError(FUN_IN_SUBJECT, _NO_PULL_AT_FUN)
        raise AssertionError(f"unhandled type: {s}")

    def split(self, s: Type, x: Term, y: Term, tgt: Grade | None) -> list[Term]:
        c = self.conclude(s, tgt)
        u, v = self.fresh("u"), self.fresh("v")
        ca, cb = self.conclude(s.left, c), self.conclude(s.right, c)
        left, right = self.body(s.left, x, c), self.body(s.right, y, c)
        left_ty, right_ty = Box(ca, self.annot(s.left)), Box(cb, self.annot(s.right))
        if isinstance(s, Sum):
            return [Case(left, ((_pbox(_pvar(u)), Promote(Con("inl", (_var(u),)))),),
                         scrut_annot=left_ty),
                    Case(right, ((_pbox(_pvar(v)), Promote(Con("inr", (_var(v),)))),),
                         scrut_annot=right_ty)]
        return [Case(pair(left, right),
                     ((_pcon(",", (_pbox(_pvar(u)), _pbox(_pvar(v)))),
                       Promote(pair(_var(u), _var(v)))),),
                     scrut_annot=Tensor(left_ty, right_ty))]


class _Drop(_Walker):
    """Structural weakening at a closed weakenable type: T -o Unit."""

    kind = "drop"

    def preconditions(self, s: Type, occ: set) -> None:
        if TyVar in occ:
            raise DeriveError(POLYMORPHIC_DROP,
                              "cannot derive drop in a polymorphic context: type variables "
                              "range over undroppable types")
        if RES in occ:
            raise DeriveError(NOT_DROPPABLE, "the subject contains the linear-only base type Res")
        if Fun in occ:
            raise DeriveError(NOT_DROPPABLE, "the subject contains a function type")
        if Box in occ:
            raise DeriveError(NOT_DROPPABLE, "the subject contains a graded modality")

    def term(self, s: Type) -> tuple[Term, object]:
        if isinstance(s, Base):
            # drop at a weakenable base type is the built-in primitive itself
            return Derive("drop", s), None
        return super().term(s)

    def scheme(self, closed: Type, ctx) -> Type:
        return Fun(closed, Unit())

    def node(self, s: Type, subj: Term, ctx) -> Term:
        if isinstance(s, Base):
            return App(Derive("drop", s), subj)  # built-in weakening
        if isinstance(s, Unit):
            return Case(subj, ((_pcon("unit", ()), UNIT_TERM),),
                        scrut_annot=self.annot(s))
        raise AssertionError(f"unhandled type: {s}")

    def split(self, s: Type, x: Term, y: Term, ctx) -> list[Term]:
        left, right = self.body(s.left, x), self.body(s.right, y)
        if isinstance(s, Sum):
            return [left, right]
        unit = Case(right, ((_pcon("unit", ()), UNIT_TERM),), scrut_annot=Unit())
        return [Case(left, ((_pcon("unit", ()), unit),), scrut_annot=Unit())]


def shape_type(s: Type) -> Type:
    """The spine type: element, base and unit positions become Unit."""
    if isinstance(s, (Unit, TyVar, Base)):
        return Unit()
    if isinstance(s, Tensor):
        return Tensor(shape_type(s.left), shape_type(s.right))
    if isinstance(s, Sum):
        return Sum(shape_type(s.left), shape_type(s.right))
    if isinstance(s, Mu):
        return Mu(s.var, shape_type(s.body))
    if isinstance(s, RecVar):
        return s
    raise AssertionError(f"no shape for type: {s}")


class _CopyShape(_Walker):
    """The shape-copying combinator: T -o (spine of T * T)."""

    kind = "copyShape"

    def preconditions(self, s: Type, occ: set) -> None:
        if Fun in occ:
            raise DeriveError(FUN_IN_SUBJECT, "cannot copy the shape of a function")
        if Box in occ:
            raise DeriveError(BOX_IN_SUBJECT, _NO_BOX)

    def scheme(self, closed: Type, ctx) -> Type:
        return Fun(closed, Tensor(shape_type(closed), closed))

    def copied(self, s: Type, x: Term, sn: str, xn: str, then: Term) -> Term:
        """copyShape at ``s`` of ``x``, with the shape and the value bound to
        ``sn`` and ``xn`` in ``then``."""
        closed = self.annot(s)
        return Case(self.body(s, x), ((_pcon(",", (_pvar(sn), _pvar(xn))), then),),
                    scrut_annot=Tensor(shape_type(closed), closed))

    def node(self, s: Type, subj: Term, ctx) -> Term:
        if isinstance(s, (TyVar, Base)):
            return pair(UNIT_TERM, subj)
        if isinstance(s, Unit):
            return Case(subj, ((_pcon("unit", ()), pair(UNIT_TERM, UNIT_TERM)),),
                        scrut_annot=self.annot(s))
        raise AssertionError(f"no shape for type: {s}")

    def split(self, s: Type, x: Term, y: Term, ctx) -> list[Term]:
        s1, x1 = self.fresh("s"), self.fresh("x")
        s2, y2 = self.fresh("s"), self.fresh("y")
        if isinstance(s, Sum):
            return [self.copied(s.left, x, s1, x1,
                                pair(Con("inl", (_var(s1),)), Con("inl", (_var(x1),)))),
                    self.copied(s.right, y, s2, y2,
                                pair(Con("inr", (_var(s2),)), Con("inr", (_var(y2),))))]
        both = pair(pair(_var(s1), _var(s2)), pair(_var(x1), _var(y2)))
        return [self.copied(s.left, x, s1, x1, self.copied(s.right, y, s2, y2, both))]


class _Fmap(_Walker):
    """The covariant morphism mapping: (alpha -o beta) [g] -o T -o T with beta
    for alpha. Each function at a type takes the boxed function first and
    unboxes it; the context is the unboxed function's variable."""

    kind = "fmap"
    fn = "h"

    def __init__(self, subject: Type, alpha: str, g: Grade, semiring: str):
        super().__init__(semiring)
        self.alpha = alpha
        self.beta = _fresh_tyvar(subject, alpha)
        self.g = g
        self.fn_ty = Box(g, Fun(TyVar(alpha), TyVar(self.beta)))
        self.named = (("var", alpha), ("g", g))

    def preconditions(self, s: Type, occ: set) -> None:
        if Box in occ:
            raise DeriveError(BOX_IN_SUBJECT, _NO_BOX)
        if Fun in occ:
            raise DeriveError(FUN_IN_SUBJECT, "fmap subjects must not contain functions")
        g = self.g
        if g.semiring != self.sr:
            raise DeriveError(MIXED_SEMIRING,
                              f"grade {g} is from {g.semiring}, expected {self.sr}", (g,))

    def covered(self, s: Type) -> None:
        refusal = _fmap_refusal(s, self.alpha, self.g)
        if refusal is not None:
            raise DeriveError(
                SIDE_CONDITION,
                f"grade {self.g} cannot cover the uses of the mapped function: {refusal}",
                (self.g,))

    def scheme(self, closed: Type, ctx) -> Type:
        mapped = subst_tyvars(closed, {self.alpha: TyVar(self.beta)})
        return Fun(self.fn_ty, Fun(closed, mapped))

    def function(self, s: Type, x: str, ctx) -> Term:
        bf, z, f = self.fresh("bf"), self.fresh(x), self.fresh("f")
        return Lam(bf, Lam(z, Case(_var(bf), ((_pbox(_pvar(f)), self.body(s, _var(z), f)),),
                                   scrut_annot=self.fn_ty)))

    def call(self, h: str, subj: Term, fvar: str) -> Term:
        return App(App(_var(h), Promote(_var(fvar))), subj)

    def node(self, s: Type, subj: Term, fvar: str) -> Term:
        if isinstance(s, TyVar):
            if s.name == self.alpha:
                return App(_var(fvar), subj)
            return subj
        if isinstance(s, (Unit, Base)):
            return subj
        raise AssertionError(f"unhandled type: {s}")

    def split(self, s: Type, x: Term, y: Term, fvar: str) -> list[Term]:
        return _rebuild(s, self.body(s.left, x, fvar), self.body(s.right, y, fvar))


def fmap_grade(subject: Type, alpha: str, pool) -> Grade | None:
    """The first grade of ``pool`` at which fmap over the ``alpha``
    positions of ``subject`` can be derived. None if no grade of the pool
    will do."""
    return next((g for g in pool if _fmap_refusal(subject, alpha, g) is None), None)


def _fmap_refusal(subject: Type, alpha: str, g: Grade) -> str | None:
    """Why grade ``g`` of the mapped function cannot cover its uses by fmap
    over the ``alpha`` positions of ``subject``, or None if it covers them:
    each function of fmap, the one at the subject and the one at each mu,
    may use it at most as often as ``g`` allows."""
    levels: list = []
    levels.append(_fmap_uses(subject, alpha, g, levels))
    for u in levels:
        if u is None:
            return "the branches of one call use it at grades with no upper bound"
        if not grades.sr_leq(u, g):
            return f"one call uses it at grade {u}"
    return None


def _fmap_uses(s: Type, alpha: str, g: Grade, levels: list) -> Grade | None:
    """How often the fmap function at ``s``, with its mapped function at
    grade ``g``, uses that function in the part that ``s`` takes, counted as
    the checker counts: once at ``alpha``, ``g`` times at a recursive call,
    the sum over a product and the least upper bound over a sum. The body of
    a mu is the function of its own and is appended to ``levels``. None
    where no count exists: a sum without an upper bound, or a subject that
    fmap refuses."""
    c = s.__class__
    if c is TyVar:
        return grades.one(g.semiring) if s.name == alpha else grades.zero(g.semiring)
    if c is Unit or c is Base:
        return grades.zero(g.semiring)
    if c is RecVar:
        return g
    if c is Mu:
        if isinstance(s.body, (TyVar, RecVar)):
            return None
        levels.append(_fmap_uses(s.body, alpha, g, levels))
        return g
    if c is Tensor or c is Sum:
        left = _fmap_uses(s.left, alpha, g, levels)
        right = _fmap_uses(s.right, alpha, g, levels)
        if left is None or right is None:
            return None
        return grades.sr_add(left, right) if c is Tensor else grades.sr_lub(left, right)
    return None  # a function or a box


def _rebuild(s: Type, left: Term, right: Term) -> list[Term]:
    """The branches that rebuild the sum or product ``s`` from its parts."""
    if isinstance(s, Sum):
        return [Con("inl", (left,)), Con("inr", (right,))]
    return [pair(left, right)]


def _fresh_tyvar(subject: Type, alpha: str) -> str:
    used = free_tyvars(subject) | {alpha}
    for c in "abcdefghijklmnopq":
        if c not in used:
            return c
    i = 0
    while f"b{i}" in used:
        i += 1
    return f"b{i}"


# ---------------------------------------------------------------------------
# preconditions
# ---------------------------------------------------------------------------

def _push_matches(s: Type, occ: set) -> bool:
    """Whether push matches under the box at a base type or at a type with
    more than one constructor, which consumes a use; ``occ`` is
    ``occurring(s)``. Push matches at the subject and at the result of each
    function type outside a function argument."""
    return multi_constructor(s) or Base in occ or _results_multi(s, {})


def _results_multi(s: Type, mu_env: dict[str, Type]) -> bool:
    if isinstance(s, Fun):
        return multi_constructor(_close(s.res, mu_env)) or _results_multi(s.res, mu_env)
    if isinstance(s, (Sum, Tensor)):
        return _results_multi(s.left, mu_env) or _results_multi(s.right, mu_env)
    if isinstance(s, Mu):
        return _results_multi(s.body, {**mu_env, s.var: _close(s, mu_env)})
    return False


def _no_pull_at_base(s: Type) -> str:
    return (f"cannot pull at {pretty_type(s)}: a bare base value cannot be "
            f"re-boxed (promotion requires a graded context)")


_NO_PULL_AT_FUN = ("cannot pull at function types: the concluding box "
                   "would have to promote the incoming function")

_NO_BOX = "no derivation for types which are themselves graded modalities"


def _build(w: _Walker, subject: Type) -> DerivedCombinator:
    syntax.check_wellformed(subject)
    w.preconditions(subject, occurring(subject))
    term, ctx = w.term(subject)
    w.covered(subject)
    concluded = w.scheme(subject, ctx)
    _assert_checks(term, concluded, w.sr, w.kind)
    return DerivedCombinator(w.kind, subject, w.sr, w.named, term, concluded,
                             w.side_conditions, tuple(w.steps))


# ---------------------------------------------------------------------------
# the derivations
# ---------------------------------------------------------------------------

def derive_push(subject: Type, r: Grade) -> DerivedCombinator:
    """Elaborate the box-over-constructor distributive law at the subject type:
    (T) [r] -o T with every type variable boxed at r."""
    key = ("push", subject, r.semiring, r)
    return _memoized(key, lambda: _build(_Push(r), subject))


def derive_pull(subject: Type, rs: dict[str, Grade], semiring: str,
                default_grade: Grade | None = None) -> DerivedCombinator:
    """Elaborate the constructor-over-box distributive law: the subject with
    each variable boxed at its grade, concluding at the meet of the grades
    of the variables that occur (or at ``default_grade`` if none do)."""
    key = ("pull", subject, semiring,
           tuple(sorted(rs.items())), default_grade)
    return _memoized(key, lambda: _build(_Pull(rs, semiring, default_grade), subject))


def derive_drop(subject: Type, semiring: str = grades.NAT_EXACT) -> DerivedCombinator:
    """Elaborate structural weakening at a closed weakenable type: T -o Unit."""
    key = ("drop", subject, semiring)
    return _memoized(key, lambda: _build(_Drop(semiring), subject))


def derive_copyshape(subject: Type, semiring: str = grades.NAT_EXACT) -> DerivedCombinator:
    """Elaborate the shape-copying combinator: T -o (spine of T * T)."""
    key = ("copyShape", subject, semiring)
    return _memoized(key, lambda: _build(_CopyShape(semiring), subject))


def derive_fmap(subject: Type, alpha: str, g: Grade,
                semiring: str | None = None) -> DerivedCombinator:
    """Elaborate the covariant morphism mapping over the ``alpha`` positions,
    with the mapped function boxed at grade ``g``: the grade must cover the
    number of uses along every control path."""
    semiring = semiring or g.semiring
    key = ("fmap", subject, semiring, alpha, g)
    return _memoized(key, lambda: _build(_Fmap(subject, alpha, g, semiring), subject))


# ---------------------------------------------------------------------------
# graded comonad witnesses
# ---------------------------------------------------------------------------

def comonad_eps(a: Type, semiring: str) -> Term:
    """The counit: (A) [1] -o A, checked once per memo."""
    def build() -> Term:
        term = Lam("x", Case(_var("x"), ((_pbox(_pvar("z")), _var("z")),)))
        _assert_checks(term, Fun(Box(grades.one(semiring), a), a), semiring, "eps")
        return term
    return _memoized(("eps", a, semiring), build)


def comonad_delta(a: Type, r: Grade, s: Grade) -> Term:
    """Comultiplication: (A) [r * s] -o ((A) [s]) [r], checked once per memo."""
    if r.semiring != s.semiring:
        raise DeriveError(MIXED_SEMIRING,
                          f"delta grades mix {r.semiring} and {s.semiring}", (r, s))

    def build() -> Term:
        term = Lam("x", Case(_var("x"), ((_pbox(_pvar("z")), Promote(Promote(_var("z")))),)))
        _assert_checks(term, delta_type(a, r, s), r.semiring, "delta")
        return term
    return _memoized(("delta", a, r, s), build)


def delta_type(a: Type, r: Grade, s: Grade) -> Type:
    return Fun(Box(grades.sr_mul(r, s), a), Box(r, Box(s, a)))


# ---------------------------------------------------------------------------
# evaluation support
# ---------------------------------------------------------------------------

def elaborate_untyped(kind: str, subject: Type) -> Term:
    """The elaborated term for a derive node that the checker never saw;
    the evaluator applies the term kept on a checked node instead.

    Terms are grade-independent, so placeholder grades are used for the
    (runtime-irrelevant) annotations. drop at a base type stays primitive.
    Underivable subjects, and fmap over more than one type variable, whose
    mapped variable only a check can tell, surface as stuck terms. The term
    is built as ``derive_<kind>`` builds it, but it is not checked and not
    memoized.
    """
    from .evaluator import StuckTerm
    one = grades.one(grades.NAT_LE)
    if kind == "push":
        w: _Walker = _Push(one)
    elif kind == "pull":
        w = _Pull({a: one for a in free_tyvars(subject)}, grades.NAT_LE, one)
    elif kind == "drop":
        w = _Drop(grades.NAT_LE)
    elif kind == "copyShape":
        w = _CopyShape(grades.NAT_LE)
    elif kind == "fmap":
        alphas = sorted(free_tyvars(subject))
        if len(alphas) > 1:
            raise StuckTerm(f"ambiguous fmap @{pretty_type(subject)}: cannot determine "
                            f"the mapped variable at run time")
        # with no variable positions the function goes unused
        w = _Fmap(subject, alphas[0] if alphas else "a", one, grades.NAT_LE)
    else:
        raise AssertionError(f"unhandled derive kind: {kind}")
    try:
        w.preconditions(subject, occurring(subject))
        return w.term(subject)[0]
    except DeriveError as e:
        raise StuckTerm(f"{kind} @{pretty_type(subject)} is not derivable: {e.message}") from e
