"""Algorithmic typing: bidirectional checking with per-variable usage accounting.

Linear binders must be consumed exactly once on every control path; graded
binders accumulate a usage grade that must be approximated by the declared
grade at binder exit. Grade approximation is applied only at binder exit and
at case-branch merges. Promotion is checking-only (its grade is free
bottom-up), so programs carry top-level signatures.

A binder scopes by the context: the innermost binding of a name wins, and
its usage is discharged when its scope ends, so a binder that shadows
another keeps its source name.

Top-level names and letrec-bound names are recursive references: using them
charges no usage. The recursive binder itself therefore admits contraction,
which the unrolling equation for letrec requires anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import deriving, grades, syntax
from .deriving import MIXED_SEMIRING, NEEDS_ANNOTATION, NOT_DROPPABLE, DeriveError
from .frozen import frozen
from .grades import Grade
from .parser import SourceProgram, pretty_type
from .syntax import (
    App, Base, Box, Case, Con, Derive, Fun, IntLit, Lam, LetRec, Mu, Pattern,
    PBox, PCon, PInt, Pos, Promote, PVar, PWild, RecVar, Sum, Tensor, Term,
    TyVar, Type, Unit, Var, multi_constructor, subst_tyvars, types_equal, unroll_mu,
)

# Stable diagnostic codes (the negative suite matches on these).
TYPE_MISMATCH = "TYPE_MISMATCH"
LINEARITY = "LINEARITY"
GRADE_EXCEEDED = "GRADE_EXCEEDED"
PROMOTE_LINEAR = "PROMOTE_LINEAR"
WILDCARD_WEAKEN = "WILDCARD_WEAKEN"
MATCH_USAGE = "MATCH_USAGE"
NO_UPPER_BOUND = "NO_UPPER_BOUND"
UNKNOWN_VAR = "UNKNOWN_VAR"
DUPLICATE_DEF = "DUPLICATE_DEF"
SYNTAX = "SYNTAX"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    pos: Pos | None = None
    grades: tuple[Grade, ...] = ()
    var: str | None = None

    def render(self) -> str:
        where = str(self.pos) if self.pos else "<no position>"
        return f"{where}: {self.code}: {self.message}"


class CheckError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(diag.render())
        self.diag = diag


def _fail(code: str, message: str, pos: Pos | None = None,
          gs: tuple[Grade, ...] = (), var: str | None = None):
    raise CheckError(Diagnostic(code, message, pos, gs, var))


# Assumptions -----------------------------------------------------------------

@frozen
class Linear:
    type: Type


@frozen
class Graded:
    type: Type
    grade: Grade


@frozen
class RecRef:
    """letrec-bound or top-level name; uses charge no usage."""
    type: Type


Assumption = Linear | Graded | RecRef


# Usages ----------------------------------------------------------------------

# A usage map takes each variable a term uses to its usage: the ``int``
# count of uses of a linear variable, the ``Grade`` of a graded one.
UsageMap = dict


@dataclass
class BinderRecord:
    """Exit record for one binder; used by the usage-count cross-check."""
    name: str
    pos: Pos | None
    kind: str  # "linear" or "graded"
    declared: Grade | None
    usage: int | Grade


def usage_add(u1: UsageMap, u2: UsageMap) -> UsageMap:
    out = dict(u1)
    for name, u in u2.items():
        if name not in out:
            out[name] = u
        elif u.__class__ is int:
            out[name] += u
        else:
            out[name] = grades.sr_add(out[name], u)
    return out


def merge_branch_usages(us: list[UsageMap], sr: str) -> UsageMap:
    """Join per-branch usages: least upper bounds for graded variables,
    equal counts for linear ones."""
    assert us, "merge of empty branch list"
    if len(us) == 1:
        return dict(us[0])
    names = set()
    for u in us:
        names |= u.keys()
    out: UsageMap = {}
    for name in names:
        entries = [u.get(name) for u in us]
        if any(e.__class__ is int for e in entries):
            counts = [(e if e is not None else 0) for e in entries]
            if len(set(counts)) != 1:
                _fail(LINEARITY,
                      f"linear variable {name!r} is used in some branches but not others",
                      var=name)
            out[name] = counts[0]
        else:
            acc = None
            for e in entries:
                g = e if e is not None else grades.zero(sr)
                if acc is None:
                    acc = g
                else:
                    j = grades.sr_lub(acc, g)
                    if j is None:
                        _fail(NO_UPPER_BOUND,
                              f"branch usages {acc} and {g} of {name!r} have no upper bound",
                              gs=(acc, g), var=name)
                    acc = j
            out[name] = acc
    return out


def _grade_semiring(g: Grade, sr: str, pos: Pos | None) -> None:
    """Reject the grade ``g`` unless it is from ``sr``."""
    if g.semiring != sr:
        _fail(MIXED_SEMIRING, f"grade {g} is from {g.semiring}, program uses {sr}",
              pos, gs=(g,))


def _scan_type_semiring(ty: Type, sr: str, pos: Pos | None) -> None:
    """Reject the first grade, left to right, that is not from ``sr``. The
    walk keeps the types still to scan on an explicit stack."""
    todo = [ty]
    while todo:
        ty = todo.pop()
        c = ty.__class__
        if c is Box:
            _grade_semiring(ty.grade, sr, pos)
            todo.append(ty.body)
        elif c is Fun:
            todo += (ty.res, ty.arg)
        elif c is Tensor or c is Sum:
            todo += (ty.right, ty.left)
        elif c is Mu:
            todo.append(ty.body)


# Post-actions of ``Checker.check``: what a tail position does to the usage
# of its sub-term on the way out.
_ADD = 0  # (_ADD, u1): add after the usage u1 of a pair's left component
_EXIT = 1  # (_EXIT, name, asm, pos): the lambda's binder leaves scope
_SCALE = 2  # (_SCALE, grade, pos): the promotion scales the usage
_LETREC = 3  # (_LETREC, u1, var): add after the bound term's usage, drop var


class Checker:
    def __init__(self, semiring: str, defs: dict[str, Type] | None = None,
                 record: bool = False):
        self.sr = semiring
        self.defs = defs or {}
        self.records: list[BinderRecord] = []
        self.record = record

    # -- helpers -------------------------------------------------------------

    def _exit_binder(self, usage: UsageMap, name: str, asm: Assumption,
                     pos: Pos | None) -> None:
        u = usage.pop(name, None)
        if isinstance(asm, RecRef):
            return
        if isinstance(asm, Linear):
            count = u if u is not None else 0
            if self.record:
                self.records.append(BinderRecord(name, pos, "linear", None, count))
            if count != 1:
                _fail(LINEARITY,
                      f"linear variable {name!r} used {count} times (expected exactly 1)",
                      pos, var=name)
        else:
            g = u if u is not None else grades.zero(self.sr)
            if self.record:
                self.records.append(BinderRecord(name, pos, "graded", asm.grade, g))
            if not grades.sr_leq(g, asm.grade):
                _fail(GRADE_EXCEEDED,
                      f"variable {name!r} used at grade {g}, "
                      f"but its binder permits {asm.grade}",
                      pos, gs=(g, asm.grade), var=name)

    def _scale(self, r: Grade, usage: UsageMap, pos: Pos | None) -> UsageMap:
        out: UsageMap = {}
        for name, u in usage.items():
            if u.__class__ is int:
                if u == 0:
                    continue
                _fail(PROMOTE_LINEAR,
                      f"linear variable {name!r} used under a promotion",
                      pos, var=name)
            out[name] = grades.sr_mul(r, u)
        return out

    # -- patterns ------------------------------------------------------------

    def check_pattern(self, enc: Grade | None, p: Pattern, ty: Type
                      ) -> list[tuple[str, Assumption, Pos | None]]:
        binders: list[tuple[str, Assumption, Pos | None]] = []
        self._pattern(enc, p, ty, binders)
        seen = set()
        for name, _, pos in binders:
            if name in seen:
                _fail(LINEARITY, f"variable {name!r} bound twice in one pattern",
                      pos, var=name)
            seen.add(name)
        return binders

    def _pattern(self, enc, p, ty, binders: list) -> None:
        """Append the binders of ``p`` matched against ``ty`` under the
        enclosing grade ``enc`` to ``binders``, left to right. A box's or an
        injection's sub-pattern and a pair's right one continue the loop;
        a pair's left one recurses."""
        while True:
            c = p.__class__
            if c is PVar:
                asm = Linear(ty) if enc is None else Graded(ty, enc)
                binders.append((p.name, asm, p.pos))
                return
            rolled = ty  # a mu has the constructors of its unrolling
            if ty.__class__ is Mu and c is not PWild:
                ty = unroll_mu(ty)
            if c is PWild:
                if enc is None:
                    _fail(WILDCARD_WEAKEN,
                          "wildcard discards a value; it is only allowed under a box pattern",
                          p.pos)
                z = grades.zero(self.sr)
                if not grades.sr_leq(z, enc):
                    _fail(WILDCARD_WEAKEN,
                          f"wildcard needs weakening: {z} is not approximated by {enc}",
                          p.pos, gs=(z, enc))
                return
            if c is PBox:
                if enc is not None:
                    _fail(TYPE_MISMATCH, "box patterns cannot be nested", p.pos)
                if ty.__class__ is not Box:
                    _fail(TYPE_MISMATCH,
                          f"box pattern against non-box type {pretty_type(ty)}", p.pos)
                _grade_semiring(ty.grade, self.sr, p.pos)
                enc, p, ty = ty.grade, p.pat, ty.body
            elif c is PInt:
                if not (ty.__class__ is Base and ty.name == "Int"):
                    _fail(TYPE_MISMATCH,
                          f"integer pattern against type {pretty_type(ty)}", p.pos)
                if enc is not None:
                    o = grades.one(self.sr)
                    if not grades.sr_leq(o, enc):
                        _fail(MATCH_USAGE,
                              f"matching a literal consumes a use: {o} is not approximated "
                              f"by {enc}", p.pos, gs=(o, enc))
                return
            elif c is PCon:
                if enc is not None and multi_constructor(rolled):
                    o = grades.one(self.sr)
                    if not grades.sr_leq(o, enc):
                        _fail(MATCH_USAGE,
                              f"matching a multi-constructor type consumes a use: "
                              f"{o} is not approximated by {enc}",
                              p.pos, gs=(o, enc))
                if p.con == "unit":
                    if ty.__class__ is not Unit:
                        _fail(TYPE_MISMATCH, f"unit pattern against type {pretty_type(ty)}",
                              p.pos)
                    return
                if p.con == ",":
                    if ty.__class__ is not Tensor:
                        _fail(TYPE_MISMATCH, f"pair pattern against type {pretty_type(ty)}",
                              p.pos)
                    self._pattern(enc, p.args[0], ty.left, binders)
                    p, ty = p.args[1], ty.right
                elif p.con == "inl" or p.con == "inr":
                    if ty.__class__ is not Sum:
                        _fail(TYPE_MISMATCH,
                              f"{p.con} pattern against type {pretty_type(ty)}", p.pos)
                    ty = ty.left if p.con == "inl" else ty.right
                    p = p.args[0]
                else:
                    _fail(TYPE_MISMATCH, f"unknown constructor {p.con!r}", p.pos)
            else:
                raise AssertionError(f"unhandled pattern: {p}")

    # -- terms ---------------------------------------------------------------

    def check(self, ctx: dict, t: Term, expected: Type) -> UsageMap:
        """The usage of ``t`` checked against ``expected``. A tail position
        (a mu unrolling, an injection's argument, a pair's right component,
        the body of a lambda, promotion or letrec) continues the loop, and
        what it does to the usage on the way out waits on ``post``, to run
        last first once a leaf has given the usage."""
        post: list[tuple] = []
        while True:
            c = t.__class__
            if c is Var or c is App:
                ty, usage = self.synth(ctx, t)
                if not _types_match(ty, expected):
                    _fail(TYPE_MISMATCH,
                          f"expected {pretty_type(expected)}, found {pretty_type(ty)}",
                          t.pos)
                break
            if (expected.__class__ is Mu and (c is Con or c is Lam or c is Promote
                                              or c is IntLit)
                    and not _unguarded(expected)):
                expected = unroll_mu(expected)
            elif c is Con:
                if t.con == ",":
                    if expected.__class__ is not Tensor:
                        _fail(TYPE_MISMATCH, f"pair against type {pretty_type(expected)}",
                              t.pos)
                    post.append((_ADD, self.check(ctx, t.args[0], expected.left)))
                    t, expected = t.args[1], expected.right
                elif t.con == "inl" or t.con == "inr":
                    if expected.__class__ is not Sum:
                        _fail(TYPE_MISMATCH, f"{t.con} against type {pretty_type(expected)}",
                              t.pos)
                    expected = expected.left if t.con == "inl" else expected.right
                    t = t.args[0]
                else:
                    if t.con != "unit":
                        _fail(TYPE_MISMATCH, f"unknown constructor {t.con!r}", t.pos)
                    if expected.__class__ is not Unit:
                        _fail(TYPE_MISMATCH, f"unit against type {pretty_type(expected)}",
                              t.pos)
                    usage = {}
                    break
            elif c is Case:
                scrut_ty, u_scrut = self._scrutinee(ctx, t)
                branch_usages = []
                for p, body in t.branches:
                    u = self._branch(ctx, p, scrut_ty, body, expected, check_mode=True)
                    branch_usages.append(u)
                merged = merge_branch_usages(branch_usages, self.sr)
                usage = usage_add(u_scrut, merged)
                break
            elif c is Promote:
                if expected.__class__ is not Box:
                    _fail(TYPE_MISMATCH,
                          f"promotion against non-box type {pretty_type(expected)}", t.pos)
                _grade_semiring(expected.grade, self.sr, t.pos)
                post.append((_SCALE, expected.grade, t.pos))
                t, expected = t.body, expected.body
            elif c is Lam:
                if expected.__class__ is not Fun:
                    _fail(TYPE_MISMATCH,
                          f"lambda against non-function type {pretty_type(expected)}",
                          t.pos)
                asm = Linear(expected.arg)
                post.append((_EXIT, t.var, asm, t.pos))
                ctx = {**ctx, t.var: asm}
                t, expected = t.body, expected.res
            elif c is LetRec:
                bound_ty, ctx = self._letrec_intro(ctx, t)
                post.append((_LETREC, self.check(ctx, t.bound, bound_ty), t.var))
                t = t.body
            elif c is IntLit:
                if not (expected.__class__ is Base and expected.name == "Int"):
                    _fail(TYPE_MISMATCH,
                          f"integer literal against type {pretty_type(expected)}", t.pos)
                usage = {}
                break
            elif c is Derive:
                usage = self._check_derive(t, expected)
                break
            else:
                raise AssertionError(f"unhandled term: {t}")
        while post:
            action = post.pop()
            tag = action[0]
            if tag == _ADD:
                usage = usage_add(action[1], usage)
            elif tag == _EXIT:
                self._exit_binder(usage, action[1], action[2], action[3])
            elif tag == _SCALE:
                usage = self._scale(action[1], usage, action[2])
            else:
                usage = usage_add(action[1], usage)
                usage.pop(action[2], None)
        return usage

    def synth(self, ctx: dict, t: Term) -> tuple[Type, UsageMap]:
        if isinstance(t, Var):
            if t.name in ctx:
                asm = ctx[t.name]
                if isinstance(asm, Linear):
                    return asm.type, {t.name: 1}
                if isinstance(asm, Graded):
                    return asm.type, {t.name: grades.one(self.sr)}
                return asm.type, {}
            if t.name in self.defs:
                return self.defs[t.name], {}
            _fail(UNKNOWN_VAR, f"unknown variable {t.name!r}", t.pos, var=t.name)
        if isinstance(t, App):
            # f a1 ... an: synthesize f, then check the arguments left to right
            spine = []
            while t.__class__ is App:
                spine.append(t)
                t = t.fn
            fn_ty, usage = self.synth(ctx, t)
            for app in reversed(spine):
                if fn_ty.__class__ is Mu:
                    fn_ty = unroll_mu(fn_ty)
                if fn_ty.__class__ is not Fun:
                    _fail(TYPE_MISMATCH,
                          f"applying a non-function of type {pretty_type(fn_ty)}", app.pos)
                usage = usage_add(usage, self.check(ctx, app.arg, fn_ty.arg))
                fn_ty = fn_ty.res
            return fn_ty, usage
        if isinstance(t, IntLit):
            return Base("Int"), {}
        if isinstance(t, Con):
            if t.con == "unit":
                return Unit(), {}
            if t.con == ",":
                ty1, u1 = self.synth(ctx, t.args[0])
                ty2, u2 = self.synth(ctx, t.args[1])
                return Tensor(ty1, ty2), usage_add(u1, u2)
            _fail(NEEDS_ANNOTATION,
                  f"{t.con} needs an expected sum type", t.pos)
        if isinstance(t, Derive):
            return self._synth_derive(t)
        if isinstance(t, Case):
            scrut_ty, u_scrut = self._scrutinee(ctx, t)
            result_ty: Type | None = None
            branch_usages = []
            for p, body in t.branches:
                ty, u = self._branch(ctx, p, scrut_ty, body, None, check_mode=False)
                if result_ty is None:
                    result_ty = ty
                elif not types_equal(result_ty, ty):
                    if not _types_match(result_ty, ty):
                        _fail(TYPE_MISMATCH,
                              f"branches disagree: {pretty_type(result_ty)} vs {pretty_type(ty)}",
                              t.pos)
                    if isinstance(ty, Mu):
                        result_ty = ty  # prefer the rolled form
                branch_usages.append(u)
            merged = merge_branch_usages(branch_usages, self.sr)
            return result_ty, usage_add(u_scrut, merged)
        if isinstance(t, LetRec):
            bound_ty, ctx2 = self._letrec_intro(ctx, t)
            u1 = self.check(ctx2, t.bound, bound_ty)
            ty, u2 = self.synth(ctx2, t.body)
            usage = usage_add(u1, u2)
            usage.pop(t.var, None)
            return ty, usage
        if isinstance(t, Lam):
            _fail(NEEDS_ANNOTATION, "lambda needs an expected function type", t.pos)
        if isinstance(t, Promote):
            _fail(NEEDS_ANNOTATION,
                  "promotion needs an expected box type (its grade is unconstrained)",
                  t.pos)
        raise AssertionError(f"unhandled term: {t}")

    # -- shared pieces ---------------------------------------------------------

    def _scrutinee(self, ctx: dict, t: Case) -> tuple[Type, UsageMap]:
        if t.scrut_annot is not None:
            return t.scrut_annot, self.check(ctx, t.scrutinee, t.scrut_annot)
        return self.synth(ctx, t.scrutinee)

    def _branch(self, ctx, p, scrut_ty, body, expected, check_mode):
        binders = self.check_pattern(None, p, scrut_ty)
        ctx2 = dict(ctx)
        for name, asm, _ in binders:
            ctx2[name] = asm
        if check_mode:
            usage = self.check(ctx2, body, expected)
        else:
            ty, usage = self.synth(ctx2, body)
        for name, asm, pos in binders:
            self._exit_binder(usage, name, asm, pos)
        return usage if check_mode else (ty, usage)

    def _letrec_intro(self, ctx: dict, t: LetRec):
        """The type of the letrec's bound and the context of its bound and
        body. Without an annotation the bound's type is synthesized first,
        with the letrec's own name hidden, so that a use of it there is
        one that needs the annotation."""
        bound_ty = t.annot
        if bound_ty is None:
            defs, outer = self.defs, ctx
            if t.var in defs:
                self.defs = {k: v for k, v in defs.items() if k != t.var}
            if t.var in ctx:
                outer = {k: v for k, v in ctx.items() if k != t.var}
            try:
                bound_ty, _ = self.synth(outer, t.bound)
            except CheckError as e:
                if e.diag.code == UNKNOWN_VAR and e.diag.var == t.var:
                    _fail(NEEDS_ANNOTATION,
                          f"recursive binding {t.var!r} needs a type annotation",
                          t.pos)
                raise
            finally:
                self.defs = defs
        return bound_ty, {**ctx, t.var: RecRef(bound_ty)}

    # -- derive nodes ----------------------------------------------------------

    def _synth_derive(self, t: Derive) -> tuple[Type, UsageMap]:
        if t.kind == "drop":
            if isinstance(t.at, Base):
                # built-in weakening for weakenable base types
                if t.at.name not in syntax.WEAKENABLE_BASES:
                    _fail(NOT_DROPPABLE,
                          f"{t.at.name} is a linear-only base type", t.pos)
                return Fun(t.at, Unit()), {}
            comb = self._run_derive(lambda: deriving.derive_drop(t.at, self.sr), t.pos)
            return comb.type, {}
        if t.kind == "copyShape":
            comb = self._run_derive(lambda: deriving.derive_copyshape(t.at, self.sr), t.pos)
            return comb.type, {}
        _fail(NEEDS_ANNOTATION,
              f"{t.kind} @T needs an expected type to determine its grades", t.pos)

    def _check_derive(self, t: Derive, expected: Type) -> UsageMap:
        if t.kind in ("drop", "copyShape"):
            ty, usage = self._synth_derive(t)
            if not types_equal(ty, expected):
                _fail(TYPE_MISMATCH,
                      f"{t.kind} @{pretty_type(t.at)} has type {pretty_type(ty)}, "
                      f"expected {pretty_type(expected)}", t.pos)
            return usage
        if t.kind == "push":
            if not (isinstance(expected, Fun) and isinstance(expected.arg, Box)
                    and types_equal(expected.arg.body, t.at)):
                _fail(TYPE_MISMATCH,
                      f"push @{pretty_type(t.at)} must be used at a type of shape "
                      f"({pretty_type(t.at)}) [r] -o ...", t.pos)
            r = expected.arg.grade
            _grade_semiring(r, self.sr, t.pos)
            comb = self._run_derive(lambda: deriving.derive_push(t.at, r), t.pos)
            if not types_equal(comb.type, expected):
                _fail(TYPE_MISMATCH,
                      f"push @{pretty_type(t.at)} has type {pretty_type(comb.type)}, "
                      f"expected {pretty_type(expected)}", t.pos)
            return {}
        if t.kind == "pull":
            if not (isinstance(expected, Fun) and isinstance(expected.res, Box)
                    and types_equal(expected.res.body, t.at)):
                _fail(TYPE_MISMATCH,
                      f"pull @{pretty_type(t.at)} must be used at a type of shape "
                      f"... -o ({pretty_type(t.at)}) [r]", t.pos)
            rs = self._extract_pull_grades(t.at, expected.arg, t.pos)
            for g in rs.values():
                _grade_semiring(g, self.sr, t.pos)
            result_grade = expected.res.grade
            _grade_semiring(result_grade, self.sr, t.pos)
            comb = self._run_derive(
                lambda: deriving.derive_pull(t.at, rs, self.sr, default_grade=result_grade),
                t.pos)
            if not types_equal(comb.type, expected):
                _fail(TYPE_MISMATCH,
                      f"pull @{pretty_type(t.at)} has type {pretty_type(comb.type)}, "
                      f"expected {pretty_type(expected)}", t.pos)
            return {}
        if t.kind == "fmap":
            shape = (isinstance(expected, Fun) and isinstance(expected.arg, Box)
                     and isinstance(expected.arg.body, Fun)
                     and isinstance(expected.arg.body.arg, TyVar)
                     and isinstance(expected.res, Fun)
                     and types_equal(expected.res.arg, t.at))
            if not shape:
                _fail(TYPE_MISMATCH,
                      f"fmap @{pretty_type(t.at)} must be used at a type of shape "
                      f"(a -o b) [g] -o ({pretty_type(t.at)}) -o ...", t.pos)
            alpha = expected.arg.body.arg.name
            g = expected.arg.grade
            _grade_semiring(g, self.sr, t.pos)
            comb = self._run_derive(
                lambda: deriving.derive_fmap(t.at, alpha, g, self.sr), t.pos)
            # beta may be instantiated at any type
            beta = {comb.type.arg.body.res.name: expected.arg.body.res}
            if not _fmap_result_matches(comb.type.res.res, expected.res.res, beta):
                result = subst_tyvars(comb.type.res.res, beta)
                _fail(TYPE_MISMATCH,
                      f"fmap @{pretty_type(t.at)} has type "
                      f"{pretty_type(Fun(expected.arg, Fun(t.at, result)))}, "
                      f"expected {pretty_type(expected)}", t.pos)
            return {}
        raise AssertionError(f"unhandled derive kind: {t.kind}")

    def _extract_pull_grades(self, subject: Type, arg: Type, pos: Pos | None
                             ) -> dict[str, Grade]:
        rs: dict[str, Grade] = {}
        if not _match_pull_arg(subject, arg, rs, pos):
            _fail(TYPE_MISMATCH,
                  f"pull @{pretty_type(subject)} argument type does not match the subject "
                  f"with boxed variables", pos)
        return rs

    def _run_derive(self, thunk, pos: Pos | None):
        try:
            return thunk()
        except DeriveError as e:
            raise CheckError(Diagnostic(e.code, e.message, pos, e.grades)) from e


def _match_pull_arg(s: Type, a: Type, rs: dict[str, Grade], pos: Pos | None) -> bool:
    """Whether ``a`` is ``s`` with each type variable boxed, recording
    each variable's grade in ``rs``."""
    if isinstance(s, TyVar):
        if not (isinstance(a, Box) and isinstance(a.body, TyVar)
                and a.body.name == s.name):
            return False
        if s.name in rs and rs[s.name] != a.grade:
            _fail(TYPE_MISMATCH,
                  f"variable {s.name!r} is boxed at both {rs[s.name]} "
                  f"and {a.grade}", pos, gs=(rs[s.name], a.grade))
        rs[s.name] = a.grade
        return True
    if type(s) is not type(a):
        return False
    if isinstance(s, Unit):
        return True
    if isinstance(s, Base):
        return s.name == a.name
    if isinstance(s, (Tensor, Sum)):
        return (_match_pull_arg(s.left, a.left, rs, pos)
                and _match_pull_arg(s.right, a.right, rs, pos))
    if isinstance(s, Mu):
        return s.var == a.var and _match_pull_arg(s.body, a.body, rs, pos)
    if isinstance(s, RecVar):
        return s.name == a.name
    return False


def _unguarded(ty: Mu) -> bool:
    """Whether a recursion variable sits under ``ty``'s leading mus, as in
    ``mu X . X``: its unrolling is such a mu again, so no value has it."""
    while ty.__class__ is Mu:
        ty = ty.body
    return ty.__class__ is RecVar


def _types_match(a: Type, b: Type) -> bool:
    """Equality up to one unrolling of a recursive type on either side
    (values cross the mu boundary freely)."""
    if types_equal(a, b):
        return True
    if isinstance(a, Mu) and types_equal(unroll_mu(a), b):
        return True
    return isinstance(b, Mu) and types_equal(a, unroll_mu(b))


def _fmap_result_matches(got: Type, want: Type, beta: dict[str, Type]) -> bool:
    """Whether fmap's result ``got``, before ``beta`` is put in, checks
    against ``want`` as its derived term would: that term rebuilds each sum
    and product by a constructor, which unrolls a mu it is checked against,
    and elsewhere gives a type that matches up to one unrolling."""
    c = got.__class__
    if c is Tensor or c is Sum:
        while want.__class__ is Mu and not _unguarded(want):
            want = unroll_mu(want)
        return (want.__class__ is c
                and _fmap_result_matches(got.left, want.left, beta)
                and _fmap_result_matches(got.right, want.right, beta))
    return _types_match(subst_tyvars(got, beta), want)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def check_term(ctx: dict, t: Term, expected: Type, semiring: str,
               defs: dict[str, Type] | None = None) -> UsageMap:
    """Check ``t`` against ``expected``; returns per-variable usages or raises
    CheckError."""
    return Checker(semiring, defs).check(ctx, t, expected)


def synth_term(ctx: dict, t: Term, semiring: str,
               defs: dict[str, Type] | None = None) -> tuple[Type, UsageMap]:
    return Checker(semiring, defs).synth(ctx, t)


def check_pattern(enc: Grade | None, p: Pattern, ty: Type, semiring: str):
    return Checker(semiring).check_pattern(enc, p, ty)


def check_program(prog: SourceProgram, record: bool = False
                  ) -> list[Diagnostic] | tuple[list[Diagnostic], list[BinderRecord]]:
    """Check every declaration against its signature. Empty list = accepted."""
    diags: list[Diagnostic] = []
    defs: dict[str, Type] = {}
    for d in prog.decls:
        if d.name in defs:
            diags.append(Diagnostic(DUPLICATE_DEF,
                                    f"{d.name!r} is defined more than once", d.pos))
            continue
        defs[d.name] = d.signature
    records: list[BinderRecord] = []
    for d in prog.decls:
        checker = Checker(prog.semiring, defs, record=record)
        try:
            _scan_type_semiring(d.signature, prog.semiring, d.pos)
            checker.check({}, d.body, d.signature)
        except CheckError as e:
            diag = e.diag
            if diag.pos is None:
                diag = Diagnostic(diag.code, diag.message, d.pos, diag.grades, diag.var)
            diags.append(diag)
        records.extend(checker.records)
    if record:
        return diags, records
    return diags
