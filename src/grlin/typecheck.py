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


@frozen
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


@frozen
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
_RIGHT = 4  # (_RIGHT, ctx, t, expected): check a pair's right component next


class Checker:
    def __init__(self, semiring: str, defs: dict[str, Type] | None = None,
                 records: list[BinderRecord] | None = None):
        """``records``, if given, gets each binder's exit record."""
        self.sr = semiring
        self.defs = defs or {}
        self.records = records

    # -- helpers -------------------------------------------------------------

    def _exit_binder(self, usage: UsageMap, name: str, asm: Linear | Graded,
                     pos: Pos | None) -> None:
        u = usage.pop(name, None)
        if asm.__class__ is Linear:
            count = u if u is not None else 0
            if self.records is not None:
                self.records.append(BinderRecord(name, pos, "linear", None, count))
            if count != 1:
                _fail(LINEARITY,
                      f"linear variable {name!r} used {count} times (expected exactly 1)",
                      pos, var=name)
        else:
            g = u if u is not None else grades.zero(self.sr)
            if self.records is not None:
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
        injection's sub-pattern and a pair's left one continue the inner
        loop; a pair's right one waits on ``todo``, so no pattern recurses."""
        todo = [(enc, p, ty)]
        while todo:
            enc, p, ty = todo.pop()
            while True:
                c = p.__class__
                if c is PVar:
                    asm = Linear(ty) if enc is None else Graded(ty, enc)
                    binders.append((p.name, asm, p.pos))
                    break
                rolled = ty  # a mu has the constructors of its unrolling
                if ty.__class__ is Mu and c is not PWild:
                    ty = _unrolled(ty)
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
                    break
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
                    break
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
                        break
                    if p.con == ",":
                        if ty.__class__ is not Tensor:
                            _fail(TYPE_MISMATCH, f"pair pattern against type {pretty_type(ty)}",
                                  p.pos)
                        todo.append((enc, p.args[1], ty.right))
                        p, ty = p.args[0], ty.left
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
        (an injection's argument, a pair's left component, the body of a
        lambda, promotion or letrec) continues the loop, and
        what it does to the usage on the way out waits on ``post``, to run
        last first once a leaf has given the usage. A pair's right component
        waits there too, and is checked when its left one is done."""
        post: list[tuple] = []
        while True:
            while True:
                c = t.__class__
                if c is Var or c is App:
                    ty, usage = self.synth(ctx, t)
                    if not types_match(ty, expected):
                        _fail(TYPE_MISMATCH,
                              f"expected {pretty_type(expected)}, found {pretty_type(ty)}",
                              t.pos)
                    break
                if expected.__class__ is Mu and (c is Con or c is Lam or c is Promote
                                                 or c is IntLit):
                    expected = _unrolled(expected)
                if c is Con:
                    if t.con == ",":
                        if expected.__class__ is not Tensor:
                            _fail(TYPE_MISMATCH, f"pair against type {pretty_type(expected)}",
                                  t.pos)
                        post.append((_RIGHT, ctx, t.args[1], expected.right))
                        t, expected = t.args[0], expected.left
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
                    usage = self._case(ctx, t, expected)[1]
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
                    self._derive(t, expected)
                    usage = {}
                    break
                else:
                    raise AssertionError(f"unhandled term: {t}")
            while post:
                action = post.pop()
                tag = action[0]
                if tag == _RIGHT:
                    post.append((_ADD, usage))
                    _, ctx, t, expected = action
                    break
                if tag == _ADD:
                    usage = usage_add(action[1], usage)
                elif tag == _EXIT:
                    self._exit_binder(usage, action[1], action[2], action[3])
                elif tag == _SCALE:
                    usage = self._scale(action[1], usage, action[2])
                else:
                    usage = usage_add(action[1], usage)
                    usage.pop(action[2], None)
            else:
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
                    fn_ty = _unrolled(fn_ty)
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
            return self._derive(t, None), {}
        if isinstance(t, Case):
            return self._case(ctx, t, None)
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

    def _case(self, ctx: dict, t: Case, expected: Type | None) -> tuple[Type, UsageMap]:
        """The type and usage of the case ``t``, checked against
        ``expected`` or, where that is None, synthesized: the branch types
        must then match up to unrolling, and a rolled one is taken.
        Each branch discharges its pattern's binders, and the branch usages
        merge before the scrutinee's is added."""
        scrut_ty = t.scrut_annot
        if scrut_ty is None:
            scrut_ty, usage = self.synth(ctx, t.scrutinee)
        else:
            usage = self.check(ctx, t.scrutinee, scrut_ty)
        result = expected
        branch_usages = []
        for p, body in t.branches:
            binders = self.check_pattern(None, p, scrut_ty)
            inner = dict(ctx)
            for name, asm, _ in binders:
                inner[name] = asm
            if expected is not None:
                u = self.check(inner, body, expected)
            else:
                ty, u = self.synth(inner, body)
                if result is None:
                    result = ty
                elif not types_equal(result, ty):
                    if not types_match(result, ty):
                        _fail(TYPE_MISMATCH,
                              f"branches disagree: {pretty_type(result)} vs {pretty_type(ty)}",
                              t.pos)
                    if ty.__class__ is Mu:
                        result = ty  # prefer the rolled form
            for name, asm, pos in binders:
                self._exit_binder(u, name, asm, pos)
            branch_usages.append(u)
        return result, usage_add(usage, merge_branch_usages(branch_usages, self.sr))

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

    def _derive(self, t: Derive, expected: Type | None) -> Type:
        """The type of the derive node ``t``, which must match ``expected``
        where that is given. push, pull and fmap read their grades off
        ``expected``, so they need it. The derived term is kept on ``t``."""
        kind, at, sr, pos = t.kind, t.at, self.sr, t.pos
        if kind == "drop" and at.__class__ is Base:
            # built-in weakening for weakenable base types
            if at.name not in syntax.WEAKENABLE_BASES:
                _fail(NOT_DROPPABLE, f"{at.name} is a linear-only base type", pos)
            ty = Fun(at, Unit())
        else:
            if kind == "drop":
                derive, args = deriving.derive_drop, (at, sr)
            elif kind == "copyShape":
                derive, args = deriving.derive_copyshape, (at, sr)
            elif expected is None:
                _fail(NEEDS_ANNOTATION,
                      f"{kind} @T needs an expected type to determine its grades", pos)
            elif kind == "push":
                if not (isinstance(expected, Fun) and isinstance(expected.arg, Box)
                        and types_equal(expected.arg.body, at)):
                    _fail(TYPE_MISMATCH,
                          f"push @{pretty_type(at)} must be used at a type of shape "
                          f"({pretty_type(at)}) [r] -o ...", pos)
                r = expected.arg.grade
                _grade_semiring(r, sr, pos)
                derive, args = deriving.derive_push, (at, r)
            elif kind == "pull":
                if not (isinstance(expected, Fun) and isinstance(expected.res, Box)
                        and types_equal(expected.res.body, at)):
                    _fail(TYPE_MISMATCH,
                          f"pull @{pretty_type(at)} must be used at a type of shape "
                          f"... -o ({pretty_type(at)}) [r]", pos)
                rs: dict[str, Grade] = {}
                if not _match_pull_arg(at, expected.arg, rs, pos):
                    _fail(TYPE_MISMATCH,
                          f"pull @{pretty_type(at)} argument type does not match the subject "
                          f"with boxed variables", pos)
                for g in rs.values():
                    _grade_semiring(g, sr, pos)
                result_grade = expected.res.grade
                _grade_semiring(result_grade, sr, pos)
                derive, args = deriving.derive_pull, (at, rs, sr, result_grade)
            else:
                if not (isinstance(expected, Fun) and isinstance(expected.arg, Box)
                        and isinstance(expected.arg.body, Fun)
                        and isinstance(expected.arg.body.arg, TyVar)
                        and isinstance(expected.res, Fun)
                        and types_equal(expected.res.arg, at)):
                    _fail(TYPE_MISMATCH,
                          f"fmap @{pretty_type(at)} must be used at a type of shape "
                          f"(a -o b) [g] -o ({pretty_type(at)}) -o ...", pos)
                g = expected.arg.grade
                _grade_semiring(g, sr, pos)
                derive, args = deriving.derive_fmap, (at, expected.arg.body.arg.name, g, sr)
            try:
                comb = derive(*args)
            except DeriveError as e:
                raise CheckError(Diagnostic(e.code, e.message, pos, e.grades)) from e
            object.__setattr__(t, "_elaborated", comb.term)
            ty = comb.type
            if kind == "fmap":  # beta may be instantiated at any type
                ty = subst_tyvars(ty, {ty.arg.body.res.name: expected.arg.body.res})
        if expected is not None and not types_match(ty, expected):
            _fail(TYPE_MISMATCH,
                  f"{kind} @{pretty_type(at)} has type {pretty_type(ty)}, "
                  f"expected {pretty_type(expected)}", pos)
        return ty


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
    """Whether ``ty`` unrolls to a mu again before a constructor shows, as ``mu X . X``."""
    head = ty.body
    while head.__class__ is Mu:
        head = head.body
    return head.__class__ is RecVar


def _unrolled(ty: Mu) -> Type:
    """``ty`` unrolled until a constructor shows; an unguarded mu stays."""
    if not _unguarded(ty):
        while ty.__class__ is Mu:
            ty = unroll_mu(ty)
    return ty


def types_match(a: Type, b: Type) -> bool:
    """Whether the closed types ``a`` and ``b`` are equal up to unrolling a
    mu at any position. Past the ``types_equal`` fast path, a loop over an
    explicit stack of pairs unrolls a mu of each pair by one step, unless
    ``types_equal`` holds or the pair was met before (Amadio and Cardelli).
    A mu is unrolled once per call and pairs are known by identity, so the
    loop ends and hashes no type. An unguarded mu is never unrolled."""
    if types_equal(a, b):
        return True
    unrolled: dict = {}  # the identity of a mu -> the mu, kept alive, and its unrolling
    assumed: set = set()  # the identities of the pairs with a mu met so far
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        c = a.__class__
        if a is b:
            continue
        if c is Mu or b.__class__ is Mu:
            if (id(a), id(b)) in assumed or types_equal(a, b):
                continue
            assumed.add((id(a), id(b)))
            t = a if c is Mu else b
            hit = unrolled.get(id(t))
            if hit is None:
                hit = unrolled[id(t)] = (t, t if _unguarded(t) else unroll_mu(t))
            if hit[1] is t:  # unguarded
                return False
            todo.append((hit[1], b) if t is a else (a, hit[1]))
        elif c is not b.__class__:
            return False
        elif c is Fun:
            todo += ((a.res, b.res), (a.arg, b.arg))
        elif c is Tensor or c is Sum:
            todo += ((a.right, b.right), (a.left, b.left))
        elif c is Box:
            if a.grade != b.grade:
                return False
            todo.append((a.body, b.body))
        elif c is not Unit and a.name != b.name:  # a type or recursion variable, a base
            return False
    return True


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


def check_program(prog: SourceProgram, records: list[BinderRecord] | None = None
                  ) -> list[Diagnostic]:
    """Check every declaration against its signature. Empty list = accepted.
    ``records``, if given, gets each binder's exit record."""
    diags: list[Diagnostic] = []
    defs: dict[str, Type] = {}
    for d in prog.decls:
        if d.name in defs:
            diags.append(Diagnostic(DUPLICATE_DEF,
                                    f"{d.name!r} is defined more than once", d.pos))
            continue
        defs[d.name] = d.signature
    for d in prog.decls:
        try:
            _scan_type_semiring(d.signature, prog.semiring, d.pos)
            Checker(prog.semiring, defs, records).check({}, d.body, d.signature)
        except CheckError as e:
            diag = e.diag
            if diag.pos is None:
                diag = Diagnostic(diag.code, diag.message, d.pos, diag.grades, diag.var)
            diags.append(diag)
    return diags
