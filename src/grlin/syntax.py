"""Abstract syntax for types, terms and patterns, plus type-level utilities.

Types, patterns and terms are frozen, slotted classes made by
``frozen.frozen``: a node's constructor writes each field through its
slot's member descriptor, and ``repr`` shows its compared fields.

Type nodes carry no position, and they are hash-consed: within one
generation of ``frozen``'s table, which ``deriving.clear_memo`` ends, each
distinct type is one node. So ``==`` between two types of one generation
is ``is``; between generations it walks both on an explicit stack, and
gives what comparing their fields would. ``hash`` is computed once, from
the children's hashes. A type's facts are filled once, when its node is
built, from those of its children: the free type variables ``_ftv`` and
the free recursion variables ``_frv`` (``free_tyvars`` and
``free_recvars``), and the constructor count ``_multi`` of a node without
free recursion variables (``multi_constructor``). A mu keeps its one-step
unrolling in ``_unrolled``, which ``unroll_mu`` fills. None of these is a
field, so they stay out of ``==``, ``hash``, ``repr``, ``copy`` and
``pickle``.

Pattern and term nodes, which carry positions, are built anew each time.
Each is equal only to itself and hashes by identity, as a plain object
does; two terms are compared up to renaming of bound names, by
``alpha_eq``. These fields, declared with ``frozen.field``, stay out of
``repr``, and ``alpha_eq`` does not read them: the source position
``pos``; the free-variable cache ``_fv`` of a term node, which
``free_vars`` fills later with ``object.__setattr__``; the match plan
``_plan`` of a constructor, box or literal pattern, which the evaluator
fills on the pattern's first match as a case branch; the checked term
``_elaborated`` that the checker keeps on a derive node for the
evaluator; and the types ``Case.scrut_annot`` and ``LetRec.annot`` that
the deriving engine plants. So ``alpha_eq`` compares binding structure
only.

``types_equal`` and ``alpha_eq`` are one walk on an explicit stack of node
pairs, which compares types and terms up to renaming of bound names at any
depth.

Substitution shares: ``subst_term``, ``subst_tyvars`` and ``subst_recvar``
return a node in which no substituted variable is free as it is, after one
look at its cached facts, so they allocate only the path to what they
replace. Nothing here is a self-recursive closure, whose cycle only the
cyclic garbage collector could free.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .frozen import field, frozen
from .grades import Grade


class Pos(NamedTuple):
    file: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


# Shared sets of names: one empty set, one set per name, and a set itself
# wherever a union or a binder adds or removes nothing.
_NO_VARS: frozenset[str] = frozenset()
_VAR_SETS: dict[str, frozenset[str]] = {}


def _var_set(name: str) -> frozenset[str]:
    fv = _VAR_SETS.get(name)
    if fv is None:
        fv = _VAR_SETS[name] = frozenset((name,))
    return fv


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _without(fv: frozenset[str], names) -> frozenset[str]:
    if fv.isdisjoint(names):
        return fv
    fv = fv.difference(names)
    return fv if fv else _NO_VARS


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@frozen(interned=True)
class Type:
    """A type node, built once per generation of the table (``frozen``).
    ``_fill`` gives a node its facts from those of its children: the free
    type variables ``_ftv`` and the free recursion variables ``_frv``
    (``free_tyvars`` and ``free_recvars``), and the constructor count
    ``_multi`` (``multi_constructor``), which is None where the node has
    free recursion variables. A mu's ``_unrolled`` is None until
    ``unroll_mu`` fills it."""
    __slots__ = ("_ftv", "_frv", "_multi")

    def _fill(self) -> None:
        c = self.__class__
        try:
            if c is Fun or c is Tensor or c is Sum:
                a, b = (self.arg, self.res) if c is Fun else (self.left, self.right)
                ftv, frv = _union(a._ftv, b._ftv), _union(a._frv, b._frv)
                multi = (None if frv else 1 if c is Fun
                         else min(2, 2 * (a._multi + b._multi)) if c is Sum
                         else min(2, a._multi * b._multi))
            elif c is Box:
                ftv, frv, multi = self.body._ftv, self.body._frv, self.body._multi
            elif c is Mu:
                _set_unrolled(self, None)
                _set_multi(self, None)  # as ``_count`` reads it
                ftv, frv = self.body._ftv, _without(self.body._frv, (self.var,))
                multi = None if frv else _count(self, {})
            elif c is TyVar:
                ftv, frv, multi = _var_set(self.name), _NO_VARS, 1
            elif c is RecVar:
                ftv, frv, multi = _NO_VARS, _var_set(self.name), None
            elif c is Unit or c is Base:
                ftv = frv = _NO_VARS
                multi = 2 if c is Base and self.name in WEAKENABLE_BASES else 1
            else:
                return
        except AttributeError:  # a child is no type node: no facts
            return
        _set_ftv(self, ftv)
        _set_frv(self, frv)
        _set_multi(self, multi)


_set_ftv, _set_frv, _set_multi = (Type.__dict__[f].__set__
                                   for f in ("_ftv", "_frv", "_multi"))


@frozen
class Fun(Type):
    arg: Type
    res: Type


@frozen
class Tensor(Type):
    left: Type
    right: Type


@frozen
class Sum(Type):
    left: Type
    right: Type


@frozen
class Unit(Type):
    pass


@frozen
class Box(Type):
    grade: Grade
    body: Type


@frozen
class TyVar(Type):
    name: str


@frozen
class RecVar(Type):
    name: str


@frozen
class Mu(Type):
    var: str
    body: Type
    __slots__ = ("_unrolled",)


_set_unrolled = Mu.__dict__["_unrolled"].__set__


@frozen
class Base(Type):
    name: str  # "Int" or "Res"


# Base-type classification: Int is weakenable (droppable), Res is linear-only.
WEAKENABLE_BASES = frozenset({"Int"})

UNIT = Unit()
INT = Base("Int")
RES = Base("Res")


class IllFormedType(Exception):
    pass


def check_wellformed(t: Type) -> None:
    """Every recursion variable must be bound by an enclosing mu binder:
    ``t`` has no free recursion variables. Only to report the first
    unbound one, left to right, is ``t`` walked."""
    if not t._frv:
        return
    bound: list[str] = []  # the binders around the type on top of ``todo``
    todo: list = [t]  # None closes the scope of the innermost binder
    while todo:
        t = todo.pop()
        c = t.__class__
        if c is RecVar:
            if t.name not in bound:
                raise IllFormedType(f"unbound recursion variable {t.name}")
        elif c is Fun:
            todo += (t.res, t.arg)
        elif c is Tensor or c is Sum:
            todo += (t.right, t.left)
        elif c is Box:
            todo.append(t.body)
        elif c is Mu:
            bound.append(t.var)
            todo += (None, t.body)
        elif t is None:
            bound.pop()


def free_tyvars(t: Type) -> frozenset[str]:
    """The free type variables of ``t``."""
    return t._ftv


def free_recvars(t: Type) -> frozenset[str]:
    """The free recursion variables of ``t``."""
    return t._frv


def occurring(t: Type) -> set:
    """The classes of the nodes of ``t``, and each base type in it that
    cannot be weakened (``RES``), found in one walk over an explicit stack."""
    found: set = set()
    todo = [t]
    while todo:
        t = todo.pop()
        c = t.__class__
        found.add(c)
        if c is Fun:
            todo += (t.arg, t.res)
        elif c is Tensor or c is Sum:
            todo += (t.left, t.right)
        elif c is Box or c is Mu:
            todo.append(t.body)
        elif c is Base and t.name not in WEAKENABLE_BASES:
            found.add(t)
    return found


def subst_tyvars(t: Type, sub: dict[str, Type]) -> Type:
    """Replace free type variables; tyvars have no binders so no capture."""
    if sub.keys().isdisjoint(free_tyvars(t)):
        return t
    c = t.__class__
    if c is TyVar:
        return sub[t.name]
    if c is Fun:
        return Fun(subst_tyvars(t.arg, sub), subst_tyvars(t.res, sub))
    if c is Tensor or c is Sum:
        return c(subst_tyvars(t.left, sub), subst_tyvars(t.right, sub))
    if c is Box:
        return Box(t.grade, subst_tyvars(t.body, sub))
    return Mu(t.var, subst_tyvars(t.body, sub))


def subst_recvar(t: Type, name: str, value: Type) -> Type:
    """Capture-avoiding substitution of a recursion variable. A mu binder
    that ``value`` would capture is renamed where ``name`` occurs below it:
    its body is renamed first, then substituted.

    Only the nodes above an occurrence are rebuilt, on an explicit stack, so
    a type of any depth is fine. ``todo`` holds the types to substitute into
    and, below the children of a node, ``(node,)``, which rebuilds it from
    their results on ``done``; a mu's is ``(binder,)``. A renamed mu body is
    substituted into once ``(binder, name, value)`` restores the outer
    substitution."""
    if name not in free_recvars(t):
        return t
    done: list[Type] = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        c = t.__class__
        if c is tuple:
            if len(t) == 3:
                fresh, name, value = t
                todo += ((fresh,), done.pop())
                continue
            t = t[0]
            c = t.__class__
            if c is str:
                t = Mu(t, done.pop())
            elif c is Box:
                t = Box(t.grade, done.pop())
            else:
                right = done.pop()
                t = c(done.pop(), right)
            done.append(t)
        elif name not in free_recvars(t):
            done.append(t)
        elif c is RecVar:
            done.append(value)
        elif c is Mu:
            if t.var in free_recvars(value):
                fresh = _fresh_recvar(t.var, free_recvars(value) | free_recvars(t.body))
                todo += ((fresh, name, value), t.body)
                name, value = t.var, RecVar(fresh)
            else:
                todo += ((t.var,), t.body)
        elif c is Box:
            todo += ((t,), t.body)
        elif c is Fun:
            todo += ((t,), t.res, t.arg)
        else:
            todo += ((t,), t.right, t.left)
    return done[0]


def _fresh_recvar(base: str, avoid: set[str]) -> str:
    for i in itertools.count(1):
        cand = f"{base}{i}"
        if cand not in avoid:
            return cand
    raise AssertionError


class NotAMu(Exception):
    pass


def unroll_mu(t: Type) -> Type:
    """One unrolling of a recursive type: mu X. A becomes A[mu X. A / X].
    The mu keeps it in ``_unrolled``."""
    if t.__class__ is not Mu:
        raise NotAMu(f"not a recursive type: {t}")
    u = t._unrolled
    if u is None:
        u = subst_recvar(t.body, t.var, t)
        _set_unrolled(t, u)
    return u


def multi_constructor(t: Type) -> bool:
    """Decide whether the type has more than one data constructor.

    Computed as a least fixed point of the constructor-count equations with
    counts saturated at 2 and recursion variables starting from 0, which is
    the terminating reading of the unrolling equation for mu types.
    """
    count = t._multi
    if count is None:
        count = _count(t, {})
    return count > 1


_VAR, _MU = 0, 1  # the steps of ``_count``'s plan that read and set a mu's variable


def _count(t: Type, env: dict[str, int]) -> int:
    """``t``'s constructor count, saturated at 2, where ``env`` counts its
    free recursion variables (0 if absent). A node without any answers from
    ``_multi``, so only the part of ``t`` with free recursion variables is
    walked, once, on an explicit stack, into a plan in postorder: a count,
    ``(_VAR, i)`` for a recursion variable bound by the mu numbered ``i``,
    ``(Sum,)`` or ``(Tensor,)`` to combine two counts, and ``(_MU, i)``
    where the body of mu ``i`` is counted. The plan runs until a pass
    changes no mu's count, each step reading the counts as they stand; as
    they only grow, this reaches the least fixed point of all the mus at
    once (Bekić), in at most two passes per mu."""
    plan: list = []
    counts: list[int] = []  # each mu's, from 0
    scope: dict[str, int] = {}  # a name -> the number of its innermost binder
    todo: list = [t]
    while todo:
        t = todo.pop()
        c = t.__class__
        if c is tuple:
            if len(t) == 1:  # (Sum,) or (Tensor,): the children are planned
                plan.append(t)
                continue
            name, i, outer = t  # the scope of mu i ends
            if outer is None:
                del scope[name]
            else:
                scope[name] = outer
            plan.append((_MU, i))
            continue
        n = t._multi
        if n is not None:
            plan.append(n)
        elif c is RecVar:
            i = scope.get(t.name)
            plan.append(env.get(t.name, 0) if i is None else (_VAR, i))
        elif c is Fun:
            plan.append(1)
        elif c is Box:
            todo.append(t.body)
        elif c is Mu:
            todo += ((t.var, len(counts), scope.get(t.var)), t.body)
            scope[t.var] = len(counts)
            counts.append(0)
        else:
            todo += ((c,), t.right, t.left)
    changed = True
    while changed:
        changed = False
        done: list[int] = []
        for step in plan:
            if step.__class__ is int:
                done.append(step)
                continue
            kind = step[0]
            if kind is Sum or kind is Tensor:
                right, left = done.pop(), done.pop()
                done.append(min(2, 2 * (left + right)) if kind is Sum else min(2, left * right))
            elif kind == _VAR:
                done.append(counts[step[1]])
            elif done[-1] != counts[step[1]]:
                counts[step[1]] = done[-1]
                changed = True
    return done[0]


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

class Pattern:
    __slots__ = ()


def _cache():
    """A cache on a node: filled once by the function that reads it, and,
    like positions, left out of ``repr``."""
    return field(default=None, init=False)


@frozen
class PVar(Pattern):
    name: str
    pos: Pos | None = field(default=None)


@frozen
class PWild(Pattern):
    pos: Pos | None = field(default=None)


@frozen
class PBox(Pattern):
    pat: Pattern
    pos: Pos | None = field(default=None)
    _plan: tuple | None = _cache()


@frozen
class PCon(Pattern):
    con: str
    args: tuple[Pattern, ...]
    pos: Pos | None = field(default=None)
    _plan: tuple | None = _cache()


@frozen
class PInt(Pattern):
    value: int
    pos: Pos | None = field(default=None)
    _plan: tuple | None = _cache()


def pattern_vars(p: Pattern) -> list[str]:
    """The variables ``p`` binds, left to right."""
    return [q.name for q in pattern_binders(p)]


def pattern_binders(p: Pattern) -> list[PVar]:
    """The variable patterns of ``p``, left to right; the walk keeps the
    sub-patterns still to visit on an explicit stack."""
    out: list[PVar] = []
    todo = [p]
    while todo:
        p = todo.pop()
        c = p.__class__
        if c is PVar:
            out.append(p)
        elif c is PBox:
            todo.append(p.pat)
        elif c is PCon:
            todo += reversed(p.args)
    return out


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

DERIVE_KINDS = ("push", "pull", "drop", "copyShape", "fmap")


class Term:
    __slots__ = ()


@frozen
class Var(Term):
    name: str
    pos: Pos | None = field(default=None)
    _fv: frozenset[str] | None = _cache()


@frozen
class App(Term):
    fn: Term
    arg: Term
    pos: Pos | None = field(default=None)
    _fv: frozenset[str] | None = _cache()


@frozen
class Lam(Term):
    var: str
    body: Term
    pos: Pos | None = field(default=None)
    _fv: frozenset[str] | None = _cache()


@frozen
class Promote(Term):
    body: Term
    pos: Pos | None = field(default=None)
    _fv: frozenset[str] | None = _cache()


@frozen
class Con(Term):
    con: str
    args: tuple[Term, ...]
    pos: Pos | None = field(default=None)
    _fv: frozenset[str] | None = _cache()


@frozen
class Case(Term):
    scrutinee: Term
    branches: tuple[tuple[Pattern, Term], ...]
    pos: Pos | None = field(default=None)
    # Scrutinee type planted by the deriving engine so elaborated terms
    # synthesize without a constraint solver; never set by the parser.
    scrut_annot: Type | None = field(default=None)
    _fv: frozenset[str] | None = _cache()


@frozen
class LetRec(Term):
    var: str
    bound: Term
    body: Term
    pos: Pos | None = field(default=None)
    # Type of the recursive binder, planted by the deriving engine.
    annot: Type | None = field(default=None)
    _fv: frozenset[str] | None = _cache()


@frozen
class Derive(Term):
    kind: str  # one of DERIVE_KINDS
    at: Type
    pos: Pos | None = field(default=None)
    _fv: frozenset[str] | None = _cache()
    # The checked combinator term, kept by the checker for the evaluator.
    _elaborated: Term | None = _cache()


@frozen
class IntLit(Term):
    value: int
    pos: Pos | None = field(default=None)
    _fv: frozenset[str] | None = _cache()


UNIT_TERM = Con("unit", ())


def pair(a: Term, b: Term) -> Term:
    return Con(",", (a, b))


def free_vars(t: Term) -> frozenset[str]:
    """The free term variables of ``t``, computed once per node.

    Sets are shared rather than copied: one empty set, one set per variable
    name, and a child's own set wherever a union or a binder adds or removes
    nothing. The nodes not yet filled are filled children first, on an
    explicit stack, so a term of any depth is fine."""
    fv = t._fv
    if fv is not None:
        return fv
    stack = [t]
    while stack:
        node = stack[-1]
        for c in _subterms(node):
            if c._fv is None:
                stack.append(c)
        if stack[-1] is node:  # every child is filled
            stack.pop()
            object.__setattr__(node, "_fv", _free_vars(node))
    return t._fv


def _subterms(t: Term) -> tuple[Term, ...]:
    if isinstance(t, App):
        return (t.fn, t.arg)
    if isinstance(t, (Lam, Promote)):
        return (t.body,)
    if isinstance(t, Con):
        return t.args
    if isinstance(t, Case):
        return (t.scrutinee, *(b for _, b in t.branches))
    if isinstance(t, LetRec):
        return (t.bound, t.body)
    return ()


def _free_vars(t: Term) -> frozenset[str]:
    """The free variables of ``t`` from the filled caches of its children."""
    if isinstance(t, Var):
        return _var_set(t.name)
    if isinstance(t, App):
        return _union(t.fn._fv, t.arg._fv)
    if isinstance(t, Lam):
        return _without(t.body._fv, (t.var,))
    if isinstance(t, Promote):
        return t.body._fv
    if isinstance(t, Con):
        fv = _NO_VARS
        for a in t.args:
            fv = _union(fv, a._fv)
        return fv
    if isinstance(t, Case):
        fv = t.scrutinee._fv
        for p, b in t.branches:
            fv = _union(fv, _without(b._fv, pattern_vars(p)))
        return fv
    if isinstance(t, LetRec):
        return _without(_union(t.bound._fv, t.body._fv), (t.var,))
    return _NO_VARS


def fresh_name(base: str, avoid: set[str]) -> str:
    if base not in avoid:
        return base
    for i in itertools.count(1):
        cand = f"{base}_{i}"
        if cand not in avoid:
            return cand
    raise AssertionError


def _rename_pattern(p: Pattern, mapping: dict[str, str]) -> Pattern:
    if isinstance(p, PVar):
        return PVar(mapping.get(p.name, p.name), p.pos)
    if isinstance(p, PBox):
        return PBox(_rename_pattern(p.pat, mapping), p.pos)
    if isinstance(p, PCon):
        return PCon(p.con, tuple(_rename_pattern(a, mapping) for a in p.args), p.pos)
    return p


def subst_term(t: Term, sub: dict[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution.

    A subterm in which no key of ``sub`` is free is returned as it is, so
    the cost is proportional to the part of the term that changes."""
    if not sub or sub.keys().isdisjoint(free_vars(t)):
        return t
    if isinstance(t, Var):
        return sub[t.name]
    if isinstance(t, App):
        return App(subst_term(t.fn, sub), subst_term(t.arg, sub), t.pos)
    if isinstance(t, Promote):
        return Promote(subst_term(t.body, sub), t.pos)
    if isinstance(t, Con):
        return Con(t.con, tuple(subst_term(a, sub) for a in t.args), t.pos)
    if isinstance(t, Lam):
        mapping, (body,) = _subst_under_binders((t.var,), (t.body,), sub)
        return Lam(mapping.get(t.var, t.var), body, t.pos)
    if isinstance(t, LetRec):
        mapping, (bound, body) = _subst_under_binders((t.var,), (t.bound, t.body), sub)
        return LetRec(mapping.get(t.var, t.var), bound, body, t.pos, t.annot)
    if isinstance(t, Case):
        scrut = subst_term(t.scrutinee, sub)
        branches = []
        for p, b in t.branches:
            mapping, (b,) = _subst_under_binders(pattern_vars(p), (b,), sub)
            branches.append((_rename_pattern(p, mapping) if mapping else p, b))
        return Case(scrut, tuple(branches), t.pos, t.scrut_annot)
    raise AssertionError(f"unhandled term: {t}")


def _subst_under_binders(binders: tuple[str, ...] | list[str], bodies: tuple[Term, ...],
                         sub: dict[str, Term]):
    """Apply ``sub`` minus ``binders`` to the terms they scope over. A binder
    that a substituted value would capture is renamed first, to a name free
    nowhere in sight. Returns (binder renaming, new bodies)."""
    inner = {k: v for k, v in sub.items() if k not in binders}
    if not inner:
        return {}, bodies
    values_fv = [free_vars(v) for v in inner.values()]
    clash = [x for x in binders if any(x in fv for fv in values_fv)]
    mapping: dict[str, str] = {}
    if clash:
        avoid = set(inner).union(binders, *values_fv, *map(free_vars, bodies))
        for x in clash:
            mapping[x] = fresh_name(x, avoid)
            avoid.add(mapping[x])
        ren = {x: Var(y) for x, y in mapping.items()}
        bodies = tuple(subst_term(b, ren) for b in bodies)
    return mapping, tuple(subst_term(b, inner) for b in bodies)


# ---------------------------------------------------------------------------
# Equality up to renaming
# ---------------------------------------------------------------------------

def types_equal(a: Type, b: Type) -> bool:
    """Structural equality up to renaming of mu binders."""
    return a is b or _equal(a, b)


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Equality up to consistent renaming of bound term variables."""
    return _equal(t1, t2)


def _equal(a, b) -> bool:
    """Whether two types, or two terms, are equal up to renaming of bound
    names, in one walk over an explicit stack of node pairs. Bound names are
    read as de Bruijn read them: each pair of binders met gets a number, and
    ``ra``/``rb`` (recursion variables, bound by a mu) and ``va``/``vb``
    (term variables, bound by a lambda, a letrec or a case pattern in
    ``pattern_binders`` order) map each side's bound names to the number of
    their innermost binder; a free name stands for itself. A binder writes
    into the maps in place and pushes, below its scope's pairs, an item
    ``(None, saved)`` that restores them, so it costs the same at any depth.
    No mu is in scope where a ``Derive``'s types are met. Identical nodes
    under equal maps are equal."""
    ra, rb, va, vb = {}, {}, {}, {}
    level = 0
    todo: list = [(a, b)]
    while todo:
        a, b = todo.pop()
        c = a.__class__
        if c is not b.__class__:
            if a is None:  # the end of a scope
                for m, x, old in reversed(b):
                    if old is None:
                        del m[x]
                    else:
                        m[x] = old
                continue
            return False
        if a is b and (ra == rb if isinstance(a, Type) else va == vb):
            continue
        if c is Fun:
            todo += ((a.res, b.res), (a.arg, b.arg))
        elif c is Tensor or c is Sum:
            todo += ((a.right, b.right), (a.left, b.left))
        elif c is Box:
            if a.grade != b.grade:
                return False
            todo.append((a.body, b.body))
        elif c is TyVar or c is Base:
            if a.name != b.name:
                return False
        elif c is Var or c is RecVar:
            m1, m2 = (va, vb) if c is Var else (ra, rb)
            if m1.get(a.name, a.name) != m2.get(b.name, b.name):
                return False
        elif c is App:
            todo += ((a.arg, b.arg), (a.fn, b.fn))
        elif c is Lam or c is Mu or c is LetRec or c is tuple:  # tuple: case branches
            if c is tuple:
                xs, ys = pattern_binders(a[0]), pattern_binders(b[0])
                if len(xs) != len(ys):
                    return False
                names = [(x.name, y.name) for x, y in zip(xs, ys)]
                scope = ((a[1], b[1]), (a[0], b[0]))
            else:
                names = ((a.var, b.var),)
                scope = ((a.body, b.body),) + (((a.bound, b.bound),) if c is LetRec else ())
            m1, m2 = (ra, rb) if c is Mu else (va, vb)
            saved = []
            for x, y in names:
                saved += ((m1, x, m1.get(x)), (m2, y, m2.get(y)))
                m1[x] = m2[y] = level
                level += 1
            todo.append((None, saved))
            todo += scope
        elif c is Con or c is PCon:
            if a.con != b.con or len(a.args) != len(b.args):
                return False
            todo += zip(reversed(a.args), reversed(b.args))
        elif c is Case:
            if len(a.branches) != len(b.branches):
                return False
            todo += zip(reversed(a.branches), reversed(b.branches))
            todo.append((a.scrutinee, b.scrutinee))
        elif c is Promote or c is PBox:
            todo.append((a.body, b.body) if c is Promote else (a.pat, b.pat))
        elif c is IntLit or c is PInt:
            if a.value != b.value:
                return False
        elif c is Derive:
            if a.kind != b.kind:
                return False
            todo.append((a.at, b.at))
        elif c is not Unit and c is not PVar and c is not PWild:
            raise AssertionError(f"unhandled node: {a}")
    return True
