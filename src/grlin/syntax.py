"""Abstract syntax for types, terms and patterns, plus type-level utilities.

Types, patterns and terms are frozen, slotted dataclasses made by
``frozen.frozen``: a node's ``__init__`` writes each field through its
slot's member descriptor, and ``==``, ``hash`` and ``repr`` are the ones
``dataclasses`` generates. These fields stay out of all three: the source
position ``pos``; the free-variable cache ``_fv`` of a term node, which
``free_vars`` fills later with ``object.__setattr__``; the types
``Case.scrut_annot`` and ``LetRec.annot`` that the deriving engine plants;
and the facts that every type node caches, which ``__init__`` leaves empty
and the first reader fills: the free type variables ``_ftv`` and the free
recursion variables ``_frv`` (``free_tyvars`` and ``free_recvars``) and
the constructor count ``_multi`` that ``multi_constructor`` reads. So
``==`` stays structural and ``alpha_eq`` compares binding structure only.

Substitution shares: ``subst_term``, ``subst_tyvars`` and ``subst_recvar``
return a node in which no substituted variable is free as it is, after one
look at its cached facts, so they allocate only the path to what they
replace. Nothing here is a self-recursive closure, whose cycle only the
cyclic garbage collector could free.
"""

from __future__ import annotations

import itertools
from dataclasses import field
from typing import NamedTuple

from .frozen import frozen
from .grades import Grade


class Pos(NamedTuple):
    file: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

def _fact():
    """A fact about a type node: cached by the function that reads it
    first, left empty by ``__init__`` and out of ``==``, ``hash`` and
    ``repr``."""
    return field(init=False, repr=False, compare=False)


@frozen
class Type:
    _ftv: frozenset[str] = _fact()
    _frv: frozenset[str] = _fact()
    _multi: int = _fact()


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


@frozen
class Base(Type):
    name: str  # "Int" or "Res"


UNIT = Unit()
INT = Base("Int")
RES = Base("Res")

# Base-type classification: Int is weakenable (droppable), Res is linear-only.
WEAKENABLE_BASES = frozenset({"Int"})


class IllFormedType(Exception):
    pass


def check_wellformed(t: Type) -> None:
    """Every recursion variable must be bound by an enclosing mu binder.
    The first unbound one, left to right, is reported."""
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
    """The free type variables of ``t``, computed once per node."""
    ftv = getattr(t, "_ftv", None)
    return _free(t)[0] if ftv is None else ftv


def free_recvars(t: Type) -> frozenset[str]:
    """The free recursion variables of ``t``, computed once per node."""
    frv = getattr(t, "_frv", None)
    return _free(t)[1] if frv is None else frv


def _free(t: Type) -> tuple[frozenset[str], frozenset[str]]:
    """``t``'s free type and recursion variables, read from ``_ftv`` and
    ``_frv`` or computed from its children's and written there. Sets are
    shared as in ``free_vars``. A leaf's are written without a look at
    whether they are there: reading an empty slot raises, which costs more."""
    c = t.__class__
    if c is TyVar:
        ftv, frv = _var_set(t.name), _NO_VARS
    elif c is RecVar:
        ftv, frv = _NO_VARS, _var_set(t.name)
    elif c is Unit or c is Base:
        ftv = frv = _NO_VARS
    else:
        ftv = getattr(t, "_ftv", None)
        if ftv is not None:
            return ftv, t._frv
        if c is Box or c is Mu:
            ftv, frv = _free(t.body)
            if c is Mu:
                frv = _without(frv, (t.var,))
        else:
            a, b = (t.arg, t.res) if c is Fun else (t.left, t.right)
            (ftv, frv), (ftv2, frv2) = _free(a), _free(b)
            ftv, frv = _union(ftv, ftv2), _union(frv, frv2)
    _set_ftv(t, ftv)
    _set_frv(t, frv)
    return ftv, frv


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
    that ``value`` would capture is renamed where ``name`` occurs below it."""
    if name not in free_recvars(t):
        return t
    c = t.__class__
    if c is RecVar:
        return value
    if c is Fun:
        return Fun(subst_recvar(t.arg, name, value), subst_recvar(t.res, name, value))
    if c is Tensor or c is Sum:
        return c(subst_recvar(t.left, name, value), subst_recvar(t.right, name, value))
    if c is Box:
        return Box(t.grade, subst_recvar(t.body, name, value))
    body = t.body
    if t.var in free_recvars(value):
        fresh = _fresh_recvar(t.var, free_recvars(value) | free_recvars(body))
        body = subst_recvar(body, t.var, RecVar(fresh))
        return Mu(fresh, subst_recvar(body, name, value))
    return Mu(t.var, subst_recvar(body, name, value))


def _fresh_recvar(base: str, avoid: set[str]) -> str:
    for i in itertools.count(1):
        cand = f"{base}{i}"
        if cand not in avoid:
            return cand
    raise AssertionError


class NotAMu(Exception):
    pass


def unroll_mu(t: Type) -> Type:
    """One unrolling of a recursive type: mu X. A becomes A[mu X. A / X]."""
    if not isinstance(t, Mu):
        raise NotAMu(f"not a recursive type: {t}")
    return subst_recvar(t.body, t.var, t)


def multi_constructor(t: Type) -> bool:
    """Decide whether the type has more than one data constructor.

    Computed as a least fixed point of the constructor-count equations with
    counts saturated at 2 and recursion variables starting from 0, which is
    the terminating reading of the unrolling equation for mu types.
    """
    count = getattr(t, "_multi", None)
    if count is None:
        count = _count(t, {})
        _set_multi(t, count)
    return count > 1


def _count(t: Type, env: dict[str, int]) -> int:
    """``t``'s constructor count, saturated at 2, where ``env`` counts its
    free recursion variables (0 if absent). A node with none keeps its
    count in ``_multi``, so a μ's fixpoint runs once per node."""
    c = t.__class__
    if c is Unit or c is Fun or c is TyVar:
        return 1
    if c is RecVar:
        return env.get(t.name, 0)
    if c is Base:
        # Int literals are distinguishable by matching; Res is abstract.
        return 2 if t.name in WEAKENABLE_BASES else 1
    closed = not free_recvars(t)
    if closed:
        n = getattr(t, "_multi", None)
        if n is not None:
            return n
    if c is Box:
        n = _count(t.body, env)
    elif c is Sum:
        n = min(2, 2 * (_count(t.left, env) + _count(t.right, env)))
    elif c is Tensor:
        n = min(2, _count(t.left, env) * _count(t.right, env))
    elif c is Mu:
        n = 0
        while (n2 := _count(t.body, {**env, t.var: n})) != n:
            n = n2
    else:
        raise AssertionError(f"unhandled type: {t}")
    if closed:
        _set_multi(t, n)
    return n


def types_equal(a: Type, b: Type) -> bool:
    """Structural equality up to renaming of mu binders."""
    return _types_equal(a, b, {}, {}, 0)


def _types_equal(a: Type, b: Type, la: dict[str, int], lb: dict[str, int],
                 depth: int) -> bool:
    """``la``/``lb`` map each name a mu binds on that side to the depth of
    its innermost binder; ``depth`` counts the mu binders crossed, as in
    ``_alpha``. Where the two maps agree, a type compared with itself
    answers at once."""
    if a is b and la == lb:
        return True
    if isinstance(a, RecVar) and isinstance(b, RecVar):
        return la.get(a.name, a.name) == lb.get(b.name, b.name)
    if type(a) is not type(b):
        return False
    if isinstance(a, Unit):
        return True
    if isinstance(a, (TyVar, Base)):
        return a.name == b.name
    if isinstance(a, Fun):
        return (_types_equal(a.arg, b.arg, la, lb, depth)
                and _types_equal(a.res, b.res, la, lb, depth))
    if isinstance(a, (Tensor, Sum)):
        return (_types_equal(a.left, b.left, la, lb, depth)
                and _types_equal(a.right, b.right, la, lb, depth))
    if isinstance(a, Box):
        return a.grade == b.grade and _types_equal(a.body, b.body, la, lb, depth)
    if isinstance(a, Mu):
        return _types_equal(a.body, b.body, {**la, a.var: depth}, {**lb, b.var: depth},
                            depth + 1)
    raise AssertionError(f"unhandled type: {a}")


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

class Pattern:
    __slots__ = ()


@frozen
class PVar(Pattern):
    name: str
    pos: Pos | None = field(default=None, compare=False, repr=False)


@frozen
class PWild(Pattern):
    pos: Pos | None = field(default=None, compare=False, repr=False)


@frozen
class PBox(Pattern):
    pat: Pattern
    pos: Pos | None = field(default=None, compare=False, repr=False)


@frozen
class PCon(Pattern):
    con: str
    args: tuple[Pattern, ...]
    pos: Pos | None = field(default=None, compare=False, repr=False)


@frozen
class PInt(Pattern):
    value: int
    pos: Pos | None = field(default=None, compare=False, repr=False)


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


def _fv_slot():
    """The free-variable cache of a term node: filled once by ``free_vars``,
    and, like positions, left out of ``==``, ``hash`` and ``repr``."""
    return field(default=None, init=False, repr=False, compare=False)


@frozen
class Var(Term):
    name: str
    pos: Pos | None = field(default=None, compare=False, repr=False)
    _fv: frozenset[str] | None = _fv_slot()


@frozen
class App(Term):
    fn: Term
    arg: Term
    pos: Pos | None = field(default=None, compare=False, repr=False)
    _fv: frozenset[str] | None = _fv_slot()


@frozen
class Lam(Term):
    var: str
    body: Term
    pos: Pos | None = field(default=None, compare=False, repr=False)
    _fv: frozenset[str] | None = _fv_slot()


@frozen
class Promote(Term):
    body: Term
    pos: Pos | None = field(default=None, compare=False, repr=False)
    _fv: frozenset[str] | None = _fv_slot()


@frozen
class Con(Term):
    con: str
    args: tuple[Term, ...]
    pos: Pos | None = field(default=None, compare=False, repr=False)
    _fv: frozenset[str] | None = _fv_slot()


@frozen
class Case(Term):
    scrutinee: Term
    branches: tuple[tuple[Pattern, Term], ...]
    pos: Pos | None = field(default=None, compare=False, repr=False)
    # Scrutinee type planted by the deriving engine so elaborated terms
    # synthesize without a constraint solver; never set by the parser.
    scrut_annot: Type | None = field(default=None, compare=False, repr=False)
    _fv: frozenset[str] | None = _fv_slot()


@frozen
class LetRec(Term):
    var: str
    bound: Term
    body: Term
    pos: Pos | None = field(default=None, compare=False, repr=False)
    # Type of the recursive binder, planted by the deriving engine.
    annot: Type | None = field(default=None, compare=False, repr=False)
    _fv: frozenset[str] | None = _fv_slot()


@frozen
class Derive(Term):
    kind: str  # one of DERIVE_KINDS
    at: Type
    pos: Pos | None = field(default=None, compare=False, repr=False)
    _fv: frozenset[str] | None = _fv_slot()


@frozen
class IntLit(Term):
    value: int
    pos: Pos | None = field(default=None, compare=False, repr=False)
    _fv: frozenset[str] | None = _fv_slot()


UNIT_TERM = Con("unit", ())


def pair(a: Term, b: Term) -> Term:
    return Con(",", (a, b))


_NO_VARS: frozenset[str] = frozenset()
_VAR_SETS: dict[str, frozenset[str]] = {}


def _var_set(name: str) -> frozenset[str]:
    fv = _VAR_SETS.get(name)
    if fv is None:
        fv = _VAR_SETS[name] = frozenset((name,))
    return fv


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


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Equality up to consistent renaming of bound term variables."""
    return _alpha(t1, t2, {}, {}, 0)


def _alpha(t1: Term, t2: Term, env1: dict[str, int], env2: dict[str, int],
           depth: int) -> bool:
    """``env1``/``env2`` map each bound name to the binding depth of its
    innermost binder; ``depth`` counts the binders crossed so far, so a
    shadowing binder gets a level of its own."""
    if type(t1) is not type(t2):
        return False
    if isinstance(t1, Var):
        k1 = env1.get(t1.name, ("free", t1.name))
        k2 = env2.get(t2.name, ("free", t2.name))
        return k1 == k2
    if isinstance(t1, App):
        return (_alpha(t1.fn, t2.fn, env1, env2, depth)
                and _alpha(t1.arg, t2.arg, env1, env2, depth))
    if isinstance(t1, Lam):
        return _alpha(t1.body, t2.body, {**env1, t1.var: depth},
                      {**env2, t2.var: depth}, depth + 1)
    if isinstance(t1, Promote):
        return _alpha(t1.body, t2.body, env1, env2, depth)
    if isinstance(t1, Con):
        return t1.con == t2.con and len(t1.args) == len(t2.args) and all(
            _alpha(a, b, env1, env2, depth) for a, b in zip(t1.args, t2.args)
        )
    if isinstance(t1, IntLit):
        return t1.value == t2.value
    if isinstance(t1, Derive):
        return t1.kind == t2.kind and types_equal(t1.at, t2.at)
    if isinstance(t1, LetRec):
        e1 = {**env1, t1.var: depth}
        e2 = {**env2, t2.var: depth}
        return (_alpha(t1.bound, t2.bound, e1, e2, depth + 1)
                and _alpha(t1.body, t2.body, e1, e2, depth + 1))
    if isinstance(t1, Case):
        if not _alpha(t1.scrutinee, t2.scrutinee, env1, env2, depth):
            return False
        if len(t1.branches) != len(t2.branches):
            return False
        for (p1, b1), (p2, b2) in zip(t1.branches, t2.branches):
            binders = _pattern_pair(p1, p2)
            if binders is None:
                return False
            e1, e2 = dict(env1), dict(env2)
            for i, (x1, x2) in enumerate(binders):
                e1[x1] = depth + i
                e2[x2] = depth + i
            if not _alpha(b1, b2, e1, e2, depth + len(binders)):
                return False
        return True
    raise AssertionError(f"unhandled term: {t1}")


def _pattern_pair(p1: Pattern, p2: Pattern) -> list[tuple[str, str]] | None:
    """Pair up binders of two patterns if they have the same shape."""
    if type(p1) is not type(p2):
        return None
    if isinstance(p1, PVar):
        return [(p1.name, p2.name)]
    if isinstance(p1, PWild):
        return []
    if isinstance(p1, PInt):
        return [] if p1.value == p2.value else None
    if isinstance(p1, PBox):
        return _pattern_pair(p1.pat, p2.pat)
    if isinstance(p1, PCon):
        if p1.con != p2.con or len(p1.args) != len(p2.args):
            return None
        out: list[tuple[str, str]] = []
        for a, b in zip(p1.args, p2.args):
            sub = _pattern_pair(a, b)
            if sub is None:
                return None
            out.extend(sub)
        return out
    raise AssertionError(f"unhandled pattern: {p1}")
