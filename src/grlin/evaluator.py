"""Operational semantics: a fuelled normal-order normalizer.

Reduction is leftmost-outermost over the beta rules (function application,
first-matching-branch case elimination, unroll-on-demand letrec); boxes
suspend their payload until a deep normal form is requested. The remaining
equations of the theory are not rewrite rules here; the law harness
validates them extensionally by comparing normal forms.

The normalizer is a call-by-name environment machine (Sestoft, "Deriving a
Lazy Abstract Machine", JFP 1997) without thunk update: a term is evaluated
in an environment that maps its free variables to closures, so no step
substitutes. Weak head normal forms are computed on an explicit continuation
stack, and normal forms are read back from a work list (Grégoire & Leroy,
ICFP 2002), so neither a long reduction nor a deep result uses the Python
stack. Each rule costs one step of fuel. A closure is evaluated afresh at
each use, and a scrutinee forced by one branch is reused by the next. A
neutral term is a value that the machine accumulates (Grégoire & Leroy's
accumulator), so read-back walks each part of a stuck term once.

A case branch's pattern is matched by a plan, compiled on its first match
and cached on the pattern node: a flat list of its tests in the left to
right preorder in which they force the scrutinee's parts, each linked to
its parent test. The path to a part that must be forced is rebuilt from
those links when it is needed, so a plan is linear in the pattern's size.

A derive node other than drop at a base type applies the term the checker
kept on it; one never checked is elaborated from its subject alone.

``count_uses`` counts how often the machine forces each binding instance,
which under call by name is how often its value is demanded: what a grade
bounds. Forcing an alias forces what it names.
"""

from __future__ import annotations

from .parser import SourceProgram, pretty_term
from .syntax import (
    App, Base, Case, Con, Derive, IntLit, Lam, LetRec, Pattern, PBox, PCon,
    PInt, Pos, Promote, PVar, PWild, Term, UNIT_TERM, Var, _rename_pattern,
    free_vars, fresh_name, pattern_binders, pattern_vars, subst_term,
)

DEFAULT_FUEL = 100_000


class FuelExhausted(Exception):
    def __init__(self, steps: int):
        super().__init__(f"fuel exhausted after {steps} steps")
        self.steps = steps


class StuckTerm(Exception):
    """A closed well-typed term should never get stuck; this signals a
    checker or deriver bug, or a non-exhaustive match."""


class NoMain(Exception):
    pass


class Fuel:
    __slots__ = ("remaining", "spent")

    def __init__(self, remaining: int = DEFAULT_FUEL):
        self.remaining = remaining
        self.spent = 0

    def spend(self) -> None:
        if self.remaining <= 0:
            raise FuelExhausted(self.spent)
        self.remaining -= 1
        self.spent += 1


# ---------------------------------------------------------------------------
# Machine values
#
# A closure is a plain tuple (term, env); env maps names to closures and
# values. A closure whose term is a Lam, Con, Promote, IntLit or Derive is a
# value. The other values are the objects below. ``whnf`` returns a VCon, a
# VBox or a neutral (NVar, NApp, NCase) as it is.
# ---------------------------------------------------------------------------

_VALUE_TERMS = frozenset({Lam, Con, Promote, IntLit, Derive})


class Rec:
    """A letrec-bound variable. Each use unrolls the definition once, in an
    environment that binds the variable to this same object."""
    __slots__ = ("node", "env")

    def __init__(self, node: LetRec, env: dict):
        self.node = node
        self.env = {**env, node.var: self}


class VCon:
    """A constructor value whose arguments a match has forced in part."""
    __slots__ = ("con", "args", "pos")

    def __init__(self, con: str, args: tuple, pos: Pos | None):
        self.con, self.args, self.pos = con, args, pos


class VBox:
    """A box whose payload a match has forced."""
    __slots__ = ("body", "pos")

    def __init__(self, body, pos: Pos | None):
        self.body, self.pos = body, pos


class NVar:
    """A free variable, or a binder that read-back has gone under."""
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class NApp:
    """A neutral applied to a closure; also ``drop`` at a base type stuck on
    a neutral (``fn`` is then the derive value and ``arg`` that neutral)."""
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        self.fn, self.arg = fn, arg


class NCase:
    """A case blocked on a neutral inside its partly forced scrutinee."""
    __slots__ = ("node", "env", "scrut")

    def __init__(self, node: Case, env: dict, scrut):
        self.node, self.env, self.scrut = node, env, scrut


_NEUTRALS = frozenset({NVar, NApp, NCase})


class _Use:
    """A binding instance that ``count_uses`` follows: the bound closure or
    value, its binder site (name, pos) and how often it has been forced.
    An ``Evaluator`` given a ``uses`` list makes one at each binding."""
    __slots__ = ("value", "site", "count")

    def __init__(self, value, site: tuple[str, Pos | None], uses: list):
        self.value, self.site, self.count = value, site, 0
        uses.append(self)


# Continuation frames: (_ARG, arg), (_DROP, derive value, arg) and
# (_CASE, node, env, branch index, scrutinee, path of the forced part).
_ARG, _DROP, _CASE = range(3)

# Outcomes of matching one pattern.
_MATCH, _NOMATCH, _NEED = range(3)


def _closure(t: Term, env: dict):
    """The closure of ``t`` in ``env``; a bound variable is its binding."""
    if type(t) is Var:
        e = env.get(t.name)
        if e is not None:
            return e
    return (t, env)


class Evaluator:
    def __init__(self, fuel: Fuel, uses: list | None = None):
        self.fuel = fuel
        self.uses = uses

    # -- weak head normal form ------------------------------------------------

    def whnf(self, c):
        """The value of a closure or value, computed on an explicit stack."""
        t, env = _split(c)
        fuel = self.fuel
        uses = self.uses
        stack: list = []
        push = stack.append
        while True:
            k = type(t)
            if k is App:
                push((_ARG, _closure(t.arg, env)))
                t = t.fn
                continue
            if k is Var:
                e = env.get(t.name)
                if e is not None:
                    t, env = e if type(e) is tuple else (e, None)
                    continue
                v = NVar(t.name)
            elif k is Case:
                branches = t.branches
                if not branches or type(branches[0][0]) not in (PVar, PWild):
                    push((_CASE, t, env, 0, None, ()))
                    t = t.scrutinee
                    continue
                # a variable or a wildcard matches at once: no frame
                t, env, _ = self._select(t, env, 0, _closure(t.scrutinee, env))
                continue
            elif k in _VALUE_TERMS:
                v = (t, env)
            elif k is LetRec:
                fuel.spend()
                r = Rec(t, env)
                if uses is not None:
                    r.env[t.var] = _Use(r, (t.var, t.pos), uses)
                env = r.env
                t = t.body
                continue
            elif k is Rec:
                fuel.spend()
                env, t = t.env, t.node.bound
                continue
            elif k is _Use:
                t.count += 1
                t, env = _split(t.value)
                continue
            else:  # VCon, VBox or a neutral
                v = t

            # -- return v to the innermost frame ------------------------------
            while stack:
                f = stack.pop()
                tag = f[0]
                if tag == _ARG:
                    arg = f[1]
                    if type(v) is tuple:
                        fn = v[0]
                        if type(fn) is Lam:
                            fuel.spend()
                            if uses is not None:
                                arg = _Use(arg, (fn.var, fn.pos), uses)
                            env = {**v[1], fn.var: arg}
                            t = fn.body
                            break
                        if type(fn) is Derive:
                            if fn.kind == "drop" and isinstance(fn.at, Base):
                                push((_DROP, v, arg))
                            else:
                                fuel.spend()
                                push((_ARG, arg))
                                term = fn._elaborated
                                if term is None:  # a node the checker never saw
                                    from . import deriving
                                    term = deriving.elaborate_untyped(fn.kind, fn.at)
                                arg = (term, {})
                            t, env = _split(arg)
                            break
                    if type(v) not in _NEUTRALS:
                        raise StuckTerm(
                            f"applying a non-function: {pretty_term(self.quote(v))}")
                    v = NApp(v, arg)
                elif tag == _DROP:
                    if type(v) is tuple and type(v[0]) is IntLit:
                        fuel.spend()
                        v = (UNIT_TERM, {})
                    elif type(v) in _NEUTRALS:
                        v = NApp(f[1], v)
                    else:
                        raise StuckTerm(f"drop @{f[1][0].at.name} applied to "
                                        f"{pretty_term(self.quote(v))}")
                else:
                    _, node, cenv, bi, scrut, path = f
                    scrut = _install(scrut, path, v) if path else v
                    if type(v) in _NEUTRALS:
                        v = NCase(node, cenv, scrut)
                        continue
                    t, env, frame = self._select(node, cenv, bi, scrut)
                    if frame:
                        push(frame)
                    break
            else:
                return v

    def _select(self, node: Case, env: dict, bi: int, scrut):
        """Try the branches of ``node`` from ``bi`` on against the partly
        forced scrutinee. Returns (term, env, frame): the body and
        environment of the first branch that matches and no frame, or the
        part of the scrutinee to evaluate next and the case frame that
        takes its value."""
        branches = node.branches
        while bi < len(branches):
            pat, body = branches[bi]
            status, res = _match(pat, scrut)
            if status == _MATCH:
                self.fuel.spend()
                if self.uses is not None:
                    res = {q.name: _Use(res[q.name], (q.name, q.pos), self.uses)
                           for q in pattern_binders(pat)}
                return body, ({**env, **res} if res else env), None
            if status == _NEED:
                path, part = res
                return (*_split(part), (_CASE, node, env, bi, scrut, path))
            bi += 1
        raise StuckTerm(f"no branch matches {pretty_term(self.quote(scrut))}")

    # -- normal forms -----------------------------------------------------------

    def normalize(self, t: Term, deep: bool = False) -> Term:
        """Read back the normal form of ``t``. Each item of the work list is
        evaluated to weak head normal form, then its parts are queued left
        to right, and a node is built once its parts are done."""
        names = None  # every name a neutral variable can have, once needed
        out: list[Term] = []
        todo: list = [(t, {})]
        while todo:
            item = todo.pop()
            if type(item) is _Build:
                n = item.arity
                parts = out[len(out) - n:]
                del out[len(out) - n:]
                out.append(item.make(parts))
                continue
            v = self.whnf(item)
            k = type(v)
            if k is tuple:
                term, env = v
                k = type(term)
                if k is Con:
                    if term.args:
                        todo.append(_Build(len(term.args), lambda ps, t=term:
                                           Con(t.con, tuple(ps), t.pos)))
                        todo.extend(_closure(a, env) for a in reversed(term.args))
                    else:
                        out.append(term)
                elif k is Lam:
                    names = set(free_vars(t)) if names is None else names
                    x = _rename((term.var,), term.body, env, names).get(
                        term.var, term.var)
                    names.add(x)
                    todo.append(_Build(1, lambda ps, x=x, t=term: Lam(x, ps[0], t.pos)))
                    todo.append((term.body, {**env, term.var: NVar(x)}))
                elif k is Promote and deep:
                    todo.append(_Build(1, lambda ps, t=term: Promote(ps[0], t.pos)))
                    todo.append(_closure(term.body, env))
                elif k is Promote:
                    out.append(self.quote(v))
                else:  # IntLit, Derive
                    out.append(term)
            elif k is VCon:
                todo.append(_Build(len(v.args), lambda ps, v=v:
                                   Con(v.con, tuple(ps), v.pos)))
                todo.extend(reversed(v.args))
            elif k is VBox:
                if deep:
                    todo.append(_Build(1, lambda ps, v=v: Promote(ps[0], v.pos)))
                    todo.append(v.body)
                else:
                    out.append(self.quote(v))
            elif k is NVar:
                out.append(Var(v.name))
            elif k is NApp:
                todo.append(_Build(2, lambda ps: App(ps[0], ps[1])))
                todo.append(v.arg)
                todo.append(v.fn)
            else:  # NCase
                node, env = v.node, v.env
                names = set(free_vars(t)) if names is None else names
                pats, bodies = [], []
                for p, b in node.branches:
                    binders = pattern_vars(p)
                    mapping = _rename(binders, b, env, names)
                    names.update(mapping.get(x, x) for x in binders)
                    pats.append(_rename_pattern(p, mapping) if mapping else p)
                    bodies.append((b, {**env, **{x: NVar(mapping.get(x, x))
                                                 for x in binders}}))
                todo.append(_Build(len(pats) + 1, lambda ps, c=node, pats=pats: Case(
                    ps[0], tuple(zip(pats, ps[1:])), c.pos, c.scrut_annot)))
                todo.extend(reversed(bodies))
                todo.append(v.scrut)
        return out[0]

    def quote(self, c) -> Term:
        """The term a closure or value stands for, without evaluating it:
        its environment is substituted into it."""
        k = type(c)
        if k is _Use:
            return self.quote(c.value)
        if k is tuple:
            t, env = c
            sub = {z: self.quote(env[z]) for z in free_vars(t) if z in env}
            return subst_term(t, sub)
        if k is Rec:
            node = c.node
            return self.quote((LetRec(node.var, node.bound, node.bound, node.pos,
                                      node.annot), c.env))
        if k is VCon:
            return Con(c.con, tuple(self.quote(a) for a in c.args), c.pos)
        if k is VBox:
            return Promote(self.quote(c.body), c.pos)
        if k is NVar:
            return Var(c.name)
        if k is NApp:
            return App(self.quote(c.fn), self.quote(c.arg))
        case = self.quote((c.node, c.env))
        return Case(self.quote(c.scrut), case.branches, case.pos, case.scrut_annot)


def _rename(binders, body: Term, env: dict, names: set) -> dict[str, str]:
    """New names for the binders of ``body`` that would capture a neutral
    variable reachable from body's other free variables in ``env``.
    ``names`` holds every name a neutral variable has had so far."""
    if names.isdisjoint(binders):
        return {}
    fv = free_vars(body)
    reach = _free_names(fv.difference(binders), env)
    clash = [x for x in binders if x in reach]
    if not clash:
        return {}
    avoid = reach | fv | set(binders)
    mapping = {}
    for x in clash:
        mapping[x] = fresh_name(x, avoid)
        avoid.add(mapping[x])
    return mapping


def _free_names(names, env: dict) -> set[str]:
    """The free names of the term that ``quote`` would build for ``names``
    in ``env``: a name bound there stands for the free names of its closure
    or value. They are collected on an explicit stack without building a
    term, and each closure or value is visited once, so what environments
    share is walked once. A ``Rec`` stands for ``LetRec(var, bound,
    bound)``: its names are its bound's less ``var``, so the cycle through
    its own environment is not followed. No ``NApp`` or ``NCase`` is
    reachable from an environment: a neutral that a frame takes becomes
    part of another neutral, so no beta or match binds one."""
    found: set[str] = set()
    seen: set[int] = set()
    todo: list = []
    while True:
        for y in names:
            e = env.get(y)
            if e is None:
                found.add(y)
            else:
                todo.append(e)
        names = ()
        if not todo:
            return found
        c = todo.pop()
        if id(c) in seen:
            continue
        seen.add(id(c))
        k = type(c)
        if k is tuple:
            names, env = free_vars(c[0]), c[1]
        elif k is Rec:
            names, env = free_vars(c.node.bound).difference((c.node.var,)), c.env
        elif k is NVar:
            found.add(c.name)
        elif k is VCon:
            todo += c.args
        elif k is VBox:
            todo.append(c.body)
        else:  # _Use
            todo.append(c.value)


def _split(c):
    """A closure or value as the machine's (term, env) registers."""
    return c if type(c) is tuple else (c, None)


def _match(p: Pattern, s):
    """Match pattern ``p`` against the partly forced scrutinee ``s`` by its
    plan. Returns (_MATCH, bindings), (_NOMATCH, None), or (_NEED, (path,
    part)) when the part of ``s`` at ``path`` must be evaluated first. A
    pattern variable binds its part as it is."""
    try:
        plan = p._plan
    except AttributeError:  # a variable or a wildcard, which has no plan
        return _MATCH, ({p.name: s} if type(p) is PVar else {})
    if plan is None:
        plan = _compile(p)
    parts: list = []  # the parts below each test's part, in plan order
    binds: dict = {}
    for up, at, kind, want, n, names in plan:
        part = s if up < 0 else parts[up][at]
        ks = type(part)
        if ks is tuple:
            t, env = part
            k = type(t)
            if k is Con:
                if kind is not PCon or t.con != want or len(t.args) != n:
                    return _NOMATCH, None
                args = [_closure(a, env) for a in t.args]
            elif k is Promote:
                if kind is not PBox:
                    return _NOMATCH, None
                args = (_closure(t.body, env),)
            elif k is IntLit:
                if kind is not PInt or t.value != want:
                    return _NOMATCH, None
                args = ()
            elif k in _VALUE_TERMS:
                return _NOMATCH, None
            else:
                return _NEED, (_path(plan, len(parts)), part)
        elif ks is VCon:
            if kind is not PCon or part.con != want or len(part.args) != n:
                return _NOMATCH, None
            args = part.args
        elif ks is VBox:
            if kind is not PBox:
                return _NOMATCH, None
            args = (part.body,)
        else:
            return _NEED, (_path(plan, len(parts)), part)
        parts.append(args)
        for i, x in names:
            binds[x] = args[i]
    return _MATCH, binds


def _compile(p: Pattern) -> tuple:
    """The plan of a pattern that is not a variable or a wildcard, cached in
    its ``_plan``: one test per sub-pattern of that kind, in the left to
    right preorder in which matching forces parts. A test is (parent test
    or -1, index of its part among the parent's, pattern class,
    constructor or literal, arity, ((index, name) of each part it binds))."""
    plan: list = []
    todo = [(p, -1, 0)]
    while todo:
        q, up, at = todo.pop()
        kq = type(q)
        subs = q.args if kq is PCon else (q.pat,) if kq is PBox else ()
        want = q.con if kq is PCon else q.value if kq is PInt else None
        me = len(plan)
        plan.append((up, at, kq, want, len(subs),
                     tuple((i, r.name) for i, r in enumerate(subs) if type(r) is PVar)))
        todo += ((subs[i], me, i) for i in range(len(subs) - 1, -1, -1)
                 if type(subs[i]) not in (PVar, PWild))
    plan = tuple(plan)
    object.__setattr__(p, "_plan", plan)
    return plan


def _path(plan: tuple, i: int) -> tuple:
    """The path from the scrutinee to the part that test ``i`` reads,
    rebuilt from the parent links."""
    path = []
    while True:
        up, at = plan[i][:2]
        if up < 0:
            return tuple(reversed(path))
        path.append(at)
        i = up


def _install(s, path: tuple, v):
    """``s`` with its part at ``path`` replaced by ``v``."""
    spine = []
    for i in path:
        spine.append(s)
        if type(s) is tuple:
            t, env = s
            s = _closure(t.body if type(t) is Promote else t.args[i], env)
        else:
            s = s.body if type(s) is VBox else s.args[i]
    for s, i in zip(reversed(spine), reversed(path)):
        if type(s) is tuple:
            t, env = s
            if type(t) is Promote:
                v = VBox(v, t.pos)
                continue
            con, args, pos = t.con, [_closure(a, env) for a in t.args], t.pos
        elif type(s) is VBox:
            v = VBox(v, s.pos)
            continue
        else:
            con, args, pos = s.con, list(s.args), s.pos
        args[i] = v
        v = VCon(con, tuple(args), pos)
    return v


class _Build:
    """A read-back node waiting for its ``arity`` parts."""
    __slots__ = ("arity", "make")

    def __init__(self, arity: int, make):
        self.arity, self.make = arity, make


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def normalize(t: Term, fuel: Fuel | None = None, deep: bool = False) -> Term:
    return Evaluator(fuel or Fuel()).normalize(t, deep=deep)


def deep_normalize(t: Term, fuel: Fuel | None = None) -> Term:
    return normalize(t, fuel, deep=True)


def inline_definitions(prog: SourceProgram, name: str) -> Term:
    """Substitute top-level definitions into the named definition's body.

    A definition may refer to itself (it becomes a letrec); mutual cycles
    are rejected. Dependencies are resolved depth first, in declaration
    order, on an explicit stack, each once, so a chain of definitions of any
    length is fine and a cycle is named the same way in every process.
    """
    sigs = {d.name: d.signature for d in prog.decls}
    bodies = {d.name: d.body for d in prog.decls}
    order = {d.name: i for i, d in enumerate(prog.decls)}
    if name not in bodies:
        raise NoMain(f"program has no definition {name!r}")
    resolved: dict[str, Term] = {}
    visiting: list[str] = []  # the chain of definitions being resolved
    todo: list = [name]  # a name to resolve, or (name, its dependencies) to inline
    while True:
        n = todo.pop()
        if type(n) is tuple:  # every dependency is resolved
            n, deps = n
            visiting.pop()
            body = bodies[n]
            inlined = subst_term(body, {m: resolved[m] for m in deps})
            if n in free_vars(body):
                inlined = LetRec(n, inlined, Var(n), annot=sigs.get(n))
            resolved[n] = inlined
            if not visiting:
                return inlined
        elif n in visiting:
            cycle = " -> ".join(visiting + [n])
            raise StuckTerm(
                f"mutually recursive top-level definitions (use letrec): {cycle}")
        elif n not in resolved:
            visiting.append(n)
            deps = [m for m in free_vars(bodies[n]) if m in bodies and m != n]
            deps.sort(key=order.__getitem__)
            todo.append((n, deps))
            todo += reversed(deps)


def run_main(prog: SourceProgram, fuel: Fuel | None = None) -> str:
    """Normalize ``main`` to a deep normal form and print it."""
    term = inline_definitions(prog, "main")
    nf = Evaluator(fuel or Fuel()).normalize(term, deep=True)
    return pretty_term(nf)


def count_uses(t: Term, fuel: Fuel | None = None):
    """Normalize ``t`` deeply, counting how many times the machine forces
    each binding instance. Returns {(name, pos): [count of each instance,
    in binding order]}; a binder site that was never bound is absent.

    An instance is the environment entry a beta, a case match or a letrec
    makes. Passing it on is not a force, so forcing an alias also counts
    the instance it names, along the whole chain."""
    uses: list[_Use] = []
    Evaluator(fuel or Fuel(), uses).normalize(t, deep=True)
    out: dict[tuple[str, Pos | None], list[int]] = {}
    for u in uses:
        out.setdefault(u.site, []).append(u.count)
    return out
