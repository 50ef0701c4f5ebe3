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
stack. Each rule costs one step of fuel, as a substituting normalizer would
spend it: a closure is evaluated afresh at each use, a scrutinee forced by
one branch is reused by the next, and a neutral term is evaluated again
wherever it is read back.

``count_uses`` counts how often the machine forces each binding instance,
which under call by name is how often its value is demanded: what a grade
bounds. Forcing an alias forces what it names, and a neutral read back
twice counts twice (see ``count_uses``).
"""

from __future__ import annotations

from .parser import SourceProgram, pretty_term
from .syntax import (
    App, Base, Case, Con, Derive, IntLit, Lam, LetRec, Pattern, PBox, PCon,
    Pos, Promote, PVar, PWild, Term, Type, UNIT_TERM, Var, _rename_pattern,
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
# value. The other values are the objects below.
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
    """A neutral applied to a closure; also ``drop`` at a base type applied
    to a closure whose value is neutral (``fn`` is then the derive value)."""
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
                t, env, frame = self._select(t, env, 0, _closure(t.scrutinee, env))
                if frame:
                    push(frame)
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
            elif k is NApp:
                push((_ARG, t.arg))
                t, env = _split(t.fn)
                continue
            elif k is NCase:
                t, env, frame = self._select(t.node, t.env, 0, t.scrut)
                if frame:
                    push(frame)
                continue
            elif k is _Use:
                t.count += 1
                t, env = _split(t.value)
                continue
            else:  # VCon, VBox, NVar
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
                                from . import deriving
                                push((_ARG, arg))
                                arg = (deriving.elaborate_untyped(fn.kind, fn.at), {})
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
                        v = NApp(f[1], f[2])
                    else:
                        raise StuckTerm(f"drop @{f[1][0].at.name} applied to "
                                        f"{pretty_term(self.quote(v))}")
                else:
                    _, node, cenv, bi, scrut, path = f
                    scrut = _install(scrut, path, v)
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
            status, res = _walk(pat, scrut)
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
                    x = self._rename((term.var,), term.body, env, names).get(
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
                    mapping = self._rename(binders, b, env, names)
                    names.update(mapping.get(x, x) for x in binders)
                    pats.append(_rename_pattern(p, mapping) if mapping else p)
                    bodies.append((b, {**env, **{x: NVar(mapping.get(x, x))
                                                 for x in binders}}))
                todo.append(_Build(len(pats) + 1, lambda ps, c=node, pats=pats: Case(
                    ps[0], tuple(zip(pats, ps[1:])), c.pos, c.scrut_annot)))
                todo.extend(reversed(bodies))
                todo.append(v.scrut)
        return out[0]

    def _rename(self, binders, body: Term, env: dict, names: set) -> dict[str, str]:
        """New names for the binders of ``body`` that would capture a neutral
        variable reachable from body's other free variables in ``env``.
        ``names`` holds every name a neutral variable has had so far."""
        if names.isdisjoint(binders):
            return {}
        fv = free_vars(body)
        reach = {y for z in fv if z not in binders
                 for y in (free_vars(self.quote(env[z])) if z in env else (z,))}
        clash = [x for x in binders if x in reach]
        if not clash:
            return {}
        avoid = reach | fv | set(binders)
        mapping = {}
        for x in clash:
            mapping[x] = fresh_name(x, avoid)
            avoid.add(mapping[x])
        return mapping

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


def _split(c):
    """A closure or value as the machine's (term, env) registers."""
    return c if type(c) is tuple else (c, None)


def _walk(p: Pattern, s):
    """Match pattern ``p`` against the partly forced scrutinee ``s``, left to
    right. Returns (_MATCH, bindings), (_NOMATCH, None), or (_NEED, (path,
    part)) when the part of ``s`` at ``path`` must be evaluated first. A
    pattern variable binds its part as it is."""
    binds: dict = {}
    work = [(p, s, ())]
    while work:
        p, s, path = work.pop()
        kp = type(p)
        if kp is PVar:
            binds[p.name] = s
            continue
        if kp is PWild:
            continue
        ks = type(s)
        if ks is tuple:
            t, env = s
            k = type(t)
            if k not in _VALUE_TERMS:
                return _NEED, (path, s)
        elif ks is VCon or ks is VBox:
            k = ks
        else:
            return _NEED, (path, s)
        if kp is PCon:
            if k is Con:
                if t.con != p.con or len(t.args) != len(p.args):
                    return _NOMATCH, None
                args = [_closure(a, env) for a in t.args]
            elif k is VCon:
                if s.con != p.con or len(s.args) != len(p.args):
                    return _NOMATCH, None
                args = s.args
            else:
                return _NOMATCH, None
            pats = p.args
        elif kp is PBox:
            if k is Promote:
                args = (_closure(t.body, env),)
            elif k is VBox:
                args = (s.body,)
            else:
                return _NOMATCH, None
            pats = (p.pat,)
        elif k is not IntLit or t.value != p.value:  # PInt
            return _NOMATCH, None
        else:
            continue
        # variables bind at once; the other parts wait their turn
        for i in range(len(pats) - 1, -1, -1):
            q = pats[i]
            if type(q) is PVar:
                binds[q.name] = args[i]
            elif type(q) is not PWild:
                work.append((q, args[i], path + (i,)))
    return _MATCH, binds


def _install(s, path: tuple, v):
    """``s`` with its part at ``path`` replaced by ``v``."""
    if not path:
        return v
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

def match_pattern(t: Term, p: Pattern, fuel: Fuel | None = None):
    """Spec-level matcher: returns (substitution | None, forced term)."""
    ev = Evaluator(fuel or Fuel())
    scrut = (t, {})
    while True:
        status, res = _walk(p, scrut)
        if status != _NEED:
            break
        path, part = res
        v = ev.whnf(part)
        scrut = _install(scrut, path, v)
        if type(v) in _NEUTRALS:
            return None, ev.quote(scrut)
    if status == _MATCH:
        return {x: ev.quote(c) for x, c in res.items()}, ev.quote(scrut)
    return None, ev.quote(scrut)


def normalize(t: Term, fuel: Fuel | None = None, deep: bool = False) -> Term:
    return Evaluator(fuel or Fuel()).normalize(t, deep=deep)


def deep_normalize(t: Term, fuel: Fuel | None = None) -> Term:
    return normalize(t, fuel, deep=True)


def inline_definitions(prog: SourceProgram, name: str) -> Term:
    """Substitute top-level definitions into the named definition's body.

    A definition may refer to itself (it becomes a letrec); mutual cycles
    are rejected.
    """
    sigs = {d.name: d.signature for d in prog.decls}
    bodies = {d.name: d.body for d in prog.decls}
    if name not in bodies:
        raise NoMain(f"program has no definition {name!r}")
    return _resolve(name, bodies, sigs, {}, [])


def _resolve(n: str, bodies: dict[str, Term], sigs: dict[str, Type],
             resolved: dict[str, Term], visiting: list[str]) -> Term:
    """``n``'s body with its dependencies inlined, memoized in ``resolved``;
    ``visiting`` is the chain of definitions being resolved."""
    if n in resolved:
        return resolved[n]
    if n in visiting:
        cycle = " -> ".join(visiting + [n])
        raise StuckTerm(
            f"mutually recursive top-level definitions (use letrec): {cycle}")
    visiting.append(n)
    body = bodies[n]
    deps = {m for m in free_vars(body) if m in bodies and m != n}
    sub = {m: _resolve(m, bodies, sigs, resolved, visiting) for m in deps}
    visiting.pop()
    inlined = subst_term(body, sub)
    if n in free_vars(body):
        inlined = LetRec(n, inlined, Var(n), annot=sigs.get(n))
    resolved[n] = inlined
    return inlined


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
    the instance it names, along the whole chain. Read-back evaluates a
    neutral again wherever it meets it, so a use under a stuck term can
    count twice: the counts are exact for closed programs whose result
    type is first order."""
    uses: list[_Use] = []
    Evaluator(fuel or Fuel(), uses).normalize(t, deep=True)
    out: dict[tuple[str, Pos | None], list[int]] = {}
    for u in uses:
        out.setdefault(u.site, []).append(u.count)
    return out
