"""Shared seeded generators for the round-trip, oracle and soundness tests."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from grlin import grades as G
from grlin.frozen import fields
from grlin.lawcheck import GRADE_POOLS
from grlin.syntax import (
    App, Base, Box, Case, Con, Derive, DERIVE_KINDS, Fun, IntLit, Lam, LetRec,
    Mu, PBox, PCon, PInt, Promote, PVar, PWild, RecVar, Sum, Tensor, TyVar,
    Unit, Var, _rename_pattern, pattern_vars,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def hermetic(monkeypatch):
    """Run every test from the repo root, so ``programs/...`` resolves
    wherever pytest was started, and without the caller's ``GRLIN_FUEL``,
    which ``grlin run`` reads."""
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("GRLIN_FUEL", raising=False)


def same(a, b) -> bool:
    """Exact structural equality of term, pattern and record nodes, whose
    ``==`` is identity: two nodes of one plain ``@frozen`` class are equal
    if their compared fields are, which leaves out positions, caches and
    planted annotations; two tuples, or two lists, are equal element by
    element; anything else, a type or a grade among them, compares with
    ``==``. One walk over an explicit stack of pairs, so any depth is
    fine."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        c = a.__class__
        if c is tuple or c is list:
            if b.__class__ is not c or len(a) != len(b):
                return False
            todo += zip(a, b)
        elif hasattr(c, "__frozen_fields__") and not c.__frozen_interned__:
            if b.__class__ is not c:
                return False
            todo += [(getattr(a, f.name), getattr(b, f.name))
                     for f in fields(c) if f.compare]
        elif not a == b:
            return False
    return True


def run_derivation_soundness(n: int, seed: int = 99) -> int:
    """Derive ``n`` random well-preconditioned combinator instances and
    re-check each elaborated term at its concluded scheme independently.
    Returns the number of failures (0 expected)."""
    from grlin import deriving as D
    from grlin import lawcheck as L
    from grlin.deriving import DeriveError
    from grlin.syntax import free_tyvars
    from grlin.typecheck import CheckError, Checker

    kinds = ("push", "pull", "drop", "copyShape", "fmap")
    rng = random.Random(seed)
    done = failures = attempts = 0
    while done < n:
        attempts += 1
        assert attempts < 20 * n, "generator failed to make progress"
        sr = L.SEMIRING_ROTATION[attempts % 4]
        kind = kinds[attempts % 5]
        allow_mu = kind != "fmap" or sr in (G.INTERVAL, G.ZERO_ONE_MANY)
        cfg = L.TypeGenConfig(max_depth=3, allow_fun=False, allow_mu=allow_mu,
                              allow_base=(kind in ("drop", "copyShape", "fmap")),
                              tyvars=() if kind == "drop" else ("a", "b"))
        t = L.gen_type(cfg, rng)
        try:
            if kind == "push":
                comb = D.derive_push(t, L._pick_push_grade(t, sr, rng))
            elif kind == "pull":
                r = rng.choice(GRADE_POOLS[sr])
                comb = D.derive_pull(t, {a: r for a in free_tyvars(t)}, sr,
                                     default_grade=r)
            elif kind == "drop":
                comb = D.derive_drop(t, sr)
            elif kind == "copyShape":
                comb = D.derive_copyshape(t, sr)
            else:
                comb = L._derive_fmap(t, "a", sr)
                if comb is None:
                    continue  # no grade of the pool covers the uses
        except DeriveError:
            continue  # instance missed a precondition; draw another
        try:
            Checker(sr).check({}, comb.term, comb.type)
        except CheckError:
            failures += 1
        done += 1
    return failures


def rand_grade(sr: str, rng: random.Random):
    return rng.choice(GRADE_POOLS[sr])


def rand_type(depth: int, sr: str, rng: random.Random, recvars=()):
    opts = ["unit", "int", "res", "tyvar", "box"]
    if depth > 0:
        opts += ["fun", "tensor", "sum", "mu"] * 2
    if recvars:
        opts.append("recvar")
    k = rng.choice(opts)
    if k == "unit":
        return Unit()
    if k == "int":
        return Base("Int")
    if k == "res":
        return Base("Res")
    if k == "tyvar":
        return TyVar(rng.choice("abc"))
    if k == "recvar":
        return RecVar(rng.choice(recvars))
    if k == "box":
        return Box(rand_grade(sr, rng), rand_type(depth - 1, sr, rng, recvars))
    if k == "fun":
        return Fun(rand_type(depth - 1, sr, rng, recvars),
                   rand_type(depth - 1, sr, rng, recvars))
    if k == "tensor":
        return Tensor(rand_type(depth - 1, sr, rng, recvars),
                      rand_type(depth - 1, sr, rng, recvars))
    if k == "sum":
        return Sum(rand_type(depth - 1, sr, rng, recvars),
                   rand_type(depth - 1, sr, rng, recvars))
    name = "XYZ"[rng.randrange(3)] + str(rng.randrange(10))
    return Mu(name, rand_type(depth - 1, sr, rng, recvars + (name,)))


def rand_pattern(depth: int, rng: random.Random, binders: list):
    opts = ["var", "wild", "int", "unit"]
    if depth > 0:
        opts += ["box", "pair", "inl", "inr"]
    k = rng.choice(opts)
    if k == "var":
        name = rng.choice("xyzw") + str(rng.randrange(20))
        while name in binders:
            name += "'"
        binders.append(name)
        return PVar(name)
    if k == "wild":
        return PWild()
    if k == "int":
        return PInt(rng.randrange(10))
    if k == "unit":
        return PCon("unit", ())
    if k == "box":
        return PBox(rand_pattern(depth - 1, rng, binders))
    if k == "pair":
        return PCon(",", (rand_pattern(depth - 1, rng, binders),
                          rand_pattern(depth - 1, rng, binders)))
    if k == "inl":
        return PCon("inl", (rand_pattern(depth - 1, rng, binders),))
    return PCon("inr", (rand_pattern(depth - 1, rng, binders),))


def rand_term(depth: int, rng: random.Random, env: list):
    opts = ["int", "unit"]
    if env:
        opts += ["var"] * 3
    if depth > 0:
        opts += ["lam", "app", "promote", "pair", "inl", "inr", "case",
                 "letrec", "derive"]
    k = rng.choice(opts)
    if k == "int":
        return IntLit(rng.randrange(100))
    if k == "unit":
        return Con("unit", ())
    if k == "var":
        return Var(rng.choice(env))
    if k == "lam":
        x = "v" + str(rng.randrange(50))
        return Lam(x, rand_term(depth - 1, rng, env + [x]))
    if k == "app":
        return App(rand_term(depth - 1, rng, env), rand_term(depth - 1, rng, env))
    if k == "promote":
        return Promote(rand_term(depth - 1, rng, env))
    if k == "pair":
        return Con(",", (rand_term(depth - 1, rng, env),
                         rand_term(depth - 1, rng, env)))
    if k == "inl":
        return Con("inl", (rand_term(depth - 1, rng, env),))
    if k == "inr":
        return Con("inr", (rand_term(depth - 1, rng, env),))
    if k == "letrec":
        x = "r" + str(rng.randrange(50))
        return LetRec(x, rand_term(depth - 1, rng, env + [x]),
                      rand_term(depth - 1, rng, env + [x]))
    if k == "derive":
        return Derive(rng.choice(DERIVE_KINDS), TyVar("a"))
    n = rng.randrange(1, 4)
    branches = []
    for _ in range(n):
        binders: list = []
        p = rand_pattern(2, rng, binders)
        branches.append((p, rand_term(depth - 1, rng, env + binders)))
    return Case(rand_term(depth - 1, rng, env), tuple(branches))


def rename_binders(t):
    """``t`` with every binder renamed to a name of its own (``x~1``,
    ``x~2``, ...), so the result is alpha-equivalent to ``t``."""
    fresh = itertools.count(1)

    def go(t, env):
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name), t.pos)
        if isinstance(t, App):
            return App(go(t.fn, env), go(t.arg, env), t.pos)
        if isinstance(t, Lam):
            u = f"{t.var}~{next(fresh)}"
            return Lam(u, go(t.body, {**env, t.var: u}), t.pos)
        if isinstance(t, Promote):
            return Promote(go(t.body, env), t.pos)
        if isinstance(t, Con):
            return Con(t.con, tuple(go(a, env) for a in t.args), t.pos)
        if isinstance(t, LetRec):
            env2 = {**env, t.var: f"{t.var}~{next(fresh)}"}
            return LetRec(env2[t.var], go(t.bound, env2), go(t.body, env2),
                          t.pos, t.annot)
        if isinstance(t, Case):
            branches = []
            for p, b in t.branches:
                mapping = {x: f"{x}~{next(fresh)}" for x in pattern_vars(p)}
                branches.append((_rename_pattern(p, mapping),
                                 go(b, {**env, **mapping})))
            return Case(go(t.scrutinee, env), tuple(branches), t.pos,
                        t.scrut_annot)
        return t

    return go(t, {})
