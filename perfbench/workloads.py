"""The three workloads, their inputs, and the references their outputs are
checked against. No reference is produced by grlin.

A workload is a fixed pass of items (see ``Workload``). Inputs come from
the seed given to the constructor.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

# pullpush list length -> ops per pass. The median op is a length-40 op. The
# pass's tail op, with 10 ops of the pass above it, is its fastest length-80
# op: a pass has 10 of them and one length-160 op.
LIST_MIX = {10: 4, 20: 4, 40: 6, 80: 10, 160: 1}
LADDER = tuple(10 * 2 ** k for k in range(11))  # 10, 20, ..., 10240
REPLICAS = (10, 100)
# Each corpus program runs this many times per pass. The pass's tail op, with
# 10 ops of the pass above it, is then a derivepush x100 run, whose time lies
# well apart from its neighbours'.
CORPUS_REPEATS = 3


def fuel_for(n: int) -> int:
    """Fuel for a list of length n: ample for any evaluator that spends a
    bounded number of steps per element."""
    return 100 * n + 1000


# ---------------------------------------------------------------------------
# Closed values: the benchmark's own representation and comparison
# ---------------------------------------------------------------------------

def list_value(xs: list[int]) -> tuple:
    """An Int list ``mu X . Unit + (Int * X)`` as nested tuples:
    ("con", name, args) | ("int", n) | ("box", v)."""
    v: tuple = ("con", "inl", (("con", "unit", ()),))
    for x in reversed(xs):
        v = ("con", "inr", (("con", ",", (("int", x), v)),))
    return v


def to_term(g, value: tuple):
    """Build the grlin term for a closed value, bottom-up without recursion."""
    syn = g.syntax
    out: list = []
    work = [(value, False)]
    while work:
        v, done = work.pop()
        if v[0] == "int":
            out.append(syn.IntLit(v[1]))
        elif not done:
            work.append((v, True))
            kids = (v[1],) if v[0] == "box" else v[2]
            work.extend((k, False) for k in reversed(kids))
        elif v[0] == "box":
            out.append(syn.Promote(out.pop()))
        else:
            n = len(v[2])
            args = tuple(out[len(out) - n:]) if n else ()
            del out[len(out) - n:]
            out.append(syn.Con(v[1], args))
    return out[0]


def same_value(term, value: tuple) -> bool:
    """Structural equality of a grlin closed normal form with a value.

    Closed values have no binders, so equality is plain structure: no
    renaming is involved (``syntax.alpha_eq`` is not used)."""
    work = [(term, value)]
    while work:
        t, v = work.pop()
        kind = type(t).__name__
        if v[0] == "int":
            if kind != "IntLit" or t.value != v[1]:
                return False
        elif v[0] == "box":
            if kind != "Promote":
                return False
            work.append((t.body, v[1]))
        else:
            if kind != "Con" or t.con != v[1] or len(t.args) != len(v[2]):
                return False
            work.extend(zip(t.args, v[2]))
    return True


def show_list(xs: list[int]) -> str:
    """How ``grlin run`` prints an Int list, written out independently."""
    text = "inl unit"
    for x in reversed(xs):
        text = f"inr ({x}, {text})"
    return text


def list_type(g):
    syn = g.syntax
    return syn.Mu("X", syn.Sum(syn.Unit(), syn.Tensor(syn.TyVar("a"), syn.RecVar("X"))))


class Workload:
    """A fixed pass of items, in an order drawn once from the seed, so that
    each op does the same work in every pass. ``begin_pass`` starts a pass,
    ``run(item)`` is one timed op and ``check(item, output)`` says whether
    its output is right. ``save`` and ``restore`` capture and reset the
    state an op starts from, so that one op can run twice from the same
    state."""

    items: list
    rng: random.Random

    def begin_pass(self):
        pass

    def save(self):
        return None

    def restore(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

class Laws(Workload):
    """Every case of the four law suites at their default sizes, at the law
    harness's default seed, in an order drawn from the benchmark seed. One
    derivation memo serves a whole pass, as in ``grlin laws``; it is cleared
    when a pass begins, so each case meets the same memo in every pass."""

    def __init__(self, g, seed: int):
        self.g = g
        self.rng = random.Random(seed)
        lc = g.lawcheck
        self.law_seed = lc.DEFAULT_SEED
        self.items = [(s, i) for s in lc.SUITES for i in range(lc.DEFAULT_CASES[s])]
        self.rng.shuffle(self.items)

    def begin_pass(self):
        self.g.deriving.clear_memo()

    def save(self):
        return dict(self.g.deriving._memo)

    def restore(self, state) -> None:
        memo = self.g.deriving._memo
        memo.clear()
        memo.update(state)

    def run(self, item):
        suite, i = item
        return self.g.lawcheck.run_suite(suite, seed=self.law_seed, only_case=i)

    def check(self, item, report) -> bool:
        return not report.failures

    def describe_failure(self, item, report) -> str:
        return report.failures[0].repro(self.law_seed)

    def ladder_rung(self, n: int, rng: random.Random) -> bool:
        push, pull = derive_pushpull(self.g)
        return pullpush_rung(self.g, push, pull, n, rng)


def derive_pushpull(g):
    """push and pull at the Int-list shape, grade 2 in nat-le."""
    t = list_type(g)
    r = g.grades.grade_nat(2, g.grades.NAT_LE)
    push = g.deriving.derive_push(t, r)
    pull = g.deriving.derive_pull(t, {"a": r}, g.grades.NAT_LE, default_grade=r)
    return push.term, pull.term


def pullpush_rung(g, push, pull, n: int, rng: random.Random) -> bool:
    """Deep-normalize pull (push [v]) for a list of length n and compare the
    result with [v]. Exceptions propagate: the rung did not complete."""
    v = ("box", list_value([rng.randrange(10) for _ in range(n)]))
    term = g.syntax.App(pull, g.syntax.App(push, to_term(g, v)))
    nf = g.evaluator.Evaluator(g.evaluator.Fuel(fuel_for(n))).normalize(term, deep=True)
    return same_value(nf, v)


# ---------------------------------------------------------------------------
# pullpush
# ---------------------------------------------------------------------------

class PullPush(Workload):
    """pull (push [v]) at ``mu X . Unit + (a * X)`` for seeded Int lists, as
    many of each length per pass as LIST_MIX says, in a seeded order; the
    ops of one length share one list. push and pull are derived once,
    here."""

    def __init__(self, g, seed: int):
        self.g = g
        self.rng = random.Random(seed)
        g.deriving.clear_memo()
        self.push, self.pull = derive_pushpull(g)
        self.values = {}
        self.terms = {}
        syn = g.syntax
        for n in LIST_MIX:
            v = ("box", list_value([self.rng.randrange(10) for _ in range(n)]))
            self.values[n] = v
            self.terms[n] = syn.App(self.pull, syn.App(self.push, to_term(g, v)))
        self.items = [n for n, count in LIST_MIX.items() for _ in range(count)]
        self.rng.shuffle(self.items)

    def run(self, n):
        ev = self.g.evaluator
        return ev.Evaluator(ev.Fuel(fuel_for(n))).normalize(self.terms[n], deep=True)

    def check(self, n, nf) -> bool:
        return same_value(nf, self.values[n])

    def describe_failure(self, n, nf) -> str:
        return f"pull (push v) differs from v at length {n}"

    def ladder_rung(self, n: int, rng: random.Random) -> bool:
        return pullpush_rung(self.g, self.push, self.pull, n, rng)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

_SIG = re.compile(r"([A-Za-z_][\w']*) :")


def replicate(text: str, copies: int) -> str:
    """The program followed by ``copies - 1`` renamed copies of its
    declarations (every top-level name ``f`` becomes ``f_k`` in copy k), so
    ``main`` and its result stay those of the original."""
    body = [ln for ln in text.splitlines()
            if not ln.startswith("#semiring") and not ln.lstrip().startswith("--")]
    names = sorted({m.group(1) for ln in body if (m := _SIG.match(ln))})
    pat = re.compile(r"(?<![\w'])(" + "|".join(map(re.escape, names)) + r")(?![\w'])")
    out = [text]
    for k in range(1, copies):
        out += [pat.sub(lambda m: f"{m.group(1)}_{k}", ln) for ln in body]
    return "\n".join(out) + "\n"


def _write_if_changed(path: Path, text: str) -> None:
    """Keeps disk writes, and their noise, out of all but the first set-up."""
    if not path.is_file() or path.read_text() != text:
        path.write_text(text)


class Corpus(Workload):
    """``cli.main`` in-process on every program under ``programs/``, plus
    each positive program replicated REPLICAS times, each CORPUS_REPEATS
    times per pass in a seeded order. The memo is cleared before each op,
    as in a fresh process."""

    def __init__(self, g, seed: int, root: Path, workdir: Path):
        self.g = g
        self.rng = random.Random(seed)
        self.workdir = workdir
        table = json.loads(EXPECTED.read_text())
        programs = root / "programs"
        workdir.mkdir(parents=True, exist_ok=True)
        self.items = []
        for fname, exp in table["positive"].items():
            path = programs / fname
            self.items.append(([exp["command"], str(path)], exp))
            text = path.read_text()
            for copies in REPLICAS:
                rep = workdir / f"{path.stem}_x{copies}.grm"
                _write_if_changed(rep, replicate(text, copies))
                self.items.append(([exp["command"], str(rep)], exp))
        for fname, code in table["negative"].items():
            self.items.append((["check", str(programs / "negative" / fname)],
                               {"exit": 1, "stdout": "", "code": code}))
        self.items *= CORPUS_REPEATS
        self.rng.shuffle(self.items)

    def run(self, item):
        return self._main(item[0])

    def _main(self, argv):
        self.g.deriving.clear_memo()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.g.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, item, output) -> bool:
        argv, exp = item
        code, out, err = output
        if code != exp["exit"] or out != exp["stdout"]:
            return False
        if "code" not in exp:
            return True
        lines = err.splitlines()
        diag = re.compile(re.escape(argv[-1]) + r":\d+:\d+: " + exp["code"] + ": ")
        return len(lines) == 1 and diag.match(lines[0]) is not None

    def describe_failure(self, item, output) -> str:
        return f"{' '.join(item[0])}: got {output!r}, expected {item[1]!r}"

    def ladder_rung(self, n: int, rng: random.Random) -> bool:
        """``grlin run`` on a program whose main is an n-element list literal."""
        xs = [rng.randrange(10) for _ in range(n)]
        path = self.workdir / "ladder.grm"
        path.write_text("main : mu X . Unit + (Int * X)\n"
                        f"main = {show_list(xs)}\n")
        code, out, _ = self._main(["run", str(path), "--fuel", str(fuel_for(n))])
        return code == 0 and out == show_list(xs) + "\n"
