"""Operational behaviour: matching, normalization, fuel, use counting."""

import itertools
import random

import pytest

from grlin import evaluator as E
from grlin import typecheck as T
from grlin.evaluator import (
    Fuel, FuelExhausted, StuckTerm, count_uses, deep_normalize,
    inline_definitions, match_pattern, normalize, run_main,
)
from grlin.parser import parse_program, parse_term, pretty_term
from grlin import deriving as D
from grlin import grades as G
from grlin.syntax import (
    App, Case, Con, IntLit, Lam, Mu, PBox, PCon, PInt, Promote, PVar, PWild, RecVar,
    Sum, Tensor, TyVar, Unit, Var, alpha_eq,
)


def _pat(text):
    from grlin.parser import _parse_pattern, tokenize
    return _parse_pattern(tokenize(text), 0)[0]


def test_match_box_then_pair():
    sub, _ = match_pattern(parse_term("[(1, 2)]"), _pat("[(x, y)]"))
    assert sub == {"x": IntLit(1), "y": IntLit(2)}


def test_match_constructor_mismatch():
    sub, _ = match_pattern(parse_term("inl unit"), _pat("inr y"))
    assert sub is None


def test_match_wildcard_binds_nothing():
    sub, _ = match_pattern(parse_term("(1, 2)"), _pat("_"))
    assert sub == {}


def test_match_variable_binds_unevaluated():
    redex = parse_term("(\\x -> x) unit")
    sub, _ = match_pattern(redex, _pat("v"))
    assert sub == {"v": redex}  # not reduced


def ref_walk(p, s):
    """The matcher that plans replaced, kept as a reference: it reads the
    pattern afresh at each match, on a work list of (pattern, part, path)."""
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
            if k not in E._VALUE_TERMS:
                return E._NEED, (path, s)
        elif ks is E.VCon or ks is E.VBox:
            k = ks
        else:
            return E._NEED, (path, s)
        if kp is PCon:
            if k is Con:
                if t.con != p.con or len(t.args) != len(p.args):
                    return E._NOMATCH, None
                args = [E._closure(a, env) for a in t.args]
            elif k is E.VCon:
                if s.con != p.con or len(s.args) != len(p.args):
                    return E._NOMATCH, None
                args = s.args
            else:
                return E._NOMATCH, None
            pats = p.args
        elif kp is PBox:
            if k is Promote:
                args = (E._closure(t.body, env),)
            elif k is E.VBox:
                args = (s.body,)
            else:
                return E._NOMATCH, None
            pats = (p.pat,)
        elif k is not IntLit or t.value != p.value:  # PInt
            return E._NOMATCH, None
        else:
            continue
        for i in range(len(pats) - 1, -1, -1):
            q = pats[i]
            if type(q) is PVar:
                binds[q.name] = args[i]
            elif type(q) is not PWild:
                work.append((q, args[i], path + (i,)))
    return E._MATCH, binds


def _rand_pattern(rng, depth, names):
    r = rng.random()
    if depth == 0 or r < 0.2:
        return PVar(f"x{next(names)}") if r < 0.1 or depth == 0 else PWild()
    return rng.choice([
        lambda: PInt(rng.randrange(3)),
        lambda: PCon("unit", ()),
        lambda: PCon(rng.choice(("inl", "inr")), (_rand_pattern(rng, depth - 1, names),)),
        lambda: PCon(",", (_rand_pattern(rng, depth - 1, names),
                           _rand_pattern(rng, depth - 1, names))),
        lambda: PBox(_rand_pattern(rng, depth - 1, names)),
    ])()


_STUCK = (lambda: E.NVar("n"), lambda: E.NApp(E.NVar("g"), (IntLit(0), {})),
          lambda: E.NCase(Case(Var("n"), ((PVar("q"), Var("q")),)), {}, E.NVar("n")),
          lambda: (App(Lam("a", Var("a")), IntLit(1)), {}),
          lambda: (Var("w"), {"w": (IntLit(2), {})}))


def _rand_scrutinee(rng, p, depth):
    """A partly forced scrutinee, mostly shaped like ``p``: each part is an
    unevaluated closure, a neutral, a closure of a value term or a value
    that an earlier force installed (``VCon``, ``VBox``)."""
    if depth == 0 or rng.random() < 0.12:
        return rng.choice(_STUCK)()
    if rng.random() < 0.1:
        return (Lam("a", Var("a")), {})
    if type(p) in (PVar, PWild) or rng.random() < 0.1:
        p = _rand_pattern(rng, 1, itertools.count())
        if type(p) in (PVar, PWild):
            return (IntLit(rng.randrange(3)), {})
    if type(p) is PInt:
        return (IntLit(p.value if rng.random() < 0.7 else rng.randrange(3)), {})
    if type(p) is PBox:
        body = _rand_scrutinee(rng, p.pat, depth - 1)
        if rng.random() < 0.5:
            return E.VBox(body, None)
        return (Promote(Var("b")), {"b": body})
    con = p.con if rng.random() < 0.8 else rng.choice(("inl", "inr", ",", "unit"))
    subs = p.args if con == p.con else (PWild(),) * {"unit": 0, ",": 2}.get(con, 1)
    args = tuple(_rand_scrutinee(rng, q, depth - 1) for q in subs)
    if rng.random() < 0.5:
        return E.VCon(con, args, None)
    if args and rng.random() < 0.3:  # a value term among the parts
        return (Con(con, (IntLit(1),) + tuple(Var(f"v{i}") for i in range(1, len(args)))),
                {f"v{i}": a for i, a in enumerate(args)})
    return (Con(con, tuple(Var(f"v{i}") for i in range(len(args)))),
            {f"v{i}": a for i, a in enumerate(args)})


def _same(a, b):
    """The same part: the same object, or closures of the same term in the
    same environment."""
    return a is b or (type(a) is tuple and type(b) is tuple
                      and a[0] is b[0] and a[1] is b[1])


def test_plans_match_as_the_reference_walk():
    """On random patterns against partly forced scrutinees, the plan
    runner gives the reference walk's status, bindings and path, and so
    forces the same parts in the same order: each part it asks for is
    installed, as the machine would, and the match is run again."""
    rng = random.Random(17)
    outcomes = set()
    for _ in range(3000):
        p = _rand_pattern(rng, rng.randrange(1, 5), itertools.count())
        s = _rand_scrutinee(rng, p, 5)
        for _ in range(20):
            want, got = ref_walk(p, s), E._match(p, s)
            assert want[0] == got[0], p
            outcomes.add(want[0])
            if want[0] == E._MATCH:
                assert want[1].keys() == got[1].keys()
                assert all(_same(want[1][x], got[1][x]) for x in want[1])
            if want[0] != E._NEED:
                break
            (path, part), (path2, part2) = want[1], got[1]
            assert path == path2 and _same(part, part2)
            if type(part) in (E.NVar, E.NApp, E.NCase):
                break
            q = p  # the sub-pattern that reads the part
            for i in path:
                q = q.pat if type(q) is PBox else q.args[i]
            v = _rand_scrutinee(rng, q, 3)  # the part's value, or a neutral
            if type(v) is tuple and type(v[0]) not in E._VALUE_TERMS:
                v = E.NVar("m")
            s = E._install(s, path, v)
    assert outcomes == {E._MATCH, E._NOMATCH, E._NEED}


def test_a_deep_pattern_matches_in_linear_memory():
    """A pair pattern nested 10,000 deep compiles to a plan of 20,000 tests
    and matches under the default recursion limit. A plan that kept each
    test's path would hold about 100 million path entries here."""
    import tracemalloc
    pat, value = PVar("x"), IntLit(7)
    for _ in range(10_000):
        pat, value = PCon(",", (pat, PCon("unit", ()))), Con(",", (value, Con("unit", ())))
    tracemalloc.start()
    try:
        sub, _ = match_pattern(value, pat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sub == {"x": IntLit(7)} and len(pat._plan) == 20_000
    assert peak < 20_000_000


def test_normalize_beta():
    assert normalize(parse_term("(\\x -> x) unit")) == parse_term("unit")


def test_normalize_copy_example():
    prog = parse_program(
        "copy : (Int [2]) -o (Int * Int)\n"
        "copy = \\y -> case y of [x] -> (x, x)\n"
        "main : Int * Int\nmain = copy [5]\n")
    assert run_main(prog) == "(5, 5)"


def test_fuel_exhaustion():
    divergent = parse_term("letrec f = \\x -> f x in f unit")
    with pytest.raises(FuelExhausted):
        normalize(divergent, Fuel(100))


def test_boxes_suspend_until_deep():
    t = parse_term("[(\\x -> x) unit]")
    shallow = normalize(t)
    assert isinstance(shallow, Promote)
    assert pretty_term(shallow) == "[(\\x -> x) unit]"
    assert pretty_term(deep_normalize(t)) == "[unit]"


def test_minimal_j_first_match_wins():
    # overlapping earlier branch wins
    t = parse_term("case inl unit of x -> 1; inl y -> (case y of unit -> 2)")
    assert normalize(t) == IntLit(1)
    t2 = parse_term("case inl unit of inl y -> (case y of unit -> 2); x -> 1")
    assert normalize(t2) == IntLit(2)
    # reordering non-overlapping branches changes nothing
    a = parse_term("case inr 9 of inl u -> (case u of unit -> 1); inr n -> n")
    b = parse_term("case inr 9 of inr n -> n; inl u -> (case u of unit -> 1)")
    assert normalize(a) == normalize(b) == IntLit(9)


def test_nonexhaustive_match_is_stuck():
    with pytest.raises(StuckTerm):
        normalize(parse_term("case inr unit of inl x -> x"))


def test_run_main_requires_main():
    prog = parse_program("x : Unit\nx = unit")
    from grlin.evaluator import NoMain
    with pytest.raises(NoMain):
        run_main(prog)


def test_run_main_unit():
    prog = parse_program("main : Unit\nmain = unit")
    assert run_main(prog) == "unit"


def test_recursive_toplevel_defs_rejected():
    prog = parse_program("a : Unit\na = b\nb : Unit\nb = a\nmain : Unit\nmain = a")
    with pytest.raises(StuckTerm):
        run_main(prog)


def test_normalize_under_lambda():
    # reduction proceeds under binders; blocked cases are normal forms
    t = parse_term("\\x -> (\\y -> y) x")
    assert alpha_eq(normalize(t), parse_term("\\x -> x"))
    blocked = parse_term("\\x -> case x of inl y -> y; inr z -> z")
    assert alpha_eq(normalize(blocked), blocked)


@pytest.mark.parametrize("src, printed, spent", [
    # a stuck drop keeps the neutral it forced, and read-back walks each
    # neutral once, so the one beta under the drop is paid once
    (r"\x -> drop @Int ((\y -> y) x)", r"\x -> drop @Int x", 1),
    (r"\x -> (drop @Int ((\y -> y) x)) unit", r"\x -> drop @Int x unit", 1),
    (r"\x -> case drop @Int ((\y -> y) x) of unit -> 1",
     r"\x -> case drop @Int x of unit -> 1", 1),
    (r"\x -> (case drop @Int ((\y -> y) x) of unit -> \z -> z) 5",
     r"\x -> (case drop @Int x of unit -> \z -> z) 5", 1),
    # a binder that would capture a variable read back under it is renamed
    (r"\x -> (\y -> \x -> y) x", r"\x -> \x_1 -> x", 1),
    (r"\x -> case (\y -> y) x of inl a -> a; inr b -> (\c -> \x -> c) x",
     r"\x -> case x of inl a -> a; inr b -> \x_1 -> x", 2),
])
def test_reading_back_open_terms(src, printed, spent):
    fuel = Fuel(100)
    assert pretty_term(deep_normalize(parse_term(src), fuel)) == printed
    assert fuel.spent == spent


def test_count_uses_reads_a_stuck_drop_once():
    """The drop stuck on ``x`` keeps the neutral it forced, so read-back
    does not force ``y`` again."""
    counts = {name: n for (name, _), n in
              count_uses(parse_term(r"\x -> (\y -> drop @Int y) x")).items()}
    assert counts == {"y": [1]}


def test_read_back_walks_each_stuck_term_once(monkeypatch):
    """A neutral is a value: a spine of n arguments is built from n
    applications once, and a stuck case is never selected from again."""
    n = 1_000
    made = []
    init = E.NApp.__init__

    def counted_init(self, fn, arg):
        made.append(None)
        init(self, fn, arg)

    selected = []
    select = E.Evaluator._select

    def counted_select(self, *args):
        selected.append(None)
        return select(self, *args)

    monkeypatch.setattr(E.NApp, "__init__", counted_init)
    monkeypatch.setattr(E.Evaluator, "_select", counted_select)
    spine = Var("f")
    for _ in range(n):
        spine = App(spine, IntLit(0))
    deep_normalize(Lam("f", spine))
    assert len(made) == n
    cases = Var("x")
    for _ in range(n):
        cases = Case(cases, ((PCon("inl", (PVar("a"),)), Con("inl", (Var("a"),))),
                             (PCon("inr", (PVar("b"),)), Con("inr", (Var("b"),)))))
    assert alpha_eq(deep_normalize(Lam("x", cases)), Lam("x", cases))
    assert len(selected) <= n


def test_printed_values_reparse():
    prog = parse_program(
        "main : (Unit + Int) * (Int [2])\nmain = (inr 3, [4])\n")
    printed = run_main(prog)
    assert alpha_eq(parse_term(printed), parse_term("(inr 3, [4])"))


def test_count_uses_copy():
    prog = parse_program(
        "copy : (Int [2]) -o (Int * Int)\n"
        "copy = \\y -> case y of [x] -> (x, x)\n"
        "main : Int * Int\nmain = copy [5]\n")
    term = inline_definitions(prog, "main")
    counts = {name: n for (name, pos), n in count_uses(term).items()}
    assert counts["x"] == [2]
    assert counts["y"] == [1]


def test_count_uses_discarded_binder():
    prog = parse_program(
        "toss : (Int [0]) -o Unit\n"
        "toss = \\b -> case b of [x] -> unit\n"
        "main : Unit\nmain = toss [9]\n")
    term = inline_definitions(prog, "main")
    counts = {name: n for (name, pos), n in count_uses(term).items()}
    assert counts["x"] == [0]


def test_count_uses_fixed_map():
    # a shape-fixed map over a 3-element list: the boxed function is bound
    # once and applied once per element
    src = """list : mu X . Unit + (Int * X)
list = inr (1, inr (2, inr (3, inl unit)))

map3 : ((Int -o Int) [3]) -o ((mu X . Unit + (Int * X)) -o (mu X . Unit + (Int * X)))
map3 = \\bf -> \\l -> case bf of [f] ->
    case l of inr p1 -> (case p1 of (x1, r1) -> inr (f x1,
        case r1 of inr p2 -> (case p2 of (x2, r2) -> inr (f x2,
            case r2 of inr p3 -> (case p3 of (x3, r3) -> inr (f x3,
                case r3 of inl u -> inl u))))))

main : mu X . Unit + (Int * X)
main = map3 [\\n -> n] list
"""
    prog = parse_program(src)
    assert T.check_program(prog) == []
    term = inline_definitions(prog, "main")
    counts = {name: n for (name, pos), n in count_uses(term).items()}
    assert counts["f"] == [3]  # applied once per element


def test_recursive_map_via_toplevel_letrec():
    # a self-recursive top-level definition runs as a letrec
    src = """#semiring interval
go : ((Int -o Int) [0..Inf]) -o ((mu X . Unit + (Int * X)) -o (mu X . Unit + (Int * X)))
go = \\bf -> \\l -> case bf of [f] ->
    (case l of inl u -> inl u;
               inr p -> (case p of (x, rest) -> inr (f x, go [f] rest)))

main : mu X . Unit + (Int * X)
main = go [\\n -> n] (inr (1, inr (2, inr (3, inl unit))))
"""
    prog = parse_program(src)
    assert T.check_program(prog) == []
    assert run_main(prog) == "inr (1, inr (2, inr (3, inl unit)))"
    # the letrec binds go once, and it is forced by main and by each of the
    # 3 recursive calls. Each of the 4 calls binds its own f, used once by
    # `f x` in the 3 calls on a cons; the next call's f is an alias of this
    # one through `[f]`, so each instance also counts every later use
    counts = {name: n for (name, pos), n in
              count_uses(inline_definitions(prog, "main")).items()}
    assert (counts["go"], counts["f"]) == ([4], [3, 2, 1, 0])


def test_count_uses_per_binding_instance():
    # nat-le admits x at 2 from the join of the branches' 2 and 1; each call
    # binds its own x and v, and only the branch that runs uses them
    prog = parse_program("""#semiring nat-le
pick : (Int [2]) -o ((Unit + Unit) -o (Int * Int))
pick = \\y -> \\s -> case y of [x] -> (case s of
    inl u -> (case u of unit -> (x, x));
    inr v -> (case v of unit -> (x, 0)))
main : (Int * Int) * (Int * Int)
main = (pick [1] (inr unit), pick [2] (inl unit))
""")
    assert T.check_program(prog) == []
    counts = {name: n for (name, pos), n in
              count_uses(inline_definitions(prog, "main")).items()}
    assert counts["x"] == [1, 2]
    assert counts["v"] == [1]
    assert counts["u"] == [1]


def test_count_uses_deep_list():
    # counting walks no term recursively, so a long list literal counts
    # under the default recursion limit
    n = 10_000
    prog = parse_program(
        "xs : mu X . Unit + (Int * X)\n"
        "xs = " + "".join(f"inr ({i}, " for i in range(n)) + "inl unit"
        + ")" * n + "\n"
        "main : mu X . Unit + (Int * X)\nmain = (\\l -> l) xs\n")
    counts = count_uses(inline_definitions(prog, "main"))
    assert {name: n for (name, pos), n in counts.items()} == {"l": [1]}


def test_normalization_is_alpha_invariant():
    # renaming every binder must not change evaluation outcomes; this is a
    # direct probe of capture-avoiding substitution
    import random
    from conftest import rand_term, rename_binders
    rng = random.Random(77)

    def outcome(t):
        # small fuel: value depth can grow one level per unrolling step, and
        # the structural normalizer recurses over the result
        try:
            return ("nf", deep_normalize(t, Fuel(80)))
        except FuelExhausted:
            return ("fuel", None)
        except StuckTerm:
            return ("stuck", None)

    for _ in range(400):
        t = rand_term(4, rng, [])
        renamed = rename_binders(t)
        kind1, nf1 = outcome(t)
        kind2, nf2 = outcome(renamed)
        assert kind1 == kind2, pretty_term(t)
        if kind1 == "nf":
            assert alpha_eq(nf1, nf2), pretty_term(t)


def test_subject_reduction_on_corpus():
    # normal forms of accepted closed programs check at the same type
    files = ["programs/copy.grm", "programs/motivating.grm",
             "programs/copyshape.grm", "programs/derivepush.grm",
             "programs/eliminate.grm", "programs/derivepull.grm"]
    for path in files:
        prog = parse_program(open(path, encoding="utf-8").read(), file=path)
        assert T.check_program(prog) == [], path
        main = prog.decl("main")
        term = inline_definitions(prog, "main")
        nf = deep_normalize(term)
        T.check_term({}, nf, main.signature, prog.semiring)


def int_list(xs):
    """An Int list of ``mu X . Unit + (a * X)``, built without recursion."""
    t = Con("inl", (Con("unit", ()),))
    for x in reversed(xs):
        t = Con("inr", (Con(",", (IntLit(x), t)),))
    return t


def list_ints(t):
    """The Ints of a list value, read without recursion (a long list is too
    deep for the recursive ``==``); None if ``t`` is not one."""
    xs = []
    while t != Con("inl", (Con("unit", ()),)):
        if not (isinstance(t, Con) and t.con == "inr"):
            return None
        cell = t.args[0]
        if not (isinstance(cell, Con) and cell.con == ","
                and isinstance(cell.args[0], IntLit)):
            return None
        xs.append(cell.args[0].value)
        t = cell.args[1]
    return xs


def boxed_ints(t):
    """The Ints of a boxed list value; None if ``t`` is not one."""
    return list_ints(t.body) if isinstance(t, Promote) else None


@pytest.mark.parametrize("n", [10, 40, 160, 10_240])
def test_pull_push_step_count(n):
    # A count, not a time: a change to the reduction order, or a dropped
    # step, shows here. push and pull at the Int-list shape, grade 2 in nat-le.
    shape = Mu("X", Sum(Unit(), Tensor(TyVar("a"), RecVar("X"))))
    r = G.grade_nat(2, G.NAT_LE)
    push = D.derive_push(shape, r).term
    pull = D.derive_pull(shape, {"a": r}, G.NAT_LE, default_grade=r).term
    xs = [(7 * i) % 10 for i in range(n)]
    fuel = Fuel(100 * n + 1000)
    nf = deep_normalize(App(pull, App(push, Promote(int_list(xs)))), fuel)
    assert boxed_ints(nf) == xs
    assert fuel.spent == 10 * n + 13


def test_normal_form_goldens():
    """Every golden input normalizes as recorded: the same outcome, fuel
    spent and printed normal form. Rewrite the file with
    ``tests/golden/gen_normal_forms.py`` only for an intended change."""
    import re
    from golden import gen_normal_forms
    text = gen_normal_forms.GOLDEN.read_text(encoding="utf-8")
    want = re.split(r"(?m)^(?=== )", text)[1:]
    got = gen_normal_forms.entries()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, f"golden entry differs: {w.splitlines()[0]}"


def test_reading_back_a_long_list_under_a_binder():
    # read-back takes the free names of the whole body at the binder
    xs = list(range(3_000))
    nf = deep_normalize(Lam("x", int_list(xs)))
    assert isinstance(nf, Lam) and list_ints(nf.body) == xs


def test_reading_back_a_long_application_spine():
    spine = Var("f")
    for _ in range(500):
        spine = App(spine, IntLit(0))
    nf = deep_normalize(Lam("f", spine))
    assert isinstance(nf, Lam)
    t, args = nf.body, 0
    while isinstance(t, App):
        assert t.arg == IntLit(0)
        t, args = t.fn, args + 1
    assert t == Var(nf.var) and args == 500


def test_substituting_a_long_list_into_a_suspended_box():
    xs = list(range(3_000))
    nf = normalize(App(Lam("y", Promote(Var("y"))), int_list(xs)))
    assert boxed_ints(nf) == xs


# fmap @(a * b) at a signature that maps a (A) and one that maps b (B): only
# the expected type tells the mapped variable, so only a check can
MAP_A = ("m : ((a -o a) [1]) -o ((a * b) -o (a * b))\nm = fmap @(a * b)\n"
         "main : ((a -o a) [1]) -o ((a * b) -o (a * b))\nmain = \\f -> \\p -> m f p")
MAP_B = ("m : ((b -o b) [1]) -o ((a * b) -o (a * b))\nm = fmap @(a * b)\n"
         "main : ((b -o b) [1]) -o ((a * b) -o (a * b))\nmain = \\f -> \\p -> m f p")
MAPPED_A = "\\f -> \\p -> case f of [f3] -> case p of (x4, y5) -> (f3 x4, y5)"
AMBIGUOUS = "ambiguous fmap @a \\* b: cannot determine the mapped variable at run time"


def test_a_checked_derive_node_runs_its_checked_term():
    """A run applies the term the check derived for the node, whatever else
    the derivation memo holds."""
    a = parse_program(MAP_A)
    assert T.check_program(a) == []
    D.clear_memo()
    assert run_main(a) == MAPPED_A
    b = parse_program(MAP_B)
    assert T.check_program(b) == []
    assert run_main(a) == MAPPED_A
    assert run_main(b) == "\\f -> \\p -> case f of [f3] -> case p of (x4, y5) -> (x4, f3 y5)"


@pytest.mark.parametrize("checked_first", [[], [MAP_B]])
def test_an_unchecked_fmap_over_two_variables_is_stuck(checked_first):
    """With no check, the mapped variable is unknown, and no other program's
    derivation in the memo may stand in for it."""
    D.clear_memo()
    for src in checked_first:
        assert T.check_program(parse_program(src)) == []
    with pytest.raises(StuckTerm, match=AMBIGUOUS):
        run_main(parse_program(MAP_A))


def test_matching_forces_a_redex_part_and_stops_at_a_neutral():
    pat = _pat("(5, y)")
    assert match_pattern(parse_term("((\\x -> x) 5, 3)"), pat) \
        == ({"y": IntLit(3)}, parse_term("(5, 3)"))
    assert match_pattern(parse_term("((\\x -> x) z, 3)"), pat) == (None, parse_term("(z, 3)"))


def test_a_box_blocked_in_a_scrutinee_reads_back():
    """A case on a box of a neutral is stuck with the box partly forced; read
    back, the box prints as it was written, shallow and deep."""
    src = "\\x -> case [x] of [inl a] -> a; [inr b] -> b"
    for deep in (False, True):
        assert pretty_term(normalize(parse_term(src), deep=deep)) == src
