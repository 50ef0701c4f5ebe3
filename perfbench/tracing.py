"""In-memory spans around the public entry points of each grlin module.

A traced run replaces each entry point listed below with a wrapper that
records a span: name, start, end, parent span and op id. Spans stay in a
list until the run ends. Calls inside one module are not layer boundaries
and get no span, with two exceptions that a metric needs: ``tokenize``
inside ``parse_program``, and the law generators inside ``lawcheck``.

``grades`` gets no span: its operations take nanoseconds and run inside
the checker, so a wrapper would cost more than it measures.
"""

from __future__ import annotations

from time import perf_counter

NAME, START, END, PARENT, OP, INFO = range(6)

# (module, attribute, span name). A span is opened unless the innermost open
# span has the same name, so recursion through a wrapped name costs a check
# but no span.
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("parser", "tokenize", "parser.tokenize"),
    ("parser", "parse_program", "parser.parse"),
    ("parser", "parse_type", "parser.parse"),
    ("parser", "parse_term", "parser.parse"),
    ("parser", "pretty_term", "parser.pretty"),
    ("parser", "pretty_type", "parser.pretty"),
    ("typecheck", "check_program", "typecheck.check"),
    ("deriving", "derive_push", "deriving.derive"),
    ("deriving", "derive_pull", "deriving.derive"),
    ("deriving", "derive_drop", "deriving.derive"),
    ("deriving", "derive_copyshape", "deriving.derive"),
    ("deriving", "derive_fmap", "deriving.derive"),
    ("deriving", "comonad_eps", "deriving.witness"),
    ("deriving", "comonad_delta", "deriving.witness"),
    ("deriving", "elaborate_untyped", "deriving.elaborate"),
    ("evaluator", "run_main", "evaluator.run"),
    ("syntax", "subst_term", "syntax.subst"),
    ("syntax", "alpha_eq", "syntax.alpha_eq"),
    ("lawcheck", "run_suite", "lawcheck.case"),
    ("lawcheck", "gen_type", "lawcheck.gen"),
    ("lawcheck", "gen_value", "lawcheck.gen"),
    ("lawcheck", "gen_int_fn", "lawcheck.gen"),
)

# subst_term recurses through its own module global. Wrapping it there would
# add a frame per level and move the recursion limit, so only the names other
# modules imported are wrapped.
CALLER_SIDE_ONLY = {("syntax", "subst_term")}

# (module, class, method, span name). These recurse through ``self``; while a
# call runs, the instance gets the unwrapped method as an attribute, so the
# recursion adds no frames.
METHODS = (
    ("typecheck", "Checker", "check", "typecheck.check"),
    ("evaluator", "Evaluator", "normalize", "evaluator.normalize"),
)


class Tracer:
    """Spans of one run. ``op`` is the id stamped on spans opened next;
    ``op_times[i]`` is the measured time of op i."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.op_times: list[float] = []

    def call(self, name, fn, args, kwargs, before=None, after=None):
        spans, stack = self.spans, self.stack
        if stack and spans[stack[-1]][NAME] == name:
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
        stack.append(len(spans))
        spans.append(span)
        state = before(args) if before else None
        result, ok = None, False
        span[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            span[END] = perf_counter()
            stack.pop()
            if after:
                span[INFO] = after(state, args, result, ok)


def _hooks(g, attr):
    """(before, after) hooks that record the facts the metrics need in the
    span's info slot."""
    if attr == "tokenize":
        return None, lambda st, args, res, ok: len(res) if ok else 0
    if attr == "check_program":
        return None, lambda st, args, res, ok: len(args[0].decls)
    if attr.startswith("derive_"):
        memo = g.deriving._memo
        return (lambda args: len(memo),
                lambda st, args, res, ok: (ok and len(memo) == st, ok))
    if attr == "normalize":
        return (lambda args: args[0].fuel.spent,
                lambda st, args, res, ok: args[0].fuel.spent - st)
    if attr == "run_suite":
        return None, lambda st, args, res, ok: args[0]
    return None, None


def _function_wrapper(tracer, name, fn, before, after):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, before, after)
    traced.__wrapped__ = fn
    return traced


def _method_wrapper(tracer, name, attr, fn, before, after):
    def traced(self, *args, **kwargs):
        own = self.__dict__
        own[attr] = fn.__get__(self)
        try:
            return tracer.call(name, fn, (self,) + args, kwargs, before, after)
        finally:
            del own[attr]
    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer, g) -> list:
    """Wrap every entry point of the grlin modules in namespace ``g``.
    Returns the undo list for ``uninstall``."""
    mods = {n: getattr(g, n) for n in vars(g)}
    undo = []
    for home, attr, name in FUNCTIONS:
        fn = getattr(mods[home], attr)
        wrapped = _function_wrapper(tracer, name, fn, *_hooks(g, attr))
        for mname, mod in mods.items():
            if mod.__dict__.get(attr) is not fn:
                continue
            if mname == home and (home, attr) in CALLER_SIDE_ONLY:
                continue
            undo.append((mod, attr, fn))
            setattr(mod, attr, wrapped)
    for home, cls_name, attr, name in METHODS:
        cls = getattr(mods[home], cls_name)
        fn = cls.__dict__[attr]
        undo.append((cls, attr, fn))
        setattr(cls, attr, _method_wrapper(tracer, name, attr, fn, *_hooks(g, attr)))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# Arithmetic over finished spans
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Children nest inside their parent, so this is the part of the span's
    interval that no child covers."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def op_gaps(spans: list[list], selfs: list[float], op_times: list[float]) -> list[float]:
    """Each op's time outside every span: its measured time minus the self
    times of its spans. Negative only if a span reached outside its op."""
    covered = [0.0] * len(op_times)
    for s, st in zip(spans, selfs):
        covered[s[OP]] += st
    return [t - c for t, c in zip(op_times, covered)]


def layer_self_ms(spans: list[list], selfs: list[float]) -> dict[str, float]:
    """Total self time per layer (the module part of the span name), in ms."""
    out: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        layer = s[NAME].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + st * 1e3
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], ops: int, passes: int,
                  suites: tuple[str, ...]) -> dict[str, float]:
    """The per-layer metrics. ``*_ms`` are self time per op; counts are per
    pass (one pass of the workload's fixed op sequence); ``*_per_s`` and
    ratios are over all traced passes; ``lawcheck.<suite>_s`` is the
    suite's wall time per pass."""
    selfs = self_times(spans)
    in_derive = [False] * len(spans)
    secs: dict[str, float] = {}
    count: dict[str, float] = {}

    def add(d, key, v):
        d[key] = d.get(key, 0.0) + v

    normalize_s = 0.0
    for i, (s, st) in enumerate(zip(spans, selfs)):
        name, parent, info = s[NAME], s[PARENT], s[INFO]
        if parent >= 0:
            in_derive[i] = in_derive[parent] or spans[parent][NAME].startswith("deriving.")
        if name == "typecheck.check":
            key = "recheck" if in_derive[i] else "check"
            add(secs, key, st)
            if info is not None and not in_derive[i]:
                add(count, "decls", info)
        else:
            add(secs, name, st)
        add(count, name, 1)
        if name == "parser.tokenize":
            add(count, "tokens", info)
        elif name == "deriving.derive":
            hit, ok = info
            add(count, "hits", hit)
            add(count, "oks", ok)
            if not hit:
                add(secs, "build", st)
        elif name == "evaluator.normalize":
            add(count, "steps", info)
            normalize_s += s[END] - s[START]
        elif name == "lawcheck.case":
            add(secs, "suite:" + info, s[END] - s[START])

    def per_op(key):
        return secs.get(key, 0.0) * 1e3 / ops

    def per_pass(key):
        return count.get(key, 0.0) / passes

    calls = count.get("deriving.derive", 0.0)
    out = {
        "cli.self_ms": per_op("cli.main"),
        "parser.tokenize_ms": per_op("parser.tokenize"),
        "parser.tokens": per_pass("tokens"),
        "parser.tokens_per_s": _ratio(count.get("tokens", 0.0),
                                      secs.get("parser.tokenize", 0.0)),
        "parser.parse_ms": per_op("parser.parse"),
        "parser.pretty_ms": per_op("parser.pretty"),
        "typecheck.check_ms": per_op("check"),
        "typecheck.recheck_ms": per_op("recheck"),
        "typecheck.decls_per_s": _ratio(count.get("decls", 0.0), secs.get("check", 0.0)),
        "deriving.build_ms": per_op("build"),
        "deriving.calls": per_pass("deriving.derive"),
        "deriving.hit_ratio": _ratio(count.get("hits", 0.0), calls),
        "deriving.ok_ratio": _ratio(count.get("oks", 0.0), calls),
        "evaluator.normalize_ms": per_op("evaluator.normalize") + per_op("evaluator.run"),
        "evaluator.steps": per_pass("steps"),
        "evaluator.steps_per_s": _ratio(count.get("steps", 0.0), normalize_s),
        "syntax.subst_ms": per_op("syntax.subst"),
        "syntax.subst_calls": per_pass("syntax.subst"),
        "syntax.alpha_eq_ms": per_op("syntax.alpha_eq"),
        "lawcheck.gen_ms": per_op("lawcheck.gen"),
    }
    for suite in suites:
        out[f"lawcheck.{suite}_s"] = secs.get("suite:" + suite, 0.0) / passes
    return out
