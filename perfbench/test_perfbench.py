"""Self-checks of the benchmark: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import run
import tracing
import workloads


def test_tail_leaves_ten_ops_of_the_pass_beyond():
    assert run.tail([float(x) for x in range(100, 0, -1)]) == (90.0, 90.0)
    assert run.tail([float(x) for x in range(1, 12)]) == (1.0, 100.0 / 11)
    assert run.tail([3.0, 1.0, 2.0])[0] == 1.0


def test_tail_op_does_not_depend_on_the_number_of_passes():
    """The rank is taken within each pass, so a faster program, which fits
    more passes in a run, still reports the same op's time."""
    pullpush_pass = [n for n, count in workloads.LIST_MIX.items() for _ in range(count)]
    assert run.tail(pullpush_pass)[0] == 80
    corpus_pass = sorted(range(35)) * workloads.CORPUS_REPEATS
    assert run.tail(corpus_pass)[0] == 31  # the 4th-slowest program


def test_timings_scale_each_pass_to_the_reference_speed():
    ref = run.REFERENCE_CALIBRATION_S
    passes = [[1.0, 2.0, 4.0], [2.0, 4.0, 8.0]]
    # The second pass ran at half the speed, so it scales to the first.
    rate, p50, op_tail, percentile = run.timings(passes, [ref, 2 * ref])
    assert (rate, p50, op_tail, percentile) == (3 / 7.0, 2.0, 1.0, 100 / 3)
    rate, p50, op_tail, _ = run.timings(passes, [ref, ref])
    assert (rate, p50, op_tail) == ((3 / 7.0 + 3 / 14.0) / 2, 3.0, 1.5)


def test_measure_calibrates_every_pass():
    wl = SimpleNamespace(items=[0, 1], begin_pass=lambda: None, run=lambda item: item,
                         check=lambda item, out: True)
    passes, speeds, failures = run.measure(wl, 0.0)
    assert len(passes) == len(speeds) == 1 and not failures
    assert speeds[0] > 0


def test_every_pass_runs_the_same_ops_in_the_same_order():
    for name in ("laws", "corpus", "pullpush"):
        _, _, wl = run.setup(name, 5)
        first = list(wl.items)
        wl.begin_pass()
        assert wl.items == first
        _, _, again = run.setup(name, 5)
        assert again.items == first


def test_another_pass_stops_before_the_deadline():
    now = run.perf_counter()
    assert run.another_pass(now, 0, 0.0)
    assert run.another_pass(now - 10.0, 2, 16.0)
    assert not run.another_pass(now - 10.0, 2, 14.0)


def _span(name, start, end, parent, op=0, info=None):
    return [name, start, end, parent, op, info]


def test_self_times_subtract_direct_children():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("parser.parse", 1.0, 4.0, 0),
        _span("parser.tokenize", 2.0, 3.0, 1),
        _span("typecheck.check", 5.0, 9.0, 0),
        _span("cli.main", 20.0, 22.0, -1, op=1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == [3.0, 2.0, 1.0, 4.0, 2.0]
    assert tracing.op_gaps(spans, selfs, [10.5, 2.0]) == [0.5, 0.0]
    assert tracing.op_gaps(spans, selfs, [9.0, 2.0])[0] < 0  # a span outside its op
    assert tracing.layer_self_ms(spans, selfs) == {"cli": 5000.0, "parser": 3000.0,
                                                   "typecheck": 4000.0}


def test_layer_metrics_split_check_from_recheck():
    spans = [
        _span("typecheck.check", 0.0, 10.0, -1, info=4),
        _span("deriving.derive", 1.0, 7.0, 0, info=(False, True)),
        _span("typecheck.check", 2.0, 5.0, 1),
        _span("deriving.derive", 8.0, 9.0, 0, info=(True, True)),
    ]
    m = tracing.layer_metrics(spans, ops=1, passes=1, suites=())
    assert m["typecheck.check_ms"] == pytest.approx(3000.0)
    assert m["typecheck.recheck_ms"] == pytest.approx(3000.0)
    assert m["deriving.build_ms"] == pytest.approx(3000.0)
    assert m["deriving.calls"] == 2
    assert m["deriving.hit_ratio"] == 0.5
    assert m["typecheck.decls_per_s"] == pytest.approx(4 / 3.0)


# A slice of each pass that touches every layer the workload uses.
SLICE = {"laws": slice(None, None, 25), "corpus": slice(None), "pullpush": slice(3)}
COUNTS = ("evaluator.steps", "deriving.calls", "parser.tokens", "syntax.subst_calls")


def _traced_pass(name: str, seed: int):
    _, g, wl = run.setup(name, seed)
    wl.items = sorted({repr(i): i for i in wl.items}.values())[SLICE[name]]
    tracer = tracing.Tracer()
    plain, times, failures = run.paired_pass(wl, g, tracer)
    assert not failures and len(plain) == len(times) == len(wl.items)
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    gaps = tracing.op_gaps(spans, selfs, tracer.op_times)
    return gaps, times, tracing.layer_metrics(spans, len(times), 1, g.lawcheck.SUITES)


@pytest.mark.parametrize("name", ["laws", "corpus", "pullpush"])
def test_traced_counts_repeat_and_self_times_add_up(name):
    gaps, times, first = _traced_pass(name, seed=5)
    _, _, second = _traced_pass(name, seed=5)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["evaluator.steps"] > 0 and first["syntax.subst_calls"] > 0
    if name != "pullpush":
        assert first["deriving.calls"] > 0
    if name == "corpus":
        assert first["parser.tokens"] > 0
    assert min(gaps) > -1e-9
    assert sum(gaps) / sum(times) < run.OUTSIDE_LIMIT


def test_paired_runs_start_from_the_same_memo():
    """Both runs of a laws op see the memo as it was before the op, so the
    traced run's derive counts are those of a plain pass."""
    _, g, wl = run.setup("laws", 5)
    wl.items = sorted(wl.items)[:40]
    tracer = tracing.Tracer()
    run.paired_pass(wl, g, tracer)
    after_pairs = set(g.deriving._memo)
    wl.begin_pass = lambda: g.deriving.clear_memo()
    run.measure(wl, 0.0)
    assert set(g.deriving._memo) == after_pairs


def test_expected_table_covers_every_program():
    table = json.loads(workloads.EXPECTED.read_text())
    programs = run.ROOT / "programs"
    assert set(table["positive"]) == {p.name for p in programs.glob("*.grm")}
    assert set(table["negative"]) == {p.name for p in (programs / "negative").glob("*.grm")}


def test_replicate_renames_copies_and_keeps_main():
    text = "#semiring interval\n-- note\nid : a -o a\nid = \\x -> x\n\nmain : Unit\nmain = id unit\n"
    out = workloads.replicate(text, 3)
    assert out.count("#semiring") == 1
    assert "main : Unit" in out and "main_2 = id_2 unit" in out
    assert out.count("\nid_1 : a -o a") == 1


def test_same_value_is_structural():
    g = run.load_grlin()
    v = ("box", workloads.list_value([1, 2, 3]))
    t = workloads.to_term(g, v)
    assert workloads.same_value(t, v)
    assert not workloads.same_value(t, ("box", workloads.list_value([1, 2, 4])))
    assert not workloads.same_value(t, workloads.list_value([1, 2, 3]))
    assert g.parser.pretty_term(t.body) == workloads.show_list([1, 2, 3])
