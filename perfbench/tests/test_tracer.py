import sys
from types import SimpleNamespace

import pytest

import tracer
import tracegenus
import tracegenus.cli  # noqa: F401  (so its namespace is patched too)
from tracegenus import arith, orders, traceform
from tracegenus.polys import parse_poly


def _package_bindings():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "tracegenus" or name.startswith("tracegenus."))
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_patch_reaches_every_namespace_and_restores_every_name():
    before = _package_bindings()
    original = arith.factor_integer
    tr = tracer.Tracer()
    with tracer.patched(tr):
        assert arith.factor_integer is not original
        assert orders.factor_integer is arith.factor_integer
        assert tracegenus.factor_integer is arith.factor_integer
        assert tracegenus.cli.analyze_field is traceform.analyze_field
        assert traceform.analyze_field.__wrapped__ is not traceform.analyze_field
        changed = [k for k, v in _package_bindings().items() if before.get(k) is not v]
        assert changed
    after = _package_bindings()
    assert all(after[k] is v for k, v in before.items())
    assert arith.factor_integer is original


def test_patch_restores_when_the_body_raises():
    before = _package_bindings()
    with pytest.raises(RuntimeError):
        with tracer.patched(tracer.Tracer()):
            raise RuntimeError("boom")
    assert all(_package_bindings()[k] is v for k, v in before.items())


def test_spans_name_routes_and_nest():
    orders.mult_table.cache_clear()
    tr = tracer.Tracer()
    with tracer.patched(tr):
        traceform.analyze_field(parse_poly("x^4 - 41*x^2 + 144"))  # index 48: 2 and 3 divide it
    names = {s.name for s in tr.spans}
    assert "splitting.split_prime.polynomial" in names  # 5, 13, 17
    roots = [s for s in tr.spans if s.parent < 0]
    assert [s.name for s in roots] == ["traceform.analyze_field"]
    for s in tr.spans:
        if s.parent >= 0:
            parent = tr.spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end


def test_split_route_follows_the_index():
    mo = SimpleNamespace(index=48)
    assert tracer._split_route(mo, 3) == "algebra"
    assert tracer._split_route(mo, 5) == "polynomial"
    assert tracer._split_route(mo, 5, method="algebra") == "algebra"


def test_cache_outcomes():
    assert tracer._cache_outcome(({}, None)) == "hits"
    assert tracer._cache_outcome((None, None)) == "misses"
    assert tracer._cache_outcome((None, "corrupt cache entry")) == "rejects"


def _span(name, start, end, parent=-1):
    return tracer.Span(name, start, end, parent, "")


def test_self_time_subtracts_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 6.0, 9.0, 0),
    ]
    assert tracer.self_times(spans) == [4.0, 2.0, 1.0, 3.0]


def test_self_time_counts_overlapping_children_by_their_union():
    spans = [_span("root", 0.0, 10.0), _span("a", 1.0, 5.0, 0), _span("b", 3.0, 12.0, 0)]
    assert tracer.self_times(spans)[0] == 1.0  # covered: [1, 10]


def test_aggregate_sums_calls_and_self_time_per_name():
    spans = [_span("f", 0.0, 2.0), _span("g", 0.5, 1.0, 0), _span("f", 3.0, 4.0)]
    assert tracer.aggregate(spans) == {"f": (2, 2.5), "g": (1, 0.5)}


def test_wrapper_times_with_the_given_clock():
    ticks = iter([1.0, 3.5])
    tr = tracer.Tracer(clock=lambda: next(ticks))
    double = tr.wrap(lambda x: 2 * x, "m.double")
    assert double(4) == 8
    assert [(s.name, s.start, s.end) for s in tr.spans] == [("m.double", 1.0, 3.5)]


def test_mult_table_counters_add_up_to_its_traced_calls(tmp_path):
    import run

    bench = run.Bench("corpus", 0, str(tmp_path))
    rec = next(r for r in bench.records if r.label == "klein-quartic-a")
    bench.records, bench.polys = [rec], [parse_poly(rec.text)]
    bench.flush_mult_table()
    hits0, misses0 = bench.mult_hits, bench.mult_misses
    tr = tracer.Tracer()
    with tracer.patched(tr):
        bench.analyze_pass()
        bench.analyze_pass()
        code, _ = run.run_cli_main(bench, ["analyze", "--no-cache", rec.text])
    bench.flush_mult_table()
    assert code == 0 and not bench.problems
    hits, misses = bench.mult_hits - hits0, bench.mult_misses - misses0
    assert hits > 0
    assert hits + misses == tracer.aggregate(tr.spans)["orders.mult_table"][0]
