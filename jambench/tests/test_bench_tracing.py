import math

import pytest

import jamlab as jl
import jamlab.cli  # noqa: F401
from tracing import Tracer, layer_metrics, self_times


def span(name, start, end, parent, info=None):
    return [name, start, end, parent, info]


def test_self_time_subtracts_children_at_each_level():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 6.0, 0),
        span("other root", 11.0, 12.5, -1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("c1", 1.0, 4.0, 0),
        span("c2", 3.0, 5.0, 0),   # overlaps c1 on [3, 4]
        span("c3", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_metrics_are_per_pass():
    spans = []
    for p in range(2):
        t = 10.0 * p
        spans += [
            span("matching.synthesize_jammer", t, t + 4.0, -1, {"matched": p == 0}),
            span("charfun.cf_power", t + 1.0, t + 2.0, len(spans), {"truncated": True}),
            span("charfun.cf_of", t + 2.0, t + 2.5, len(spans), None),
        ]
    m = layer_metrics(spans, 2, 3, 300, [1.5], [1.0])
    assert m["matching.verdicts"] == (1, "count")
    assert m["matching.matched"][0] == 0.5
    assert m["charfun.calls"] == (2, "count")
    assert m["charfun.truncated"] == (1, "count")
    assert m["matching.synthesize_jammer.self_s"][0] == pytest.approx(2.5)
    assert m["charfun.cf_power.self_s"][0] == pytest.approx(1.0)
    assert m["gamesim.simulate.linear.trials_per_s"] == (0.0, "1/s")
    assert m["cli.files_written"] == (3, "count")
    assert m["trace.overhead_s"][0] == pytest.approx(0.5)


def test_tracer_records_nested_calls_and_restores_the_package():
    original = jl.matching.cf_power
    tracer = Tracer()
    tracer.install(jl)
    try:
        cfg = jl.JammingGameConfig(jl.gaussian(1.0), jl.gaussian(1.0), 1.0, 1.0)
        result = jl.synthesize_jammer(cfg, cfg.grid_for(2048))
    finally:
        tracer.uninstall()
    assert jl.matching.cf_power is original
    assert jl.synthesize_jammer is jl.matching.synthesize_jammer
    names = [s[0] for s in tracer.spans]
    assert names[0] == "matching.synthesize_jammer"
    assert tracer.spans[0][4] == {"matched": result.matched}
    for child in ("charfun.cf_of", "charfun.cf_power", "charfun.cf_divide",
                  "charfun.check_validity", "charfun.density_from_cf"):
        i = names.index(child)
        assert tracer.spans[i][3] == 0
    assert all(s[1] <= s[2] for s in tracer.spans)
    assert all(math.isfinite(t) and t >= 0 for t in self_times(tracer.spans))
