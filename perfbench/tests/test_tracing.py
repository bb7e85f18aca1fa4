"""Span arithmetic, the tracer's op scoping and patching, importtime parsing."""

import pytest

import tracing
from tracing import (
    Span,
    Tracer,
    busy_time,
    layer_metrics,
    parse_importtime,
    self_times,
    split_by_op,
    top_level_coverage,
)


def _spans():
    # op [0, 10]: validate [1, 9] holds trace [2, 5] and run [5, 8];
    # run holds a nested run [6, 7].
    return [
        Span("op", 0.0, 10.0, -1, 1),
        Span("core.validate", 1.0, 9.0, 0, 1, attrs={"kernel": "CG"}),
        Span("kernels.trace", 2.0, 5.0, 1, 1, attrs={"refs": 7}),
        Span("cachesim.run", 5.0, 8.0, 1, 1, cpu=1.0, attrs={"touches": 30}),
        Span("cachesim.run", 6.0, 7.0, 3, 1, attrs={"touches": 0}),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_spans()) == [2.0, 2.0, 3.0, 2.0, 1.0]


def test_busy_time_counts_outermost_spans_once():
    spans = _spans()
    assert busy_time(spans, "cachesim.run") == 3.0
    assert busy_time(spans, ("kernels.trace", "cachesim.run")) == 6.0
    assert busy_time(spans, "cachesim.run", lambda s: s.attrs.get("touches")) == 3.0


def test_top_level_coverage():
    assert top_level_coverage(_spans()) == pytest.approx(0.8)


def test_layer_metrics_per_op_and_inherited_kernel():
    spans = _spans()
    metrics = layer_metrics(spans)
    assert metrics["core.validate_self_s"] == 2.0
    assert metrics["cachesim.run_s"] == 3.0
    assert metrics["cachesim.run_s.CG"] == 3.0
    assert metrics["cachesim.run_s.MC"] == 0.0
    assert metrics["cachesim.wait_s"] == 2.0
    assert metrics["cachesim.refs_per_s"] == 10.0
    assert metrics["kernels.trace_refs"] == 7


def test_split_by_op_rebases_parents():
    second = [
        Span(s.name, s.start, s.end, s.parent + 5 if s.parent >= 0 else -1, 2, s.cpu, s.attrs)
        for s in _spans()
    ]
    groups = split_by_op(_spans() + second)
    assert [s.parent for s in groups[2]] == [s.parent for s in _spans()]


class _Box:
    def work(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2


class _SubBox(_Box):
    def inner(self, x):
        return x * 3


def test_tracer_records_only_inside_ops_and_unpatches():
    tracer = Tracer()
    original = _Box.__dict__["inner"]
    tracer.patch_method(_Box, "work", "box.work")
    tracer.patch_method(_Box, "inner", "box.inner")
    assert _SubBox().work(1) == 4
    assert tracer.spans == []
    with tracer.op(7):
        assert _SubBox().work(1) == 4
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("op", -1, 7), ("box.work", 0, 7), ("box.inner", 1, 7)]
    tracer.unpatch()
    assert _Box.__dict__["inner"] is original
    assert "inner" in _SubBox.__dict__ and _SubBox().inner(1) == 3


def test_patch_function_rebinds_every_module_holding_it():
    import types

    def target(x):
        return x

    a, b = types.ModuleType("a"), types.ModuleType("b")
    a.target = b.alias = target
    tracer = Tracer()
    tracer.patch_function(target, "t", [a, b])
    with tracer.op(1):
        a.target(1)
        b.alias(2)
    assert [s.name for s in tracer.spans] == ["op", "t", "t"]
    tracer.unpatch()
    assert a.target is target and b.alias is target


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   encodings.aliases
import time:       200 |        300 | encodings
import time:        50 |         50 |       scipy._lib
import time:       400 |        450 |     scipy
import time:       500 |       1000 |   scipy.stats
import time:        10 |       1200 | repro.patterns
"""


def test_parse_importtime_sums_top_level_and_outermost_scipy():
    total, scipy = parse_importtime(IMPORTTIME)
    assert total == pytest.approx(1500e-6)
    assert scipy == pytest.approx(1000e-6)


def test_module_has_no_side_effects_on_import():
    assert tracing.Tracer().spans == []
