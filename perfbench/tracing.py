"""Layer spans recorded from outside the library, and the arithmetic on them.

The traced run wraps each layer's public entry points *from here*: it
replaces class attributes (methods, including every subclass override)
and module-level function bindings, so calls the library makes to
itself are caught too.  Nothing under ``src/`` changes.

A span is ``(name, start, end, parent, op)`` plus CPU time and a few
attributes.  Spans are recorded only while an op is open, so output
checks and set-up never show up in the per-layer numbers.

Busy time of a span name is the summed duration of its *outermost*
spans (a recursive or nested call of the same layer is not counted
twice); self time subtracts the durations of direct child spans, which
never overlap because everything here runs in one thread.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    cpu: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with an explicit op scope."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op_id: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def op(self, op_id: int):
        """Open the root span of one benchmark op."""
        self.op_id = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self.op_id = None

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent, self.op_id, attrs=attrs)
        self.spans.append(span)
        self._stack.append(index)
        cpu0 = time.process_time()
        try:
            yield span
        finally:
            span.cpu = time.process_time() - cpu0
            span.end = time.perf_counter()
            self._stack.pop()

    # -- patching ---------------------------------------------------------
    def wrap(self, fn, name, before=None, after=None):
        """``fn`` recording a ``name`` span whenever an op is open.

        ``before(*args, **kwargs)`` returns span attributes (it runs
        before the clock starts); ``after(span, result, *args,
        **kwargs)`` runs after the clock stops.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            attrs = before(*args, **kwargs) if before else {}
            with self.span(name, **attrs) as span:
                result = fn(*args, **kwargs)
            if after is not None:
                after(span, result, *args, **kwargs)
            return result

        return traced

    def patch_method(self, cls, attr, name, before=None, after=None):
        """Wrap ``cls.attr`` and every subclass's own override of it."""
        for klass in [cls, *_subclasses(cls)]:
            original = klass.__dict__.get(attr)
            if original is None:
                continue
            self._patches.append((klass, attr, original))
            setattr(klass, attr, self.wrap(original, name, before, after))

    def patch_function(self, fn, name, modules, before=None, after=None):
        """Rebind ``fn`` in every module of ``modules`` that holds it."""
        traced = self.wrap(fn, name, before, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, traced)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as out:
            json.dump([asdict(s) for s in self.spans], out)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# -- span arithmetic ----------------------------------------------------------
def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _has_ancestor(spans, span, names) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def busy_time(spans: list[Span], names, where=None) -> float:
    """Summed duration of outermost spans named in ``names``."""
    names = {names} if isinstance(names, str) else set(names)
    return sum(
        s.duration
        for s in spans
        if s.name in names
        and (where is None or where(s))
        and not _has_ancestor(spans, s, names)
    )


def inherited(spans: list[Span], span: Span, key: str):
    """Attribute ``key`` of ``span`` or of its nearest ancestor holding it."""
    while True:
        if key in span.attrs:
            return span.attrs[key]
        if span.parent < 0:
            return None
        span = spans[span.parent]


def top_level_coverage(spans: list[Span]) -> float:
    """Share of the op span's wall time covered by its direct children."""
    root = next(i for i, s in enumerate(spans) if s.name == "op")
    covered = sum(s.duration for s in spans if s.parent == root)
    return covered / spans[root].duration


# -- per-layer metrics ----------------------------------------------------------
def op_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures for the spans of one op (indices local to it)."""
    own = self_times(spans)

    def self_of(name):
        return sum(t for s, t in zip(spans, own) if s.name == name)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def kernel_is(kernel):
        return lambda s: inherited(spans, s, "kernel") == kernel

    runs = [s for s in spans if s.name == "cachesim.run"]
    run_s = busy_time(spans, "cachesim.run")
    run_cpu = sum(s.cpu for s in runs)
    expanded = attr_sum("cachesim.run", "touches")
    consumed = attr_sum("cachesim.estimate.consume", "touches")
    sampled = attr_sum("cachesim.estimate.finish", "sampled_refs")
    return {
        "kernels.trace_s": busy_time(spans, "kernels.trace"),
        "kernels.trace_s.NB": busy_time(spans, "kernels.trace", kernel_is("NB")),
        "kernels.trace_refs": attr_sum("kernels.trace", "refs"),
        "trace.finish_s": busy_time(spans, "trace.finish"),
        "kernels.access_model_s": busy_time(spans, "kernels.access_model"),
        "kernels.data_structures_s": busy_time(spans, "kernels.data_structures"),
        "cachesim.run_s": run_s,
        "cachesim.run_s.CG": busy_time(spans, "cachesim.run", kernel_is("CG")),
        "cachesim.run_s.MC": busy_time(spans, "cachesim.run", kernel_is("MC")),
        "cachesim.run_cpu_s": run_cpu,
        "cachesim.wait_s": max(0.0, run_s - run_cpu),
        "cachesim.expanded_refs": expanded,
        "cachesim.refs_per_s": expanded / run_s if run_s > 0 else 0.0,
        "cachesim.sharded_runs": sum(1 for s in runs if s.attrs.get("shards", 1) > 1),
        "cachesim.reference_runs": sum(
            1 for s in runs if s.attrs.get("engine") == "reference"
        ),
        "cachesim.misses": attr_sum("cachesim.run", "misses"),
        "cachesim.writebacks": attr_sum("cachesim.run", "writebacks"),
        "cachesim.estimate.consume_s": busy_time(spans, "cachesim.estimate.consume"),
        "cachesim.estimate.finish_s": busy_time(spans, "cachesim.estimate.finish"),
        "cachesim.estimate.sampled_refs": sampled,
        "cachesim.estimate.sample_share": sampled / consumed if consumed else 0.0,
        "patterns.estimate_s": busy_time(
            spans, ("patterns.estimate", "patterns.template")
        ),
        "patterns.template_s": busy_time(spans, "patterns.template"),
        "aspen.compile_s": busy_time(spans, "aspen.compile"),
        "core.analyze_self_s": self_of("core.analyze"),
        "core.build_report_s": busy_time(spans, "core.build_report"),
        "core.validate_self_s": self_of("core.validate"),
        "bench.top_span_coverage": top_level_coverage(spans),
    }


def split_by_op(spans: list[Span]) -> dict[int, list[Span]]:
    """Spans grouped per op, parent indices rebased to each group."""
    groups: dict[int, list[Span]] = {}
    rebase: dict[int, int] = {}
    for index, span in enumerate(spans):
        group = groups.setdefault(span.op, [])
        rebase[index] = len(group)
        group.append(
            Span(
                span.name,
                span.start,
                span.end,
                rebase[span.parent] if span.parent >= 0 else -1,
                span.op,
                span.cpu,
                span.attrs,
            )
        )
    return groups


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Median over traced ops of each op's per-layer figures."""
    per_op = [op_layer_metrics(group) for group in split_by_op(spans).values()]
    return {
        name: statistics.median(m[name] for m in per_op) for name in per_op[0]
    }


# -- the library's layer boundaries ----------------------------------------------
def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every loaded library layer.

    Only modules the workload already imported are patched, so a traced
    run loads nothing an untraced run would not.
    """
    loaded = sys.modules
    modules = [
        m for n, m in list(loaded.items()) if n == "repro" or n.startswith("repro.")
    ]

    def kernel_attr(self, *args, **kwargs):
        return {"kernel": self.name}

    if "repro.kernels.base" in loaded:
        from repro.kernels.base import Kernel

        tracer.patch_method(
            Kernel,
            "trace",
            "kernels.trace",
            before=kernel_attr,
            after=lambda span, trace, *a, **k: span.attrs.update(refs=len(trace)),
        )
        for attr in ("access_model", "data_structures"):
            tracer.patch_method(
                Kernel, attr, f"kernels.{attr}", before=kernel_attr
            )
    if "repro.trace.recorder" in loaded:
        from repro.trace.recorder import TraceRecorder

        tracer.patch_method(TraceRecorder, "finish", "trace.finish")
    if "repro.cachesim.simulator" in loaded:
        from repro.cachesim.simulator import CacheSimulator

        def totals(sim):
            t = sim.stats.total
            return t.hits + t.misses, t.misses, t.writebacks

        def before_run(sim, *args, **kwargs):
            return {"before": totals(sim)}

        def after_run(span, stats, sim, *args, **kwargs):
            before = span.attrs.pop("before")
            touches, misses, writebacks = (
                a - b for a, b in zip(totals(sim), before)
            )
            span.attrs.update(
                touches=touches,
                misses=misses,
                writebacks=writebacks,
                shards=sim.shards,
                engine=sim.engine,
            )

        tracer.patch_method(
            CacheSimulator, "run", "cachesim.run", before=before_run, after=after_run
        )
    if "repro.cachesim.estimate" in loaded:
        from repro.cachesim.estimate import TraceEstimator, estimate_trace
        from repro.cachesim.expand import expanded_size

        tracer.patch_function(estimate_trace, "cachesim.estimate", modules)

        tracer.patch_method(
            TraceEstimator,
            "consume",
            "cachesim.estimate.consume",
            after=lambda span, _, est, chunk: span.attrs.update(
                touches=expanded_size(chunk, est.geometry.line_size)
            ),
        )
        tracer.patch_method(
            TraceEstimator,
            "finish",
            "cachesim.estimate.finish",
            after=lambda span, _, est, *a, **k: span.attrs.update(
                sampled_refs=est.sampled_refs
            ),
        )
    if "repro.patterns.template" in loaded:
        from repro.patterns.template import TemplateAccess

        tracer.patch_method(TemplateAccess, "estimate_accesses", "patterns.template")
    if "repro.patterns.base" in loaded:
        from repro.patterns.base import AccessPattern

        tracer.patch_method(AccessPattern, "estimate_accesses", "patterns.estimate")
    if "repro.patterns.composite" in loaded:
        from repro.patterns.composite import CompositeAccessModel

        tracer.patch_method(
            CompositeAccessModel, "estimate_by_structure", "patterns.estimate"
        )
    if "repro.aspen.compiler" in loaded:
        from repro.aspen.compiler import compile_source

        tracer.patch_function(compile_source, "aspen.compile", modules)
    if "repro.core.dvf" in loaded:
        from repro.core.dvf import build_report

        tracer.patch_function(build_report, "core.build_report", modules)
    if "repro.core.analyzer" in loaded:
        from repro.core.analyzer import DVFAnalyzer

        tracer.patch_method(DVFAnalyzer, "analyze", "core.analyze")
    if "repro.core.validation" in loaded:
        from repro.core.validation import validate_kernel

        tracer.patch_function(
            validate_kernel,
            "core.validate",
            modules,
            before=lambda kernel, *a, **k: {"kernel": kernel.name},
        )


# -- interpreter start-up ------------------------------------------------------
def parse_importtime(stderr: str) -> tuple[float, float]:
    """``(all imports, scipy imports)`` in seconds from ``-X importtime``.

    All imports sum the cumulative time of the top-level entries (the
    interpreter's own start-up modules included).  The scipy figure sums
    the cumulative time of the outermost ``scipy`` entries.  Children are
    printed before their parent, so the tree is walked in reverse.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total = scipy = 0
    ancestors: list[str] = []
    for depth, cumulative, name in reversed(rows):
        del ancestors[depth:]
        if depth == 0:
            total += cumulative
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(
            a == "scipy" or a.startswith("scipy.") for a in ancestors
        ):
            scipy += cumulative
        ancestors.append(name)
    return total / 1e6, scipy / 1e6
