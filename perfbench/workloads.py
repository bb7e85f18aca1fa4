"""The benchmark's workloads: seeded inputs, one op each, output checks.

Every workload is a closed loop: the next op starts when the previous
one returns.  Inputs come only from the benchmark seed — per-op seeds
via :func:`op_seed`, the synthetic stream via :func:`make_stream` — and
the library receives nothing else.  Library modules are imported inside
the methods, by name at call time, so (a) set-up pays exactly the
imports its workload needs and (b) the traced run's rebinding of those
names is seen by the ops.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

#: Synthetic stream: 4Mi references in 256Ki-reference chunks.
STREAM_REFS = 4 << 20
STREAM_CHUNK_REFS = 1 << 18
STREAM_LABELS = ("hot", "cold", "conflict")
#: Label shares of the stream, in ``STREAM_LABELS`` order.
STREAM_SHARES = (0.5, 0.3, 0.2)
WRITE_SHARE = 0.3
#: Share of 32-byte accesses at line offset 48, which straddle two lines.
STRADDLE_SHARE = 0.1
#: Estimator sample: 1/8 of the set groups.
SAMPLE_FRACTION = 0.125
#: The paper's "8MB" LLC row (CA*NA*CL = 4 MiB, 8192 sets of 64 B lines).
_LINE = 64
_SETS = 8192
_HOT_LINES = (2 << 20) // _LINE
_COLD_LINES = (64 << 20) // _LINE
_COLD_BASE = 1 << 24
_CONFLICT_BASE = 1 << 26
#: Conflict lines start in the first 127 sets, so even a straddling
#: access stays inside 128 = 1/64 of the sets.
_CONFLICT_SETS = _SETS // 64 - 1
_CONFLICT_TAGS = 64


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index`` of a run (index 0 is the warm-up op)."""
    return int(np.random.SeedSequence([seed, 1, index]).generate_state(1)[0])


def make_stream(seed: int):
    """The seeded three-label synthetic reference stream.

    ``hot`` is uniform over 2 MiB (it fits in the cache), ``cold`` is
    uniform over 64 MiB, and ``conflict`` lines all map to 1/64 of the
    sets, 64 tags deep, so those sets thrash.
    """
    from repro.trace.reference import ReferenceTrace

    rng = np.random.default_rng([seed, 0])
    n = STREAM_REFS
    labels = np.searchsorted(
        np.cumsum(STREAM_SHARES)[:-1], rng.random(n), side="right"
    ).astype(np.int32)
    lines = np.empty(n, dtype=np.int64)
    hot, cold, conflict = (labels == i for i in range(3))
    lines[hot] = rng.integers(0, _HOT_LINES, int(hot.sum()))
    lines[cold] = _COLD_BASE + rng.integers(0, _COLD_LINES, int(cold.sum()))
    k = int(conflict.sum())
    lines[conflict] = (
        _CONFLICT_BASE
        + rng.integers(0, _CONFLICT_TAGS, k) * _SETS
        + rng.integers(0, _CONFLICT_SETS, k)
    )
    straddle = rng.random(n) < STRADDLE_SHARE
    offsets = np.where(straddle, _LINE - 16, rng.integers(0, _LINE // 8, n) * 8)
    return ReferenceTrace(
        addresses=lines * _LINE + offsets,
        sizes=np.where(straddle, 32, 8).astype(np.int64),
        is_write=rng.random(n) < WRITE_SHARE,
        label_ids=labels,
        labels=list(STREAM_LABELS),
    )


def ci_scores(estimate, exact) -> tuple[int, int, list[float]]:
    """Score per-label miss intervals against exact miss counts.

    ``estimate`` maps label to ``(point, halfwidth)``; ``exact`` maps
    label to the exact count.  Returns ``(covered, intervals,
    halfwidth / exact per label)``.
    """
    covered = 0
    relative = []
    for label, count in exact.items():
        point, halfwidth = estimate[label]
        covered += bool(abs(point - count) <= halfwidth)
        relative.append(float(halfwidth / count))
    return covered, len(exact), relative


def _finite_positive(value) -> bool:
    return math.isfinite(value) and value > 0


class BenchWorkload:
    """One workload: set-up, per-op input, the op, checks and scores."""

    name = "?"

    def imports(self) -> None:
        """Import the library modules set-up needs."""

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.imports()

    def warm_up(self) -> None:
        self.run(self.op_input(0))

    def op_input(self, index: int):
        return op_seed(self.seed, index)

    def run(self, op_input):
        raise NotImplementedError

    def check(self, op_input, result) -> list[str]:
        """Problems with one op's output."""
        return []

    def check_once(self, op_input, result) -> list[str]:
        """Problems found by the costly checks a run makes once, on one
        passing op and on set-up's reference data."""
        return []

    def reference(self):
        """JSON-able summary of set-up's reference data, equal across
        processes that set up the same seed."""
        return None

    def score(self, op_input, result) -> dict:
        """JSON-able figures of one passing op, for :meth:`summarize`."""
        return {}

    def summarize(self, scores: list[dict]) -> dict[str, float]:
        """Workload-specific end-to-end figures over the checked ops."""
        return {}


class Fig4(BenchWorkload):
    """One op is one Figure 4 sweep: ``validate_kernel`` for the six
    kernels on both verification caches, with library defaults."""

    name = "fig4"

    def imports(self):
        import repro.core.validation  # noqa: F401
        import repro.experiments.configs  # noqa: F401

    def op_input(self, index):
        from repro.experiments.configs import KERNEL_ORDER
        from repro.kernels.base import Workload
        from repro.kernels.workloads import VERIFICATION_WORKLOADS

        seed = op_seed(self.seed, index)
        return {
            k: Workload(
                VERIFICATION_WORKLOADS[k].name,
                {**VERIFICATION_WORKLOADS[k].params, "seed": seed},
            )
            for k in KERNEL_ORDER
        }

    def run(self, workloads):
        from repro.core.validation import validate_kernel
        from repro.experiments.configs import FIG4_CACHES, KERNEL_ORDER
        from repro.kernels.registry import KERNELS

        return [
            validate_kernel(KERNELS[k], workloads[k], geometry)
            for geometry in FIG4_CACHES.values()
            for k in KERNEL_ORDER
        ]

    def check(self, workloads, results):
        return [
            f"{r.kernel} on {r.cache}: {s.structure} has a non-finite count"
            for r in results
            for s in r.structures
            if not (math.isfinite(s.simulated) and math.isfinite(s.estimated))
        ]

    def check_once(self, workloads, results):
        from repro.cachesim.simulator import simulate_trace
        from repro.experiments.configs import FIG4_CACHES, KERNEL_ORDER
        from repro.kernels.registry import KERNELS

        problems = []
        cells = iter(results)
        traces = {k: KERNELS[k].trace(workloads[k]) for k in KERNEL_ORDER}
        for geometry in FIG4_CACHES.values():
            for k in KERNEL_ORDER:
                result = next(cells)
                oracle = simulate_trace(traces[k], geometry, engine="reference")
                problems += [
                    f"{k} on {result.cache}: {s.structure} simulated "
                    f"{s.simulated} != reference engine {oracle.misses(s.structure)}"
                    for s in result.structures
                    if s.simulated != oracle.misses(s.structure)
                ]
        return problems

    def score(self, workloads, results):
        return {
            "model_max_rel_error": float(max(r.max_relative_error for r in results))
        }

    def summarize(self, scores):
        return {
            "model_max_rel_error": statistics.median(
                s["model_max_rel_error"] for s in scores
            )
        }


class Fig5(BenchWorkload):
    """One op is one Figure 5 sweep: ``DVFAnalyzer.analyze`` for six
    kernels on the four profiling caches, then the built-in Aspen
    models through ``compile_source`` on the same four machines."""

    name = "fig5"
    #: CG's DVF_a must exceed FT's, and MC's NB's, by at least this much.
    FAR_ABOVE = 10.0

    def imports(self):
        import repro.core.analyzer  # noqa: F401
        import repro.experiments.aspen_batch  # noqa: F401
        import repro.experiments.configs  # noqa: F401

    def setup(self, seed):
        from repro.aspen.builtin import DSL_KERNELS, MACHINE_LIBRARY, builtin_source
        from repro.experiments.configs import FIG5_CACHES

        super().setup(seed)
        self.sources = {
            k: builtin_source(k, "profiling") + MACHINE_LIBRARY for k in DSL_KERNELS
        }
        self.machines = [f"cache_{name.lower()}" for name in FIG5_CACHES]

    def op_input(self, index):
        from repro.experiments.configs import KERNEL_ORDER
        from repro.kernels.base import Workload
        from repro.kernels.workloads import PROFILING_WORKLOADS

        seed = op_seed(self.seed, index)
        return {
            k: Workload(
                PROFILING_WORKLOADS[k].name,
                {**PROFILING_WORKLOADS[k].params, "seed": seed},
            )
            for k in KERNEL_ORDER
        }

    def run(self, workloads):
        from repro.core.analyzer import AnalyzerConfig, DVFAnalyzer
        from repro.experiments.aspen_batch import evaluate_batch
        from repro.experiments.configs import FIG5_CACHES, KERNEL_ORDER
        from repro.kernels.registry import KERNELS

        reports = {}
        for cache, geometry in FIG5_CACHES.items():
            analyzer = DVFAnalyzer(AnalyzerConfig(geometry=geometry))
            for k in KERNEL_ORDER:
                reports[cache, k] = analyzer.analyze(KERNELS[k], workloads[k])
        batches = {m: evaluate_batch(self.sources, machine=m) for m in self.machines}
        return reports, batches

    def check(self, workloads, output):
        reports, batches = output
        problems = []
        evaluated = [(f"{k} on {cache}", r) for (cache, k), r in reports.items()]
        for machine, entries in batches.items():
            for entry in entries:
                if not entry.ok:
                    problems.append(f"Aspen {entry.label} on {machine}: {entry.error}")
                else:
                    evaluated.append((f"Aspen {entry.label} on {machine}", entry.report))
        for where, report in evaluated:
            if report.degraded_structures:
                problems.append(f"{where}: degraded {report.degraded_structures}")
            problems += [
                f"{where}: {s.name} DVF {s.dvf}"
                for s in report.structures
                if not _finite_positive(s.dvf)
            ]
        for cache in dict.fromkeys(c for c, _ in reports):
            dvf = {k: r.dvf_application for (c, k), r in reports.items() if c == cache}
            for high, low in (("CG", "FT"), ("MC", "NB")):
                if not dvf[high] >= self.FAR_ABOVE * dvf[low]:
                    problems.append(
                        f"{cache}: DVF_a {high} {dvf[high]:.3e} is not "
                        f"{self.FAR_ABOVE:g}x {low} {dvf[low]:.3e}"
                    )
        return problems


class Stream(BenchWorkload):
    """One op is one default ``simulate_trace`` of the synthetic stream,
    fed in chunks into a cold "8MB" LLC."""

    name = "stream"

    def imports(self):
        import repro.cachesim.configs  # noqa: F401
        import repro.cachesim.simulator  # noqa: F401
        import repro.trace.reference  # noqa: F401

    def setup(self, seed):
        super().setup(seed)
        self.trace = make_stream(seed)

    def warm_up(self):
        # The warm-up replay is the exact reference every op must equal.
        self.exact = self.run(None)

    def op_input(self, index):
        return None

    def run(self, _):
        from repro.cachesim.configs import CACHE_8MB
        from repro.cachesim.simulator import simulate_trace
        from repro.trace.reference import iter_chunks

        return simulate_trace(iter_chunks(self.trace, STREAM_CHUNK_REFS), CACHE_8MB)

    def reference(self):
        return self.exact.as_dict()

    def touches(self) -> int:
        """Expanded line touches per op (every touch is a hit or a miss)."""
        total = self.exact.total
        return total.hits + total.misses

    def check(self, _, stats):
        if stats.as_dict() != self.exact.as_dict():
            return [f"stats {stats.as_dict()} != reference {self.exact.as_dict()}"]
        return []

    def check_once(self, _, __):
        from repro.cachesim.configs import CACHE_8MB
        from repro.cachesim.simulator import simulate_trace

        oracle = simulate_trace(self.trace, CACHE_8MB, engine="reference")
        if oracle.as_dict() != self.exact.as_dict():
            return [f"reference {self.exact.as_dict()} != oracle {oracle.as_dict()}"]
        return []


class Estimate(Stream):
    """One op is the stream through ``simulate_trace(mode="estimate")``
    at a 1/8 sample with a fresh sampling seed."""

    name = "estimate"

    def imports(self):
        super().imports()
        # Loaded lazily by the estimator's first finish(); it pulls in
        # scipy.stats, which belongs in set-up.
        import repro.patterns.random_access  # noqa: F401

    def setup(self, seed):
        super().setup(seed)
        self.exact = Stream.run(self, None)

    def warm_up(self):
        self.run(self.op_input(0))

    def op_input(self, index):
        return op_seed(self.seed, index)

    def run(self, sample_seed, sample_fraction=SAMPLE_FRACTION):
        from repro.cachesim.configs import CACHE_8MB
        from repro.cachesim.simulator import simulate_trace
        from repro.trace.reference import iter_chunks

        return simulate_trace(
            iter_chunks(self.trace, STREAM_CHUNK_REFS),
            CACHE_8MB,
            mode="estimate",
            estimate_options={"sample_fraction": sample_fraction, "seed": sample_seed},
        )

    def check(self, sample_seed, est):
        problems = []
        if est.refs != len(self.trace) or est.seed != sample_seed:
            problems.append(f"estimate of {est.refs} refs with seed {est.seed}")
        if not 0 < est.sampled_refs < self.touches():
            problems.append(f"{est.sampled_refs} sampled of {self.touches()} touches")
        for label in STREAM_LABELS:
            e = est.label(label)
            if not (_finite_positive(e.misses) and math.isfinite(e.misses_halfwidth)):
                problems.append(f"{label}: {e.misses} ± {e.misses_halfwidth}")
        return problems

    def check_once(self, _, __):
        census = self.run(0, sample_fraction=1.0)
        problems = []
        for label, exact in self.exact.by_label.items():
            e = census.label(label)
            got = (e.hits, e.misses, e.writebacks)
            want = (exact.hits, exact.misses, exact.writebacks)
            if got != want or e.misses_halfwidth != 0:
                problems.append(f"census {label}: {got} ± {e.misses_halfwidth} != {want}")
        return problems

    def score(self, _, est):
        covered, intervals, relative = ci_scores(
            {k: (est.misses(k), est.misses_halfwidth(k)) for k in STREAM_LABELS},
            {k: self.exact.misses(k) for k in STREAM_LABELS},
        )
        return {"covered": covered, "intervals": intervals, "relative": relative}

    def summarize(self, scores):
        return {
            "ci_coverage": sum(s["covered"] for s in scores)
            / sum(s["intervals"] for s in scores),
            "ci_rel_halfwidth": statistics.median(
                r for s in scores for r in s["relative"]
            ),
        }


WORKLOADS = {w.name: w for w in (Fig4, Fig5, Stream, Estimate)}
