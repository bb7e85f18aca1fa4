"""Drive a memory-reference trace through the cache simulator.

Two engines sit behind :class:`CacheSimulator`:

* ``"array"`` — the batched numpy engine
  (:class:`~repro.cachesim.engine.ArrayLRUEngine`): the trace is
  pre-expanded into flat numpy columns of per-line touches
  (vectorised), collapsed, and replayed in per-set waves of whole-array
  operations.  LRU only; bit-identical to the oracle.
* ``"reference"`` — the dict-based
  :class:`~repro.cachesim.cache.SetAssociativeCache` oracle: a
  sequential walk doing plain dict operations, roughly a microsecond
  per reference.  Supports every replacement policy and remains the
  ground truth the array engine is differentially tested against
  (``tests/cachesim/test_engine_differential.py``).

The default ``engine="auto"`` routes LRU to the array engine and the
FIFO/random ablation policies to the reference cache's general access
path; requesting ``engine="array"`` for a non-LRU policy raises
:class:`~repro.cachesim.engine.CacheEngineError` instead of silently
degrading.  ``benchmarks/harness.py`` records the measured speedup per
kernel in ``BENCH_cachesim.json``.
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.cache import SetAssociativeCache, _Line
from repro.cachesim.configs import CacheGeometry
from repro.cachesim.engine import (
    AUTO_ARRAY_MIN_REFS,
    DEFAULT_CHUNK_SIZE,
    EVENT_EVICT,
    STRATEGIES,
    ArrayLRUEngine,
    CacheEngineError,
    check_engine,
)
from repro.cachesim.expand import _expand_lines, expanded_size
from repro.cachesim.stats import CacheStats
from repro.trace.reference import ReferenceTrace


class CacheSimulator:
    """Runs reference traces through a set-associative LRU cache.

    The simulator keeps the cache state across :meth:`run` calls, so a
    kernel split across several traces (e.g. per-iteration traces) warms
    the cache naturally.

    Parameters
    ----------
    geometry:
        The cache shape (``CA``, ``NA``, ``CL``).
    policy:
        Replacement policy (``"lru"``/``"fifo"``/``"random"``).
    seed:
        RNG seed for the ``"random"`` policy.
    track_residency:
        Enable the per-label residency integrals used by the cache-DVF
        extension.
    engine:
        ``"auto"`` (default), ``"array"`` or ``"reference"`` — see the
        module docstring.  Both engines produce bit-identical
        statistics for LRU.  ``"auto"`` with LRU resolves *lazily* at
        the first :meth:`run`, routing to the array engine only when
        the expanded trace holds at least ``auto_min_refs`` line
        touches (below that the dict oracle is faster).
    chunk_size:
        Batch size (expanded line touches) for the array engine's
        chunked replay.
    strategy:
        Array-engine in-chunk replay strategy (``"adaptive"``/``"wave"``/
        ``"scalar"``); all three are bit-identical, ``"adaptive"``
        picks per chunk on estimated throughput.
    auto_min_refs:
        Expanded-trace size at which ``engine="auto"`` picks the array
        engine (default
        :data:`~repro.cachesim.engine.AUTO_ARRAY_MIN_REFS`).
    """

    #: Replay runs in one in-process engine; kept for run reporters.
    shards = 1

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: str = "lru",
        seed: int = 0,
        track_residency: bool = False,
        engine: str = "auto",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        strategy: str = "adaptive",
        auto_min_refs: int = AUTO_ARRAY_MIN_REFS,
    ):
        if policy not in SetAssociativeCache.POLICIES:
            raise ValueError(
                f"policy must be one of {SetAssociativeCache.POLICIES}, "
                f"got {policy!r}"
            )
        # Engine construction may be deferred to the first run; fail
        # bad engine parameters at construction time regardless.
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {strategy!r}"
            )
        self.geometry = geometry
        self.policy = policy
        self._seed = seed
        self._chunk_size = chunk_size
        self._strategy = strategy
        self._auto_min_refs = int(auto_min_refs)
        resolved = check_engine(engine, policy)
        self._stats = CacheStats()
        #: The dict-based oracle; ``None`` under the array engine.
        self.cache: SetAssociativeCache | None = None
        self._array: ArrayLRUEngine | None = None
        if engine == "auto" and policy == "lru":
            # Deferred: the engine is routed by expanded-trace size at
            # the first run.
            self.engine = "auto"
        elif resolved == "array":
            self.engine = "array"
            self._array = ArrayLRUEngine(
                geometry, chunk_size=chunk_size, strategy=strategy
            )
        else:
            self.engine = "reference"
            self.cache = SetAssociativeCache(
                geometry, stats=self._stats, policy=policy, seed=seed
            )
        self.track_residency = track_residency
        #: Σ resident-lines x accesses per label (time measured in
        #: cache accesses); see :meth:`average_resident_lines`.
        self.residency_integral: dict[str, float] = {}
        self._resident_now: dict[str, int] = {}
        self._last_step: dict[str, int] = {}
        self._steps = 0

    @property
    def stats(self) -> CacheStats:
        """Accumulated per-label statistics."""
        return self._stats

    # -- residency accounting (cache-DVF extension) ---------------------
    def _settle(self, label: str) -> None:
        last = self._last_step.get(label, 0)
        if self._steps > last:
            self.residency_integral[label] = self.residency_integral.get(
                label, 0.0
            ) + self._resident_now.get(label, 0) * (self._steps - last)
        self._last_step[label] = self._steps

    def _residency_insert(self, label: str) -> None:
        self._settle(label)
        self._resident_now[label] = self._resident_now.get(label, 0) + 1

    def _residency_evict(self, label: str) -> None:
        self._settle(label)
        self._resident_now[label] = self._resident_now.get(label, 0) - 1

    def average_resident_lines(self, label: str) -> float:
        """Time-averaged cache lines held by ``label`` during the run.

        Time is measured in cache accesses (each access is one tick).
        Requires ``track_residency=True``.
        """
        if not self.track_residency:
            raise RuntimeError(
                "construct CacheSimulator(track_residency=True) to use "
                "residency accounting"
            )
        self._settle(label)
        if self._steps == 0:
            return 0.0
        return self.residency_integral.get(label, 0.0) / self._steps

    # -- introspection ---------------------------------------------------
    def resident_lines(self) -> int:
        """Number of lines currently resident in the cache."""
        if self._array is not None:
            return self._array.resident_lines()
        if self.cache is None:  # auto engine not yet resolved: cold
            return 0
        return self.cache.resident_lines()

    def resident_lines_for(self, label: str) -> int:
        """Number of resident lines owned by ``label``."""
        if self._array is not None:
            return self._array.resident_lines_for(label)
        if self.cache is None:
            return 0
        return self.cache.resident_lines_for(label)

    # -- trace replay ----------------------------------------------------
    def _resolve(self, trace: ReferenceTrace, streaming: bool = False) -> None:
        """Pin a deferred ``engine="auto"`` from the first trace's size.

        The array engine's batching overhead loses to the dict oracle
        below :data:`~repro.cachesim.engine.AUTO_ARRAY_MIN_REFS`
        expanded touches.  The expanded size comes from span arithmetic
        — nothing is materialised here.  The first run's size decides,
        and the choice then stays fixed for the simulator's lifetime
        (warm-cache multi-run callers keep one state).

        Under ``streaming`` the first *chunk*'s size says nothing about
        the stream's total, so ``engine="auto"`` picks the array engine
        (callers stream precisely because the trace is large).
        """
        if streaming or (
            expanded_size(trace, self.geometry.line_size)
            >= self._auto_min_refs
        ):
            self.engine = "array"
            self._array = ArrayLRUEngine(
                self.geometry,
                chunk_size=self._chunk_size,
                strategy=self._strategy,
            )
        else:
            self.engine = "reference"
            self.cache = SetAssociativeCache(
                self.geometry,
                stats=self._stats,
                policy=self.policy,
                seed=self._seed,
            )

    def run(self, trace) -> CacheStats:
        """Simulate a trace; returns the accumulated stats object.

        Accepts either a :class:`ReferenceTrace` or an *iterable of
        chunks* (anything yielding ``ReferenceTrace`` pieces, e.g.
        :func:`~repro.trace.reference.iter_chunks` or a recorder's
        :meth:`~repro.trace.recorder.TraceRecorder.finish_chunks`); the
        latter is routed through :meth:`run_stream` and is bit-identical
        to running the concatenated trace monolithically.
        """
        if not isinstance(trace, ReferenceTrace):
            return self.run_stream(trace)
        if self._array is None and self.cache is None:
            self._resolve(trace)
        return self._dispatch(trace)

    def run_chunk(self, chunk: ReferenceTrace) -> CacheStats:
        """Simulate one chunk of a stream (push-mode streaming entry).

        Identical to :meth:`run` except that deferred ``"auto"``
        choices resolve with streaming semantics (see :meth:`_resolve`):
        a small first chunk must not route a billion-reference stream
        onto the dict oracle.  Use this as the ``sink=`` of a streaming
        :class:`~repro.trace.recorder.TraceRecorder`.
        """
        if self._array is None and self.cache is None:
            self._resolve(chunk, streaming=True)
        return self._dispatch(chunk)

    def run_stream(self, chunks) -> CacheStats:
        """Simulate an iterable of trace chunks (pull-mode streaming).

        Peak memory is O(chunk), not O(trace): each chunk is expanded,
        replayed against the persistent warm engine state, and dropped.
        The result — counters, residency events and integrals, final
        cache state — is bit-identical to a monolithic :meth:`run` of
        the concatenated trace, because expansion is per-reference
        elementwise and the engines already replay in bounded batches
        with persistent state.
        """
        for chunk in chunks:
            self.run_chunk(chunk)
        return self._stats

    def _dispatch(self, trace: ReferenceTrace) -> CacheStats:
        """Route one resolved trace/chunk to the active engine."""
        line_ids, writes, label_ids = _expand_lines(
            trace, self.geometry.line_size
        )
        if self._array is not None:
            return self._run_array(trace, line_ids, writes, label_ids)
        if self.policy != "lru":
            # Non-LRU ablation policies go through the reference
            # cache's general access path (the LRU paths above and
            # below are policy-specific).
            access = self.cache.access_line
            labels = trace.labels
            for line_id, is_write, lid in zip(
                line_ids.tolist(), writes.tolist(), label_ids.tolist()
            ):
                access(line_id, is_write, labels[lid])
            return self._stats
        return self._run_reference(trace, line_ids, writes, label_ids)

    def _apply_events(self, events, name_of, end_clock: int) -> None:
        """Replay engine residency events into the integral accounting."""
        steps, kinds, event_labels = events
        evict = self._residency_evict
        insert = self._residency_insert
        for step, kind, lid in zip(
            steps.tolist(), kinds.tolist(), event_labels.tolist()
        ):
            self._steps = step
            if kind == EVENT_EVICT:
                evict(name_of(lid))
            else:
                insert(name_of(lid))
        self._steps = end_clock

    def _run_array(
        self,
        trace: ReferenceTrace,
        line_ids: np.ndarray,
        writes: np.ndarray,
        label_ids: np.ndarray,
    ) -> CacheStats:
        """Batched replay through :class:`ArrayLRUEngine`."""
        engine = self._array
        for name in trace.labels:
            self._stats.label(name)
        events = engine.replay(
            line_ids,
            writes,
            label_ids,
            trace.labels,
            self._stats,
            collect_events=self.track_residency,
        )
        if self.track_residency:
            self._apply_events(events, engine.label_name, engine.clock)
        return self._stats

    def _run_reference(
        self,
        trace: ReferenceTrace,
        line_ids: np.ndarray,
        writes: np.ndarray,
        label_ids: np.ndarray,
    ) -> CacheStats:
        """The oracle's sequential LRU walk (dict operations)."""
        geometry = self.geometry
        labels = trace.labels
        # Local-variable binding for the sequential walk.
        sets = self.cache._sets
        num_sets = geometry.num_sets
        ways = geometry.associativity
        stats = self._stats
        counters = [stats.label(name) for name in labels]
        wb_counts: dict[str, int] = {}
        line_ids_list = line_ids.tolist()
        writes_list = writes.tolist()
        label_ids_list = label_ids.tolist()
        tracking = self.track_residency
        for line_id, is_write, lid in zip(
            line_ids_list, writes_list, label_ids_list
        ):
            if tracking:
                self._steps += 1
            cache_set = sets[line_id % num_sets]
            tag = line_id // num_sets
            counter = counters[lid]
            line = cache_set.get(tag)
            if line is not None:
                counter.hits += 1
                cache_set.move_to_end(tag)
                if is_write:
                    line.dirty = True
                continue
            counter.misses += 1
            if len(cache_set) >= ways:
                _, victim = cache_set.popitem(last=False)
                if victim.dirty:
                    name = victim.label
                    wb_counts[name] = wb_counts.get(name, 0) + 1
                if tracking:
                    self._residency_evict(victim.label)
            cache_set[tag] = _Line(is_write, labels[lid])
            if tracking:
                self._residency_insert(labels[lid])
        for name, count in wb_counts.items():
            stats.label(name).writebacks += count
        return stats

    def flush(self) -> int:
        """Drain the cache, charging writebacks for dirty lines."""
        if self._array is not None:
            return self._array.flush(self._stats)
        if self.cache is None:  # auto engine not yet resolved: cold
            return 0
        return self.cache.flush()


def simulate_trace(
    trace,
    geometry: CacheGeometry,
    flush_at_end: bool = False,
    policy: str = "lru",
    engine: str = "auto",
    mode: str = "exact",
    estimate_options: dict | None = None,
):
    """One-shot convenience: simulate a trace on a cold cache.

    ``trace`` may be a :class:`ReferenceTrace` or a chunk iterator (see
    :meth:`CacheSimulator.run`).  ``mode="exact"`` (default) returns the
    replayed :class:`~repro.cachesim.stats.CacheStats`;
    ``mode="estimate"`` instead runs the cluster-sampling estimator
    (:func:`~repro.cachesim.estimate.estimate_trace`, LRU only) and
    returns an :class:`~repro.cachesim.estimate.EstimateResult` with
    per-label confidence half-widths — ``estimate_options`` passes
    keyword arguments (``sample_fraction``, ``groups``, ``confidence``,
    ``seed``) through to it.
    """
    if mode not in ("exact", "estimate"):
        raise ValueError(
            f"mode must be 'exact' or 'estimate', got {mode!r}"
        )
    if mode == "estimate":
        # Late import: repro.cachesim.estimate imports from this module's
        # siblings, keeping the exact path free of scipy.
        from repro.cachesim.estimate import estimate_trace

        if policy != "lru":
            raise CacheEngineError(
                f"estimator mode rides on the array engine and supports "
                f"the LRU policy only, got policy={policy!r}"
            )
        if engine == "reference":
            raise CacheEngineError(
                "estimator mode requires the array engine; drop "
                "engine='reference' or use mode='exact'"
            )
        return estimate_trace(
            trace,
            geometry,
            flush_at_end=flush_at_end,
            **(estimate_options or {}),
        )
    if estimate_options is not None:
        raise ValueError("estimate_options only applies to mode='estimate'")
    sim = CacheSimulator(geometry, policy=policy, engine=engine)
    sim.run(trace)
    if flush_at_end:
        sim.flush()
    return sim.stats
