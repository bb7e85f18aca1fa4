"""Drive a memory-reference trace through the cache simulator.

Two engines sit behind :class:`CacheSimulator`:

* ``"array"`` — the batched numpy engine
  (:class:`~repro.cachesim.engine.ArrayLRUEngine`): each batch is
  expanded into flat numpy columns of per-line touches (vectorised),
  collapsed, and replayed in per-set waves of whole-array operations.
  LRU only; bit-identical to the oracle.
* ``"reference"`` — the dict-based
  :class:`~repro.cachesim.cache.SetAssociativeCache` oracle: a
  sequential walk doing plain dict operations, roughly a microsecond
  per reference.  Supports every replacement policy and remains the
  ground truth the array engine is differentially tested against
  (``tests/cachesim/test_engine_differential.py``).

The engine is fixed at construction: the default ``engine="auto"``
picks the array engine for LRU and the reference cache's general access
path for the FIFO/random ablation policies; requesting
``engine="array"`` for a non-LRU policy raises
:class:`~repro.cachesim.engine.CacheEngineError` instead of silently
degrading.  There is one replay path, :meth:`CacheSimulator.run`: a
trace or a chunk stream is cut into batches of
:data:`~repro.cachesim.expand.REPLAY_CHUNK_REFS` references by
:func:`~repro.cachesim.expand.iter_expanded` and each batch is replayed
against the persistent engine state.  ``benchmarks/harness.py`` records
the measured speedup per kernel in ``BENCH_cachesim.json``.
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.cache import SetAssociativeCache, _Line
from repro.cachesim.configs import CacheGeometry
from repro.cachesim.engine import (
    EVENT_EVICT,
    ArrayLRUEngine,
    CacheEngineError,
    check_engine,
)
from repro.cachesim.expand import iter_expanded
from repro.cachesim.stats import CacheStats


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
        extension (LRU only).
    engine:
        ``"auto"`` (default), ``"array"`` or ``"reference"`` — see the
        module docstring.  Both engines produce bit-identical
        statistics for LRU.
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
    ):
        if policy not in SetAssociativeCache.POLICIES:
            raise ValueError(
                f"policy must be one of {SetAssociativeCache.POLICIES}, "
                f"got {policy!r}"
            )
        self.engine = check_engine(engine, policy)
        if track_residency and policy != "lru":
            # The general access path keeps no residency integrals; it
            # would silently report zero resident lines.
            raise ValueError(
                f"track_residency=True requires policy='lru', "
                f"got policy={policy!r}"
            )
        self.geometry = geometry
        self.policy = policy
        self._stats = CacheStats()
        #: The dict-based oracle; ``None`` under the array engine.
        self.cache: SetAssociativeCache | None = None
        self._array: ArrayLRUEngine | None = None
        if self.engine == "array":
            self._array = ArrayLRUEngine(geometry)
        else:
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
        return self.cache.resident_lines()

    def resident_lines_for(self, label: str) -> int:
        """Number of resident lines owned by ``label``."""
        if self._array is not None:
            return self._array.resident_lines_for(label)
        return self.cache.resident_lines_for(label)

    # -- trace replay ----------------------------------------------------
    def run(self, trace) -> CacheStats:
        """Simulate a trace; returns the accumulated stats object.

        Accepts a :class:`~repro.trace.reference.ReferenceTrace` or an
        *iterable of chunks* (e.g.
        :func:`~repro.trace.reference.iter_chunks` or a recorder's
        :meth:`~repro.trace.recorder.TraceRecorder.finish_chunks`), and
        is itself a valid push ``sink=`` of a streaming
        :class:`~repro.trace.recorder.TraceRecorder`.  Either way the
        input is replayed in bounded batches
        (:func:`~repro.cachesim.expand.iter_expanded`), so peak memory
        is O(batch), and the result — counters, residency events and
        integrals, final cache state — does not depend on how the
        references were chunked.
        """
        if self._array is not None:
            replay = self._run_array
        elif self.policy == "lru":
            replay = self._run_reference
        else:
            replay = self._run_policy
        for batch, line_ids, writes, label_ids in iter_expanded(
            trace, self.geometry.line_size
        ):
            replay(batch.labels, line_ids, writes, label_ids)
        return self._stats

    def _run_policy(self, labels, line_ids, writes, label_ids) -> None:
        """Non-LRU ablation policies: the reference cache's general
        access path (the LRU walks below are policy-specific)."""
        access = self.cache.access_line
        for line_id, is_write, lid in zip(
            line_ids.tolist(), writes.tolist(), label_ids.tolist()
        ):
            access(line_id, is_write, labels[lid])

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
        labels: list[str],
        line_ids: np.ndarray,
        writes: np.ndarray,
        label_ids: np.ndarray,
    ) -> None:
        """Batched replay through :class:`ArrayLRUEngine`."""
        engine = self._array
        for name in labels:
            self._stats.label(name)
        events = engine.replay(
            line_ids,
            writes,
            label_ids,
            labels,
            self._stats,
            collect_events=self.track_residency,
        )
        if self.track_residency:
            self._apply_events(events, engine.label_name, engine.clock)

    def _run_reference(
        self,
        labels: list[str],
        line_ids: np.ndarray,
        writes: np.ndarray,
        label_ids: np.ndarray,
    ) -> None:
        """The oracle's sequential LRU walk (dict operations)."""
        geometry = self.geometry
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

    def flush(self) -> int:
        """Drain the cache, charging writebacks for dirty lines."""
        if self._array is not None:
            return self._array.flush(self._stats)
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
        # siblings, and the exact path never loads the estimator.
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
