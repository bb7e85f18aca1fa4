"""Differential tests: array engine vs the dict-based oracle.

The batched :class:`~repro.cachesim.engine.ArrayLRUEngine` must be
bit-identical to :class:`~repro.cachesim.cache.SetAssociativeCache` —
not approximately equal: per-label hits, misses, writebacks, eviction
counts, residency integrals, and post-flush state all match exactly on
seeded randomized traces.  The full geometry x chunking x kernel matrix
lives in ``test_stream_replay.py``; this module holds the focused
cases (random chunk sizes per trial, warm state across runs, the
replay batch size itself, long same-line runs) and the engine switch.
"""

import numpy as np
import pytest

from repro.cachesim import engine as engine_module
from repro.cachesim import expand as expand_module
from repro.cachesim import (
    CacheEngineError,
    CacheGeometry,
    CacheSimulator,
    check_engine,
    simulate_trace,
)
from repro.trace.reference import ReferenceTrace, iter_chunks

#: Geometry grid from the issue: ways 1/2/4/8, line sizes 32/64/128.
GEOMETRIES = [
    CacheGeometry(1, 16, 32),
    CacheGeometry(2, 64, 64),
    CacheGeometry(4, 64, 32),
    CacheGeometry(8, 32, 128),
    # Degenerate shapes the batching must not mishandle:
    CacheGeometry(4, 1, 64),  # single set — every access conflicts
    CacheGeometry(3, 8, 32),  # non-power-of-two ways
    CacheGeometry(2, 24, 64),  # non-power-of-two sets (%// path)
]


def random_trace(rng, n, n_labels=3, addr_space=1 << 15, max_size=192):
    """Mixed read/write multi-label trace with line-straddling accesses."""
    labels = [f"ds{i}" for i in range(n_labels)]
    return ReferenceTrace(
        addresses=rng.integers(0, addr_space, size=n).astype(np.int64),
        sizes=rng.integers(1, max_size + 1, size=n).astype(np.int64),
        is_write=rng.random(n) < 0.4,
        label_ids=rng.integers(0, n_labels, size=n).astype(np.int32),
        labels=labels,
    )


def assert_identical(array_sim, ref_sim, labels):
    """Exact agreement on every observable the oracle exposes."""
    assert array_sim.stats.as_dict() == ref_sim.stats.as_dict()
    assert array_sim.resident_lines() == ref_sim.resident_lines()
    for label in labels:
        a_resident = array_sim.resident_lines_for(label)
        assert a_resident == ref_sim.resident_lines_for(label)
        # Evictions aren't a first-class counter; misses - resident is
        # exactly the number of this label's lines evicted so far.
        a_evicted = array_sim.stats.misses(label) - a_resident
        r_evicted = ref_sim.stats.misses(label) - ref_sim.resident_lines_for(
            label
        )
        assert a_evicted == r_evicted
        # Residency integrals must match to the last bit (== on floats).
        assert array_sim.average_resident_lines(
            label
        ) == ref_sim.average_resident_lines(label)


#: Batch kernels: the wave-vs-scalar choice is automatic on
#: ``ADAPTIVE_WAVE_CUTOFF``; tests force either side through it.
KERNELS = ["wave", "scalar", "adaptive"]


def force_kernel(monkeypatch, kernel):
    """Pin the batch kernel: a cutoff of 0 always picks waves, 10**12
    always the scalar walk; ``adaptive`` keeps the shipped cutoff."""
    cutoff = {"wave": 0, "scalar": 10**12}.get(kernel)
    if cutoff is not None:
        monkeypatch.setattr(engine_module, "ADAPTIVE_WAVE_CUTOFF", cutoff)


class TestDifferentialRandomized:
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_randomized_traces_match_oracle(
        self, monkeypatch, geometry, kernel
    ):
        force_kernel(monkeypatch, kernel)
        rng = np.random.default_rng(
            (
                geometry.associativity,
                geometry.num_sets,
                geometry.line_size,
                KERNELS.index(kernel),
            )
        )
        for trial in range(4):
            trace = random_trace(rng, n=int(rng.integers(1, 1500)))
            # A random chunk size per trial, on top of the fixed
            # chunkings of the matrix in test_stream_replay.py.
            chunk = int(rng.integers(1, 600))
            array_sim = CacheSimulator(
                geometry, track_residency=True, engine="array"
            )
            ref_sim = CacheSimulator(
                geometry, track_residency=True, engine="reference"
            )
            array_sim.run(iter_chunks(trace, chunk))
            ref_sim.run(trace)
            assert_identical(array_sim, ref_sim, trace.labels)
            # Flush writes back exactly the same dirty lines.
            assert array_sim.flush() == ref_sim.flush()
            assert array_sim.stats.as_dict() == ref_sim.stats.as_dict()

    def test_warm_cache_across_runs_matches_oracle(self):
        rng = np.random.default_rng(11)
        geometry = CacheGeometry(4, 64, 32)
        array_sim = CacheSimulator(
            geometry, track_residency=True, engine="array"
        )
        ref_sim = CacheSimulator(
            geometry, track_residency=True, engine="reference"
        )
        labels = set()
        for _ in range(4):
            trace = random_trace(rng, n=int(rng.integers(50, 800)))
            labels.update(trace.labels)
            array_sim.run(trace)
            ref_sim.run(trace)
            assert_identical(array_sim, ref_sim, sorted(labels))

    def test_single_access_chunks_match(self):
        # One-reference chunks degenerate to fully sequential replay;
        # every run straddles a chunk boundary.
        rng = np.random.default_rng(5)
        geometry = CacheGeometry(2, 8, 32)
        trace = random_trace(rng, n=300, addr_space=1 << 10)
        array_sim = CacheSimulator(
            geometry, track_residency=True, engine="array"
        )
        ref_sim = CacheSimulator(
            geometry, track_residency=True, engine="reference"
        )
        array_sim.run(iter_chunks(trace, 1))
        ref_sim.run(trace)
        assert_identical(array_sim, ref_sim, trace.labels)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("batch_refs", [1, 3])
    def test_replay_batch_size_matches_oracle(
        self, monkeypatch, batch_refs, kernel
    ):
        # run(trace) batches internally; shrinking the batch must not
        # change a single counter or residency integral.  The oracle
        # replays first, in one default-sized batch, so it does not
        # share the patched batching.
        force_kernel(monkeypatch, kernel)
        rng = np.random.default_rng(batch_refs)
        for geometry in (CacheGeometry(4, 16, 32), CacheGeometry(3, 8, 64)):
            trace = random_trace(rng, n=400, addr_space=1 << 12)
            ref_sim = CacheSimulator(
                geometry, track_residency=True, engine="reference"
            )
            ref_sim.run(trace)
            array_sim = CacheSimulator(
                geometry, track_residency=True, engine="array"
            )
            with monkeypatch.context() as patch:
                patch.setattr(expand_module, "REPLAY_CHUNK_REFS", batch_refs)
                array_sim.run(trace)
            assert_identical(array_sim, ref_sim, trace.labels)
            assert array_sim.flush() == ref_sim.flush()
            assert array_sim.stats.as_dict() == ref_sim.stats.as_dict()

    def test_repeated_same_line_hits_fast_path(self, monkeypatch):
        # Long same-line runs exercise the run-collapse path.
        geometry = CacheGeometry(4, 16, 64)
        n = 500
        trace = ReferenceTrace(
            addresses=np.repeat(np.arange(n // 10, dtype=np.int64) * 64, 10),
            sizes=np.full(n, 8, dtype=np.int64),
            is_write=np.arange(n) % 3 == 0,
            label_ids=np.zeros(n, dtype=np.int32),
            labels=["A"],
        )
        for kernel in ("wave", "scalar"):
            force_kernel(monkeypatch, kernel)
            array_sim = CacheSimulator(
                geometry, track_residency=True, engine="array"
            )
            ref_sim = CacheSimulator(
                geometry, track_residency=True, engine="reference"
            )
            array_sim.run(trace)
            ref_sim.run(trace)
            assert_identical(array_sim, ref_sim, trace.labels)


class TestEngineSwitch:
    def test_auto_lru_is_array_at_construction(self):
        # The engine is fixed when the simulator is built; a trace of
        # any size, even 50 references, replays on the array engine.
        sim = CacheSimulator(CacheGeometry(4, 64, 32))
        assert sim.engine == "array"
        assert sim.cache is None
        assert sim.resident_lines() == 0
        assert sim.flush() == 0
        sim.run(random_trace(np.random.default_rng(13), n=50))
        assert sim.engine == "array"

    def test_simulate_trace_auto_matches_array(self):
        trace = random_trace(np.random.default_rng(23), n=600)
        auto = simulate_trace(trace, CacheGeometry(4, 64, 32))
        pinned = simulate_trace(trace, CacheGeometry(4, 64, 32), engine="array")
        assert auto.as_dict() == pinned.as_dict()

    @pytest.mark.parametrize("policy", ["fifo", "random"])
    def test_residency_tracking_rejected_for_non_lru(self, policy):
        # The general access path keeps no residency integrals, so the
        # combination would read zero resident lines; it is refused.
        with pytest.raises(ValueError, match="track_residency.*policy"):
            CacheSimulator(
                CacheGeometry(4, 64, 32), policy=policy, track_residency=True
            )

    @pytest.mark.parametrize("policy", ["fifo", "random"])
    def test_auto_routes_non_lru_to_reference(self, policy):
        sim = CacheSimulator(CacheGeometry(4, 64, 32), policy=policy)
        assert sim.engine == "reference"
        assert sim.cache is not None

    @pytest.mark.parametrize("policy", ["fifo", "random"])
    def test_explicit_array_with_non_lru_raises(self, policy):
        with pytest.raises(CacheEngineError, match="LRU"):
            CacheSimulator(
                CacheGeometry(4, 64, 32), policy=policy, engine="array"
            )

    def test_unknown_engine_rejected(self):
        with pytest.raises(CacheEngineError, match="engine"):
            CacheSimulator(CacheGeometry(4, 64, 32), engine="gpu")

    def test_unknown_policy_still_rejected_first(self):
        with pytest.raises(ValueError, match="policy"):
            CacheSimulator(CacheGeometry(4, 64, 32), policy="mru")

    def test_reference_supports_all_policies(self):
        for policy in ("lru", "fifo", "random"):
            sim = CacheSimulator(
                CacheGeometry(4, 64, 32), policy=policy, engine="reference"
            )
            assert sim.engine == "reference"

    def test_check_engine_resolution(self):
        assert check_engine("auto", "lru") == "array"
        assert check_engine("auto", "fifo") == "reference"
        assert check_engine("reference", "lru") == "reference"
        assert check_engine("array", "lru") == "array"

    def test_reference_engine_lru_matches_array(self):
        # The explicit reference engine still uses the tuned LRU walk;
        # spot-check it against the array engine.
        rng = np.random.default_rng(3)
        trace = random_trace(rng, n=400)
        geometry = CacheGeometry(4, 64, 32)
        a = CacheSimulator(geometry, engine="array")
        r = CacheSimulator(geometry, engine="reference")
        a.run(trace)
        r.run(trace)
        assert a.stats.as_dict() == r.stats.as_dict()
