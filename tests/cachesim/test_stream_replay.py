"""Bit-identity matrix: chunked replay vs the oracle's whole-trace run.

Exact replay has one path (:meth:`CacheSimulator.run`), fed either a
whole trace or a chunk stream.  Whatever the chunking, the array engine
must be **bit-identical** to the dict oracle replaying the whole trace
in one call — on per-label hits/misses/writebacks, resident lines,
residency integrals (float ``==``), flush writebacks, and final cache
state — across geometries x chunkings (single references, small
primes, the whole trace, cuts at line-straddling references) x batch
kernels (forced wave, forced scalar, adaptive).  The recorder's pull-
and push-mode streaming must reproduce ``finish()`` exactly, and
incremental expansion must be a chunking-invariant (hypothesis
property).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim import CacheGeometry, CacheSimulator, simulate_trace
from repro.cachesim.expand import _expand_lines
from repro.trace.recorder import TraceRecorder
from repro.trace.reference import ReferenceTrace, iter_chunks

from test_engine_differential import (
    GEOMETRIES,
    KERNELS,
    assert_identical,
    force_kernel,
    random_trace,
)

#: Chunk sizes of the matrix; traces hold at most 1200 references, so
#: 4096 is one chunk holding the whole trace.
CHUNK_SIZES = [1, 3, 97, 4096]


def chunked(trace, chunking, line_size):
    """The trace as the replay input named by ``chunking``."""
    if chunking == "whole":
        return trace
    if chunking == "straddle":
        # Cut right before every reference that spans two or more
        # lines, so straddles sit at chunk boundaries.
        first = trace.addresses // line_size
        last = (trace.addresses + trace.sizes - 1) // line_size
        cuts = np.flatnonzero(last > first).tolist()
        bounds = sorted({0, *cuts, len(trace)})
        return (
            trace.slice_refs(lo, hi) for lo, hi in zip(bounds, bounds[1:])
        )
    return iter_chunks(trace, chunking)


def streamed_pair(geometry, **kwargs):
    mono = CacheSimulator(geometry, track_residency=True, **kwargs)
    streamed = CacheSimulator(geometry, track_residency=True, **kwargs)
    return mono, streamed


class TestStreamedBitIdentity:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    @pytest.mark.parametrize(
        "chunking", CHUNK_SIZES + ["whole", "straddle"]
    )
    def test_chunked_matches_monolithic(
        self, monkeypatch, chunking, geometry, kernel
    ):
        force_kernel(monkeypatch, kernel)
        rng = np.random.default_rng(
            abs(hash((geometry.num_sets, geometry.line_size, chunking, kernel)))
            % (1 << 32)
        )
        for _ in range(2):
            trace = random_trace(rng, n=int(rng.integers(50, 1200)))
            streamed = CacheSimulator(
                geometry, track_residency=True, engine="array"
            )
            oracle = CacheSimulator(
                geometry, track_residency=True, engine="reference"
            )
            streamed.run(chunked(trace, chunking, geometry.line_size))
            oracle.run(trace)
            assert_identical(streamed, oracle, trace.labels)
            # Flush writes back exactly the same dirty lines.
            assert streamed.flush() == oracle.flush()
            assert streamed.stats.as_dict() == oracle.stats.as_dict()

    def test_run_accepts_chunk_iterator(self):
        geometry = CacheGeometry(4, 64, 32)
        trace = random_trace(np.random.default_rng(3), n=700)
        mono, streamed = streamed_pair(geometry)
        mono.run(trace)
        streamed.run(iter_chunks(trace, 53))
        assert_identical(streamed, mono, trace.labels)

    def test_simulate_trace_accepts_chunk_iterator(self):
        geometry = CacheGeometry(2, 24, 64)
        trace = random_trace(np.random.default_rng(5), n=600)
        mono = simulate_trace(trace, geometry, flush_at_end=True)
        streamed = simulate_trace(
            iter_chunks(trace, 41), geometry, flush_at_end=True
        )
        assert mono.as_dict() == streamed.as_dict()

    def test_chunk_splitting_a_straddling_reference(self):
        # A reference spanning several lines right at a chunk boundary:
        # its expansion must stay whole inside its own chunk.
        geometry = CacheGeometry(4, 16, 32)
        n = 64
        trace = ReferenceTrace(
            addresses=np.arange(n, dtype=np.int64) * 48,
            sizes=np.full(n, 100, dtype=np.int64),  # every ref straddles
            is_write=np.arange(n) % 2 == 0,
            label_ids=np.zeros(n, dtype=np.int32),
            labels=["x"],
        )
        mono, streamed = streamed_pair(geometry, engine="array")
        mono.run(trace)
        streamed.run(iter_chunks(trace, 1))
        assert_identical(streamed, mono, trace.labels)

    def test_reference_engine_streams_too(self):
        geometry = CacheGeometry(4, 16, 32)
        trace = random_trace(np.random.default_rng(11), n=400)
        mono, streamed = streamed_pair(geometry, engine="reference")
        mono.run(trace)
        streamed.run(iter_chunks(trace, 37))
        assert_identical(streamed, mono, trace.labels)

    def test_label_table_growing_across_chunks(self):
        # Streamed label tables grow as a prefix; engines intern by
        # name, so per-label counters must line up with the whole-trace
        # run even when early chunks lack later labels.
        geometry = CacheGeometry(4, 16, 32)
        rng = np.random.default_rng(19)
        indices = {
            label: rng.integers(0, 64, size=100) for label in "ABC"
        }
        rec_a, rec_b = TraceRecorder(), TraceRecorder()
        for rec in (rec_a, rec_b):
            for label in ("A", "B", "C"):
                rec.allocate(label, num_elements=64, element_size=8)
            for label in ("A", "B", "C"):  # labels appear one at a time
                rec.record_elements(label, indices[label], is_write=False)
        mono, streamed = streamed_pair(geometry, engine="array")
        mono.run(rec_a.finish())
        streamed.run(rec_b.finish_chunks(70))
        assert_identical(streamed, mono, ["A", "B", "C"])

    def test_streaming_auto_resolves_to_array(self):
        # A chunk stream under engine="auto" replays on the array
        # engine, however small its first chunk.
        geometry = CacheGeometry(4, 16, 32)
        trace = random_trace(np.random.default_rng(31), n=200)
        sim = CacheSimulator(geometry, engine="auto")
        sim.run(iter_chunks(trace, 5))
        assert sim.engine == "array"
        mono = CacheSimulator(geometry, engine="array")
        mono.run(trace)
        assert sim.stats.as_dict() == mono.stats.as_dict()


class TestIterChunks:
    def test_covers_trace_exactly(self):
        trace = random_trace(np.random.default_rng(1), n=250)
        chunks = list(iter_chunks(trace, 64))
        assert [len(c) for c in chunks] == [64, 64, 64, 58]
        np.testing.assert_array_equal(
            np.concatenate([c.addresses for c in chunks]), trace.addresses
        )
        np.testing.assert_array_equal(
            np.concatenate([c.label_ids for c in chunks]), trace.label_ids
        )
        for chunk in chunks:
            assert chunk.labels == trace.labels

    def test_chunk_refs_below_one_rejected(self):
        trace = random_trace(np.random.default_rng(1), n=10)
        with pytest.raises(ValueError, match="chunk_refs"):
            next(iter_chunks(trace, 0))


class TestIncrementalExpansion:
    """Expansion is per-reference elementwise: chunking is invisible."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        line_size=st.sampled_from([32, 64, 128]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_chunked_expansion_concatenates(self, data, line_size, seed):
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(1, 300))
        trace = random_trace(rng, n=n)
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, n), max_size=6, unique=True)
            )
        )
        bounds = [0] + cuts + [n]
        full = _expand_lines(trace, line_size)
        parts = [
            _expand_lines(trace.slice_refs(lo, hi), line_size)
            for lo, hi in zip(bounds, bounds[1:])
            if hi > lo
        ]
        for col in range(3):
            np.testing.assert_array_equal(
                np.concatenate([p[col] for p in parts]), full[col]
            )
