"""Tests for the template pattern, sweeps and reuse-distance engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim import CacheGeometry, SetAssociativeCache, simulate_trace
from repro.cachesim import expand as expand_module
from repro.patterns import (
    PatternError,
    SweepTemplate,
    TemplateAccess,
    expand_sweep,
    stack_distances,
)
from repro.patterns.distance import (
    misses_for_cache_blocks,
    positional_distances,
    set_associative_lru_misses,
)
from repro.trace import TraceRecorder

SMALL = CacheGeometry(4, 64, 32, "small")


class TestStackDistances:
    def test_cold_references(self):
        assert list(stack_distances([1, 2, 3])) == [-1, -1, -1]

    def test_immediate_reuse_distance_zero(self):
        assert list(stack_distances([1, 1])) == [-1, 0]

    def test_classic_sequence(self):
        # a b c b a: b reused over {c} -> 1; a reused over {b, c} -> 2.
        assert list(stack_distances([0, 1, 2, 1, 0])) == [-1, -1, -1, 1, 2]

    def test_distinct_not_positional(self):
        # a b b b a: distance counts distinct blocks ({b}) not positions.
        assert list(stack_distances([0, 1, 1, 1, 0]))[-1] == 1

    def test_positional_variant(self):
        assert list(positional_distances([0, 1, 1, 1, 0]))[-1] == 3

    def test_misses_for_cache_blocks_thresholds(self):
        d = stack_distances([0, 1, 2, 0])  # last reuse at distance 2
        assert misses_for_cache_blocks(d, 3) == 3  # reuse hits
        assert misses_for_cache_blocks(d, 2) == 4  # reuse misses

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_fully_associative_lru_simulation(self, blocks):
        """Stack-distance misses == a real fully-associative LRU cache."""
        capacity = 8
        d = stack_distances(blocks)
        predicted = misses_for_cache_blocks(d, capacity)
        # Reference: simulate an 8-way single-set LRU cache on the blocks.
        from repro.cachesim.cache import SetAssociativeCache

        cache = SetAssociativeCache(CacheGeometry(capacity, 1, 32))
        misses = sum(
            0 if cache.access_line(b, False, "A") else 1 for b in blocks
        )
        assert predicted == misses

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_cold_count_equals_distinct_blocks(self, blocks):
        d = stack_distances(blocks)
        assert int(np.count_nonzero(d < 0)) == len(set(blocks))


def _oracle_misses(blocks, num_sets, ways):
    """Misses of the dict-based oracle cache over a block sequence."""
    cache = SetAssociativeCache(CacheGeometry(ways, num_sets, 32))
    return sum(0 if cache.access_line(b, False, "A") else 1 for b in blocks)


class TestSetAssociativeWalk:
    """The engine-backed template walk equals the dict oracle exactly."""

    @given(
        st.lists(st.integers(0, 200), max_size=400),
        st.integers(1, 12),
        st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, blocks, num_sets, ways):
        # num_sets 1..12 covers powers of two (mask) and the % path.
        assert set_associative_lru_misses(
            np.asarray(blocks, dtype=np.int64), num_sets, ways
        ) == _oracle_misses(blocks, num_sets, ways)

    @pytest.mark.parametrize("batch_refs", [1, 3])
    @pytest.mark.parametrize("num_sets,ways", [(4, 2), (6, 3), (1, 8), (7, 1)])
    def test_batch_edges(self, monkeypatch, batch_refs, num_sets, ways):
        rng = np.random.default_rng([batch_refs, num_sets, ways])
        blocks = rng.integers(0, 64, 300)
        expected = _oracle_misses(blocks.tolist(), num_sets, ways)
        monkeypatch.setattr(expand_module, "REPLAY_CHUNK_REFS", batch_refs)
        assert set_associative_lru_misses(blocks, num_sets, ways) == expected

    def test_accepts_lists_and_empty_input(self):
        assert set_associative_lru_misses([0, 4, 0, 8, 0], 4, 2) == 3
        assert set_associative_lru_misses([], 4, 2) == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            set_associative_lru_misses([0, 1], 0, 2)
        with pytest.raises(ValueError):
            set_associative_lru_misses([0, 1], 4, 0)
        with pytest.raises(ValueError):
            set_associative_lru_misses([0, -1], 4, 2)


class TestSweepTemplate:
    def test_paper_mg_shape(self):
        """Four references advanced by 1 until the boundary."""
        sweep = SweepTemplate(start=(10, 12, 14, 11), step=1, end=(20, 22, 24, 21))
        assert sweep.iterations == 11
        expanded = expand_sweep(sweep)
        assert len(expanded) == 44
        assert list(expanded[:4]) == [10, 12, 14, 11]
        assert list(expanded[-4:]) == [20, 22, 24, 21]

    def test_single_iteration_sweep(self):
        sweep = SweepTemplate(start=(5,), step=3, end=(5,))
        assert sweep.iterations == 1
        assert list(expand_sweep(sweep)) == [5]

    def test_mismatched_spans_rejected(self):
        with pytest.raises(PatternError, match="same span"):
            SweepTemplate(start=(0, 1), step=1, end=(10, 12))

    def test_non_multiple_span_rejected(self):
        with pytest.raises(PatternError):
            SweepTemplate(start=(0,), step=2, end=(5,))

    def test_negative_span_rejected(self):
        with pytest.raises(PatternError):
            SweepTemplate(start=(10,), step=1, end=(5,))

    def test_zero_step_rejected(self):
        with pytest.raises(PatternError):
            SweepTemplate(start=(0,), step=0, end=(0,))

    def test_group_size_mismatch_rejected(self):
        with pytest.raises(PatternError):
            SweepTemplate(start=(0, 1), step=1, end=(10,))


class TestTemplateAccess:
    def test_explicit_indices_cold_only(self):
        # 4 elements of 16 B on 32 B lines -> 2 blocks, close together.
        pattern = TemplateAccess(16, [0, 1, 2, 3, 0, 1])
        assert pattern.estimate_accesses(SMALL) == 2

    def test_far_reuse_misses(self):
        # Tiny fully-assoc-equivalent: references separated by more
        # distinct blocks than the cache holds must miss again.
        tiny = CacheGeometry(2, 2, 32)  # 4 blocks total
        # 16-byte elements: block = index // 2.
        indices = [0, 2, 4, 6, 8, 10, 0]  # 6 distinct blocks, then reuse
        pattern = TemplateAccess(16, indices)
        assert pattern.estimate_accesses(tiny) == 7  # reuse misses too

    def test_num_elements_validation(self):
        with pytest.raises(PatternError, match="smaller than largest"):
            TemplateAccess(16, [0, 100], num_elements=50)

    def test_empty_template_rejected(self):
        with pytest.raises(PatternError):
            TemplateAccess(16, [])

    def test_negative_index_rejected(self):
        with pytest.raises(PatternError):
            TemplateAccess(16, [-1, 0])

    def test_repeats_resident_structure_no_extra(self):
        pattern1 = TemplateAccess(16, list(range(20)), repeats=1)
        pattern3 = TemplateAccess(16, list(range(20)), repeats=3)
        assert pattern1.estimate_accesses(SMALL) == pattern3.estimate_accesses(
            SMALL
        )

    def test_repeats_thrashing_structure_reloads(self):
        # 600 elements * 16 B = 9600 B > 8 KB cache: the second sweep
        # reloads the lines in over-full sets (300 blocks over 64 sets:
        # 44 sets hold 5 > CA=4 ways -> 220 thrashing blocks) — matching
        # the set-associative simulator exactly.
        indices = list(range(600))
        pattern1 = TemplateAccess(16, indices, repeats=1)
        pattern2 = TemplateAccess(16, indices, repeats=2)
        one = pattern1.estimate_accesses(SMALL)
        two = pattern2.estimate_accesses(SMALL)
        assert one == 300
        assert two == 300 + 220
        # Cross-check against the cache simulator.
        rec = TraceRecorder()
        rec.allocate("R", 600, 16)
        rec.record_elements("R", np.asarray(indices * 2), False)
        simulated = simulate_trace(rec.finish(), SMALL).misses("R")
        assert two == simulated

    def test_mixed_template_parts(self):
        sweep = SweepTemplate(start=(0,), step=1, end=(9,))
        pattern = TemplateAccess(16, [100, sweep, 200])
        assert len(pattern.element_indices) == 12

    def test_large_element_spans_blocks(self):
        # 64-byte elements on 32-byte lines: 2 blocks per element.
        pattern = TemplateAccess(64, [0, 1])
        blocks = pattern.block_template(SMALL)
        assert list(blocks) == [0, 1, 2, 3]

    @pytest.mark.parametrize("line_size", [32, 64])
    @pytest.mark.parametrize("element_size", [1, 8, 16, 24, 48, 64, 100, 200])
    def test_block_template_matches_per_element_walk(
        self, element_size, line_size
    ):
        rng = np.random.default_rng([element_size, line_size])
        indices = np.concatenate(
            [np.arange(40), rng.integers(0, 500, 200), [499, 0, 0]]
        )
        pattern = TemplateAccess(element_size, indices)
        geometry = CacheGeometry(4, 64, line_size)
        expected = [
            line
            for start in (indices * element_size).tolist()
            for line in range(
                start // line_size, (start + element_size - 1) // line_size + 1
            )
        ]
        blocks = pattern.block_template(geometry)
        assert blocks.dtype == np.int64
        assert blocks.tolist() == expected

    def test_bad_distance_mode_rejected(self):
        with pytest.raises(PatternError):
            TemplateAccess(16, [0], distance="euclidean")

    def test_positional_mode_more_conservative(self):
        # Positional distance >= stack distance, so misses >= too.
        indices = list(range(300)) + list(range(300))
        stack = TemplateAccess(16, indices, distance="stack")
        positional = TemplateAccess(16, indices, distance="positional")
        assert positional.estimate_accesses(SMALL) >= stack.estimate_accesses(
            SMALL
        )


class TestAgainstSimulator:
    def _simulate(self, pattern, geometry):
        rec = TraceRecorder()
        rec.allocate("R", pattern.num_elements, pattern.element_size)
        rec.record_elements("R", pattern.element_indices, False)
        return simulate_trace(rec.finish(), geometry).label("R").misses

    @pytest.mark.parametrize(
        "indices",
        [
            list(range(100)),
            list(range(100)) * 3,
            [0, 50, 99, 0, 50, 99],
            list(range(0, 400, 2)) + list(range(1, 400, 2)),
        ],
        ids=["sweep", "repeated-sweep", "pingpong", "even-odd"],
    )
    def test_template_estimate_close_to_simulator(self, indices):
        pattern = TemplateAccess(16, indices, num_elements=512)
        estimated = pattern.estimate_accesses(SMALL)
        simulated = self._simulate(pattern, SMALL)
        # Stack distance is exact for fully-associative LRU; the real
        # cache is 4-way set-associative, so allow the paper's 15%.
        assert abs(estimated - simulated) <= max(2.0, 0.15 * simulated)

    def test_stencil_sweep_vs_simulator(self):
        sweep = SweepTemplate(start=(0, 2, 33, 66), step=1, end=(400, 402, 433, 466))
        pattern = TemplateAccess(16, sweep, num_elements=1024)
        estimated = pattern.estimate_accesses(SMALL)
        simulated = self._simulate(pattern, SMALL)
        assert abs(estimated - simulated) <= max(2.0, 0.15 * simulated)
