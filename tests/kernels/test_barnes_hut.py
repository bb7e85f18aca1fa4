"""Tests for the Barnes-Hut N-body kernel."""

import numpy as np
import pytest

from repro.cachesim import PAPER_CACHES, simulate_trace
from repro.kernels import BarnesHutKernel, Workload
from repro.kernels.barnes_hut import _QuadTree, _visit_counts


@pytest.fixture
def kernel():
    return BarnesHutKernel()


@pytest.fixture
def workload():
    return Workload("t", {"n": 200, "theta": 0.5})


class TestQuadTree:
    def _build(self, n, seed=0):
        rng = np.random.default_rng(seed)
        positions = rng.random((n, 2))
        masses = np.ones(n)
        tree = _QuadTree()
        tree.build(positions, masses)
        return tree, positions, masses

    def test_every_body_in_a_leaf(self):
        tree, _, _ = self._build(50)
        bodies = {
            node.body for node in tree.nodes if node.body is not None
        }
        assert bodies == set(range(50))

    def test_total_mass_conserved(self):
        tree, _, masses = self._build(50)
        assert tree.root.mass == pytest.approx(masses.sum())

    def test_center_of_mass_matches(self):
        tree, positions, masses = self._build(50)
        com = (positions * masses[:, None]).sum(axis=0) / masses.sum()
        assert tree.root.comx == pytest.approx(com[0])
        assert tree.root.comy == pytest.approx(com[1])

    def test_node_count_linear_in_bodies(self):
        small, _, _ = self._build(100)
        large, _, _ = self._build(400)
        assert len(large.nodes) > len(small.nodes)
        assert len(large.nodes) < 10 * 400  # sane bound


class TestForces:
    def test_forces_match_direct_sum_loosely(self, kernel):
        """theta -> 0 degenerates to the exact O(N^2) direct sum."""
        n = 60
        workload = Workload("t", {"n": n, "theta": 1e-9})
        from repro.trace import TraceRecorder

        forces = kernel.run_traced(workload, TraceRecorder())
        rng = np.random.default_rng(0)
        positions = rng.random((n, 2))
        masses = rng.random(n) + 0.1
        direct = np.zeros((n, 2))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                d = positions[j] - positions[i]
                dist2 = float(d @ d) + 1e-9
                direct[i] += masses[j] * d / (dist2 * np.sqrt(dist2))
        assert np.allclose(forces, direct, rtol=1e-6, atol=1e-6)

    def test_larger_theta_visits_fewer_nodes(self, kernel):
        tight = kernel.profile_k(Workload("t", {"n": 200, "theta": 0.1}))
        loose = kernel.profile_k(Workload("t", {"n": 200, "theta": 1.0}))
        assert loose < tight


class TestProfiling:
    def test_frequencies_are_probabilities(self, kernel, workload):
        freqs = kernel.profile_frequencies(workload)
        assert (freqs >= 0).all() and (freqs <= 1).all()

    def test_root_visited_by_every_walk(self, kernel, workload):
        freqs = kernel.profile_frequencies(workload)
        assert freqs[0] == 1.0  # node 0 is the root

    def test_k_is_frequency_sum(self, kernel, workload):
        freqs = kernel.profile_frequencies(workload)
        assert kernel.profile_k(workload) == pytest.approx(freqs.sum())

    def test_frequencies_memoised(self, kernel, workload):
        a = kernel.profile_frequencies(workload)
        b = kernel.profile_frequencies(workload)
        assert a is b

    def test_shared_arrays_are_read_only(self, kernel, workload):
        _, positions, masses = kernel._build(workload)
        freqs = kernel.profile_frequencies(workload)
        for shared in (positions, masses, freqs):
            with pytest.raises(ValueError):
                shared[0] = 0.5

    def test_build_memoised(self, kernel, workload):
        assert kernel._build(workload)[0] is kernel._build(workload)[0]


def _scalar_visit_counts(kernel, tree, positions, theta):
    """Visit counts from one per-body ``_force_walk`` each."""
    counts = np.zeros(len(tree.nodes), dtype=np.int64)
    for body in range(len(positions)):
        visits: list[int] = []
        kernel._force_walk(tree, positions, body, theta, visits.append)
        # A walk reaches each node at most once.
        assert len(visits) == len(set(visits))
        counts[visits] += 1
    return counts


class TestVectorisedProfiling:
    """The level-synchronous walk equals the per-body walks exactly."""

    @pytest.mark.parametrize("seed", [0, 7, 11])
    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 200, 1000])
    def test_counts_equal_scalar_walk(self, kernel, n, theta, seed):
        tree, positions, _ = kernel._build(
            Workload("t", {"n": n, "seed": seed})
        )
        assert np.array_equal(
            _visit_counts(tree, positions, theta),
            _scalar_visit_counts(kernel, tree, positions, theta),
        )

    def test_profile_frequencies_are_counts_over_bodies(self, kernel):
        workload = Workload("t", {"n": 200, "theta": 0.5, "seed": 3})
        tree, positions, _ = kernel._build(workload)
        counts = _scalar_visit_counts(kernel, tree, positions, 0.5)
        assert np.array_equal(
            kernel.profile_frequencies(workload), counts / 200
        )

    def test_flat_arrays_mirror_nodes(self, kernel):
        tree, _, _ = kernel._build(Workload("t", {"n": 200, "seed": 1}))
        for node in tree.nodes:
            i = node.index
            assert list(tree.children[i]) == [
                -1 if c is None else c.index for c in node.children
            ]
            assert tree.leaf[i] == node.is_leaf
            assert (tree.mass[i], tree.comx[i], tree.comy[i], tree.half[i]) == (
                node.mass, node.comx, node.comy, node.half
            )


class TestTraceAndModel:
    def test_trace_structures(self, kernel, workload):
        trace = kernel.trace(workload)
        assert set(trace.labels) == {"T", "P"}

    def test_construction_phase_recorded(self, kernel, workload):
        trace = kernel.trace(workload)
        nodes = kernel.tree_size(workload)
        # At least one full write pass over the tree (construction).
        sub = trace.filter_label("T")
        writes = int(np.count_nonzero(sub.is_write))
        assert writes == nodes

    @pytest.mark.parametrize("cache", ["small", "large"])
    def test_model_matches_simulator(self, kernel, workload, cache):
        geometry = PAPER_CACHES[cache]
        stats = simulate_trace(kernel.trace(workload), geometry)
        nha = kernel.estimate_nha(workload, geometry)
        for name, estimate in nha.items():
            assert estimate == pytest.approx(
                stats.misses(name), rel=0.15
            ), name

    def test_workload_k_override_used(self, kernel):
        # With an explicit k the expensive profiling run is skipped for
        # resource counts.
        workload = Workload("t", {"n": 200, "k": 42.0})
        resources = kernel.resource_counts(workload)
        assert resources.flops == pytest.approx(12 * 42.0 * 200)
