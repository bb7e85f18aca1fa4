"""The numpy replacements for scipy, checked against scipy over grids.

The package never imports scipy; these tests use it (the ``test`` extra)
as the oracle for each function that replaced a scipy call:

* ``hypergeom_pmf`` — ``scipy.stats.hypergeom.pmf`` (random-access model);
* ``binom_pmf`` / ``set_occupancy_pmf`` — ``scipy.stats.binom.pmf``;
* ``student_t_ppf`` / ``finite_population_total`` — ``scipy.stats.t.ppf``;
* ``spearman_rho`` — ``scipy.stats.spearmanr``;
* ``_apply_ic`` — ``scipy.linalg.solve_triangular``.
"""

import warnings

import numpy as np
import pytest

scipy = pytest.importorskip("scipy")
from scipy import linalg, stats  # noqa: E402

from repro.cachesim import CacheGeometry, PAPER_CACHES  # noqa: E402
from repro.faultinject.compare import _average_ranks, spearman_rho  # noqa: E402
from repro.kernels.conjugate_gradient import (  # noqa: E402
    _apply_ic,
    build_system,
    incomplete_cholesky,
)
from repro.patterns import RandomAccess, set_occupancy_pmf  # noqa: E402
from repro.patterns.distributions import (  # noqa: E402
    binom_pmf,
    hypergeom_pmf,
    student_t_ppf,
)
from repro.patterns.random_access import finite_population_total  # noqa: E402

#: Below this both sides are (nearly) subnormal and carry no relative
#: precision; they must still agree in absolute terms.
TINY = 1e-290


def assert_pmf_close(got, want, rtol):
    got, want = np.asarray(got), np.asarray(want)
    normal = want > TINY
    np.testing.assert_allclose(got[normal], want[normal], rtol=rtol, atol=0)
    np.testing.assert_allclose(got[~normal], want[~normal], rtol=0, atol=TINY)


class TestHypergeom:
    @pytest.mark.parametrize("total", [1, 2, 10, 1000, 12345, 10**6])
    def test_every_overlap(self, total):
        for successes in sorted({0, 1, 7, total // 3, total - 1, total}):
            for draws in sorted({0, 1, 3, total // 7, total // 2, total}):
                if successes > total or draws > total:
                    continue
                lo = max(0, draws - (total - successes))
                hi = min(successes, draws)
                k = np.arange(lo - 1, hi + 2)  # one outside at each end
                assert_pmf_close(
                    hypergeom_pmf(k, total, successes, draws),
                    stats.hypergeom.pmf(k, total, successes, draws),
                    rtol=1e-9,
                )

    def test_random_access_pmf_sum_matches_scipy_sum(self):
        geometry = PAPER_CACHES["small"]
        pattern = RandomAccess(100_000, 32, 5000, 10, exact_expectation=False)
        m = pattern.elements_in_cache(geometry)
        overlap = np.arange(0, 5001)
        want = float(
            stats.hypergeom.pmf(overlap, 100_000, 5000, m) @ (5000 - overlap)
        )
        got = pattern.expected_missing_elements(geometry)
        assert got == pytest.approx(want, rel=1e-9)


class TestBinom:
    @pytest.mark.parametrize("trials", [0, 1, 2, 7, 63, 1000, 4096, 100_000])
    @pytest.mark.parametrize("sets", [1, 2, 3, 64, 4096])
    def test_full_support(self, trials, sets):
        k = np.arange(-1, trials + 2)
        assert_pmf_close(
            binom_pmf(k, trials, 1.0 / sets),
            stats.binom.pmf(k, trials, 1.0 / sets),
            rtol=1e-10,
        )

    @pytest.mark.parametrize("blocks", [0, 1, 3, 8, 100, 4096, 65_537, 100_000])
    @pytest.mark.parametrize("sets", [1, 2, 64, 1000, 4096])
    @pytest.mark.parametrize("ways", [1, 4, 8, 16])
    def test_bernoulli_set_occupancy(self, blocks, sets, ways):
        geometry = CacheGeometry(ways, sets, 64)
        want = np.zeros(ways + 1)
        dist = stats.binom(blocks, 1.0 / sets)
        if blocks < ways:
            want[: blocks + 1] = dist.pmf(np.arange(blocks + 1))
        else:
            want[:ways] = dist.pmf(np.arange(ways))
            want[ways] = max(1.0 - float(want[:ways].sum()), 0.0)
        got = set_occupancy_pmf(blocks, geometry, placement="bernoulli")
        # The truncated tail is 1 - sum, so it inherits the sum's
        # absolute error, not a relative one.
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)


DFS = [1, 2, 3, 4, 5, 6, 7, 9, 14, 15, 16, 29, 30, 31, 63, 64, 127, 255,
       1000, 4095, 10_000, 31_623, 99_999, 100_000]
CONFIDENCES = [0.5, 0.8, 0.9, 0.95, 0.99, 0.999]


class TestStudentT:
    @pytest.mark.parametrize("df", DFS)
    def test_ppf_grid(self, df):
        for confidence in CONFIDENCES:
            p = 0.5 + confidence / 2.0
            assert student_t_ppf(p, df) == pytest.approx(
                stats.t.ppf(p, df), rel=1e-10, abs=0
            ), (df, confidence)

    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_finite_population_half_width(self, confidence):
        rng = np.random.default_rng(7)
        values = rng.poisson(40.0, size=12).astype(float)
        total, half_width = finite_population_total(values, 64, confidence)
        se = 64 * np.sqrt((1 - 12 / 64) * values.var(ddof=1) / 12)
        want = stats.t.ppf(0.5 + confidence / 2.0, df=11) * se
        assert total == 64 * values.mean()
        assert half_width == pytest.approx(want, rel=1e-10, abs=0)


class TestSpearman:
    def test_random_ties_match_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for trial in range(300):
            n = int(rng.integers(2, 30))
            x = rng.integers(0, int(rng.integers(2, 8)), n).astype(float)
            y = (
                rng.normal(size=n)
                if trial % 2
                else rng.integers(0, 4, n).astype(float)
            )
            if (x == x[0]).all() or (y == y[0]).all():
                continue
            np.testing.assert_array_equal(_average_ranks(x), stats.rankdata(x))
            assert spearman_rho(x, y) == stats.spearmanr(x, y).statistic

    @pytest.mark.parametrize(
        "x, y",
        [
            ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),  # constant input
            ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]),
            ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]),  # NaN propagates
            ([1.0, 2.0, 3.0], [3.0, 2.0, np.nan]),
            ([1.0], [2.0]),  # one observation
        ],
    )
    def test_undefined_cases_are_nan(self, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = stats.spearmanr(x, y).statistic
        assert np.isnan(want)
        assert np.isnan(spearman_rho(x, y))

    def test_perfect_orderings(self):
        assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
        assert spearman_rho([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0


class TestTriangularSolve:
    @pytest.mark.parametrize("n", [4, 49, 100, 400])
    def test_laplacian_ic_factor(self, n):
        a, _ = build_system(n)
        lfac = incomplete_cholesky(a)
        r = np.random.default_rng(n).random(a.shape[0])
        want = linalg.solve_triangular(
            lfac.T, linalg.solve_triangular(lfac, r, lower=True), lower=False
        )
        np.testing.assert_allclose(_apply_ic(lfac, r), want, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_factor(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        lfac = np.tril(rng.normal(size=(n, n)) / n)
        lfac[np.diag_indices(n)] = rng.uniform(0.5, 2.0, n)
        r = rng.normal(size=n)
        want = linalg.solve_triangular(
            lfac.T, linalg.solve_triangular(lfac, r, lower=True), lower=False
        )
        np.testing.assert_allclose(_apply_ic(lfac, r), want, rtol=1e-10, atol=1e-13)
