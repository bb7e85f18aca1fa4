"""The numpy distributions against exact arithmetic and closed forms.

``tests/test_scipy_oracles.py`` compares them with scipy over grids;
these checks need nothing beyond the standard library.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.patterns.distributions import binom_pmf, hypergeom_pmf, student_t_ppf


class TestHypergeom:
    @pytest.mark.parametrize(
        "total, successes, draws",
        [(10, 4, 5), (50, 50, 7), (1000, 0, 10), (10**5, 1000, 99_000),
         (20_000, 3000, 10_000)],
    )
    def test_matches_exact_ratio_of_binomials(self, total, successes, draws):
        lo = max(0, draws - (total - successes))
        hi = min(successes, draws)
        k = np.unique(np.linspace(lo, hi, 9).astype(int))
        got = hypergeom_pmf(k, total, successes, draws)
        for kk, value in zip(k.tolist(), got):
            # Integer true division rounds the exact ratio correctly.
            exact = (
                math.comb(successes, kk) * math.comb(total - successes, draws - kk)
                / math.comb(total, draws)
            )
            assert value == pytest.approx(exact, rel=1e-13, abs=1e-300)

    def test_sums_to_one_and_zero_outside_support(self):
        pmf = hypergeom_pmf(np.arange(-2, 30), 100, 20, 25)
        assert pmf.sum() == pytest.approx(1.0, rel=1e-15)
        assert pmf[:2].tolist() == [0.0, 0.0] and pmf[-4:].tolist() == [0.0] * 4

    def test_rejects_impossible_populations(self):
        with pytest.raises(ValueError):
            hypergeom_pmf(0, 10, 11, 2)


class TestBinom:
    @pytest.mark.parametrize("trials, p", [(5, 0.5), (40, 1 / 64), (300, 0.25)])
    def test_matches_exact_terms(self, trials, p):
        got = binom_pmf(np.arange(trials + 1), trials, p)
        fp = Fraction(p)
        for k, value in enumerate(got):
            exact = math.comb(trials, k) * fp**k * (1 - fp) ** (trials - k)
            assert value == pytest.approx(float(exact), rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("p, mass_at", [(0.0, 0), (1.0, 7)])
    def test_degenerate_probabilities(self, p, mass_at):
        pmf = binom_pmf(np.arange(8), 7, p)
        assert pmf.tolist() == [1.0 if k == mass_at else 0.0 for k in range(8)]


class TestStudentT:
    @pytest.mark.parametrize("p", [0.6, 0.75, 0.975, 0.9995])
    def test_cauchy_and_two_df_closed_forms(self, p):
        assert student_t_ppf(p, 1) == pytest.approx(
            math.tan(math.pi * (p - 0.5)), rel=1e-12
        )
        assert student_t_ppf(p, 2) == pytest.approx(
            (2 * p - 1) / math.sqrt(2 * p * (1 - p)), rel=1e-12
        )

    def test_median_is_zero_and_large_df_tends_to_normal(self):
        assert student_t_ppf(0.5, 5) == 0.0
        # z_{0.975} = 1.959963984540054; t_1e7 sits 1e-7 relative above it.
        assert student_t_ppf(0.975, 10**7) == pytest.approx(1.959964, rel=1e-6)

    @pytest.mark.parametrize("p, df", [(0.4, 3), (1.0, 3), (0.9, 0)])
    def test_rejects_out_of_range(self, p, df):
        with pytest.raises(ValueError):
            student_t_ppf(p, df)
