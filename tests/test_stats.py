"""Least-squares and significance machinery against independent references.

Reference values come from numpy.linalg (a test-only dependency) for the
linear algebra, from mpmath for the far tail of the t distribution, and from
closed forms / the complementary error function / scipy.stats.t (a test-only
dependency) for the t distribution, so nothing here is checked against its
own implementation.
"""

import math
import sys
import tracemalloc
from operator import mul

import numpy as np
import pytest

from wikivote.errors import ComputationError, SingularityError
from wikivote.stats import (
    CorrelationResult,
    DesignMatrix,
    _incomplete_beta,
    centred,
    householder_qr,
    ols_fit,
    pearson,
    reflect,
    significance_stars,
    student_t_two_sided_p,
)


def random_design(rng, n, k):
    return np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])


def design(x):
    """The DesignMatrix of x, given as rows: x.T iterates over x's columns."""
    return DesignMatrix(x.T, ("Intercept", *(f"x{j}" for j in range(1, x.shape[1]))))


def reflected(reflectors, a):
    """The reflectors applied to each column of a: Q^T a, for Q is never formed."""
    columns = [list(column) for column in a.T]
    for column in columns:
        reflect(reflectors, column)
    return np.column_stack(columns)


class TestHouseholderQR:
    def test_factors_reproduce_matrix(self):
        # Q^T a = [R; 0]: the reflectors turn a into R above m - n zero rows
        rng = np.random.default_rng(1)
        for n, k in [(8, 3), (20, 5), (7, 6), (50, 2)]:
            a = random_design(rng, n, k)
            reflectors, r = householder_qr(design(a))
            got = reflected(reflectors, a)
            assert np.allclose(got[:k], r, atol=1e-12)
            assert np.allclose(got[k:], 0.0, atol=1e-12)

    def test_q_is_orthogonal(self):
        # Q^T is the reflectors applied to the identity's columns
        rng = np.random.default_rng(2)
        a = random_design(rng, 12, 4)
        reflectors, r = householder_qr(design(a))
        q_t = reflected(reflectors, np.eye(12))
        assert np.allclose(q_t @ q_t.T, np.eye(12), atol=1e-12)
        assert np.allclose(q_t[:4] @ a, r, atol=1e-12)

    def test_r_is_upper_triangular(self):
        rng = np.random.default_rng(3)
        a = random_design(rng, 9, 4)
        _, r = householder_qr(design(a))
        assert np.array(r).shape == (4, 4)
        assert (np.tril(r, k=-1) == 0.0).all()

    def test_r_transpose_r_is_x_transpose_x(self):
        rng = np.random.default_rng(4)
        for n, k in [(59, 7), (30, 5), (2400, 7)]:
            x = random_design(rng, n, k)
            _, r = householder_qr(design(x))
            assert np.allclose(np.array(r).T @ r, x.T @ x, rtol=1e-12, atol=1e-10)

    def test_a_design_matrix_is_factored_by_its_columns(self):
        x = random_design(np.random.default_rng(5), 20, 3)
        dm = DesignMatrix(x.T, ("Intercept", "a", "b"))
        assert dm.shape == (20, 3)
        # the names do not enter the factors, and the first fit's factors are kept
        assert householder_qr(dm) == householder_qr(DesignMatrix(x.T, ("c", "d", "e")))
        assert dm.factors == householder_qr(dm)
        assert dm.factors is dm.factors


class TestQrSolve:
    """The least-squares solve by QR, as ols_fit gives it."""

    def test_exact_fit_recovers_coefficients(self):
        rng = np.random.default_rng(4)
        x = random_design(rng, 10, 3)
        beta = np.array([2.0, -1.5, 0.25])
        assert np.allclose(ols_fit(design(x), x @ beta).beta, beta, atol=1e-11)

    def test_matches_lstsq_on_noisy_system(self):
        rng = np.random.default_rng(5)
        x = random_design(rng, 20, 4)
        y = x @ np.array([1.0, 2.0, -0.5, 0.3]) + rng.normal(scale=0.5, size=20)
        expected = np.linalg.lstsq(x, y, rcond=None)[0]
        assert np.allclose(ols_fit(design(x), y).beta, expected, atol=1e-10)

    def test_duplicate_column_names_the_culprit(self):
        x = np.ones((10, 3))
        x[:, 1] = np.arange(10.0)
        x[:, 2] = 2.0 * np.arange(10.0)
        dm = DesignMatrix(x.T, ("Intercept", "a", "b"))
        with pytest.raises(SingularityError) as excinfo:
            ols_fit(dm, np.arange(10.0))
        assert excinfo.value.column == "b"
        assert "'b'" in str(excinfo.value)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ols_fit(design(random_design(np.random.default_rng(6), 5, 2)), np.ones(4))


class TestDesignMatrix:
    def test_requires_intercept_first(self):
        with pytest.raises(ValueError, match="intercept"):
            DesignMatrix(np.zeros((2, 5)), ("a", "b"))

    def test_requires_more_rows_than_columns(self):
        with pytest.raises(ComputationError):
            DesignMatrix(np.ones((2, 2)), ("Intercept", "x"))

    def test_columns_are_taken_as_given(self):
        x = random_design(np.random.default_rng(13), 6, 2)
        dm = DesignMatrix([list(c) for c in x.T], ("Intercept", "a"))
        assert dm.columns == tuple(list(c) for c in x.T)
        assert "columns" not in repr(dm)
        with pytest.raises(ValueError, match="column_names"):
            DesignMatrix([[1.0] * 6, [2.0] * 5], ("Intercept", "a"))
        with pytest.raises(ValueError, match="column_names"):
            DesignMatrix([[1.0] * 6, [2.0] * 6, [3.0] * 6], ("Intercept", "a"))

    def test_rejects_non_finite(self):
        values = np.ones((5, 2))
        values[3, 1] = np.nan
        with pytest.raises(ValueError):
            DesignMatrix(values.T, ("Intercept", "x"))


class TestOlsFit:
    def fit_noisy(self, seed=6, n=40, scale=1.0):
        rng = np.random.default_rng(seed)
        x = random_design(rng, n, 4)
        y = x @ np.array([4.0, 1.5, -2.0, 0.0]) + rng.normal(scale=scale, size=n)
        dm = DesignMatrix(x.T, ("Intercept", "a", "b", "c"))
        return dm, y, ols_fit(dm, y)

    @staticmethod
    def residuals(dm, y, fit):
        return y - np.column_stack(dm.columns) @ fit.beta

    def test_residuals_orthogonal_to_design(self):
        dm, y, fit = self.fit_noisy()
        assert np.allclose(np.array(dm.columns) @ self.residuals(dm, y, fit), 0.0, atol=1e-9)

    def test_residuals_sum_to_zero_with_intercept(self):
        dm, y, fit = self.fit_noisy()
        assert abs(self.residuals(dm, y, fit).sum()) < 1e-9

    def test_diagnostics_match_direct_formulas(self):
        dm, y, fit = self.fit_noisy()
        residuals = self.residuals(dm, y, fit)
        ssr = float(residuals @ residuals)
        sst = float(((y - y.mean()) ** 2).sum())
        assert fit.r2 == pytest.approx(1.0 - ssr / sst, abs=1e-12)
        n, k = dm.shape
        assert fit.adj_r2 == pytest.approx(
            1.0 - (1.0 - fit.r2) * (n - 1) / (n - k), abs=1e-12
        )

    def test_standard_errors_match_covariance_oracle(self):
        dm, y, fit = self.fit_noisy()
        residuals = self.residuals(dm, y, fit)
        n, k = dm.shape
        sigma2 = float(residuals @ residuals) / (n - k)
        x = np.column_stack(dm.columns)
        xtx_inv = np.linalg.inv(x.T @ x)
        expected = np.sqrt(sigma2 * np.diag(xtx_inv))
        assert np.allclose([t.se for t in fit.terms], expected, atol=1e-10)

    def test_column_scaling_equivariance(self):
        dm, y, fit = self.fit_noisy()
        for c in (0.5, -2.0, 1000.0):
            scaled = np.column_stack(dm.columns)
            scaled[:, 1] *= c
            fit_c = ols_fit(DesignMatrix(scaled.T, dm.column_names), y)
            a, a_c = fit.term("a"), fit_c.term("a")
            assert a_c.beta == pytest.approx(a.beta / c, rel=1e-9)
            assert abs(a_c.t) == pytest.approx(abs(a.t), rel=1e-9)
            assert a_c.p == pytest.approx(a.p, rel=1e-9)
            assert fit_c.r2 == pytest.approx(fit.r2, abs=1e-12)

    def test_adding_a_column_never_lowers_r2(self):
        rng = np.random.default_rng(7)
        x = random_design(rng, 30, 3)
        y = rng.normal(size=30)
        small = ols_fit(DesignMatrix(x[:, :2].T, ("Intercept", "a")), y)
        big = ols_fit(DesignMatrix(x.T, ("Intercept", "a", "b")), y)
        assert big.r2 >= small.r2 - 1e-12

    def test_exact_fit_reports_infinite_t(self):
        # small integer design where every step of the factorization is exact
        # in floats (R = [[-2, 0], [0, -6]]), so the residual sum of squares is
        # exactly zero
        x = np.column_stack([np.ones(4), np.array([3.0, 1.0, -5.0, 1.0])])
        y = x @ np.array([1.0, -3.0])
        fit = ols_fit(DesignMatrix(x.T, ("Intercept", "a")), y)
        term = fit.term("a")
        assert term.se == 0.0
        assert term.t == -math.inf
        assert term.p == 0.0
        assert term.stars == "***"
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_near_exact_fit_is_overwhelmingly_significant(self):
        x = random_design(np.random.default_rng(8), 10, 2)
        y = x @ np.array([3.0, 2.0])
        fit = ols_fit(DesignMatrix(x.T, ("Intercept", "a")), y)
        term = fit.term("a")
        assert term.se < 1e-12
        assert term.p < 1e-100
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_response_rejected(self):
        x = random_design(np.random.default_rng(9), 10, 2)
        with pytest.raises(ComputationError, match="zero variance"):
            ols_fit(DesignMatrix(x.T, ("Intercept", "a")), np.full(10, 7.0))

    def test_one_sided_halves_p(self):
        dm, y, fit2 = self.fit_noisy()
        fit1 = ols_fit(dm, y, sides="one")
        for t2, t1 in zip(fit2.terms, fit1.terms):
            assert t1.p == pytest.approx(t2.p / 2.0, rel=1e-12)

    def test_unknown_sides_rejected_before_fitting(self):
        dm, y, _ = self.fit_noisy()
        with pytest.raises(ValueError, match="sides"):
            ols_fit(dm, y, sides="both")
        # the argument is checked before the response, which would fail the fit
        with pytest.raises(ValueError, match="sides"):
            ols_fit(dm, np.full(dm.n, 7.0), sides="left")

    def test_large_fit_allocates_thin_factors_only(self):
        # n = 5 000: an m x m Q alone would take 200 MB; no Q is formed, and the
        # reflectors and the working columns take ~1.8 MB of float objects
        rng = np.random.default_rng(12)
        n, k = 5_000, 7
        x = random_design(rng, n, k)
        y = x @ rng.normal(size=k) + rng.normal(size=n)
        dm = DesignMatrix(x.T, tuple(f"c{j}" for j in range(k)))
        tracemalloc.start()
        try:
            fit = ols_fit(dm, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        beta = np.linalg.lstsq(x, y, rcond=None)[0]
        resid = y - x @ beta
        se = np.sqrt(resid @ resid / (n - k) * np.diag(np.linalg.inv(x.T @ x)))
        assert np.allclose(fit.beta, beta, rtol=1e-8, atol=1e-8)
        assert np.allclose([t.se for t in fit.terms], se, rtol=1e-8, atol=1e-8)


class TestRegularizedIncompleteBeta:
    def test_limits(self):
        assert _incomplete_beta(2.0, 3.0, 0.0, 1.0) == 0.0
        assert _incomplete_beta(2.0, 3.0, 1.0, 0.0) == 1.0

    def test_uniform_case_is_identity(self):
        for x in (0.0, 0.2, 0.5, 0.9, 1.0):
            assert _incomplete_beta(1.0, 1.0, x, 1.0 - x) == pytest.approx(x, abs=1e-12)

    def test_integer_case_matches_binomial_sum(self):
        # I_x(2, 3) = sum_{j=2}^{4} C(4, j) x^j (1-x)^(4-j); at x = 1/4
        # that is 0.26171875 exactly.
        assert _incomplete_beta(2.0, 3.0, 0.25, 0.75) == pytest.approx(
            0.26171875, abs=1e-12
        )

    def test_symmetry(self):
        for a, b, x in [(2.5, 4.0, 0.3), (0.5, 0.5, 0.7), (10.0, 3.0, 0.9)]:
            left = _incomplete_beta(a, b, x, 1.0 - x)
            right = 1.0 - _incomplete_beta(b, a, 1.0 - x, x)
            assert left == pytest.approx(right, abs=1e-12)


class TestStudentT:
    def test_p_at_zero_is_one(self):
        assert student_t_two_sided_p(0.0, 10) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_df1(self):
        for t in (0.1, 0.5, 1.0, 2.5, 8.0):
            expected = 1.0 - 2.0 * math.atan(t) / math.pi
            assert student_t_two_sided_p(t, 1) == pytest.approx(expected, abs=1e-12)

    def test_closed_form_df2(self):
        for t in (0.1, 0.5, 1.0, 2.5, 8.0):
            expected = 1.0 - t / math.sqrt(t * t + 2.0)
            assert student_t_two_sided_p(t, 2) == pytest.approx(expected, abs=1e-12)

    def test_symmetric_in_t(self):
        assert student_t_two_sided_p(-1.7, 13) == student_t_two_sided_p(1.7, 13)

    def test_monotone_decreasing_in_magnitude(self):
        ps = [student_t_two_sided_p(t, 7) for t in (0.0, 0.5, 1.0, 2.0, 4.0, 10.0)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_gaussian_limit(self):
        for t in (0.5, 1.0, 1.96, 3.0):
            normal_p = math.erfc(t / math.sqrt(2.0))
            assert student_t_two_sided_p(t, 1e6) == pytest.approx(normal_p, abs=1e-4)

    def test_infinite_t(self):
        assert student_t_two_sided_p(math.inf, 5) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            student_t_two_sided_p(1.0, 0)
        with pytest.raises(ValueError):
            student_t_two_sided_p(math.nan, 5)


class TestStudentTAgainstScipy:
    """student_t_two_sided_p against 2 * scipy.stats.t.sf, at rtol 1e-8.

    The grid crosses df from 1 to 10^6 with |t| from 0 to 40, including
    |t| small enough that x = df / (df + t^2) rounds to 1. While 1 - x was
    formed as 1.0 - x, that cancellation gave relative errors of 4.1e-9 at
    df = 10^6, t = 0.01 and 8e-7 at df >= 10^4, t = 1e-6 (p came out as
    exactly 1). With 1 - x passed in as t^2 / (df + t^2), the largest error
    left was 5.6e-9 at df = 10^6, t = 1.7: cancellation between lgamma(a + 1/2)
    and lgamma(a) at a = 5 * 10^5, which TestStudentTLargeDf now bounds.

    Below the smallest normal float scipy returns 0 where this code keeps a
    subnormal tail (df = 10^5, t = 38 gives 1.0155e-313, as a 50-digit
    mpmath evaluation also does), so there both only have to be below the
    normal range; at t = 40 and df >= 10^4 both underflow to exactly 0.
    """

    DFS = (1, 2, 3, 5, 10, 30, 59, 100, 1e3, 1e4, 1e5, 1e6)
    TS = (0.0, 1e-6, 1e-4, 1e-2, *np.linspace(0.05, 40.0, 800).tolist())

    def test_matches_scipy_over_df_and_t(self):
        scipy_t = pytest.importorskip("scipy.stats").t
        failures = []
        for df in self.DFS:
            for t, expected in zip(self.TS, 2.0 * scipy_t.sf(self.TS, df)):
                p = student_t_two_sided_p(t, df)
                if expected >= sys.float_info.min:
                    ok = abs(p - expected) <= 1e-8 * expected
                else:
                    ok = 0.0 <= p < sys.float_info.min
                if not ok:
                    failures.append((df, t, p, expected))
        assert failures == []

    def test_far_tail_underflows_to_zero_like_scipy(self):
        scipy_t = pytest.importorskip("scipy.stats").t
        for df in (1e4, 1e5, 1e6):
            assert scipy_t.sf(40.0, df) == 0.0
            assert student_t_two_sided_p(40.0, df) == 0.0
            assert student_t_two_sided_p(-40.0, df) == 0.0


class TestStudentTLargeDf:
    """student_t_two_sided_p against a 50-digit mpmath evaluation at large df.

    Taken as a difference, lgamma(df/2 + 1/2) - lgamma(df/2) loses ~1e-9
    relative at df = 10^6 (5.6e-9 at t = 1.7) and 1.9e-8 at df = 10^7;
    Stirling's series keeps the error near 1e-11 and 3e-10.
    """

    @pytest.mark.parametrize("df", [1e4, 1e5, 1e6, 1e7])
    @pytest.mark.parametrize("t", [0.5, 1.7, 3.0])
    def test_matches_mpmath(self, df, t):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            df_mp, t_mp = mpmath.mpf(df), mpmath.mpf(t)
            expected = float(mpmath.betainc(df_mp / 2, mpmath.mpf(1) / 2, 0,
                                            df_mp / (df_mp + t_mp * t_mp), regularized=True))
        rtol = 1e-9 if df > 1e6 else 1e-10
        assert abs(student_t_two_sided_p(t, df) - expected) <= rtol * expected


class TestPearson:
    def test_hand_computed_example(self):
        # x = (1,2,3), y = (1,2,4): Sxy = 3, Sxx = 2, Syy = 14/3,
        # so r = 3 / sqrt(2 * 14/3) = 0.9819805060619657.
        result = pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert isinstance(result, CorrelationResult)
        assert result.r == pytest.approx(0.9819805060619657, abs=1e-12)
        assert result.n == 3

    def test_matches_numpy(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=25)
        y = 0.4 * x + rng.normal(size=25)
        result = pearson(x, y)
        assert result.r == pytest.approx(float(np.corrcoef(x, y)[0, 1]), abs=1e-12)

    def test_perfect_line(self):
        x = np.arange(10.0)
        result = pearson(x, 3.0 * x + 1.0)
        assert result.r == pytest.approx(1.0, abs=1e-12)
        assert result.p_value == 0.0

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        base = pearson(x, y)
        assert pearson(y, x).r == pytest.approx(base.r, abs=1e-12)
        assert pearson(2.0 * x + 5.0, y).r == pytest.approx(base.r, abs=1e-12)
        assert pearson(-1.0 * x, y).r == pytest.approx(-base.r, abs=1e-12)

    def test_adjusted_r2_formula(self):
        result = pearson([1.0, 2.0, 4.0, 3.0, 6.0], [1.1, 1.8, 4.4, 2.2, 5.6])
        n, r2 = result.n, result.r**2
        assert result.adj_r2 == pytest.approx(
            1.0 - (1.0 - r2) * (n - 1) / (n - 2), abs=1e-12
        )

    def test_significance_uses_n_minus_2_df(self):
        x = [1.0, 2.0, 4.0, 3.0, 6.0, 5.0]
        y = [1.1, 1.8, 4.4, 2.2, 5.6, 4.0]
        result = pearson(x, y)
        t = result.r * math.sqrt((result.n - 2) / (1.0 - result.r**2))
        assert result.p_value == pytest.approx(student_t_two_sided_p(t, result.n - 2), rel=1e-12)

    def test_one_sided_halves_p(self):
        x = [1.0, 2.0, 4.0, 3.0, 6.0]
        y = [1.1, 1.8, 4.4, 2.2, 5.6]
        assert pearson(x, y, sides="one").p_value == pytest.approx(
            pearson(x, y).p_value / 2.0, rel=1e-12
        )

    def test_r_equals_the_written_out_formula(self):
        # the sums come from centred; these are the same operations in the same order
        rng = np.random.default_rng(12)
        for n in (3, 59, 2400):
            x, y = rng.normal(size=n).tolist(), (rng.normal(size=n) * 1e6).tolist()
            mean_x, mean_y = math.fsum(x) / n, math.fsum(y) / n
            dx = [v - mean_x for v in x]
            dy = [v - mean_y for v in y]
            sxx, sxy, syy = (math.fsum(map(mul, a, b)) for a, b in ((dx, dx), (dx, dy), (dy, dy)))
            assert pearson(x, y).r == max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))
            assert centred(x, y)[2:] == (sxx, sxy, syy)

    def test_rejects_degenerate_input(self):
        # too few rows is a data error (exit 3), like a constant input
        with pytest.raises(ComputationError, match="need at least 3 observations, got 2"):
            pearson([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ComputationError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestSignificanceStars:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (0.0005, "***"),
            (0.001, "**"),
            (0.005, "**"),
            (0.01, "*"),
            (0.02, "*"),
            (0.05, "†"),
            (0.07, "†"),
            (0.1, ""),
            (0.5, ""),
        ],
    )
    def test_thresholds_are_strict(self, p, expected):
        assert significance_stars(p) == expected
