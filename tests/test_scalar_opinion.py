"""Normal-Gamma conjugate updates and Student-t predictive behavior."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from closed_forms import pooled_summary, predictive_density
from evidential_weight import core, mc
from evidential_weight import multi_expert as me
from evidential_weight import scalar_opinion as so
from evidential_weight.errors import DomainError
from mc_oracles import mc_blend_density

PRIOR_H1 = so.NormalGammaParams(5.0, 1.0, 0.01, 1.0)
PRIOR_H2 = so.NormalGammaParams(-5.0, 1.0, 0.01, 1.0)

params_strategy = st.builds(
    so.NormalGammaParams,
    mu0=st.floats(-50, 50),
    n_mu=st.floats(0.1, 100),
    tau0=st.floats(1e-4, 100),
    n_tau=st.floats(0.1, 100),
)
summary_strategy = st.builds(
    so.ScalarValidationSummary,
    n=st.integers(1, 5000),
    mean=st.floats(-50, 50),
    variance=st.floats(0, 1000),
)


class TestUpdate:
    def test_rejects_empty_data(self):
        with pytest.raises(DomainError):
            so.ScalarValidationSummary(n=0, mean=0.0, variance=1.0)

    @pytest.mark.parametrize("n", [math.inf, math.nan, 1.5, True])
    def test_rejects_non_count_n(self, n):
        with pytest.raises(DomainError, match="n must be a"):
            so.ScalarValidationSummary(n=n, mean=0.0, variance=1.0)

    def test_degenerate_single_observation_at_mean(self):
        updated = so.update_normal_gamma(
            PRIOR_H1, so.ScalarValidationSummary(n=1, mean=5.0, variance=0.0)
        )
        assert updated.mu0 == 5.0
        assert updated.n_mu == 2.0
        assert updated.n_tau == 2.0
        assert updated.tau0 == pytest.approx(0.02, rel=1e-15)

    def test_hundred_observation_update(self):
        updated = so.update_normal_gamma(
            PRIOR_H1, so.ScalarValidationSummary(n=100, mean=8.0, variance=25.0)
        )
        assert updated.mu0 == pytest.approx(805 / 101, rel=1e-15)
        assert updated.n_mu == 101.0
        assert updated.n_tau == 101.0
        expected_inv_rate = 100.0 + 2500.0 + 100.0 * 9.0 / 101.0
        assert updated.n_tau / updated.tau0 == pytest.approx(expected_inv_rate, rel=1e-12)

    def test_update_matches_per_observation_oracle(self):
        # 50 threes and 50 thirteens have mean 8 and variance 25 exactly;
        # folding them in one at a time must agree with the summary update
        values = [3.0] * 50 + [13.0] * 50
        state = PRIOR_H1
        for v in values:
            state = so.update_normal_gamma(
                state, so.ScalarValidationSummary(n=1, mean=v, variance=0.0)
            )
        summary = so.ScalarValidationSummary.from_values(values)
        assert summary.mean == 8.0 and summary.variance == 25.0
        pooled = so.update_normal_gamma(PRIOR_H1, summary)
        assert state.mu0 == pytest.approx(pooled.mu0, rel=1e-10)
        assert state.n_mu == pytest.approx(pooled.n_mu, rel=1e-10)
        assert state.tau0 == pytest.approx(pooled.tau0, rel=1e-10)
        assert state.n_tau == pytest.approx(pooled.n_tau, rel=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(prior=params_strategy, a=summary_strategy, b=summary_strategy)
    def test_sequential_equals_pooled(self, prior, a, b):
        sequential = so.update_normal_gamma(so.update_normal_gamma(prior, a), b)
        pooled = so.update_normal_gamma(prior, pooled_summary(a, b))
        for name in ("mu0", "n_mu", "tau0", "n_tau"):
            lhs, rhs = getattr(sequential, name), getattr(pooled, name)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestPredictive:
    def test_prior_center_density(self):
        # t with 1 df, scale sqrt(200): center density is 1/(pi sqrt(200))
        assert predictive_density(PRIOR_H1, 5.0) == pytest.approx(
            1.0 / (math.pi * math.sqrt(200.0)), rel=1e-12
        )

    def test_predictive_params(self):
        df, loc, scale = so.predictive_params(PRIOR_H1)
        assert df == 1.0
        assert loc == 5.0
        assert scale**2 == pytest.approx(200.0, rel=1e-12)

    @pytest.mark.parametrize("offset", [1.0, 5.0, 20.0])
    def test_symmetry_about_location(self, offset):
        left = predictive_density(PRIOR_H1, 5.0 - offset)
        right = predictive_density(PRIOR_H1, 5.0 + offset)
        assert left == pytest.approx(right, rel=1e-12)

    def test_bulk_mass_within_200(self):
        mass, _ = integrate.quad(lambda x: predictive_density(PRIOR_H1, x), -200, 200)
        assert mass >= 0.95

    @pytest.mark.parametrize(
        "params",
        [
            PRIOR_H1,
            so.update_normal_gamma(
                PRIOR_H1, so.ScalarValidationSummary(n=100, mean=8.0, variance=25.0)
            ),
        ],
    )
    def test_normalization(self, params):
        mass, err = integrate.quad(
            lambda x: predictive_density(params, x), -math.inf, math.inf
        )
        assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("x", [5.0, 9.0, -3.0])
    def test_matches_mc_blend_oracle(self, x):
        closed = predictive_density(PRIOR_H1, x)
        estimate, se = mc_blend_density(PRIOR_H1, x, n_draws=400_000, rng=mc.RngStream(900))
        assert abs(closed - estimate) < 3 * se


#: Degrees of freedom from the Cauchy-like tail to where the t is a normal
#: to double precision, across the series switch at 50.
T_DFS = [0.5, 1.0, 3.7, 10.0, 49.9, 50.0, 51.0, 120.0, 1e3, 1e4, 1e5, 1e8, 1e12]
T_SCALES = [1e-3, 0.7, 30.0, 1e4]
T_XS = np.array([-1e3, -7.5, -0.3, 0.0, 0.2, 3.0, 41.0, 2e4])
SHAPE_2D = np.array([[2.0, -0.7], [-0.7, 0.9]])
LOC_2D = np.array([0.4, -1.2])
XS_2D = np.array([[0.0, 0.0], [3.1, -2.2], [-40.0, 7.0], [0.4, -1.2], [1e3, 2e3]])


def t_logpdf(xs, df, loc, scale):
    """The package's t log density, on Python floats, at each of ``xs``: its
    d = 1 form for a scalar ``scale``, its d = 2 form for a 2x2 shape matrix."""
    if np.ndim(scale) == 0:
        return np.array([so._t_logpdf(float(x), df, loc, scale) for x in xs])
    loc, scale = np.asarray(loc).tolist(), np.asarray(scale).tolist()
    return np.array([me._t_logpdf(x.tolist(), df, loc, scale) for x in np.asarray(xs)])


def mp_t_logpdf(mpmath, qf, df, d, half_logdet):
    """The d-variate t log density at mpmath's working precision."""
    df = mpmath.mpf(df)
    return float(
        mpmath.loggamma((df + d) / 2) - mpmath.loggamma(df / 2)
        - mpmath.mpf(d) / 2 * mpmath.log(df * mpmath.pi) - half_logdet
        - (df + d) / 2 * mpmath.log1p(qf / df)
    )


class TestStudentTCore:
    @pytest.mark.parametrize("df", T_DFS)
    def test_univariate_matches_scipy(self, df):
        for scale in T_SCALES:
            got = t_logpdf(T_XS, df, 0.3, scale)
            want = stats.t.logpdf(T_XS, df, loc=0.3, scale=scale)
            assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("df", T_DFS)
    def test_bivariate_matches_oracles(self, df):
        mpmath = pytest.importorskip("mpmath")
        for s in (1e-3, 1.0, 1e4):
            shape = SHAPE_2D * s * s
            got = t_logpdf(XS_2D, df, LOC_2D, shape)
            # scipy's multivariate_t differences two gammaln values and
            # takes log(1 + q/df), which lose digits above df of about 1e5
            if df <= 1e5:
                want = stats.multivariate_t(loc=LOC_2D, shape=shape, df=df).logpdf(XS_2D)
                assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(1.0, np.abs(want)))
            with mpmath.workdps(40):
                precision = mpmath.matrix(shape.tolist()) ** -1
                half_logdet = mpmath.log(mpmath.det(mpmath.matrix(shape.tolist()))) / 2
                for x, value in zip(XS_2D, got):
                    dev = mpmath.matrix((x - LOC_2D).tolist())
                    want = mp_t_logpdf(mpmath, (dev.T * precision * dev)[0], df, 2, half_logdet)
                    assert abs(value - want) <= 1e-11 * max(1.0, abs(want))

    @pytest.mark.parametrize("df", T_DFS)
    def test_bivariate_gamma_ratio_is_log_half_df(self, df):
        assert core._t_log_gamma_ratio(df, 2) == math.log(df / 2)

    def test_univariate_gamma_ratio_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for df in T_DFS:
            with mpmath.workdps(40):
                a = mpmath.mpf(df) / 2
                want = float(mpmath.loggamma(a + mpmath.mpf(0.5)) - mpmath.loggamma(a))
            assert core._t_log_gamma_ratio(df, 1) == pytest.approx(want, rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("df", [0.5, 3.7, 120.0, 1e12])
    def test_reports_past_the_overflow_of_z_squared(self, df):
        # z^2 overflows from |z| of about 1.3e154; the log density does not
        mpmath = pytest.importorskip("mpmath")
        xs = np.array([1e150, -2e154, 1e200, 1e300, -1e306])
        pts = np.array([[1e300, 0.0], [0.0, -1e300], [1e200, 3e200], [5e155, 5e155]])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got_1d = t_logpdf(xs, df, 0.3, 7.0)
            got_2d = t_logpdf(pts, df, LOC_2D, SHAPE_2D)
        with mpmath.workdps(40):
            for x, value in zip(xs, got_1d):
                z = (mpmath.mpf(x) - mpmath.mpf(0.3)) / 7
                want = mp_t_logpdf(mpmath, z * z, df, 1, mpmath.log(7))
                assert value == pytest.approx(want, rel=1e-12)
            precision = mpmath.matrix(SHAPE_2D.tolist()) ** -1
            half_logdet = mpmath.log(mpmath.det(mpmath.matrix(SHAPE_2D.tolist()))) / 2
            for x, value in zip(pts, got_2d):
                dev = mpmath.matrix((mpmath.matrix(x.tolist()) - mpmath.matrix(LOC_2D.tolist())))
                want = mp_t_logpdf(mpmath, (dev.T * precision * dev)[0], df, 2, half_logdet)
                assert value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("shape", [SHAPE_2D, np.diag([1e-4, 4e-4])])
    def test_reports_whose_whitening_overflows(self, shape):
        # the whitened report chol^-1 (x - loc) itself overflows to inf, or
        # to nan where the factor has a zero, although x is a finite float
        mpmath = pytest.importorskip("mpmath")
        pts = np.array([[1e308, 1e308], [1.7e308, 1.7e308], [1.7e308, -1.7e308], [-1e308, 3.0],
                        [1e306, 1e308]])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = t_logpdf(pts, 3.7, LOC_2D, shape)
        with mpmath.workdps(40):
            precision = mpmath.matrix(shape.tolist()) ** -1
            half_logdet = mpmath.log(mpmath.det(mpmath.matrix(shape.tolist()))) / 2
            for x, value in zip(pts, got):
                dev = mpmath.matrix(x.tolist()) - mpmath.matrix(LOC_2D.tolist())
                want = mp_t_logpdf(mpmath, (dev.T * precision * dev)[0], 3.7, 2, half_logdet)
                assert value == pytest.approx(want, rel=1e-12)


class TestLrForScalar:
    def test_billion_report_gives_about_two(self):
        est = so.lr_for_scalar(9.0, PRIOR_H1, PRIOR_H2)
        # exact ratio of the two t densities: (1 + 196/200) / (1 + 16/200)
        assert est.lr == pytest.approx((1 + 196 / 200) / (1 + 16 / 200), rel=1e-12)
        assert est.lr == pytest.approx(1.83, abs=0.005)
        assert est.mc_std_err is None

    def test_mirror_symmetric_priors_at_zero(self):
        assert so.lr_for_scalar(0.0, PRIOR_H1, PRIOR_H2).lr == pytest.approx(1.0, rel=1e-12)

    def test_strong_validation_gives_huge_lr(self):
        h1 = so.update_normal_gamma(
            PRIOR_H1, so.ScalarValidationSummary(n=1000, mean=8.0, variance=25.0)
        )
        h2 = so.update_normal_gamma(
            PRIOR_H2, so.ScalarValidationSummary(n=1000, mean=-12.5, variance=25.0)
        )
        assert so.lr_for_scalar(8.0, h1, h2).lr > 1e3

    @given(r=st.floats(-100, 100))
    def test_inversion_is_exact(self, r):
        fwd = so.lr_for_scalar(r, PRIOR_H1, PRIOR_H2)
        rev = so.lr_for_scalar(r, PRIOR_H2, PRIOR_H1)
        assert fwd.log10_lr == -rev.log10_lr

    @pytest.mark.parametrize("r", [1e4, -1e4])
    def test_heavy_tails_pull_lr_to_one(self, r):
        est = so.lr_for_scalar(r, PRIOR_H1, PRIOR_H2)
        assert abs(est.lr - 1.0) < 0.01


class TestCurve:
    def test_prior_curve_peaks_below_three(self):
        curve = so.lr_curve(PRIOR_H1, PRIOR_H2, np.linspace(-30, 30, 601))
        assert max(curve.lr) < 3.0
        # analytic maximum of the prior density ratio is 2, attained at r = 15
        assert max(curve.lr) == pytest.approx(2.0, abs=1e-3)

    def test_monotone_between_locations(self):
        grid = np.linspace(-5.0, 5.0, 201)
        curve = so.lr_curve(PRIOR_H1, PRIOR_H2, grid)
        assert np.all(np.diff(np.asarray(curve.log10_lr)) > 0)

    def test_more_validation_data_sharpens_lr(self):
        lrs = {}
        for n in (10, 1000):
            h1 = so.update_normal_gamma(
                PRIOR_H1, so.ScalarValidationSummary(n=n, mean=8.0, variance=25.0)
            )
            h2 = so.update_normal_gamma(
                PRIOR_H2, so.ScalarValidationSummary(n=n, mean=-12.5, variance=25.0)
            )
            lrs[n] = abs(so.lr_for_scalar(8.0, h1, h2).log10_lr)
        assert lrs[1000] > lrs[10]

    def test_curve_rows_align_with_lr_for_scalar(self):
        grid = [-2.0, 0.0, 7.5]
        curve = so.lr_curve(PRIOR_H1, PRIOR_H2, grid)
        for (r, d1, d2, lr) in curve.rows():
            assert lr == pytest.approx(so.lr_for_scalar(r, PRIOR_H1, PRIOR_H2).lr, rel=1e-12)
            assert d1 == pytest.approx(predictive_density(PRIOR_H1, r), rel=1e-12)
            assert d2 == pytest.approx(predictive_density(PRIOR_H2, r), rel=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            so.lr_curve(PRIOR_H1, PRIOR_H2, [])

    def test_rows_saturate_beyond_float_range(self):
        # |log10 LR| reaches 1501.5 on this grid: the linear LR is inf above
        # log10 of the largest float and 0.0 below that of half the smallest
        # subnormal, without a RuntimeWarning
        h1 = so.NormalGammaParams(5.0, 1000.0, 1e4, 1000.0)
        h2 = so.NormalGammaParams(-5.0, 1000.0, 1e4, 1000.0)
        curve = so.lr_curve(h1, h2, np.linspace(-30, 30, 121))
        log10_lr = np.asarray(curve.log10_lr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lr = np.array([row[3] for row in curve.rows()])
        top = math.log10(sys.float_info.max)
        bottom = math.log10(math.ulp(0.0)) - math.log10(2.0)
        assert np.array_equal(lr == math.inf, log10_lr > top)
        assert np.array_equal(lr == 0.0, log10_lr < bottom)
        assert np.sum((lr == math.inf) | (lr == 0.0)) == 51
        normal = np.abs(log10_lr) < 307
        np.testing.assert_allclose(np.log10(lr[normal]), log10_lr[normal], rtol=1e-14)
