"""Normal-Wishart updates, bivariate-t marginals, and the pair LR."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from evidential_weight import mc
from evidential_weight import multi_expert as me
from evidential_weight.errors import DomainError
from mc_oracles import integrate_2d, mc_predictive_logdensity

H1, H2 = me.PRIOR_PRESETS["default"]
X_PAIR = np.array([2.0, math.log10(30.0)])


def inv22(m: np.ndarray) -> np.ndarray:
    """Explicit 2x2 inverse, kept independent of numpy.linalg."""
    (a, b), (c, d) = m
    det = a * d - b * c
    return np.array([[d, -b], [-c, a]]) / det


def summaries(strategy=None):
    vecs = st.tuples(st.floats(-10, 10), st.floats(-10, 10))
    return st.builds(
        lambda m, mean, diag, off: me.PairedLrSummary(
            m=m,
            mean=np.array(mean),
            scatter=m * np.array([[diag[0], off], [off, diag[1]]]),
        ),
        m=st.integers(1, 500),
        mean=vecs,
        diag=st.tuples(st.floats(1.0, 10.0), st.floats(1.0, 10.0)),
        off=st.floats(-0.5, 0.5),
    )


class TestTypes:
    def test_lambda_must_be_symmetric(self):
        with pytest.raises(DomainError):
            me.NormalWishartParams(
                mu0=np.zeros(2), k0=1.0,
                lambda0=np.array([[1.0, 0.3], [0.2, 1.0]]), n0=2.0,
            )

    def test_lambda_must_be_positive_definite(self):
        with pytest.raises(DomainError):
            me.NormalWishartParams(
                mu0=np.zeros(2), k0=1.0,
                lambda0=np.array([[1.0, 2.0], [2.0, 1.0]]), n0=2.0,
            )

    # lambda0 needs every eigenvalue > 0; scatter tolerates rounding down
    # to -1e-9 max(1, its largest eigenvalue)
    @pytest.mark.parametrize("name, diagonal, ok", [
        ("lambda0", (1.0, 1e-300), True),
        ("lambda0", (1.0, 0.0), False),
        ("scatter", (1.0, 0.0), True),
        ("scatter", (1.0, -1e-9), True),
        ("scatter", (1.0, -2e-9), False),
        ("scatter", (1.0, -1e-3), False),
        ("scatter", (1e12, -1e2), True),
        ("scatter", (1e12, -1e4), False),
    ])
    def test_matrix_eigenvalue_floor(self, name, diagonal, ok):
        matrix = np.diag(diagonal)

        def make():
            if name == "lambda0":
                return me.NormalWishartParams(mu0=np.zeros(2), k0=1.0, lambda0=matrix, n0=2.0)
            return me.PairedLrSummary(m=2, mean=np.zeros(2), scatter=matrix)

        if ok:
            make()
        else:
            with pytest.raises(DomainError, match=f"{name} must be positive"):
                make()

    def test_rank_one_scatter_of_two_rows_accepted(self):
        # two rows give a rank-1 scatter, whose computed smaller eigenvalue
        # is rounding noise of about 1e-16 times the larger, of either sign
        rng = np.random.default_rng(18)
        for _ in range(2000):
            rows = rng.choice([-1.0, 1.0], (2, 2)) * 10.0 ** rng.uniform(3, 12, (2, 2))
            summary = me.PairedLrSummary.from_values(rows.tolist())
            assert summary.m == 2

    @pytest.mark.parametrize("m", [math.inf, math.nan, 0, 2.5])
    def test_summary_rejects_non_count_m(self, m):
        with pytest.raises(DomainError, match="m must be a"):
            me.PairedLrSummary(m=m, mean=np.zeros(2), scatter=np.eye(2))

    def test_n0_at_least_dimension(self):
        with pytest.raises(DomainError):
            me.NormalWishartParams(mu0=np.zeros(2), k0=1.0, lambda0=np.eye(2), n0=1.5)

    def test_summary_from_values(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        summary = me.PairedLrSummary.from_values(values)
        assert summary.m == 3
        np.testing.assert_allclose(summary.mean, [3.0, 2.0])
        centered = values - values.mean(axis=0)
        np.testing.assert_allclose(summary.scatter, centered.T @ centered)


class TestUpdate:
    def test_data_at_prior_mean_with_zero_scatter(self):
        data = me.PairedLrSummary(m=1, mean=np.array(H1.mu0), scatter=np.zeros((2, 2)))
        updated = me.posterior_params(H1, data, "scale")
        np.testing.assert_allclose(updated.mu0, H1.mu0)
        np.testing.assert_allclose(updated.lambda0, H1.lambda0, rtol=1e-12)
        assert updated.k0 == H1.k0 + 1
        assert updated.n0 == H1.n0 + 1

    def test_ten_observation_update_against_explicit_algebra(self):
        m = 10
        data = me.PairedLrSummary(
            m=m, mean=np.array([3.5, 2.5]), scatter=m * np.array([[5.0, 4.0], [4.0, 5.0]])
        )
        updated = me.posterior_params(H1, data, "scale")

        diff = np.subtract(data.mean, H1.mu0)
        expected_inv = (
            inv22(H1.lambda0) + data.scatter
            + (H1.k0 * m / (H1.k0 + m)) * np.outer(diff, diff)
        )
        np.testing.assert_allclose(updated.lambda0, inv22(expected_inv), rtol=1e-12)
        np.testing.assert_allclose(updated.mu0, [45 / 12, 35 / 12], rtol=1e-14)
        assert updated.k0 == 12.0
        assert updated.n0 == 12.0

    @settings(max_examples=60, deadline=None)
    @given(a=summaries(), b=summaries())
    def test_sequential_equals_pooled(self, a, b):
        pooled_m = a.m + b.m
        pooled_mean = (a.m * np.asarray(a.mean) + b.m * np.asarray(b.mean)) / pooled_m
        pooled_scatter = (
            np.add(a.scatter, b.scatter)
            + a.m * np.outer(a.mean - pooled_mean, a.mean - pooled_mean)
            + b.m * np.outer(b.mean - pooled_mean, b.mean - pooled_mean)
        )
        pooled = me.PairedLrSummary(m=pooled_m, mean=pooled_mean,
                                    scatter=0.5 * (pooled_scatter + pooled_scatter.T))
        two_step = me.posterior_params(me.posterior_params(H1, a, "scale"), b, "scale")
        one_step = me.posterior_params(H1, pooled, "scale")
        np.testing.assert_allclose(two_step.mu0, one_step.mu0, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(two_step.lambda0, one_step.lambda0, rtol=1e-10, atol=1e-14)
        assert two_step.k0 == pytest.approx(one_step.k0, rel=1e-12)
        assert two_step.n0 == pytest.approx(one_step.n0, rel=1e-12)

    def test_outputs_symmetric_positive_definite(self):
        state = H1
        for m in (1, 5, 50):
            state = me.posterior_params(state, me.default_sweep_data(m)[0], "scale")
            lam = np.asarray(state.lambda0)
            assert np.max(np.abs(lam - lam.T)) < 1e-10
            assert np.min(np.linalg.eigvalsh(lam)) > 0

    def test_rate_reading_update_is_additive(self):
        data = me.default_sweep_data(10)[0]
        updated = me.posterior_params(H1, data, wishart_matrix="rate")
        diff = np.subtract(data.mean, H1.mu0)
        expected = np.add(H1.lambda0, data.scatter) + (2.0 * 10 / 12) * np.outer(diff, diff)
        np.testing.assert_allclose(updated.lambda0, expected, rtol=1e-12)


class TestBivariateT:
    def test_scale_reading_matches_stated_formula(self):
        df, loc, scale = me.bivariate_t_params(H1, "n0", "scale")
        factor = H1.k0 * (H1.n0 - 1.0) / (H1.k0 + 1.0)
        np.testing.assert_allclose(scale, inv22(factor * np.asarray(H1.lambda0)), rtol=1e-12)
        assert df == 2.0
        np.testing.assert_allclose(loc, H1.mu0)

    def test_rate_reading_flips_orientation(self):
        _, _, scale = me.bivariate_t_params(H1, "n0", "rate")
        factor = H1.k0 * (H1.n0 - 1.0) / (H1.k0 + 1.0)
        np.testing.assert_allclose(scale, np.asarray(H1.lambda0) / factor, rtol=1e-12)

    def test_density_maximal_at_location_with_flat_gradient(self):
        center = me.bivariate_t_logdensity(H1, H1.mu0)
        h = 1e-6
        for direction in (np.array([h, 0.0]), np.array([0.0, h])):
            up = me.bivariate_t_logdensity(H1, H1.mu0 + direction)
            down = me.bivariate_t_logdensity(H1, H1.mu0 - direction)
            assert (up - down) / (2 * h) == pytest.approx(0.0, abs=1e-6)
            assert up < center

    def test_elliptical_symmetry(self):
        gen = mc.RngStream(13).generator()
        for _ in range(5):
            d = gen.normal(size=2)
            plus = me.bivariate_t_logdensity(H1, H1.mu0 + d)
            minus = me.bivariate_t_logdensity(H1, H1.mu0 - d)
            assert plus == pytest.approx(minus, rel=1e-12)

    @pytest.mark.parametrize("df_conv,wishart", [("n0", "rate"), ("n0-1", "scale")])
    def test_density_integrates_to_one(self, df_conv, wishart):
        df, loc, scale = me.bivariate_t_params(H1, df_conv, wishart)
        prec = inv22(scale)
        log_norm = (
            math.lgamma((df + 2) / 2) - math.lgamma(df / 2)
            - math.log(df * math.pi) - 0.5 * math.log(np.linalg.det(scale))
        )

        def density(x, y):
            dx, dy = x - loc[0], y - loc[1]
            qf = prec[0, 0] * dx**2 + 2 * prec[0, 1] * dx * dy + prec[1, 1] * dy**2
            return np.exp(log_norm - ((df + 2) / 2) * np.log1p(qf / df))

        # the vectorized form above must match the module pointwise
        for point in ([0.0, 0.0], [3.0, -1.0], list(loc)):
            assert density(point[0], point[1]) == pytest.approx(
                math.exp(me.bivariate_t_logdensity(H1, point, df_conv, wishart)), rel=1e-12
            )

        # nested boxes resolve the peak and reach the power-law tails
        sigma = math.sqrt(max(np.diag(scale)))
        radii = [8.0 * sigma, 64.0 * sigma, 2000.0 * sigma]
        mass = integrate_2d(
            density,
            mc.QuadratureSpec(loc[0] - radii[0], loc[0] + radii[0],
                              loc[1] - radii[0], loc[1] + radii[0],
                              rel_tol=1e-7, max_refinements=7),
        )
        for inner, outer in zip(radii, radii[1:]):
            for (alo, ahi, blo, bhi) in (
                (loc[0] - outer, loc[0] - inner, loc[1] - outer, loc[1] + outer),
                (loc[0] + inner, loc[0] + outer, loc[1] - outer, loc[1] + outer),
                (loc[0] - inner, loc[0] + inner, loc[1] - outer, loc[1] - inner),
                (loc[0] - inner, loc[0] + inner, loc[1] + inner, loc[1] + outer),
            ):
                mass += integrate_2d(
                    density,
                    mc.QuadratureSpec(alo, ahi, blo, bhi, rel_tol=1e-7, max_refinements=7),
                )
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_matches_scipy_multivariate_t(self):
        for df_conv in ("n0", "n0-1"):
            for wishart in ("scale", "rate"):
                df, loc, scale = me.bivariate_t_params(H1, df_conv, wishart)
                expected = stats.multivariate_t(loc=loc, shape=scale, df=df).logpdf(X_PAIR)
                got = me.bivariate_t_logdensity(H1, X_PAIR, df_conv, wishart)
                assert got == pytest.approx(float(expected), rel=1e-12)

    @pytest.mark.parametrize("wishart", ["scale", "rate"])
    def test_mc_oracle_agrees_with_conjugate_df(self, wishart):
        # the sampled marginal is the closed form at df = n0 - 1
        gen = mc.RngStream(14).generator()
        scale = me.bivariate_t_params(H1, "n0-1", wishart)[2]
        spread = math.sqrt(max(np.diag(scale)))
        probes = H1.mu0 + gen.normal(scale=1.5 * spread, size=(20, 2))
        for i, point in enumerate(probes):
            closed = me.bivariate_t_logdensity(H1, point, "n0-1", wishart)
            sampled, se = mc_predictive_logdensity(
                H1, point, n_draws=150_000, rng=mc.RngStream(500 + i), wishart_matrix=wishart
            )
            assert abs(sampled - closed) < 3 * max(se, 1e-3)


class TestLrForPair:
    def test_headline_value_under_rate_n0_reading(self):
        est = me.lr_for_pair(X_PAIR, H1, H2, "n0", "rate")
        assert est.lr == pytest.approx(4.35, rel=0.05)
        assert est.lr == pytest.approx(4.4605, rel=1e-3)

    def test_literal_formula_readings_are_modest(self):
        assert me.lr_for_pair(X_PAIR, H1, H2, "n0", "scale").lr == pytest.approx(1.4085, rel=1e-3)
        assert me.lr_for_pair(X_PAIR, H1, H2, "n0-1", "scale").lr == pytest.approx(1.5346, rel=1e-3)

    @pytest.mark.parametrize("df_conv, wishart, readme_lr", [
        ("n0", "scale", 1.41), ("n0-1", "scale", 1.53), ("n0-1", "rate", 3.07), ("n0", "rate", 4.46),
    ])
    def test_readme_reading_table(self, df_conv, wishart, readme_lr):
        x = np.array([2.0, 1.4771])
        assert me.lr_for_pair(x, H1, H2, df_conv, wishart).lr == pytest.approx(
            readme_lr, abs=0.005
        )

    def test_identical_params_give_unit_lr(self):
        gen = mc.RngStream(15).generator()
        for _ in range(5):
            x = gen.normal(scale=5.0, size=2)
            assert me.lr_for_pair(x, H1, H1).lr == 1.0

    def test_swapping_scenarios_inverts(self):
        fwd = me.lr_for_pair(X_PAIR, H1, H2)
        rev = me.lr_for_pair(X_PAIR, H2, H1)
        assert fwd.log10_lr == -rev.log10_lr

    def test_permutation_equivariance(self):
        # relabeling the two experts everywhere leaves the LR unchanged
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])

        def permuted(params: me.NormalWishartParams) -> me.NormalWishartParams:
            return me.NormalWishartParams(
                mu0=np.array(params.mu0[::-1]),
                k0=params.k0,
                lambda0=swap @ params.lambda0 @ swap,
                n0=params.n0,
            )

        direct = me.lr_for_pair(X_PAIR, H1, H2)
        relabeled = me.lr_for_pair(X_PAIR[::-1], permuted(H1), permuted(H2))
        assert direct.log10_lr == pytest.approx(relabeled.log10_lr, rel=1e-12)

    def test_closed_form_has_no_mc_error(self):
        assert me.lr_for_pair(X_PAIR, H1, H2).mc_std_err is None


class TestSweep:
    @pytest.mark.parametrize(
        "df_conv,wishart", [("n0", "rate"), ("n0", "scale"), ("n0-1", "scale")]
    )
    def test_validation_data_increases_weight(self, df_conv, wishart):
        sweep = me.pair_lr_sweep(X_PAIR, H1, H2, [0, 100], df_convention=df_conv,
                                 wishart_matrix=wishart)
        assert sweep.estimate(100).lr > sweep.estimate(0).lr

    @pytest.mark.parametrize("wishart", ["scale", "rate"])
    def test_limit_is_fitted_normal_ratio(self, wishart):
        sweep = me.pair_lr_sweep(X_PAIR, H1, H2, [10_000], wishart_matrix=wishart)
        cov = me.SWEEP_COVARIANCE
        limit = stats.multivariate_normal(me.SWEEP_MEAN_H1, cov).pdf(X_PAIR) / \
            stats.multivariate_normal(me.SWEEP_MEAN_H2, cov).pdf(X_PAIR)
        assert sweep.estimate(10_000).lr == pytest.approx(limit, rel=0.10)

    def test_empty_sizes_rejected(self):
        with pytest.raises(DomainError):
            me.pair_lr_sweep(X_PAIR, H1, H2, [])
