"""Interval decomposition and the gamma-conjugate width model.

The module integrates the rate in closed form and the shape by a
Gauss-Legendre ladder in log alpha.  Two oracles check it by other
routes: ``oracle_width_density`` keeps the closed-form rate but
integrates the shape in linear alpha with QUADPACK, and
``two_d_width_density`` integrates both axes numerically with the
tensor rule ``mc_oracles.integrate_2d``, sharing no code with the
module's width route.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize
from scipy.special import gammainc, gammaln

from evidential_weight import interval_opinion as io
from evidential_weight import mc, scalar_opinion as so
from evidential_weight.errors import DomainError
from mc_oracles import integrate_2d

PRIOR_WIDTH = io.GammaConjParams.from_p(9.0, 6.0, 2.0, 2.0)
MID_H1 = so.NormalGammaParams(5.0, 1.0, 0.01, 1.0)
MID_H2 = so.NormalGammaParams(-5.0, 1.0, 0.01, 1.0)
BOX = io.DEFAULT_WIDTH_QUAD_SPEC


def updated_width(prior: io.GammaConjParams, n: int, mean: float, geo_mean: float):
    return io.update_gamma_conj_stats(
        prior, n=n, total=mean * n, log_product=n * math.log(geo_mean)
    )


POST_H1 = updated_width(PRIOR_WIDTH, 100, 5.0, 4.5)
POST_H2 = updated_width(PRIOR_WIDTH, 100, 2.5, 2.0)


def oracle_width_density(params: io.GammaConjParams, w: float) -> float:
    """Width density via the closed-form rate integral plus 1-D quadrature.

    For each shape value the truncated rate integral is an incomplete
    gamma difference, so only the shape axis needs numerical treatment.
    """

    def log_rate_integral(a_power: np.ndarray, rate: float) -> np.ndarray:
        # integral of beta^a_power * exp(-rate beta) over the box's rate axis
        shape_param = a_power + 1.0
        frac = gammainc(shape_param, rate * BOX.b_hi) - gammainc(shape_param, rate * BOX.b_lo)
        return gammaln(shape_param) - shape_param * np.log(rate) + np.log(frac)

    def log_numerator_integrand(alpha: np.ndarray) -> np.ndarray:
        return (
            (alpha - 1.0) * params.log_p
            + (alpha - 1.0) * math.log(w)
            - (params.r + 1.0) * gammaln(alpha)
            + log_rate_integral(alpha * (params.s + 1.0), params.q + w)
        )

    def log_normalizer_integrand(alpha: np.ndarray) -> np.ndarray:
        return (
            (alpha - 1.0) * params.log_p
            - params.r * gammaln(alpha)
            + log_rate_integral(alpha * params.s, params.q)
        )

    def log_alpha_integral(log_f) -> float:
        def at(a: float) -> float:
            return float(log_f(np.array([a]))[0])

        # The peak is refined off a grid scan, and adaptive quadrature gets
        # breakpoints at a few curvature widths around it, so that a posterior
        # peak much narrower than the grid spacing is not stepped over.
        grid = np.linspace(BOX.a_lo, BOX.a_hi, 4001)
        top = int(np.argmax(log_f(grid)))
        peak = optimize.minimize_scalar(
            lambda a: -at(a),
            bounds=(grid[max(top - 1, 0)], grid[min(top + 1, grid.size - 1)]),
            method="bounded", options={"xatol": 1e-12},
        ).x
        shift = at(peak)
        step = 1e-4 * peak
        curvature = (at(peak + step) - 2.0 * shift + at(peak - step)) / step**2
        points = None
        if curvature < 0.0 and BOX.a_lo < peak - step and peak + step < BOX.a_hi:
            width = (-curvature) ** -0.5
            points = [
                peak + m * width for m in (-16, -4, -1, 0, 1, 4, 16)
                if BOX.a_lo < peak + m * width < BOX.a_hi
            ]
        value, _ = integrate.quad(
            lambda a: math.exp(at(a) - shift), BOX.a_lo, BOX.a_hi, points=points, limit=400
        )
        return shift + math.log(value)

    return math.exp(
        log_alpha_integral(log_numerator_integrand)
        - log_alpha_integral(log_normalizer_integrand)
    )


def two_d_width_density(
    params: io.GammaConjParams, w: float, log_box: tuple[float, float, float, float]
) -> float:
    """Width density as a ratio of two 2-D tensor Gauss-Legendre integrals.

    Both integrals run over ``log_box`` = (log alpha lo, hi, log beta lo,
    hi) with the Jacobian alpha * beta folded in.  Each integrand is scaled
    by its maximum on a scan grid so that the linear-scale rule does not
    underflow.
    """

    def log_hyperprior(u, v):
        alpha, beta = np.exp(u), np.exp(v)
        return (
            (alpha - 1.0) * params.log_p - params.q * beta + params.s * alpha * v
            - params.r * gammaln(alpha) + u + v
        )

    def log_joint(u, v):
        alpha, beta = np.exp(u), np.exp(v)
        log_gamma_pdf = alpha * v + (alpha - 1.0) * math.log(w) - beta * w - gammaln(alpha)
        return log_hyperprior(u, v) + log_gamma_pdf

    spec = mc.QuadratureSpec(*log_box, rel_tol=1e-10, max_refinements=4, base_panels=32)
    uu, vv = np.meshgrid(
        np.linspace(log_box[0], log_box[1], 200), np.linspace(log_box[2], log_box[3], 200)
    )

    def log_integral(log_f) -> float:
        shift = float(np.max(log_f(uu, vv)))
        return shift + math.log(integrate_2d(lambda u, v: np.exp(log_f(u, v) - shift), spec))

    return math.exp(log_integral(log_joint) - log_integral(log_hyperprior))


class TestSplitInterval:
    def test_hundred_million_to_ten_billion(self):
        iv = io.LrInterval(1e8, 1e10)
        assert (iv.midpoint, iv.width) == (9.0, 2.0)

    def test_decade_interval(self):
        iv = io.LrInterval(10.0, 100.0)
        assert iv.midpoint == pytest.approx(1.5, rel=1e-12)
        assert iv.width == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(DomainError):
            io.LrInterval(5.0, 5.0)

    def test_nonpositive_endpoint_rejected(self):
        with pytest.raises(DomainError):
            io.LrInterval(0.0, 5.0)


class TestUpdate:
    def test_pseudo_observation_statistics(self):
        n = 7
        updated = updated_width(PRIOR_WIDTH, n, 5.0, 4.5)
        assert updated.log_p == pytest.approx(math.log(9) + n * math.log(4.5), rel=1e-12)
        assert updated.q == pytest.approx(6.0 + 5.0 * n, rel=1e-12)
        assert updated.r == 2.0 + n
        assert updated.s == 2.0 + n

    def test_empty_widths_rejected(self):
        with pytest.raises(DomainError):
            io.update_gamma_conj(PRIOR_WIDTH, [])

    def test_nonpositive_width_rejected(self):
        with pytest.raises(DomainError):
            io.update_gamma_conj(PRIOR_WIDTH, [1.0, -2.0])

    def test_update_from_values_matches_stats(self):
        widths = [0.5, 2.0, 3.25, 1.75]
        via_values = io.update_gamma_conj(PRIOR_WIDTH, widths)
        via_stats = io.update_gamma_conj_stats(
            PRIOR_WIDTH, n=4, total=sum(widths),
            log_product=sum(math.log(v) for v in widths),
        )
        assert via_values == via_stats

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.lists(st.floats(0.1, 50), min_size=1, max_size=10),
        b=st.lists(st.floats(0.1, 50), min_size=1, max_size=10),
    )
    def test_sequential_equals_pooled(self, a, b):
        sequential = io.update_gamma_conj(io.update_gamma_conj(PRIOR_WIDTH, a), b)
        pooled = io.update_gamma_conj(PRIOR_WIDTH, a + b)
        assert sequential.log_p == pytest.approx(pooled.log_p, rel=1e-12)
        assert sequential.q == pytest.approx(pooled.q, rel=1e-12)
        assert sequential.r == pooled.r
        assert sequential.s == pooled.s

    def test_log_space_survives_large_products(self):
        updated = updated_width(PRIOR_WIDTH, 500, 5.0, 4.5)
        assert math.isfinite(updated.log_p)


@pytest.fixture(autouse=True)
def quiet_truncation_warning():
    # the packaged hyperprior intentionally trips the truncation guard
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


class TestWidthDensity:
    def test_prior_density_regression_value(self):
        assert io.width_predictive_density(PRIOR_WIDTH, 3.0) == pytest.approx(
            0.69941, rel=2e-4
        )

    @pytest.mark.parametrize("w", [0.5, 2.0, 3.0, 5.0, 8.0])
    def test_matches_rate_reduction_oracle_prior(self, w):
        module = io.width_predictive_density(PRIOR_WIDTH, w)
        oracle = oracle_width_density(PRIOR_WIDTH, w)
        assert module == pytest.approx(oracle, rel=2e-4)

    @pytest.mark.parametrize("w", [2.0, 5.0])
    def test_matches_rate_reduction_oracle_posterior(self, w):
        module = io.width_predictive_density(POST_H1, w)
        oracle = oracle_width_density(POST_H1, w)
        assert module == pytest.approx(oracle, rel=2e-4)

    def test_matches_rate_reduction_oracle_large_posterior(self):
        # a million widths: the shape posterior is far narrower than the box
        params = updated_width(PRIOR_WIDTH, 1_000_000, 5.0, 4.5)
        for w in (2.0, 5.0, 8.0):
            module = io.width_predictive_density(params, w)
            assert module == pytest.approx(oracle_width_density(params, w), rel=1e-6)

    @pytest.mark.parametrize(
        "params, w, log_box",
        [
            (PRIOR_WIDTH, 0.5, (math.log(BOX.a_lo), math.log(BOX.a_hi),
                                math.log(BOX.b_lo), math.log(BOX.b_hi))),
            (PRIOR_WIDTH, 3.0, (math.log(BOX.a_lo), math.log(BOX.a_hi),
                                math.log(BOX.b_lo), math.log(BOX.b_hi))),
            # the n = 100 posterior sits near (alpha, beta) = (5, 1); the box
            # spans many posterior widths in both log coordinates
            (POST_H1, 2.0, (math.log(5.0) - 1.5, math.log(5.0) + 1.5, -1.5, 1.5)),
            (POST_H1, 5.0, (math.log(5.0) - 1.5, math.log(5.0) + 1.5, -1.5, 1.5)),
        ],
    )
    def test_matches_2d_tensor_quadrature(self, params, w, log_box):
        module = io.width_predictive_density(params, w)
        assert module == pytest.approx(two_d_width_density(params, w, log_box), rel=1e-6)

    def test_skipped_negligible_tails_change_nothing(self, monkeypatch):
        grid = np.concatenate([np.linspace(0.2, 10.0, 25), [1e5, 1e7]])
        pruned = io.width_curve(POST_H1, PRIOR_WIDTH, grid)
        monkeypatch.setattr(io, "_NEGLIGIBLE_LOG_TAIL", -np.inf)
        monkeypatch.setattr(io, "_normalizer_cache", {})
        full = io.width_curve(POST_H1, PRIOR_WIDTH, grid)
        for a, b in ((pruned.log_density_h1, full.log_density_h1),
                     (pruned.log_density_h2, full.log_density_h2)):
            np.testing.assert_allclose(a, b, rtol=1e-15, atol=0)

    def test_curve_matches_pointwise_densities(self):
        grid = np.linspace(0.2, 10.0, 50)
        curve = io.width_curve(POST_H1, PRIOR_WIDTH, grid)
        for densities, params in ((curve.density_h1, POST_H1), (curve.density_h2, PRIOR_WIDTH)):
            pointwise = [io.width_predictive_density(params, w) for w in grid]
            np.testing.assert_allclose(densities, pointwise, rtol=1e-12)

    # at (2, 5e4) both lower incomplete-gamma tails round to 1, so their
    # difference is exactly 0 and only the upper-tail route stays finite;
    # from c b_lo of about 700 on the regularized upper tails underflow too,
    # and only their log-space difference stays finite
    @pytest.mark.parametrize("k, c", [
        (2.0, 5e4), (3.0, 6.0), (4e3, 5e4),
        (1.0, 7.1e5), (1.0, 1e6), (120.0, 1e7), (2.5, 2e9), (5e3, 1e7),
    ])
    def test_log_rate_integral_matches_quad(self, k, c):
        lo, hi = BOX.b_lo, BOX.b_hi
        value = io._log_rate_integral(k, c, lo, hi)
        mode = min(max((k - 1.0) / c, lo), hi)
        shift = (k - 1.0) * math.log(mode) - c * mode
        spread = math.sqrt(k) / c
        points = [
            mode + m * spread for m in (-64, -16, -4, -1, 1, 4, 16, 64)
            if lo < mode + m * spread < hi
        ]
        reference, _ = integrate.quad(
            lambda b: math.exp((k - 1.0) * math.log(b) - c * b - shift), lo, hi,
            points=points, epsabs=0.0, epsrel=1e-12, limit=400,
        )
        assert math.isfinite(value)
        assert value == pytest.approx(shift + math.log(reference), abs=1e-10)

    def test_positive_and_unimodal_on_profile(self):
        grid = np.linspace(0.25, 20.0, 80)
        dens = np.array([io.width_predictive_density(PRIOR_WIDTH, w) for w in grid])
        assert np.all(dens > 0)
        peak = int(np.argmax(dens))
        assert np.all(np.diff(dens[: peak + 1]) > 0)
        assert np.all(np.diff(dens[peak:]) < 0)

    def test_normalizes_over_widths(self):
        mass, _ = integrate.quad(
            lambda w: io.width_predictive_density(PRIOR_WIDTH, w), 1e-9, 100.0, limit=300
        )
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_identical_params_identical_density(self):
        other = io.GammaConjParams.from_p(9.0, 6.0, 2.0, 2.0)
        for w in (0.5, 2.0, 7.0):
            assert io.width_predictive_density(PRIOR_WIDTH, w) == io.width_predictive_density(
                other, w
            )

    def test_boundary_diagnostics(self):
        prior_diag = io.width_normalizer_diagnostics(PRIOR_WIDTH)
        post_diag = io.width_normalizer_diagnostics(POST_H1)
        # the packaged hyperprior leans on the shape-axis edge; a strong
        # posterior sits far inside the box
        assert prior_diag["boundary_mass_fraction"] > io.BOUNDARY_MASS_LIMIT
        assert post_diag["boundary_mass_fraction"] < io.BOUNDARY_MASS_LIMIT

    def test_rejects_nonpositive_width(self):
        with pytest.raises(DomainError):
            io.width_predictive_density(PRIOR_WIDTH, 0.0)


class TestLrForInterval:
    def test_symmetric_width_priors_give_unit_lr_w(self):
        curve = io.width_curve(PRIOR_WIDTH, PRIOR_WIDTH, np.linspace(0.4, 20.0, 50))
        np.testing.assert_allclose(curve.lr_w, 1.0, rtol=1e-12)

    def test_unit_width_factor_composition(self):
        result = io.lr_for_interval(io.LrInterval(1e8, 1e10), MID_H1, MID_H2,
                                    PRIOR_WIDTH, PRIOR_WIDTH)
        assert result.lr_w == 1.0
        assert result.lr_m == pytest.approx(so.lr_for_scalar(9.0, MID_H1, MID_H2).lr, rel=1e-12)
        assert result.estimate.lr == pytest.approx(result.lr_m, rel=1e-12)

    def test_posterior_width_factor_directions(self):
        wide = io.lr_for_interval(io.LrInterval(1.0, 10.0**5.0), MID_H1, MID_H2,
                                  POST_H1, POST_H2)
        narrow = io.lr_for_interval(io.LrInterval(1.0, 10.0**2.0), MID_H1, MID_H2,
                                    POST_H1, POST_H2)
        assert wide.lr_w > 1.0
        assert narrow.lr_w < 1.0

    @settings(max_examples=20, deadline=None)
    @given(
        lo_log=st.floats(-3, 8),
        width=st.floats(0.5, 6),
    )
    def test_factorization_exact(self, lo_log, width):
        iv = io.LrInterval(10.0**lo_log, 10.0 ** (lo_log + width))
        result = io.lr_for_interval(iv, MID_H1, MID_H2, POST_H1, POST_H2)
        assert result.estimate.lr == pytest.approx(result.lr_m * result.lr_w, rel=1e-12)

    def test_lr_w_invariant_to_midpoint_shift(self):
        a = io.lr_for_interval(io.LrInterval(1e2, 1e5), MID_H1, MID_H2, POST_H1, POST_H2)
        b = io.lr_for_interval(io.LrInterval(1e6, 1e9), MID_H1, MID_H2, POST_H1, POST_H2)
        assert a.lr_w == pytest.approx(b.lr_w, rel=1e-12)
        assert a.lr_m != pytest.approx(b.lr_m, rel=1e-3)

    def test_swapping_width_params_inverts_lr_w(self):
        iv = io.LrInterval(1e2, 1e6)
        fwd = io.lr_for_interval(iv, MID_H1, MID_H2, POST_H1, POST_H2)
        rev = io.lr_for_interval(iv, MID_H1, MID_H2, POST_H2, POST_H1)
        assert fwd.lr_w * rev.lr_w == pytest.approx(1.0, rel=1e-12)


class TestPosteriorConcentration:
    def test_predictive_mean_approaches_data_mean(self):
        # quadrature-weighted sampling from the width predictive at n = 10^4
        params = updated_width(PRIOR_WIDTH, 10_000, 5.0, 4.5)
        u = np.linspace(math.log(BOX.a_lo), math.log(BOX.a_hi), 600)
        v = np.linspace(math.log(BOX.b_lo), math.log(BOX.b_hi), 600)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        alpha, beta = np.exp(uu), np.exp(vv)
        logw = (
            (alpha - 1.0) * params.log_p
            - params.q * beta
            + params.s * alpha * np.log(beta)
            - params.r * gammaln(alpha)
            + uu + vv
        )
        weights = np.exp(logw - logw.max()).ravel()
        weights /= weights.sum()
        gen = mc.RngStream(77).generator()
        idx = gen.choice(weights.size, size=200_000, p=weights)
        draws = gen.gamma(alpha.ravel()[idx], 1.0 / beta.ravel()[idx])
        assert abs(draws.mean() - 5.0) / 5.0 < 0.02
