"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``PASS criterion N`` line (visible with
``pytest -s`` or on failure) so the suite doubles as a checklist.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from evidential_weight import (
    categorical as cat,
    cli,
    coin_oracle as co,
    core,
    interval_opinion as io,
    mc,
    multi_expert as me,
    scalar_opinion as so,
)

SCALAR_H1 = so.NormalGammaParams(5.0, 1.0, 0.01, 1.0)
SCALAR_H2 = so.NormalGammaParams(-5.0, 1.0, 0.01, 1.0)
WIDTH_PRIOR = io.GammaConjParams.from_p(9.0, 6.0, 2.0, 2.0)
X_PAIR = np.array([2.0, 1.4771])


def report(criterion: int, description: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {description} ({detail})"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_criterion_01_categorical_prior_lr(self):
        started = time.perf_counter()
        samples = cat.sample_rate_pairs(None, 1_000_000, mc.RngStream(7))
        est = {c: cat.lr_from_samples(samples, c) for c in cat.Conclusion}
        elapsed = time.perf_counter() - started
        lr_id, lr_inc, lr_exc = (est[c] for c in cat.Conclusion)
        # the truncation region is symmetric under p <-> reversed q, so
        # LR(Inc) = 1 and LR(ID) * LR(Exc) = 1 exactly; both are checked
        # against the Monte Carlo error, z = 5
        product_se = lr_id.lr * lr_exc.lr * math.hypot(
            lr_id.mc_std_err / lr_id.lr, lr_exc.mc_std_err / lr_exc.lr
        )
        ok = (
            abs(lr_id.lr - 4.0) / 4.0 <= 0.03
            and abs(lr_inc.lr - 1.0) <= 5.0 * lr_inc.mc_std_err
            and abs(lr_id.lr * lr_exc.lr - 1.0) <= 5.0 * product_se
            and elapsed < 60.0
        )
        report(
            1, "categorical prior LR(ID) = 4.0 +-3%, LR(Inc) = 1 and LR(ID) LR(Exc) = 1 "
               "within 5 SE", ok,
            f"LR(ID)={lr_id.lr:.4f}, LR(Inc)={lr_inc.lr:.4f} +- {lr_inc.mc_std_err:.4f}, "
            f"LR(Exc)={lr_exc.lr:.4f}, LR(ID) LR(Exc)={lr_id.lr * lr_exc.lr:.4f} "
            f"+- {product_se:.4f}, {elapsed:.1f}s",
        )

    def test_criterion_02_categorical_posterior_lr(self, study_samples):
        est = cat.lr_from_samples(study_samples, cat.Conclusion.ID)
        ok = abs(est.lr - 358.0) / 358.0 <= 0.03
        report(2, "categorical posterior LR(ID) = 358 +-3% on the study table", ok,
               f"LR(ID)={est.lr:.2f}")

    def test_criterion_03_sweep_asymptote_and_stability(self, study_counts):
        sweep = cat.lr_sweep(study_counts, [500, 5000, 1_000_000], 1_000_000,
                             mc.RngStream(17))
        asymptote = (3663 / 5969) / (6 / 4083)
        id_large = sweep.estimate(1_000_000, cat.Conclusion.ID).lr
        ok = abs(id_large - asymptote) / asymptote <= 0.05
        changes = {}
        for c in (cat.Conclusion.INC, cat.Conclusion.EXC):
            small = sweep.estimate(500, c).lr
            large = sweep.estimate(5000, c).lr
            changes[c.name] = abs(large - small) / large
            ok = ok and changes[c.name] < 0.10
        report(
            3, "sweep: LR(ID) at N=1e6 within 5% of 417.6; Inc/Exc stable 500 to 5000",
            ok,
            f"LR(ID)@1e6={id_large:.1f} vs {asymptote:.1f}, "
            f"Inc change={changes['INC']:.3f}, Exc change={changes['EXC']:.3f}",
        )

    def test_criterion_04_conclusion_rate_ratio(self):
        value = core.lr_from_counts(11, 1090, 735, 2180)
        expected = (11 / 1090) / (735 / 2180)
        ok = value == expected and abs(value - 1 / 33) < 5e-4
        report(4, "conclusion rate ratio (11/1090)/(735/2180) ~ 1/33 exact", ok,
               f"value={value:.6f}")

    def test_criterion_05_scalar_prior_lr_at_nine(self):
        est = so.lr_for_scalar(9.0, SCALAR_H1, SCALAR_H2)
        ok = 1.7 <= est.lr <= 2.1 and est.mc_std_err is None
        # closed form must agree with the Monte Carlo blend on both densities
        for params in (SCALAR_H1, SCALAR_H2):
            closed = so.predictive_density(params, 9.0)
            sampled, se = so.mc_blend_density(params, 9.0, 400_000, mc.RngStream(27))
            ok = ok and abs(closed - sampled) < 3 * se
        report(5, "scalar prior-only LR at r=9 in [1.7, 2.1], matching the MC blend",
               ok, f"LR={est.lr:.4f}")

    def test_criterion_06_normal_gamma_conjugacy(self):
        gen = mc.RngStream(37).generator()
        worst = 0.0
        for _ in range(100):
            prior = so.NormalGammaParams(
                mu0=gen.uniform(-20, 20), n_mu=gen.uniform(0.1, 50),
                tau0=gen.uniform(1e-3, 10), n_tau=gen.uniform(0.1, 50),
            )
            a = so.ScalarValidationSummary(
                n=int(gen.integers(1, 2000)), mean=gen.uniform(-20, 20),
                variance=gen.uniform(0, 100),
            )
            b = so.ScalarValidationSummary(
                n=int(gen.integers(1, 2000)), mean=gen.uniform(-20, 20),
                variance=gen.uniform(0, 100),
            )
            sequential = so.update_normal_gamma(so.update_normal_gamma(prior, a), b)
            pooled = so.update_normal_gamma(prior, so.pooled_summary(a, b))
            for name in ("mu0", "n_mu", "tau0", "n_tau"):
                lhs, rhs = getattr(sequential, name), getattr(pooled, name)
                worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
        ok = worst <= 1e-10
        report(6, "normal-gamma sequential vs pooled updates agree to 1e-10 (100 cases)",
               ok, f"worst rel err={worst:.2e}")

    def test_criterion_07_interval_symmetry(self):
        grid = np.linspace(0.4, 20.0, 50)
        io._normalizer_cache.clear()  # so the truncation warning must fire
        with pytest.warns(RuntimeWarning):
            curve = io.width_curve(WIDTH_PRIOR, WIDTH_PRIOR, grid)
        worst = float(np.max(np.abs(curve.lr_w - 1.0)))
        ok = worst <= 2 * io.DEFAULT_WIDTH_QUAD_SPEC.rel_tol
        report(7, "identical width hyperpriors give lr_w = 1 at 50 widths", ok,
               f"max |lr_w - 1| = {worst:.2e}")

    def test_criterion_08_interval_factorization(self):
        gen = mc.RngStream(47).generator()
        h1 = io.update_gamma_conj_stats(WIDTH_PRIOR, 50, 250.0, 50 * math.log(4.5))
        h2 = io.update_gamma_conj_stats(WIDTH_PRIOR, 50, 125.0, 50 * math.log(2.0))
        worst = 0.0
        for _ in range(20):
            lo_log = gen.uniform(-5, 8)
            width = gen.uniform(0.3, 6.0)
            iv = io.LrInterval(10.0**lo_log, 10.0 ** (lo_log + width))
            result = io.lr_for_interval(iv, SCALAR_H1, SCALAR_H2, h1, h2)
            worst = max(worst, abs(result.estimate.lr - result.lr_m * result.lr_w)
                        / result.estimate.lr)
        ok = worst <= 1e-12
        report(8, "interval LR factorizes exactly as lr_m x lr_w", ok,
               f"worst rel err={worst:.2e}")

    def test_criterion_09_two_expert_prior_lr(self, tmp_path):
        h1, h2 = me.PRIOR_PRESETS["default"]
        passing = []
        values = {}
        for df_conv in ("n0", "n0-1"):
            for wishart in ("scale", "rate"):
                lr = me.lr_for_pair(X_PAIR, h1, h2, df_conv, wishart).lr
                values[(df_conv, wishart)] = lr
                if abs(lr - 4.35) / 4.35 <= 0.05:
                    passing.append((df_conv, wishart))
        ok = len(passing) > 0
        if ok:
            df_conv, wishart = passing[0]
            out = tmp_path / "two_expert"
            code = cli.main([
                "two-expert", "--x", "2,1.4771", "--df", df_conv,
                "--wishart", wishart, "--out", str(out),
            ])
            manifest = json.loads((out / "manifest.json").read_text())
            recorded = (
                manifest["parameters"]["df_convention"] == df_conv
                and manifest["parameters"]["wishart_matrix"] == wishart
            )
            ok = ok and code == 0 and recorded
        detail = ", ".join(f"{k}={v:.3f}" for k, v in values.items())
        report(9, "two-expert prior LR = 4.35 +-5% under a documented convention, "
                  "recorded in the manifest", ok,
               f"passing={passing}; {detail}")

    def test_criterion_10_two_expert_sweep_monotone(self):
        h1, h2 = me.PRIOR_PRESETS["default"]
        sweep = me.pair_lr_sweep(X_PAIR, h1, h2, [0, 100])
        lr0 = sweep.estimate(0).lr
        lr100 = sweep.estimate(100).lr
        ok = lr100 > lr0
        report(10, "two-expert LR rises from m=0 to m=100 validation pairs", ok,
               f"LR(0)={lr0:.3f}, LR(100)={lr100:.3f}")

    def test_criterion_11_coin_oracle_exact(self):
        a = co.prob_next_heads_A("HHHHHTTT")
        b = co.prob_next_heads_B("HHHHHTTT")
        c = co.prob_next_heads_C("HHHHHTTT")
        ok = (
            abs(a - 0.5) <= 1e-12 and abs(b - 0.6) <= 1e-12 and abs(c - 0.325) <= 1e-12
        )
        report(11, "coin observers report (0.5, 0.6, 0.325) exactly", ok,
               f"A={a}, B={b}, C={c}")

    def test_criterion_12_coherence_suite(self):
        started = time.perf_counter()
        gen = mc.RngStream(57).generator()

        # Bayes-rule composition on random odds chains
        composition_ok = True
        for _ in range(200):
            o = core.Odds(float(gen.uniform(0.01, 100)))
            a, b = float(gen.uniform(0.01, 100)), float(gen.uniform(0.01, 100))
            lhs = core.posterior_odds(core.posterior_odds(o, a), b).value
            rhs = core.posterior_odds(o, a * b).value
            composition_ok = composition_ok and abs(lhs - rhs) <= 1e-12 * abs(rhs)

        # LR inversion symmetry across the opinion modules
        inversion_ok = True
        for r in (-3.0, 0.5, 9.0):
            fwd = so.lr_for_scalar(r, SCALAR_H1, SCALAR_H2)
            rev = so.lr_for_scalar(r, SCALAR_H2, SCALAR_H1)
            inversion_ok = inversion_ok and fwd.log10_lr == -rev.log10_lr
        h1, h2 = me.PRIOR_PRESETS["default"]
        pair_fwd = me.lr_for_pair(X_PAIR, h1, h2)
        pair_rev = me.lr_for_pair(X_PAIR, h2, h1)
        inversion_ok = inversion_ok and pair_fwd.log10_lr == -pair_rev.log10_lr
        inversion_ok = inversion_ok and core.lr_from_counts(11, 1090, 735, 2180) * \
            core.lr_from_counts(735, 2180, 11, 1090) == pytest.approx(1.0, rel=1e-12)

        # predictive normalization: scalar over +-2000 scales
        df, loc, scale = so.predictive_params(SCALAR_H1)
        mass_scalar, _ = integrate.quad(
            lambda x: so.predictive_density(SCALAR_H1, x),
            loc - 2000 * scale, loc + 2000 * scale, limit=200,
        )
        scalar_norm_ok = abs(mass_scalar - 1.0) <= 1e-3

        # predictive normalization: bivariate t via its whitened radial CDF
        df2, loc2, scale2 = me.bivariate_t_params(h1)
        chol = np.linalg.cholesky(scale2)
        radius = 2000.0
        # grid integration over the whitened disk of that radius
        def whitened_density(u, v):
            x = loc2[0] + chol[0, 0] * u + chol[0, 1] * v
            y = loc2[1] + chol[1, 0] * u + chol[1, 1] * v
            qf = u * u + v * v
            log_norm = (
                math.lgamma((df2 + 2) / 2) - math.lgamma(df2 / 2) - math.log(df2 * math.pi)
            )
            return np.exp(log_norm - ((df2 + 2) / 2) * np.log1p(qf / df2))

        mass_pair = mc.integrate_2d(
            whitened_density,
            mc.QuadratureSpec(-8, 8, -8, 8, rel_tol=1e-8, max_refinements=7),
        )
        for inner, outer in ((8.0, 64.0), (64.0, radius)):
            for (alo, ahi, blo, bhi) in (
                (-outer, -inner, -outer, outer), (inner, outer, -outer, outer),
                (-inner, inner, -outer, -inner), (-inner, inner, inner, outer),
            ):
                mass_pair += mc.integrate_2d(
                    whitened_density,
                    mc.QuadratureSpec(alo, ahi, blo, bhi, rel_tol=1e-8, max_refinements=7),
                )
        # sanity: after the whitening Jacobian, the integrand matches the module
        z = np.array([0.7, -0.4])
        x_point = loc2 + chol @ z
        jacobian = math.sqrt(np.linalg.det(scale2))
        pair_norm_ok = whitened_density(z[0], z[1]) == pytest.approx(
            math.exp(me.bivariate_t_logdensity(h1, x_point)) * jacobian, rel=1e-10
        )
        pair_norm_ok = pair_norm_ok and abs(mass_pair - 1.0) <= 1e-3

        elapsed = time.perf_counter() - started
        ok = composition_ok and inversion_ok and scalar_norm_ok and pair_norm_ok \
            and elapsed < 300.0
        report(
            12, "coherence: odds composition, LR inversion, predictive normalization",
            ok,
            f"scalar mass={mass_scalar:.6f}, pair mass={mass_pair:.6f}, {elapsed:.1f}s",
        )
