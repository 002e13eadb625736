import math

import numpy as np
import pytest

from uqmc import (
    ControlVariateConfig,
    CostLedger,
    LevelHierarchy,
    Model,
    RngStream,
    builtin_problem,
    cv_estimate,
    mc_estimate,
    two_level_estimate,
)
from uqmc.exceptions import BudgetError, EstimatorError, InvalidParameterError
from uqmc.mc import draw_inputs
from uqmc.reports import Z_975

QUAD = builtin_problem("quadratic")
STD_NORMAL = QUAD.input


class TestMcEstimate:
    def test_constant_model(self):
        m = Model("const", lambda x: np.full(x.shape[0], 2.5), 1.0)
        r = mc_estimate(m, STD_NORMAL, 100, RngStream(1))
        assert r.estimate == 2.5
        assert r.estimator_variance == 0.0
        assert r.ci_95 == (2.5, 2.5)
        assert r.diagnostics["zeta_sq"] == 0.0

    def test_quadratic_within_clt_band(self):
        n = 10**6
        r = mc_estimate(QUAD.model, STD_NORMAL, n, RngStream(3))
        assert abs(r.estimate - 1.0) < 3 * math.sqrt(2.0 / n)
        assert r.total_cost == n
        assert r.n_per_model == {"quadratic": n}

    def test_ci_halfwidth_definition(self):
        r = mc_estimate(QUAD.model, STD_NORMAL, 1000, RngStream(4))
        lo, hi = r.ci_95
        half = Z_975 * math.sqrt(r.estimator_variance)
        assert hi - r.estimate == pytest.approx(half, rel=1e-12)
        assert r.estimate - lo == pytest.approx(half, rel=1e-12)

    def test_biased_variance_diagnostic(self):
        n = 100
        r = mc_estimate(QUAD.model, STD_NORMAL, n, RngStream(5))
        assert r.diagnostics["zeta_sq_biased"] == pytest.approx(
            r.diagnostics["zeta_sq"] * (n - 1) / n, rel=1e-12
        )

    def test_n_below_two_rejected(self):
        with pytest.raises(InvalidParameterError):
            mc_estimate(QUAD.model, STD_NORMAL, 1, RngStream(0))


class TestCvEstimate:
    def test_perfect_control_zero_variance(self):
        m = QUAD.model
        cfg = ControlVariateConfig(control=m, control_mean=1.0, coef=1.0)
        r = cv_estimate(m, STD_NORMAL, cfg, 500, RngStream(7))
        assert r.estimate == pytest.approx(1.0, abs=1e-14)
        assert r.estimator_variance == pytest.approx(0.0, abs=1e-28)

    def test_zero_coef_degenerates_to_mc(self):
        control = Model("ctl", lambda x: np.cos(x[:, 0]), 1.0)
        cfg = ControlVariateConfig(control=control, control_mean=0.5, coef=0.0)
        r_cv = cv_estimate(QUAD.model, STD_NORMAL, cfg, 2000, RngStream(8))
        r_mc = mc_estimate(QUAD.model, STD_NORMAL, 2000, RngStream(8))
        assert r_cv.estimate == r_mc.estimate

    def test_auto_coef_close_to_regression_slope(self):
        p = builtin_problem("poly_fidelity")
        control = p.ensemble.lows[1]  # identity map, mean 0
        cfg = ControlVariateConfig(control=control, control_mean=0.0, pilot_n=5000)
        r = cv_estimate(p.ensemble.high, p.input, cfg, 2000, RngStream(9))
        # Cov(M, X) = 1 + 0.01*E[X sin 5X], Var(X) = 1.
        assert r.diagnostics["lambda"] == pytest.approx(1.0, rel=0.05)
        assert abs(r.diagnostics["rho_pilot"]) <= 1.0

    def test_constant_control_rejected(self):
        control = Model("ctl", lambda x: np.ones(x.shape[0]), 1.0)
        cfg = ControlVariateConfig(control=control, control_mean=1.0)
        with pytest.raises(EstimatorError):
            cv_estimate(QUAD.model, STD_NORMAL, cfg, 100, RngStream(10))

    def test_variance_reduction_on_polynomial_pair(self):
        # Var ratio ~ 1 - rho^2 = 1 - 1/1.02; 300 replications keep it quick,
        # the acceptance suite runs the full 1000-replication version.
        p = builtin_problem("poly_fidelity")
        hi, lo = p.ensemble.high, p.ensemble.lows[0]
        reps, n = 300, 500
        cv_vals, mc_vals = [], []
        for r in range(reps):
            rng = RngStream(1000 + r)
            cfg = ControlVariateConfig(control=lo, control_mean=0.1, pilot_n=500)
            cv_vals.append(cv_estimate(hi, p.input, cfg, n, rng).estimate)
            mc_vals.append(mc_estimate(hi, p.input, n, rng).estimate)
        ratio = np.var(cv_vals, ddof=1) / np.var(mc_vals, ddof=1)
        assert ratio < 0.05  # analytic limit is ~0.000048 for this pair


class TestTwoLevel:
    def test_identical_models_flagged_zero_correction(self):
        coarse = Model("c", lambda x: x[:, 0] ** 2, 1.0)
        fine = Model("f", lambda x: x[:, 0] ** 2, 2.0)
        r = two_level_estimate(coarse, fine, STD_NORMAL, 2000.0, RngStream(11))
        assert "zero_correction_variance" in r.diagnostics["flags"]
        assert r.diagnostics["pilot_v1"] == 0.0

    def test_lagrange_ratio_half(self):
        # V0 = V1 = 1 by construction, C1/C0 = 4 => N1/N0 = 1/2.
        coarse = Model("c", lambda x: x[:, 0], 1.0)
        fine = Model("f", lambda x: 2.0 * x[:, 0], 3.0)
        r = two_level_estimate(
            coarse, fine, STD_NORMAL, 50_000.0, RngStream(12), pilot_n=2000
        )
        n0, n1 = r.diagnostics["n0"], r.diagnostics["n1"]
        assert n1 / n0 == pytest.approx(0.5, rel=0.1)

    def test_budget_respected_and_ledger_exact(self):
        coarse = Model("c", lambda x: x[:, 0], 1.0)
        fine = Model("f", lambda x: 2.0 * x[:, 0], 3.0)
        ledger = CostLedger()
        budget = 5000.0
        r = two_level_estimate(coarse, fine, STD_NORMAL, budget, RngStream(13), ledger)
        assert r.total_cost <= budget
        n_c = r.n_per_model["c"]
        n_f = r.n_per_model["f"]
        assert ledger.total() == pytest.approx(n_c * 1.0 + n_f * 3.0)

    def test_budget_too_small(self):
        coarse = Model("c", lambda x: x[:, 0], 1.0)
        fine = Model("f", lambda x: 2.0 * x[:, 0], 3.0)
        with pytest.raises(BudgetError):
            two_level_estimate(coarse, fine, STD_NORMAL, 100.0, RngStream(14))

    def test_pilot_needs_two_samples(self):
        # One pilot sample has no variance to split the budget by.
        coarse = Model("c", lambda x: x[:, 0], 1.0)
        fine = Model("f", lambda x: 2.0 * x[:, 0], 3.0)
        with pytest.raises(InvalidParameterError, match="pilot_n >= 2"):
            two_level_estimate(coarse, fine, STD_NORMAL, 2000.0, RngStream(14), pilot_n=1)

    def test_demo_config_pinned(self):
        # demos/configs/two_level_gbm.json (gbm_euler levels 0/1, budget 3000,
        # seed 13): the pilot statistics and the budget split are pinned.
        h = builtin_problem("gbm_euler").hierarchy
        r = two_level_estimate(
            h.levels[0], h.levels[1], h.input, 3000, RngStream(13), coarsen=h.coarsen
        )
        d = r.diagnostics
        assert (d["n0"], d["n1"], r.total_cost) == (2430, 140, 3000.0)
        assert d["pilot_v0"] == pytest.approx(0.04828335019384402, rel=1e-12)
        assert d["pilot_v1"] == pytest.approx(0.00048343303996575647, rel=1e-12)

    def test_constant_coarse_model_pinned(self):
        # V_0 = 0: the coarse term keeps its floor of 2 samples, the correction
        # takes floor((B - pilot - 2 C_0) / C_1) and the leftover buys coarse
        # samples.
        coarse = Model("c", lambda x: np.full(x.shape[0], 1.5), 1.0)
        fine = Model("f", lambda x: x[:, 0], 3.0)
        r = two_level_estimate(coarse, fine, STD_NORMAL, 2000.0, RngStream(3))
        d = r.diagnostics
        assert (d["n0"], d["n1"], r.total_cost) == (4, 449, 2000.0)
        assert d["pilot_v0"] == 0.0
        assert d["pilot_v1"] == pytest.approx(1.1377448617884585, rel=1e-12)
        assert d["flags"] == []

    @pytest.mark.parametrize("units", [200, 300])
    def test_small_correction_variance_reserves_its_floor(self, units):
        # Levels 10/11 of gbm_euler: V_1 is 1e-7 of V_0, so the Lagrange
        # split gives the correction under 1 sample.  Its floor of 2 is paid
        # for first, the coarse term takes the rest, and the run spends its
        # budget exactly instead of raising BudgetError.
        h = builtin_problem("gbm_euler", {"max_level": 11}).hierarchy
        pair = LevelHierarchy(h.levels[10:12], h.input, h.coarsen)
        budget = units * pair.coupled_cost(1)
        r = two_level_estimate(
            *pair.levels, h.input, budget, RngStream(82), pilot_n=50, coarsen=h.coarsen
        )
        d = r.diagnostics
        assert d["n1"] == 2
        assert d["n0"] == int((budget - (50 + 2) * pair.coupled_cost(1)) // pair.coupled_cost(0))
        assert r.total_cost == budget

    def test_gbm_levels_unbiased_over_replications(self):
        p = builtin_problem("gbm_euler")
        h = p.hierarchy
        reps = 500
        vals = np.empty(reps)
        for r in range(reps):
            rep = two_level_estimate(
                h.levels[0], h.levels[1], h.input, 400.0, RngStream(20_000 + r),
                pilot_n=30, coarsen=h.coarsen,
            )
            vals[r] = rep.estimate
        # The estimator targets E[M^(1)]; the Euler scheme's mean is exactly
        # s0 * (1 + r*dt)^steps, and the analytic GBM mean sits within the
        # discretization bias of that.
        euler_mean = (1 + 0.05 / 2) ** 2
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - euler_mean) < 3 * se
        assert abs(euler_mean - p.truth["mean"]) < 1e-3


def test_draw_inputs_row_stability():
    x_all = draw_inputs(STD_NORMAL, RngStream(15), 10, 4)
    x_tail = draw_inputs(STD_NORMAL, RngStream(15).advance(4 * 6), 4, 4)
    assert np.array_equal(x_all[6:], x_tail)


def test_unbiasedness_of_all_three_estimators():
    # Replication-mean within 3 * (replication SD / sqrt(R)) of truth.
    poly = builtin_problem("poly_fidelity")
    R = 500
    mc_vals, cv_vals = np.empty(R), np.empty(R)
    cfg = ControlVariateConfig(control=poly.ensemble.lows[1], control_mean=0.0, pilot_n=100)
    for r in range(R):
        mc_vals[r] = mc_estimate(QUAD.model, STD_NORMAL, 400, RngStream(910_000 + r)).estimate
        cv_vals[r] = cv_estimate(
            poly.ensemble.high, poly.input, cfg, 400, RngStream(920_000 + r)
        ).estimate
    assert abs(mc_vals.mean() - 1.0) < 3 * mc_vals.std(ddof=1) / math.sqrt(R)
    assert abs(cv_vals.mean() - 0.1) < 3 * cv_vals.std(ddof=1) / math.sqrt(R)
    # two_level unbiasedness is covered against the exact Euler mean in
    # test_gbm_levels_unbiased_over_replications.


def test_ci_coverage_on_quadratic():
    # 95% interval must cover the analytic mean in 93-97% of replications.
    reps, n = 2000, 10_000
    covered = 0
    for r in range(reps):
        rep = mc_estimate(QUAD.model, STD_NORMAL, n, RngStream(300_000 + r))
        lo, hi = rep.ci_95
        covered += lo <= 1.0 <= hi
    assert 0.93 <= covered / reps <= 0.97


def test_auto_coef_never_increases_variance():
    # A weakly correlated control with a fitted coefficient must leave the
    # variance essentially unchanged (ratio <= 1.05 over 1000 replications).
    weak = Model("weak", lambda x: np.cos(x[:, 0]), 1.0)
    mean_cos = float(np.exp(-0.5))  # E[cos X], X ~ N(0,1)
    p = builtin_problem("poly_fidelity")
    cfg = ControlVariateConfig(control=weak, control_mean=mean_cos, pilot_n=200)
    reps, n = 1000, 500
    cv_vals = np.empty(reps)
    mc_vals = np.empty(reps)
    for r in range(reps):
        rng = RngStream(500_000 + r)
        cv_vals[r] = cv_estimate(p.ensemble.lows[0], p.input, cfg, n, rng).estimate
        mc_vals[r] = mc_estimate(p.ensemble.lows[0], p.input, n, rng).estimate
    ratio = np.var(cv_vals, ddof=1) / np.var(mc_vals, ddof=1)
    assert ratio <= 1.05


def test_ledger_wall_time_mode_is_diagnostic_only():
    ledger = CostLedger()
    r = mc_estimate(QUAD.model, STD_NORMAL, 50_000, RngStream(16), ledger)
    assert ledger.wall_time["quadratic"] > 0.0
    assert "wall_time_s" not in ledger.as_dict()
    # Declared work units are untouched by measurement.
    assert ledger.total() == r.total_cost == 50_000.0
