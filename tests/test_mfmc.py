import numpy as np
import pytest

from uqmc import (
    FidelityEnsemble,
    Model,
    RngStream,
    builtin_problem,
    mfmc_estimate,
    mfmc_plan,
    pilot_statistics,
    validate_ordering,
)
from uqmc.exceptions import BudgetError, EstimatorError
from uqmc.mfmc import (
    _PILOT,
    PilotStats,
    combine_multifidelity,
    estimator_variance,
    variance_ratio,
)

POLY = builtin_problem("poly_fidelity")


def make_stats(rho, cost_lo, sigma_lo=None, sigma_hi=1.0, cost_hi=1.0):
    k = len(rho)
    return PilotStats(
        sigma_hi=sigma_hi,
        sigma_lo=tuple(sigma_lo or [1.0] * k),
        rho=tuple(rho) + (0.0,),
        cost_hi=cost_hi,
        cost_lo=tuple(cost_lo),
        low_ids=tuple(f"lo{i}" for i in range(k)),
    )


def tight_pilot():
    """poly_fidelity's 50-sample pilot at seed 3, drawn as ``mfmc_estimate``
    draws it.  It costs 50 * (1 + 0.1 + 0.02) = 56 units; the real counts
    for 3 more units are about (0.11, 7.0, 109.5)."""
    stats = pilot_statistics(POLY.ensemble, POLY.input, 50, RngStream(3).split(_PILOT))
    return validate_ordering(stats)


class TestPilotStatistics:
    def test_identical_low_gives_rho_one(self):
        hi = Model("hi", lambda x: x[:, 0] ** 2, 1.0)
        lo = Model("lo", lambda x: x[:, 0] ** 2, 0.1)
        e = FidelityEnsemble(high=hi, lows=(lo,))
        s = pilot_statistics(e, POLY.input, 100, RngStream(1))
        assert s.rho[0] == pytest.approx(1.0, abs=1e-12)
        assert s.rho[-1] == 0.0

    def test_negated_low_gives_rho_minus_one(self):
        hi = Model("hi", lambda x: x[:, 0] ** 2, 1.0)
        lo = Model("lo", lambda x: -(x[:, 0] ** 2), 0.1)
        e = FidelityEnsemble(high=hi, lows=(lo,))
        s = pilot_statistics(e, POLY.input, 100, RngStream(2))
        assert s.rho[0] == pytest.approx(-1.0, abs=1e-12)

    def test_poly_correlation_matches_gaussian_moments(self):
        s = pilot_statistics(POLY.ensemble, POLY.input, 10_000, RngStream(3))
        for est, truth in zip(s.rho[:-1], POLY.truth["rho"]):
            assert est == pytest.approx(truth, abs=0.01)

    def test_constant_model_rejected(self):
        hi = Model("hi", lambda x: x[:, 0], 1.0)
        lo = Model("lo", lambda x: np.ones(x.shape[0]), 0.1)
        e = FidelityEnsemble(high=hi, lows=(lo,))
        with pytest.raises(EstimatorError):
            pilot_statistics(e, POLY.input, 100, RngStream(4))


class TestValidateOrdering:
    def test_single_low_passes(self):
        s = validate_ordering(make_stats([0.7], [0.1]))
        assert s.low_ids == ("lo0",)
        assert not s.flags

    def test_reorders_by_descending_rho_sq(self):
        # Costs chosen so both models survive the gap conditions.
        s = validate_ordering(make_stats([0.6, 0.9], [0.05, 0.2]))
        assert s.rho[:-1] == (0.9, 0.6)
        assert s.low_ids == ("lo1", "lo0")

    def test_inequality_arithmetic_at_second_surrogate(self):
        # For rho = (0.9, 0.899), c = (0.5, 0.01): the i=2 condition compares
        # c1/c2 = 50 against (0.81 - 0.808201)/0.808201 ~ 0.0022 and passes.
        from uqmc.mfmc import _ordering_violations

        rho_sq = np.array([0.9**2, 0.899**2, 0.0])
        costs = np.array([1.0, 0.5, 0.01])
        bad = _ordering_violations(rho_sq, costs)
        assert 1 not in bad
        # The i=1 condition fails instead: 0.9 adds almost no correlation
        # over 0.899 at 50x the cost, so the expensive model is the violator.
        assert bad == [0]

    def test_expensive_near_duplicate_dropped(self):
        s = validate_ordering(make_stats([0.9, 0.899], [0.5, 0.01]))
        assert s.low_ids == ("lo1",)
        assert "dropped:lo0" in s.flags

    def test_violating_model_dropped_and_flagged(self):
        # Nearly-equal correlations with a tiny cost gap: the second model
        # adds no correlation gap worth its cost.
        s = validate_ordering(make_stats([0.90, 0.89999], [0.1, 0.099]))
        assert len(s.low_ids) == 1
        assert any(f.startswith("dropped:") for f in s.flags)

    def test_perfect_surrogate_flagged(self):
        s = validate_ordering(make_stats([1.0], [0.1]))
        assert "perfect_surrogate" in s.flags


class TestMfmcPlan:
    def test_no_lows_plain_mc(self):
        plan = mfmc_plan(make_stats([], []), 100.0)
        assert plan.n == (100,)
        assert plan.chi == 1.0

    def test_no_lows_count_is_floored_real_count(self):
        # 1.0 // 0.1 is 9.0, but 1.0 / 0.1 is 10.0 and 10 evaluations fit.
        plan = mfmc_plan(make_stats([], [], cost_hi=0.1), 1.0)
        assert plan.n_real == (10.0,) and plan.n == (10,)
        assert plan.n[0] * 0.1 <= 1.0

    def test_worked_example_closed_form(self):
        plan = mfmc_plan(make_stats([0.9], [0.01]), 100.0)
        assert plan.t[1] == pytest.approx(20.6474160483505589, rel=1e-12)
        assert plan.chi == pytest.approx(0.2765601809837321, rel=1e-12)
        assert plan.n_real[0] == pytest.approx(82.8861514613160737, rel=1e-12)
        assert plan.n_real[1] == pytest.approx(1711.3848538683926, rel=1e-12)
        assert plan.n == (82, 1711)
        assert plan.beta[0] == pytest.approx(0.9)

    def test_cheap_low_limit_matches_control_variate_bound(self):
        plan = mfmc_plan(make_stats([0.9], [1e-9]), 1000.0)
        assert plan.chi == pytest.approx(1 - 0.81, rel=1e-3)

    def test_budget_constraint_and_monotonicity(self):
        for budget in (10.0, 250.0, 9999.0):
            plan = mfmc_plan(make_stats([0.95, 0.6], [0.08, 0.01]), budget)
            n = plan.n
            assert all(b >= a for a, b in zip(n, n[1:]))
            cost = n[0] * 1.0 + n[1] * 0.08 + n[2] * 0.01
            assert cost <= budget

    def test_budget_below_two_hi_rejected(self):
        with pytest.raises(BudgetError):
            mfmc_plan(make_stats([0.9], [0.01]), 1.5)

    def test_tight_budget_trims_the_cheapest_count(self):
        plan = mfmc_plan(tight_pilot(), 59.0 - 56.0)
        assert int(plan.n_real[2]) == 109
        assert plan.n == (2, 6, 20)
        assert float(np.dot(plan.n, [1.0, 0.1, 0.02])) <= plan.budget

    def test_budget_the_trim_cannot_meet_rejected(self):
        # Floors and the monotone repair give (2, 5, 91); the trim stops at
        # (2, 5, 5), which costs 2.6 > 2.5.
        with pytest.raises(BudgetError, match="minimum evaluation counts"):
            mfmc_plan(tight_pilot(), 58.5 - 56.0)

    def test_tight_budget_end_to_end(self):
        with pytest.raises(BudgetError, match="minimum evaluation counts"):
            mfmc_estimate(POLY.ensemble, POLY.input, 58.5, RngStream(3), n_pilot=50)
        report, plan = mfmc_estimate(POLY.ensemble, POLY.input, 59.0, RngStream(3), n_pilot=50)
        # The pilot is charged per model, 50 + 5 + 1 = 56.0 as in the ledger
        # (not 50 * 1.12 = 56.00000000000001), so (2, 6, 20) fits exactly.
        assert plan.n == (2, 6, 20)
        assert report.total_cost <= 59.0

    def test_chi_consistency_with_variance_formula(self):
        # chi must equal Var[plan at the real-valued optimum] relative to
        # plain MC at equal budget, to 1e-10 relative.
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 100:
            k = int(rng.integers(1, 4))
            rho = np.sort(rng.uniform(0.05, 0.999, size=k))[::-1]
            costs = np.sort(rng.uniform(1e-4, 0.5, size=k))[::-1]
            sigma = rng.uniform(0.5, 2.0, size=k)
            stats = make_stats(list(rho), list(costs), sigma_lo=list(sigma))
            v = validate_ordering(stats)
            if v.k != k:
                continue
            budget = float(rng.uniform(50, 5000))
            plan = mfmc_plan(v, budget)
            var_plan = estimator_variance(
                v, np.array(plan.n_real), np.array(plan.beta)
            )
            var_mc = v.sigma_hi**2 / (budget / v.cost_hi)
            assert plan.chi == pytest.approx(var_plan / var_mc, rel=1e-10)
            assert plan.chi == pytest.approx(variance_ratio(v), rel=1e-12)
            checked += 1

    def test_closed_form_beats_dense_search(self):
        # Oracle: dense search over count ratios (optimal beta is closed-form
        # in n, so the search space reduces to the ratios).
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 25:
            k = int(rng.integers(1, 4))
            rho = np.sort(rng.uniform(0.1, 0.995, size=k))[::-1]
            costs = np.sort(rng.uniform(1e-3, 0.3, size=k))[::-1]
            stats = make_stats(list(rho), list(costs))
            v = validate_ordering(stats)
            if v.k != k:
                continue
            budget = 500.0
            plan = mfmc_plan(v, budget)
            var_plan = estimator_variance(v, np.array(plan.n_real), np.array(plan.beta))

            best = np.inf
            ratios = np.geomspace(1.0, 300.0, 40)
            grids = np.meshgrid(*([ratios] * v.k), indexing="ij")
            r = np.stack([g.ravel() for g in grids], axis=1)  # (m, k)
            t = np.cumprod(r, axis=1)
            cvec = np.array([v.cost_hi] + list(v.cost_lo))
            tfull = np.concatenate([np.ones((t.shape[0], 1)), t], axis=1)
            n0 = budget / (tfull @ cvec)
            n = n0[:, None] * tfull
            beta = np.array(
                [v.rho[i] * v.sigma_hi / v.sigma_lo[i] for i in range(v.k)]
            )
            var = v.sigma_hi**2 / n[:, 0]
            for i in range(v.k):
                gap = 1.0 / n[:, i] - 1.0 / n[:, i + 1]
                var += gap * (
                    beta[i] ** 2 * v.sigma_lo[i] ** 2
                    - 2 * beta[i] * v.rho[i] * v.sigma_hi * v.sigma_lo[i]
                )
            best = var.min()
            assert var_plan <= best * 1.0 + 1e-12  # closed form is the optimum
            checked += 1


class TestCombine:
    def test_zero_beta_is_high_fidelity_mean(self):
        y_hi = np.array([1.0, 2.0, 3.0])
        y_lo = [np.array([5.0, 6.0, 7.0, 8.0])]
        est = combine_multifidelity(y_hi, y_lo, (3, 4), [0.0])
        assert est == np.mean(y_hi)

    def test_identical_low_with_unit_beta_and_equal_counts(self):
        y = np.array([1.0, 2.0, 3.0])
        est = combine_multifidelity(y, [y], (3, 3), [1.0])
        assert est == np.mean(y)

    def test_prefix_reuse_bit_exact(self):
        rng = np.random.default_rng(7)
        y_lo = rng.normal(size=50)
        y_hi = rng.normal(size=10)
        est = combine_multifidelity(y_hi, [y_lo], (10, 50), [0.8])
        manual = y_hi.mean() + 0.8 * (y_lo.mean() - y_lo[:10].mean())
        assert est == manual


class TestMfmcEstimate:
    def test_estimate_combines_reference_draws(self):
        from uqmc.mc import draw_inputs
        from uqmc.models import evaluate

        report, plan = mfmc_estimate(POLY.ensemble, POLY.input, 2000.0, RngStream(8))
        # Bit for bit the prefix-reuse combination of each kept model's
        # outputs on its first n[i] rows of the whole main (split(0)) sample.
        by_id = {m.id: m for m in POLY.ensemble.all_models}
        kept = [POLY.ensemble.high] + [by_id[i] for i in report.diagnostics["low_order"]]
        x = draw_inputs(POLY.input, RngStream(8).split(0), plan.n[-1], 1)
        y_hi, *y_lows = [evaluate(m, x[:c]) for m, c in zip(kept, plan.n)]
        assert len(y_lows) == 2
        assert report.estimate == combine_multifidelity(y_hi, y_lows, plan.n, plan.beta)

    def test_budget_respected(self):
        from uqmc import CostLedger

        ledger = CostLedger()
        report, plan = mfmc_estimate(
            POLY.ensemble, POLY.input, 5000.0, RngStream(9), ledger=ledger
        )
        assert ledger.total() <= 5000.0
        assert report.total_cost == ledger.total()

    def test_estimate_near_truth(self):
        report, _ = mfmc_estimate(POLY.ensemble, POLY.input, 20_000.0, RngStream(10))
        assert abs(report.estimate - POLY.truth["mean"]) < 5 * report.std_error

    def test_perfect_surrogate_shortcut_end_to_end(self):
        from uqmc import CostLedger

        quad = builtin_problem("quadratic")
        twin = Model("twin", lambda x: x[:, 0] ** 2, 0.05)
        shifted = Model("shifted", lambda x: x[:, 0] ** 2 + 0.2 * x[:, 0], 0.01)
        e = FidelityEnsemble(high=quad.model, lows=(twin, shifted))
        ledger = CostLedger()
        report, plan = mfmc_estimate(e, quad.input, 300.0, RngStream(13), ledger=ledger)
        assert "perfect_surrogate" in plan.flags
        assert ledger.total() <= 300.0
        # The perfect surrogate drives the estimate to high accuracy.
        assert abs(report.estimate - 1.0) < 0.1

    def test_no_surrogates_runs_plain_mc_plan(self):
        quad = builtin_problem("quadratic")
        e = FidelityEnsemble(high=quad.model, lows=())
        report, plan = mfmc_estimate(e, quad.input, 500.0, RngStream(12))
        assert plan.chi == 1.0
        assert plan.n == (450,)  # (budget - 50-sample pilot) / cost
        assert abs(report.estimate - 1.0) < 4 * report.std_error

    def test_all_lows_dropped_degrades_to_mc(self):
        hi = Model("hi", lambda x: x[:, 0] + 0.05 * x[:, 0] ** 2, 1.0)
        # Two surrogates with nearly identical correlation and no cost gap:
        # ordering validation drops one, then the other survives or not;
        # force both out by making each pair violate.
        lo1 = Model("lo1", lambda x: x[:, 0], 0.999)
        lo2 = Model("lo2", lambda x: x[:, 0] + 1e-9 * x[:, 0] ** 2, 0.998)
        e = FidelityEnsemble(high=hi, lows=(lo1, lo2))
        report, plan = mfmc_estimate(e, POLY.input, 500.0, RngStream(11), n_pilot=50)
        # Whatever survives, the report is well-formed and within budget.
        assert report.total_cost <= 500.0
        assert report.method == "mfmc"

    def test_all_dropped_counts_match_ledger(self):
        # An uncorrelated surrogate is dropped; the pilot it was evaluated on
        # still counts, and the estimate is the plain mean of the main draws.
        from uqmc import CostLedger

        hi = Model("hi", lambda x: x[:, 0], 1.0)
        lo = Model("lo", lambda x: np.cos(40.0 * x[:, 0]), 0.5)
        ledger = CostLedger()
        report, plan = mfmc_estimate(
            FidelityEnsemble(hi, (lo,)), POLY.input, 1000.0, RngStream(1),
            n_pilot=50, ledger=ledger,
        )
        assert plan.flags == ("dropped:lo", "all_surrogates_dropped")
        assert report.diagnostics["flags"] == list(plan.flags)
        assert plan.n == (925,)
        assert report.n_per_model == ledger.counts == {"hi": 975, "lo": 50}
        assert report.total_cost == ledger.total() == 1000.0
        assert report.estimate.hex() == "-0x1.1a92cc8aaa85bp-5"
