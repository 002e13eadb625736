import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqmc import (
    LevelHierarchy,
    Model,
    RngStream,
    builtin_problem,
    level_statistics,
    mc_estimate,
    mlmc_allocation,
    mlmc_convergence_test,
    mlmc_estimate,
)
from uqmc.exceptions import BudgetError, InvalidParameterError
from uqmc.mlmc import LevelStats, floor_variances, remaining_bias, variance_decay_rate

GBM = builtin_problem("gbm_euler")


def identical_hierarchy(n_levels=3):
    models = tuple(
        Model(f"m{l}", lambda x: x[:, 0] ** 2, cost_per_eval=float(2**l))
        for l in range(n_levels)
    )
    return LevelHierarchy(models, builtin_problem("quadratic").input)


def stats_from(v, c, n=1000, means=None):
    means = means if means is not None else [0.0] * len(v)
    return [
        LevelStats(level=l, mean=means[l], variance=v[l], cost=c[l], n=n)
        for l in range(len(v))
    ]


class TestLevelStatistics:
    def test_identical_models_zero_correction(self):
        h = identical_hierarchy()
        s = level_statistics(h, 1, 500, RngStream(1))
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_gbm_variance_decay_l3_below_l0(self):
        n = 10_000
        s0 = level_statistics(GBM.hierarchy, 0, n, RngStream(2).split(0))
        s3 = level_statistics(GBM.hierarchy, 3, n, RngStream(2).split(3))
        assert s3.variance < s0.variance

    def test_coupled_cost_arithmetic(self):
        s = level_statistics(GBM.hierarchy, 2, 10, RngStream(3))
        assert s.cost == 4 + 2


class TestAllocation:
    def test_worked_example(self):
        # xi = 1e4 * 3 = 3e4; N = xi * sqrt(V/C) = [30000, 7500, 1875].
        plan = mlmc_allocation(stats_from([1.0, 0.25, 0.0625], [1.0, 4.0, 16.0]), 0.01)
        assert plan.n_per_level == (30000, 7500, 1875)
        assert plan.xi == pytest.approx(3e4)
        assert plan.predicted_cost == pytest.approx(
            0.01**-2 * (1.0 + 1.0 + 1.0) ** 2, rel=1e-12
        )

    def test_grid_search_oracle_agreement(self):
        # Independent oracle: exhaustive integer search near the continuous
        # optimum, minimizing cost subject to sum(V/N) <= eps^2.
        v, c, eps = [1.0, 0.25, 0.0625], [1.0, 4.0, 16.0], 0.07
        plan = mlmc_allocation(stats_from(v, c), eps)
        xi = sum(math.sqrt(a * b) for a, b in zip(v, c)) / eps**2
        centers = [xi * math.sqrt(a / b) for a, b in zip(v, c)]
        rng_boxes = [
            np.arange(max(1, int(m) - 5), int(m) + 7) for m in centers
        ]
        grids = np.meshgrid(*rng_boxes, indexing="ij")
        n0, n1, n2 = (g.ravel() for g in grids)
        cost = n0 * c[0] + n1 * c[1] + n2 * c[2]
        var = v[0] / n0 + v[1] / n1 + v[2] / n2
        feasible = var <= eps**2
        best = cost[feasible].min()
        assert plan.predicted_cost <= best + max(c)  # within one sample

    def test_single_level_collapses_to_plain_mc_count(self):
        plan = mlmc_allocation(stats_from([2.0], [7.0]), 0.05)
        assert plan.n_per_level[0] == math.ceil(2.0 / 0.05**2)

    def test_zero_variance_level_floored_at_two(self):
        plan = mlmc_allocation(stats_from([1.0, 0.0, 0.25], [1.0, 2.0, 4.0]), 0.05)
        assert plan.n_per_level[1] == 2
        ref = mlmc_allocation(stats_from([1.0, 0.25], [1.0, 4.0]), 0.05)
        assert plan.n_per_level[0] == ref.n_per_level[0]

    def test_all_zero_variances_flagged(self):
        plan = mlmc_allocation(stats_from([0.0, 0.0], [1.0, 2.0]), 0.05)
        assert plan.n_per_level == (1, 1)
        assert "all_level_variances_zero" in plan.flags

    def test_variance_constraint_met(self):
        v, c = [3.0, 0.9, 0.1, 0.02], [0.5, 2.0, 9.0, 40.0]
        for eps in (0.3, 0.1, 0.03):
            plan = mlmc_allocation(stats_from(v, c), eps)
            assert sum(a / n for a, n in zip(v, plan.n_per_level)) <= eps**2


@settings(max_examples=40, deadline=None)
@given(
    eps1=st.floats(0.01, 0.5),
    shrink=st.floats(0.1, 0.99),
    v=st.lists(st.floats(1e-6, 10.0), min_size=2, max_size=5),
)
def test_allocation_monotone_in_eps(eps1, shrink, v):
    c = [float(2**l) for l in range(len(v))]
    big = mlmc_allocation(stats_from(v, c), eps1)
    small = mlmc_allocation(stats_from(v, c), eps1 * shrink)
    assert all(a <= b for a, b in zip(big.n_per_level, small.n_per_level))


class TestConvergenceTest:
    def test_zero_tail_means_converged(self):
        stats = stats_from([1.0, 0.1, 0.01], [1.0, 2.0, 4.0], means=[1.0, 0.0, 0.0])
        converged, _ = mlmc_convergence_test(stats, 0.01)
        assert converged

    def test_exact_geometric_decay_alpha_one(self):
        means = [1.0] + [0.5 ** l for l in range(1, 5)]
        stats = stats_from([1.0] * 5, [2.0 ** l for l in range(5)], means=means)
        _, alpha = mlmc_convergence_test(stats, 0.5)
        assert alpha == pytest.approx(1.0, abs=1e-9)

    def test_needs_three_levels(self):
        with pytest.raises(InvalidParameterError):
            mlmc_convergence_test(stats_from([1.0, 0.5], [1.0, 2.0]), 0.1)

    def test_alpha_floor(self):
        # Non-decaying means would fit a negative alpha; the floor holds at 0.5.
        means = [1.0, 0.1, 0.1, 0.1]
        stats = stats_from([1.0] * 4, [2.0 ** l for l in range(4)], means=means)
        _, alpha = mlmc_convergence_test(stats, 10.0)
        assert alpha == 0.5


class TestMlmcEstimate:
    def test_single_level_matches_mc_bit_for_bit(self):
        h = LevelHierarchy(
            (builtin_problem("quadratic").model,), builtin_problem("quadratic").input
        )
        n = 5000
        res = mlmc_estimate(h, 10.0, RngStream(21), initial_samples=n, fixed_level=0)
        ref = mc_estimate(
            builtin_problem("quadratic").model,
            builtin_problem("quadratic").input,
            n,
            RngStream(21),
        )
        assert res.report.estimate == ref.estimate

    def test_identical_levels_only_base_term(self):
        h = identical_hierarchy()
        res = mlmc_estimate(h, 0.05, RngStream(22), fixed_level=2)
        assert res.levels[1].mean == 0.0
        assert res.levels[2].mean == 0.0
        base = res.levels[0]
        assert res.report.estimate == base.mean

    def test_gbm_converges_within_six_levels(self):
        res = mlmc_estimate(GBM.hierarchy, 1e-2, RngStream(23))
        assert res.report.diagnostics["converged"]
        assert len(res.levels) <= 7
        assert abs(res.report.estimate - GBM.truth["mean"]) < 3 * res.report.std_error + 1e-2

    def test_unbiased_at_fixed_levels(self):
        reps = 120
        vals = np.empty(reps)
        for r in range(reps):
            res = mlmc_estimate(
                GBM.hierarchy, 0.05, RngStream(40_000 + r), fixed_level=2,
                initial_samples=50,
            )
            vals[r] = res.report.estimate
        # Exact mean of the Euler scheme at 4 steps.
        target = (1 + 0.05 / 4) ** 4
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - target) < 3 * se

    def test_short_hierarchy_flags_untested_bias(self):
        h = LevelHierarchy(
            (builtin_problem("quadratic").model,), builtin_problem("quadratic").input
        )
        res = mlmc_estimate(h, 0.05, RngStream(28))
        assert "bias_untested" in res.report.diagnostics["flags"]
        assert len(res.levels) == 1

    def test_hierarchy_exhausted_flag(self):
        p = builtin_problem("gbm_euler", {"max_level": 2})
        res = mlmc_estimate(p.hierarchy, 1e-4, RngStream(24), max_cost=None)
        assert "bias_target_unmet" in res.report.diagnostics["flags"]

    def test_max_cost_enforced(self):
        # The cap is checked before each batch is drawn, so the ledger never
        # passes it: level 0's 100-unit pilot fits, level 1's does not.
        from uqmc import CostLedger

        ledger = CostLedger()
        with pytest.raises(BudgetError):
            mlmc_estimate(GBM.hierarchy, 1e-3, RngStream(25), max_cost=100.0, ledger=ledger)
        assert ledger.total() <= 100.0

    def test_initial_samples_need_two(self):
        # One pilot sample per level has zero variance, which would plan one
        # sample per level and report a zero-width interval.
        with pytest.raises(InvalidParameterError, match="initial_samples >= 2"):
            mlmc_estimate(GBM.hierarchy, 0.01, RngStream(26), initial_samples=1)

    def test_ledger_matches_report(self):
        from uqmc import CostLedger

        ledger = CostLedger()
        res = mlmc_estimate(GBM.hierarchy, 0.02, RngStream(26), ledger=ledger)
        assert res.report.total_cost == ledger.total()
        # Every coupled sample at level l costs cost(l) + cost(l-1).
        expected = sum(s.n * s.cost for s in res.levels)
        assert ledger.total() == pytest.approx(expected)

    def test_per_level_csv_quantities_consistent(self):
        res = mlmc_estimate(GBM.hierarchy, 0.02, RngStream(27))
        assert res.report.estimate == pytest.approx(sum(s.mean for s in res.levels))
        assert res.report.estimator_variance == pytest.approx(
            sum(s.variance / s.n for s in res.levels)
        )


class TestLevelStatsCache:
    """Each level's statistics are computed once per batch added, over
    the level's whole sample so far."""

    def test_one_stats_pass_per_batch(self, monkeypatch):
        import uqmc.mlmc

        calls = {"passes": 0, "batches": 0}

        def counting(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(uqmc.mlmc, "_level_stats", counting("passes", uqmc.mlmc._level_stats))
        monkeypatch.setattr(
            uqmc.mlmc, "coupled_sample", counting("batches", uqmc.mlmc.coupled_sample)
        )
        mlmc_estimate(GBM.hierarchy, 0.01, RngStream(29))
        assert calls["batches"] > 3  # top-ups after the pilots
        assert calls["passes"] == calls["batches"]

    def test_cached_stats_bit_identical(self, monkeypatch):
        import uqmc.mlmc

        batches: dict[int, list] = {}
        draw = uqmc.mlmc.coupled_sample

        def recording(h, level, n, rng, ledger=None):
            y = draw(h, level, n, rng, ledger)
            batches.setdefault(level, []).append(y)
            return y

        monkeypatch.setattr(uqmc.mlmc, "coupled_sample", recording)
        eps = 0.01
        res = mlmc_estimate(GBM.hierarchy, eps, RngStream(29))
        whole = [
            uqmc.mlmc._level_stats(lv, np.concatenate(ys), GBM.hierarchy.coupled_cost(lv))
            for lv, ys in sorted(batches.items())
        ]
        assert any(len(ys) > 1 for ys in batches.values())
        assert res.levels == whole
        assert res.plan == mlmc_allocation(whole, eps / math.sqrt(2.0))
        assert res.report.estimate == float(sum(s.mean for s in whole))
        assert res.report.estimator_variance == float(sum(s.variance / s.n for s in whole))


class TestDecayFits:
    def test_beta_exact_geometric_decay(self):
        v = [1.0] + [2.0 ** (-1.5 * l) for l in range(1, 5)]
        stats = stats_from(v, [2.0**l for l in range(5)])
        assert variance_decay_rate(stats) == pytest.approx(1.5, abs=1e-12)

    def test_beta_ignores_level_zero_and_zero_variances(self):
        v = [1e6, 0.5, 0.0, 0.125, 0.0625]
        stats = stats_from(v, [2.0**l for l in range(5)])
        # Over levels 1, 3, 4: log2 V = -1, -3, -4 gives slope -1.
        assert variance_decay_rate(stats) == pytest.approx(1.0, abs=1e-12)

    def test_beta_floor(self):
        stats = stats_from([1.0, 0.1, 0.2, 0.4], [2.0**l for l in range(4)])
        assert variance_decay_rate(stats) == 0.5
        assert variance_decay_rate(stats_from([1.0, 0.1, 0.0], [1.0, 2.0, 4.0])) == 0.5

    def test_variance_floor_in_level_order(self):
        stats = stats_from([1.0, 0.5, 0.001, 0.1, 1e-9], [1.0, 2.0, 4.0, 8.0, 16.0])
        floored = floor_variances(stats, 1.0)
        # Levels 0 and 1 are kept; level l >= 2 is raised to at least
        # V_{l-1} / 2^(beta + 1), with V_{l-1} already floored.
        assert [s.variance for s in floored] == [1.0, 0.5, 0.125, 0.1, 0.025]
        assert [replace(s, variance=0.0) for s in floored] == [
            replace(s, variance=0.0) for s in stats
        ]

    def test_remaining_bias_geometric_means(self):
        means = [1.0, 0.5, 0.25, 0.125]
        stats = stats_from([1.0] * 4, [2.0**l for l in range(4)], means=means)
        rem, alpha = remaining_bias(stats)
        # alpha = 1: rem = max(0.25 / 2, 0.125) / (2 - 1).
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert rem == pytest.approx(0.125, rel=1e-12)
        assert mlmc_convergence_test(stats, 0.18) == (True, alpha)
        assert mlmc_convergence_test(stats, 0.17) == (False, alpha)


class TestNewLevels:
    """Levels added by the bias test are sized from an extrapolated
    variance, with no fixed pilot."""

    DEMO = builtin_problem("gbm_euler", {"r": 1.0, "sigma": 0.25, "max_level": 10})

    def test_demo_config_spends_near_plan(self):
        # demos/configs/mlmc_gbm.json: eps 0.02, seed 17.
        res = mlmc_estimate(self.DEMO.hierarchy, 0.02, RngStream(17))
        assert len(res.levels) == 9
        assert res.report.total_cost <= 1.5 * res.plan.predicted_cost
        assert abs(res.report.estimate - self.DEMO.truth["mean"]) < 3 * res.report.std_error + 0.02

    def test_first_batch_is_planned_count(self, monkeypatch):
        import uqmc.mlmc

        events = []
        draw, allocate = uqmc.mlmc.coupled_sample, uqmc.mlmc.mlmc_allocation

        def recording_draw(h, level, n, rng, ledger=None):
            y = draw(h, level, n, rng, ledger)
            events.append(("draw", level, y))
            return y

        def recording_allocate(stats, eps):
            plan = allocate(stats, eps)
            events.append(("plan", stats, plan))
            return plan

        monkeypatch.setattr(uqmc.mlmc, "coupled_sample", recording_draw)
        monkeypatch.setattr(uqmc.mlmc, "mlmc_allocation", recording_allocate)
        h = self.DEMO.hierarchy
        res = mlmc_estimate(h, 0.02, RngStream(17))

        checked = 0
        for i, event in enumerate(events):
            if event[0] != "plan" or event[1][-1].n:
                continue
            new_level = event[1][-1].level
            drawn: dict[int, list] = {}
            for e in events[:i]:
                if e[0] == "draw":
                    drawn.setdefault(e[1], []).append(e[2])
            sampled = [
                uqmc.mlmc._level_stats(lv, np.concatenate(ys), h.coupled_cost(lv))
                for lv, ys in sorted(drawn.items())
            ]
            beta = variance_decay_rate(sampled)
            expected = floor_variances(sampled, beta)
            expected.append(
                LevelStats(
                    new_level, 0.0, expected[-1].variance / 2.0**beta, h.coupled_cost(new_level), 0
                )
            )
            assert event[1] == expected
            first = next(e[2] for e in events[i:] if e[0] == "draw" and e[1] == new_level)
            assert first.size == max(2, event[2].n_per_level[-1])
            checked += 1
        assert checked == len(res.levels) - 3
        first_sizes = [
            next(e[2].size for e in events if e[0] == "draw" and e[1] == lv)
            for lv in range(3, len(res.levels))
        ]
        assert 100 not in first_sizes
        assert first_sizes[-1] < 10  # level 8 wants 6 samples, not a 100-sample pilot

    def test_reported_plan_is_unfloored_allocation(self):
        res = mlmc_estimate(self.DEMO.hierarchy, 0.02, RngStream(17))
        assert res.plan == mlmc_allocation(res.levels, 0.02 / math.sqrt(2.0))

    def test_fixed_level_unchanged(self):
        # Values of the estimator before new levels were extrapolated:
        # fixed_level runs keep every draw.
        res = mlmc_estimate(self.DEMO.hierarchy, 0.01, RngStream(41), fixed_level=4)
        assert res.report.estimate == 2.650312196573447
        assert res.report.estimator_variance == 9.798265139113471e-05
        assert [s.n for s in res.levels] == [3606, 991, 696, 358, 186]
        assert res.plan.n_per_level == (3447, 978, 668, 357, 186)
        assert res.report.total_cost == 19515.0

    def test_diagnostics_report_rates_bias_and_rounds(self):
        res = mlmc_estimate(self.DEMO.hierarchy, 0.02, RngStream(17))
        d = res.report.diagnostics
        rem, alpha = remaining_bias(res.levels)
        assert d["bias_estimate"] == rem
        assert d["converged"] and rem < 0.02 / math.sqrt(2.0)
        assert d["alpha_hat"] == alpha
        assert d["beta_hat"] == variance_decay_rate(res.levels)
        assert d["gamma"] == pytest.approx(1.0, abs=1e-12)  # coupled costs double per level
        assert d["rounds"] >= 2

    def test_fixed_level_diagnostics(self):
        res = mlmc_estimate(self.DEMO.hierarchy, 0.05, RngStream(42), fixed_level=1)
        d = res.report.diagnostics
        assert d["alpha_hat"] is None and d["bias_estimate"] is None
        assert d["beta_hat"] is None and d["gamma"] is None
        assert d["rounds"] >= 1
