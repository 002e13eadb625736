import math

import numpy as np
import pytest

from uqmc import two_level_estimate
from uqmc.exceptions import EvaluationError, InvalidParameterError
from uqmc.distributions import _EVAL_CHUNK
from uqmc.models import (
    CostLedger,
    LevelHierarchy,
    Model,
    builtin_problem,
    evaluate,
)
from uqmc.mc import draw_inputs
from uqmc.rng import RngStream


def test_constant_model_and_ledger():
    m = Model("const", lambda x: np.full(x.shape[0], 2.5), cost_per_eval=1.5)
    ledger = CostLedger()
    y = evaluate(m, np.zeros((3, 1)), ledger)
    assert np.array_equal(y, [2.5, 2.5, 2.5])
    assert ledger.count("const") == 3
    assert ledger.total() == pytest.approx(3 * 1.5)


def test_square_model():
    m = Model("sq", lambda x: x[:, 0] ** 2, cost_per_eval=1.0)
    assert np.array_equal(evaluate(m, [[2.0]]), [4.0])


def test_ledger_charged_exactly_per_batch():
    m = Model("sq", lambda x: x[:, 0] ** 2, cost_per_eval=0.25)
    ledger = CostLedger()
    for n in (1, 7, 42):
        evaluate(m, np.ones((n, 1)), ledger)
    assert ledger.count("sq") == 50
    assert ledger.total() == pytest.approx(50 * 0.25)


def test_dimension_mismatch():
    m = Model("sq", lambda x: x[:, 0] ** 2, cost_per_eval=1.0, input_dim=2)
    with pytest.raises(InvalidParameterError):
        evaluate(m, np.ones((3, 1)))


def test_nonfinite_output_flagged_with_input():
    def bad(x):
        y = x[:, 0].copy()
        y[y > 0.5] = np.nan
        return y

    m = Model("bad", bad, cost_per_eval=1.0)
    ledger = CostLedger()
    with pytest.raises(EvaluationError) as exc:
        evaluate(m, np.array([[0.1], [0.9], [0.2]]), ledger)
    assert exc.value.index == 1
    assert exc.value.x == pytest.approx([0.9])
    # Failed batches are not charged.
    assert ledger.total() == 0.0


def test_chunking_matches_whole_batch():
    m = Model("sq", lambda x: x[:, 0] ** 2, cost_per_eval=1.0)
    x = draw_inputs(builtin_problem("quadratic").input, RngStream(4), 200_000, 1)
    assert x.shape[0] > 3 * _EVAL_CHUNK  # more rows than three draw_evaluate blocks
    assert np.array_equal(evaluate(m, x), m.fn(x))


def test_outputs_are_not_a_view_of_the_inputs():
    x = np.arange(5.0)[:, None]
    y = evaluate(Model("ident", lambda x: x[:, 0], cost_per_eval=1.0), x)
    assert np.array_equal(y, x[:, 0]) and not np.shares_memory(y, x)


class TestBuiltinProblems:
    def test_unknown_name_and_params(self):
        with pytest.raises(InvalidParameterError):
            builtin_problem("nope")
        with pytest.raises(InvalidParameterError):
            builtin_problem("quadratic", {"bogus": 1})

    def test_quadratic_truth(self):
        p = builtin_problem("quadratic")
        assert p.truth["mean"] == 1.0
        assert p.truth["variance"] == 2.0

    def test_gbm_martingale_truth_when_r_zero(self):
        p = builtin_problem("gbm_euler", {"r": 0.0, "s0": 2.0})
        assert p.truth["mean"] == pytest.approx(2.0)

    def test_gbm_level_models_cost_and_dim(self):
        h = builtin_problem("gbm_euler").hierarchy
        for level, m in enumerate(h.levels):
            assert m.cost_per_eval == 2**level
            assert m.input_dim == 2**level
        assert h.coupled_cost(2) == 4 + 2

    def test_gbm_coupled_variance_decays(self):
        h = builtin_problem("gbm_euler").hierarchy
        n = 10_000
        rng = RngStream(17)
        var_corr = []
        var_fine = None
        for level in range(1, 5):
            fine = h.levels[level]
            x = draw_inputs(h.input, rng.split(level), n, fine.input_dim)
            yf = evaluate(fine, x)
            yc = evaluate(h.levels[level - 1], h.coarsen(x))
            var_corr.append(np.var(yf - yc, ddof=1))
            if level == 1:
                var_fine = np.var(yf, ddof=1)
        # Coupling: the correction variance sits below the plain level variance
        # and decays monotonically with level.
        assert var_corr[0] < var_fine
        assert all(b < a for a, b in zip(var_corr, var_corr[1:]))

    def test_coupled_models_take_fine_inputs(self):
        h = builtin_problem("gbm_euler").hierarchy
        assert h.coupled_models(0) == (h.levels[0],)
        fine, coarse = h.coupled_models(3)
        assert fine is h.levels[3]
        assert (coarse.id, coarse.cost_per_eval, coarse.input_dim) == ("gbm_l2", 4.0, 8)
        x = draw_inputs(h.input, RngStream(18), 50, 8)
        assert np.array_equal(coarse.fn(x), h.levels[2].fn(h.coarsen(x)))
        # A coarsen of the wrong width fails the coarse model's input check.
        wrong = LevelHierarchy(h.levels[:3], h.input, lambda z: z)
        with pytest.raises(InvalidParameterError, match="'gbm_l1' expects input_dim=2"):
            evaluate(wrong.coupled_models(2)[1], draw_inputs(h.input, RngStream(18), 5, 4))

    def test_gbm_panels_match_a_step_by_step_loop(self):
        # The level models reduce their steps in panels of columns; every
        # output must equal the plain Euler loop bit for bit, starting from
        # s0, at widths of one to many panels.  The inputs are overlapping
        # windows of one normal vector, so that 1 000 rows of 2^14 columns
        # take 170 kB, not 131 MB.
        s0, r, sigma, horizon = 1.7, 0.05, 0.2, 2.0
        params = {"s0": s0, "r": r, "sigma": sigma, "T": horizon, "max_level": 14}
        h = builtin_problem("gbm_euler", params).hierarchy

        def reference(z):
            dt = horizon / z.shape[1]
            s = np.full(z.shape[0], s0)
            for j in range(z.shape[1]):
                s = s * (1.0 + r * dt + sigma * math.sqrt(dt) * z[:, j])
            return s

        rng = np.random.default_rng(29)
        for level, model in enumerate(h.levels):
            for rows in (1, 16, 149, 1_000):
                flat = rng.standard_normal(model.input_dim + 5 * rows)
                z = np.lib.stride_tricks.sliding_window_view(flat, model.input_dim)[::5][:rows]
                assert np.array_equal(model.fn(z), reference(z)), (level, rows)

        # A non-finite input gives the loop's first non-finite output index.
        model = h.levels[9]
        z = rng.standard_normal((149, model.input_dim))
        z[5, 300], z[148, 0] = np.inf, np.nan
        bad = np.flatnonzero(~np.isfinite(reference(z)))
        with pytest.raises(EvaluationError) as exc:
            evaluate(model, z)
        assert exc.value.index == bad[0] == 5

    def test_gbm_euler_mean_matches_analytic(self):
        p = builtin_problem("gbm_euler", {"max_level": 6})
        m = p.hierarchy.levels[6]
        x = draw_inputs(p.hierarchy.input, RngStream(23), 200_000, m.input_dim)
        y = evaluate(m, x)
        se = y.std(ddof=1) / math.sqrt(y.size)
        # Euler bias at 64 steps is far below these 3-sigma error bars.
        assert abs(y.mean() - p.truth["mean"]) < 3 * se + 0.002

    def test_poly_fidelity_structure(self):
        p = builtin_problem("poly_fidelity")
        assert [m.id for m in p.ensemble.all_models] == ["poly_hi", "poly_lo1", "poly_lo2"]
        assert p.truth["mean"] == pytest.approx(0.1)
        assert len(p.truth["rho"]) == 2

    def test_smalldata_bundle(self):
        p = builtin_problem("smalldata_demo")
        assert p.dataset.n == 10
        assert np.all(p.dataset.values > 0)
        y = evaluate(p.model, [[0.0], [1.0]])
        assert y == pytest.approx([1.0, math.exp(0.3)])

    def test_hierarchy_validation(self):
        m1 = Model("a", lambda x: x[:, 0], 1.0)
        m2 = Model("b", lambda x: x[:, 0], 1.0)
        with pytest.raises(InvalidParameterError):
            LevelHierarchy((m1, m2), builtin_problem("quadratic").input)
        # two_level_estimate builds the same hierarchy, so its coarse model
        # must be strictly cheaper than its fine one.
        dear = Model("c", lambda x: x[:, 0], 2.0)
        x_dist = builtin_problem("quadratic").input
        for coarse in (m2, dear):
            with pytest.raises(InvalidParameterError, match="strictly increasing"):
                two_level_estimate(coarse, m1, x_dist, 1e4, RngStream(1))
