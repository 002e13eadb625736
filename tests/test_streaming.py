"""The streamed input layer: chunked inverse-CDF draws and the chunked
draw-and-evaluate walk behind MC, CV, MFMC, MLMC and two-level give the
results of drawing the whole input matrix first and evaluating it model
by model."""

import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaincinv, ndtri

import uqmc.mc
import uqmc.mfmc
import uqmc.mlmc
from uqmc import (
    ControlVariateConfig,
    CostLedger,
    Distribution,
    Family,
    FidelityEnsemble,
    LevelHierarchy,
    Model,
    RngStream,
    builtin_problem,
    cv_estimate,
    mc_estimate,
    mfmc_estimate,
    mlmc_estimate,
    two_level_estimate,
)
from uqmc.distributions import _EVAL_CHUNK, family_ppf, sample
from uqmc.exceptions import EvaluationError
from uqmc.mc import draw_evaluate, draw_inputs
from uqmc.mlmc import coupled_sample
from uqmc.models import evaluate

CHUNK = 7
POLY = builtin_problem("poly_fidelity")
GBM = builtin_problem("gbm_euler", {"max_level": 5})
DISTS = (
    Distribution(Family.NORMAL, (0.3, 1.7)),
    Distribution(Family.LOGNORMAL, (-0.2, 0.6)),
    Distribution(Family.GAMMA, (2.5, 0.8)),
    Distribution(Family.WEIBULL, (1.4, 2.0)),
    Distribution(Family.UNIFORM, (-1.0, 3.0)),
)


def use_small_chunks(mp):
    """Blocks of CHUNK draws and rows in every loaded uqmc module that
    holds ``_EVAL_CHUNK``, but ``_threads``: there the constant is the
    threshold for spreading work over threads, not a block size."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("uqmc.") and name != "uqmc._threads" and "_EVAL_CHUNK" in vars(mod):
            mp.setattr(mod, "_EVAL_CHUNK", CHUNK)


@pytest.fixture
def small_chunks(monkeypatch):
    use_small_chunks(monkeypatch)


def reference_draw_evaluate(models, counts, dist, rng, ledger=None):
    """Draw the whole input matrix, then evaluate each model on its prefix."""
    dim = models[0].input_dim
    x = dist.ppf(rng.uniforms(max(counts) * dim)).reshape(-1, dim)
    return [evaluate(m, x[:c], ledger) for m, c in zip(models, counts)]


def run_both(monkeypatch, fn):
    """fn(ledger) streamed in CHUNK-row blocks, then on the reference path."""
    with monkeypatch.context() as mp:
        use_small_chunks(mp)
        streamed_ledger = CostLedger()
        streamed = fn(streamed_ledger)
    with monkeypatch.context() as mp:
        for mod in (uqmc.mc, uqmc.mfmc, uqmc.mlmc):
            mp.setattr(mod, "draw_evaluate", reference_draw_evaluate)
        ref_ledger = CostLedger()
        ref = fn(ref_ledger)
    return streamed, streamed_ledger, ref, ref_ledger


class TestChunkedDraws:
    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.family.value)
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 6, 7, 8, 13, 14, 15, 50])
    def test_draw_inputs_equal_unchunked_formula(self, small_chunks, dist, dim, n):
        rng = RngStream(31, 5, counter=3)  # starts mid Philox block
        ref = dist.ppf(rng.uniforms(n * dim)).reshape(n, dim)
        assert np.array_equal(draw_inputs(dist, rng, n, dim), ref)

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.family.value)
    def test_sample_equals_unchunked_formula(self, small_chunks, dist):
        rng = RngStream(32)
        for n in (1, 7, 22):
            assert np.array_equal(sample(dist, rng, n), dist.ppf(rng.uniforms(n)))

    def test_default_chunk_edges(self):
        dist = DISTS[2]
        rng = RngStream(33)
        n = 2 * _EVAL_CHUNK + 5
        assert np.array_equal(sample(dist, rng, n), dist.ppf(rng.uniforms(n)))

    def test_in_place_ppf_matches_closed_forms(self):
        # The in-place kernels against the textbook expressions.
        u = RngStream(34).uniforms(10_000)
        a, b = 1.3, 0.7
        closed = {
            Family.NORMAL: a + b * ndtri(u),
            Family.LOGNORMAL: np.exp(a + b * ndtri(u)),
            Family.GAMMA: b * gammaincinv(a, u),
            Family.WEIBULL: b * (-np.log1p(-u)) ** (1.0 / a),
            Family.UNIFORM: a + u * ((a + b) - a),
        }
        for fam, want in closed.items():
            hi = a + b if fam is Family.UNIFORM else b
            assert np.array_equal(family_ppf(fam, a, hi, u), want), fam
            buf = u.copy()
            assert family_ppf(fam, a, hi, buf, out=buf) is buf
            assert np.array_equal(buf, want), fam

    def test_ppf_broadcasts_and_keeps_scalars(self):
        n01 = Distribution(Family.NORMAL, (0.0, 1.0))
        assert np.ndim(n01.ppf(0.5)) == 0 and n01.ppf(0.5) == 0.0
        got = family_ppf(Family.GAMMA, np.array([1.0, 2.0, 3.0]), 2.0, 0.25)
        assert np.array_equal(got, 2.0 * gammaincinv(np.array([1.0, 2.0, 3.0]), 0.25))


def square_model(mid="sq", cost=1.0, dim=1):
    return Model(mid, lambda x: np.sum(x**2, axis=1), cost, input_dim=dim)


class TestStreamedEstimators:
    @pytest.mark.parametrize("dim", [1, 3])
    def test_mc_matches_reference(self, monkeypatch, dim):
        model = square_model(dim=dim)

        def run(ledger):
            return mc_estimate(model, DISTS[1], 53, RngStream(41), ledger)

        got, got_ledger, ref, ref_ledger = run_both(monkeypatch, run)
        assert got.to_dict() == ref.to_dict()
        assert got_ledger.as_dict() == ref_ledger.as_dict()

    @pytest.mark.parametrize("coef", ["auto", 0.5])
    def test_cv_matches_reference(self, monkeypatch, coef):
        ens = POLY.ensemble
        cfg = ControlVariateConfig(ens.lows[0], POLY.truth["low_means"][0], coef, pilot_n=17)

        def run(ledger):
            return cv_estimate(ens.high, POLY.input, cfg, 60, RngStream(42), ledger)

        got, got_ledger, ref, ref_ledger = run_both(monkeypatch, run)
        assert got.to_dict() == ref.to_dict()
        assert got_ledger.as_dict() == ref_ledger.as_dict()

    def test_mfmc_matches_reference(self, monkeypatch):
        def run(ledger):
            return mfmc_estimate(
                POLY.ensemble, POLY.input, 300.0, RngStream(43), n_pilot=20, ledger=ledger
            )

        (got, got_plan), got_ledger, (ref, ref_plan), ref_ledger = run_both(monkeypatch, run)
        # The three prefix counts end in different blocks.
        assert len({n // CHUNK for n in got_plan.n}) == len(got_plan.n) == 3
        assert got_plan == ref_plan
        assert got.to_dict() == ref.to_dict()
        assert got_ledger.as_dict() == ref_ledger.as_dict()

    def test_mfmc_all_dropped_matches_reference(self, monkeypatch):
        # A surrogate uncorrelated with the high-fidelity model is dropped
        # and the run falls back to streamed plain MC.
        hi = Model("hi", lambda x: x[:, 0], 1.0)
        lo = Model("lo", lambda x: np.cos(40.0 * x[:, 0]), 0.5)
        ens = FidelityEnsemble(hi, (lo,))

        def run(ledger):
            return mfmc_estimate(ens, POLY.input, 200.0, RngStream(44), n_pilot=20, ledger=ledger)

        (got, _), got_ledger, (ref, _), ref_ledger = run_both(monkeypatch, run)
        assert "all_surrogates_dropped" in got.diagnostics["flags"]
        assert got.to_dict() == ref.to_dict()
        assert got_ledger.as_dict() == ref_ledger.as_dict()

    def test_mlmc_matches_reference(self, monkeypatch):
        def run(ledger):
            return mlmc_estimate(
                GBM.hierarchy, 0.01, RngStream(46), initial_samples=20, ledger=ledger
            )

        got, got_ledger, ref, ref_ledger = run_both(monkeypatch, run)
        # Top-ups start mid-block: some level holds a count off the block grid.
        assert any(s.n % CHUNK for s in got.levels) and len(got.levels) == 5
        assert got.levels == ref.levels
        assert got.plan == ref.plan
        assert got.report.to_dict() == ref.report.to_dict()
        assert got_ledger.as_dict() == ref_ledger.as_dict()

    def test_two_level_matches_reference(self, monkeypatch):
        coarse, fine = GBM.hierarchy.levels[1:3]

        def run(ledger):
            return two_level_estimate(
                coarse, fine, GBM.input, 2000.0, RngStream(47), ledger,
                pilot_n=20, coarsen=GBM.hierarchy.coarsen,
            )

        got, got_ledger, ref, ref_ledger = run_both(monkeypatch, run)
        assert got.diagnostics["n0"] > CHUNK and got.diagnostics["n1"] > CHUNK
        assert got.to_dict() == ref.to_dict()
        assert got_ledger.as_dict() == ref_ledger.as_dict()

    def test_wall_time_summed_per_model(self, small_chunks):
        ledger = CostLedger()
        mfmc_estimate(POLY.ensemble, POLY.input, 300.0, RngStream(45), n_pilot=20, ledger=ledger)
        assert set(ledger.wall_time) == set(ledger.counts)
        assert all(s > 0.0 for s in ledger.wall_time.values())


def failing_at(x_bad, mid, cost=1.0):
    """x squared, but inf on the input row equal to x_bad."""

    def fn(x):
        y = x[:, 0] ** 2
        y[np.all(x == x_bad, axis=1)] = np.inf
        return y

    return Model(mid, fn, cost, input_dim=x_bad.size)


class TestStreamedErrors:
    def test_nonfinite_past_first_chunk_has_global_index(self):
        dist, rng, n = DISTS[0], RngStream(51), _EVAL_CHUNK + 100
        bad = _EVAL_CHUNK + 3
        x = draw_inputs(dist, rng.split(0), n)
        with pytest.raises(EvaluationError) as exc:
            mc_estimate(failing_at(x[bad], "f"), dist, n, rng)
        assert exc.value.index == bad
        assert np.array_equal(exc.value.x, x[bad])
        assert str(exc.value) == f"model 'f' produced non-finite output at sample {bad}"

    def streamed_and_reference_errors(self, models, counts, rng):
        results = []
        for walk in (draw_evaluate, reference_draw_evaluate):
            ledger = CostLedger()
            with pytest.raises(EvaluationError) as exc:
                walk(models, counts, DISTS[0], rng, ledger)
            results.append((str(exc.value), exc.value.index, exc.value.x, ledger.as_dict()))
        return results

    def test_first_model_in_order_is_named(self, small_chunks):
        rng = RngStream(52)
        x = draw_inputs(DISTS[0], rng, 40, 2)
        # "a" fails in block 3 and "b" in block 1: "a" is named, as when
        # each model evaluates its whole prefix in turn.
        models = [failing_at(x[17], "a"), failing_at(x[2], "b"), square_model("c", dim=2)]
        (msg, idx, xr, led), ref = self.streamed_and_reference_errors(models, [20, 30, 40], rng)
        assert (msg, idx, led) == ref[:2] + ref[3:]
        assert idx == 17 and np.array_equal(xr, ref[2]) and np.array_equal(xr, x[17])
        assert led["counts"] == {}

    def test_later_model_charges_earlier_ones(self, small_chunks):
        rng = RngStream(53)
        x = draw_inputs(DISTS[0], rng, 40, 1)
        models = [square_model("a"), failing_at(x[25], "b", 0.5), square_model("c", 0.1)]
        (msg, idx, xr, led), ref = self.streamed_and_reference_errors(models, [9, 30, 40], rng)
        assert (msg, idx, led) == ref[:2] + ref[3:]
        assert idx == 25 and np.array_equal(xr, x[25])
        assert led["counts"] == {"a": 9}

    def test_coarse_level_error_names_coarse_model(self, small_chunks):
        rng, n, bad = RngStream(55), 40, 17
        coarsen = GBM.hierarchy.coarsen
        x = draw_inputs(DISTS[0], rng, n, 2)
        fine = square_model("fine", cost=2.0, dim=2)
        h = LevelHierarchy((failing_at(coarsen(x)[bad], "coarse"), fine), DISTS[0], coarsen)
        ledger = CostLedger()
        with pytest.raises(EvaluationError) as exc:
            coupled_sample(h, 1, n, rng, ledger)
        assert str(exc.value) == f"model 'coarse' produced non-finite output at sample {bad}"
        assert exc.value.index == bad
        assert np.array_equal(exc.value.x, x[bad])  # the fine row it was coarsened from
        assert ledger.as_dict()["counts"] == {"fine": n}

    def test_shape_error_matches_reference(self, small_chunks):
        rng = RngStream(54)
        x = draw_inputs(DISTS[0], rng, 40, 1)
        short = Model("short", lambda x: x[:-1, 0], 1.0)
        models = [failing_at(x[30], "a"), short]
        (msg, idx, _, led), ref = self.streamed_and_reference_errors(models, [35, 40], rng)
        assert (msg, idx, led) == ref[:2] + ref[3:]
        assert idx == 30
        # The streamed error names the rows of the first block.
        models = [square_model("a"), short]
        (msg, idx, _, led), ref = self.streamed_and_reference_errors(models, [35, 40], rng)
        assert (idx, led) == (ref[1], ref[3])
        assert msg == "model 'short' returned shape (6,) for 7 inputs"


def test_mfmc_peak_memory_near_output_size():
    # The main sample is never held as one input matrix: peak traced
    # memory stays within 1.5x the bytes of the output arrays.
    tracemalloc.start()
    try:
        _, plan = mfmc_estimate(POLY.ensemble, POLY.input, 3e4, RngStream(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.n[-1] > 10 * _EVAL_CHUNK
    assert peak < 1.5 * 8 * sum(plan.n)
