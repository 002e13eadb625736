"""The streamed input layer: chunked inverse-CDF draws and the chunked
draw-and-evaluate walk behind MC, CV, MFMC, MLMC and two-level give the
results of drawing the whole input matrix first and evaluating it model
by model."""

import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

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
    level_statistics,
    mc_estimate,
    mfmc_estimate,
    mlmc_estimate,
    two_level_estimate,
)
from uqmc.distributions import _EVAL_CHUNK, family_ppf, sample
from uqmc.exceptions import EvaluationError
from uqmc.mc import _Moments, draw_evaluate, draw_inputs
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


def reference_draw_evaluate(models, counts, dist, rng, ledger=None, reduce=None):
    """Draw the whole input matrix, then evaluate each model on its prefix;
    ``reduce`` gets every model's whole output as one block, so MC, CV and
    MFMC reduce it with numpy over the whole array."""
    dim = models[0].input_dim
    x = dist.ppf(rng.uniforms(max(counts) * dim)).reshape(-1, dim)
    ys = [evaluate(m, x[:c], ledger) for m, c in zip(models, counts)]
    return ys if reduce is None else [reduce(0, ys)]


def draw_stored(models, counts, dist, rng, ledger=None):
    """Every model's outputs on its rows, which ``draw_evaluate``'s
    ``reduce`` stores block by block into one array per model."""
    out = [np.empty(c) for c in counts]

    def store(lo, ys):
        for o, y in zip(out, ys):
            if y is not None:
                o[lo : lo + y.size] = y

    draw_evaluate(models, counts, dist, rng, ledger, store)
    return out


# MC, CV, MFMC, MLMC and two-level merge per-block sums in block order, so
# over many blocks they move in their last bits against numpy over the
# whole array.  Over the seeds 40-139 of the reference tests below, with
# CHUNK-row blocks, the worst float was 15 ulp off (an MFMC estimate, whose
# terms cancel) and 9 ulp for every MC and CV figure.  Since the MFMC pilot
# merges its blocks too, MFMC moves more: its plan goes through 1 - rho_1^2,
# so at 95 of those seeds the plan's t, n_real and chi and the estimator
# variance move by up to 2e5 ulp, and the estimate by up to 63.  Seed 43 is
# one of the five where every float stays within ULPS.
ULPS = 32


def assert_close(got, ref, ulps=ULPS):
    """``got == ref``, but for floats (in dicts, lists and tuples), which
    may differ by ``ulps`` units in the last place of the reference."""
    if isinstance(ref, dict):
        assert got.keys() == ref.keys()
        for k in ref:
            assert_close(got[k], ref[k], ulps)
    elif isinstance(ref, (list, tuple)):
        assert type(got) is type(ref) and len(got) == len(ref)
        for g, r in zip(got, ref):
            assert_close(g, r, ulps)
    elif isinstance(ref, float):
        assert abs(got - ref) <= ulps * np.spacing(abs(ref)), (got, ref)
    else:
        assert got == ref


def mlmc_parts(result):
    """An ``MlmcResult`` as plain values for ``assert_close``."""
    return {
        "report": result.report.to_dict(),
        "plan": asdict(result.plan),
        "levels": [asdict(s) for s in result.levels],
        "rounds": [asdict(r) for r in result.rounds],
    }


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
        assert got_ledger.as_dict() == ref_ledger.as_dict()
        assert_close(got.to_dict(), ref.to_dict())

    @pytest.mark.parametrize("coef", ["auto", 0.5])
    def test_cv_matches_reference(self, monkeypatch, coef):
        ens = POLY.ensemble
        cfg = ControlVariateConfig(ens.lows[0], POLY.truth["low_means"][0], coef, pilot_n=17)

        def run(ledger):
            return cv_estimate(ens.high, POLY.input, cfg, 60, RngStream(42), ledger)

        got, got_ledger, ref, ref_ledger = run_both(monkeypatch, run)
        assert got_ledger.as_dict() == ref_ledger.as_dict()
        assert_close(got.to_dict(), ref.to_dict())

    def test_mfmc_matches_reference(self, monkeypatch):
        def run(ledger):
            return mfmc_estimate(
                POLY.ensemble, POLY.input, 300.0, RngStream(43), n_pilot=20, ledger=ledger
            )

        (got, got_plan), got_ledger, (ref, ref_plan), ref_ledger = run_both(monkeypatch, run)
        # The three prefix counts end in different blocks.
        assert len({n // CHUNK for n in got_plan.n}) == len(got_plan.n) == 3
        assert got_ledger.as_dict() == ref_ledger.as_dict()
        # The pilot of 20 rows spans three blocks here and one there: the
        # plan's counts, budget and flags agree, and its floats by ULPS.
        assert_close(vars(got_plan), vars(ref_plan))
        assert_close(got.to_dict(), ref.to_dict())

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
        assert got_ledger.as_dict() == ref_ledger.as_dict()
        assert_close(got.to_dict(), ref.to_dict())

    def test_mlmc_matches_reference(self, monkeypatch):
        def run(ledger):
            return mlmc_estimate(
                GBM.hierarchy, 0.01, RngStream(46), initial_samples=20, ledger=ledger
            )

        got, got_ledger, ref, ref_ledger = run_both(monkeypatch, run)
        # Top-ups start mid-block: some level holds a count off the block grid.
        assert any(s.n % CHUNK for s in got.levels) and len(got.levels) == 5
        # The same counts and plan; the floats of multi-block batches move
        # in their last bits only.
        assert [s.n for s in got.levels] == [s.n for s in ref.levels]
        assert got.plan.n_per_level == ref.plan.n_per_level
        assert_close(mlmc_parts(got), mlmc_parts(ref))
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
        assert_close(got.to_dict(), ref.to_dict())
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
        for walk in (draw_stored, reference_draw_evaluate):
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


class TestReduction:
    """MC, CV, MFMC and the pilots reduce each block of outputs once all
    its models have been evaluated (``draw_evaluate``'s ``reduce``) and
    merge the blocks in block order."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 17, 50, _EVAL_CHUNK])
    def test_record_of_one_block_is_numpy_bit_for_bit(self, k, n):
        # The pilots of CV, MFMC and two-level read their variances and
        # covariances from the moments of k series, which on one block are
        # np.mean, np.var and np.cov.  At n = 50, the default MFMC and
        # two-level pilot, m2 / 49 is not np.cov's m2 * (1 / 49).
        models, rng = POLY.ensemble.all_models[:k], RngStream(81)
        blocks = draw_evaluate(
            models, [n] * k, POLY.input, rng, None, lambda lo, ys: _Moments.of(*ys)
        )
        ys = draw_stored(models, [n] * k, POLY.input, rng)
        assert len(blocks) == 1
        (m,) = blocks
        assert m.n == n and m.mean.shape == (k,) and m.m2.shape == (k, k)
        for i, y in enumerate(ys):
            assert m.mean[i] == np.mean(y)
            assert m.var(i, ddof=0) == np.var(y) and m.var(i) == np.var(y, ddof=1)
            for j in range(k):
                assert j == i or m.cov(i, j) == np.cov(y, ys[j])[0, 1]

    @pytest.mark.parametrize("offset", [0.0, 1.0, 1e3])
    def test_record_merge_matches_numpy_cov_of_concatenation(self, offset):
        # After every merge of a block of three correlated series at
        # ``offset`` standard deviations, the means, variances and
        # covariances agree with np.mean and np.cov of all samples so far
        # within 8 ulp scaled by 1 + offset; a covariance relative to
        # sqrt(var_i var_j), since one near 0 has no meaningful ulp.  Over
        # seeds 0-49 the worst case was 5.1 ulp scaled so.
        rtol = 8 * np.finfo(float).eps * (1.0 + offset)
        mix = np.array([[1.0, 0.0, 0.0], [0.8, 0.6, 0.0], [-0.6, 0.0, 0.8]])
        rng = np.random.default_rng(9)
        acc, parts = _Moments(), []
        for size in (1, 1, 2, 5, 100, 3, 4097, 1, 70_000):
            parts.append(2.5 * (mix @ rng.standard_normal((3, size)) + offset))
            acc.merge(_Moments.of(*parts[-1].copy()))
            y = np.concatenate(parts, axis=1)
            assert acc.n == y.shape[1]
            mean = np.mean(y, axis=1)
            assert np.all(np.abs(acc.mean - mean) <= rtol * (np.abs(mean) + 2.5))
            if acc.n < 2:
                continue
            cov = np.cov(y)
            for i in range(3):
                for j in range(3):
                    got = acc.var(i) if i == j else acc.cov(i, j)
                    assert abs(got - cov[i, j]) <= rtol * np.sqrt(cov[i, i] * cov[j, j])

    @pytest.mark.parametrize("offset", [0.0, 1.0, 1e3])
    def test_multi_block_merge_matches_numpy_of_concatenation(self, small_chunks, offset):
        # As ``test_mlmc``'s batch merge: the merged mean and variances
        # agree with np.mean / np.var of all outputs within 8 ulp scaled by
        # 1 + offset (in standard deviations of the data).
        rtol = 8 * np.finfo(float).eps * (1.0 + offset)
        model = Model("shift", lambda x: 2.5 * (x[:, 0] + offset), 1.0)
        rng, n = RngStream(71), 500
        report = mc_estimate(model, DISTS[0], n, rng)
        (y,) = draw_stored([model], [n], DISTS[0], rng.split(0))
        assert n > 50 * CHUNK
        assert abs(report.estimate - np.mean(y)) <= rtol * (abs(np.mean(y)) + 2.5)
        for key, ddof in (("zeta_sq", 1), ("zeta_sq_biased", 0)):
            want = np.var(y, ddof=ddof)
            assert abs(report.diagnostics[key] - want) <= rtol * want

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("n", [2, 1000, "block"])
    def test_one_block_is_numpy_bit_for_bit(self, dim, n):
        n = uqmc.mc._block_rows(dim) if n == "block" else n
        rng = RngStream(72)
        model = square_model(dim=dim)
        report = mc_estimate(model, DISTS[1], n, rng)
        (y,) = draw_stored([model], [n], DISTS[1], rng.split(0))
        assert report.estimate == float(np.mean(y))
        assert report.diagnostics["zeta_sq"] == float(np.var(y, ddof=1))
        assert report.diagnostics["zeta_sq_biased"] == float(np.var(y, ddof=0))
        assert report.estimator_variance == float(np.var(y, ddof=1)) / n

        ens = POLY.ensemble
        cfg = ControlVariateConfig(ens.lows[0], POLY.truth["low_means"][0], "auto", pilot_n=17)
        report = cv_estimate(ens.high, POLY.input, cfg, n, rng)
        # The pilot of 17 rows is one block too: its coefficient and
        # correlation are numpy's.
        yp, gp = draw_stored([ens.high, ens.lows[0]], [17, 17], POLY.input, rng.split(1))
        cov, var_y, var_g = np.cov(yp, gp)[0, 1], np.var(yp, ddof=1), np.var(gp, ddof=1)
        assert report.diagnostics["lambda"] == float(cov) / float(var_g)
        assert report.diagnostics["rho_pilot"] == float(cov) / np.sqrt(float(var_y) * float(var_g))
        y, g = draw_stored([ens.high, ens.lows[0]], [n, n], POLY.input, rng.split(0))
        adjusted = y - report.diagnostics["lambda"] * (g - cfg.control_mean)
        assert report.estimate == float(np.mean(adjusted))
        assert report.diagnostics["zeta_sq"] == float(np.var(adjusted, ddof=1))
        assert report.diagnostics["zeta_sq_biased"] == float(np.var(adjusted, ddof=0))

    def test_nested_draws_keep_the_outer_block(self):
        # A model, or a ppf that is not a Distribution's, may run a draw of
        # its own on the same thread.  It must not write into the buffers
        # that hold the outer block's inputs or uniforms: the outer reads
        # them after the inner draw returns.
        inner = square_model("inner")
        draw_stored([inner], [50], DISTS[0], RngStream(73))  # fills this thread's buffers

        def fn(x):
            draw_stored([inner], [50], DISTS[0], RngStream(73))
            return x[:, 0] + 1.0

        (got,) = draw_stored([Model("outer", fn, 1.0)], [300], DISTS[1], RngStream(74))
        assert np.array_equal(got, draw_inputs(DISTS[1], RngStream(74), 300)[:, 0] + 1.0)

        class Doubling:
            def ppf(self, u):
                sample(DISTS[0], RngStream(75), 50)
                return 2.0 * u

        sample(DISTS[0], RngStream(75), 50)
        got = draw_inputs(Doubling(), RngStream(76), 300)
        assert np.array_equal(got[:, 0], 2.0 * RngStream(76).uniforms(300))


def _mc_run(ledger):
    return mc_estimate(POLY.ensemble.lows[1], POLY.input, 2_000_000, RngStream(3), ledger)


def _cv_run(ledger):
    ens = POLY.ensemble
    cfg = ControlVariateConfig(ens.lows[0], POLY.truth["low_means"][0], "auto")
    return cv_estimate(ens.high, POLY.input, cfg, 2_000_000, RngStream(3), ledger)


def _mfmc_run(ledger):
    _, plan = mfmc_estimate(POLY.ensemble, POLY.input, 3e4, RngStream(3), ledger=ledger)
    assert plan.n[-1] > 10 * _EVAL_CHUNK


@pytest.mark.parametrize("run", [_mc_run, _cv_run, _mfmc_run], ids=["mc", "cv", "mfmc"])
def test_streamed_peak_memory_bounded_by_blocks(run):
    # Neither the input matrix nor the outputs are held whole: the peak
    # traced memory stays under 16 blocks of _EVAL_CHUNK doubles, whatever
    # the sample size, while every run below evaluates more than 10 blocks
    # of rows (their outputs alone would take 16 MB or more).
    ledger = CostLedger()
    tracemalloc.start()
    try:
        run(ledger)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(ledger.counts.values()) > 10 * _EVAL_CHUNK
    assert peak < 16 * _EVAL_CHUNK * 8


def test_fine_level_peak_memory_bounded_by_blocks():
    # 1 000 rows of level 12 are 4.1 million draws.  They go in blocks of
    # _EVAL_CHUNK draws (16 rows), like every other call, so the peak stays
    # under the same bound as the streamed estimators above.
    h = builtin_problem("gbm_euler", {"max_level": 12}).hierarchy
    tracemalloc.start()
    try:
        coupled_sample(h, 12, 1_000, RngStream(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * _EVAL_CHUNK * 8


@pytest.mark.parametrize("level, n", [(0, 2_000_000), (1, 500_000)])
def test_level_batch_peak_memory_bounded_by_blocks(level, n):
    # MLMC batches reduce each block of corrections once it is evaluated.
    # Stored, 2 000 000 level-0 corrections would take 16 MB, and 500 000
    # at level 1 three arrays (fine, coarse and their difference) of 4 MB;
    # streamed, both stay under the bound above.
    h = GBM.hierarchy
    tracemalloc.start()
    try:
        stats = level_statistics(h, level, n, RngStream(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.n == n and n > 10 * uqmc.mc._block_rows(h.levels[level].input_dim)
    assert peak < 16 * _EVAL_CHUNK * 8


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc trims freed blocks")
def test_streamed_blocks_reuse_their_buffers():
    # glibc gives a freed block-sized array back to the kernel, so a block
    # walk that allocated its inputs and uniforms afresh per block would
    # fault their pages in again on every block.  The walk reuses each
    # thread's buffers instead.  It runs in a fresh process, since the
    # arrays earlier tests freed raise glibc's thresholds for the rest of
    # this one.  On a 2-core machine the second call below measured about
    # 1 500 minor faults, and 6 300-7 300 with either the input buffer or
    # both buffers allocated per block.
    code = """
import resource
import numpy as np
from uqmc import RngStream, builtin_problem
from uqmc.mc import draw_evaluate
poly = builtin_problem("poly_fidelity")
by_id = {m.id: m for m in poly.ensemble.all_models}
for seed in (77, 78):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    draw_evaluate(
        [by_id["poly_lo2"], by_id["poly_hi"]], [4_000_000, 200_000], poly.input,
        RngStream(seed), None, lambda lo, ys: [float(np.add.reduce(y)) for y in ys if y is not None],
    )
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    faults = [int(v) for v in out.stdout.split()]
    assert len(faults) == 2, out.stderr
    assert faults[1] < 4_000, faults
