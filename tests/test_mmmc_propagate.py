import hashlib
import math

import numpy as np
import pytest

from uqmc import CostLedger, Distribution, Family, Model, RngStream, builtin_problem, mc_estimate
from uqmc.exceptions import EstimatorError
from uqmc.mmmc import (
    CandidateModelSet,
    MixtureDensity,
    PropagationSamples,
    build_candidate_set,
    draw_propagation_samples,
    is_estimate,
    propagate_multimodel,
    reweight,
)
from uqmc.mmmc.inference import ModelProbabilities
from uqmc.mmmc.mcmc import ParameterPosterior

N01 = Distribution(Family.NORMAL, (0.0, 1.0))
SQUARE = Model("sq", lambda x: x[:, 0] ** 2, 1.0)
IDENT = Model("id", lambda x: x[:, 0], 1.0)


def probabilities(families, pi):
    return ModelProbabilities(
        families=tuple(families), pi=np.asarray(pi), method="aic", diagnostics={}
    )


def posterior_of(family, rows):
    return ParameterPosterior(
        family=family, samples=np.asarray(rows, float), acceptance_rate=0.3, chain_length=10
    )


class TestIsEstimate:
    def test_proposal_equals_target_reduces_to_mc(self):
        r_is = is_estimate(SQUARE, N01, N01, 5000, RngStream(1))
        r_mc = mc_estimate(SQUARE, N01, 5000, RngStream(1))
        assert r_is.estimate == r_mc.estimate
        assert r_is.diagnostics["mean_weight"] == 1.0
        assert r_is.diagnostics["max_weight"] == 1.0
        assert r_is.diagnostics["ess"] == pytest.approx(5000.0)

    def test_wide_proposal_unbiased_for_second_moment(self):
        q = Distribution(Family.NORMAL, (0.0, 2.0))
        r = is_estimate(SQUARE, N01, q, 200_000, RngStream(2))
        assert abs(r.estimate - 1.0) < 3 * r.std_error

    def test_constant_model_weights_average_to_one(self):
        const = Model("c", lambda x: np.full(x.shape[0], 4.2), 1.0)
        q = Distribution(Family.NORMAL, (0.5, 1.5))
        r = is_estimate(const, N01, q, 50_000, RngStream(3))
        assert abs(r.estimate - 4.2) < 3 * r.std_error + 1e-12

    def test_support_violation_rejected_upfront(self):
        narrow = Distribution(Family.UNIFORM, (-1.0, 1.0))
        with pytest.raises(EstimatorError):
            is_estimate(SQUARE, N01, narrow, 100, RngStream(4))

    def test_runtime_weight_violation_identified(self):
        # A proposal whose log density underflows to -inf at a drawn point
        # (the hull check cannot see that) must be reported with the sample.
        class UnderflowProposal:
            def support(self):
                return (-math.inf, math.inf)

            def ppf(self, u):
                return N01.ppf(u)

            def logpdf(self, x):
                out = np.asarray(N01.logpdf(x), dtype=np.float64).copy()
                out[np.asarray(x) > 0.5] = -np.inf
                return out

        with pytest.raises(EstimatorError) as exc:
            is_estimate(IDENT, N01, UnderflowProposal(), 500, RngStream(5))
        assert "sample" in str(exc.value)


class TestBuildCandidateSet:
    def test_single_family_single_draw_identical_entries(self):
        mp = probabilities([Family.NORMAL], [1.0])
        post = {Family.NORMAL: posterior_of(Family.NORMAL, [[0.0, 1.0]])}
        cs = build_candidate_set(mp, post, 7, RngStream(6))
        assert cs.size == 7
        assert all(e == N01 for e in cs.entries)

    def test_zero_probability_family_never_drawn(self):
        mp = probabilities([Family.NORMAL, Family.UNIFORM], [1.0, 0.0])
        post = {
            Family.NORMAL: posterior_of(Family.NORMAL, [[0.0, 1.0]]),
            Family.UNIFORM: posterior_of(Family.UNIFORM, [[0.0, 1.0]]),
        }
        cs = build_candidate_set(mp, post, 500, RngStream(7))
        assert all(e.family is Family.NORMAL for e in cs.entries)

    def test_family_fraction_within_binomial_band(self):
        mp = probabilities([Family.NORMAL, Family.UNIFORM], [0.7, 0.3])
        post = {
            Family.NORMAL: posterior_of(Family.NORMAL, [[0.0, 1.0]]),
            Family.UNIFORM: posterior_of(Family.UNIFORM, [[0.0, 1.0]]),
        }
        T = 10_000
        cs = build_candidate_set(mp, post, T, RngStream(8))
        frac = sum(e.family is Family.NORMAL for e in cs.entries) / T
        assert abs(frac - 0.7) < 3 * math.sqrt(0.21 / T)

    def test_missing_posterior_rejected(self):
        mp = probabilities([Family.NORMAL, Family.UNIFORM], [0.7, 0.3])
        post = {Family.NORMAL: posterior_of(Family.NORMAL, [[0.0, 1.0]])}
        with pytest.raises(Exception):
            build_candidate_set(mp, post, 10, RngStream(9))


class TestPropagate:
    def test_single_target_equal_to_proposal_zero_band(self):
        # Target == proposal: weights are exactly 1, the reweighted estimate
        # is the plain MC mean of the shared outputs, and the quantile band
        # across the (single-entry) ensemble has zero width.
        q = MixtureDensity((N01,), np.array([1.0]))
        targets = CandidateModelSet(entries=(N01,), source_pi=(1.0,), seed=0)
        samples = draw_propagation_samples(SQUARE, q, 2000, RngStream(10))
        rep = reweight(samples, targets)
        assert rep.estimates[0] == np.mean(samples.y)
        assert rep.quantiles["5%"] == rep.quantiles["95%"] == rep.estimates[0]

    def test_mean_of_standard_normal_target(self):
        q = MixtureDensity(
            (N01, Distribution(Family.NORMAL, (0.5, 1.5))), np.array([0.5, 0.5])
        )
        targets = CandidateModelSet(entries=(N01,), source_pi=(1.0,), seed=0)
        rep = propagate_multimodel(IDENT, q, targets, 100_000, RngStream(11))
        # SE of the weighted mean, from the reweighted estimator itself.
        assert abs(rep.estimates[0]) < 0.02

    def test_cost_collapse_exactly_n_evaluations(self):
        q = MixtureDensity((N01,), np.array([1.0]))
        entries = tuple(
            Distribution(Family.NORMAL, (0.01 * j, 1.0 + 0.001 * j)) for j in range(50)
        )
        targets = CandidateModelSet(entries=entries, source_pi=(1.0,), seed=0)
        ledger = CostLedger()
        n = 3000
        rep = propagate_multimodel(SQUARE, q, targets, n, RngStream(12), ledger)
        assert ledger.count("sq") == n
        assert ledger.total() == float(n)
        assert rep.estimates.shape == (50,)
        assert np.all(rep.ess <= n + 1e-9)

    def test_quantiles_monotone(self):
        q = MixtureDensity((N01,), np.array([1.0]))
        entries = tuple(
            Distribution(Family.NORMAL, (0.05 * j, 1.0)) for j in range(40)
        )
        targets = CandidateModelSet(entries=entries, source_pi=(1.0,), seed=0)
        rep = propagate_multimodel(SQUARE, q, targets, 4000, RngStream(13))
        vals = [rep.quantiles[k] for k in ("5%", "25%", "50%", "75%", "95%")]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_reweight_cache_reuses_outputs(self):
        q = MixtureDensity((N01,), np.array([1.0]))
        ledger = CostLedger()
        samples = draw_propagation_samples(SQUARE, q, 2000, RngStream(14), ledger)
        assert ledger.count("sq") == 2000
        t1 = CandidateModelSet(entries=(N01,), source_pi=(1.0,), seed=0)
        t2 = CandidateModelSet(
            entries=(Distribution(Family.NORMAL, (0.1, 1.1)),), source_pi=(1.0,), seed=0
        )
        r1 = reweight(samples, t1, ledger)
        r2 = reweight(samples, t2, ledger)
        assert ledger.count("sq") == 2000  # no new evaluations
        r1b = reweight(samples, t1, ledger)
        assert np.array_equal(r1.estimates, r1b.estimates)
        assert r1.estimates[0] != r2.estimates[0]

    def test_reweight_rejects_candidate_outside_proposal_support(self):
        # A positive-support proposal cannot serve a normal candidate; the
        # support check must fire for that candidate before any weighting.
        q = MixtureDensity(
            (Distribution(Family.LOGNORMAL, (0.0, 0.5)), Distribution(Family.GAMMA, (2.0, 1.0))),
            np.array([0.5, 0.5]),
        )
        samples = draw_propagation_samples(IDENT, q, 500, RngStream(17))
        targets = CandidateModelSet(
            entries=(Distribution(Family.LOGNORMAL, (0.1, 0.6)), N01),
            source_pi=(1.0,), seed=0,
        )
        with pytest.raises(EstimatorError, match="candidate 1 support"):
            reweight(samples, targets)

    def test_reweight_pinned_mixed_families(self):
        # Five families over a mixture with a normal component, so some
        # draws are <= 0 and the positive-support candidates weight them 0.
        # Digest and quantiles were recorded before the weight kernel was
        # rewritten; any change in arithmetic order breaks them.
        q = MixtureDensity(
            (
                Distribution(Family.NORMAL, (1.0, 1.5)),
                Distribution(Family.LOGNORMAL, (0.2, 0.5)),
                Distribution(Family.GAMMA, (3.0, 0.6)),
                Distribution(Family.WEIBULL, (2.0, 1.8)),
                Distribution(Family.UNIFORM, (0.5, 3.0)),
            ),
            np.array([0.4, 0.15, 0.15, 0.15, 0.15]),
        )
        entries = []
        for j in range(5):
            entries += [
                Distribution(Family.NORMAL, (0.8 + 0.1 * j, 1.2 + 0.05 * j)),
                Distribution(Family.LOGNORMAL, (0.1 + 0.05 * j, 0.4 + 0.03 * j)),
                Distribution(Family.GAMMA, (2.5 + 0.3 * j, 0.5 + 0.05 * j)),
                Distribution(Family.WEIBULL, (1.8 + 0.2 * j, 1.5 + 0.1 * j)),
                Distribution(Family.UNIFORM, (0.2 * j, 2.5 + 0.2 * j)),
            ]
        targets = CandidateModelSet(entries=tuple(entries), source_pi=(1.0,), seed=0)
        samples = draw_propagation_samples(SQUARE, q, 3000, RngStream(31))
        assert int(np.sum(samples.x <= 0.0)) == 299
        rep = reweight(samples, targets)
        digest = hashlib.sha256(rep.estimates.tobytes() + rep.ess.tobytes()).hexdigest()
        assert digest == "259427d729409b431180a67d17aa3b072f5f3f718d993042a860bcdb3e6cd8ba"
        assert rep.quantiles == {
            "5%": 1.955437813512995,
            "25%": 2.3530096757964225,
            "50%": 2.7902092472948623,
            "75%": 3.348724944915974,
            "95%": 5.668315899920205,
        }
        assert rep.diagnostics == {"n_candidates": 25, "min_ess": 1176.300318624696}

    def test_reweight_runtime_weight_violation_identified(self):
        # The proposal log density is -inf at drawn sample 7: the hull check
        # passes, and the weight check must name both candidate and sample.
        q = MixtureDensity((N01,), np.array([1.0]))
        drawn = draw_propagation_samples(IDENT, q, 400, RngStream(18))
        log_q = drawn.log_q.copy()
        log_q[7] = -np.inf
        samples = PropagationSamples(
            x=drawn.x, y=drawn.y, log_q=log_q, proposal=q, seed=drawn.seed
        )
        targets = CandidateModelSet(
            entries=(Distribution(Family.NORMAL, (0.1, 1.2)), N01), source_pi=(1.0,), seed=0
        )
        with pytest.raises(EstimatorError, match=r"candidate 0 at sample 7 \(x="):
            reweight(samples, targets)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_reweight_finite_sum_overflow_does_not_raise(self):
        # Huge but finite log-weights overflow their sum to +inf; that is
        # not a weight violation, so reweighting carries on.
        q = MixtureDensity((N01,), np.array([1.0]))
        drawn = draw_propagation_samples(SQUARE, q, 500, RngStream(19))
        samples = PropagationSamples(
            x=drawn.x, y=drawn.y, log_q=np.full(500, -1e306), proposal=q, seed=drawn.seed
        )
        targets = CandidateModelSet(entries=(N01,), source_pi=(1.0,), seed=0)
        rep = reweight(samples, targets)
        assert rep.estimates[0] == np.inf

    def test_is_replication_mean_unbiased(self):
        # Fixed target, mixture proposal: the replication mean of the
        # reweighted estimate must agree with direct MC truth within 3 SE.
        q = MixtureDensity(
            (N01, Distribution(Family.NORMAL, (1.0, 1.5))), np.array([0.6, 0.4])
        )
        target = Distribution(Family.NORMAL, (0.4, 1.1))
        reps, n = 200, 2000
        vals = np.array([
            is_estimate(SQUARE, target, q, n, RngStream(800_000 + r)).estimate
            for r in range(reps)
        ])
        truth = 0.4**2 + 1.1**2  # E[X^2] under the target
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - truth) < 3 * se

    def test_smalldata_reweighted_matches_direct_mc(self):
        # Scaled-down version of the single-loop equivalence check.
        p = builtin_problem("smalldata_demo")
        from uqmc.mmmc import McmcOptions, run_multimodel

        run = run_multimodel(
            p.model, p.dataset,
            families=[Family.NORMAL, Family.GAMMA],
            ensemble_size=20, n=4000,
            mcmc=McmcOptions(burn_in=1500, keep=400, thin=2),
            rng=RngStream(15),
        )
        gen = np.random.default_rng(0)
        for j in gen.choice(run.candidates.size, size=3, replace=False):
            target = run.candidates.entries[int(j)]
            direct = mc_estimate(p.model, target, 4000, RngStream(900 + int(j)))
            ours = run.report.estimates[int(j)]
            is_rep = is_estimate(p.model, target, run.mixture, 4000, RngStream(16))
            combined = math.hypot(direct.std_error, is_rep.std_error)
            assert abs(ours - direct.estimate) < 3 * combined + 1e-9
