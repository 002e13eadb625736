import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import truncnorm

from uqmc import Dataset, Family, RngStream, _threads, builtin_problem
from uqmc.distributions import family_logpdf
from uqmc.exceptions import EstimatorError, InvalidParameterError
from uqmc.mmmc import (
    RHAT_LIMIT,
    LogUniformPrior,
    McmcOptions,
    NormalPrior,
    PointMassPrior,
    UniformPrior,
    aic_weights,
    bayes_posteriors,
    bayes_weights,
    bulk_ess,
    default_priors,
    model_evidence,
    posterior_sample,
    run_multimodel,
    sample_posteriors,
    split_rhat,
)
from uqmc.mmmc import mcmc, workflow
from uqmc.mmmc.inference import _softmax

POS_DATA = Dataset([1.73, 3.42, 0.88, 2.15, 4.61, 1.02, 2.94, 1.48, 3.07, 0.67])
MIXED_DATA = Dataset([-0.5, 0.3, 1.2, -1.1, 0.8, 0.1, 2.0, -0.3])


class TestAicWeights:
    def test_single_feasible_family(self):
        mp = aic_weights([Family.NORMAL], MIXED_DATA)
        assert mp.pi == pytest.approx([1.0])

    def test_identical_families_split_evenly(self):
        mp = aic_weights([Family.NORMAL, Family.NORMAL], MIXED_DATA)
        assert mp.pi == pytest.approx([0.5, 0.5])

    def test_delta_two_oracle(self):
        # exp(0)/(exp(0)+exp(-1)) and its complement, from the weight formula.
        pi = _softmax(-0.5 * np.array([0.0, 2.0]))
        assert pi == pytest.approx([0.7310585786300049, 0.2689414213699951], abs=1e-12)

    def test_infeasible_family_gets_zero(self):
        mp = aic_weights([Family.NORMAL, Family.GAMMA], MIXED_DATA)
        assert mp.pi[1] == 0.0
        assert "gamma" in mp.diagnostics["infeasible"]
        assert mp.pi[0] == 1.0

    def test_no_feasible_family_raises(self):
        neg = Dataset([-1.0, -2.0, -3.0])
        with pytest.raises(EstimatorError):
            aic_weights([Family.GAMMA, Family.WEIBULL], neg)

    def test_probabilities_sum_to_one(self):
        mp = aic_weights(list(Family), POS_DATA)
        assert float(np.sum(mp.pi)) == pytest.approx(1.0, abs=1e-12)

    def test_needs_three_observations(self):
        with pytest.raises(InvalidParameterError):
            aic_weights([Family.NORMAL], Dataset([1.0, 2.0]))


@settings(max_examples=50, deadline=None)
@given(
    deltas=st.lists(st.floats(0, 50), min_size=2, max_size=6),
    shift=st.floats(-100, 100),
)
def test_softmax_shift_invariance(deltas, shift):
    a = np.asarray(deltas)
    assert np.allclose(_softmax(-0.5 * a), _softmax(-0.5 * (a + shift)), atol=1e-12)
    assert float(np.sum(_softmax(-0.5 * a))) == pytest.approx(1.0, abs=1e-12)


class TestModelEvidence:
    def test_point_mass_prior_gives_exact_likelihood(self):
        prior = [PointMassPrior(0.0), PointMassPrior(1.0)]
        log_ev, se = model_evidence(Family.NORMAL, Dataset([0.0]), prior, 1000, RngStream(1))
        assert log_ev == pytest.approx(-0.9189385332046727, abs=1e-12)
        assert se == 0.0

    def test_conjugate_normal_marginal_likelihood(self):
        # Known sigma=1, Gaussian prior on mu; oracle by quadrature over mu.
        d = [0.5, -0.2, 1.1, 0.3, -0.7, 0.9, 0.0, 0.4, -1.2, 0.8]
        m0, s0 = 0.0, 2.0

        def integrand(mu):
            ll = -0.5 * sum((x - mu) ** 2 for x in d) - len(d) / 2 * math.log(2 * math.pi)
            lp = -0.5 * ((mu - m0) / s0) ** 2 - 0.5 * math.log(2 * math.pi * s0**2)
            return math.exp(ll + lp)

        oracle, _ = quad(integrand, -10, 10, epsabs=1e-14)
        assert math.log(oracle) == pytest.approx(-13.435073804423272, abs=1e-9)

        prior = [NormalPrior(m0, s0), PointMassPrior(1.0)]
        log_ev, se = model_evidence(
            Family.NORMAL, Dataset(d), prior, 100_000, RngStream(2)
        )
        # Compare on the evidence scale within 3 Monte Carlo standard errors.
        assert abs(math.exp(log_ev) - oracle) < 3 * se * math.exp(log_ev)

    def test_out_of_support_data_flagged_minus_inf(self):
        prior = default_priors(Family.NORMAL, MIXED_DATA)
        log_ev, se = model_evidence(Family.GAMMA, MIXED_DATA, prior, 1000, RngStream(3))
        assert log_ev == -math.inf
        assert math.isnan(se)

    def test_prior_missing_likelihood_support_raises(self):
        # Uniform-family parameters that can never cover the data range.
        prior = [UniformPrior(10.0, 11.0), UniformPrior(12.0, 13.0)]
        with pytest.raises(EstimatorError, match="every prior draw for uniform has zero"):
            model_evidence(Family.UNIFORM, POS_DATA, prior, 1000, RngStream(4))


class TestImportanceSampler:
    """The defensive importance sampler behind ``model_evidence`` and
    ``bayes_posteriors``."""

    @pytest.mark.parametrize("seed", [21, 22])
    def test_truncated_normal_closed_form(self, seed):
        # Known sigma 1 and a uniform prior on mu that cuts the posterior on
        # both sides: the evidence and the truncated-normal posterior of mu
        # have closed forms.
        lo, hi = -0.2, 0.6
        x = MIXED_DATA.values
        n, xbar = x.size, float(np.mean(x))
        sd = 1.0 / math.sqrt(n)
        a, b = (lo - xbar) / sd, (hi - xbar) / sd
        log_z = (
            -0.5 * n * math.log(2.0 * math.pi)
            - 0.5 * float(np.sum((x - xbar) ** 2))
            + 0.5 * math.log(2.0 * math.pi / n)
            + math.log(ndtr(b) - ndtr(a))
            - math.log(hi - lo)
        )
        prior = [UniformPrior(lo, hi), PointMassPrior(1.0)]
        keep = 2000
        _, posts = bayes_posteriors(
            [Family.NORMAL], MIXED_DATA, [prior], None, 10_000, keep, RngStream(seed)
        )
        post = posts[Family.NORMAL]
        diag = post.diagnostics
        assert diag["prior_share"] == 0.1  # the Gaussian component was used
        assert abs(diag["log_evidence"] - log_z) < 3.0 * diag["evidence_se"]
        assert np.all(post.samples[:, 1] == 1.0)
        mu = post.samples[:, 0]
        exact = truncnorm(a, b, loc=xbar, scale=sd)
        # Monte Carlo error of a resampled mean: the importance ESS, then
        # the resampling of keep rows.
        tol = 3.0 * exact.std() * math.sqrt(1.0 / diag["ess"] + 1.0 / keep)
        assert abs(float(np.mean(mu)) - exact.mean()) < tol
        assert abs(float(np.std(mu)) - exact.std()) < tol

    @pytest.mark.parametrize("seed", [23, 24])
    def test_two_log_coordinates_match_quadrature(self, seed):
        # Gamma's log shape and log scale are strongly correlated; a 300 x
        # 300 trapezoid grid in those coordinates (Jacobian included) gives
        # the evidence and the posterior means to about 1e-7.
        prior = default_priors(Family.GAMMA, POS_DATA)
        g0, g1 = np.linspace(-3.0, 5.0, 300), np.linspace(-4.0, 4.0, 300)
        p0, p1 = np.meshgrid(g0, g1, indexing="ij")
        t0, t1 = np.exp(p0), np.exp(p1)
        lp = (
            np.sum(family_logpdf(Family.GAMMA, t0[..., None], t1[..., None], POS_DATA.values),
                   axis=-1)
            + prior[0].logpdf(t0) + prior[1].logpdf(t1) + p0 + p1
        )
        m = float(np.max(lp))
        f = np.exp(lp - m)
        log_z = m + math.log(float(np.sum(f)) * (g0[1] - g0[0]) * (g1[1] - g1[0]))
        means = [float(np.sum(f * p0) / np.sum(f)), float(np.sum(f * p1) / np.sum(f))]
        sds = [math.sqrt(float(np.sum(f * (p - mu) ** 2) / np.sum(f))) for p, mu in zip((p0, p1), means)]

        keep = 2000
        _, posts = bayes_posteriors(
            [Family.GAMMA], POS_DATA, [prior], None, 10_000, keep, RngStream(seed)
        )
        post = posts[Family.GAMMA]
        diag = post.diagnostics
        assert diag["prior_share"] == 0.1
        assert diag["ess"] > 5000  # a good proposal: ESS/N 0.64 on these data
        assert abs(diag["log_evidence"] - log_z) < 3.0 * diag["evidence_se"]
        walk = np.log(post.samples)
        for j in range(2):
            tol = 3.0 * sds[j] * math.sqrt(1.0 / diag["ess"] + 1.0 / keep)
            assert abs(float(np.mean(walk[:, j])) - means[j]) < tol

    def test_pinned_family_posterior_is_the_point(self):
        prior = [PointMassPrior(0.0), PointMassPrior(1.0)]
        _, posts = bayes_posteriors(
            [Family.NORMAL], Dataset([0.0]), [prior], None, 1000, 7, RngStream(1)
        )
        post = posts[Family.NORMAL]
        assert post.samples.tolist() == [[0.0, 1.0]] * 7
        assert post.diagnostics["log_evidence"] == pytest.approx(-0.9189385332046727, abs=1e-12)
        assert post.diagnostics["evidence_se"] == 0.0
        assert post.diagnostics["ess"] == 1000.0

    @pytest.mark.parametrize(
        "family, prior",
        [
            # The MLE sits on the edge of the support: no Hessian there.
            (Family.UNIFORM, default_priors(Family.UNIFORM, POS_DATA)),
            # Pulled to the prior median, mu is far from the data and the
            # Hessian there is indefinite.
            (Family.NORMAL, [UniformPrior(10.0, 11.0), LogUniformPrior(0.01, 100.0)]),
        ],
        ids=["uniform", "prior_excludes_mle"],
    )
    def test_prior_monte_carlo_fallback(self, family, prior):
        n, keep = 2000, 100
        _, posts = bayes_posteriors([family], POS_DATA, [prior], None, n, keep, RngStream(3))
        post = posts[family]
        assert post.diagnostics["prior_share"] == 1.0
        # Prior Monte Carlo on family 0's stream: n rows of two coordinate
        # uniforms, then the resampling uniform.
        u = RngStream(3).split(0).uniforms(2 * n + 1)
        theta = np.column_stack([prior[j].ppf(u[:-1].reshape(n, 2)[:, j]) for j in range(2)])
        with np.errstate(over="ignore"):
            ll = np.array([np.sum(family_logpdf(family, a, b, POS_DATA.values)) for a, b in theta])
        m = float(np.max(ll))
        w = np.exp(ll - m)
        assert post.diagnostics["log_evidence"] == pytest.approx(
            m + math.log(float(np.mean(w))), rel=1e-12
        )
        assert post.diagnostics["evidence_se"] == pytest.approx(
            float(np.std(w, ddof=1)) / math.sqrt(n) / float(np.mean(w)), rel=1e-9
        )
        # Systematic resampling: row k lies where the cumulative weight
        # passes (u + k) / keep of the total.
        cum = np.cumsum(w) / np.sum(w)
        picks = np.searchsorted(cum, (u[-1] + np.arange(keep)) / keep, side="right")
        assert post.samples.tolist() == theta[picks].tolist()


class TestBayesWeights:
    def test_equal_evidence_equal_priors_uniform(self):
        priors = [
            [PointMassPrior(0.0), PointMassPrior(1.0)],
            [PointMassPrior(0.0), PointMassPrior(1.0)],
        ]
        mp = bayes_weights(
            [Family.NORMAL, Family.NORMAL], Dataset([0.0]), priors,
            n_ev=1000, rng=RngStream(5),
        )
        assert mp.pi == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_zero_model_prior_annihilates(self):
        priors = [
            [PointMassPrior(0.0), PointMassPrior(1.0)],
            [PointMassPrior(5.0), PointMassPrior(1.0)],
        ]
        mp = bayes_weights(
            [Family.NORMAL, Family.NORMAL], Dataset([0.0]), priors,
            model_priors=[1.0, 0.0], n_ev=1000, rng=RngStream(6),
        )
        assert mp.pi == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_evidence_ratio_e_squared_oracle(self):
        # Point-mass parameters chosen so log L differs by exactly 2:
        # N(0,1) vs N(2,1) on the single datum 0.
        priors = [
            [PointMassPrior(0.0), PointMassPrior(1.0)],
            [PointMassPrior(2.0), PointMassPrior(1.0)],
        ]
        mp = bayes_weights(
            [Family.NORMAL, Family.NORMAL], Dataset([0.0]), priors,
            n_ev=1000, rng=RngStream(7),
        )
        assert mp.pi == pytest.approx(
            [0.8807970779778823, 0.11920292202211756], abs=1e-12
        )

    def test_infeasible_family_zero_probability(self):
        priors = {
            Family.NORMAL: default_priors(Family.NORMAL, MIXED_DATA),
            Family.LOGNORMAL: [UniformPrior(-1, 1), PointMassPrior(1.0)],
        }
        mp = bayes_weights(
            [Family.NORMAL, Family.LOGNORMAL], MIXED_DATA, priors,
            n_ev=2000, rng=RngStream(8),
        )
        assert mp.pi[1] == 0.0
        assert mp.pi[0] == 1.0

    def test_infeasible_family_without_prior_entry(self):
        # Negative data rules gamma out before its prior is ever needed.
        priors = {Family.NORMAL: default_priors(Family.NORMAL, MIXED_DATA)}
        mp = bayes_weights(
            [Family.NORMAL, Family.GAMMA], MIXED_DATA, priors,
            n_ev=2000, rng=RngStream(9),
        )
        assert mp.pi[0] == 1.0
        assert mp.pi[1] == 0.0
        assert "gamma" in mp.diagnostics["infeasible"]


FOUR = [Family.NORMAL, Family.LOGNORMAL, Family.GAMMA, Family.WEIBULL]


class TestBayesOnThreads:
    """``bayes_posteriors`` runs the families' samplers side by side on the
    pool.  Family i draws on ``rng.split(i)`` whichever thread runs it, so
    one usable core and two give the same bits, and the lowest failing
    family's error is the one raised."""

    @staticmethod
    def run(monkeypatch, cores, priors, n_ev):
        calls = []
        fan_out = _threads.fan_out

        def counted(fn, items, k):
            calls.append((len(items), k))
            return fan_out(fn, items, k)

        with monkeypatch.context() as mp:
            mp.setattr(_threads, "_usable_cores", lambda: cores)
            mp.setattr("uqmc.mmmc.inference.fan_out", counted)
            try:
                return bayes_posteriors(FOUR, POS_DATA, priors, None, n_ev, 500, RngStream(31))
            finally:
                assert calls == [(4, cores)]

    def test_one_core_and_two_give_the_same_bits(self, monkeypatch):
        priors = {f: default_priors(f, POS_DATA) for f in FOUR}
        runs = [self.run(monkeypatch, k, priors, 10_000) for k in (1, 2)]
        (p1, post1), (p2, post2) = runs
        assert p1.pi.tobytes() == p2.pi.tobytes()
        assert repr(p1.diagnostics) == repr(p2.diagnostics)
        assert list(post1) == list(post2) == FOUR
        for fam in FOUR:
            assert post1[fam].samples.tobytes() == post2[fam].samples.tobytes()
            assert repr(post1[fam].diagnostics) == repr(post2[fam].diagnostics)

    def test_lowest_failing_family_raises(self, monkeypatch):
        @dataclass(frozen=True)
        class Failing(UniformPrior):
            def ppf(self, u):
                raise RuntimeError(f"family {self.lower:g} failed")

        priors = {f: default_priors(f, POS_DATA) for f in FOUR}
        priors[Family.LOGNORMAL] = [Failing(1.0, 2.0), Failing(1.0, 2.0)]
        priors[Family.GAMMA] = [Failing(2.0, 3.0), Failing(2.0, 3.0)]
        for cores in (1, 2):
            with pytest.raises(RuntimeError, match="family 1 failed"):
                self.run(monkeypatch, cores, priors, 10_000)


class TestPosteriorSample:
    def test_conjugate_normal_mean(self):
        # Known sigma via point mass; flat-ish prior on mu: the posterior is
        # N(xbar, 1/n).
        d = MIXED_DATA
        prior = [UniformPrior(-50.0, 50.0), PointMassPrior(1.0)]
        post = posterior_sample(
            Family.NORMAL, d, prior,
            McmcOptions(burn_in=3000, keep=2000, thin=5), RngStream(9),
        )
        mu = post.samples[:, 0]
        assert np.all(post.samples[:, 1] == 1.0)
        ess = post.diagnostics["ess_bulk"]["mu"]
        se = 1.0 / math.sqrt(d.n * ess)
        assert abs(mu.mean() - d.values.mean()) < 3 * se
        assert 0.2 <= post.acceptance_rate <= 0.5

    def test_bookkeeping_chain_length(self):
        prior = default_priors(Family.NORMAL, MIXED_DATA)
        opts = McmcOptions(burn_in=500, keep=100, thin=3)
        post = posterior_sample(Family.NORMAL, MIXED_DATA, prior, opts, RngStream(10))
        assert post.chain_length == 500 + 25 * 3  # steps per chain, 4 chains
        assert post.samples.shape == (100, 2)

    def test_tight_prior_dominates(self):
        prior = [NormalPrior(7.0, 1e-4), PointMassPrior(1.0)]
        post = posterior_sample(
            Family.NORMAL, MIXED_DATA, prior,
            McmcOptions(burn_in=2000, keep=500, thin=2), RngStream(11),
        )
        # Likelihood pulls toward xbar ~ 0.3 but the prior pins mu near 7.
        assert abs(post.samples[:, 0].mean() - 7.0) < 0.05

    def test_positive_parameters_stay_positive(self):
        prior = default_priors(Family.GAMMA, POS_DATA)
        post = posterior_sample(
            Family.GAMMA, POS_DATA, prior,
            McmcOptions(burn_in=1000, keep=300, thin=2), RngStream(12),
        )
        assert np.all(post.samples > 0.0)

    def test_all_fixed_rejected(self):
        prior = [PointMassPrior(0.0), PointMassPrior(1.0)]
        with pytest.raises(InvalidParameterError):
            posterior_sample(Family.NORMAL, MIXED_DATA, prior, McmcOptions(), RngStream(13))

    def test_nonpositive_log_walk_start_skipped(self):
        # The MLE fails on identical data and the prior median of sigma is 0:
        # both start candidates are infeasible for the log-space walk.
        prior = [UniformPrior(-1.0, 1.0), UniformPrior(-1.0, 1.0)]
        with pytest.raises(EstimatorError, match="no feasible starting point for the chain"):
            posterior_sample(
                Family.NORMAL, Dataset([1.0, 1.0, 1.0]), prior, McmcOptions(), RngStream(14)
            )

    def test_unexpected_mle_error_propagates(self, monkeypatch):
        # Only the library's own fit errors fall back to prior medians.
        def broken_fit(family, data):
            raise ZeroDivisionError("bug in the fit")

        monkeypatch.setattr("uqmc.mmmc.mcmc.mle_fit", broken_fit)
        prior = default_priors(Family.NORMAL, MIXED_DATA)
        with pytest.raises(ZeroDivisionError):
            posterior_sample(Family.NORMAL, MIXED_DATA, prior, McmcOptions(), RngStream(13))


PIN_OPTS = McmcOptions(burn_in=700, keep=150, thin=3)


def _fingerprint(post):
    blob = post.samples.tobytes() + repr(post.diagnostics).encode("ascii")
    return hashlib.sha256(blob).hexdigest()[:16]


def _case(case_id, *values):
    return pytest.param(*values, id=case_id)


class TestPosteriorSamplePinned:
    """Exact draws, acceptance rates and diagnostics of the sampler.

    The fingerprint hashes ``samples.tobytes()`` and ``repr(diagnostics)``
    (per-chain proposal scales, free coordinates, warnings, R-hat, bulk
    ESS).  A change that alters any draw, the RNG layout or the adaptation
    schedule breaks these.  Each case keeps the id it was first pinned
    under, when one scalar chain ran per family; the id names the case,
    the digest and rate after it are what is checked.
    """

    @pytest.mark.parametrize(
        "family, seed, digest, rate",
        [
            _case("normal-1-129cb9aa9e6925b0-0.39111111111111113",
                  Family.NORMAL, 1, "384122c5f867156f", 0.3684210526315789),
            _case("normal-2-01c07386fd6ef9b7-0.3711111111111111",
                  Family.NORMAL, 2, "a4de752e8ba3dba5", 0.3815789473684211),
            _case("lognormal-1-695dc3f9c65e07e0-0.39111111111111113",
                  Family.LOGNORMAL, 1, "3b512926273c8e53", 0.3684210526315789),
            _case("lognormal-2-4ece79119a82b6f2-0.3711111111111111",
                  Family.LOGNORMAL, 2, "00cbc77ecaed3e5f", 0.3815789473684211),
            _case("gamma-1-238f827c219acec0-0.31777777777777777",
                  Family.GAMMA, 1, "0f6ae91b1df4283e", 0.33771929824561403),
            _case("gamma-2-3d18c4afe1380bcc-0.35555555555555557",
                  Family.GAMMA, 2, "7c7e65970063de59", 0.2982456140350877),
            _case("weibull-1-c82d7d462cebef13-0.4066666666666667",
                  Family.WEIBULL, 1, "d5c98e3354ff3382", 0.3574561403508772),
            _case("weibull-2-bc57fce3dddad61e-0.38",
                  Family.WEIBULL, 2, "b779bc2371b8bb09", 0.3815789473684211),
            _case("uniform-1-01c41d23d480798f-0.3422222222222222",
                  Family.UNIFORM, 1, "0813f9dbaceac209", 0.36403508771929827),
            _case("uniform-2-bda7aaa174ec5549-0.37777777777777777",
                  Family.UNIFORM, 2, "fdbb45bb5118bc36", 0.4144736842105263),
        ],
    )
    def test_default_priors_positive_data(self, family, seed, digest, rate):
        prior = default_priors(family, POS_DATA)
        post = posterior_sample(family, POS_DATA, prior, PIN_OPTS, RngStream(seed))
        assert (_fingerprint(post), post.acceptance_rate) == (digest, rate)
        assert post.chain_length == 700 + 38 * 3
        assert post.diagnostics["warnings"] == []

    @pytest.mark.parametrize(
        "family, digest, rate",
        [
            _case("normal-42021cec703f29aa-0.38666666666666666",
                  Family.NORMAL, "10654e4a64c3b7b0", 0.3706140350877193),
            _case("uniform-71059203d734e351-0.42",
                  Family.UNIFORM, "2dd24053a9d6cf32", 0.3881578947368421),
        ],
    )
    def test_default_priors_mixed_data(self, family, digest, rate):
        prior = default_priors(family, MIXED_DATA)
        post = posterior_sample(family, MIXED_DATA, prior, PIN_OPTS, RngStream(1))
        assert (_fingerprint(post), post.acceptance_rate) == (digest, rate)

    @pytest.mark.parametrize(
        "family, data, prior, seed, digest, rate",
        [
            _case("normal-data0-prior0-1-d203edcf641a68d8-0.4444444444444444",
                  Family.NORMAL, MIXED_DATA, [UniformPrior(-50.0, 50.0), PointMassPrior(1.0)],
                  1, "e75cb048ab167d63", 0.3684210526315789),
            _case("gamma-data1-prior1-1-69b6a164c95b2e4b-0.38222222222222224",
                  Family.GAMMA, POS_DATA, [PointMassPrior(2.0), LogUniformPrior(0.01, 100.0)],
                  1, "1d4fcf5c46b21799", 0.3793859649122807),
            # The MLE shape overflows exp(shape * log(x / 1e-160)), so the
            # chains start from the prior medians instead.
            _case("weibull-data2-prior2-1-01a712ddb1ed125e-0.4911111111111111",
                  Family.WEIBULL, POS_DATA, [LogUniformPrior(1e-4, 2.5), PointMassPrior(1e-160)],
                  1, "bc4c6836f53959fd", 0.37719298245614036),
        ],
    )
    def test_fixed_coordinates(self, family, data, prior, seed, digest, rate):
        post = posterior_sample(family, data, prior, PIN_OPTS, RngStream(seed))
        assert (_fingerprint(post), post.acceptance_rate) == (digest, rate)
        assert post.diagnostics["free_parameters"] == [
            j for j, pr in enumerate(prior) if not pr.fixed
        ]

    @pytest.mark.parametrize(
        "family, seed, digest, rate",
        [
            _case("normal-1-725f660933b8abaf-0.40444444444444444",
                  Family.NORMAL, 1, "6ffe75b1e36bb96f", 0.3442982456140351),
            _case("gamma-2-c82fcbf6e1f650c3-0.35777777777777775",
                  Family.GAMMA, 2, "3ec5ba3f836a07c5", 0.33114035087719296),
        ],
    )
    def test_burn_in_not_a_window_multiple(self, family, seed, digest, rate):
        # 750 steps: the last 50 burn-in steps never complete a window.
        opts = McmcOptions(burn_in=750, keep=150, thin=3)
        post = posterior_sample(family, POS_DATA, default_priors(family, POS_DATA), opts,
                                RngStream(seed))
        assert (_fingerprint(post), post.acceptance_rate) == (digest, rate)
        assert post.chain_length == 750 + 38 * 3

    def test_no_feasible_start(self):
        prior = default_priors(Family.GAMMA, MIXED_DATA)
        with pytest.raises(EstimatorError, match="no feasible starting point"):
            posterior_sample(Family.GAMMA, MIXED_DATA, prior, PIN_OPTS, RngStream(1))

    def test_never_accepted(self):
        # Prior boxes 1e-9 wide in log space: no proposal of any chain lands
        # inside them, whatever the seed.
        prior = [LogUniformPrior(5.0, 5.0 * (1 + 1e-9)), LogUniformPrior(0.01, 0.01 * (1 + 1e-9))]
        with pytest.raises(EstimatorError, match="never accepted"):
            posterior_sample(Family.WEIBULL, POS_DATA, prior, PIN_OPTS, RngStream(1))

    @pytest.mark.parametrize(
        "family, data, prior, seed, digest, rate, warning",
        [
            _case("weibull-data0-prior0-2-0df67f21c3743fc4-0.006666666666666667-0.007",
                  Family.WEIBULL, POS_DATA,
                  [LogUniformPrior(5.0, 6.0), LogUniformPrior(0.01, 0.02)],
                  2, "58ebdf3ec144ba4d", 0.013157894736842105, "0.013"),
            _case("normal-data1-prior1-1-fb72aa0e721c9896-0.0044444444444444444-0.004",
                  Family.NORMAL, MIXED_DATA, [NormalPrior(7.0, 1e-4), PointMassPrior(1.0)],
                  1, "d126b33b8897df06", 0.0043859649122807015, "0.004"),
            _case("normal-data2-prior2-2-57244e89d034ecfc-0.006666666666666667-0.007",
                  Family.NORMAL, MIXED_DATA, [NormalPrior(7.0, 1e-4), PointMassPrior(1.0)],
                  2, "7eb91d2847a1a8e2", 0.010964912280701754, "0.011"),
            # One scalar chain never accepted here; pooled over four chains
            # the count is 4, which warns and does not raise.
            _case("weibull-pooled-1",
                  Family.WEIBULL, POS_DATA,
                  [LogUniformPrior(5.0, 6.0), LogUniformPrior(0.01, 0.02)],
                  1, "da86bbf2687d730c", 0.008771929824561403, "0.009"),
        ],
    )
    def test_low_acceptance_warning(self, family, data, prior, seed, digest, rate, warning):
        post = posterior_sample(family, data, prior, PIN_OPTS, RngStream(seed))
        assert (_fingerprint(post), post.acceptance_rate) == (digest, rate)
        assert post.diagnostics["warnings"] == [
            f"acceptance rate {warning} outside [0.05, 0.95]"
        ]


class TestRandomnessLayout:
    def test_block_size_does_not_change_draws(self, monkeypatch):
        prior = default_priors(Family.GAMMA, POS_DATA)
        ref = posterior_sample(Family.GAMMA, POS_DATA, prior, PIN_OPTS, RngStream(3))
        monkeypatch.setattr(mcmc, "_BLOCK", 7)
        post = posterior_sample(Family.GAMMA, POS_DATA, prior, PIN_OPTS, RngStream(3))
        assert post.samples.tobytes() == ref.samples.tobytes()
        assert post.acceptance_rate == ref.acceptance_rate
        assert repr(post.diagnostics) == repr(ref.diagnostics)

    def test_chain_zero_reads_only_split_zero(self):
        class OtherSiblings:
            """split(0) as RngStream(3), every other child from another seed."""

            def split(self, child):
                return RngStream(3 if child == 0 else 4).split(child)

        prior = default_priors(Family.NORMAL, POS_DATA)
        ref = posterior_sample(Family.NORMAL, POS_DATA, prior, PIN_OPTS, RngStream(3))
        post = posterior_sample(Family.NORMAL, POS_DATA, prior, PIN_OPTS, OtherSiblings())
        per_chain = -(-PIN_OPTS.keep // 4)
        assert np.array_equal(post.samples[:per_chain], ref.samples[:per_chain])
        assert not np.array_equal(post.samples[per_chain:], ref.samples[per_chain:])


class TestPrefetch:
    """A log-target call evaluates the accept/reject tree of up to ``depth``
    steps; the chains walk it with the test of a call per step, so every
    depth gives the draws of depth 1."""

    # 750 burn-in steps and 7-step fetches: window and fetch edges cut the
    # tree at every depth, and the last 50 burn-in steps end no window.
    EDGE_OPTS = McmcOptions(burn_in=750, keep=150, thin=3)

    @staticmethod
    def _sample_at(monkeypatch, depth, families, priors, rngs):
        monkeypatch.setattr(mcmc, "_BLOCK", 7)
        monkeypatch.setattr(mcmc, "_depth", lambda cells: depth)
        return sample_posteriors(families, POS_DATA, priors, TestPrefetch.EDGE_OPTS, rngs)

    @staticmethod
    def _assert_same(posts, refs):
        for post, ref in zip(posts, refs, strict=True):
            assert post.samples.tobytes() == ref.samples.tobytes()
            assert post.acceptance_rate == ref.acceptance_rate
            assert repr(post.diagnostics) == repr(ref.diagnostics)

    @pytest.mark.parametrize("depth", [2, 3, 4, 5])
    def test_every_depth_draws_as_depth_one(self, monkeypatch, depth):
        args = ([Family.GAMMA], [default_priors(Family.GAMMA, POS_DATA)], [RngStream(3)])
        ref = self._sample_at(monkeypatch, 1, *args)
        self._assert_same(self._sample_at(monkeypatch, depth, *args), ref)

    @pytest.mark.parametrize("depth", [2, 3, 4, 5])
    def test_fused_families_draw_as_depth_one(self, monkeypatch, depth):
        priors = _fused_case()
        args = (list(Family), [priors[f] for f in Family],
                [RngStream(11).split(i) for i in range(len(Family))])
        ref = self._sample_at(monkeypatch, 1, *args)
        self._assert_same(self._sample_at(monkeypatch, depth, *args), ref)

    @staticmethod
    def _count_kernel_calls(monkeypatch, family, data, opts):
        calls = []
        kernel = mcmc._logpdf_into

        def counted(*args):
            calls.append(args[1].shape[0])
            return kernel(*args)

        monkeypatch.setattr(mcmc, "_logpdf_into", counted)
        posterior_sample(family, data, default_priors(family, data), opts, RngStream(4))
        return calls

    def test_small_data_takes_four_steps_per_call(self, monkeypatch):
        # One call at the MLE start, 25 per 100-step burn-in window over 7
        # windows, and 29 for the 114 kept steps (28 of 4 and one of 2).
        calls = self._count_kernel_calls(monkeypatch, Family.GAMMA, POS_DATA, PIN_OPTS)
        assert len(calls) == 1 + 7 * 25 + 29
        assert set(calls) == {4 * 15}  # 15 proposals per chain
        assert mcmc._depth(4 * 5 * POS_DATA.n) == 4  # five fused families

    def test_large_data_takes_one_step_per_call(self, monkeypatch):
        data = Dataset(np.random.default_rng(8).normal(1.0, 2.0, 20_000))
        opts = McmcOptions(burn_in=100, keep=20, thin=1)
        calls = self._count_kernel_calls(monkeypatch, Family.NORMAL, data, opts)
        assert len(calls) == 1 + 100 + 5
        assert set(calls) == {4}
        assert mcmc._depth(4 * 5 * 1_000_000) == 1


class HalfCauchyScale:
    """A prior of a class the sampler does not batch: only logpdf and ppf."""

    def logpdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x > 0.0, math.log(2.0 / math.pi) - np.log1p(x * x), -np.inf)

    def ppf(self, u):
        return np.tan(0.5 * math.pi * np.asarray(u))


def _fused_case():
    """All five families; gamma has a pinned shape, so the free counts
    differ; lognormal has a normal prior on mu and a duck-typed one on
    sigma."""
    priors = {f: default_priors(f, POS_DATA) for f in Family}
    priors[Family.GAMMA] = [PointMassPrior(2.0), LogUniformPrior(0.01, 100.0)]
    priors[Family.LOGNORMAL] = [NormalPrior(0.7, 1.0), HalfCauchyScale()]
    return priors


class TestFusedChains:
    """One lockstep loop over several families gives each family the draws
    it gets alone."""

    @pytest.mark.parametrize("order", [list(Family), list(Family)[::-1]],
                             ids=["forward", "reversed"])
    def test_matches_one_family_at_a_time(self, order):
        priors = _fused_case()
        rngs = {f: RngStream(11).split(i) for i, f in enumerate(Family)}
        fused = sample_posteriors(
            order, POS_DATA, [priors[f] for f in order], PIN_OPTS, [rngs[f] for f in order]
        )
        assert [post.family for post in fused] == order
        for post in fused:
            ref = posterior_sample(post.family, POS_DATA, priors[post.family], PIN_OPTS,
                                   rngs[post.family])
            assert post.samples.tobytes() == ref.samples.tobytes()
            assert post.acceptance_rate == ref.acceptance_rate
            assert post.chain_length == ref.chain_length
            assert repr(post.diagnostics) == repr(ref.diagnostics)
        assert fused[order.index(Family.GAMMA)].diagnostics["free_parameters"] == [1]

    def test_infeasible_family_fails_the_call(self):
        # Gamma has no feasible start on data with negative values.
        fams = [Family.NORMAL, Family.GAMMA]
        priors = [default_priors(f, MIXED_DATA) for f in fams]
        with pytest.raises(EstimatorError, match="no feasible starting point"):
            sample_posteriors(fams, MIXED_DATA, priors, PIN_OPTS, [RngStream(1), RngStream(2)])

    def test_run_multimodel_posteriors_match_per_family_calls(self):
        bundle = builtin_problem("smalldata_demo")
        opts = McmcOptions(burn_in=200, keep=50, thin=2)
        rng = RngStream(5)
        run = run_multimodel(bundle.model, bundle.dataset, inference="aic", ensemble_size=10,
                             n=500, mcmc=opts, rng=rng)
        probs = run.probabilities
        assert len(run.posteriors) == int(np.count_nonzero(probs.pi)) >= 2
        for i, fam in enumerate(probs.families):
            if probs.pi[i] == 0.0:
                continue
            ref = posterior_sample(fam, bundle.dataset, default_priors(fam, bundle.dataset),
                                   opts, rng.split(workflow._MCMC_SPLIT + i))
            post = run.posteriors[fam]
            assert post.samples.tobytes() == ref.samples.tobytes()
            assert post.acceptance_rate == ref.acceptance_rate
            assert repr(post.diagnostics) == repr(ref.diagnostics)


    def test_duplicate_families_rejected(self):
        # A repeated family would weigh twice in the mixture, yet its two
        # probabilities collapse into one entry of the report.
        with pytest.raises(InvalidParameterError, match="families must be distinct"):
            workflow.quantify_input_uncertainty(
                POS_DATA, ["normal", Family.NORMAL, "gamma"], rng=RngStream(1)
            )

class TestConvergenceDiagnostics:
    def test_iid_chains_pass(self):
        chains = np.random.default_rng(0).standard_normal((4, 1000))
        assert split_rhat(chains) < RHAT_LIMIT

    def test_shifted_chain_fails(self):
        chains = np.random.default_rng(0).standard_normal((4, 1000))
        chains[2] += 1.0
        assert split_rhat(chains) > RHAT_LIMIT

    def test_ties_share_their_rank(self):
        # Coin flips tie in every chain; ranks that broke ties by position
        # would rank chain 0's zeros below chain 3's and inflate R-hat.
        chains = np.random.default_rng(1).integers(0, 2, (4, 1000)).astype(float)
        assert split_rhat(chains) < RHAT_LIMIT

    def test_ess_of_autocorrelated_chains(self):
        # AR(1) with coefficient 0.9 has ESS = S (1 - 0.9) / (1 + 0.9).
        gen = np.random.default_rng(2)
        chains = np.empty((4, 5000))
        chains[:, 0] = gen.standard_normal(4)
        eps = gen.standard_normal((4, 5000)) * math.sqrt(1 - 0.81)
        for t in range(1, 5000):
            chains[:, t] = 0.9 * chains[:, t - 1] + eps[:, t]
        assert bulk_ess(chains) == pytest.approx(20000 * 0.1 / 1.9, rel=0.25)
        assert bulk_ess(gen.standard_normal((4, 1000))) == pytest.approx(4000, rel=0.1)

    def test_too_short_chains_give_nan(self):
        chains = np.arange(12.0).reshape(4, 3)
        assert math.isnan(split_rhat(chains))
        assert math.isnan(bulk_ess(chains))

    def test_constant_chains(self):
        stuck_apart = np.repeat(np.arange(4.0)[:, None], 10, axis=1)
        assert split_rhat(stuck_apart) == math.inf
        assert math.isnan(split_rhat(np.ones((4, 10))))

    def test_default_options_normal_posterior_not_flagged(self):
        prior = default_priors(Family.NORMAL, POS_DATA)
        post = posterior_sample(Family.NORMAL, POS_DATA, prior, McmcOptions(), RngStream(1))
        assert set(post.diagnostics["rhat"]) == {"mu", "sigma"}
        assert max(post.diagnostics["rhat"].values()) <= RHAT_LIMIT
        assert min(post.diagnostics["ess_bulk"].values()) > 400

    def test_fixed_coordinates_not_diagnosed(self):
        prior = [UniformPrior(-50.0, 50.0), PointMassPrior(1.0)]
        post = posterior_sample(Family.NORMAL, MIXED_DATA, prior, PIN_OPTS, RngStream(1))
        assert set(post.diagnostics["rhat"]) == set(post.diagnostics["ess_bulk"]) == {"mu"}


def test_no_overflow_warning_leaks():
    # Scale pinned at 1e-160: per-datum log densities near -1e308 overflow
    # the data sum to -inf, which must stay silent.
    prior = [LogUniformPrior(1e-4, 2.5), PointMassPrior(1e-160)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        posterior_sample(Family.WEIBULL, POS_DATA, prior, PIN_OPTS, RngStream(1))
