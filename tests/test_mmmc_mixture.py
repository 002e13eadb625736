import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.special import logsumexp

from uqmc import Distribution, Family, RngStream
from uqmc.exceptions import InvalidParameterError
from uqmc.mmmc import (
    CandidateModelSet,
    MixtureDensity,
    ModelProbabilities,
    ParameterPosterior,
    emsd,
    mixture_normalization,
    optimal_mixture,
)
from uqmc.mmmc.mixture import _logsumexp_columns

N01 = Distribution(Family.NORMAL, (0.0, 1.0))
N21 = Distribution(Family.NORMAL, (2.0, 1.0))


def posterior_of(family, rows):
    return ParameterPosterior(
        family=family,
        samples=np.asarray(rows, dtype=np.float64),
        acceptance_rate=0.3,
        chain_length=100,
    )


def probabilities(families, pi):
    return ModelProbabilities(
        families=tuple(families), pi=np.asarray(pi), method="aic", diagnostics={}
    )


class TestMixtureDensity:
    def test_single_component_equals_distribution(self):
        q = MixtureDensity((N01,), np.array([1.0]))
        x = np.linspace(-3, 3, 11)
        assert np.allclose(q.pdf(x), N01.pdf(x), rtol=1e-14)

    def test_two_normal_mixture_value_oracle(self):
        q = MixtureDensity((N01, N21), np.array([0.5, 0.5]))
        # Both components evaluate to the standard normal density at 1.
        assert float(q.pdf(np.array([1.0]))[0]) == pytest.approx(
            0.24197072451914337, abs=1e-14
        )

    def test_weights_normalized(self):
        q = MixtureDensity((N01, N21), np.array([2.0, 6.0]))
        assert q.weights == pytest.approx([0.25, 0.75])

    def test_logpdf_matches_log_of_pdf(self):
        comps = (
            N01,
            Distribution(Family.GAMMA, (2.0, 1.0)),
            Distribution(Family.UNIFORM, (0.5, 2.0)),
        )
        q = MixtureDensity(comps, np.array([0.2, 0.5, 0.3]))
        x = np.linspace(-2, 5, 301)
        p = q.pdf(x)
        m = p > 0
        assert np.allclose(q.logpdf(x)[m], np.log(p[m]), rtol=1e-12)

    def test_sampling_deterministic_and_in_support(self):
        comps = (Distribution(Family.GAMMA, (2.0, 1.0)), Distribution(Family.WEIBULL, (1.5, 2.0)))
        q = MixtureDensity(comps, np.array([0.4, 0.6]))
        a = q.sample(RngStream(1), 5000)
        b = q.sample(RngStream(1), 5000)
        assert np.array_equal(a, b)
        assert a.min() > 0.0

    def test_sample_mean_matches_mixture_mean(self):
        q = MixtureDensity((N01, N21), np.array([0.5, 0.5]))
        x = q.sample(RngStream(2), 200_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 1.0) < 3 * se

    def test_sample_distribution_matches_mixture_cdf(self):
        comps = (
            N01,
            Distribution(Family.GAMMA, (2.0, 1.0)),
            Distribution(Family.UNIFORM, (-1.0, 4.0)),
        )
        w = np.array([0.5, 0.3, 0.2])
        q = MixtureDensity(comps, w)
        n = 100_000
        x = np.sort(q.sample(RngStream(3), n))
        cdf = sum(wi * c.cdf(x) for wi, c in zip(q.weights, comps))
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(cdf - grid)), np.max(np.abs(cdf - (grid - 1.0 / n))))
        assert ks < 1.628 / math.sqrt(n)  # 1% critical value

    def test_support_hull(self):
        q = MixtureDensity((N01, Distribution(Family.GAMMA, (2.0, 1.0))), np.array([0.5, 0.5]))
        assert q.support() == (-math.inf, math.inf)
        q2 = MixtureDensity(
            (Distribution(Family.UNIFORM, (0.0, 1.0)), Distribution(Family.GAMMA, (2.0, 1.0))),
            np.array([0.5, 0.5]),
        )
        assert q2.support() == (0.0, math.inf)

    def test_support_computed_once(self, monkeypatch):
        q = MixtureDensity((N01, Distribution(Family.GAMMA, (2.0, 1.0))), np.array([0.5, 0.5]))

        def no_call(self):
            raise AssertionError("component support recomputed")

        monkeypatch.setattr(Distribution, "support", no_call)
        assert q.support() == (-math.inf, math.inf)

    def test_normalization_by_quadrature(self):
        q = MixtureDensity(
            (
                N01,
                Distribution(Family.LOGNORMAL, (0.2, 0.6)),
                Distribution(Family.WEIBULL, (1.8, 2.0)),
            ),
            np.array([0.3, 0.4, 0.3]),
        )
        assert mixture_normalization(q) == pytest.approx(1.0, abs=1e-6)

    @staticmethod
    def _scipy_logpdf(q, x):
        # Per-component rows in component order; the mixtures below list
        # their components grouped by family, which is the order the
        # mixture sums its rows in.
        rows = [np.log(w) + c.logpdf(x) for w, c in zip(q.weights, q.components)]
        return logsumexp(np.vstack(rows), axis=0)

    def test_logpdf_equals_scipy_logsumexp_bitwise(self):
        comps = (
            N01,
            Distribution(Family.NORMAL, (1.5, 0.3)),
            Distribution(Family.LOGNORMAL, (0.2, 0.6)),
            Distribution(Family.GAMMA, (2.0, 1.0)),
            Distribution(Family.GAMMA, (0.7, 3.0)),
            Distribution(Family.WEIBULL, (1.8, 2.0)),
            Distribution(Family.UNIFORM, (-1.0, 4.0)),
        )
        q = MixtureDensity(comps, np.array([0.2, 0.1, 0.15, 0.15, 0.1, 0.2, 0.1]))
        # More points than one evaluation chunk, from deep left tail to far right.
        x = np.concatenate([np.linspace(-40.0, 60.0, 9001), [0.0, -0.0, 1e-300, 1e6]])
        assert_array_equal(q.logpdf(x), self._scipy_logpdf(q, x))

    def test_positive_support_mixture_at_nonpositive_points(self):
        comps = (
            Distribution(Family.LOGNORMAL, (0.0, 0.5)),
            Distribution(Family.GAMMA, (2.0, 1.0)),
            Distribution(Family.WEIBULL, (1.5, 2.0)),
        )
        q = MixtureDensity(comps, np.array([0.3, 0.3, 0.4]))
        x = np.array([-5.0, -1e-12, -0.0, 0.0, 1e-3, 1.0, 7.5])
        got = q.logpdf(x)
        assert np.all(got[:4] == -np.inf)
        assert np.all(np.isfinite(got[4:]))
        assert_array_equal(got, self._scipy_logpdf(q, x))

    def test_duplicate_components_tied_maxima(self):
        q = MixtureDensity((N01, N01, N21, N21), np.array([0.25, 0.25, 0.25, 0.25]))
        x = np.linspace(-6.0, 8.0, 1401)
        assert_array_equal(q.logpdf(x), self._scipy_logpdf(q, x))

    def test_logsumexp_columns_edge_cases_match_scipy(self):
        inf, nan = np.inf, np.nan
        cols = [
            [-inf, -inf, -inf],  # all -inf
            [inf, 0.0, -3.0],  # +inf
            [inf, inf, 1.0],  # two +inf
            [nan, 0.0, 1.0],  # NaN
            [2.0, 2.0, -1.0],  # tied maxima
            [5.0, 5.0, 5.0],  # all tied
            [1e308, 1e308, 0.0],  # near overflow
            [-1e308, -inf, -1e308],
            [-745.0, -746.0, -800.0],  # exp underflow
            [0.0, -0.0, -40.0],
            [-inf, 3.0, -inf],
        ]
        a = np.array(cols, dtype=np.float64).T
        assert_array_equal(_logsumexp_columns(a.copy()), logsumexp(a, axis=0))
        gen = np.random.default_rng(4)
        a = gen.normal(0.0, 30.0, (57, 500))
        a[gen.random(a.shape) < 0.2] = -inf
        assert_array_equal(_logsumexp_columns(a.copy()), logsumexp(a, axis=0))

    def test_bad_weights_rejected(self):
        with pytest.raises(InvalidParameterError):
            MixtureDensity((N01,), np.array([-1.0]))
        with pytest.raises(InvalidParameterError):
            MixtureDensity((N01, N21), np.array([1.0]))


class TestOptimalMixture:
    def test_single_family_single_draw_is_the_density_itself(self):
        mp = probabilities([Family.NORMAL], [1.0])
        post = {Family.NORMAL: posterior_of(Family.NORMAL, [[0.0, 1.0]])}
        q = optimal_mixture(mp, post, mode="weighted")
        assert q.n_components == 1
        assert q.components[0] == N01
        assert q.weights == pytest.approx([1.0])

    def test_weighted_flattening_arithmetic(self):
        # pi = (0.7, 0.3) with 2 and 1 posterior draws -> (0.35, 0.35, 0.3).
        mp = probabilities([Family.NORMAL, Family.UNIFORM], [0.7, 0.3])
        post = {
            Family.NORMAL: posterior_of(Family.NORMAL, [[0.0, 1.0], [1.0, 2.0]]),
            Family.UNIFORM: posterior_of(Family.UNIFORM, [[0.0, 1.0]]),
        }
        q = optimal_mixture(mp, post, mode="weighted")
        assert q.weights == pytest.approx([0.35, 0.35, 0.3])

    def test_equal_mode_ignores_pi(self):
        mp = probabilities([Family.NORMAL, Family.UNIFORM], [0.9, 0.1])
        post = {
            Family.NORMAL: posterior_of(Family.NORMAL, [[0.0, 1.0]]),
            Family.UNIFORM: posterior_of(Family.UNIFORM, [[0.0, 1.0]]),
        }
        q = optimal_mixture(mp, post, mode="equal")
        assert q.weights == pytest.approx([0.5, 0.5])

    def test_component_cap(self):
        rows = [[float(i) / 100.0, 1.0] for i in range(50)]
        mp = probabilities([Family.NORMAL], [1.0])
        post = {Family.NORMAL: posterior_of(Family.NORMAL, rows)}
        q = optimal_mixture(mp, post, max_components_per_family=10)
        assert q.n_components == 10


class TestEmsd:
    def test_identical_target_zero(self):
        q = MixtureDensity((N01,), np.array([1.0]))
        targets = CandidateModelSet(entries=(N01,), source_pi=(1.0,), seed=0)
        assert emsd(q, targets) == pytest.approx(0.0, abs=1e-9)

    def test_duplicate_targets_zero(self):
        q = MixtureDensity((N01,), np.array([1.0]))
        targets = CandidateModelSet(entries=(N01, N01), source_pi=(1.0,), seed=0)
        assert emsd(q, targets) == pytest.approx(0.0, abs=1e-9)

    def test_hand_value_single_pair(self):
        # emsd(N(0,1) vs N(2,1)) = 0.5 * int (p-q)^2 = (1 - exp(-1)) / (2 sqrt(pi)).
        q = MixtureDensity((N21,), np.array([1.0]))
        targets = CandidateModelSet(entries=(N01,), source_pi=(1.0,), seed=0)
        oracle = (1.0 - math.exp(-1.0)) / (2.0 * math.sqrt(math.pi))
        assert emsd(q, targets) == pytest.approx(oracle, rel=1e-8)

    def test_optimal_mixture_beats_weight_perturbations(self):
        # Targets aligned with the mixture components: the closed form is the
        # exact minimizer of the empirical objective, so every perturbation
        # must score strictly worse.
        rows = [[-0.5, 0.8], [0.2, 1.1], [0.7, 0.9]]
        mp = probabilities([Family.NORMAL], [1.0])
        post = {Family.NORMAL: posterior_of(Family.NORMAL, rows)}
        q_star = optimal_mixture(mp, post, mode="equal")
        targets = CandidateModelSet(
            entries=q_star.components, source_pi=(1.0,), seed=0
        )
        base = emsd(q_star, targets)
        gen = np.random.default_rng(42)
        for _ in range(10):
            w = q_star.weights * gen.uniform(0.9, 1.1, size=q_star.n_components)
            q_pert = MixtureDensity(q_star.components, w / w.sum())
            if np.allclose(q_pert.weights, q_star.weights):
                continue
            assert emsd(q_pert, targets) > base
