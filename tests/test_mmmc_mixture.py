import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.special import logsumexp

from uqmc import Distribution, Family, RngStream
from uqmc.exceptions import InvalidParameterError, QuadratureError
from uqmc.mmmc import (
    CandidateModelSet,
    MixtureDensity,
    ParameterPosterior,
    candidate_set_from_posteriors,
    emsd,
    mixture_normalization,
    optimal_mixture,
)
from uqmc.mmmc.mixture import _logsumexp_columns

from test_natural_form import assert_forms_agree

N01 = Distribution(Family.NORMAL, (0.0, 1.0))
N21 = Distribution(Family.NORMAL, (2.0, 1.0))


def posterior_of(family, rows):
    return ParameterPosterior(
        family=family,
        samples=np.asarray(rows, dtype=np.float64),
        acceptance_rate=0.3,
        chain_length=100,
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

    def test_mixed_family_normalization_closed_form(self):
        q = MixtureDensity(
            (
                Distribution(Family.NORMAL, (1.0, 2.0)),
                Distribution(Family.GAMMA, (2.5, 0.8)),
                Distribution(Family.WEIBULL, (1.3, 3.0)),
                Distribution(Family.UNIFORM, (-2.0, 5.0)),
            ),
            np.array([0.1, 0.4, 0.3, 0.2]),
        )
        assert mixture_normalization(q) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("family", [Family.GAMMA, Family.WEIBULL])
    def test_unresolved_pole_raises(self, family):
        # A shape-0.3 density has a x^-0.7 pole at 0, which the panels do
        # not resolve to 1e-6: an error, not a wrong value.
        q = MixtureDensity((Distribution(family, (0.3, 1.0)),), np.array([1.0]))
        with pytest.raises(QuadratureError, match="differ by"):
            mixture_normalization(q)

    @staticmethod
    def _scipy_logpdf(q, x):
        # Per-component rows in component order; the mixtures below list
        # their components grouped by family, which is the order the
        # mixture sums its rows in.
        rows = [np.log(w) + c.logpdf(x) for w, c in zip(q.weights, q.components)]
        return logsumexp(np.vstack(rows), axis=0)

    def test_logpdf_matches_scipy_logsumexp(self):
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
        assert_forms_agree(q.logpdf(x), self._scipy_logpdf(q, x))

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
        assert_forms_agree(got, self._scipy_logpdf(q, x))

    def test_positive_support_mixture_at_infinity(self):
        comps = (Distribution(Family.GAMMA, (2.0, 1.0)), Distribution(Family.WEIBULL, (1.5, 2.0)))
        q = MixtureDensity(comps, np.array([0.5, 0.5]))
        assert_array_equal(q.logpdf(np.array([np.inf])), [-np.inf])

    def test_duplicate_components_tied_maxima(self):
        q = MixtureDensity((N01, N01, N21, N21), np.array([0.25, 0.25, 0.25, 0.25]))
        x = np.linspace(-6.0, 8.0, 1401)
        assert_forms_agree(q.logpdf(x), self._scipy_logpdf(q, x))

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
        assert_forms_agree(_logsumexp_columns(a.copy()), logsumexp(a, axis=0))
        gen = np.random.default_rng(4)
        a = gen.normal(0.0, 30.0, (57, 500))
        a[gen.random(a.shape) < 0.2] = -inf
        assert_forms_agree(_logsumexp_columns(a.copy()), logsumexp(a, axis=0))

    def test_bad_weights_rejected(self):
        with pytest.raises(InvalidParameterError):
            MixtureDensity((N01,), np.array([-1.0]))
        with pytest.raises(InvalidParameterError):
            MixtureDensity((N01, N21), np.array([1.0]))


def candidate_set(*counted):
    """A candidate set holding each (distribution, count) pair's
    distribution ``count`` times, in the order given."""
    return CandidateModelSet(entries=tuple(d for d, k in counted for _ in range(k)))


U01 = Distribution(Family.UNIFORM, (0.0, 1.0))
N12 = Distribution(Family.NORMAL, (1.0, 2.0))


class TestOptimalMixture:
    def test_single_family_single_draw_is_the_density_itself(self):
        q = optimal_mixture(candidate_set((N01, 1)), mode="weighted")
        assert q.n_components == 1
        assert q.components[0] == N01
        assert q.weights == pytest.approx([1.0])

    def test_weighted_flattening_arithmetic(self):
        # Multiplicities 4, 3 and 3 of T = 10 -> (0.4, 0.3, 0.3).
        q = optimal_mixture(candidate_set((N01, 4), (N12, 3), (U01, 3)), mode="weighted")
        assert q.components == (N01, N12, U01)
        assert q.weights == pytest.approx([0.4, 0.3, 0.3])

    def test_components_in_first_appearance_order(self):
        q = optimal_mixture(candidate_set((N12, 1), (U01, 1), (N01, 1), (N12, 1)))
        assert q.components == (N12, N01, U01)
        assert q.weights == pytest.approx([0.5, 0.25, 0.25])

    def test_equal_mode_ignores_pi(self):
        q = optimal_mixture(candidate_set((N01, 9), (U01, 1)), mode="equal")
        assert q.weights == pytest.approx([0.5, 0.5])
        # Within a family the multiplicities still split its half.
        q = optimal_mixture(candidate_set((N01, 3), (N12, 1), (U01, 1)), mode="equal")
        assert q.weights == pytest.approx([0.375, 0.125, 0.5])

    def test_component_cap(self):
        rows = [[float(i) / 100.0, 1.0] for i in range(50)]
        cands = candidate_set_from_posteriors({Family.NORMAL: posterior_of(Family.NORMAL, rows)})
        q = optimal_mixture(cands, max_components_per_family=10)
        assert q.n_components == 10

    @pytest.mark.parametrize("mode", ["weighted", "equal"])
    def test_binding_cap_keeps_each_family_share(self, mode):
        # 50 distinct normals (the first 10 twice) and 4 gammas of counts
        # 1..4 under a cap of 3: each family keeps at most 3 components,
        # evenly thinned in first-appearance order, and its whole share.
        ns = [Distribution(Family.NORMAL, (float(i), 1.0)) for i in range(50)]
        gs = [Distribution(Family.GAMMA, (2.0 + i, 1.0)) for i in range(4)]
        cands = candidate_set(*[(d, 2 if i < 10 else 1) for i, d in enumerate(ns)],
                              *[(g, i + 1) for i, g in enumerate(gs)])
        q = optimal_mixture(cands, mode=mode, max_components_per_family=3)
        assert q.components == (ns[0], ns[24], ns[49], gs[0], gs[2], gs[3])
        share = [60 / 70, 10 / 70] if mode == "weighted" else [0.5, 0.5]
        assert [q.weights[:3].sum(), q.weights[3:].sum()] == pytest.approx(share, rel=1e-14)
        # The kept components split the share by multiplicity.
        assert q.weights[:3] / q.weights[:3].sum() == pytest.approx([0.5, 0.25, 0.25])
        assert q.weights[3:] / q.weights[3:].sum() == pytest.approx([1 / 8, 3 / 8, 4 / 8])

    def test_bad_arguments_rejected(self):
        with pytest.raises(InvalidParameterError, match="mode"):
            optimal_mixture(candidate_set((N01, 1)), mode="pi")
        with pytest.raises(InvalidParameterError, match="max_components_per_family"):
            optimal_mixture(candidate_set((N01, 1)), max_components_per_family=0)
        with pytest.raises(InvalidParameterError, match="empty"):
            optimal_mixture(CandidateModelSet(entries=()))


class TestEmsd:
    def test_identical_target_zero(self):
        q = MixtureDensity((N01,), np.array([1.0]))
        targets = CandidateModelSet(entries=(N01,))
        assert emsd(q, targets) == pytest.approx(0.0, abs=1e-9)

    def test_duplicate_targets_zero(self):
        q = MixtureDensity((N01,), np.array([1.0]))
        targets = CandidateModelSet(entries=(N01, N01))
        assert emsd(q, targets) == pytest.approx(0.0, abs=1e-9)

    def test_hand_value_single_pair(self):
        # emsd(N(0,1) vs N(2,1)) = 0.5 * int (p-q)^2 = (1 - exp(-1)) / (2 sqrt(pi)).
        q = MixtureDensity((N21,), np.array([1.0]))
        targets = CandidateModelSet(entries=(N01,))
        oracle = (1.0 - math.exp(-1.0)) / (2.0 * math.sqrt(math.pi))
        assert emsd(q, targets) == pytest.approx(oracle, rel=1e-8)

    def test_optimal_mixture_beats_weight_perturbations(self):
        # Targets aligned with the mixture components: the closed form is the
        # exact minimizer of the empirical objective, so every perturbation
        # must score strictly worse.
        rows = [[-0.5, 0.8], [0.2, 1.1], [0.7, 0.9]]
        post = {Family.NORMAL: posterior_of(Family.NORMAL, rows)}
        q_star = optimal_mixture(candidate_set_from_posteriors(post), mode="equal")
        targets = CandidateModelSet(entries=q_star.components)
        base = emsd(q_star, targets)
        gen = np.random.default_rng(42)
        for _ in range(10):
            w = q_star.weights * gen.uniform(0.9, 1.1, size=q_star.n_components)
            q_pert = MixtureDensity(q_star.components, w / w.sum())
            if np.allclose(q_pert.weights, q_star.weights):
                continue
            assert emsd(q_pert, targets) > base


def _normal_overlap(a, b):
    """Integral of p_a p_b for two normals: N(mu_a - mu_b; 0, s_a^2 + s_b^2)."""
    (ma, sa), (mb, sb) = a.params, b.params
    s2 = sa * sa + sb * sb
    return math.exp(-0.5 * (ma - mb) ** 2 / s2) / math.sqrt(2.0 * math.pi * s2)


def _lognormal_overlap(a, b):
    """The same for two lognormals: in y = log x the product of the two
    normals is the normal overlap times N(y; m, v), and the Jacobian e^-y
    integrates against it to exp(-m + v / 2)."""
    (ma, sa), (mb, sb) = a.params, b.params
    s2 = sa * sa + sb * sb
    m = (ma * sb * sb + mb * sa * sa) / s2
    v = sa * sa * sb * sb / s2
    return _normal_overlap(a, b) * math.exp(-m + 0.5 * v)


class TestEmsdClosedForm:
    """emsd against the expanded Gram form of one family's targets:
    0.5 * mean_j (<p_j, p_j> - 2 sum_i w_i <p_j, q_i> + sum_ik w_i w_k <q_i, q_k>)."""

    @staticmethod
    def _gram_emsd(q, targets, overlap):
        w, comps = q.weights, q.components
        qq = sum(wi * wk * overlap(ci, ck) for wi, ci in zip(w, comps) for wk, ck in zip(w, comps))
        per = [
            overlap(t, t) - 2.0 * sum(wi * overlap(t, ci) for wi, ci in zip(w, comps)) + qq
            for t in targets.entries
        ]
        return 0.5 * float(np.mean(per))

    @pytest.mark.parametrize(
        "family, overlap, comps, weights, targets",
        [
            (
                Family.NORMAL, _normal_overlap,
                [(0.0, 1.0), (1.5, 0.5), (-2.0, 2.0)], [0.5, 0.3, 0.2],
                [(0.3, 0.8), (1.0, 1.2), (-1.0, 0.6)],
            ),
            (
                Family.NORMAL, _normal_overlap,
                [(5.0, 0.1), (5.2, 0.3)], [0.6, 0.4],
                [(5.1, 0.2), (4.5, 1.0), (6.0, 0.05)],
            ),
            (
                Family.LOGNORMAL, _lognormal_overlap,
                [(0.0, 0.5), (0.8, 0.3), (-0.5, 0.6)], [0.2, 0.5, 0.3],
                [(0.2, 0.4), (0.5, 0.6), (-0.3, 0.3)],
            ),
        ],
        ids=["normal", "normal-narrow", "lognormal"],
    )
    def test_emsd_matches_gram_form(self, family, overlap, comps, weights, targets):
        q = MixtureDensity(
            tuple(Distribution(family, c) for c in comps), np.array(weights)
        )
        t = CandidateModelSet(entries=tuple(Distribution(family, p) for p in targets))
        assert emsd(q, t) == pytest.approx(self._gram_emsd(q, t, overlap), rel=1e-10)

    def test_unresolved_pole_raises(self):
        # A gamma target of shape 0.4 has p^2 ~ x^-1.2 at 0, which is not
        # integrable there; the panels cannot resolve it.
        q = MixtureDensity((Distribution(Family.GAMMA, (2.0, 1.0)),), np.array([1.0]))
        t = CandidateModelSet(entries=(Distribution(Family.GAMMA, (0.4, 1.0)),))
        with pytest.raises(QuadratureError, match="differ by"):
            emsd(q, t)
