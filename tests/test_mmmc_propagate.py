import hashlib
import math
import warnings

import numpy as np
import pytest

from uqmc import CostLedger, Distribution, Family, Model, RngStream, builtin_problem, mc_estimate
from uqmc import _threads, distributions
from uqmc.exceptions import EstimatorError, InvalidParameterError
from uqmc.mmmc import (
    CandidateModelSet,
    MixtureDensity,
    PropagationSamples,
    build_candidate_set,
    draw_propagation_samples,
    is_estimate,
    propagate,
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

    @pytest.mark.parametrize(
        "proposal, target, seed, bits",
        [
            (
                Distribution(Family.NORMAL, (0.5, 1.5)), N01, 61,
                ("0x1.0321caabc0328p+0", "0x1.fbf9c86a00180p-13",
                 "0x1.251a5e042f590p+11", "0x1.01b127e904a75p+0", "0x1.a862b4e2665a8p+0"),
            ),
            (
                MixtureDensity(
                    (Distribution(Family.NORMAL, (-1.0, 1.0)),
                     Distribution(Family.NORMAL, (1.5, 2.0))),
                    np.array([0.3, 0.7]),
                ),
                Distribution(Family.NORMAL, (0.2, 1.2)), 62,
                ("0x1.8251151d6e8a5p+0", "0x1.8c8837fa2d944p-12",
                 "0x1.04ec449d044c7p+11", "0x1.f355721e70b1bp-1", "0x1.fd6a25d7cfdc6p+0"),
            ),
        ],
        ids=["distribution", "mixture"],
    )
    def test_pinned_bits(self, proposal, target, seed, bits):
        ledger = CostLedger()
        r = is_estimate(SQUARE, target, proposal, 3000, RngStream(seed), ledger)
        d = r.diagnostics
        got = (r.estimate, r.estimator_variance, d["ess"], d["mean_weight"], d["max_weight"])
        assert tuple(v.hex() for v in got) == bits
        assert ledger.counts == r.n_per_model == {"sq": 3000}


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


class TestReweightRepeats:
    """``reweight`` weights each distinct candidate once and copies the
    result to its repeats; errors name the first occurrence."""

    Q = MixtureDensity(
        (
            Distribution(Family.NORMAL, (1.0, 1.5)),
            Distribution(Family.LOGNORMAL, (0.2, 0.5)),
            Distribution(Family.GAMMA, (3.0, 0.6)),
            Distribution(Family.WEIBULL, (2.0, 1.8)),
            Distribution(Family.UNIFORM, (0.5, 3.0)),
        ),
        np.array([0.4, 0.15, 0.15, 0.15, 0.15]),
    )
    DISTINCT = (
        Distribution(Family.NORMAL, (0.9, 1.3)),
        Distribution(Family.NORMAL, (1.1, 1.2)),
        Distribution(Family.LOGNORMAL, (0.15, 0.45)),
        Distribution(Family.GAMMA, (2.8, 0.55)),
        Distribution(Family.WEIBULL, (1.9, 1.6)),
        Distribution(Family.UNIFORM, (0.2, 2.7)),
    )

    def repeated(self):
        order = np.random.default_rng(4).permutation(5 * len(self.DISTINCT))
        entries = tuple(self.DISTINCT[k % len(self.DISTINCT)] for k in order)
        return CandidateModelSet(entries=entries)

    def test_repeats_equal_each_entry_alone(self):
        samples = draw_propagation_samples(SQUARE, self.Q, 3000, RngStream(32))
        targets = self.repeated()
        rep = reweight(samples, targets)
        alone = [
            reweight(samples, CandidateModelSet(entries=(e,)))
            for e in targets.entries
        ]
        assert np.array_equal(rep.estimates, [r.estimates[0] for r in alone])
        assert np.array_equal(rep.ess, [r.ess[0] for r in alone])
        assert len(set(rep.estimates.tolist())) == len(self.DISTINCT)

    def test_one_kernel_pass_per_distinct_candidate(self, monkeypatch):
        # 500 samples are one chunk: each distinct candidate is one kernel
        # row, and the weighed candidates are the first occurrences.
        kernel, weigh = propagate._logpdf_into, propagate._weigh_distinct
        rows, weighed = [], []

        def counted(family, stats, natural, out, tmp):
            rows.append(out.shape[1])
            return kernel(family, stats, natural, out, tmp)

        def recorded(samples, candidates, index, *args):
            weighed.extend(index)
            return weigh(samples, candidates, index, *args)

        monkeypatch.setattr(propagate, "_logpdf_into", counted)
        monkeypatch.setattr(propagate, "_weigh_distinct", recorded)
        samples = draw_propagation_samples(SQUARE, self.Q, 500, RngStream(33))
        targets = self.repeated()
        reweight(samples, targets)
        first = [targets.entries.index(d) for d in self.DISTINCT]
        assert weighed == sorted(first)
        assert sum(rows) == len(self.DISTINCT)

    def test_support_violation_names_first_index(self):
        q = MixtureDensity(
            (Distribution(Family.LOGNORMAL, (0.0, 0.5)), Distribution(Family.GAMMA, (2.0, 1.0))),
            np.array([0.5, 0.5]),
        )
        samples = draw_propagation_samples(IDENT, q, 500, RngStream(17))
        ln = Distribution(Family.LOGNORMAL, (0.1, 0.6))
        targets = CandidateModelSet(entries=(ln, ln, N01, ln, N01))
        with pytest.raises(EstimatorError, match="candidate 2 support"):
            reweight(samples, targets)

    def test_runtime_weight_violation_names_first_index(self):
        # At x = NaN a normal log density is NaN, while a gamma one is -inf
        # (weight 0 against the finite log_q set there): only the normal
        # candidate fails, at its first index.
        q = MixtureDensity((N01,), np.array([1.0]))
        drawn = draw_propagation_samples(IDENT, q, 400, RngStream(18))
        x, log_q = drawn.x.copy(), drawn.log_q.copy()
        x[7], log_q[7] = np.nan, 0.0
        samples = PropagationSamples(x=x, y=drawn.y, log_q=log_q, proposal=q, seed=drawn.seed)
        gamma = Distribution(Family.GAMMA, (2.0, 1.0))
        normal = Distribution(Family.NORMAL, (0.1, 1.2))
        targets = CandidateModelSet(entries=(gamma, gamma, normal, gamma, normal))
        with pytest.raises(EstimatorError, match=r"candidate 2 at sample 7 \(x="):
            reweight(samples, targets)


class TestReweightInvariance:
    """A candidate's estimate and ESS bits depend on nothing but the
    candidate and the samples: not on the other candidates or their order,
    the thread count, or the block budget."""

    Q = TestReweightRepeats.Q

    @staticmethod
    def candidates():
        out = []
        for s in np.linspace(0.0, 1.0, 4):
            out += [
                Distribution(Family.NORMAL, (0.8 + 0.3 * s, 1.2 + 0.2 * s)),
                Distribution(Family.LOGNORMAL, (0.1 + 0.1 * s, 0.4 + 0.1 * s)),
                Distribution(Family.GAMMA, (2.5 + s, 0.5 + 0.1 * s)),
                Distribution(Family.WEIBULL, (1.8 + 0.5 * s, 1.5 + 0.3 * s)),
                Distribution(Family.UNIFORM, (0.2 * s, 2.5 + s)),
            ]
        return out

    N = 10_000  # five chunks: two stripes of more than one chunk on two cores

    def samples(self):
        return draw_propagation_samples(SQUARE, self.Q, self.N, RngStream(34))

    def bits(self, monkeypatch, entries, cores=2, budget=None):
        """{candidate: (estimate, ESS) as hex} on ``cores`` usable cores
        under a block budget of ``budget`` pairs (the default for None)."""
        with monkeypatch.context() as m:
            m.setattr(_threads, "_usable_cores", lambda: cores)
            if budget is not None:
                m.setattr(distributions, "_BLOCK_PAIRS", budget)
            rep = reweight(self.samples(), CandidateModelSet(entries=tuple(entries)))
        return {e: (rep.estimates[j].hex(), rep.ess[j].hex()) for j, e in enumerate(entries)}

    def log_weights(self, entries):
        """{candidate: its log weights' bytes, chunk by chunk}.  Estimates
        average last-bit moves of single weights away, so the weights are
        compared too."""
        weights = propagate._WeightPass(self.samples(), entries)
        out = {e: b"" for e in entries}
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for lo in range(0, self.N, propagate._CHUNK):
                for rows, lw, _ in weights.blocks(lo):
                    for j, row in zip(rows, lw):
                        out[entries[j]] += row.tobytes()
        return out

    def test_other_candidates_and_their_order(self, monkeypatch):
        cands = self.candidates()
        full, full_lw = self.bits(monkeypatch, cands), self.log_weights(cands)
        order = np.random.default_rng(5).permutation(len(cands))
        for entries in ([cands[i] for i in order], [cands[i] for i in order[:7]], cands[:2]):
            assert self.bits(monkeypatch, entries) == {e: full[e] for e in entries}
            assert self.log_weights(entries) == {e: full_lw[e] for e in entries}

    @pytest.mark.parametrize("cores, budget", [(1, None), (2, 1), (2, 7), (1, 7)])
    def test_threads_and_block_budget(self, monkeypatch, cores, budget):
        cands = self.candidates()
        assert len(cands) * self.N > 65536  # two stripes on two cores
        rows = []
        kernel = propagate._logpdf_into

        def counted(family, stats, natural, out, tmp):
            rows.append(out.shape[1])
            return kernel(family, stats, natural, out, tmp)

        full = self.bits(monkeypatch, cands)
        monkeypatch.setattr(propagate, "_logpdf_into", counted)
        assert self.bits(monkeypatch, cands, cores, budget) == full
        assert max(rows) == (1 if budget else 4)  # one-row blocks under a budget of 1 or 7


class TestPropagate:
    def test_single_target_equal_to_proposal_zero_band(self):
        # Target == proposal: weights are exactly 1, the reweighted estimate
        # is the plain MC mean of the shared outputs, and the quantile band
        # across the (single-entry) ensemble has zero width.
        q = MixtureDensity((N01,), np.array([1.0]))
        targets = CandidateModelSet(entries=(N01,))
        samples = draw_propagation_samples(SQUARE, q, 2000, RngStream(10))
        rep = reweight(samples, targets)
        assert rep.estimates[0] == np.mean(samples.y)
        assert rep.quantiles["5%"] == rep.quantiles["95%"] == rep.estimates[0]

    def test_mean_of_standard_normal_target(self):
        q = MixtureDensity(
            (N01, Distribution(Family.NORMAL, (0.5, 1.5))), np.array([0.5, 0.5])
        )
        targets = CandidateModelSet(entries=(N01,))
        rep = reweight(draw_propagation_samples(IDENT, q, 100_000, RngStream(11)), targets)
        # SE of the weighted mean, from the reweighted estimator itself.
        assert abs(rep.estimates[0]) < 0.02

    def test_cost_collapse_exactly_n_evaluations(self):
        q = MixtureDensity((N01,), np.array([1.0]))
        entries = tuple(
            Distribution(Family.NORMAL, (0.01 * j, 1.0 + 0.001 * j)) for j in range(50)
        )
        targets = CandidateModelSet(entries=entries)
        ledger = CostLedger()
        n = 3000
        samples = draw_propagation_samples(SQUARE, q, n, RngStream(12), ledger)
        rep = reweight(samples, targets, ledger)
        assert ledger.count("sq") == n
        assert ledger.total() == float(n)
        assert rep.estimates.shape == (50,)
        assert np.all(rep.ess <= n + 1e-9)

    def test_quantiles_monotone(self):
        q = MixtureDensity((N01,), np.array([1.0]))
        entries = tuple(
            Distribution(Family.NORMAL, (0.05 * j, 1.0)) for j in range(40)
        )
        targets = CandidateModelSet(entries=entries)
        rep = reweight(draw_propagation_samples(SQUARE, q, 4000, RngStream(13)), targets)
        vals = [rep.quantiles[k] for k in ("5%", "25%", "50%", "75%", "95%")]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_reweight_cache_reuses_outputs(self):
        q = MixtureDensity((N01,), np.array([1.0]))
        ledger = CostLedger()
        samples = draw_propagation_samples(SQUARE, q, 2000, RngStream(14), ledger)
        assert ledger.count("sq") == 2000
        t1 = CandidateModelSet(entries=(N01,))
        t2 = CandidateModelSet(entries=(Distribution(Family.NORMAL, (0.1, 1.1)),))
        r1 = reweight(samples, t1, ledger)
        r2 = reweight(samples, t2, ledger)
        assert ledger.count("sq") == 2000  # no new evaluations
        r1b = reweight(samples, t1, ledger)
        assert np.array_equal(r1.estimates, r1b.estimates)
        assert r1.estimates[0] != r2.estimates[0]

    def test_reweight_total_cost_reads_the_ledger(self):
        # Reweighting evaluates nothing, so with no ledger it reports 0.0,
        # not a guess; the ledger that drew the samples reports their cost.
        double = Model("sq2", lambda x: x[:, 0] ** 2, 2.0)
        q = MixtureDensity((N01,), np.array([1.0]))
        ledger = CostLedger()
        samples = draw_propagation_samples(double, q, 500, RngStream(14), ledger)
        targets = CandidateModelSet(entries=(N01,))
        assert reweight(samples, targets).total_cost == 0.0
        assert reweight(samples, targets, ledger).total_cost == ledger.total() == 1000.0
        assert ledger.counts == {"sq2": 500}

    def test_reweight_rejects_candidate_outside_proposal_support(self):
        # A positive-support proposal cannot serve a normal candidate; the
        # support check must fire for that candidate before any weighting.
        q = MixtureDensity(
            (Distribution(Family.LOGNORMAL, (0.0, 0.5)), Distribution(Family.GAMMA, (2.0, 1.0))),
            np.array([0.5, 0.5]),
        )
        samples = draw_propagation_samples(IDENT, q, 500, RngStream(17))
        targets = CandidateModelSet(entries=(Distribution(Family.LOGNORMAL, (0.1, 0.6)), N01))
        with pytest.raises(EstimatorError, match="candidate 1 support"):
            reweight(samples, targets)

    def test_reweight_rejects_an_empty_target_set(self):
        q = MixtureDensity((N01,), np.array([1.0]))
        samples = draw_propagation_samples(IDENT, q, 100, RngStream(18))
        with pytest.raises(InvalidParameterError, match="target set is empty"):
            reweight(samples, CandidateModelSet(entries=()))

    def test_reweight_pinned_mixed_families(self):
        # Five families over a mixture with a normal component, so some
        # draws are <= 0 and the positive-support candidates weight them 0.
        # Digest and quantiles were recorded with the natural-form weights;
        # any change in arithmetic order breaks them.
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
        targets = CandidateModelSet(entries=tuple(entries))
        samples = draw_propagation_samples(SQUARE, q, 3000, RngStream(31))
        assert int(np.sum(samples.x <= 0.0)) == 299
        rep = reweight(samples, targets)
        digest = hashlib.sha256(rep.estimates.tobytes() + rep.ess.tobytes()).hexdigest()
        assert digest == "05b14d686b5492d65494f3e6483276dfd387dc96f09eba8a917bf9622ef73cbf"
        assert rep.quantiles == {
            "5%": 1.9554378135129948,
            "25%": 2.353009675796422,
            "50%": 2.790209247294862,
            "75%": 3.348724944915974,
            "95%": 5.668315899920205,
        }
        assert rep.diagnostics == {"n_candidates": 25, "min_ess": 1176.3003186246956}

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
        targets = CandidateModelSet(entries=(Distribution(Family.NORMAL, (0.1, 1.2)), N01))
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
        targets = CandidateModelSet(entries=(N01,))
        rep = reweight(samples, targets)
        assert rep.estimates[0] == np.inf

    def test_reweight_two_infinite_estimates_warn_nothing(self):
        # np.quantile interpolates inf - inf between the two infinite
        # estimates; the NaN quantiles are kept (the CLI writes them as
        # null and flags them) but no RuntimeWarning escapes.
        q = MixtureDensity((N01,), np.array([1.0]))
        drawn = draw_propagation_samples(SQUARE, q, 500, RngStream(19))
        samples = PropagationSamples(
            x=drawn.x, y=drawn.y, log_q=np.full(500, -1e306), proposal=q, seed=drawn.seed
        )
        targets = CandidateModelSet(entries=(N01, Distribution(Family.NORMAL, (0.1, 1.0))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = reweight(samples, targets)
        assert np.array_equal(rep.estimates, [np.inf, np.inf])
        with np.errstate(invalid="ignore"):
            want = np.quantile(rep.estimates, (0.05, 0.25, 0.5, 0.75, 0.95))
        assert np.all(np.isnan(want))
        assert np.array_equal(list(rep.quantiles.values()), want, equal_nan=True)

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
