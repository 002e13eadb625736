"""Passes that lay parameter rows against points go in blocks of at most
``distributions._BLOCK_PAIRS`` (row, point) pairs: the mixture log
density, the ``emsd`` integrand and the evidence likelihoods.  Their
memory does not grow with the row count, and their values do not depend on
the block size, on one-point blocks or on the thread count.
"""

import tracemalloc

import numpy as np
import pytest

from uqmc import Dataset, Distribution, Family, RngStream
from uqmc import _threads, distributions
from uqmc.distributions import _BLOCK_PAIRS, _block_len
from uqmc.mmmc import CandidateModelSet, MixtureDensity, default_priors, emsd, model_evidence
from uqmc.mmmc import mixture as mixture_module
from uqmc.mmmc.mixture import _column_sums


def normals(m, lo=0.0):
    return [Distribution(Family.NORMAL, (lo + s, 1.0 + s)) for s in np.linspace(0.0, 1.0, m)]


def four_families(m):
    """m members of each of the four families of an mmmc posterior mixture."""
    out = []
    for s in np.linspace(0.0, 1.0, m):
        out += [
            Distribution(Family.NORMAL, (2.0 + s, 0.8 + s)),
            Distribution(Family.LOGNORMAL, (0.5 + 0.1 * s, 0.4 + 0.2 * s)),
            Distribution(Family.GAMMA, (1.5 + s, 0.8 + 0.3 * s)),
            Distribution(Family.WEIBULL, (1.2 + s, 1.0 + 0.5 * s)),
        ]
    return out


def mixture(comps):
    return MixtureDensity(tuple(comps), np.linspace(1.0, 2.0, len(comps)))


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def hexes(*values):
    return [float(v).hex() for v in values]


# (budget, usable cores): the default budget on two cores, then small ones
# that cut every pass into many blocks, down to one point or row each.
SETTINGS = [(None, 2), (7, 1), (7, 2), (1, 2), (5000, 2)]


def under(monkeypatch, budget, cores, fn):
    monkeypatch.setattr(_threads, "_usable_cores", lambda: cores)
    if budget is not None:
        monkeypatch.setattr(distributions, "_BLOCK_PAIRS", budget)
    return fn()


class TestOnePointChunks:
    @pytest.mark.parametrize("m", [8, 9, 400])
    def test_single_point_calls_match_a_vector_call(self, m):
        # numpy sums an (m, 1) block pairwise and a wider block row by row;
        # at 8 or more components that moved the last bits of about half
        # of the points.
        q = mixture(normals(m))
        x = RngStream(7).uniforms(200) * 4.0 - 1.0
        whole = q.logpdf(x)
        assert hexes(*whole) == hexes(*(q.logpdf(v) for v in x))

    def test_final_one_point_chunk_matches(self):
        q = mixture(normals(400))
        step = _block_len(q.n_components)
        x = RngStream(8).uniforms(2 * step) * 4.0 - 1.0
        whole = q.logpdf(x)
        for i in range(step, step + 40):
            # step + 1 points: the last chunk is the one point x[i].
            assert hexes(q.logpdf(x[i - step : i + 1])[-1]) == hexes(whole[i])

    @pytest.mark.parametrize("m", [3, 8, 400, 2001])
    def test_one_column_sums_like_a_wide_block(self, m):
        a = RngStream(9).uniforms(3 * m).reshape(m, 3) * 10.0 ** np.arange(-4, 5, 4.0)
        wide = _column_sums(a)
        for j in range(3):
            assert hexes(*_column_sums(a[:, j : j + 1].copy())) == hexes(wide[j])


class TestBudgetMovesNoBit:
    @pytest.mark.parametrize("budget, cores", SETTINGS)
    def test_mixture_logpdf(self, monkeypatch, budget, cores):
        q = mixture(four_families(12) + normals(5, lo=-1.0))
        x = RngStream(10).uniforms(3000) * 12.0 - 4.0
        x[[5, 17]] = [np.nan, np.inf]
        reference = q.logpdf(x)
        got = under(monkeypatch, budget, cores, lambda: q.logpdf(x))
        assert np.array_equal(got, reference, equal_nan=True)

    @pytest.mark.parametrize("budget, cores", SETTINGS)
    def test_emsd(self, monkeypatch, budget, cores):
        # 16 rows of one family, so a pairwise sum of a one-point chunk
        # would round differently.  Such last-bit moves vanish in the
        # quadrature sum, so the integrand is compared at every node too.
        targets = CandidateModelSet(entries=tuple(normals(4, lo=0.5) * 4))
        q = mixture(normals(2))
        nodes = []
        integrate = mixture_module._integrate

        def recorded(fn, dists):
            return integrate(lambda x: nodes.append(fn(x)) or nodes[-1], dists)

        monkeypatch.setattr(mixture_module, "_integrate", recorded)
        reference = emsd(q, targets)
        got = under(monkeypatch, budget, cores, lambda: emsd(q, targets))
        assert hexes(got) == hexes(reference)
        assert len(nodes) == 2 and hexes(*nodes[1]) == hexes(*nodes[0])

    @pytest.mark.parametrize("budget, cores", SETTINGS + [(100_001, 2)])
    @pytest.mark.parametrize("family", [Family.NORMAL, Family.GAMMA])
    def test_evidence(self, monkeypatch, budget, cores, family):
        # 100 data points: a budget of 100 001 leaves a last block of one row.
        data = Dataset(RngStream(11).uniforms(100) * 2.0 + 0.5)
        prior = default_priors(family, data)

        def evidence():
            return model_evidence(family, data, prior, 2001, RngStream(12))

        reference = evidence()
        assert hexes(*under(monkeypatch, budget, cores, evidence)) == hexes(*reference)


class TestPeakMemory:
    # Each bound is a fixed number of budgets, not a multiple of the rows.
    def test_mixture_logpdf_of_2000_components_on_two_cores(self, monkeypatch):
        # Fixed 1 024-point chunks held 2 000 x 1 024 doubles per row block
        # and work buffer, two chunks at a time: a 45 MB peak.
        monkeypatch.setattr(_threads, "_usable_cores", lambda: 2)
        q = mixture(four_families(500))
        x = RngStream(13).uniforms(5000) * 12.0 - 2.0
        assert q.n_components == 2000
        peak = traced_peak(lambda: q.logpdf(x))
        assert peak < 8 * _BLOCK_PAIRS * 8

    def test_model_evidence_on_1000_data_points(self):
        # 10 000 prior draws against 1 000 data points in one block peaked
        # at 160 MB.
        data = Dataset(RngStream(14).uniforms(1000) * 2.0 + 0.5)
        prior = default_priors(Family.GAMMA, data)
        peak = traced_peak(
            lambda: model_evidence(Family.GAMMA, data, prior, 10_000, RngStream(15))
        )
        assert peak < 4 * _BLOCK_PAIRS * 8
