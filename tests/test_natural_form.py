"""The natural form of the log densities (``distributions._natural_params``,
``_natural_stats`` and ``_natural_logpdf_into``), which the mixture log
density and the importance weights use, against the direct form
``distributions._logpdf_into``, which evidence, ``emsd`` and Metropolis use.

The two agree to 1e-12 of max(1, |log density|), with the same -inf and
NaN: at points outside a support, at ±inf and NaN, and for invalid
parameters.  The absolute error of the natural form grows with
((location - centre) / scale)² ulps, so each family's rows are centred on
their mean location, as ``MixtureDensity`` centres its components; rows
at 1e6 with scales near 1 then cancel no digits.
"""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from uqmc import Distribution, Family, RngStream
from uqmc.distributions import (
    _GEMM_MNK,
    _log_argument,
    _logpdf_into,
    _natural_logpdf_into,
    _natural_params,
    _natural_stats,
)
from uqmc.mmmc import CandidateModelSet, MixtureDensity, draw_propagation_samples, reweight

SPECIAL = [0.0, -0.0, -1.0, -1e-300, 1e-300, np.inf, -np.inf, np.nan]


def assert_forms_agree(got, ref):
    """The same -inf, +inf and NaN as ``ref``, and every finite value within
    1e-12 * max(1, |ref|)."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    finite = np.isfinite(ref)
    assert np.array_equal(got[~finite], ref[~finite], equal_nan=True)
    err = np.abs(got[finite] - ref[finite])
    assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(ref[finite]))), err.max()


def both_forms(family, a, b, x):
    """(natural, direct) log densities of rows (a, b) at points x, as
    (point, row) arrays; the natural rows are centred on their mean
    location, as a mixture centres its components."""
    a, b, x = (np.asarray(v, dtype=np.float64) for v in (a, b, x))
    lx, outside = _log_argument(x)
    located = family in (Family.NORMAL, Family.LOGNORMAL)
    centre = float(np.mean(a[np.isfinite(a)])) if located else 0.0
    shape = (x.size, a.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        stats = _natural_stats(family, x, lx, outside, centre, np.zeros(x.size))
        natural = _natural_logpdf_into(
            family, stats, _natural_params(family, a, b, centre), np.empty(shape), np.empty(shape)
        )
        direct = _logpdf_into(
            family, a, b, x[:, None], lx[:, None], outside[:, None],
            np.empty(shape), np.empty(shape),
        )
    return natural, direct


def grid(locations, scales):
    a, b = np.meshgrid(locations, scales)
    return a.ravel(), b.ravel()


# (family, locations or shapes, scales, points): locations within a few
# scales of each other, points out to 40 scales and into both tails.
CASES = {
    "normal": (Family.NORMAL, [-2.0, 0.0, 1.5], [0.3, 1.0, 3.0], np.linspace(-60.0, 60.0, 241)),
    "normal_at_1e6": (
        Family.NORMAL, 1e6 + np.array([-2.0, 0.0, 1.5]), [0.7, 1.0, 1.3],
        1e6 + np.linspace(-40.0, 40.0, 161),
    ),
    "lognormal": (Family.LOGNORMAL, [-1.0, 0.0, 0.8], [0.2, 0.6, 1.5], np.geomspace(1e-4, 1e4, 161)),
    "lognormal_at_300": (
        Family.LOGNORMAL, 300.0 + np.array([-2.0, 0.0, 1.5]), [0.7, 1.0, 1.3],
        np.exp(300.0 + np.linspace(-30.0, 30.0, 121)),
    ),
    "gamma": (Family.GAMMA, [0.3, 1.0, 2.5, 40.0], [0.01, 1.0, 50.0], np.geomspace(1e-5, 1e4, 181)),
    "weibull": (Family.WEIBULL, [0.5, 1.0, 2.0, 8.0], [0.01, 1.0, 30.0], np.geomspace(1e-5, 1e3, 161)),
}


class TestNaturalForm:
    @pytest.mark.parametrize("case", CASES)
    def test_agrees_with_the_direct_form(self, case):
        family, locations, scales, points = CASES[case]
        natural, direct = both_forms(family, *grid(locations, scales), np.append(points, SPECIAL))
        assert np.isfinite(direct).sum() > direct.size // 2
        assert_forms_agree(natural, direct)

    @pytest.mark.parametrize("family", [Family.NORMAL, Family.LOGNORMAL, Family.GAMMA, Family.WEIBULL])
    def test_invalid_parameters_give_minus_inf(self, family):
        a = np.array([1.0, 0.0, -2.0, 1.5, np.nan, 2.0])
        b = np.array([0.0, 1.0, 1.0, -1.0, 1.0, np.nan])
        if family in (Family.NORMAL, Family.LOGNORMAL):
            a[[1, 2, 4]] = [0.5, -0.5, 0.25]  # any finite location is valid
        x = np.append(np.linspace(0.1, 5.0, 11), SPECIAL)
        natural, direct = both_forms(family, a, b, x)
        invalid = ~(b > 0.0) | (~(a > 0.0) & family.positive_params[0])
        assert np.all(direct[:, invalid] == -np.inf)
        assert_forms_agree(natural, direct)

    def test_minus_inf_outside_the_support_and_nan_for_a_normal_at_nan(self):
        x = np.array(SPECIAL)
        for family in (Family.NORMAL, Family.LOGNORMAL, Family.GAMMA, Family.WEIBULL):
            natural, _ = both_forms(family, [1.0, 2.0], [1.0, 1.5], x)
            if family is Family.NORMAL:
                assert np.all(np.isneginf(natural[5:7])) and np.all(np.isnan(natural[7]))
                assert np.all(np.isfinite(natural[:5]))
            else:
                assert np.all(np.isneginf(natural[[0, 1, 2, 3, 5, 6, 7]]))
                assert np.all(np.isfinite(natural[4]))

    def test_mixture_with_uniform_rows(self):
        comps = (
            Distribution(Family.NORMAL, (1.0, 0.8)),
            Distribution(Family.UNIFORM, (-1.0, 2.0)),
            Distribution(Family.GAMMA, (2.0, 1.0)),
            Distribution(Family.UNIFORM, (0.5, 0.75)),
            Distribution(Family.WEIBULL, (1.5, 2.0)),
            Distribution(Family.UNIFORM, (-3.0, 10.0)),
        )
        q = MixtureDensity(comps, np.array([0.2, 0.1, 0.25, 0.05, 0.2, 0.2]))
        x = np.concatenate([np.linspace(-5.0, 12.0, 1701), [-1.0, 0.5, 0.75, 2.0, 10.0], SPECIAL])
        rows = [math.log(w) + c.logpdf(x) for w, c in zip(q.weights, comps)]
        with np.errstate(invalid="ignore"):
            ref = logsumexp(np.vstack(rows), axis=0)
        assert_forms_agree(q.logpdf(x), ref)


class TestMatmulBlocks:
    def test_values_do_not_depend_on_the_block(self):
        # One point or one row, alone, gives the bits it gets in a wide block.
        a, b = grid([-1.0, 0.0, 2.0], [0.5, 1.0, 2.0])
        x = np.linspace(-4.0, 4.0, 33)
        whole, _ = both_forms(Family.NORMAL, a, b, x)
        centre = float(np.mean(a))
        lx, outside = _log_argument(x)
        stats = _natural_stats(Family.NORMAL, x, lx, outside, centre, np.zeros(x.size))
        natural = _natural_params(Family.NORMAL, a, b, centre)
        for i in (0, 7, 32):
            for j in (0, 4, 8):
                one = np.empty((1, 1))
                _natural_logpdf_into(
                    Family.NORMAL, stats[i : i + 1], natural.columns(j, j + 1), one, np.empty((1, 1))
                )
                assert one[0, 0].hex() == whole[i, j].hex()

    def test_dgemm_calls_are_2_by_2_to_2_18_multiply_adds(self, monkeypatch):
        # gemv rounds differently from dgemm, and OpenBLAS starts threads of
        # its own above 2 ** 18 multiply-adds; a mixture of 2 000 components
        # and single points and candidates reach both edges.
        from uqmc import Model

        comps = [Distribution(Family.NORMAL, (1.0 + 0.001 * i, 0.5 + 0.001 * i)) for i in range(1999)]
        comps.append(Distribution(Family.GAMMA, (2.0, 1.0)))
        q = MixtureDensity(tuple(comps), np.ones(len(comps)))
        samples = draw_propagation_samples(Model("id", lambda x: x[:, 0], 1.0), q, 3000, RngStream(3))
        shapes = []
        matmul = np.matmul

        def recorded(a, b, out):
            shapes.append((a.shape[0], b.shape[1], a.shape[1]))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", recorded)
        q.logpdf(np.linspace(0.1, 3.0, 5000))
        q.logpdf(1.5)
        reweight(samples, CandidateModelSet(entries=tuple(comps[:70]) + (comps[-1],)))
        assert min(min(m, n) for m, n, _ in shapes) == 2
        assert max(m * n * k for m, n, k in shapes) <= _GEMM_MNK
        assert max(m * n * k for m, n, k in shapes) > _GEMM_MNK // 2
