import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from uqmc.distributions import (
    Dataset,
    Distribution,
    Family,
    data_in_support,
    distributions_of,
    log_likelihood,
    mle_fit,
    sample,
)
from uqmc.exceptions import (
    DegenerateDataError,
    InvalidParameterError,
    SupportError,
)
from uqmc.rng import RngStream

# One representative parameter grid per family, reused by the property tests.
GRID = {
    Family.NORMAL: [(0.0, 1.0), (-2.0, 0.5), (10.0, 3.0)],
    Family.LOGNORMAL: [(0.0, 1.0), (1.0, 0.25), (-1.0, 0.8)],
    Family.GAMMA: [(1.0, 1.0), (2.0, 3.0), (0.5, 2.0), (7.5, 0.4)],
    Family.WEIBULL: [(1.0, 1.0), (2.0, 1.5), (0.8, 3.0)],
    Family.UNIFORM: [(0.0, 1.0), (-3.0, 2.0), (5.0, 5.5)],
}


def all_dists():
    return [Distribution(fam, p) for fam, ps in GRID.items() for p in ps]


class TestDensity:
    def test_standard_normal_at_zero(self):
        # 1/sqrt(2*pi) to 10 places
        assert Distribution(Family.NORMAL, (0, 1)).pdf(0.0) == pytest.approx(
            0.3989422804014327, abs=1e-12
        )

    def test_lognormal_outside_support_is_zero(self):
        d = Distribution(Family.LOGNORMAL, (0.3, 1.2))
        assert d.pdf(-1.0) == 0.0
        assert d.logpdf(-1.0) == -math.inf

    def test_infinite_arguments_have_log_density_minus_inf(self):
        # At x = +inf, gamma and weibull would compute inf - inf = NaN unless
        # +inf counts as outside their support.  pyproject.toml turns any
        # RuntimeWarning into an error.
        x = np.array([np.inf, -np.inf])
        for d in all_dists():
            assert np.array_equal(d.logpdf(x), [-np.inf, -np.inf]), d

    def test_uniform_density_forced_by_normalization(self):
        assert Distribution(Family.UNIFORM, (0, 2)).pdf(1.0) == pytest.approx(0.5)

    def test_log_scale_matches_log_of_density(self):
        for d in all_dists():
            lo, hi = d.ppf(0.01), d.ppf(0.99)
            x = np.linspace(lo, hi, 101)
            p = d.pdf(x)
            mask = p > 0
            assert np.allclose(d.logpdf(x)[mask], np.log(p[mask]), rtol=1e-12)

    def test_normalization_by_quadrature(self):
        for d in all_dists():
            lo, hi = d.support()
            val, err = quad(lambda x: float(d.pdf(np.array([x]))[0]), lo, hi,
                            epsabs=1e-8, epsrel=1e-8, limit=200)
            assert val == pytest.approx(1.0, abs=1e-6), d


class TestSampling:
    def test_degenerate_uniform_rejected(self):
        with pytest.raises(InvalidParameterError):
            Distribution(Family.UNIFORM, (3.0, 3.0))

    def test_clt_bound_on_sample_mean(self):
        d = Distribution(Family.NORMAL, (0, 1))
        x = sample(d, RngStream(2024), 10**6)
        assert abs(x.mean()) < 3.0 / math.sqrt(10**6)

    def test_same_seed_identical(self):
        d = Distribution(Family.GAMMA, (2.0, 3.0))
        assert np.array_equal(sample(d, RngStream(5), 1000), sample(d, RngStream(5), 1000))

    def test_draws_within_support(self):
        for d in all_dists():
            x = sample(d, RngStream(8), 10_000)
            lo, hi = d.support()
            assert x.min() >= lo and x.max() <= hi

    def test_ks_statistic_below_critical(self):
        # 1% critical value for the Kolmogorov statistic is ~1.628/sqrt(n).
        n = 10**5
        crit = 1.628 / math.sqrt(n)
        for fam, ps in GRID.items():
            d = Distribution(fam, ps[-1])
            x = np.sort(sample(d, RngStream(list(Family).index(fam)), n))
            cdf = d.cdf(x)
            grid = np.arange(1, n + 1) / n
            ks = max(np.max(np.abs(cdf - grid)), np.max(np.abs(cdf - (grid - 1.0 / n))))
            assert ks < crit, fam


class TestLogLikelihood:
    def test_standard_normal_single_point(self):
        d = Distribution(Family.NORMAL, (0, 1))
        assert log_likelihood(d, Dataset([0.0])) == pytest.approx(
            -0.9189385332046727, abs=1e-12
        )

    def test_out_of_support_datum(self):
        d = Distribution(Family.LOGNORMAL, (0, 1))
        assert log_likelihood(d, Dataset([-1.0])) == -math.inf

    def test_additivity(self):
        d = Distribution(Family.WEIBULL, (2.0, 1.5))
        d1, d2 = [0.5, 1.5, 2.5], [0.1, 3.0]
        assert log_likelihood(d, Dataset(d1 + d2)) == pytest.approx(
            log_likelihood(d, Dataset(d1)) + log_likelihood(d, Dataset(d2)), rel=1e-14
        )


class TestMleFit:
    def test_normal_closed_form_divide_by_n(self):
        dist, ll = mle_fit(Family.NORMAL, Dataset([0.0, 2.0]))
        assert dist.params == pytest.approx((1.0, 1.0))
        assert ll == pytest.approx(log_likelihood(dist, Dataset([0.0, 2.0])))

    def test_out_of_support_data(self):
        with pytest.raises(SupportError):
            mle_fit(Family.LOGNORMAL, Dataset([0.5, -1.0]))

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            mle_fit(Family.NORMAL, Dataset([1.0, 1.0, 1.0]))

    def test_gamma_consistency(self):
        truth = Distribution(Family.GAMMA, (2.0, 3.0))
        x = sample(truth, RngStream(77), 10**5)
        dist, _ = mle_fit(Family.GAMMA, Dataset(x))
        assert dist.params[0] == pytest.approx(2.0, rel=0.05)
        assert dist.params[1] == pytest.approx(3.0, rel=0.05)

    def test_weibull_consistency(self):
        truth = Distribution(Family.WEIBULL, (1.7, 2.5))
        x = sample(truth, RngStream(78), 10**5)
        dist, _ = mle_fit(Family.WEIBULL, Dataset(x))
        assert dist.params[0] == pytest.approx(1.7, rel=0.05)
        assert dist.params[1] == pytest.approx(2.5, rel=0.05)

    @pytest.mark.parametrize("fam", list(Family))
    def test_stationary_point(self, fam):
        gen = RngStream(31).split(list(Family).index(fam))
        params = {
            Family.NORMAL: (1.0, 2.0),
            Family.LOGNORMAL: (0.5, 0.7),
            Family.GAMMA: (3.0, 1.5),
            Family.WEIBULL: (1.8, 2.2),
            Family.UNIFORM: (-1.0, 4.0),
        }[fam]
        base = Distribution(fam, params)
        data = Dataset(sample(base, gen, 500))
        dist, ll = mle_fit(fam, data)
        if fam is Family.UNIFORM:
            # Boundary MLE: likelihood decreases in the interior, no gradient test.
            assert dist.params == (data.values.min(), data.values.max())
            return
        # Central finite-difference gradient, relative to the scale of ll.
        theta = np.array(dist.params)
        for j in range(2):
            h = 1e-6 * max(abs(theta[j]), 1e-3)
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            g = (
                log_likelihood(Distribution(fam, tuple(up)), data)
                - log_likelihood(Distribution(fam, tuple(dn)), data)
            ) / (2 * h)
            assert abs(g) / max(abs(ll), 1.0) < 1e-6, (fam, j, g)


class TestSerialization:
    def test_round_trip(self):
        for d in all_dists():
            assert Distribution.from_json(d.to_json()) == d

    def test_bad_object(self):
        with pytest.raises(InvalidParameterError):
            Distribution.from_json({"family": "cauchy", "params": [0, 1]})


class TestDistributionsOf:
    """``distributions_of`` validates a family's parameter rows as one array
    and builds what ``Distribution`` would, row by row."""

    @pytest.mark.parametrize("fam", list(Family), ids=lambda f: f.value)
    def test_equals_row_wise_construction(self, fam):
        rows = np.array(GRID[fam] * 3) * np.linspace(1.0, 1.5, 3 * len(GRID[fam]))[:, None]
        made = distributions_of(fam, rows)
        ref = [Distribution(fam, tuple(r)) for r in rows]
        assert made == ref
        assert [hash(d) for d in made] == [hash(d) for d in ref]
        for d in made:
            assert d.family is fam
            assert type(d.params) is tuple and [type(v) for v in d.params] == [float, float]
        assert distributions_of(fam.value, rows[:1]) == ref[:1]
        assert distributions_of(fam, np.empty((0, 2))) == []

    @pytest.mark.parametrize(
        "fam, bad",
        [
            (Family.NORMAL, (0.0, math.inf)),
            (Family.NORMAL, (math.nan, 1.0)),
            (Family.NORMAL, (0.0, 0.0)),
            (Family.LOGNORMAL, (0.0, -1.0)),
            (Family.GAMMA, (-1.0, 1.0)),
            (Family.GAMMA, (1.0, 0.0)),
            (Family.WEIBULL, (0.0, 1.0)),
            (Family.UNIFORM, (1.0, 1.0)),
            (Family.UNIFORM, (2.0, 1.0)),
            (Family.UNIFORM, (-math.inf, 1.0)),
        ],
    )
    def test_first_bad_row_raises_row_wise_error(self, fam, bad):
        good = GRID[fam][0]
        later_bad = (math.nan, math.nan)  # raises "must be finite" if it were first
        rows = np.array([good, good, bad, good, later_bad])
        with pytest.raises(InvalidParameterError) as expected:
            [Distribution(fam, tuple(r)) for r in rows]
        with pytest.raises(InvalidParameterError) as got:
            distributions_of(fam, rows)
        assert str(got.value) == str(expected.value)

    def test_wrong_row_length_raises_row_wise_error(self):
        with pytest.raises(InvalidParameterError, match="normal takes 2 parameters"):
            distributions_of(Family.NORMAL, np.ones((3, 3)))


class TestDataset:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InvalidParameterError):
            Dataset([])
        with pytest.raises(InvalidParameterError):
            Dataset([1.0, math.nan])

    def test_csv_with_comments(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("# header\n1.5\n2.5  # trailing\n\n3.5\n")
        assert np.array_equal(Dataset.from_csv(p).values, [1.5, 2.5, 3.5])

    def test_support_check(self):
        assert data_in_support(Family.NORMAL, Dataset([-1.0, 2.0]))
        assert not data_in_support(Family.GAMMA, Dataset([-1.0, 2.0]))


@settings(max_examples=50, deadline=None)
@given(
    mu=st.floats(-5, 5),
    sigma=st.floats(0.1, 4.0),
    x=st.floats(-20, 20),
)
def test_normal_logpdf_consistency_property(mu, sigma, x):
    d = Distribution(Family.NORMAL, (mu, sigma))
    assert float(d.logpdf(x)) == pytest.approx(
        -0.5 * ((x - mu) / sigma) ** 2 - math.log(sigma) - 0.5 * math.log(2 * math.pi),
        rel=1e-12, abs=1e-12,
    )
