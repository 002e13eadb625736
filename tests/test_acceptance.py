"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance is fixed here; nothing is calibrated at run time.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from uqmc import (
    ControlVariateConfig,
    CostLedger,
    RngStream,
    builtin_problem,
    cv_estimate,
    mc_estimate,
    mfmc_estimate,
    mlmc_allocation,
    mlmc_estimate,
    pilot_statistics,
    validate_ordering,
)
from uqmc.cli import main as cli_main
from uqmc.mc import draw_inputs
from uqmc.mfmc import PilotStats, estimator_variance, mfmc_plan, variance_ratio
from uqmc.mlmc import LevelStats
from uqmc.mmmc import (
    MixtureDensity,
    candidate_set_from_posteriors,
    emsd,
    mixture_normalization,
    optimal_mixture,
    PointMassPrior,
    UniformPrior,
    posterior_sample,
    McmcOptions,
    run_multimodel,
)
from uqmc.models import evaluate

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "demos" / "configs"


def _criterion(num: int, desc: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE {num:02d}] {status} - {desc} ({detail})")
    assert ok, f"criterion {num}: {desc}: {detail}"


def test_01_mc_convergence_rate():
    problem = builtin_problem("quadratic")
    sizes = [100, 1_000, 10_000, 100_000]
    reps = 200
    rmse = []
    for n in sizes:
        errs = np.array([
            mc_estimate(problem.model, problem.input, n, RngStream(383 * n + r)).estimate - 1.0
            for r in range(reps)
        ])
        rmse.append(math.sqrt(float(np.mean(errs**2))))
    slope = float(np.polyfit(np.log10(sizes), np.log10(rmse), 1)[0])
    _criterion(
        1, "MC RMSE decays like n^(-1/2)",
        -0.6 <= slope <= -0.4,
        f"log-log slope {slope:.3f} in [-0.6, -0.4]",
    )


def test_02_variance_estimator_unbiased():
    problem = builtin_problem("quadratic")
    reps, n = 2000, 10
    zetas = np.array([
        mc_estimate(problem.model, problem.input, n, RngStream(60_000 + r)).diagnostics["zeta_sq"]
        for r in range(reps)
    ])
    se = zetas.std(ddof=1) / math.sqrt(reps)
    dev = abs(zetas.mean() - 2.0)
    _criterion(
        2, "sampling-variance estimator is unbiased",
        dev < 3 * se,
        f"|mean - 2| = {dev:.4f} vs 3*SE = {3 * se:.4f}",
    )


def test_03_control_variates_variance_ratio():
    problem = builtin_problem("poly_fidelity")
    model = problem.ensemble.lows[0]  # x + 0.1 x^2
    control = problem.ensemble.lows[1]  # x, known mean 0
    cfg = ControlVariateConfig(control=control, control_mean=0.0, coef="auto", pilot_n=200)
    reps, n = 1000, 1000
    cv_vals = np.empty(reps)
    mc_vals = np.empty(reps)
    for r in range(reps):
        rng = RngStream(70_000 + r)
        cv_vals[r] = cv_estimate(model, problem.input, cfg, n, rng).estimate
        mc_vals[r] = mc_estimate(model, problem.input, n, rng).estimate
    ratio = float(np.var(cv_vals, ddof=1) / np.var(mc_vals, ddof=1))
    target = 1.0 - 1.0 / 1.02
    rel = abs(ratio / target - 1.0)
    _criterion(
        3, "control variates hit the 1 - rho^2 variance ratio",
        rel <= 0.25,
        f"ratio {ratio:.5f} vs analytic {target:.5f}, rel dev {rel:.1%} <= 25%",
    )


def test_04_mlmc_correctness_and_savings():
    eps = 1e-2
    problem = builtin_problem("gbm_euler", {"r": 1.0, "sigma": 0.25, "max_level": 10})
    truth = problem.truth["mean"]
    reps = 100
    costs = np.empty(reps)
    ests = np.empty(reps)
    top = 0
    for r in range(reps):
        ledger = CostLedger()
        res = mlmc_estimate(problem.hierarchy, eps, RngStream(5_000 + r), ledger=ledger)
        costs[r] = ledger.total()
        ests[r] = res.report.estimate
        top = max(top, res.levels[-1].level)
    err = abs(float(ests.mean()) - truth)
    fine = problem.hierarchy.levels[top]
    x = draw_inputs(problem.hierarchy.input, RngStream(999), 20_000, fine.input_dim)
    zeta_sq = float(np.var(evaluate(fine, x), ddof=1))
    plain_cost = zeta_sq / eps**2 * fine.cost_per_eval
    ratio = float(costs.mean()) / plain_cost
    _criterion(
        4, "MLMC is correct and at least 5x cheaper than single-level MC",
        err <= eps and ratio <= 0.2,
        f"replication-mean error {err:.4f} <= {eps}; "
        f"cost ratio {ratio:.3f} <= 0.2 (L={top})",
    )


def _integer_allocation_oracle(v, c, eps):
    """Exhaustive integer search in a window around the continuous optimum."""
    xi = sum(math.sqrt(a * b) for a, b in zip(v, c)) / eps**2
    centers = [xi * math.sqrt(a / b) for a, b in zip(v, c)]
    pad = 4
    while True:
        axes = [np.arange(max(1, int(m) - pad), int(m) + pad + 2) for m in centers]
        grids = np.meshgrid(*axes, indexing="ij")
        ns = np.stack([g.ravel() for g in grids], axis=1).astype(float)
        cost = ns @ np.asarray(c)
        var = (np.asarray(v) / ns).sum(axis=1)
        feas = var <= eps**2
        if not np.any(feas):
            pad *= 2
            continue
        best_idx = np.argmin(np.where(feas, cost, np.inf))
        best_n = ns[best_idx]
        on_edge = any(
            bn in (ax[0], ax[-1]) and ax[0] > 1 for bn, ax in zip(best_n, axes)
        )
        if on_edge:
            pad *= 2
            continue
        return float(cost[best_idx])


def test_05_mlmc_allocation_optimality():
    gen = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(100):
        levels = int(gen.integers(2, 5))  # L <= 3
        v = gen.uniform(0.05, 5.0, size=levels)
        c = np.cumprod(gen.uniform(1.5, 6.0, size=levels)) * gen.uniform(0.5, 2.0)
        # Scale eps so the smallest continuous count is >= 150 and integer
        # effects stay inside the 1% band.
        xi_target = 150.0 / min(math.sqrt(a / b) for a, b in zip(v, c))
        eps = math.sqrt(sum(math.sqrt(a * b) for a, b in zip(v, c)) / xi_target)
        stats = [
            LevelStats(level=l, mean=0.0, variance=float(v[l]), cost=float(c[l]), n=10)
            for l in range(levels)
        ]
        plan = mlmc_allocation(stats, eps)
        oracle = _integer_allocation_oracle(list(v), list(c), eps)
        worst = max(worst, plan.predicted_cost / oracle - 1.0)
    _criterion(
        5, "MLMC allocation within 1% of the integer optimum",
        worst <= 0.01,
        f"worst excess over 100 random instances: {worst:.3%}",
    )


def _random_valid_stats(gen):
    while True:
        k = int(gen.integers(1, 4))
        rho = np.sort(gen.uniform(0.05, 0.999, size=k))[::-1]
        costs = np.sort(gen.uniform(1e-4, 0.5, size=k))[::-1]
        sigma = gen.uniform(0.5, 2.0, size=k)
        stats = PilotStats(
            sigma_hi=float(gen.uniform(0.5, 2.0)),
            sigma_lo=tuple(sigma),
            rho=tuple(rho) + (0.0,),
            cost_hi=1.0,
            cost_lo=tuple(costs),
            low_ids=tuple(f"lo{i}" for i in range(k)),
        )
        valid = validate_ordering(stats)
        if valid.k == k and "perfect_surrogate" not in valid.flags:
            return valid


def test_06_mfmc_closed_form_vs_optimizer():
    gen = np.random.default_rng(314)
    worst_gap = 0.0
    worst_chi = 0.0
    for _ in range(100):
        stats = _random_valid_stats(gen)
        budget = float(gen.uniform(100, 5000))
        plan = mfmc_plan(stats, budget)
        var_plan = estimator_variance(stats, np.array(plan.n_real), np.array(plan.beta))

        # chi consistency: formula vs variance formula at the real optimum.
        var_mc = stats.sigma_hi**2 / (budget / stats.cost_hi)
        worst_chi = max(worst_chi, abs(plan.chi / (var_plan / var_mc) - 1.0))

        # Dense numerical search over count ratios (beta optimal in closed
        # form given counts, variance decreasing in counts => budget binds).
        ratios = np.geomspace(1.0, 400.0, 60)
        grids = np.meshgrid(*([ratios] * stats.k), indexing="ij")
        t = np.cumprod(np.stack([g.ravel() for g in grids], axis=1), axis=1)
        tfull = np.concatenate([np.ones((t.shape[0], 1)), t], axis=1)
        cvec = np.array([stats.cost_hi] + list(stats.cost_lo))
        n0 = budget / (tfull @ cvec)
        n = n0[:, None] * tfull
        beta = np.array(
            [stats.rho[i] * stats.sigma_hi / stats.sigma_lo[i] for i in range(stats.k)]
        )
        var = stats.sigma_hi**2 / n[:, 0]
        for i in range(stats.k):
            gap = 1.0 / n[:, i] - 1.0 / n[:, i + 1]
            var += gap * (
                beta[i] ** 2 * stats.sigma_lo[i] ** 2
                - 2.0 * beta[i] * stats.rho[i] * stats.sigma_hi * stats.sigma_lo[i]
            )
        worst_gap = max(worst_gap, var_plan / float(var.min()) - 1.0)
    _criterion(
        6, "MFMC closed form matches the numerical optimum",
        worst_gap <= 0.01 and worst_chi <= 1e-10,
        f"worst objective excess {worst_gap:.2e} <= 1%; "
        f"worst chi mismatch {worst_chi:.2e} <= 1e-10",
    )


def test_07_mfmc_empirical_speedup():
    problem = builtin_problem("poly_fidelity")
    stats = validate_ordering(
        pilot_statistics(problem.ensemble, problem.input, 200_000, RngStream(888))
    )
    chi_plan = variance_ratio(stats)

    reps = 500
    mf = np.empty(reps)
    for r in range(reps):
        rep, _ = mfmc_estimate(
            problem.ensemble, problem.input, 1e4, RngStream(20_000 + r), n_pilot=200
        )
        mf[r] = rep.estimate
    base_reps = 4000
    mc = np.array([
        mc_estimate(problem.ensemble.high, problem.input, 10_000, RngStream(90_000 + r)).estimate
        for r in range(base_reps)
    ])
    se = mf.std(ddof=1) / math.sqrt(reps)
    bias = abs(float(mf.mean()) - 0.1)
    ratio = float(np.var(mf, ddof=1) / np.var(mc, ddof=1))
    rel = abs(ratio / chi_plan - 1.0)
    _criterion(
        7, "MFMC empirical variance matches the planned ratio",
        bias < 3 * se and rel <= 0.15,
        f"|bias| {bias:.5f} < 3*SE {3 * se:.5f}; "
        f"ratio {ratio:.5f} vs planned {chi_plan:.5f} (dev {rel:.1%} <= 15%)",
    )


@pytest.fixture(scope="module")
def smalldata_posteriors():
    problem = builtin_problem("smalldata_demo")
    from uqmc.mmmc import aic_weights, default_priors

    data = problem.dataset
    probabilities = aic_weights(
        ["normal", "lognormal", "gamma", "weibull"], data
    )
    posteriors = {}
    for i, fam in enumerate(probabilities.families):
        posteriors[fam] = posterior_sample(
            fam, data, default_priors(fam, data),
            McmcOptions(burn_in=2000, keep=500, thin=2), RngStream(400 + i),
        )
    return probabilities, posteriors


def test_08_mmmc_mixture_normalization_and_optimality(smalldata_posteriors):
    probabilities, posteriors = smalldata_posteriors
    q_star = optimal_mixture(probabilities, posteriors, mode="equal",
                             max_components_per_family=10)
    norm = mixture_normalization(q_star)
    norm_ok = abs(norm - 1.0) <= 1e-6

    targets = candidate_set_from_posteriors(posteriors, max_per_family=10)
    base = emsd(q_star, targets)
    gen = np.random.default_rng(99)
    beaten = 0
    for _ in range(50):
        w = q_star.weights * gen.uniform(0.9, 1.1, size=q_star.n_components)
        perturbed = MixtureDensity(q_star.components, w / w.sum())
        if emsd(perturbed, targets) > base:
            beaten += 1
    _criterion(
        8, "optimal mixture integrates to 1 and minimizes the ensemble MSD",
        norm_ok and beaten == 50,
        f"quadrature norm {norm:.8f} within 1e-6; beat {beaten}/50 perturbations",
    )


def test_09_mmmc_single_loop_equivalence():
    problem = builtin_problem("smalldata_demo")
    ledger = CostLedger()
    run = run_multimodel(
        problem.model, problem.dataset, inference="aic",
        ensemble_size=100, n=5000, rng=RngStream(31), ledger=ledger,
    )
    evals = ledger.count(problem.model.id)
    eval_ok = evals == 5000

    gen = np.random.default_rng(123)
    picks = gen.choice(run.candidates.size, size=10, replace=False)
    worst = 0.0
    for j in picks:
        target = run.candidates.entries[int(j)]
        w = np.exp(target.logpdf(run.samples.x) - run.samples.log_q)
        wy = w * run.samples.y
        s_is = run.report.estimates[int(j)]
        se_is = math.sqrt(float(np.mean((wy - s_is) ** 2)) / run.samples.n)
        direct = mc_estimate(problem.model, target, 5000, RngStream(777_000 + int(j)))
        combined = math.hypot(se_is, direct.std_error)
        worst = max(worst, abs(s_is - direct.estimate) / combined)
    _criterion(
        9, "single-loop reweighting matches per-target direct MC",
        eval_ok and worst < 3.0,
        f"model evaluations {evals} == n (T=100); worst |z| {worst:.2f} < 3",
    )


def test_10_mcmc_conjugate_check():
    data_values = [-0.5, 0.3, 1.2, -1.1, 0.8, 0.1, 2.0, -0.3, 0.6, -0.9]
    from uqmc import Dataset, Family

    data = Dataset(data_values)
    prior = [UniformPrior(-50.0, 50.0), PointMassPrior(1.0)]
    post = posterior_sample(Family.NORMAL, data, prior, McmcOptions(), RngStream(55))
    mu = post.samples[:, 0]
    ess = post.diagnostics["ess_bulk"]["mu"]
    se = 1.0 / math.sqrt(data.n * ess)
    dev = abs(float(mu.mean()) - float(np.mean(data_values)))
    acc_ok = 0.2 <= post.acceptance_rate <= 0.5
    _criterion(
        10, "MCMC recovers the conjugate normal-mean posterior",
        dev < 3 * se and acc_ok,
        f"|chain mean - xbar| {dev:.4f} < {3 * se:.4f} (ESS {ess:.0f}); "
        f"acceptance {post.acceptance_rate:.2f} in [0.2, 0.5]",
    )


def test_11_cli_determinism(tmp_path):
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert configs, "no shipped demo configs found"
    all_ok = True
    details = []
    for cfg in configs:
        out = {}
        for tag in ("a", "b"):
            dest = tmp_path / cfg.stem / tag
            code = cli_main(["run", str(cfg), "--out", str(dest)])
            assert code == 0, f"{cfg.name} exited {code}"
            out[tag] = dest / "report.json"
        rerun_ok = out["a"].read_bytes() == out["b"].read_bytes()
        all_ok &= rerun_ok
        details.append(f"{cfg.stem}:{'ok' if rerun_ok else 'MISMATCH'}")
    _criterion(
        11, "CLI reports are byte-identical across reruns",
        all_ok,
        "; ".join(details),
    )
