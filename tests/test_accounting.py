"""Every estimator reports the ledger it charged: ``n_per_model`` is the
ledger's counts, ``total_cost`` its total, and its phases are the ones the
method names."""

import time

import pytest

from uqmc import (
    ControlVariateConfig,
    CostLedger,
    Distribution,
    Family,
    Model,
    RngStream,
    builtin_problem,
    cv_estimate,
    mc_estimate,
    mfmc_estimate,
    mlmc_estimate,
    two_level_estimate,
)
from uqmc.mmmc import McmcOptions, is_estimate, run_multimodel


def _mc(ledger):
    r = mc_estimate(builtin_problem("quadratic").model, Distribution(Family.NORMAL, (0, 1)),
                    300, RngStream(1), ledger)
    return r, {"quadratic": 300}


def _cv(ledger):
    b = builtin_problem("poly_fidelity")
    cfg = ControlVariateConfig(b.ensemble.lows[0], 0.1, pilot_n=40)
    r = cv_estimate(b.ensemble.high, b.input, cfg, 300, RngStream(2), ledger)
    return r, {"poly_hi": 340, "poly_lo1": 340}


def _two_level(ledger):
    h = builtin_problem("gbm_euler").hierarchy
    r = two_level_estimate(h.levels[0], h.levels[1], h.input, 2000.0, RngStream(3), ledger,
                           pilot_n=30, coarsen=h.coarsen)
    n0, n1 = r.diagnostics["n0"], r.diagnostics["n1"]
    return r, {"gbm_l0": 30 + n0 + n1, "gbm_l1": 30 + n1}


def _mlmc(ledger):
    res = mlmc_estimate(builtin_problem("gbm_euler").hierarchy, 0.1, RngStream(4),
                        initial_samples=20, ledger=ledger)
    counts = {}
    for s in res.levels:  # level l draws gbm_l{l} and, above 0, gbm_l{l-1}
        for lv in {s.level, max(s.level - 1, 0)}:
            counts[f"gbm_l{lv}"] = counts.get(f"gbm_l{lv}", 0) + s.n
    return res.report, counts


def _mfmc(ledger):
    b = builtin_problem("poly_fidelity")
    r, plan = mfmc_estimate(b.ensemble, b.input, 2000.0, RngStream(5), n_pilot=20,
                            ledger=ledger)
    kept = dict(zip(["poly_hi", *r.diagnostics["low_order"]], plan.n))
    return r, {m.id: 20 + kept.get(m.id, 0) for m in b.ensemble.all_models}


def _is(ledger):
    sq = Model("sq", lambda x: x[:, 0] ** 2, 2.0)
    n01, wide = Distribution(Family.NORMAL, (0, 1)), Distribution(Family.NORMAL, (0, 1.5))
    return is_estimate(sq, n01, wide, 400, RngStream(6), ledger), {"sq": 400}


def _mmmc(ledger):
    b = builtin_problem("smalldata_demo")
    run = run_multimodel(b.model, b.dataset, ensemble_size=10, n=400,
                         mcmc=McmcOptions(burn_in=100, keep=20, thin=2), rng=RngStream(7),
                         ledger=ledger)
    # A multimodel report has one model and so no n_per_model; n is its count.
    return run.report, {"smalldata_exp": run.report.n}


@pytest.mark.parametrize(
    "run, phases",
    [
        (_mc, set()),
        (_cv, set()),
        (_two_level, set()),
        (_mlmc, {"pilot", "rounds"}),
        (_mfmc, {"pilot", "main"}),
        (_is, set()),
        (_mmmc, {"inference", "mcmc", "candidates_mixture", "draw", "reweight"}),
    ],
    ids=["mc", "cv", "two_level", "mlmc", "mfmc", "is_estimate", "run_multimodel"],
)
def test_report_is_the_ledgers_account(run, phases):
    ledger = CostLedger()
    report, counts = run(ledger)
    assert getattr(report, "n_per_model", counts) == ledger.counts == counts
    assert report.total_cost == ledger.total() > 0.0
    assert set(ledger.phase_s) == phases
    assert all(isinstance(s, float) and s >= 0.0 for s in ledger.phase_s.values())
    assert set(ledger.as_dict()) == {"counts", "work", "total"}  # no seconds


def test_phase_stores_the_wall_seconds_of_its_body():
    ledger = CostLedger()
    with ledger.phase("nap"):
        time.sleep(0.01)
    assert 0.01 <= ledger.phase_s["nap"] < 1.0
    assert ledger.as_dict() == {"counts": {}, "work": {}, "total": 0.0}
