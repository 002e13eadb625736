"""Multimodel Monte Carlo from a 10-point dataset.

With only ten observations, no single distribution family is credible.
The pipeline weights candidate families by AIC, samples each family's
parameter posterior by MCMC, draws a representative ensemble of input
models, and propagates all of them through the computational model with
ONE set of model evaluations: samples come from the optimal mixture
density, the average of the candidate models themselves, and every
candidate is served by importance reweighting.
"""

import numpy as np

from uqmc import CostLedger, RngStream, builtin_problem, mc_estimate
from uqmc.mmmc import run_multimodel

problem = builtin_problem("smalldata_demo")
data = problem.dataset
print(f"dataset ({data.n} points): {np.round(data.values, 2).tolist()}")

ledger = CostLedger()
run = run_multimodel(
    problem.model,
    data,
    inference="aic",
    ensemble_size=100,
    n=5000,
    rng=RngStream(seed=6),
    ledger=ledger,
)

print("\nmodel probabilities (AIC):")
for fam, p in run.probabilities.as_dict().items():
    print(f"  {fam.value:<10} {p:.4f}")

print(f"\nmixture sampling density: {run.mixture.n_components} components")
print(f"model evaluations used: {ledger.count(problem.model.id)} "
      f"(one per sample, for all {run.candidates.size} candidate models)")

print("\nspread of the candidate-ensemble estimates of E[output]:")
for k, v in run.report.quantiles.items():
    print(f"  {k:>4} {v:12.4f}")

j = int(np.argsort(run.report.estimates)[len(run.report.estimates) // 2])
target = run.candidates.entries[j]
direct = mc_estimate(problem.model, target, 5000, RngStream(seed=7))
print(f"\nspot check, median candidate ({target.family.value}, "
      f"params {np.round(target.params, 3).tolist()}):")
print(f"  reweighted estimate: {run.report.estimates[j]:.4f}")
print(f"  dedicated direct MC: {direct.estimate:.4f} +- {direct.std_error:.4f}")
print("\nthe direct run cost another 5000 evaluations for ONE candidate;")
print("reweighting served all 100 candidates from the shared 5000.")
