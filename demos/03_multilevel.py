"""Multilevel Monte Carlo on an Euler-discretized geometric Brownian motion.

Level l uses 2^l time steps at cost 2^l; coupled corrections between
adjacent levels share the same Brownian increments, so their variance
shrinks with level and nearly all samples land on cheap coarse levels.
The adaptive loop grows the level set until the extrapolated remaining
bias is below the target, sizing each new level from a variance
extrapolated with the fitted decay rate beta.
"""

import numpy as np

from uqmc import CostLedger, RngStream, builtin_problem, mlmc_estimate
from uqmc.mc import draw_inputs
from uqmc.models import evaluate

problem = builtin_problem("gbm_euler", {"r": 1.0, "sigma": 0.25, "max_level": 10})
truth = problem.truth["mean"]
eps = 0.01

ledger = CostLedger()
result = mlmc_estimate(problem.hierarchy, eps, RngStream(seed=3), ledger=ledger)

print(f"target accuracy eps = {eps}, analytic mean = {truth:.5f}")
print(f"estimate = {result.report.estimate:.5f}  "
      f"(error {abs(result.report.estimate - truth):.5f})")
diag = result.report.diagnostics
print(f"fitted decay exponents: means alpha = {diag['alpha_hat']:.2f}, "
      f"variances beta = {diag['beta_hat']:.2f}; "
      f"remaining bias estimate {diag['bias_estimate']:.5f}")
print("\nper-level breakdown:")
print(f"  {'level':>5} {'mean':>12} {'variance':>12} {'cost':>8} {'n':>8}")
for s in result.levels:
    print(f"  {s.level:>5} {s.mean:>12.6f} {s.variance:>12.2e} {s.cost:>8.0f} {s.n:>8}")

mlmc_cost = ledger.total()
top = result.levels[-1].level
fine = problem.hierarchy.levels[top]
x = draw_inputs(problem.hierarchy.input, RngStream(seed=99), 20_000, fine.input_dim)
zeta_sq = float(np.var(evaluate(fine, x), ddof=1))
plain_cost = zeta_sq / eps**2 * fine.cost_per_eval
print(f"\nmultilevel cost: {mlmc_cost:,.0f} work units")
print(f"plain MC at the finest level for the same eps: {plain_cost:,.0f} work units")
print(f"savings factor: {plain_cost / mlmc_cost:.1f}x")
