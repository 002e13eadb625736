"""The mmmc proposal is the run's own candidate ensemble.

On both mmmc demo configs the mixture's components are the distinct
candidates, weighted by multiplicity over T, so no candidate's importance
weight exceeds T over its multiplicity; a binding ``max_components`` keeps
at most that many components per family, and each family's share.
"""

import json
from collections import Counter

import numpy as np
import pytest

from uqmc import cli
from uqmc.cli import run_config, validate_config
from uqmc.mmmc import propagate

from test_cli import DEMO_CONFIGS

MMMC_DEMOS = [p for p in DEMO_CONFIGS if json.loads(p.read_text())["method"] == "mmmc"]


def demo_run(monkeypatch, tmp_path, path, **overrides):
    """The ``MultimodelRun`` behind ``uqmc run`` of a demo config."""
    runs = []
    real = cli.run_multimodel

    def kept(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "run_multimodel", kept)
    cfg = validate_config(json.dumps(json.loads(path.read_text()) | overrides))
    _, code = run_config(cfg, tmp_path)
    assert code == 0
    (run,) = runs
    return run


def largest_weights(run, distinct):
    """Each of ``distinct``'s largest importance weight at the run's draws,
    from ``reweight``'s own weight blocks."""
    weights = propagate._WeightPass(run.samples, distinct)
    top = np.zeros(len(distinct))
    for lo in range(0, run.samples.n, propagate._CHUNK):
        for rows, lw, _ in weights.blocks(lo):
            top[rows] = np.maximum(top[rows], np.exp(lw.max(axis=1)))
    return top


def test_demo_configs_found():
    assert sorted(p.stem for p in MMMC_DEMOS) == ["mmmc_bayes", "mmmc_smalldata"]


@pytest.mark.parametrize("path", MMMC_DEMOS, ids=lambda p: p.stem)
class TestDemoProposal:
    def test_components_are_the_distinct_candidates(self, monkeypatch, tmp_path, path):
        run = demo_run(monkeypatch, tmp_path, path)
        counts = Counter(run.candidates.entries)
        T = run.candidates.size
        families = list(dict.fromkeys(d.family for d in counts))
        expected = [d for fam in families for d in counts if d.family is fam]
        assert run.mixture.components == tuple(expected)
        np.testing.assert_array_equal(run.mixture.weights, [counts[d] / T for d in expected])
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["mixture_components"] == meta["distinct_candidates"] == len(counts)

    def test_weights_bounded_by_t_over_multiplicity(self, monkeypatch, tmp_path, path):
        run = demo_run(monkeypatch, tmp_path, path)
        counts = Counter(run.candidates.entries)
        distinct = list(counts)
        bound = run.candidates.size / np.array([counts[d] for d in distinct])
        top = largest_weights(run, distinct)
        # p / q <= p / (w_j p) = 1 / w_j, up to the rounding of the two
        # natural-form log densities (about 1e-12 of |log p|).
        assert np.all(top <= bound * (1.0 + 1e-9)), np.max(top / bound)
        assert np.all(top > 0.0)

    def test_binding_cap_keeps_family_shares(self, monkeypatch, tmp_path, path):
        cap = 3
        run = demo_run(monkeypatch, tmp_path, path, max_components=cap)
        counts = Counter(run.candidates.entries)
        T = run.candidates.size
        fams = Counter(d.family for d in run.candidates.entries)
        distinct = Counter(d.family for d in counts)
        assert max(distinct.values()) > cap  # the cap binds
        kept = Counter(c.family for c in run.mixture.components)
        assert kept == {f: min(k, cap) for f, k in distinct.items()}
        for fam, n_f in fams.items():
            mine = [i for i, c in enumerate(run.mixture.components) if c.family is fam]
            share = run.mixture.weights[mine]
            assert share.sum() == pytest.approx(n_f / T, rel=1e-14)
            # The kept candidates split the share by multiplicity.
            mult = np.array([counts[run.mixture.components[i]] for i in mine])
            np.testing.assert_allclose(share, mult / mult.sum() * n_f / T, rtol=1e-14)
