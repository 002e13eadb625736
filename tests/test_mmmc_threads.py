"""The mixture density and candidate reweighting give the same values and
raise the same errors on any number of threads.

The usable-core count is forced to 1 or 2, so the threaded path runs on a
one-core machine too.  Inputs exceed ``_EVAL_CHUNK`` (component or
candidate) x sample pairs, below which both passes stay on the caller.
"""

import hashlib
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uqmc import Distribution, Family, Model, RngStream
from uqmc.cli import run_config, validate_config
from uqmc.distributions import _EVAL_CHUNK, _block_len
from uqmc.exceptions import EstimatorError
from uqmc.mmmc import (
    CandidateModelSet,
    MixtureDensity,
    draw_propagation_samples,
    propagate,
    reweight,
)
from uqmc import _threads, distributions

from test_cli import DEMO_CONFIGS, DEMO_DIGESTS

SQUARE = Model("sq", lambda x: x[:, 0] ** 2, 1.0)
N = 5000


def force_cores(monkeypatch, k):
    monkeypatch.setattr(_threads, "_usable_cores", lambda: k)


def counting_fan_out(monkeypatch):
    """Record (item count, thread count) of every fan-out."""
    calls = []
    fan_out = _threads.fan_out

    def counted(fn, items, k):
        calls.append((len(items), k))
        return fan_out(fn, items, k)

    for mod in ("uqmc.mmmc.mixture", "uqmc.mmmc.propagate"):
        monkeypatch.setattr(f"{mod}.fan_out", counted)
    return calls


def all_families(m):
    """m distinct members of each of the five families."""
    t = np.linspace(0.0, 1.0, m)
    out = []
    for s in t:
        out += [
            Distribution(Family.NORMAL, (0.5 + s, 0.8 + s)),
            Distribution(Family.LOGNORMAL, (0.1 * s, 0.4 + 0.2 * s)),
            Distribution(Family.GAMMA, (1.5 + s, 0.8 + 0.3 * s)),
            Distribution(Family.WEIBULL, (1.2 + s, 1.0 + 0.5 * s)),
            Distribution(Family.UNIFORM, (-1.0 + s, 2.0 + 2.0 * s)),
        ]
    return out


def proposal():
    comps = [Distribution(Family.NORMAL, (1.0, 3.0))] + all_families(3)
    return MixtureDensity(tuple(comps), np.linspace(1.0, 2.0, len(comps)))


def both_ways(monkeypatch, fn):
    """fn() with one usable core, then with two."""
    force_cores(monkeypatch, 1)
    one = fn()
    force_cores(monkeypatch, 2)
    return one, fn()


class TestBitIdentical:
    def test_mixture_logpdf(self, monkeypatch):
        comps = all_families(60)
        comps += comps[:5]  # repeated components
        q = MixtureDensity(tuple(comps), np.arange(1.0, len(comps) + 1.0))
        x = RngStream(41).uniforms(N) * 12.0 - 4.0  # negative x: -inf rows
        x[[3, 1500, 4097]] = [np.nan, np.inf, -np.inf]
        assert q.n_components * N > _EVAL_CHUNK
        assert _block_len(q.n_components) == 859  # 305 rows x 859 points
        calls = counting_fan_out(monkeypatch)
        one, two = both_ways(monkeypatch, lambda: q.logpdf(x))
        assert calls == [(6, 1), (6, 2)]
        assert np.array_equal(one, two, equal_nan=True)
        assert np.isnan(one[3]) and np.isneginf(one[4097])
        # No chunk boundary shows: odd slices give the same values.
        parts = np.concatenate([q.logpdf(x[:777]), q.logpdf(x[777:])])
        assert np.array_equal(parts, one, equal_nan=True)

    def test_reweight(self, monkeypatch):
        samples = draw_propagation_samples(SQUARE, proposal(), N, RngStream(42))
        cands = all_families(4)
        entries = tuple(cands + cands[::3] + cands[:2])  # repeats
        targets = CandidateModelSet(entries=entries)
        assert len(cands) * N > _EVAL_CHUNK
        calls = counting_fan_out(monkeypatch)
        one, two = both_ways(monkeypatch, lambda: reweight(samples, targets))
        assert calls == [(1, 1), (2, 2)]  # one stripe, then two
        assert np.array_equal(one.estimates, two.estimates)
        assert np.array_equal(one.ess, two.ess)
        assert one.to_dict() == two.to_dict()
        # Uniform candidates are -inf outside their support: weight 0 there.
        assert np.all(np.isfinite(one.estimates))

    def test_mmmc_demo_digests(self, monkeypatch, tmp_path):
        force_cores(monkeypatch, 2)
        # Each demo's proposal is its own distinct candidates (at most 40), whose
        # log density at 2 000 draws fits one default block.  A smaller block
        # budget, which moves no bit (tests/test_pair_blocks.py), cuts it into
        # chunks for the two cores.
        monkeypatch.setattr(distributions, "_BLOCK_PAIRS", 2**14)
        for demo in ("mmmc_smalldata", "mmmc_bayes"):
            (path,) = [p for p in DEMO_CONFIGS if p.stem == demo]
            calls = counting_fan_out(monkeypatch)
            _, code = run_config(validate_config(path.read_text()), tmp_path / demo)
            assert code == 0
            assert any(items > 1 and k == 2 for items, k in calls)
            for name, digest in DEMO_DIGESTS[demo].items():
                out = tmp_path / demo / name
                assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (demo, name)


class TestSampleBlocks:
    def test_draws_do_not_depend_on_the_thread_count(self, monkeypatch):
        # The digest was recorded before the per-family inverse CDFs ran in
        # blocks on the pool.
        q = proposal()
        calls = counting_fan_out(monkeypatch)
        one, two = both_ways(monkeypatch, lambda: q.sample(RngStream(43), 100_003))
        assert calls == [(7, 1), (7, 2)]
        assert one.tobytes() == two.tobytes()
        digest = "be9740493d71075d8162b11d76dbd6948b1c34d3534bd141f33f442d5b43d344"
        assert hashlib.sha256(one.tobytes()).hexdigest() == digest


def poisoned(monkeypatch, q, candidates, seed):
    """Proposal draws, with the log density of every gamma candidate NaN
    at sample 7.  At the draws of a positive-support proposal every kernel
    gives a number or -inf, so the NaN is patched into the kernel calls of
    ``reweight``; the weight check that catches it is the real one."""
    samples = draw_propagation_samples(SQUARE, q, N, RngStream(seed))
    kernel = propagate._logpdf_into

    def nan_at_7_for_gamma(family, *args):
        out = kernel(family, *args)
        if family is Family.GAMMA:
            out[7] = np.nan
        return out

    monkeypatch.setattr(propagate, "_logpdf_into", nan_at_7_for_gamma)
    return samples, CandidateModelSet(entries=tuple(candidates))


def lognormals(m):
    return [Distribution(Family.LOGNORMAL, (0.01 * i, 0.5)) for i in range(m)]


GAMMA = Distribution(Family.GAMMA, (2.0, 1.0))
GAMMA2 = Distribution(Family.GAMMA, (2.0, 1.5))
NORMAL = Distribution(Family.NORMAL, (1.0, 1.0))
POSITIVE_Q = MixtureDensity(
    (Distribution(Family.LOGNORMAL, (0.0, 0.5)), Distribution(Family.GAMMA, (2.0, 1.0))),
    np.array([0.5, 0.5]),
)


def errors(monkeypatch, samples, targets):
    """The error message of reweight with one usable core, then two."""
    out = []
    for k in (1, 2):
        force_cores(monkeypatch, k)
        with pytest.raises(EstimatorError) as err:
            reweight(samples, targets)
        out.append(str(err.value))
    return out


class TestFirstErrorWins:
    @pytest.mark.parametrize("first, second", [(3, 12), (4, 9)], ids=["odd", "even"])
    def test_nonfinite_weight_in_two_stripes_names_lowest(self, monkeypatch, first, second):
        # The 16 distinct candidates split into the contiguous stripes 0..7
        # and 8..15, so indices 3 and 12 (or 4 and 9) fail in different
        # stripes; both gammas fail at sample 7.
        cands = lognormals(16)
        cands[first], cands[second] = GAMMA, GAMMA2
        samples, targets = poisoned(monkeypatch, POSITIVE_Q, cands, 5)
        one, two = errors(monkeypatch, samples, targets)
        assert one == two
        assert one.startswith(f"non-finite importance weight for candidate {first} at sample 7")

    @pytest.mark.parametrize("support_first", [True, False])
    def test_support_and_weight_failures_in_two_stripes(self, monkeypatch, support_first):
        # A normal candidate is not covered by the positive-support proposal.
        # Indices 4 and 12 sit in different stripes, 0..7 and 8..15.
        cands = lognormals(16)
        bad = (NORMAL, GAMMA) if support_first else (GAMMA, NORMAL)
        cands[4], cands[12] = bad
        samples, targets = poisoned(monkeypatch, POSITIVE_Q, cands, 6)
        one, two = errors(monkeypatch, samples, targets)
        assert one == two
        if support_first:
            assert one.startswith("target for candidate 4 support")
        else:
            assert one.startswith("non-finite importance weight for candidate 4 at sample 7")


class TestFanOut:
    def test_workers_keep_the_callers_errstate(self):
        # A leaked divide warning is an error under pyproject.toml's warning filter.
        with np.errstate(divide="ignore"):
            out = _threads.fan_out(lambda v: np.log(np.zeros(3) * v), [1.0, 2.0, 3.0], 2)
        assert all(np.all(np.isneginf(o)) for o in out)

    def test_every_item_runs_and_the_lowest_failure_is_raised(self):
        done = []

        def fn(i):
            done.append(i)
            if i in (2, 5):
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="item 2"):
            _threads.fan_out(fn, list(range(8)), 2)
        assert sorted(done) == list(range(8))

    def test_concurrent_callers_share_one_pool(self, monkeypatch):
        # More callers and threads than cores, switching often: every caller
        # gets its own items back, and one pool of the size is made.
        import concurrent.futures
        import threading

        made = []

        class Counted(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
        monkeypatch.setattr(_threads, "_pools", {})
        results = {}
        start = threading.Barrier(8)

        def caller(c):
            start.wait(timeout=30)
            results[c] = _threads.fan_out(lambda v: v * c, list(range(50)), 3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(c,)) for c in range(8)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            for pool in _threads._pools.values():
                pool.shutdown()
        assert not any(t.is_alive() for t in callers)
        assert results == {c: [v * c for v in range(50)] for c in range(8)}
        assert len(made) == 1

    def test_small_passes_stay_inline(self):
        assert _threads.workers(_EVAL_CHUNK) == 1

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork"
    )
    def test_forked_child_makes_its_own_pool(self):
        # The parent's pool threads do not exist in a forked child; a child
        # that reused the pool would wait forever for them.
        code = """
import multiprocessing as mp
from uqmc import _threads, distributions
_threads.fan_out(abs, [1, 2, 3, 4], 2)
ctx = mp.get_context("fork")
q = ctx.Queue()
p = ctx.Process(target=lambda: q.put(_threads.fan_out(abs, [-3, -4, -5], 2)), daemon=True)
p.start()
print(q.get(timeout=20))
p.join(30)
print(p.exitcode)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert out.stdout.split("\n")[:2] == ["[3, 4, 5]", "0"], out.stderr
