"""The streamed input layer (``mc.draw_evaluate``) gives the same outputs,
ledgers and errors on any number of threads.

The usable-core count is forced to 1 or 2, so the threaded path runs on a
one-core machine too.  Most tests also shrink the blocks to ``CHUNK``
draws and the fan-out threshold with them, so that many blocks run.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import uqmc.mc
import uqmc.mfmc
from uqmc import (
    ControlVariateConfig,
    CostLedger,
    LevelHierarchy,
    Model,
    RngStream,
    builtin_problem,
    cv_estimate,
    mc_estimate,
    mfmc_estimate,
    mlmc_estimate,
    two_level_estimate,
)
from uqmc import _threads
from uqmc.distributions import _EVAL_CHUNK
from uqmc.exceptions import EvaluationError
from uqmc.mc import draw_evaluate, draw_inputs
from uqmc.mfmc import estimator_variance, mfmc_plan
from uqmc.mlmc import coupled_sample

from test_streaming import (
    CHUNK,
    DISTS,
    GBM,
    POLY,
    assert_close,
    draw_stored,
    mlmc_parts,
    reference_draw_evaluate,
    square_model,
    use_small_chunks,
)


def use_cores(mp, k, small=True):
    """k usable cores; with ``small``, blocks of CHUNK draws that fan out
    past CHUNK draws."""
    mp.setattr(_threads, "_usable_cores", lambda: k)
    if small:
        use_small_chunks(mp)
        mp.setattr(_threads, "_EVAL_CHUNK", CHUNK)


def counting_fan_out(mp):
    """Record (item count, thread count) of every fan-out of draw_evaluate."""
    calls = []
    fan_out = _threads.fan_out

    def counted(fn, items, k):
        calls.append((len(items), k))
        return fan_out(fn, items, k)

    mp.setattr(uqmc.mc, "fan_out", counted)
    return calls


def three_ways(monkeypatch, fn):
    """fn(ledger) and its ledger's counts and work: default blocks on one
    core, then CHUNK-draw blocks on one core and on two."""
    out = []
    for k, small in ((1, False), (1, True), (2, True)):
        with monkeypatch.context() as mp:
            use_cores(mp, k, small)
            calls = counting_fan_out(mp)
            ledger = CostLedger()
            out.append((fn(ledger), ledger.as_dict()))
        if small:
            assert any(items > 1 and n_threads == k for items, n_threads in calls)
    return out


class TestBitIdentical:
    # Every estimator merges sums block by block: at one block size the
    # threads give the same bits, and another block size moves only the
    # last bits (``test_streaming.ULPS``) with the same ledger.

    def test_mc(self, monkeypatch):
        model = square_model(dim=3)
        a, b, c = three_ways(
            monkeypatch, lambda led: mc_estimate(model, DISTS[1], 200, RngStream(61), led).to_dict()
        )
        assert b == c
        assert a[1] == b[1]
        assert_close(a[0], b[0])

    def test_cv(self, monkeypatch):
        ens = POLY.ensemble
        cfg = ControlVariateConfig(ens.lows[0], POLY.truth["low_means"][0], "auto", pilot_n=17)
        a, b, c = three_ways(
            monkeypatch,
            lambda led: cv_estimate(ens.high, POLY.input, cfg, 150, RngStream(62), led).to_dict(),
        )
        assert b == c
        assert a[1] == b[1]
        assert_close(a[0], b[0])

    def test_mfmc(self, monkeypatch):
        # The pilot of 20 rows is one block, then three, so its figures
        # move in their last bits.  The plan's t, n_real and chi and the
        # estimator variance go through 1 - rho_1^2, which magnifies those
        # moves past ULPS (t[1] by 6e4 ulp at seed 63), so each run's plan
        # and variance must be those of its own pilot statistics.
        validated = []
        validate = uqmc.mfmc.validate_ordering
        monkeypatch.setattr(
            uqmc.mfmc, "validate_ordering", lambda s: validated.append(validate(s)) or validated[-1]
        )

        def run(ledger):
            report, plan = mfmc_estimate(
                POLY.ensemble, POLY.input, 300.0, RngStream(63), n_pilot=20, ledger=ledger
            )
            return report.to_dict(), plan, validated[-1]

        a, b, c = three_ways(monkeypatch, run)
        assert b == c
        assert a[1] == b[1]
        for report, plan, stats in (a[0], b[0]):
            assert plan == mfmc_plan(stats, plan.budget)
            n, beta = np.array(plan.n, dtype=float), np.array(plan.beta)
            assert report["estimator_variance"] == estimator_variance(stats, n, beta)
            assert report["diagnostics"]["chi"] == plan.chi
            del report["estimator_variance"], report["ci_95"], report["diagnostics"]["chi"]
        (ra, pa, sa), (rb, pb, sb) = a[0], b[0]
        assert (pa.n, pa.budget, pa.flags) == (pb.n, pb.budget, pb.flags)
        assert_close((vars(sa), pa.beta, ra), (vars(sb), pb.beta, rb))
        assert len(set(pa.n)) == 3  # three prefix counts

    def test_mlmc(self, monkeypatch):
        def run(ledger):
            return mlmc_parts(
                mlmc_estimate(GBM.hierarchy, 0.02, RngStream(64), initial_samples=20, ledger=ledger)
            )

        a, b, c = three_ways(monkeypatch, run)
        assert b == c
        assert a[1] == b[1]
        assert a[0]["plan"]["n_per_level"] == b[0]["plan"]["n_per_level"]
        assert [s["n"] for s in a[0]["levels"]] == [s["n"] for s in b[0]["levels"]]
        assert_close(a[0], b[0])
        assert len(a[0]["levels"]) >= 3

    def test_two_level(self, monkeypatch):
        coarse, fine = GBM.hierarchy.levels[1:3]

        def run(ledger):
            return two_level_estimate(
                coarse, fine, GBM.input, 1000.0, RngStream(65), ledger,
                pilot_n=20, coarsen=GBM.hierarchy.coarsen,
            ).to_dict()

        a, b, c = three_ways(monkeypatch, run)
        assert b == c
        assert a[1] == b[1]
        assert_close(a[0], b[0])


def test_two_level_pilot_spanning_two_blocks(monkeypatch):
    # A pilot of 50 rows of levels 10 and 11 is 102 400 draws: two blocks,
    # one per core, whose moments merge.  The report is the same bytes on
    # one core and on two, and the pilot variances are np.var's of the
    # stored outputs but for the last bits.
    h = builtin_problem("gbm_euler", {"max_level": 11}).hierarchy
    pair = LevelHierarchy(h.levels[10:12], h.input, h.coarsen)
    assert 50 * pair.levels[1].input_dim == 102_400

    def run(k):
        with monkeypatch.context() as mp:
            use_cores(mp, k, small=False)
            calls = counting_fan_out(mp)
            report = two_level_estimate(
                *pair.levels, h.input, 1000 * pair.coupled_cost(1), RngStream(82),
                pilot_n=50, coarsen=h.coarsen,
            )
        assert calls[0] == (2, k)
        return json.dumps(report.to_dict())

    one, two = run(1), run(2)
    assert one == two
    y, yc = reference_draw_evaluate(
        pair.coupled_models(1), [50, 50], h.input, RngStream(82).split(1)
    )
    diagnostics = json.loads(one)["diagnostics"]
    assert_close(diagnostics["pilot_v0"], float(np.var(yc, ddof=1)))
    assert_close(diagnostics["pilot_v1"], float(np.var(y - yc, ddof=1)))


def test_more_threads_than_cores_switching_often(monkeypatch):
    # Four threads on CHUNK-draw blocks, switching every microsecond: the
    # outputs and the ledger match one thread's, so no block's write or
    # seconds are lost, and no coupled block's fine outputs are lost or
    # paired with another block's coarse ones.
    models = [square_model("a", dim=2), square_model("b", 0.5, dim=2)]

    def run(k):
        with monkeypatch.context() as mp:
            use_cores(mp, k)
            ledger = CostLedger()
            ys = draw_stored(models, [500, 333], DISTS[2], RngStream(70), ledger)
            ys.append(coupled_sample(GBM.hierarchy, 1, 500, RngStream(71)))
        return ys, ledger.as_dict(), set(ledger.wall_time)

    one = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        four = run(4)
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(one[0][:2], four[0][:2]))
    assert one[0][2] == four[0][2] and one[0][2].n == 500
    want = {"counts": {"a": 500, "b": 333}, "work": {"a": 500.0, "b": 166.5}, "total": 666.5}
    assert one[1:] == four[1:] == (want, {"a", "b"})


def failing_on(x_bad, mid, exc=None):
    """x squared, but inf (or ``exc`` raised) on the rows of ``x_bad``."""

    def fn(x):
        hit = (x[:, None, :] == x_bad[None, :, :]).all(axis=2).any(axis=1)
        if exc is not None and hit.any():
            raise exc
        y = x[:, 0] ** 2
        y[hit] = np.inf
        return y

    return Model(mid, fn, 1.0, input_dim=x_bad.shape[1])


def two_block_errors(monkeypatch, make_models):
    """The error and the ledger of draw_evaluate on 2 CHUNK-row blocks, on
    one core, on two cores (the blocks on two threads), and on the
    reference path that evaluates each model's whole prefix in turn."""
    rng, n = RngStream(66), 2 * CHUNK
    x = draw_inputs(DISTS[0], rng, n, 1)
    out = []
    for k, walk in ((1, draw_stored), (2, draw_stored), (1, reference_draw_evaluate)):
        # Each thread's first block waits for the other's: block 0 and
        # block 1 run on two threads at once.
        threads = set()
        barrier = threading.Barrier(k if walk is draw_stored else 1)

        def seen(z):
            threads.add(threading.get_ident())
            barrier.wait(timeout=30)
            return z[:, 0]

        models = [Model("a", seen, 1.0)] + make_models(x)
        with monkeypatch.context() as mp:
            use_cores(mp, k)
            ledger = CostLedger()
            with pytest.raises(Exception) as err:
                walk(models, [n] * len(models), DISTS[0], rng, ledger)
        assert len(threads) == (k if walk is draw_stored else 1)
        out.append((type(err.value), str(err.value), ledger.as_dict()["counts"]))
    return out


class TestFirstErrorWins:
    @pytest.mark.parametrize(
        "b_rows, c_rows, want",
        [((10,), (2,), 10), ((3, 10), (2,), 3), ((3, 10), (9, 1), 3)],
        ids=["b_later_block", "b_both_blocks", "c_both_blocks"],
    )
    def test_first_model_lowest_block(self, monkeypatch, b_rows, c_rows, want):
        # "b" comes before "c" in model order, so its error is raised even
        # where "c" fails in a lower block; only "a" is charged.
        one, two, ref = two_block_errors(
            monkeypatch,
            lambda x: [failing_on(x[list(b_rows)], "b"), failing_on(x[list(c_rows)], "c")],
        )
        assert one == two == ref
        assert one == (EvaluationError, f"model 'b' produced non-finite output at sample {want}",
                       {"a": 2 * CHUNK})

    def test_other_error_of_a_stopped_model_is_not_raised(self, monkeypatch):
        # "b" fails in block 0, so a serial walk never evaluates "c" on
        # block 1, where it would raise a ValueError.
        one, two, ref = two_block_errors(
            monkeypatch,
            lambda x: [failing_on(x[[2]], "b"), failing_on(x[[10]], "c", ValueError("c broke"))],
        )
        assert one == two == ref == (
            EvaluationError, "model 'b' produced non-finite output at sample 2", {"a": 2 * CHUNK}
        )

    def test_other_error_of_an_earlier_model_is_raised(self, monkeypatch):
        # "c"'s non-finite output in block 0 does not stop "b", which then
        # raises in block 1: the ValueError propagates with "a" charged.
        one, two, ref = two_block_errors(
            monkeypatch,
            lambda x: [failing_on(x[[10]], "b", ValueError("b broke")), failing_on(x[[2]], "c")],
        )
        assert one == two == ref == (ValueError, "b broke", {"a": 2 * CHUNK})

    def test_earlier_model_outranks_other_error_in_a_lower_block(self, monkeypatch):
        # "c" raises a ValueError in block 0, "b" is non-finite in block 1:
        # "b" comes first in model order, so its error is raised.
        one, two, ref = two_block_errors(
            monkeypatch,
            lambda x: [failing_on(x[[10]], "b"), failing_on(x[[2]], "c", ValueError("c broke"))],
        )
        assert one == two == ref == (
            EvaluationError, "model 'b' produced non-finite output at sample 10", {"a": 2 * CHUNK}
        )


class TestReduceContract:
    """``reduce(lo, ys)`` runs once per block, on the thread that evaluated
    it, after every model with rows there, with None for each model whose
    count ends before the block.  Counts fall across the models, as an
    MFMC plan's do."""

    @staticmethod
    def walk(monkeypatch, k, models, counts, rng):
        """draw_evaluate on k cores, with a reduce that checks that its
        thread has just evaluated the block's models, in order, and returns
        ``lo`` and the outputs as lists; the result (or the error's type and
        message), the ledger, and each call's ``lo`` and None pattern."""
        done = threading.local()

        def recorded(j, m):
            def fn(x):
                y = m.fn(x)
                done.models = getattr(done, "models", []) + [j]
                return y

            return Model(m.id, fn, m.cost_per_eval)

        calls = []

        def reduce(lo, ys):
            assert done.models == [j for j, c in enumerate(counts) if c > lo]
            done.models = []
            calls.append((lo, [y is None for y in ys]))
            return lo, [None if y is None else y.tolist() for y in ys]

        with monkeypatch.context() as mp:
            use_cores(mp, k)
            fans = counting_fan_out(mp)
            ledger = CostLedger()
            wrapped = [recorded(j, m) for j, m in enumerate(models)]
            try:
                out = draw_evaluate(wrapped, counts, DISTS[0], rng, ledger, reduce)
            except Exception as exc:
                out = (type(exc), str(exc))
        assert fans == [(-(-max(counts) // CHUNK), k)]
        return out, ledger.as_dict(), sorted(calls)

    def test_one_call_per_block_with_every_model(self, monkeypatch):
        rng, counts = RngStream(79), [3 * CHUNK, 3 * CHUNK // 2, CHUNK // 2]
        models = [square_model(f"m{j}", cost=j + 1.0) for j in range(3)]
        x = draw_inputs(DISTS[0], rng, max(counts))[:, 0]
        one, two = (self.walk(monkeypatch, k, models, counts, rng) for k in (1, 2))
        assert one == two
        blocks, ledger, calls = one
        assert calls == [
            (0, [False, False, False]),
            (CHUNK, [False, False, True]),
            (2 * CHUNK, [False, True, True]),
        ]
        assert [lo for lo, _ in blocks] == [0, CHUNK, 2 * CHUNK]  # in block order
        for lo, ys in blocks:
            for c, y in zip(counts, ys):
                assert (y is None) == (c <= lo)
                assert y is None or y == (x[lo : min(c, lo + CHUNK)] ** 2).tolist()
        assert ledger["counts"] == dict(zip(["m0", "m1", "m2"], counts))

    @pytest.mark.parametrize("exc", [None, ValueError("b broke")], ids=["nonfinite", "raises"])
    def test_failed_block_is_not_reduced(self, monkeypatch, exc):
        # "b" fails in block 2: blocks 0 and 1 are reduced, block 2 is not,
        # and the error and the ledger are those of the stored form.
        rng, counts = RngStream(80), [3 * CHUNK, 5 * CHUNK // 2, CHUNK // 2]
        x = draw_inputs(DISTS[0], rng, max(counts))
        models = [square_model("a"), failing_on(x[[2 * CHUNK + 1]], "b", exc), square_model("c")]
        ledger = CostLedger()
        with pytest.raises(Exception) as stored:
            draw_stored(models, counts, DISTS[0], rng, ledger)
        assert ledger.as_dict()["counts"] == {"a": 3 * CHUNK}
        for k in (1, 2):
            error, led, calls = self.walk(monkeypatch, k, models, counts, rng)
            assert error == (type(stored.value), str(stored.value))
            assert led == ledger.as_dict()
            assert [lo for lo, _ in calls] == [0, CHUNK]


class TestBlocks:
    def test_fine_levels_split_into_draw_capped_blocks(self, monkeypatch):
        # Blocks hold _EVAL_CHUNK draws at every level: 4 096 rows of level
        # 4, 256 of level 8 and 16 of level 12, so 149 rows of level 12 run
        # as 10 blocks, spread over both cores.
        h = builtin_problem("gbm_euler", {"max_level": 12}).hierarchy
        for level, n in ((4, 10_000), (8, 2_500), (12, 149)):
            dim = h.levels[level].input_dim
            rows = _EVAL_CHUNK // dim
            got = []
            for k in (1, 2):
                shapes = []

                def spy(*args, _draw=draw_inputs, _shapes=shapes):
                    out = _draw(*args)
                    _shapes.append(out.shape)
                    return out

                with monkeypatch.context() as mp:
                    use_cores(mp, k, small=False)
                    mp.setattr(uqmc.mc, "draw_inputs", spy)
                    calls = counting_fan_out(mp)
                    ledger = CostLedger()
                    y = coupled_sample(h, level, n, RngStream(67), ledger)
                got.append((y, ledger.as_dict()))
                assert calls == [(-(-n // rows), k)]
                assert sorted(shapes) == sorted([(rows, dim)] * (n // rows) + [(n % rows, dim)])
            assert np.array_equal(got[0][0], got[1][0]) and got[0][1] == got[1][1]
        assert calls == [(10, 2)]

    def test_calls_of_at_most_one_chunk_stay_inline(self, monkeypatch):
        model = square_model(dim=16)
        with monkeypatch.context() as mp:
            use_cores(mp, 2, small=False)
            calls = counting_fan_out(mp)
            draw_stored([model], [_EVAL_CHUNK // 16], DISTS[0], RngStream(68))
            draw_stored([model], [_EVAL_CHUNK // 16 + 1], DISTS[0], RngStream(68))
        assert calls == [(1, 1), (2, 2)]


def test_nested_fan_out_from_a_model_returns():
    # A model that runs an estimator on more than _EVAL_CHUNK draws, inside
    # a threaded draw_evaluate: its fan-out must run inline, since a pool
    # thread waiting on the pool could wait forever.  A subprocess bounds
    # the wait.
    code = f"""
import numpy as np
from uqmc import Distribution, Family, Model, RngStream, mc_estimate, _threads
from uqmc.mc import draw_evaluate
N01 = Distribution(Family.NORMAL, (0.0, 1.0))
inner = Model("inner", lambda z: z[:, 0], 1.0)
def fn(x):
    est = mc_estimate(inner, N01, {_EVAL_CHUNK} + 10, RngStream(int(x.shape[0]))).estimate
    return x[:, 0] + est
outer = Model("outer", fn, 1.0)
out = []
for k in (1, 2):
    _threads._usable_cores = lambda: k
    n = 2 * {_EVAL_CHUNK} + 3
    blocks = draw_evaluate([outer], [n], N01, RngStream(69), None, lambda lo, ys: ys[0])
    out.append(np.concatenate(blocks))
print(np.array_equal(*out), out[0].size)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.stdout.split() == ["True", str(2 * _EVAL_CHUNK + 3)], out.stderr
