"""Fan-out of independent numpy passes over the usable cores.

The mixture log density and candidate reweighting are long numpy and
scipy ufunc loops, which release the interpreter lock, so threads run
them side by side.  Every work item writes its own slice of its caller's
output and no reduction crosses two items, so results do not depend on
the number of threads.  Passes of at most ``_EVAL_CHUNK`` (component or
candidate) × sample pairs stay on the calling thread, in serial order.

The pool is created on first use, with one thread per usable core; there
is no option.  ``concurrent.futures`` is imported then too, so
``import uqmc`` does not pay for it.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from ..distributions import _EVAL_CHUNK

_pools: dict = {}
_pools_lock = threading.Lock()
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool threads
    os.register_at_fork(after_in_child=_pools.clear)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def workers(pairs: int) -> int:
    """Threads to spread ``pairs`` (component or candidate) × sample pairs
    over: 1 up to ``_EVAL_CHUNK`` pairs, else one per usable core."""
    return 1 if pairs <= _EVAL_CHUNK else _usable_cores()


def fan_out(fn, items: list, k: int) -> list:
    """``[fn(item) for item in items]``, on up to ``k`` threads.

    Inline when ``k`` or the item count is below 2.  Otherwise each item
    runs in a pool thread under the caller's ``np.errstate`` (worker
    threads do not inherit it), every item finishes before this returns,
    and the exception of the lowest failing item is raised.
    """
    if k < 2 or len(items) < 2:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor, wait

    with _pools_lock:
        pool = _pools.get(k)
        if pool is None:
            pool = _pools[k] = ThreadPoolExecutor(k, thread_name_prefix="uqmc")
    err = np.geterr()

    def run(item):
        with np.errstate(**err):
            return fn(item)

    futures = [pool.submit(run, item) for item in items]
    wait(futures)
    return [f.result() for f in futures]
