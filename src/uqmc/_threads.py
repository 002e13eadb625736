"""Fan-out of independent numpy passes over the usable cores.

The streamed input layer (``mc.draw_evaluate``), the mixture log density
and candidate reweighting are long numpy and scipy ufunc loops, which
release the interpreter lock, so threads run them side by side.  Every
work item writes its own slice of its caller's output, or returns its own
partial sums for the caller to merge in item order; no reduction crosses
two items, so results do not depend on the number of threads.
Passes of at most ``_EVAL_CHUNK`` draws, or (component or candidate) ×
sample pairs, stay on the calling thread, in serial order.

The pool is created on first use, with one thread per usable core but
one: the calling thread takes items too.  There is no option.
``concurrent.futures`` is imported then too, so ``import uqmc`` does not
pay for it.  A fan-out from inside an item (a model whose ``fn`` runs a
uqmc estimator, say) runs inline, so no pool thread ever waits for a
free one.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .distributions import _EVAL_CHUNK

_pools: dict = {}
_pools_lock = threading.Lock()
_in_pool = threading.local()
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool threads
    os.register_at_fork(after_in_child=_pools.clear)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def workers(pairs: int) -> int:
    """Threads to spread ``pairs`` draws, or (component or candidate) ×
    sample pairs, over: 1 up to ``_EVAL_CHUNK``, else one per usable core."""
    return 1 if pairs <= _EVAL_CHUNK else _usable_cores()


def fan_out(fn, items: list, k: int) -> list:
    """``[fn(item) for item in items]``, on up to ``k`` threads.

    Inline when ``k`` or the item count is below 2, or when called from
    an item.  Otherwise the caller and up to ``k - 1`` pool threads take
    items in turn, each under the caller's ``np.errstate`` (pool threads
    do not inherit it).  Every item finishes before this returns, and the
    exception of the lowest failing item is raised.  The caller works
    rather than waits, so the pool has one thread fewer and glibc one
    malloc arena fewer to keep resident.
    """
    if k < 2 or len(items) < 2 or getattr(_in_pool, "active", False):
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with _pools_lock:
        pool = _pools.get(k)
        if pool is None:
            pool = _pools[k] = ThreadPoolExecutor(k - 1, thread_name_prefix="uqmc")
    err = np.geterr()
    results = [None] * len(items)
    errors: list[Exception | None] = [None] * len(items)
    order = iter(range(len(items)))
    order_lock = threading.Lock()

    def drain() -> None:
        _in_pool.active = True
        try:
            with np.errstate(**err):
                while True:
                    with order_lock:
                        i = next(order, None)
                    if i is None:
                        return
                    try:
                        results[i] = fn(items[i])
                    except Exception as exc:  # raised by the caller, lowest item first
                        errors[i] = exc
        finally:
            _in_pool.active = False

    helpers = [pool.submit(drain) for _ in range(min(k, len(items)) - 1)]
    drain()
    for helper in helpers:
        helper.result()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
