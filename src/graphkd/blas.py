"""numpy's BLAS thread count, and one worker thread that runs beside the caller.

``worker_at_one_blas_thread`` is a context manager for code with two halves
of bit-pinned numpy work that release the interpreter lock: within it, numpy's
bundled OpenBLAS runs on one thread, so its own threads do not compete with
the worker for the same cores, and it yields ``beside(work, tasks)``, which
returns ``(work(), [task() for task in tasks])``.  The tasks are queued on one
worker thread that lives for the whole block while the caller runs ``work``;
then the caller runs itself, last first, every task the worker has not
started, so both threads finish together.  Results come back in task order,
and an error raised by ``work`` or a task is the one the same calls made in
order would raise first.  The old thread count is restored when the block
exits, by return or by error.

Where numpy ships no OpenBLAS with the thread-count symbols, or fewer than
two CPUs are usable, ``beside`` runs ``work`` and then each task inline and
the thread count is left as it is.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import cache, partial

import numpy as np

_GET_THREADS = "scipy_openblas_get_num_threads64_"
_SET_THREADS = "scipy_openblas_set_num_threads64_"


@cache
def _thread_calls():
    """``(get, set)`` of numpy's bundled OpenBLAS thread count, looked up in
    ``numpy.libs`` on first use, or None where no library there has both."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return None
    for name in names:
        if "openblas" not in name:
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
            get, set_threads = getattr(lib, _GET_THREADS), getattr(lib, _SET_THREADS)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get, set_threads
    return None


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _inline(work, tasks):
    return work(), [task() for task in tasks]


def _beside(pool, work, tasks):
    """``_inline(work, tasks)``, with the tasks queued on ``pool``'s one worker."""
    from concurrent.futures import Future

    futures = [pool.submit(task) for task in tasks]
    try:
        done = work()
        for i in reversed(range(len(tasks))):
            if futures[i].cancel():  # not started: run it here
                futures[i] = Future()
                try:
                    futures[i].set_result(tasks[i]())
                except Exception as err:  # raised in task order below
                    futures[i].set_exception(err)
        return done, [future.result() for future in futures]
    finally:
        for future in futures:
            future.cancel()


@contextmanager
def worker_at_one_blas_thread():
    """Yield ``beside(work, tasks)``; see the module docstring."""
    calls = _thread_calls()
    if calls is None or _usable_cpus() < 2:
        yield _inline
        return
    from concurrent.futures import ThreadPoolExecutor

    get, set_threads = calls
    before = get()
    set_threads(1)
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            yield partial(_beside, pool)
    finally:
        set_threads(before)
