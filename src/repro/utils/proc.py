"""Process-level helpers (stdlib-only): the one fork fan-out, and peak RSS.

:func:`fork_map` is how the repo spreads independent work over
processes: a sweep's seed shards (:mod:`repro.core.multi_seed`) and a
campaign's jobs (:mod:`repro.runtime.campaign`).  :func:`can_fork` is
the one rule for when it may fork at all.

:func:`peak_rss_mb` answers "how big did this process get", which the
CLI and benchmarks both ask after a large sweep — the mega-batch path
trades memory (one ``(K, S, A)`` Q block) for wall clock, and peak RSS
is the honest way to report that trade.
"""

from __future__ import annotations

import sys
import threading
import warnings
from typing import Callable, Sequence

from repro.errors import SearchError

#: The warning Python >= 3.12 emits when it forks a process with more
#: than one OS thread.  numpy's bundled OpenBLAS starts a pool thread
#: at import, so every fan-out would raise it, although
#: :func:`can_fork` allows a fork only while this is the sole Python
#: thread and that OpenBLAS registers its own fork handlers.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)"


def can_fork() -> bool:
    """Whether a fan-out may fork here.

    Not inside a multiprocessing child (its parent's fan-out or the
    service's local workers already fill the CPUs, and a child never
    fans out again), not while another Python thread runs (it may hold
    a lock at fork time), and only where the ``fork`` start method
    exists.
    """
    # Imported on first use: `core.multi_seed` imports this module on
    # the paper pipeline's import chain, where `multiprocessing` would
    # add several milliseconds to every start.
    import multiprocessing

    return (
        multiprocessing.parent_process() is None
        and threading.active_count() == 1
        and "fork" in multiprocessing.get_all_start_methods()
    )


def fork_map(
    fn: Callable,
    items: Sequence,
    children: int,
    describe: Callable[[object], str],
    own: int = 0,
) -> list:
    """``[fn(item) for item in items]``, over ``children`` forked processes.

    The children inherit ``fn`` and ``items`` at the fork, so neither
    is pickled; only an item's index goes down a pipe and its pickled
    result comes back.  Items go out one at a time, each to the next
    idle child, so a slow item holds up only the child that runs it.
    The last ``own`` items run in this process meanwhile.  Results come
    back in item order.

    Everything runs in this process, in order, when there is no child
    to fork (``children < 1``, or no item left over beyond ``own``) or
    :func:`can_fork` says no.  Otherwise a child's exception, or its
    death before it answered, raises :class:`SearchError` naming the
    item through ``describe``.  Whatever this process raises, every
    child is killed and joined before it propagates.
    """
    items = list(items)
    shared = len(items) - own
    children = min(children, shared)
    if children < 1 or not can_fork():
        return [fn(item) for item in items]
    import multiprocessing
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    results: list = [None] * len(items)
    pending = iter(range(shared))
    started: list = []  # (parent end, process) per child
    busy: dict = {}  # parent end -> (process, index of its item)
    try:
        for _ in range(children):
            conn, child_end = context.Pipe()
            process = context.Process(
                target=_child_main,
                args=(fn, items, child_end, [c for c, _ in started] + [conn]),
                daemon=True,
            )
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", message=_FORK_WARNING, category=DeprecationWarning
                )
                process.start()
            # Closed here so a child that dies unheard reads as EOF.
            child_end.close()
            started.append((conn, process))
            index = next(pending)
            conn.send(index)
            busy[conn] = (process, index)
        for index in range(shared, len(items)):
            results[index] = fn(items[index])
        while busy:
            for conn in wait(list(busy)):
                process, index = busy.pop(conn)
                try:
                    ok, payload = conn.recv()
                except EOFError:
                    process.join()
                    raise SearchError(
                        f"{describe(items[index])} exited with code "
                        f"{process.exitcode} before sending its results"
                    ) from None
                if not ok:
                    raise SearchError(f"{describe(items[index])} failed: {payload}")
                results[index] = payload
                index = next(pending, None)
                try:
                    conn.send(index)
                except OSError:  # died since its answer: EOF on the next wait
                    pass
                if index is not None:
                    busy[conn] = (process, index)
    except BaseException:
        for _, process in started:
            process.kill()
        raise
    finally:
        for conn, process in started:
            process.join()
            conn.close()
    return results


def _child_main(fn, items, conn, inherited) -> None:
    """A forked child's body: run each index the parent sends until it
    sends None, answering ``(True, result)`` or ``(False, error)``."""
    # Parent ends inherited at the fork: closed, so that this child
    # holds no sibling's pipe open and reads EOF if the parent dies.
    for other in inherited:
        other.close()
    for index in iter(conn.recv, None):
        try:
            message = (True, fn(items[index]))
        except Exception as error:  # the parent raises it
            message = (False, f"{type(error).__name__}: {error}")
        conn.send(message)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in megabytes.

    ``ru_maxrss`` is kilobytes on Linux and *bytes* on macOS — the
    only portability wrinkle worth handling here.
    """
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0
