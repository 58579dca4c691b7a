"""``fork_map``: a list comprehension spread over forked worker processes.

The work items of a LOO pass (its folds) and of a Gram fill (its rows) do not
depend on each other, and everything they read (the corpus table, the
compiled trees) is built before the fork, so the workers share it
copy-on-write and nothing large crosses a pipe.  Each item is computed by the
same code as in one process, so the results are the same bytes.

A fork costs about 3 ms (the call, the child's start and its reaping, and the
parent's copy-on-write faults after it), so callers with little work call
their function in a loop instead: LOO folds below
``evaluation.FORK_SENTENCES`` sentences and Gram fills below
``treekernel.GRAM_FORK_PAIRS`` node pairs, both break-evens measured on a
2-core machine.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class WorkerFailed(RuntimeError):
    """A worker process ended without sending its results."""


def worker_count(n_items: int) -> int:
    """Processes ``fork_map`` would use for ``n_items`` items: one per CPU this
    process may run on, at most one per item, and one where the platform
    cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_items))


def _run_share(fn: Callable[[T], R], share: list[T]) -> tuple[list[R], BaseException | None]:
    """The results of ``share`` up to its first error, as the serial loop
    stops, and that error or None."""
    results = []
    try:
        for item in share:
            results.append(fn(item))
    except BaseException as err:
        return results, err
    return results, None


def _child(fn: Callable[[T], R], share: list[T], write_fd: int) -> None:
    """Compute ``share``, send the outcome to the parent and leave; never
    returns into the caller's code."""
    try:
        outcome = _run_share(fn, share)
        try:
            data = pickle.dumps(outcome)
        except BaseException as err:
            data = pickle.dumps(([], WorkerFailed(f"worker {os.getpid()} could not send its results: {err!r}")))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        sys.stdout.flush()
        sys.stderr.flush()
    finally:
        os._exit(0)


def _describe(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"killed by signal {os.WTERMSIG(status)}"
    return f"exit status {os.waitstatus_to_exitcode(status)}"


def fork_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(x) for x in items]``, in item order.

    With ``n = worker_count(len(items))`` above 1, ``n - 1`` forked children
    compute the strided shares ``items[k::n]`` and send them back pickled
    over pipes, while this process computes ``items[0::n]``.  Every child is
    reaped before this returns or raises.  The error raised is the one of the
    first item in item order that raised, which is the one the serial loop
    raises; a child that ended without sending its results (killed by a
    signal, say) counts as an error at its first item and raises
    :class:`WorkerFailed`, naming its wait status.
    """
    items = list(items)
    n = worker_count(len(items))
    if n < 2:
        return [fn(x) for x in items]
    sys.stdout.flush()
    sys.stderr.flush()
    pids: list[int] = []
    pipes: list = []  # read ends, child k's at k - 1
    try:
        for k in range(1, n):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError as err:
                os.close(read_fd)
                os.close(write_fd)
                raise WorkerFailed(f"could not start a worker process: {err}") from err
            if pid == 0:
                os.close(read_fd)
                _child(fn, items[k::n], write_fd)
            os.close(write_fd)
            pids.append(pid)
            pipes.append(os.fdopen(read_fd, "rb"))
        shares = [_run_share(fn, items[0::n])]
        sent = [pipe.read() for pipe in pipes]
    finally:
        # closed before the children are reaped, so that after an interruption
        # a child blocked on a full pipe fails its write and exits
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, data, status in zip(pids, sent, statuses):
        try:
            shares.append(pickle.loads(data))
        except Exception as err:
            why = "sent nothing" if not data else f"sent a result that could not be read: {err!r}"
            shares.append(([], WorkerFailed(f"worker process {pid} ended without a result ({_describe(status)}; {why})")))

    # share k's item j is item k + j * n
    errors = [(k + len(done) * n, err) for k, (done, err) in enumerate(shares) if err is not None]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    results: list = [None] * len(items)
    for k, (done, _) in enumerate(shares):
        results[k::n] = done
    return results
