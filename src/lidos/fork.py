"""Forked workers for the commands that split their work: `lidos run` over
its planner x repetition pairs, `lidos synth` over its two tables, and
`lidos summarize` over runs of blocks of `traces.csv`. This imports nothing
else of the package, so `lidos synth` forks, and `lidos.cli` names
`WorkerLost`, without loading the run harness."""

from __future__ import annotations

import gc
import io
import os
import pickle
import select
import signal
from typing import NoReturn


class WorkerLost(RuntimeError):
    """A worker process ended before returning its share of the tasks, so
    the command has no result."""


def run_tasks(run_share, tasks, workers: int, task_name: str) -> list:
    """The results of every task, in task order: `run_share(share)` yields
    one result per task of `share`, in order, and whatever it sets up before
    its first result it sets up again for each share. With `workers` above 1,
    where the platform can fork, the tasks run in that many forked worker
    processes, at most one per task; else this process runs
    `run_share(tasks)`.

    Worker `w` of `n` runs the share `tasks[w::n]` and sends one pickle of
    its results through its own pipe. The parent waits on every unread pipe
    at once, and reads and reaps each worker whose pipe is ready, so a worker
    that dies is noticed when its pipe closes, whatever the others are doing.
    A worker stops at its first failure and sends it instead; of the
    failures, the one earliest in task order is raised, as this process
    would raise it, and a failure before a worker's first result is that of
    its first task. A worker that ends without its pickle raises WorkerLost,
    naming `task_name`, once the workers still running are killed and reaped.

    Forked workers inherit the imported package and the caller's objects,
    where spawned ones would import the package again. The heap is frozen
    across the forks, so a worker's collector never walks, and so never
    copies, what it inherits. The `lidos` program forks a single-threaded
    process, since it starts numpy with one OpenBLAS thread (see
    `lidos.__main__`); in a library caller's process the only other threads
    are likely the idle ones of numpy's BLAS pool, which no task calls
    into."""
    workers = min(workers, len(tasks))
    if workers < 2 or not hasattr(os, "fork"):
        return list(run_share(tasks))
    live: dict[io.BufferedReader, tuple[int, int]] = {}  # unreaped workers: pipe -> w, pid
    outcomes = [None] * workers
    try:
        unfreeze = not gc.get_freeze_count()
        gc.freeze()
        try:
            for w in range(workers):
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(read)
                    os.close(write)
                    raise
                if not pid:
                    _work(run_share, tasks[w::workers], write,
                          [p.fileno() for p in live] + [read])
                os.close(write)
                live[open(read, "rb")] = w, pid
        finally:
            if unfreeze:
                gc.unfreeze()
        while live:
            for pipe in select.select(list(live), [], [])[0]:
                w, pid = live[pipe]
                with pipe:
                    try:
                        outcome = pickle.load(pipe)
                    except (EOFError, pickle.UnpicklingError):
                        outcome = None
                status = os.waitpid(pid, 0)[1]
                # Only now, so a load that raises leaves the worker to be killed.
                del live[pipe]
                if status or outcome is None:
                    raise WorkerLost("a worker process ended abruptly before returning "
                                     f"its {task_name}")
                outcomes[w] = outcome
    finally:
        for pipe, (_, pid) in live.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = {w + len(done) * workers: failure
                for w, (done, failure) in enumerate(outcomes) if failure is not None}
    if failures:
        raise failures[min(failures)]
    results = [None] * len(tasks)
    for w, (done, _) in enumerate(outcomes):
        results[w::workers] = done
    return results


def _work(run_share, share, write: int, inherited: list[int]) -> NoReturn:
    """The body of a forked worker: close the pipe ends it inherits, run its
    share, write one pickle of `(results, failure)` to `write`, where
    `failure` is the exception that stopped the share or None, and exit. It
    never returns into its caller's stack."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        results, failure = [], None
        try:
            for result in run_share(share):
                results.append(result)
        except Exception as exc:  # the parent raises it
            failure = exc
        with open(write, "wb") as pipe:
            pickle.dump((results, failure), pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)
