"""Crash-isolating process-pool execution.

Workers are forked so they inherit the parent's address space (cheap
access to in-memory corpora); on platforms without the ``fork`` start
method the map degrades to an in-process loop with identical results.

:func:`process_map_resilient` is the one fan-out: the pipeline's map
phase, the schedule explorer and the corpus generator all run on it.
Worker death is detected (the pool breaks), the pool is rebuilt, and the
affected tasks are retried with exponential backoff and, when the caller
can split them, bisected to isolate the poison input; a task that keeps
killing workers is attempted once in-process and finally handed to the
caller's ``failed`` callback.  Results are reassembled from the
bisection tree in task order, so the fold downstream is deterministic.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import WorkerCrashError

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")


def fork_context():
    """The ``fork`` multiprocessing context, or ``None`` if unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def fork_available() -> bool:
    """True when parallel (forked) execution is possible on this host."""
    return fork_context() is not None


def _unsplittable(task):
    """Default ``split``: tasks are atomic, so a crash is never bisected."""
    return None


def _crash_is_fatal(task, exc: BaseException):
    """Default ``failed``: a task that keeps killing workers aborts the run."""
    raise WorkerCrashError(
        f"worker kept dying while running {task!r}; retry and in-process "
        "fallback budgets are exhausted"
    ) from exc


#: Longest single backoff sleep between crash-retry rounds, seconds.
_MAX_BACKOFF = 1.0


def process_map_resilient(
    func: Callable[[TaskT], ResultT],
    tasks: Sequence[TaskT],
    workers: int,
    *,
    split: Callable[[TaskT], Optional[Tuple[TaskT, TaskT]]] = _unsplittable,
    merge: Optional[Callable[[List[ResultT]], ResultT]] = None,
    failed: Callable[[TaskT, BaseException], ResultT] = _crash_is_fatal,
    max_retries: int = 2,
    backoff_base: float = 0.05,
    health=None,
) -> List[ResultT]:
    """``[func(t) for t in tasks]`` that survives worker-process death.

    Tasks run in a forked :class:`~concurrent.futures.ProcessPoolExecutor`
    so a worker dying mid-task (signal, OOM kill, ``os._exit``) surfaces
    as a broken pool instead of a hang.  When that happens the pool is
    rebuilt and every task it took down is rescheduled:

    * a multi-source task is retried once, then **bisected** via
      ``split`` — halving until the poison source sits alone in a
      single-source task (innocent co-victims converge the same way and
      merge back losslessly);
    * a single-source task is retried up to ``max_retries`` more times
      with exponential backoff, then attempted **in-process** once (a
      crash confined to worker children cannot follow it there), and
      only if that also fails is ``failed(task, exc)`` asked for a
      substitute result — which may raise to abort the run (strict
      policy) or return an empty partial recording a quarantine.

    ``split`` returns ``None`` for unsplittable tasks; the default never
    splits.  ``merge`` folds a ``[left, right]`` result pair back into
    one, in order, so the returned list matches ``tasks`` position for
    position and the downstream fold stays byte-deterministic; it is
    required exactly when ``split`` can return halves.  The default
    ``failed`` raises :class:`~repro.errors.WorkerCrashError`.
    ``health``, when given, receives executor-level counters
    (``retries``, ``worker_restarts``, ``sequential_fallbacks``) by
    attribute increment.

    Exceptions *raised* by ``func`` inside a live worker are not crash
    recovery's business: they propagate unchanged.  The pool is forked
    even at ``workers=1`` (one isolated worker); callers that want no
    fork at one worker loop in-process themselves.  Without a ``fork``
    context the whole map runs in-process (no crash isolation is
    possible on spawn-only platforms).
    """
    tasks = list(tasks)
    context = fork_context()
    if context is None or not tasks:
        return [func(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool_size = max(1, min(workers, len(tasks)))
    #: bisection-tree path -> result; roots are ``(index,)``.
    results: Dict[Tuple[int, ...], ResultT] = {}
    pending: Dict[Tuple[int, ...], TaskT] = {
        (index,): task for index, task in enumerate(tasks)
    }
    attempts: Dict[Tuple[int, ...], int] = {path: 0 for path in pending}
    broken_rounds = 0
    pool = ProcessPoolExecutor(max_workers=pool_size, mp_context=context)
    try:
        while pending:
            futures = {
                path: pool.submit(func, task)
                for path, task in sorted(pending.items())
            }
            crashed: List[Tuple[int, ...]] = []
            for path, future in futures.items():
                try:
                    results[path] = future.result()
                    del pending[path]
                except BrokenProcessPool:
                    crashed.append(path)
            if not crashed:
                continue
            broken_rounds += 1
            if health is not None:
                health.worker_restarts += 1
            pool.shutdown(wait=False)
            pool = ProcessPoolExecutor(
                max_workers=pool_size, mp_context=context
            )
            for path in crashed:
                task = pending[path]
                attempts[path] += 1
                if health is not None:
                    health.retries += 1
                halves = (
                    split(task)
                    if attempts[path] > 1 or max_retries == 0
                    else None
                )
                if halves is not None:
                    del pending[path], attempts[path]
                    for side, half in enumerate(halves):
                        pending[path + (side,)] = half
                        attempts[path + (side,)] = 0
                elif attempts[path] <= max_retries:
                    continue  # stays pending; retried next round
                else:
                    del pending[path], attempts[path]
                    if health is not None:
                        health.sequential_fallbacks += 1
                    try:
                        results[path] = func(task)
                    except Exception as exc:
                        results[path] = failed(task, exc)
            if backoff_base > 0.0:
                time.sleep(
                    min(_MAX_BACKOFF, backoff_base * 2 ** (broken_rounds - 1))
                )
    finally:
        pool.shutdown(wait=False)

    def resolve(path: Tuple[int, ...]) -> ResultT:
        if path in results:
            return results[path]
        return merge([resolve(path + (0,)), resolve(path + (1,))])

    return [resolve((index,)) for index in range(len(tasks))]
