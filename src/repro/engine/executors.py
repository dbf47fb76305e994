"""Pluggable task executors: serial, thread pool, process pool.

Every executor honours the same contract:

* results come back in **submission order**, regardless of completion order;
* a task that raises is captured as a :class:`TaskResult` with ``error`` set
  (it never aborts sibling tasks);
* each ``run()`` call owns its worker pool, created per call and torn down
  afterwards, with ``min(jobs, len(tasks))`` workers.
  :func:`create_executor` caps ``jobs`` at the host's CPU count.  Pools
  never nest: every shared context runs a serial engine, so a pool's tasks
  do not fan out pools of their own.

The thread-pool executor is the default for in-process work that shares
caches and backends; the process-pool executor exists for the front
doors' picklable tasks (report tasks, campaign tasks, diff cells, fuzz
campaigns) that want real cores.  ``shares_memory`` tells schedulers which
of the two worlds they are in: process workers see *copies* of the task
arguments, so only the task's return value reaches the parent.
"""

from __future__ import annotations

import abc
import concurrent.futures
import os
import time
from typing import Sequence

from .tasks import TaskResult, TaskSpec


def execute_task(task: TaskSpec) -> TaskResult:
    """Run one task, capturing value/error/duration.

    Module-level (rather than a method) so process pools can pickle it.
    """
    started = time.perf_counter()
    result = TaskResult(key=task.key, seed=task.seed)
    try:
        result.value = task()
    except Exception as exc:
        # Only Exception: KeyboardInterrupt/SystemExit must abort the whole
        # batch (Ctrl-C during an hours-long run), not become a task result.
        result.error = exc
    result.duration = time.perf_counter() - started
    return result


class Executor(abc.ABC):
    """Runs a batch of tasks and returns results in submission order."""

    name: str = "executor"
    #: Whether workers share the caller's address space.  Process pools set
    #: this to False: their tasks receive pickled copies of the arguments, so
    #: side effects on those copies are invisible to the parent and must be
    #: carried back through return values.
    shares_memory: bool = True

    @abc.abstractmethod
    def run(self, tasks: Sequence[TaskSpec]) -> list[TaskResult]:
        """Execute every task and return one result per task, in order."""


class SerialExecutor(Executor):
    """Runs tasks one after another on the calling thread (``jobs=1``)."""

    name = "serial"
    jobs = 1

    def run(self, tasks: Sequence[TaskSpec]) -> list[TaskResult]:
        return [execute_task(task) for task in tasks]


class _PoolExecutor(Executor):
    """Shared machinery for the pool executors: sizing and ordering."""

    pool_factory: type

    def __init__(self, jobs: int = 4):
        self.jobs = max(1, jobs)

    def run(self, tasks: Sequence[TaskSpec]) -> list[TaskResult]:
        if not tasks:
            return []
        workers = min(self.jobs, len(tasks))
        with self.pool_factory(max_workers=workers) as pool:
            futures = [pool.submit(execute_task, task) for task in tasks]
            return [future.result() for future in futures]


class ThreadPoolExecutor(_PoolExecutor):
    """Runs tasks on a per-call pool of up to ``jobs`` threads."""

    name = "thread"
    pool_factory = concurrent.futures.ThreadPoolExecutor


class ProcessPoolExecutor(_PoolExecutor):
    """Runs tasks on a per-call pool of up to ``jobs`` processes.

    Tasks (callable + arguments) and their results must be picklable.  Worker
    processes do not share caches or usage meters with the parent, so a
    task's only outcome is its return value.
    """

    name = "process"
    shares_memory = False
    pool_factory = concurrent.futures.ProcessPoolExecutor


def create_executor(jobs: int = 1, kind: str = "thread") -> Executor:
    """Pick an executor for a ``jobs`` level (``jobs<=1`` is always serial).

    Pools get ``min(jobs, os.cpu_count())`` workers: the engine's workloads
    are CPU-bound pure Python, so oversubscribing cores only adds scheduler
    thrash.  Callers that want a pool shape independent of the host (tests,
    latency-hiding oversubscription) hand the engine an explicit executor.
    """
    if kind not in ("serial", "thread", "process"):
        raise ValueError(f"unknown executor kind {kind!r}; choose serial, thread or process")
    if jobs <= 1 or kind == "serial":
        return SerialExecutor()
    workers = min(jobs, os.cpu_count() or 1)
    if kind == "thread":
        return ThreadPoolExecutor(workers)
    return ProcessPoolExecutor(workers)


__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "create_executor",
    "execute_task",
]
