"""Deterministic parallel task-execution engine.

The engine is the repository's one scheduling substrate: task specs with
per-task seeds, pluggable serial/thread/process executors behind
``jobs``/``kind`` knobs (a batch gets min(jobs, CPU count, task count)
workers; pools never nest), single-flight memo caches (extractor lookups,
LLM queries) with hit/miss statistics, and per-stage wall-time
instrumentation.  The front doors — the experiment runner
(``repro.experiments``), ``campaign``, ``diff`` — and repeated fuzz
campaigns (``repro.fuzzer``) fan their work through it, while spec
generation (``repro.core``) uses its caches and profile from a plain loop;
results are always returned in submission order, which is the invariant
that makes ``jobs=1`` and ``jobs=N`` runs byte-identical on any executor
kind.
"""

from .cache import CacheStats, MemoCache
from .engine import ExecutionEngine
from .executors import (
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadPoolExecutor,
    create_executor,
    execute_task,
)
from .profile import EngineProfile, StageStats
from .tasks import TaskResult, TaskSpec, derive_seed

__all__ = [
    "ExecutionEngine",
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "create_executor",
    "execute_task",
    "MemoCache",
    "CacheStats",
    "EngineProfile",
    "StageStats",
    "TaskSpec",
    "TaskResult",
    "derive_seed",
]
