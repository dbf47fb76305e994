"""Task specifications and results for the execution engine.

A :class:`TaskSpec` is a self-contained, deterministic unit of work: a
callable plus its (positional/keyword) arguments, a stable ``key`` naming the
task, and an optional per-task ``seed``.  Keeping the callable and arguments
separate (instead of closing over them) keeps tasks picklable, so the same
spec can run on the serial, thread-pool or process-pool executor.

A :class:`TaskResult` pairs the task key with either a value or the raised
exception, plus the wall time and the worker that ran it.  Executors always
return results in **submission order**, never completion order — that single
invariant is what lets callers fan work out across workers and still produce
byte-identical aggregates.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping


class _PoolPayloadSentinel:
    """Placeholder for a batch's shared payload in task args/kwargs.

    Large objects every task of a batch shares (the pickled generator of a
    generation fan-out) used to ride inside each task's ``args``, so a
    process pool re-pickled them once **per task**.  Callers now pass the
    object once as ``run(tasks, payload=...)`` and put this sentinel where
    it belongs in the args; executors substitute the real payload — shared
    by reference on in-memory executors, pickled once per batch and
    unpickled once per worker process via the pool initializer on process
    pools.

    Identity is class-based (``isinstance``), not object-based, so the
    sentinel survives pickling into process workers.
    """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "POOL_PAYLOAD"


#: The one sentinel value callers place in :class:`TaskSpec` args/kwargs.
POOL_PAYLOAD = _PoolPayloadSentinel()


def substitute_payload(task: "TaskSpec", payload: object) -> "TaskSpec":
    """Return ``task`` with every payload sentinel replaced by ``payload``."""
    args = tuple(payload if isinstance(item, _PoolPayloadSentinel) else item for item in task.args)
    kwargs = task.kwargs
    if kwargs and any(isinstance(value, _PoolPayloadSentinel) for value in kwargs.values()):
        kwargs = {
            key: payload if isinstance(value, _PoolPayloadSentinel) else value
            for key, value in kwargs.items()
        }
    if args == task.args and kwargs is task.kwargs:
        return task
    return TaskSpec(
        key=task.key, fn=task.fn, args=args, kwargs=kwargs, seed=task.seed, stage=task.stage
    )


def derive_seed(base: int, *parts: object) -> int:
    """Derive a stable per-task seed from a base seed and identifying parts.

    Unlike the builtin ``hash``, the derivation is stable across processes
    and interpreter invocations (``PYTHONHASHSEED`` does not affect it), so
    seeded campaigns reproduce bit-for-bit no matter where the task runs.
    """
    text = "|".join(str(part) for part in parts)
    return (base * 1_000_003 + zlib.crc32(text.encode("utf-8"))) % (2**31)


@dataclass(frozen=True)
class TaskSpec:
    """One deterministic unit of work."""

    key: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: Mapping[str, Any] | None = None
    seed: int | None = None
    stage: str | None = None

    def __call__(self) -> Any:
        return self.fn(*self.args, **(self.kwargs or {}))


@dataclass
class TaskResult:
    """Outcome of one task: a value or an error, plus instrumentation."""

    key: str
    value: Any = None
    error: BaseException | None = None
    duration: float = 0.0
    worker: str = ""
    seed: int | None = None
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None


__all__ = ["TaskSpec", "TaskResult", "derive_seed", "POOL_PAYLOAD", "substitute_payload"]
