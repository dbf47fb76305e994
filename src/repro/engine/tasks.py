"""Task specifications and results for the execution engine.

A :class:`TaskSpec` is a self-contained, deterministic unit of work: a
callable plus its (positional/keyword) arguments, a stable ``key`` naming the
task, and an optional per-task ``seed``.  Keeping the callable and arguments
separate (instead of closing over them) keeps tasks picklable, so the same
spec can run on the serial, thread-pool or process-pool executor.

A :class:`TaskResult` pairs the task key with either a value or the raised
exception, plus the wall time.  Executors always return results in
**submission order**, never completion order — that single invariant is
what lets callers fan work out across workers and still produce
byte-identical aggregates.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping


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

    def __call__(self) -> Any:
        return self.fn(*self.args, **(self.kwargs or {}))


@dataclass
class TaskResult:
    """Outcome of one task: a value or an error, plus instrumentation."""

    key: str
    value: Any = None
    error: BaseException | None = None
    duration: float = 0.0
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


__all__ = ["TaskSpec", "TaskResult", "derive_seed"]
