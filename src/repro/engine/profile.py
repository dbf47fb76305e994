"""Per-stage wall-time instrumentation for engine-backed runs.

Every engine batch, generation stage and campaign records into a shared
:class:`EngineProfile`; the experiment runner's ``--profile`` flag renders
the aggregate so "where does the time actually go" is answered from
measurement rather than guesswork.  All clocks are ``time.perf_counter``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace


@dataclass
class StageStats:
    """Accumulated wall time for one named stage."""

    name: str
    calls: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_seconds": round(self.total_seconds, 6),
            "max_seconds": round(self.max_seconds, 6),
            "avg_seconds": round(self.total_seconds / self.calls, 6) if self.calls else 0.0,
        }


class EngineProfile:
    """Thread-safe accumulator of per-stage timings."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: dict[str, StageStats] = {}

    def record(self, stage: str, seconds: float) -> None:
        with self._lock:
            stats = self._stages.setdefault(stage, StageStats(stage))
            stats.calls += 1
            stats.total_seconds += seconds
            stats.max_seconds = max(stats.max_seconds, seconds)

    @contextmanager
    def measure(self, stage: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.record(stage, time.perf_counter() - started)

    def merge(self, other: "EngineProfile") -> None:
        """Fold another profile's stages into this one (calls and totals add)."""
        with other._lock:
            theirs = [replace(stats) for stats in other._stages.values()]
        with self._lock:
            for stats in theirs:
                mine = self._stages.setdefault(stats.name, StageStats(stats.name))
                mine.calls += stats.calls
                mine.total_seconds += stats.total_seconds
                mine.max_seconds = max(mine.max_seconds, stats.max_seconds)

    def report(self) -> dict[str, dict]:
        """Stage name -> stats, sorted by descending total time."""
        with self._lock:
            stages = list(self._stages.values())
        stages.sort(key=lambda stats: -stats.total_seconds)
        return {stats.name: stats.as_dict() for stats in stages}

    def render(self) -> str:
        lines = ["stage timings (wall seconds)", "----------------------------"]
        report = self.report()
        if not report:
            return "\n".join(lines + ["(no stages recorded)"])
        width = max(len(name) for name in report)
        for name, stats in report.items():
            lines.append(
                f"{name.ljust(width)}  total={stats['total_seconds']:9.3f}  "
                f"calls={stats['calls']:5d}  avg={stats['avg_seconds']:8.4f}  "
                f"max={stats['max_seconds']:8.4f}"
            )
        return "\n".join(lines)


__all__ = ["EngineProfile", "StageStats"]
