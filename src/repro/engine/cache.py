"""A thread-safe, single-flight memoizing cache with hit/miss statistics.

The cache backs the engine's two memoization points — extractor lookups and
LLM queries — where the computed value is a pure function of the key.  Two
properties matter for determinism under concurrency:

* **single-flight**: when several workers ask for the same missing key at
  once, exactly one computes it and the others wait for that result.  This
  keeps side-effect counters behind the compute (e.g. the LLM backend's
  usage meter) identical between ``jobs=1`` and ``jobs=N`` runs;
* **deterministic accounting**: misses always equal the number of distinct
  keys computed, hits the number of calls served from memory, so cache
  statistics are reproducible for a fixed workload regardless of schedule.

A failed compute removes the in-flight entry (and does not count as a miss),
so a later call may retry.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Sequence


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    name: str
    hits: int = 0
    misses: int = 0
    errors: int = 0

    @property
    def calls(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.calls if self.calls else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "hit_rate": round(self.hit_rate, 4),
        }


class _Entry:
    """One cache slot: a value once ready, or an in-flight computation."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None


class MemoCache:
    """Single-flight memoization keyed by any hashable value."""

    def __init__(self, name: str = "cache"):
        self.name = name
        self.stats = CacheStats(name)
        self._lock = threading.Lock()
        self._entries: dict[Hashable, _Entry] = {}

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it at most once."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = _Entry()
                self._entries[key] = entry
                owner = True
                self.stats.misses += 1
            else:
                owner = False
        if owner:
            try:
                entry.value = compute()
            except BaseException as exc:  # noqa: BLE001 - propagated to waiters
                entry.error = exc
                with self._lock:
                    self._entries.pop(key, None)
                    self.stats.misses -= 1
                    self.stats.errors += 1
                entry.event.set()
                raise
            entry.event.set()
            return entry.value
        entry.event.wait()
        if entry.error is not None:
            # The compute this caller waited on failed: it was served an
            # exception, not a memoized value, so it counts as neither hit
            # nor miss (the owner already counted the error).
            raise entry.error
        with self._lock:
            self.stats.hits += 1
        return entry.value

    def get_or_compute_many(
        self,
        keys: "Sequence[Hashable]",
        compute_many: "Callable[[list[int]], Sequence[Any]]",
    ) -> list[Any]:
        """Batched :meth:`get_or_compute`: one compute call for all misses.

        The caller becomes the owner of every key that has no entry yet
        (first occurrence only — duplicate keys within ``keys`` collapse to
        one owned slot) and ``compute_many(owned_positions)`` produces their
        values in one call, where ``owned_positions`` are indices into
        ``keys``.  Keys owned by concurrent callers are waited on after the
        owned batch computed, so a batch that contains its own duplicates
        never deadlocks on itself.  Accounting matches the single-key path:
        one miss per owned key, one hit per position served from memory
        (in-batch duplicates included), and a failed batch compute removes
        every owned entry so later calls retry.
        """
        entries: list[_Entry] = []
        owned_positions: list[int] = []
        with self._lock:
            for position, key in enumerate(keys):
                entry = self._entries.get(key)
                if entry is None:
                    entry = _Entry()
                    self._entries[key] = entry
                    owned_positions.append(position)
                    self.stats.misses += 1
                entries.append(entry)
        if owned_positions:
            try:
                values = compute_many(owned_positions)
            except BaseException as exc:  # noqa: BLE001 - propagated to waiters
                with self._lock:
                    for position in owned_positions:
                        self._entries.pop(keys[position], None)
                        self.stats.misses -= 1
                        self.stats.errors += 1
                for position in owned_positions:
                    entries[position].error = exc
                    entries[position].event.set()
                raise
            for position, value in zip(owned_positions, values):
                entries[position].value = value
                entries[position].event.set()
        results: list[Any] = []
        hits = 0
        owned = set(owned_positions)
        for position, entry in enumerate(entries):
            if position not in owned:
                entry.event.wait()
                if entry.error is not None:
                    raise entry.error
                hits += 1
            results.append(entry.value)
        if hits:
            with self._lock:
                self.stats.hits += hits
        return results

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for entry in self._entries.values() if entry.event.is_set())

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry.event.is_set() and entry.error is None


__all__ = ["MemoCache", "CacheStats"]
