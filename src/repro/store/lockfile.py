"""Frozen lockfiles: pinning an experiment to exact store artifacts.

A lockfile is a JSON snapshot of the store manifest — every canonical key
mapped to the kind and blob digest it resolved to when the recording run
finished — plus a whole-file checksum.  A frozen run resolves loads through
the lockfile's pinned digests instead of the live manifest, so later writes
to the store (new recording runs, other tenants) cannot change what a
frozen rerun sees: same lockfile, same bytes, forever.

The checksum covers the canonical JSON of the entry table, so a hand-edited
or truncated lockfile fails loudly as :class:`~repro.errors.StoreCorruption`
rather than silently pinning different artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from ..errors import StoreCorruption

LOCKFILE_VERSION = 1


def _entries_checksum(entries: dict[str, dict]) -> str:
    canonical = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class FrozenLock:
    """An immutable canonical-key -> (kind, digest) pinning table."""

    def __init__(self, entries: dict[str, tuple[str, str]]):
        self._entries = dict(entries)

    @classmethod
    def freeze(cls, store) -> "FrozenLock":
        """Pin the store's current manifest (workers' entries included)."""
        return cls(store.snapshot())

    def digest_for(self, canonical: str) -> str | None:
        entry = self._entries.get(canonical)
        return entry[1] if entry is not None else None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, canonical: str) -> bool:
        return canonical in self._entries

    def kind_counts(self) -> dict[str, int]:
        """Pinned-artifact counts per kind (for freeze-time reporting)."""
        counts: dict[str, int] = {}
        for kind, _ in self._entries.values():
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

    # -------------------------------------------------------------------- io
    def write(self, path: "str | os.PathLike") -> None:
        """Write the lockfile atomically (temp file + rename)."""
        path = Path(path)
        entries = {
            canonical: {"kind": kind, "digest": digest}
            for canonical, (kind, digest) in sorted(self._entries.items())
        }
        document = {
            "version": LOCKFILE_VERSION,
            "checksum": _entries_checksum(entries),
            "entries": entries,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".tmp-{path.name}-{os.getpid()}")
        tmp.write_text(json.dumps(document, sort_keys=True, indent=1) + "\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "FrozenLock":
        path = Path(path)
        try:
            document = json.loads(path.read_text())
            version = document["version"]
            checksum = document["checksum"]
            entries = document["entries"]
        except FileNotFoundError:
            raise
        except (ValueError, KeyError, TypeError) as error:
            raise StoreCorruption(
                f"lockfile {path} is not a valid frozen lock: {error!r}", path=str(path)
            )
        if version != LOCKFILE_VERSION:
            raise StoreCorruption(
                f"lockfile {path} has unsupported version {version!r}", path=str(path)
            )
        if checksum != _entries_checksum(entries):
            raise StoreCorruption(
                f"lockfile {path} failed its checksum (edited or truncated)",
                path=str(path),
            )
        table: dict[str, tuple[str, str]] = {}
        for canonical, entry in entries.items():
            try:
                table[canonical] = (entry["kind"], entry["digest"])
            except (KeyError, TypeError) as error:
                raise StoreCorruption(
                    f"lockfile {path} entry {canonical!r} is malformed: {error!r}",
                    path=str(path),
                    key=canonical,
                )
        return cls(table)


__all__ = ["FrozenLock", "LOCKFILE_VERSION"]
