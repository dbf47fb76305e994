"""Syscall program representation used by the fuzzing substrate.

A program is an ordered list of syscalls with concrete argument values, the
unit Syzkaller generates, mutates and executes.  Argument values carry just
enough structure for the simulated kernel executor to evaluate the semantic
guards of the ground truth: typed struct payloads keep their *field names*
(so a specification that recovered the real field layout can hit field-level
guards and bug triggers) while untyped payloads only carry a byte size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


@dataclass(slots=True)
class StructValue:
    """A typed payload: the struct name the spec used plus concrete field values."""

    struct_name: str
    fields: dict[str, int] = field(default_factory=dict)
    byte_size: int = 0

    def get(self, field_name: str, default: int = 0) -> int:
        return self.fields.get(field_name, default)


@dataclass(slots=True)
class BytesValue:
    """An untyped payload: only its length is known."""

    length: int = 0


@dataclass(slots=True)
class ResourceValue:
    """A reference to the result of an earlier call in the same program."""

    producer_index: int


Value = int | str | StructValue | BytesValue | ResourceValue | None


@dataclass(slots=True)
class Call:
    """One concrete syscall invocation."""

    syscall: str                     # generic name: openat, ioctl, setsockopt, ...
    spec_name: str                   # the spec's full name (ioctl$DM_DEV_CREATE)
    args: dict[str, Value] = field(default_factory=dict)

    def arg(self, name: str, default: Value = None) -> Value:
        return self.args.get(name, default)


@dataclass(slots=True)
class Program:
    """An ordered sequence of calls."""

    calls: list[Call] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.calls)

    def __iter__(self):
        return iter(self.calls)

    def clone(self) -> "Program":
        # Mutation-hot path: only the mutable payload values (structs and
        # byte buffers) need fresh copies; ints/strings/None and the
        # effectively-immutable ResourceValue references are shared.
        cloned_calls = []
        append = cloned_calls.append
        for call in self.calls:
            args: dict[str, Value] = {}
            for name, value in call.args.items():
                cls = value.__class__
                if cls is StructValue:
                    value = StructValue(value.struct_name, dict(value.fields), value.byte_size)
                elif cls is BytesValue:
                    value = BytesValue(value.length)
                args[name] = value
            append(Call(call.syscall, call.spec_name, args))
        return Program(cloned_calls)


__all__ = ["StructValue", "BytesValue", "ResourceValue", "Call", "Program", "Value"]
