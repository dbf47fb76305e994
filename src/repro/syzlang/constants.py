"""Constant (macro) resolution for syzlang specifications.

Real Syzkaller resolves macro names such as ``DM_LIST_DEVICES`` by running
``syz-extract`` against kernel headers.  In this reproduction, macro values
come from the synthetic kernel codebase's ``#define`` tables.  The
:class:`ConstantTable` is the one interface both the validator (checking that
``const[NAME]`` resolves) and the fuzzer (encoding concrete command values)
use.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from ..errors import SyzlangError


class ConstantTable:
    """A mapping from macro identifiers to integer values."""

    def __init__(self, values: Mapping[str, int] | None = None):
        self._values: dict[str, int] = dict(values or {})

    # ----------------------------------------------------------------- edit
    def define(self, name: str, value: int, *, allow_redefine: bool = False) -> None:
        """Add a macro definition.

        Redefinition with a *different* value raises unless explicitly allowed,
        because silently-conflicting constants are a classic source of invalid
        specifications.
        """
        if not allow_redefine and name in self._values and self._values[name] != value:
            raise SyzlangError(
                f"conflicting definitions for constant {name!r}: "
                f"{self._values[name]} vs {value}"
            )
        self._values[name] = value

    def update(self, other: "ConstantTable | Mapping[str, int]") -> None:
        items = other.items() if isinstance(other, Mapping) else other._values.items()
        for name, value in items:
            self.define(name, value, allow_redefine=True)

    # --------------------------------------------------------------- lookup
    def resolve(self, name_or_value: str | int) -> int:
        """Return the integer value of a macro name or pass through an int."""
        if isinstance(name_or_value, int):
            return name_or_value
        try:
            return self._values[name_or_value]
        except KeyError:
            raise SyzlangError(f"unknown constant {name_or_value!r}") from None

    def has(self, name: str) -> bool:
        return name in self._values

    def get(self, name: str, default: int | None = None) -> int | None:
        return self._values.get(name, default)

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self._values.items()))

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def copy(self) -> "ConstantTable":
        return ConstantTable(self._values)


#: Constants that the simulated libc/kernel ABI always knows about, mirroring
#: the builtin const list shipped with Syzkaller.
BUILTIN_CONSTANTS = ConstantTable(
    {
        "AT_FDCWD": 0xFFFFFF9C,
        "O_RDWR": 0x2,
        "O_RDONLY": 0x0,
        "O_WRONLY": 0x1,
        "O_NONBLOCK": 0x800,
        "SOCK_STREAM": 1,
        "SOCK_DGRAM": 2,
        "SOCK_RAW": 3,
        "SOCK_SEQPACKET": 5,
        "SOL_SOCKET": 1,
        "AF_UNIX": 1,
        "AF_INET": 2,
        "AF_INET6": 10,
        "AF_PACKET": 17,
        "AF_BLUETOOTH": 31,
        "AF_RDS": 21,
        "AF_LLC": 26,
        "AF_CAIF": 37,
        "AF_PHONET": 35,
        "AF_PPPOX": 24,
        "MSG_DONTWAIT": 0x40,
    }
)


__all__ = ["ConstantTable", "BUILTIN_CONSTANTS"]
