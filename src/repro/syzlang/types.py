"""Type expressions of the syzlang specification language.

Syzlang (the Syzkaller description language) describes the byte layout and
semantics of syscall arguments.  This module models the subset of the type
language that KernelGPT and the baselines emit:

* scalar integers with optional value ranges (``int32``, ``int64[0:3]``)
* compile-time constants (``const[DM_VERSION, int32]``)
* flag sets (``flags[msm_submitqueue_flags, int32]``)
* strings, optionally restricted to fixed values (``string["/dev/msm"]``)
* pointers with a direction (``ptr[inout, dm_ioctl]``)
* arrays with optional fixed length (``array[int8]``, ``array[int32, 3]``)
* length-of relationships (``len[devices, int32]``)
* references to resources (``fd_dm``) and to named structs/unions
* filename and buffer conveniences used by generated descriptions

Every type expression knows how to render itself back to syzlang text
(:meth:`TypeExpr.render`), how to report the names it references
(:meth:`TypeExpr.referenced_names`), and how large its in-memory encoding is
for the fuzzer's program builder (:meth:`TypeExpr.byte_size`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, Sequence

#: Widths (in bytes) of the integer base types syzlang understands.
INT_WIDTHS = {
    "int8": 1,
    "int16": 2,
    "int32": 4,
    "int64": 8,
    "intptr": 8,
}

#: Pointer directions accepted by ``ptr[...]``.
PTR_DIRECTIONS = ("in", "out", "inout")

#: Size used for pointer-valued arguments in the simulated ABI.
POINTER_SIZE = 8

#: Default number of elements assumed for variable-length arrays when a
#: concrete size is needed (program generation, byte-size estimates).
DEFAULT_ARRAY_ELEMS = 4


class TypeExpr:
    """Base class for every syzlang type expression.

    Subclasses are frozen dataclasses; type expressions are immutable value
    objects and can be shared freely between specs.
    """

    def render(self) -> str:
        """Return the syzlang textual form of this type expression."""
        raise NotImplementedError

    def referenced_names(self) -> Iterator[str]:
        """Yield names of structs, unions, resources and flag sets used here.

        The validator uses this to check that every reference resolves; the
        serializer uses it to order definitions.
        """
        return iter(())

    def referenced_constants(self) -> Iterator[str]:
        """Yield macro/constant identifiers that must be resolvable."""
        return iter(())

    def byte_size(self, resolver: "TypeSizeResolver | None" = None) -> int:
        """Return the encoded size in bytes of a value of this type.

        ``resolver`` supplies sizes for named struct/union references; when it
        is omitted, named references fall back to a pointer-sized estimate.
        """
        raise NotImplementedError

    def is_output(self) -> bool:
        """Return True if this expression only carries data out of the kernel."""
        return False

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


class TypeSizeResolver:
    """Protocol-ish helper that resolves named type sizes for byte_size()."""

    def size_of(self, name: str) -> int:
        raise NotImplementedError


def _check_width(type_width: str) -> str:
    if type_width not in INT_WIDTHS:
        raise ValueError(f"unknown integer width {type_width!r}; expected one of {sorted(INT_WIDTHS)}")
    return type_width


@dataclass(frozen=True)
class IntType(TypeExpr):
    """A plain integer, optionally restricted to an inclusive range.

    ``IntType("int32")`` renders as ``int32``;
    ``IntType("int32", 0, 3)`` renders as ``int32[0:3]``.
    """

    width: str = "int32"
    min_value: int | None = None
    max_value: int | None = None

    def __post_init__(self) -> None:
        _check_width(self.width)
        if (self.min_value is None) != (self.max_value is None):
            raise ValueError("IntType range requires both min_value and max_value")
        if self.min_value is not None and self.max_value is not None and self.min_value > self.max_value:
            raise ValueError(f"IntType range is inverted: [{self.min_value}:{self.max_value}]")

    def render(self) -> str:
        if self.min_value is None:
            return self.width
        return f"{self.width}[{self.min_value}:{self.max_value}]"

    def byte_size(self, resolver: TypeSizeResolver | None = None) -> int:
        return INT_WIDTHS[self.width]


@dataclass(frozen=True)
class ConstType(TypeExpr):
    """A constant value, usually a macro name (``const[DM_VERSION, int32]``).

    ``value`` may be an integer literal or a macro identifier; macro
    identifiers must be resolvable by the constant table during validation.
    """

    value: int | str
    width: str = "int32"

    def __post_init__(self) -> None:
        _check_width(self.width)

    def render(self) -> str:
        return f"const[{self.value}, {self.width}]"

    def referenced_constants(self) -> Iterator[str]:
        if isinstance(self.value, str):
            yield self.value

    def byte_size(self, resolver: TypeSizeResolver | None = None) -> int:
        return INT_WIDTHS[self.width]


@dataclass(frozen=True)
class FlagsType(TypeExpr):
    """A reference to a named flag set (``flags[dm_flags, int32]``)."""

    flags_name: str
    width: str = "int32"

    def __post_init__(self) -> None:
        _check_width(self.width)

    def render(self) -> str:
        return f"flags[{self.flags_name}, {self.width}]"

    def referenced_names(self) -> Iterator[str]:
        yield self.flags_name

    def byte_size(self, resolver: TypeSizeResolver | None = None) -> int:
        return INT_WIDTHS[self.width]


@dataclass(frozen=True)
class StringType(TypeExpr):
    """A NUL-terminated string, optionally fixed to specific values.

    ``StringType(("/dev/msm",))`` renders as ``string["/dev/msm"]`` and is the
    canonical way device file names appear in ``openat`` descriptions.
    """

    values: tuple[str, ...] = ()

    def render(self) -> str:
        if not self.values:
            return "string"
        if len(self.values) == 1:
            return f'string["{self.values[0]}"]'
        joined = ", ".join(f'"{value}"' for value in self.values)
        return f"string[{joined}]"

    def byte_size(self, resolver: TypeSizeResolver | None = None) -> int:
        if not self.values:
            return 16
        return max(len(value) for value in self.values) + 1


@dataclass(frozen=True)
class FilenameType(TypeExpr):
    """A generic filename argument (``filename``), used by openat fallbacks."""

    def render(self) -> str:
        return "filename"

    def byte_size(self, resolver: TypeSizeResolver | None = None) -> int:
        return 32


@dataclass(frozen=True)
class PtrType(TypeExpr):
    """A userspace pointer to another type (``ptr[inout, dm_ioctl]``)."""

    direction: str
    elem: TypeExpr

    def __post_init__(self) -> None:
        if self.direction not in PTR_DIRECTIONS:
            raise ValueError(f"invalid pointer direction {self.direction!r}; expected one of {PTR_DIRECTIONS}")

    def render(self) -> str:
        return f"ptr[{self.direction}, {self.elem.render()}]"

    def referenced_names(self) -> Iterator[str]:
        return self.elem.referenced_names()

    def referenced_constants(self) -> Iterator[str]:
        return self.elem.referenced_constants()

    def byte_size(self, resolver: TypeSizeResolver | None = None) -> int:
        return POINTER_SIZE

    def is_output(self) -> bool:
        return self.direction == "out"


@dataclass(frozen=True)
class ArrayType(TypeExpr):
    """A contiguous array of elements, optionally of fixed length."""

    elem: TypeExpr
    length: int | None = None

    def __post_init__(self) -> None:
        if self.length is not None and self.length < 0:
            raise ValueError("array length must be non-negative")

    def render(self) -> str:
        if self.length is None:
            return f"array[{self.elem.render()}]"
        return f"array[{self.elem.render()}, {self.length}]"

    def referenced_names(self) -> Iterator[str]:
        return self.elem.referenced_names()

    def referenced_constants(self) -> Iterator[str]:
        return self.elem.referenced_constants()

    def byte_size(self, resolver: TypeSizeResolver | None = None) -> int:
        count = self.length if self.length is not None else DEFAULT_ARRAY_ELEMS
        return count * self.elem.byte_size(resolver)


@dataclass(frozen=True)
class LenType(TypeExpr):
    """A field whose value is the length of a sibling field (``len[devices, int32]``).

    This is the construct that distinguishes semantically-aware generators
    (KernelGPT) from purely structural ones (Figure 5 in the paper).
    """

    target: str
    width: str = "int32"

    def __post_init__(self) -> None:
        _check_width(self.width)

    def render(self) -> str:
        return f"len[{self.target}, {self.width}]"

    def byte_size(self, resolver: TypeSizeResolver | None = None) -> int:
        return INT_WIDTHS[self.width]


@dataclass(frozen=True)
class ResourceRef(TypeExpr):
    """A use of a named resource (``fd_dm``) as an argument or return value."""

    name: str

    def render(self) -> str:
        return self.name

    def referenced_names(self) -> Iterator[str]:
        yield self.name

    def byte_size(self, resolver: TypeSizeResolver | None = None) -> int:
        return 4


@dataclass(frozen=True)
class NamedTypeRef(TypeExpr):
    """A reference to a named struct or union defined elsewhere in the suite."""

    name: str

    def render(self) -> str:
        return self.name

    def referenced_names(self) -> Iterator[str]:
        yield self.name

    def byte_size(self, resolver: TypeSizeResolver | None = None) -> int:
        if resolver is None:
            return POINTER_SIZE
        return resolver.size_of(self.name)


@dataclass(frozen=True)
class VoidType(TypeExpr):
    """An explicitly empty payload (``void``), used by some ioctl variants."""

    def render(self) -> str:
        return "void"

    def byte_size(self, resolver: TypeSizeResolver | None = None) -> int:
        return 0


@dataclass(frozen=True)
class BufferType(TypeExpr):
    """An untyped byte buffer with direction, shorthand for ``array[int8]``."""

    direction: str = "in"

    def __post_init__(self) -> None:
        if self.direction not in PTR_DIRECTIONS:
            raise ValueError(f"invalid buffer direction {self.direction!r}")

    def render(self) -> str:
        return f"buffer[{self.direction}]"

    def byte_size(self, resolver: TypeSizeResolver | None = None) -> int:
        return DEFAULT_ARRAY_ELEMS

    def is_output(self) -> bool:
        return self.direction == "out"


@dataclass(frozen=True)
class Field:
    """A named member of a struct or union definition.

    ``attrs`` carries per-field annotations such as ``out`` (the field is
    written by the kernel) exactly as they appear in parentheses in syzlang.
    """

    name: str
    type: TypeExpr
    attrs: tuple[str, ...] = ()

    def render(self) -> str:
        suffix = f" ({', '.join(self.attrs)})" if self.attrs else ""
        return f"{self.name} {self.type.render()}{suffix}"

    def referenced_names(self) -> Iterator[str]:
        return self.type.referenced_names()

    def referenced_constants(self) -> Iterator[str]:
        return self.type.referenced_constants()


def walk_type(expr: TypeExpr) -> Iterator[TypeExpr]:
    """Yield ``expr`` and every nested type expression it contains (pre-order)."""
    yield expr
    if isinstance(expr, PtrType):
        yield from walk_type(expr.elem)
    elif isinstance(expr, ArrayType):
        yield from walk_type(expr.elem)


def substitute_named_refs(expr: TypeExpr, mapping: dict[str, str]) -> TypeExpr:
    """Return ``expr`` with named struct/union references renamed via ``mapping``.

    Used by the repair stage when a definition is renamed to resolve a clash.
    """
    if isinstance(expr, NamedTypeRef) and expr.name in mapping:
        return NamedTypeRef(mapping[expr.name])
    if isinstance(expr, ResourceRef) and expr.name in mapping:
        return ResourceRef(mapping[expr.name])
    if isinstance(expr, PtrType):
        return PtrType(expr.direction, substitute_named_refs(expr.elem, mapping))
    if isinstance(expr, ArrayType):
        return ArrayType(substitute_named_refs(expr.elem, mapping), expr.length)
    return expr


def type_from_simple_name(name: str) -> TypeExpr:
    """Build a type expression from a bare identifier used in syzlang text.

    Bare identifiers are either integer widths (``int32``), ``string``,
    ``filename``, ``void``, or references to named definitions/resources.
    """
    if name in INT_WIDTHS:
        return IntType(name)
    if name == "string":
        return StringType()
    if name == "filename":
        return FilenameType()
    if name == "void":
        return VoidType()
    return NamedTypeRef(name)


__all__ = [
    "INT_WIDTHS",
    "PTR_DIRECTIONS",
    "POINTER_SIZE",
    "DEFAULT_ARRAY_ELEMS",
    "TypeExpr",
    "TypeSizeResolver",
    "IntType",
    "ConstType",
    "FlagsType",
    "StringType",
    "FilenameType",
    "PtrType",
    "ArrayType",
    "LenType",
    "ResourceRef",
    "NamedTypeRef",
    "VoidType",
    "BufferType",
    "Field",
    "walk_type",
    "substitute_named_refs",
    "type_from_simple_name",
]
