"""Top-level syzlang constructs: definitions, syscalls, and spec suites.

A *specification suite* (:class:`SpecSuite`) is the unit everything else in
the library works with: KernelGPT and the baselines produce suites, the
validator checks suites, and the fuzzer generates programs from suites.  A
suite aggregates:

* resource definitions          ``resource fd_dm[fd]``
* flag-set definitions          ``dm_flags = DM_READONLY, DM_SUSPEND``
* struct/union definitions      ``dm_ioctl { ... }``
* syscall descriptions          ``ioctl$DM_DEV_CREATE(fd fd_dm, cmd const[...], arg ptr[...])``

Syscall descriptions use Syzkaller's ``name$variant`` convention, so that a
single generic syscall (``ioctl``) can have many per-command descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping

from ..errors import SyzlangError
from .types import (
    Field,
    NamedTypeRef,
    PtrType,
    ResourceRef,
    TypeExpr,
    TypeSizeResolver,
    walk_type,
)

#: Base resource kinds that do not require a definition in the suite.  Plain
#: integer widths are allowed because resources are frequently derived from
#: kernel-assigned integer identifiers (e.g. ``resource msm_submitqueue_id[int32]``).
BUILTIN_RESOURCE_KINDS = (
    "fd",
    "sock",
    "pid",
    "uid",
    "gid",
    "timerid",
    "int8",
    "int16",
    "int32",
    "int64",
    "intptr",
)

#: Generic syscalls the reproduction's kernel substrate understands.
KNOWN_SYSCALL_NAMES = (
    "openat",
    "open",
    "close",
    "read",
    "write",
    "mmap",
    "poll",
    "ioctl",
    "socket",
    "bind",
    "connect",
    "accept",
    "listen",
    "sendto",
    "recvfrom",
    "sendmsg",
    "recvmsg",
    "setsockopt",
    "getsockopt",
)


@dataclass(frozen=True)
class ResourceDef:
    """Declaration of a resource type (``resource fd_dm[fd]``).

    Resources model inter-syscall dependencies: a syscall that *returns* a
    resource (e.g. ``openat$dm``) must run before syscalls that *consume* it.
    """

    name: str
    kind: str = "fd"
    values: tuple[int, ...] = ()

    def render(self) -> str:
        suffix = f": {', '.join(str(v) for v in self.values)}" if self.values else ""
        return f"resource {self.name}[{self.kind}]{suffix}"


@dataclass(frozen=True)
class FlagsDef:
    """A named set of flag constants (``dm_flags = DM_READONLY, DM_SUSPEND``)."""

    name: str
    values: tuple[str, ...]

    def render(self) -> str:
        return f"{self.name} = {', '.join(self.values)}"


@dataclass(frozen=True)
class StructDef:
    """A struct layout definition with named, typed fields."""

    name: str
    fields: tuple[Field, ...]
    packed: bool = False

    def render(self) -> str:
        lines = [f"{self.name} {{"]
        lines.extend(f"\t{member.render()}" for member in self.fields)
        lines.append("} [packed]" if self.packed else "}")
        return "\n".join(lines)

    def field_names(self) -> tuple[str, ...]:
        return tuple(member.name for member in self.fields)

    def byte_size(self, resolver: TypeSizeResolver | None = None) -> int:
        return sum(member.type.byte_size(resolver) for member in self.fields)


@dataclass(frozen=True)
class UnionDef:
    """A union definition; its size is the size of its largest variant."""

    name: str
    fields: tuple[Field, ...]

    def render(self) -> str:
        lines = [f"{self.name} ["]
        lines.extend(f"\t{member.render()}" for member in self.fields)
        lines.append("]")
        return "\n".join(lines)

    def field_names(self) -> tuple[str, ...]:
        return tuple(member.name for member in self.fields)

    def byte_size(self, resolver: TypeSizeResolver | None = None) -> int:
        if not self.fields:
            return 0
        return max(member.type.byte_size(resolver) for member in self.fields)


@dataclass(frozen=True)
class Param:
    """A named syscall parameter."""

    name: str
    type: TypeExpr

    def render(self) -> str:
        return f"{self.name} {self.type.render()}"


@dataclass(frozen=True)
class Syscall:
    """A single syscall description (``ioctl$DM_DEV_CREATE(...) fd_dm``).

    Attributes
    ----------
    name:
        The generic syscall name, e.g. ``ioctl`` or ``openat``.
    variant:
        The Syzkaller variant suffix after ``$``; empty for unsuffixed calls.
    params:
        Ordered parameters.
    returns:
        Resource produced by the call, if any (drives dependency ordering).
    comment:
        Free-form provenance note (generator name, source handler).
    """

    name: str
    variant: str = ""
    params: tuple[Param, ...] = ()
    returns: ResourceRef | None = None
    comment: str = ""

    @property
    def full_name(self) -> str:
        """Return the canonical ``name$variant`` form used throughout Syzkaller."""
        return f"{self.name}${self.variant}" if self.variant else self.name

    def render(self) -> str:
        params = ", ".join(param.render() for param in self.params)
        ret = f" {self.returns.render()}" if self.returns is not None else ""
        text = f"{self.full_name}({params}){ret}"
        if self.comment:
            text = f"# {self.comment}\n{text}"
        return text

    def referenced_names(self) -> Iterator[str]:
        for param in self.params:
            yield from param.type.referenced_names()
        if self.returns is not None:
            yield self.returns.name

    def referenced_constants(self) -> Iterator[str]:
        for param in self.params:
            yield from param.type.referenced_constants()

    def consumed_resources(self) -> tuple[str, ...]:
        """Return resource names this syscall takes as inputs."""
        names: list[str] = []
        for param in self.params:
            for expr in walk_type(param.type):
                if isinstance(expr, ResourceRef):
                    names.append(expr.name)
        return tuple(names)

    def produced_resource(self) -> str | None:
        """Return the resource name this syscall creates, if any."""
        return self.returns.name if self.returns is not None else None


class SpecSuite:
    """A mutable collection of syzlang definitions and syscall descriptions.

    The suite enforces uniqueness of definition names and syscall full names;
    it deliberately does *not* validate references eagerly, because generation
    pipelines assemble suites incrementally and the validator reports dangling
    references with dedicated diagnostics afterwards.
    """

    def __init__(self, name: str = "suite"):
        self.name = name
        self._resources: dict[str, ResourceDef] = {}
        self._flags: dict[str, FlagsDef] = {}
        self._structs: dict[str, StructDef] = {}
        self._unions: dict[str, UnionDef] = {}
        self._syscalls: dict[str, Syscall] = {}

    # ------------------------------------------------------------------ add
    def add_resource(self, resource: ResourceDef, *, replace_existing: bool = False) -> None:
        self._add(self._resources, resource.name, resource, "resource", replace_existing)

    def add_flags(self, flags: FlagsDef, *, replace_existing: bool = False) -> None:
        self._add(self._flags, flags.name, flags, "flags", replace_existing)

    def add_struct(self, struct: StructDef, *, replace_existing: bool = False) -> None:
        if struct.name in self._unions and not replace_existing:
            raise SyzlangError(f"definition {struct.name!r} already exists as a union")
        self._add(self._structs, struct.name, struct, "struct", replace_existing)

    def add_union(self, union: UnionDef, *, replace_existing: bool = False) -> None:
        if union.name in self._structs and not replace_existing:
            raise SyzlangError(f"definition {union.name!r} already exists as a struct")
        self._add(self._unions, union.name, union, "union", replace_existing)

    def add_syscall(self, syscall: Syscall, *, replace_existing: bool = False) -> None:
        self._add(self._syscalls, syscall.full_name, syscall, "syscall", replace_existing)

    @staticmethod
    def _add(table: dict, key: str, value, kind: str, replace_existing: bool) -> None:
        if key in table and not replace_existing:
            raise SyzlangError(f"duplicate {kind} definition: {key!r}")
        table[key] = value

    # --------------------------------------------------------------- lookup
    @property
    def resources(self) -> Mapping[str, ResourceDef]:
        return dict(self._resources)

    @property
    def flags(self) -> Mapping[str, FlagsDef]:
        return dict(self._flags)

    @property
    def structs(self) -> Mapping[str, StructDef]:
        return dict(self._structs)

    @property
    def unions(self) -> Mapping[str, UnionDef]:
        return dict(self._unions)

    @property
    def syscalls(self) -> Mapping[str, Syscall]:
        return dict(self._syscalls)

    def syscall_names(self) -> tuple[str, ...]:
        return tuple(self._syscalls)

    def remove_syscall(self, full_name: str) -> bool:
        """Remove a syscall description; returns True if it existed."""
        return self._syscalls.pop(full_name, None) is not None

    def get_syscall(self, full_name: str) -> Syscall:
        try:
            return self._syscalls[full_name]
        except KeyError:
            raise SyzlangError(f"unknown syscall {full_name!r} in suite {self.name!r}") from None

    def get_type_def(self, name: str) -> StructDef | UnionDef | None:
        """Return the struct or union definition named ``name``, if present."""
        return self._structs.get(name) or self._unions.get(name)

    def has_definition(self, name: str) -> bool:
        """Return True if ``name`` is any kind of definition in this suite."""
        return (
            name in self._resources
            or name in self._flags
            or name in self._structs
            or name in self._unions
        )

    def __len__(self) -> int:
        return len(self._syscalls)

    def __contains__(self, full_name: str) -> bool:
        return full_name in self._syscalls

    def __iter__(self) -> Iterator[Syscall]:
        return iter(self._syscalls.values())

    # ----------------------------------------------------------- operations
    def copy(self, name: str | None = None) -> "SpecSuite":
        """Return a shallow copy of the suite (definitions are immutable)."""
        duplicate = SpecSuite(name or self.name)
        duplicate._resources = dict(self._resources)
        duplicate._flags = dict(self._flags)
        duplicate._structs = dict(self._structs)
        duplicate._unions = dict(self._unions)
        duplicate._syscalls = dict(self._syscalls)
        return duplicate

    def merge(self, other: "SpecSuite", *, prefer: str = "self") -> "SpecSuite":
        """Return a new suite combining ``self`` and ``other``.

        ``prefer`` selects which side wins on name clashes; the paper's
        evaluation always merges generated specs *into* the existing Syzkaller
        corpus, keeping the hand-written version on conflict (``prefer="self"``).
        """
        if prefer not in ("self", "other"):
            raise ValueError("prefer must be 'self' or 'other'")
        merged = self.copy(f"{self.name}+{other.name}")
        replace_existing = prefer == "other"
        for resource in other._resources.values():
            if replace_existing or resource.name not in merged._resources:
                merged._resources[resource.name] = resource
        for flags in other._flags.values():
            if replace_existing or flags.name not in merged._flags:
                merged._flags[flags.name] = flags
        for struct in other._structs.values():
            if replace_existing or struct.name not in merged._structs:
                merged._structs[struct.name] = struct
        for union in other._unions.values():
            if replace_existing or union.name not in merged._unions:
                merged._unions[union.name] = union
        for syscall in other._syscalls.values():
            if replace_existing or syscall.full_name not in merged._syscalls:
                merged._syscalls[syscall.full_name] = syscall
        return merged

    def subset_for_syscalls(self, full_names: Iterable[str]) -> "SpecSuite":
        """Return a suite containing only ``full_names`` and their definitions.

        Used when fuzzing a single driver: only the syscalls described for
        that driver are enabled, plus every definition they transitively need.
        """
        wanted = [self.get_syscall(name) for name in full_names]
        subset = SpecSuite(f"{self.name}-subset")
        for syscall in wanted:
            subset.add_syscall(syscall, replace_existing=True)
        needed: set[str] = set()
        frontier: list[str] = []
        for syscall in wanted:
            frontier.extend(syscall.referenced_names())
        while frontier:
            name = frontier.pop()
            if name in needed:
                continue
            needed.add(name)
            type_def = self.get_type_def(name)
            if type_def is not None:
                for member in type_def.fields:
                    frontier.extend(member.referenced_names())
        for name in needed:
            if name in self._resources:
                subset._resources[name] = self._resources[name]
            if name in self._flags:
                subset._flags[name] = self._flags[name]
            if name in self._structs:
                subset._structs[name] = self._structs[name]
            if name in self._unions:
                subset._unions[name] = self._unions[name]
        return subset

    def produced_resources(self) -> set[str]:
        """Return every resource some syscall in the suite can create.

        A resource counts as produced when it is a syscall return value *or*
        when it appears inside an output-capable (``out``/``inout``) pointer
        argument — e.g. the ``id`` field of ``drm_msm_submitqueue`` written by
        ``ioctl$MSM_SUBMITQUEUE_NEW`` in the paper's Figure 3.
        """
        produced: set[str] = set()
        for syscall in self._syscalls.values():
            if syscall.returns is not None:
                produced.add(syscall.returns.name)
            for param in syscall.params:
                for expr in walk_type(param.type):
                    if isinstance(expr, PtrType) and expr.direction in ("out", "inout"):
                        produced.update(self._resources_inside(expr.elem, set()))
        return produced

    def _resources_inside(self, expr: TypeExpr, visited: set[str]) -> set[str]:
        """Collect resource names reachable from ``expr`` through type definitions."""
        found: set[str] = set()
        for node in walk_type(expr):
            if isinstance(node, ResourceRef):
                found.add(node.name)
            elif isinstance(node, NamedTypeRef):
                if node.name in self._resources:
                    found.add(node.name)
                    continue
                if node.name in visited:
                    continue
                visited.add(node.name)
                type_def = self.get_type_def(node.name)
                if type_def is not None:
                    for member in type_def.fields:
                        found.update(self._resources_inside(member.type, visited))
        return found

    def size_resolver(self) -> TypeSizeResolver:
        """Return a resolver for struct/union byte sizes defined in this suite."""
        return _SuiteSizeResolver(self)

    def stats(self) -> dict[str, int]:
        """Return simple counts used throughout the evaluation tables."""
        return {
            "syscalls": len(self._syscalls),
            "resources": len(self._resources),
            "structs": len(self._structs),
            "unions": len(self._unions),
            "flags": len(self._flags),
            "types": len(self._structs) + len(self._unions),
        }


class _SuiteSizeResolver(TypeSizeResolver):
    """Resolves named type sizes against a suite, guarding against recursion."""

    def __init__(self, suite: SpecSuite):
        self._suite = suite
        self._active: set[str] = set()

    def size_of(self, name: str) -> int:
        if name in self._active:
            return 8
        type_def = self._suite.get_type_def(name)
        if type_def is None:
            return 8
        self._active.add(name)
        try:
            return type_def.byte_size(self)
        finally:
            self._active.discard(name)


__all__ = [
    "BUILTIN_RESOURCE_KINDS",
    "KNOWN_SYSCALL_NAMES",
    "ResourceDef",
    "FlagsDef",
    "StructDef",
    "UnionDef",
    "Param",
    "Syscall",
    "SpecSuite",
]
