"""Ground-truth model of driver/socket operations in the synthetic kernel.

Every synthetic driver and socket in the kernel substrate is *defined* by the
structures in this module: which device node it registers, which ioctl
commands (or socket options / message operations) it implements, which
argument structure each command takes, which semantic guards the handler
checks before descending into deeper code, and which injected bug a command
can trigger.

From one of these ground-truth descriptions the builder derives three
consistent artifacts:

* the C source text placed in the synthetic kernel codebase (what the
  extractor, KernelGPT and SyzDescribe analyse);
* the behavioural model the simulated executor runs programs against
  (coverage blocks, guard evaluation, crash triggers);
* the reference syzlang specification used for the §5.1.3 correctness audit.

Keeping a single source of truth is what makes the reproduction measurable:
"did the generator infer the right command value / type / dependency?" has an
exact answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

# --------------------------------------------------------------------------
# ioctl command encoding (mirrors include/uapi/asm-generic/ioctl.h)
# --------------------------------------------------------------------------

_IOC_NONE = 0
_IOC_WRITE = 1
_IOC_READ = 2

_IOC_NRBITS = 8
_IOC_TYPEBITS = 8
_IOC_SIZEBITS = 14

_IOC_NRSHIFT = 0
_IOC_TYPESHIFT = _IOC_NRSHIFT + _IOC_NRBITS
_IOC_SIZESHIFT = _IOC_TYPESHIFT + _IOC_TYPEBITS
_IOC_DIRSHIFT = _IOC_SIZESHIFT + _IOC_SIZEBITS


def ioc(direction: str, ioc_type: int, nr: int, size: int) -> int:
    """Encode an ioctl command value the way ``_IOC()`` does in the kernel."""
    dir_bits = {"none": _IOC_NONE, "in": _IOC_WRITE, "out": _IOC_READ, "inout": _IOC_READ | _IOC_WRITE}[
        direction
    ]
    return (
        (dir_bits << _IOC_DIRSHIFT)
        | ((ioc_type & 0xFF) << _IOC_TYPESHIFT)
        | ((nr & 0xFF) << _IOC_NRSHIFT)
        | ((size & 0x3FFF) << _IOC_SIZESHIFT)
    )


def ioc_nr(command: int) -> int:
    """Extract the NR field from an encoded command (``_IOC_NR``)."""
    return command & 0xFF


# --------------------------------------------------------------------------
# Registration / dispatch styles
# --------------------------------------------------------------------------


class RegistrationStyle(str, Enum):
    """How the driver exposes its device node to userspace."""

    MISC_NAME = "misc-name"          # miscdevice{.name}; device at /dev/<name>
    MISC_NODENAME = "misc-nodename"  # miscdevice{.name, .nodename}; device at /dev/<nodename>
    CDEV = "cdev"                    # cdev_add + device_create("<name>%d")
    PROC = "proc"                    # proc_create("<name>")


class DispatchStyle(str, Enum):
    """How the ioctl handler maps command values to per-command logic."""

    DIRECT_SWITCH = "direct-switch"    # switch (cmd) in the registered handler
    DELEGATED = "delegated"            # registered handler calls a helper that switches
    IOC_NR_REWRITE = "ioc-nr-rewrite"  # helper switches on _IOC_NR(cmd), not cmd
    TABLE_LOOKUP = "table-lookup"      # helper looks the command up in a static table


class ArgKind(str, Enum):
    """What the untyped third ioctl argument actually is."""

    NONE = "none"        # argument ignored
    SCALAR = "scalar"    # plain integer
    STRUCT = "struct"    # pointer to a struct copied in/out
    RESOURCE_OUT = "resource-out"  # pointer to an int the kernel fills with a new resource


# --------------------------------------------------------------------------
# Struct / field ground truth
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldTruth:
    """One field of a kernel argument struct.

    ``c_type`` is the C spelling (``__u32``, ``__u64``, ``char``), rendered in
    the synthetic source; ``array_len`` > 0 renders ``type name[len]``;
    ``array_len`` == 0 with ``flexible=True`` renders a flexible array member.
    ``len_of`` names a sibling flexible/variable array whose element count this
    field carries — the semantic relationship static analysis misses
    (Figure 5) and KernelGPT expresses with ``len[...]``.
    ``struct_ref`` makes the field an embedded struct (or array of structs).
    ``out`` marks kernel-written fields (e.g. returned identifiers).
    ``resource`` names the abstract resource this field carries, if any.
    """

    name: str
    c_type: str = "__u32"
    array_len: int = 0
    flexible: bool = False
    len_of: str | None = None
    struct_ref: str | None = None
    out: bool = False
    resource: str | None = None
    valid_range: tuple[int, int] | None = None
    comment: str = ""

    def byte_size(self, struct_sizes: Mapping[str, int] | None = None) -> int:
        base = _C_TYPE_SIZES.get(self.c_type, 4)
        if self.struct_ref is not None and struct_sizes is not None:
            base = struct_sizes.get(self.struct_ref, 8)
        if self.flexible:
            return 0
        if self.array_len:
            return base * self.array_len
        return base


_C_TYPE_SIZES = {
    "__u8": 1,
    "__s8": 1,
    "char": 1,
    "__u16": 2,
    "__s16": 2,
    "__u32": 4,
    "__s32": 4,
    "int": 4,
    "unsigned int": 4,
    "__u64": 8,
    "__s64": 8,
    "unsigned long": 8,
}

#: Mapping from C field types to syzlang integer widths.
C_TO_SYZ_WIDTH = {
    "__u8": "int8",
    "__s8": "int8",
    "char": "int8",
    "__u16": "int16",
    "__s16": "int16",
    "__u32": "int32",
    "__s32": "int32",
    "int": "int32",
    "unsigned int": "int32",
    "__u64": "int64",
    "__s64": "int64",
    "unsigned long": "int64",
}


@dataclass(frozen=True)
class StructTruth:
    """Ground truth for a kernel argument struct definition."""

    name: str
    fields: tuple[FieldTruth, ...]
    comment: str = ""

    def field_names(self) -> tuple[str, ...]:
        return tuple(member.name for member in self.fields)

    def byte_size(self, struct_sizes: Mapping[str, int] | None = None) -> int:
        return sum(member.byte_size(struct_sizes) for member in self.fields)


# --------------------------------------------------------------------------
# Guards and bug triggers
# --------------------------------------------------------------------------


class GuardKind(str, Enum):
    """Semantic checks a handler performs before reaching deeper code."""

    MIN_SIZE = "min-size"            # copy_from_user of the full struct must succeed
    FIELD_RANGE = "field-range"      # field value must fall within [lo, hi]
    FIELD_EQUALS = "field-equals"    # field must equal a constant
    LEN_MATCHES = "len-matches"      # count field must match sibling array length
    FLAGS_SUBSET = "flags-subset"    # flags field must only contain known bits
    NEEDS_RESOURCE = "needs-resource"  # a resource from an earlier call is required


@dataclass(frozen=True)
class Guard:
    """One semantic validity check inside a command handler.

    ``bonus_blocks`` is the number of additional basic blocks covered when the
    check passes; programs generated from poor specifications fail guards and
    stay in the shallow error paths.
    """

    kind: GuardKind
    field: str = ""
    low: int = 0
    high: int = 0
    value: int = 0
    target: str = ""
    resource: str = ""
    bonus_blocks: int = 4


@dataclass(frozen=True)
class BugTrigger:
    """Conditions under which a command triggers an injected kernel bug.

    ``requires_typed`` means the trigger field values are only reachable when
    the fuzzer knows the argument's struct layout (i.e. the spec describes the
    type), mirroring how the paper's bugs were unreachable from untyped or
    wrongly-typed descriptions.  ``requires_resource`` additionally demands a
    correctly-ordered earlier syscall that produced the named resource.
    """

    bug_id: str
    field: str = ""
    min_value: int | None = None
    max_value: int | None = None
    equals: int | None = None
    requires_typed: bool = True
    requires_resource: str = ""
    probability: float = 1.0


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class IoctlOp:
    """Ground truth for one ioctl command of a driver handler.

    ``macro`` is the userspace-visible command macro (what a correct spec must
    use); ``value`` its encoded value; ``nr_macro``/``nr_value`` the inner
    switch constant when the driver rewrites the command with ``_IOC_NR``.
    """

    macro: str
    value: int
    arg_kind: ArgKind = ArgKind.STRUCT
    arg_struct: str | None = None
    direction: str = "in"
    nr_macro: str | None = None
    nr_value: int | None = None
    base_blocks: int = 6
    guards: tuple[Guard, ...] = ()
    produces: str | None = None
    requires: str | None = None
    bug: BugTrigger | None = None
    handler_fn: str | None = None
    comment: str = ""

    @property
    def interface_name(self) -> str:
        """The canonical interface label (``ioctl$MACRO``) used in accounting."""
        return f"ioctl${self.macro}"


@dataclass(frozen=True)
class SockOp:
    """Ground truth for one socket operation (setsockopt/getsockopt/sendto...).

    ``syscall`` is the generic syscall implementing the operation; for
    ``setsockopt``/``getsockopt`` the ``optname`` macro/value identify it, for
    message syscalls the operation is identified by the syscall itself.
    """

    syscall: str
    macro: str
    value: int = 0
    level_macro: str = "SOL_SOCKET"
    level_value: int = 1
    arg_struct: str | None = None
    direction: str = "in"
    base_blocks: int = 6
    guards: tuple[Guard, ...] = ()
    bug: BugTrigger | None = None
    comment: str = ""

    @property
    def interface_name(self) -> str:
        return f"{self.syscall}${self.macro}" if self.macro else self.syscall


# --------------------------------------------------------------------------
# Handlers (drivers and sockets)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DriverTruth:
    """Complete ground truth for one driver operation handler.

    ``handler_name`` is the ``file_operations`` variable name (what the
    extractor discovers); ``device_path`` the node a correct spec must open.
    ``resources`` lists secondary resources produced by ops (e.g. the KVM VM
    and VCPU file descriptors) together with the ops available on them.
    """

    name: str
    handler_name: str
    device_path: str
    registration: RegistrationStyle
    dispatch: DispatchStyle
    ioctl_handler_fn: str
    ops: tuple[IoctlOp, ...]
    structs: tuple[StructTruth, ...] = ()
    source_file: str = ""
    open_blocks: int = 8
    ioctl_entry_blocks: int = 4
    misc_name: str = ""
    config_option: str = ""
    hardware_gated: bool = False
    debug_only: bool = False
    secondary_handlers: tuple["SecondaryHandlerTruth", ...] = ()
    comment: str = ""

    def op_by_macro(self, macro: str) -> IoctlOp | None:
        for op in self.ops:
            if op.macro == macro:
                return op
        for secondary in self.secondary_handlers:
            for op in secondary.ops:
                if op.macro == macro:
                    return op
        return None

    def all_ops(self) -> tuple[IoctlOp, ...]:
        """Every op including those registered on secondary handlers."""
        ops = list(self.ops)
        for secondary in self.secondary_handlers:
            ops.extend(secondary.ops)
        return tuple(ops)

    def interface_names(self) -> tuple[str, ...]:
        """Ground-truth syscall interface labels, openat first.

        Generic syscalls are keyed by their command macro (``ioctl$DM_VERSION``)
        while the device-open interface is keyed simply as ``openat`` — variant
        suffixes for openat differ between generators and carry no semantics.
        """
        names = ["openat"]
        names.extend(op.interface_name for op in self.all_ops())
        return tuple(names)

    def struct_by_name(self, name: str) -> StructTruth | None:
        for struct in self.structs:
            if struct.name == name:
                return struct
        return None


@dataclass(frozen=True)
class SecondaryHandlerTruth:
    """A dependent operation handler reached through a produced resource.

    Example: KVM's ``kvm_vm_fops``/``kvm_vcpu_fops`` — file descriptors
    returned by ``KVM_CREATE_VM``/``KVM_CREATE_VCPU`` expose further ioctls.
    Discovering these is what gives KernelGPT its large coverage win on kvm
    (§5.2.1).
    """

    name: str
    handler_name: str
    resource: str
    ioctl_handler_fn: str
    ops: tuple[IoctlOp, ...]
    ioctl_entry_blocks: int = 4


@dataclass(frozen=True)
class SocketTruth:
    """Complete ground truth for one socket protocol handler."""

    name: str
    handler_name: str
    family_macro: str
    family_value: int
    sock_type: int
    protocol: int
    ops: tuple[SockOp, ...]
    structs: tuple[StructTruth, ...] = ()
    source_file: str = ""
    create_blocks: int = 10
    config_option: str = ""
    hardware_gated: bool = False
    comment: str = ""

    def interface_names(self) -> tuple[str, ...]:
        names = ["socket"]
        names.extend(op.interface_name for op in self.ops)
        return tuple(names)

    def struct_by_name(self, name: str) -> StructTruth | None:
        for struct in self.structs:
            if struct.name == name:
                return struct
        return None


__all__ = [
    "ioc",
    "ioc_nr",
    "RegistrationStyle",
    "DispatchStyle",
    "ArgKind",
    "FieldTruth",
    "StructTruth",
    "C_TO_SYZ_WIDTH",
    "GuardKind",
    "Guard",
    "BugTrigger",
    "IoctlOp",
    "SockOp",
    "DriverTruth",
    "SecondaryHandlerTruth",
    "SocketTruth",
]
