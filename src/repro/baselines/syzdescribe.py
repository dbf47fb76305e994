"""SyzDescribe-style static specification generation (the baseline of §5).

SyzDescribe (Hao et al., S&P 2023) infers syscall descriptions for kernel
drivers with hand-written static-analysis rules.  The reproduction models the
behaviour the paper documents, strengths and weaknesses alike:

* handler discovery through module-init / registration patterns — but only
  the *conventional* ones: ``miscdevice.name`` (never ``.nodename``), the
  ``alloc_chrdev_region`` region name (not the ``device_create`` template),
  no procfs devices;
* switch-based command extraction that uses the case label *as written* —
  wrong when the handler rewrites the command with ``_IOC_NR`` — and that
  cannot resolve table-driven dispatch at all;
* structural type recovery with opaque ``field_N`` naming, no semantic
  relationships (no ``len[...]``, no output annotations), and occasional
  duplicate descriptions of the same command with different types;
* no socket support.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..engine import derive_seed
from ..extractor import FunctionDecl, KernelExtractor, StructDecl
from ..kernel import KernelCodebase
from ..syzlang import (
    ArrayType,
    ConstType,
    ConstantTable,
    Field,
    IntType,
    NamedTypeRef,
    Param,
    PtrType,
    ResourceDef,
    ResourceRef,
    SpecSuite,
    SpecValidator,
    StringType,
    StructDef,
    Syscall,
)

_MISC_NAME_RE = re.compile(r"\.name\s*=\s*\"(?P<name>[^\"]+)\"")
_CHRDEV_RE = re.compile(r"alloc_chrdev_region\([^;]*\"(?P<name>[^\"]+)\"")
_CASE_RE = re.compile(r"case\s+(?P<macro>\w+)\s*:\s*\n\s*return\s+(?P<fn>\w+)\(", re.MULTILINE)
_DELEGATE_RE = re.compile(r"^\s*return\s+(?P<fn>\w+)\(file,\s*command,\s*u\);\s*$", re.MULTILINE)
_COPY_FROM_RE = re.compile(r"copy_from_user\(&\w+,\s*\w+,\s*sizeof\(struct\s+(?P<name>\w+)\)\)")

_WIDTHS = {
    "__u8": "int8", "__s8": "int8", "char": "int8",
    "__u16": "int16", "__s16": "int16",
    "__u32": "int32", "__s32": "int32", "int": "int32", "unsigned int": "int32",
    "__u64": "int64", "__s64": "int64", "unsigned long": "int64",
}


@dataclass
class SyzDescribeResult:
    """Outcome of analysing one handler."""

    handler_name: str
    suite: SpecSuite | None
    valid: bool
    reason: str = ""

    @property
    def syscall_count(self) -> int:
        return len(self.suite) if self.suite is not None else 0

    @property
    def type_count(self) -> int:
        return self.suite.stats()["types"] if self.suite is not None else 0


class SyzDescribe:
    """The rule-based static analysis baseline."""

    def __init__(self, kernel: KernelCodebase, *, extractor: KernelExtractor | None = None):
        self.kernel = kernel
        self.extractor = extractor or KernelExtractor(kernel)
        self._constants = self.extractor.constants()
        self._validator = SpecValidator(self._constants, warn_unused=False)

    # ------------------------------------------------------------------ API
    def analyze_handler(self, handler_name: str) -> SyzDescribeResult:
        """Generate a specification for one driver handler, if the rules apply."""
        info = self.extractor.handler(handler_name)
        if info.kind != "driver":
            return SyzDescribeResult(handler_name, None, False, "sockets are not supported")

        device_path = self._device_path(info.usage_snippets)
        if device_path is None:
            return SyzDescribeResult(handler_name, None, False, "registration pattern not modelled")
        if not info.ioctl_fn or not self.extractor.has_definition(info.ioctl_fn):
            return SyzDescribeResult(handler_name, None, False, "no ioctl handler found")

        dispatch = self.extractor.function(info.ioctl_fn)
        cases = self._find_cases(dispatch, depth=0)
        if not cases:
            return SyzDescribeResult(handler_name, None, False, "could not resolve command dispatch")

        # The tag must be a pure function of the handler name: the builtin
        # hash() is salted by PYTHONHASHSEED, so it differs across worker
        # processes and reruns, which made suites schedule-dependent.
        tag = derive_seed(0, "syzdescribe", handler_name) % 90000 + 10000
        suite = self._assemble(info.handler_name, tag, device_path, cases)
        report = self._validator.validate(suite)
        return SyzDescribeResult(handler_name, suite, report.is_valid)

    def analyze_all(self, handler_names: list[str]) -> dict[str, SyzDescribeResult]:
        return {name: self.analyze_handler(name) for name in handler_names}

    # ---------------------------------------------------------------- rules
    def _device_path(self, usage_snippets: tuple[str, ...]) -> str | None:
        """Rule-based device-name inference (conventional patterns only)."""
        for snippet in usage_snippets:
            if "miscdevice" in snippet:
                match = _MISC_NAME_RE.search(snippet)
                if match:
                    return f"/dev/{match.group('name')}"
            chrdev = _CHRDEV_RE.search(snippet)
            if chrdev:
                return f"/dev/{chrdev.group('name')}"
        return None

    def _find_cases(self, dispatch: FunctionDecl, *, depth: int) -> list[tuple[str, str | None]]:
        cases = [(match.group("macro"), match.group("fn")) for match in _CASE_RE.finditer(dispatch.body)]
        if cases:
            return cases
        if depth >= 1:
            return []
        delegate = _DELEGATE_RE.search(dispatch.body)
        if delegate and self.extractor.has_definition(delegate.group("fn")):
            try:
                target = self.extractor.function(delegate.group("fn"))
            except Exception:
                return []
            return self._find_cases(target, depth=depth + 1)
        return []

    def _arg_struct(self, handler_fn: str | None) -> str | None:
        if not handler_fn or not self.extractor.has_definition(handler_fn):
            return None
        try:
            body = self.extractor.function(handler_fn).body
        except Exception:
            return None
        match = _COPY_FROM_RE.search(body)
        return match.group("name") if match else None

    def _struct_def(self, struct_name: str, tag: int) -> StructDef | None:
        """Structural (field-by-field, relationship-free) struct recovery."""
        try:
            decl: StructDecl = self.extractor.struct(struct_name)
        except Exception:
            return None
        fields: list[Field] = []
        for index, member in enumerate(decl.fields):
            width = _WIDTHS.get(member.c_type, "int32")
            name = f"field_{index}"
            if member.is_flexible_array:
                fields.append(Field(name, ArrayType(IntType(width))))
            elif member.fixed_length:
                fields.append(Field(name, ArrayType(IntType("int8" if member.c_type == "char" else width), member.fixed_length)))
            elif member.c_type.startswith("struct "):
                nested = member.c_type.removeprefix("struct ").strip()
                nested_def = self._struct_def(nested, tag)
                if nested_def is not None:
                    fields.append(Field(name, ArrayType(IntType("int8"), 8)))
                else:
                    fields.append(Field(name, IntType("int64")))
            else:
                fields.append(Field(name, IntType(width)))
        return StructDef(struct_name, tuple(fields))

    # ------------------------------------------------------------- assembly
    def _assemble(
        self,
        handler_name: str,
        tag: int,
        device_path: str,
        cases: list[tuple[str, str | None]],
    ) -> SpecSuite:
        suite = SpecSuite(f"syzdescribe-{handler_name}")
        fd_resource = f"fd_{tag}"
        suite.add_resource(ResourceDef(fd_resource, "fd"))
        suite.add_syscall(
            Syscall(
                name="openat",
                variant=str(tag),
                params=(
                    Param("fd", ConstType("AT_FDCWD", "int64")),
                    Param("file", PtrType("in", StringType((device_path,)))),
                    Param("flags", ConstType("O_RDWR", "int32")),
                ),
                returns=ResourceRef(fd_resource),
                comment=f"generated by SyzDescribe for {handler_name}",
            )
        )
        for index, (macro, handler_fn) in enumerate(cases):
            struct_name = self._arg_struct(handler_fn)
            variants: list[tuple[str, object]] = []
            if struct_name is not None:
                struct_def = self._struct_def(struct_name, tag)
                if struct_def is not None and struct_name not in suite.structs:
                    suite.add_struct(struct_def)
                if struct_def is not None:
                    variants.append((f"{tag}_{index}", PtrType("in", ArrayType(IntType("int8")))))
                    variants.append((f"{tag}_{index}_t", PtrType("in", NamedTypeRef(struct_name))))
                else:
                    variants.append((f"{tag}_{index}", PtrType("in", ArrayType(IntType("int8")))))
            else:
                variants.append((f"{tag}_{index}", PtrType("in", ArrayType(IntType("int8")))))
            for variant, arg_expr in variants:
                suite.add_syscall(
                    Syscall(
                        name="ioctl",
                        variant=variant,
                        params=(
                            Param("fd", ResourceRef(fd_resource)),
                            Param("cmd", ConstType(macro, "int32")),
                            Param("arg", arg_expr),
                        ),
                    ),
                    replace_existing=True,
                )
        return suite


__all__ = ["SyzDescribe", "SyzDescribeResult"]
