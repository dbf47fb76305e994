"""KernelGPT: the end-to-end specification generator.

This module implements the paper's two automated phases on top of the
substrates:

* **Specification generation** (§3.1) — the three-stage pipeline (identifier
  deduction, type recovery, dependency analysis), each stage running the
  LLM-guided iterative analysis of Algorithm 1 against the source extractor
  and the analysis backend;
* **Specification validation and repair** (§3.2) — validating the assembled
  suite with the syzlang validator and consulting the backend with the error
  messages until the suite validates or the repair budget is exhausted.

The public entry point is :class:`KernelGPT`; one call to
:meth:`KernelGPT.generate_for_handler` produces a :class:`GenerationResult`
holding the generated suite and full provenance (queries, repairs, validity).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from ..engine import ExecutionEngine
from ..errors import ExtractionError, GenerationError, SyzlangParseError
from ..extractor import HandlerInfo, KernelExtractor
from ..kernel import KernelCodebase
from ..llm import LLMBackend, OracleBackend, PromptLibrary, parse_reply
from ..syzlang import (
    ArrayType,
    ConstType,
    ConstantTable,
    IntType,
    LenType,
    NamedTypeRef,
    Param,
    PtrType,
    ResourceDef,
    ResourceRef,
    SpecSuite,
    SpecValidator,
    StringType,
    Syscall,
    ValidationReport,
    parse_suite,
    resolve_resource_refs,
    serialize_suite,
)
from .iterative import DEFAULT_MAX_ITERATIONS
from .repair import REPAIR_MODES
from .session import GenerationSession, run_session

_GENERIC_WITH_VARIANT = ("ioctl", "setsockopt", "getsockopt")
_MESSAGE_SYSCALLS = ("bind", "connect", "accept", "sendto", "recvfrom", "sendmsg", "recvmsg", "poll")


@dataclass
class DiscoveredOp:
    """One operation discovered during identifier deduction."""

    identifier: str
    syscall: str
    handler_fn: str | None = None
    arg_type: str | None = None      # struct name, or "scalar"/"none"
    direction: str = "in"
    produces: str | None = None      # resource name created by this op
    produces_handler: str | None = None
    consumes: str | None = None      # resource (other than the primary fd) required


@dataclass
class GenerationResult:
    """Everything produced while generating one handler's specification."""

    handler_name: str
    kind: str
    name: str
    suite: SpecSuite
    device_path: str | None = None
    socket_family: str | None = None
    valid: bool = False
    initially_valid: bool = False
    repaired: bool = False
    repair_rounds_used: int = 0
    #: Which repair protocol produced this result ("per-query"/"transactional").
    repair_mode: str = "per-query"
    #: Repair prompts issued (both modes count one per prompt).
    repair_queries: int = 0
    #: Repair LLM round-trips: per-query mode pays one per prompt, the
    #: transactional mode one ``complete_batch`` per round.
    repair_llm_calls: int = 0
    #: Transactional only: items skipped by the conflict rule, and the
    #: issues those losers re-queued onto later rounds.
    repair_conflicts: int = 0
    repair_requeued: int = 0
    queries: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    validation_report: ValidationReport | None = None
    ops: list[DiscoveredOp] = field(default_factory=list)
    mode: str = "iterative"

    @property
    def syscall_count(self) -> int:
        return len(self.suite)

    @property
    def type_count(self) -> int:
        return self.suite.stats()["types"]

    def suite_text(self) -> str:
        """The generated specification rendered as syzlang text."""
        return serialize_suite(self.suite)


@dataclass
class GenerationRun:
    """Aggregate of a multi-handler generation campaign."""

    results: dict[str, GenerationResult] = field(default_factory=dict)

    def valid_results(self) -> list[GenerationResult]:
        return [result for result in self.results.values() if result.valid]

    def total_syscalls(self) -> int:
        return sum(result.syscall_count for result in self.valid_results())

    def total_types(self) -> int:
        return sum(result.type_count for result in self.valid_results())

    def merged_suite(self, name: str = "kernelgpt") -> SpecSuite:
        merged = SpecSuite(name)
        for result in self.valid_results():
            merged = merged.merge(result.suite)
        merged.name = name
        return merged

    def usage_summary(self) -> dict:
        """Session-attributed LLM usage summed over every result.

        Unlike reading a shared backend's meter, these totals are derived
        from the per-session counters, so they are identical however the run
        was scheduled and whatever else shares the backend.
        """
        from ..llm import UsageMeter

        meter = UsageMeter(
            queries=sum(result.queries for result in self.results.values()),
            input_tokens=sum(result.input_tokens for result in self.results.values()),
            output_tokens=sum(result.output_tokens for result in self.results.values()),
        )
        return meter.summary()


class KernelGPT:
    """The specification generator."""

    def __init__(
        self,
        kernel: KernelCodebase,
        backend: LLMBackend | None = None,
        *,
        extractor: KernelExtractor | None = None,
        prompts: PromptLibrary | None = None,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        repair_rounds: int = 3,
        repair: bool = True,
        engine: ExecutionEngine | None = None,
        batch_queries: bool = True,
        backend_route: str | None = None,
        repair_mode: str = "per-query",
        repair_route: str | None = None,
    ):
        if repair_mode not in REPAIR_MODES:
            raise ValueError(
                f"unknown repair mode {repair_mode!r}; choose from {', '.join(REPAIR_MODES)}"
            )
        self.kernel = kernel
        self.backend = backend or OracleBackend()
        self.extractor = extractor or KernelExtractor(kernel)
        self.prompts = prompts or PromptLibrary()
        self.max_iterations = max_iterations
        self.repair_rounds = repair_rounds
        self.repair_enabled = repair
        self.engine = engine
        #: Submit each pipeline stage's prompts as one batch (the type
        #: stage's per-op loops run as a wavefront).  Byte-identical to
        #: per-query submission; off reproduces the per-query schedule.
        self.batch_queries = batch_queries
        #: Routing tag stamped on every request this generator issues — how
        #: a pool-backed generator selects its member capability profile
        #: (see :class:`~repro.llm.BackendPool`).  None for plain backends.
        self.backend_route = backend_route
        #: Default repair protocol for this generator's sessions: the
        #: historical ``"per-query"`` loop or the snapshot-batched
        #: ``"transactional"`` rounds (repro.core.repair).  The
        #: ``repair_mode`` argument of the generate methods overrides it
        #: per session.
        self.repair_mode = repair_mode
        #: Routing tag for transactional repair requests.  None falls back
        #: to ``backend_route`` and then to the generic ``"repair"`` tag,
        #: which is what a kind-route table (``--route repair=gpt-3.5``)
        #: matches on.
        self.repair_route = repair_route
        self._constants = self.extractor.constants()
        self._validator = SpecValidator(self._constants, warn_unused=False)

    def clone(
        self,
        *,
        backend: LLMBackend | None = None,
        engine: ExecutionEngine | None = None,
        repair_mode: str | None = None,
        backend_route: str | None = None,
        repair_route: str | None = None,
    ) -> "KernelGPT":
        """A shallow per-session copy with swapped backend/engine wiring.

        The job service runs many jobs against one shared context: each job
        needs its own backend handle (for tenant/client attribution) and its
        own engine (for an isolated memo namespace), while the expensive
        immutable collaborators — kernel, extractor, constants, validator —
        stay shared.  Cloning instead of reconstructing keeps that sharing
        and skips re-deriving the constant table per job.
        """
        clone = object.__new__(KernelGPT)
        clone.__dict__.update(self.__dict__)
        if backend is not None:
            clone.backend = backend
        clone.engine = engine
        if repair_mode is not None:
            if repair_mode not in REPAIR_MODES:
                raise ValueError(
                    f"unknown repair mode {repair_mode!r}; choose from {', '.join(REPAIR_MODES)}"
                )
            clone.repair_mode = repair_mode
        if backend_route is not None:
            clone.backend_route = backend_route
        if repair_route is not None:
            clone.repair_route = repair_route
        return clone

    def store_profile(self) -> tuple[str, ...]:
        """Everything that shapes this generator's output, as stable strings.

        The persistent-session key material (:func:`repro.store.session_key`):
        the kernel's coverage-space digest pins the substrate, the backend's
        store profile pins the analyst, and the remaining knobs pin the
        pipeline configuration.  Anything process-local (engine, extractor
        instance) is deliberately absent — the extractor is a pure function
        of the kernel, which the digest already covers.

        The scan/fuzz config digest is folded in alongside the coverage-space
        digest: the coverage space pins *what exists*, the config digest pins
        *what is loaded*, and a change to either must miss the store.
        """
        from ..kconfig import kernel_config_digest

        return (
            self.kernel.coverage_space().digest,
            kernel_config_digest(self.kernel.scan_config(), self.kernel.fuzz_config()),
            self.backend.store_profile(),
            self.backend_route or "",
            self.repair_route or "",
            "batched" if self.batch_queries else "per-query",
            str(self.max_iterations),
            str(self.repair_rounds),
            "repair" if self.repair_enabled else "no-repair",
            type(self.prompts).__name__,
        )

    def __getstate__(self) -> dict:
        """Generators are picklable minus the engine.

        Engines own worker pools, locks and memo caches — none of which may
        cross a process boundary.  A worker's unpickled generator therefore
        runs engine-less (plain sessions, no memoization), which changes
        only scheduling and caching, never the generated bytes.
        """
        state = self.__dict__.copy()
        state["engine"] = None
        return state

    # ----------------------------------------------------- engine plumbing
    def session(
        self,
        handler_name: str,
        *,
        engine: ExecutionEngine | None = None,
        repair_mode: str | None = None,
    ) -> GenerationSession:
        """A fresh re-entrant per-handler session (see :mod:`repro.core.session`)."""
        return GenerationSession(self, handler_name, engine=engine, repair_mode=repair_mode)

    # ------------------------------------------------------------------ API
    def generate_for_handler(
        self,
        handler_name: str,
        *,
        engine: ExecutionEngine | None = None,
        repair_mode: str | None = None,
    ) -> GenerationResult:
        """Generate, validate and (if needed) repair the spec for one handler.

        With an engine (the instance's, or an explicit override) the whole
        session is memoized: regenerating a handler this generator already
        produced (the table 5/6 and ablation paths after a full generation
        run) returns the cached result, and concurrent requests for the same
        handler collapse into one session.  ``repair_mode`` overrides the
        generator's repair protocol for this handler only; it is part of
        the memo key, so per-query and transactional results of one handler
        never serve each other.
        """
        engine = engine or self.engine
        mode = repair_mode or self.repair_mode
        if engine is None:
            return run_session(self, handler_name, repair_mode=mode)
        return engine.cached_session(
            self,
            "iterative",
            mode,
            handler_name,
            lambda: run_session(self, handler_name, engine=engine, repair_mode=mode),
        )

    def generate_for_handlers(
        self,
        handler_names: list[str],
        *,
        engine: ExecutionEngine | None = None,
    ) -> GenerationRun:
        """Generate specifications for many handlers (a full campaign).

        Handlers run one after another in ``handler_names`` order, each
        through :meth:`generate_for_handler`; an explicit ``engine``
        overrides the instance engine, which memoizes every session and
        times the loop as the ``generation`` profile stage.  A handler that
        cannot be extracted or generated is left out of the run; any other
        error stops the loop.
        """
        engine = engine or self.engine
        run = GenerationRun()
        with engine.profile.measure("generation") if engine is not None else nullcontext():
            for handler_name in handler_names:
                try:
                    run.results[handler_name] = self.generate_for_handler(
                        handler_name, engine=engine
                    )
                except (ExtractionError, GenerationError):
                    continue
        return run

    def generate_all_in_one(
        self,
        handler_name: str,
        *,
        engine: ExecutionEngine | None = None,
        repair_mode: str | None = None,
    ) -> GenerationResult:
        """Single-prompt generation used by the §5.2.3 ablation."""
        engine = engine or self.engine
        mode = repair_mode or self.repair_mode
        if engine is None:
            return self._all_in_one(handler_name, engine, repair_mode=mode)
        return engine.cached_session(
            self,
            "all-in-one",
            mode,
            handler_name,
            lambda: self._all_in_one(handler_name, engine, repair_mode=mode),
        )

    def _all_in_one(
        self,
        handler_name: str,
        engine: ExecutionEngine | None,
        *,
        repair_mode: str | None = None,
    ) -> GenerationResult:
        info = self.extractor.handler(handler_name)
        session = self.session(handler_name, engine=engine, repair_mode=repair_mode)
        name = self._readable_name(info)
        registration = self._registration_text(info)
        code_parts = [registration]
        if info.ioctl_fn and self.extractor.has_definition(info.ioctl_fn):
            code_parts.append(session.extract_code(info.ioctl_fn))
            # Include directly-referenced sub-handlers and structs, as far as
            # the prompt size allows; the point of the ablation is that this
            # is all the model gets.
            for called in self.extractor.function(info.ioctl_fn).calls():
                if self.extractor.has_definition(called):
                    code_parts.append(session.extract_code(called))
        for _, fn_name in info.syscall_fns:
            if self.extractor.has_definition(fn_name):
                code_parts.append(session.extract_code(fn_name))
        prompt = self.prompts.all_in_one_prompt(
            handler_name, kind=info.kind, registration=registration, code="\n\n".join(code_parts)
        )
        reply = parse_reply(session.query(prompt).text)
        ops: list[DiscoveredOp] = []
        for record in reply.identifiers:
            ops.append(
                DiscoveredOp(
                    identifier=record.get("IDENT", ""),
                    syscall=record.get("SYSCALL", "ioctl"),
                    handler_fn=record.get("HANDLER"),
                )
            )
        for record in reply.argtypes:
            for op in ops:
                if op.identifier == record.get("IDENT"):
                    op.arg_type = record.get("TYPE")
                    op.direction = record.get("DIR", "in")
        typedefs = dict(reply.typedefs)
        device_path = reply.device_path
        socket_identity = None
        if reply.socket_family:
            socket_identity = (reply.socket_family, reply.socket_type or 2, reply.socket_protocol or 0)
        suite = self._assemble(info, name, ops, device_path, socket_identity, typedefs)
        result = GenerationResult(
            handler_name=handler_name,
            kind=info.kind,
            name=name,
            suite=suite,
            device_path=device_path,
            socket_family=reply.socket_family,
            ops=ops,
            mode="all-in-one",
        )
        session.validate_and_repair(info, result)
        result.queries = session.queries
        result.input_tokens = session.input_tokens
        result.output_tokens = session.output_tokens
        return result

    # ------------------------------------------------------------ assembly
    def _assemble(
        self,
        info: HandlerInfo,
        name: str,
        ops: list[DiscoveredOp],
        device_path: str | None,
        socket_identity: tuple | None,
        typedefs: dict[str, str],
    ) -> SpecSuite:
        suite = SpecSuite(f"kernelgpt-{name}")
        for struct_name, text in typedefs.items():
            try:
                parsed = parse_suite(text)
            except SyzlangParseError:
                continue
            for parsed_name, struct in parsed.structs.items():
                suite.add_struct(struct, replace_existing=True)
            for parsed_name, union in parsed.unions.items():
                suite.add_union(union, replace_existing=True)

        if info.kind == "driver":
            self._assemble_driver(suite, info, name, ops, device_path)
        else:
            self._assemble_socket(suite, info, name, ops, socket_identity)
        return suite

    def _assemble_driver(
        self,
        suite: SpecSuite,
        info: HandlerInfo,
        name: str,
        ops: list[DiscoveredOp],
        device_path: str | None,
    ) -> None:
        fd_resource = f"fd_{name}"
        suite.add_resource(ResourceDef(fd_resource, "fd"), replace_existing=True)
        path = device_path or f"/dev/{name}"
        suite.add_syscall(
            Syscall(
                name="openat",
                variant=name,
                params=(
                    Param("fd", ConstType("AT_FDCWD", "int64")),
                    Param("file", PtrType("in", StringType((path,)))),
                    Param("flags", ConstType("O_RDWR", "int32")),
                ),
                returns=ResourceRef(fd_resource),
                comment=f"generated by KernelGPT for {info.handler_name}",
            ),
            replace_existing=True,
        )
        secondary_resources: dict[str, str] = {}
        for op in ops:
            if op.produces:
                resource_name = f"fd_{op.produces}"
                secondary_resources[op.produces] = resource_name
                if resource_name not in suite.resources:
                    suite.add_resource(ResourceDef(resource_name, "fd"), replace_existing=True)
        for op in ops:
            if op.syscall != "ioctl":
                continue
            fd_name = fd_resource
            if op.consumes and op.consumes in secondary_resources:
                fd_name = secondary_resources[op.consumes]
            params = [
                Param("fd", ResourceRef(fd_name)),
                Param("cmd", ConstType(op.identifier, "int32")),
                Param("arg", self._arg_expr(op)),
            ]
            returns = None
            if op.produces:
                returns = ResourceRef(secondary_resources[op.produces])
            suite.add_syscall(
                Syscall(name="ioctl", variant=op.identifier, params=tuple(params), returns=returns),
                replace_existing=True,
            )

    def _assemble_socket(
        self,
        suite: SpecSuite,
        info: HandlerInfo,
        name: str,
        ops: list[DiscoveredOp],
        socket_identity: tuple | None,
    ) -> None:
        sock_resource = f"sock_{name}"
        suite.add_resource(ResourceDef(sock_resource, "sock"), replace_existing=True)
        family, sock_type, protocol = socket_identity or ("AF_UNIX", 2, 0)
        suite.add_syscall(
            Syscall(
                name="socket",
                variant=name,
                params=(
                    Param("domain", ConstType(family, "int32")),
                    Param("type", ConstType(sock_type, "int32")),
                    Param("proto", ConstType(protocol, "int32")),
                ),
                returns=ResourceRef(sock_resource),
                comment=f"generated by KernelGPT for {info.handler_name}",
            ),
            replace_existing=True,
        )
        for op in ops:
            if op.syscall in ("setsockopt", "getsockopt"):
                direction = "in" if op.syscall == "setsockopt" else "out"
                params = (
                    Param("fd", ResourceRef(sock_resource)),
                    Param("level", ConstType(0, "int32")),
                    Param("optname", ConstType(op.identifier, "int32")),
                    Param("optval", PtrType(direction, self._payload_expr(op))),
                    Param("optlen", LenType("optval", "int32")),
                )
                suite.add_syscall(
                    Syscall(name=op.syscall, variant=op.identifier, params=params),
                    replace_existing=True,
                )
            elif op.syscall in ("bind", "connect"):
                params = (
                    Param("fd", ResourceRef(sock_resource)),
                    Param("addr", PtrType("in", self._payload_expr(op))),
                    Param("addrlen", LenType("addr", "int32")),
                )
                suite.add_syscall(Syscall(name=op.syscall, variant=name, params=params), replace_existing=True)
            elif op.syscall in ("sendto", "recvfrom", "sendmsg", "recvmsg"):
                direction = "in" if op.syscall.startswith("send") else "out"
                params = (
                    Param("fd", ResourceRef(sock_resource)),
                    Param("buf", PtrType(direction, self._payload_expr(op))),
                    Param("len", LenType("buf", "int64")),
                    Param("flags", ConstType(0, "int32")),
                )
                suite.add_syscall(Syscall(name=op.syscall, variant=name, params=params), replace_existing=True)
            elif op.syscall in ("accept", "poll"):
                params = (Param("fd", ResourceRef(sock_resource)),)
                suite.add_syscall(Syscall(name=op.syscall, variant=name, params=params), replace_existing=True)

    def _arg_expr(self, op: DiscoveredOp):
        if op.arg_type in (None, "none"):
            return ConstType(0, "int64")
        if op.arg_type == "scalar":
            return IntType("int64")
        direction = op.direction if op.direction in ("in", "out", "inout") else "in"
        return PtrType(direction, NamedTypeRef(op.arg_type))

    def _payload_expr(self, op: DiscoveredOp):
        if op.arg_type in (None, "none", "scalar"):
            return ArrayType(IntType("int8"))
        return NamedTypeRef(op.arg_type)

    # --------------------------------------------------- validation + repair
    def _repair_context(self, info: HandlerInfo) -> str:
        """Macro definitions and struct sources from the handler's file."""
        unit = self.extractor.translation_unit(info.file)
        defines = "\n".join(macro.text for macro in unit.macros.values())
        structs = "\n\n".join(struct.text for struct in unit.structs.values())
        return defines + "\n\n" + structs

    @staticmethod
    def _describe_subject(suite: SpecSuite, subject: str) -> str:
        if subject in suite.syscalls:
            return suite.syscalls[subject].render()
        type_def = suite.get_type_def(subject)
        if type_def is not None:
            return type_def.render()
        return subject

    @staticmethod
    def _apply_repair(
        suite: SpecSuite,
        repaired_text: str,
        *,
        original_subject: str = "",
        parsed: SpecSuite | None = None,
    ) -> bool:
        """Apply one repaired fragment; True when the suite changed.

        ``parsed`` lets callers that already parsed ``repaired_text`` (the
        transactional commit, which parses fragments for conflict
        detection) skip the second parse; the text and the parsed suite
        must describe the same fragment.
        """
        if parsed is None:
            try:
                parsed = parse_suite(repaired_text)
            except SyzlangParseError:
                return False
        # The repaired fragment has no resource declarations of its own, so
        # bare resource uses parse as named-type references; resolve them
        # against the destination suite's table so the merged AST is
        # identical to what a whole-document parse would produce.
        resolve_resource_refs(parsed, set(suite.resources) | set(parsed.resources))
        changed = False
        for syscall in parsed:
            suite.add_syscall(syscall, replace_existing=True)
            changed = True
        # A repair frequently renames the offending description (for example
        # when the wrong macro also appeared in the variant suffix); drop the
        # original so the invalid version does not linger in the suite.
        if changed and original_subject and original_subject in suite.syscalls:
            if original_subject not in parsed.syscalls:
                suite.remove_syscall(original_subject)
        for struct in parsed.structs.values():
            suite.add_struct(struct, replace_existing=True)
            changed = True
        for union in parsed.unions.values():
            suite.add_union(union, replace_existing=True)
            changed = True
        for resource in parsed.resources.values():
            suite.add_resource(resource, replace_existing=True)
            changed = True
        for flags in parsed.flags.values():
            suite.add_flags(flags, replace_existing=True)
            changed = True
        return changed

    # --------------------------------------------------------------- helpers
    def _registration_text(self, info: HandlerInfo) -> str:
        parts = [info.initializer_text]
        parts.extend(info.usage_snippets)
        return "\n\n".join(part for part in parts if part)

    def _dispatch_code(self, info: HandlerInfo, *, extract) -> str:
        parts: list[str] = []
        if info.ioctl_fn and self.extractor.has_definition(info.ioctl_fn):
            parts.append(extract(info.ioctl_fn))
        for _, fn_name in info.syscall_fns:
            if self.extractor.has_definition(fn_name):
                parts.append(extract(fn_name))
        if info.kind == "socket":
            parts.insert(0, info.initializer_text)
        return "\n\n".join(parts) if parts else info.initializer_text

    def _op_code(self, info: HandlerInfo, op: DiscoveredOp, *, extract) -> str:
        if op.handler_fn and self.extractor.has_definition(op.handler_fn):
            return extract(op.handler_fn)
        # Socket options: the dispatch function contains the per-option logic.
        for member, fn_name in info.syscall_fns:
            if member == op.syscall and self.extractor.has_definition(fn_name):
                return extract(fn_name)
        if op.syscall in ("setsockopt", "getsockopt"):
            candidate = f"{info.handler_name.removesuffix('_proto_ops')}_{op.syscall}"
            if self.extractor.has_definition(candidate):
                return extract(candidate)
        if info.ioctl_fn and self.extractor.has_definition(info.ioctl_fn):
            return extract(info.ioctl_fn)
        return ""

    @staticmethod
    def _readable_name(info: HandlerInfo) -> str:
        name = info.handler_name.lstrip("_")
        for suffix in ("_fops", "_proto_ops", "_ops"):
            name = name.removesuffix(suffix)
        return name or info.handler_name


__all__ = ["KernelGPT", "GenerationResult", "GenerationRun", "DiscoveredOp"]
