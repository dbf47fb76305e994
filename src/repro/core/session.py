"""Re-entrant per-handler generation sessions.

Historically :class:`~repro.core.generator.KernelGPT` kept the per-handler
mutable state on itself — the ``_pending_typedefs`` accumulator and the
``backend.usage.queries`` before/after delta used to attribute query counts —
which made ``generate_for_handlers`` inherently serial: two in-flight
handlers would trample each other's typedefs and mis-attribute queries.

:class:`GenerationSession` extracts exactly that state.  One session == one
handler's pipeline run: it owns the typedef accumulator, counts the queries
*it* issues (cache hits included, so attribution is independent of whatever
an engine-level memo cache absorbed), and carries its own
:class:`~repro.core.iterative.IterativeAnalyzer`.  The owning
:class:`KernelGPT` keeps only immutable, shareable collaborators (extractor,
prompt library, validator, constants), so any number of sessions can run
concurrently and still produce byte-identical suites.

Sessions never cross process boundaries: a session lives for one
handler's run inside :meth:`KernelGPT.generate_for_handler` (through the
module-level :func:`run_session`), and everything it closes over — the
analyzer's extract hook, the per-stage prompt builders — is local to that
call.
"""

from __future__ import annotations

from contextlib import nullcontext

from ..errors import ExtractionError
from ..extractor import HandlerInfo
from ..llm import Completion, LLMRequest, ParsedReply, Prompt, parse_reply
from .iterative import IterativeAnalyzer


class GenerationSession:
    """All mutable state for generating one handler's specification.

    ``engine`` overrides the owning generator's engine for this session —
    ``generate_for_handlers(engine=)`` uses it so that an engine-less
    generator still memoizes through the caller's engine.

    Queries flow through the **batched** protocol: :meth:`query_batch`
    wraps prompts into routed :class:`~repro.llm.LLMRequest`\\ s and submits
    them as one ``complete_batch`` (memoized per distinct prompt by
    :meth:`~repro.engine.ExecutionEngine.cached_query_batch` when an engine
    is present); :meth:`query` is the one-element case.  With ``batched``
    (the generator's ``batch_queries`` knob, on by default) the pipeline
    stages submit all their per-handler prompts of a stage as one batch —
    the type stage's per-operation loops run as a wavefront — and are
    byte-identical to per-query submission by construction.
    """

    def __init__(
        self,
        gpt,
        handler_name: str,
        *,
        engine=None,
        batched: bool | None = None,
        repair_mode: str | None = None,
    ):
        self.gpt = gpt
        self.engine = engine if engine is not None else gpt.engine
        self.batched = batched if batched is not None else getattr(gpt, "batch_queries", True)
        #: How validation errors are repaired: ``"per-query"`` (one LLM
        #: round-trip per broken declaration) or ``"transactional"`` (one
        #: snapshot-batched round-trip per round; see repro.core.repair).
        #: Validated here — the choke point every override path (generator
        #: default, per-call override, explicit session argument) flows through
        #: — so a typo'd mode fails loudly instead of silently running the
        #: per-query fallback under a bogus label.
        from .repair import REPAIR_MODES

        self.repair_mode = repair_mode or getattr(gpt, "repair_mode", "per-query")
        if self.repair_mode not in REPAIR_MODES:
            raise ValueError(
                f"unknown repair mode {self.repair_mode!r}; "
                f"choose from {', '.join(REPAIR_MODES)}"
            )
        self.handler_name = handler_name
        #: Usage issued by this session (the per-result attribution the
        #: old ``usage.queries`` before/after delta provided, made local).
        #: Cache hits count too: attribution reflects what the session asked
        #: for, independent of what an engine-level memo cache absorbed.
        self.queries = 0
        self.input_tokens = 0
        self.output_tokens = 0
        #: Typedef blocks produced by type-stage replies, keyed by struct name.
        self.pending_typedefs: dict[str, str] = {}
        self.analyzer = IterativeAnalyzer(
            self,
            gpt.extractor,
            max_iterations=gpt.max_iterations,
            extract=self.extract_code,
        )

    # ------------------------------------------------------- backend facade
    def query_batch(self, prompts) -> list[Completion]:
        """Issue a batch of LLM queries, attributed to this session.

        Every prompt is wrapped into an :class:`~repro.llm.LLMRequest`
        carrying the generator's routing tag (``backend_route``), so a
        pool-backed generator steers its whole pipeline to one member
        profile.  Attribution counts every request — cache hits included —
        exactly like the serial per-query path.
        """
        requests = [
            item
            if isinstance(item, LLMRequest)
            else LLMRequest(prompt=item, route=self.gpt.backend_route)
            for item in prompts
        ]
        if not requests:
            return []
        self.queries += len(requests)
        self.input_tokens += sum(request.prompt.approximate_tokens() for request in requests)
        if self.engine is not None:
            completions = self.engine.cached_query_batch(self.gpt.backend, requests)
        else:
            completions = self.gpt.backend.complete_batch(requests)
        self.output_tokens += sum(completion.approximate_tokens() for completion in completions)
        return completions

    def query(self, prompt: Prompt) -> Completion:
        """Issue one LLM query (a one-element batch), attributed to this session."""
        return self.query_batch((prompt,))[0]

    def parse_query_batch(self, prompts) -> list[ParsedReply]:
        return [parse_reply(completion.text) for completion in self.query_batch(prompts)]

    def parse_query(self, prompt: Prompt) -> ParsedReply:
        return parse_reply(self.query(prompt).text)

    def extract_code(self, identifier: str) -> str:
        """One extractor lookup, memoized by the session's engine if present."""
        if self.engine is not None:
            return self.engine.cached_extract(self.gpt.extractor, identifier)
        return self.gpt.extractor.extract_code(identifier)

    def _measure(self, stage: str):
        if self.engine is None:
            return nullcontext()
        return self.engine.profile.measure(f"generation/{stage}")

    # ---------------------------------------------------------------- stages
    def run(self):
        """Run the full three-stage pipeline + validation/repair."""
        gpt = self.gpt
        info = gpt.extractor.handler(self.handler_name)
        name = gpt._readable_name(info)

        with self._measure("identifier"):
            ops, device_path, socket_identity = self.identifier_stage(info)
        with self._measure("type"):
            self.type_stage(info, ops)
        typedefs = dict(self.pending_typedefs)
        with self._measure("dependency"):
            self.dependency_stage(info, ops)
        with self._measure("secondary"):
            secondary_ops, secondary_typedefs = self.analyze_secondary_handlers(info, ops)
        ops.extend(secondary_ops)
        typedefs.update(secondary_typedefs)

        suite = gpt._assemble(info, name, ops, device_path, socket_identity, typedefs)
        from .generator import GenerationResult

        result = GenerationResult(
            handler_name=self.handler_name,
            kind=info.kind,
            name=name,
            suite=suite,
            device_path=device_path,
            socket_family=socket_identity[0] if socket_identity else None,
            ops=ops,
        )
        with self._measure("repair"):
            self.validate_and_repair(info, result)
        result.queries = self.queries
        result.input_tokens = self.input_tokens
        result.output_tokens = self.output_tokens
        return result

    # ------------------------------------------------------------ stage 1
    def identifier_stage(self, info: HandlerInfo):
        from .generator import DiscoveredOp

        gpt = self.gpt
        registration = gpt._registration_text(info)
        initial_code = gpt._dispatch_code(info, extract=self.extract_code)
        ops: list[DiscoveredOp] = []
        device_path: str | None = None
        socket_identity: tuple | None = None
        seen: set[tuple[str, str]] = set()

        def on_reply(reply: ParsedReply) -> None:
            nonlocal device_path, socket_identity
            if reply.device_path and device_path is None:
                device_path = reply.device_path
            if reply.socket_family and socket_identity is None:
                socket_identity = (reply.socket_family, reply.socket_type or 2, reply.socket_protocol or 0)
            for record in reply.identifiers:
                identifier = record.get("IDENT", "")
                syscall = record.get("SYSCALL", "ioctl")
                if not identifier or (identifier, syscall) in seen:
                    continue
                seen.add((identifier, syscall))
                ops.append(
                    DiscoveredOp(
                        identifier=identifier,
                        syscall=syscall,
                        handler_fn=record.get("HANDLER"),
                    )
                )

        def build_prompt(code, unknowns):
            return gpt.prompts.identifier_prompt(
                info.handler_name,
                kind=info.kind,
                registration=registration,
                code=code,
                unknowns=unknowns,
            )

        if self.batched:
            # One analysis loop, but routed through the wavefront so each
            # iteration's prompt is submitted as a (one-element) batch.
            self.analyzer.run_many([(build_prompt, initial_code, on_reply)])
        else:
            self.analyzer.run(build_prompt, initial_code=initial_code, on_reply=on_reply)
        return ops, device_path, socket_identity

    # ------------------------------------------------------------ stage 2
    def type_stage(self, info: HandlerInfo, ops) -> None:
        """Recover argument types: one analysis loop per discovered operation.

        The per-operation loops are independent (each prompt is a function
        of that operation's code and unknowns only), so a batched session
        runs them as one wavefront — every round submits all still-active
        operations' prompts as a single batch.  ``run_many`` applies the
        reply callbacks in operation order afterwards, which keeps the
        typedef accumulator's insertion order — and therefore the serialized
        suite bytes — identical to the per-query path.
        """
        gpt = self.gpt
        runs = []
        for op in ops:
            if op.syscall in ("poll", "accept"):
                op.arg_type = "none"
                continue
            code = gpt._op_code(info, op, extract=self.extract_code)
            if not code:
                op.arg_type = "none"
                continue

            def on_reply(reply: ParsedReply, op=op) -> None:
                for record in reply.argtypes:
                    if record.get("IDENT") in (op.identifier, None):
                        op.arg_type = record.get("TYPE") or op.arg_type
                        op.direction = record.get("DIR", op.direction)
                for struct_name, text in reply.typedefs:
                    self.pending_typedefs[struct_name] = text

            def build_prompt(code_text, unknowns, op=op):
                return gpt.prompts.type_prompt(
                    info.handler_name,
                    identifier=op.identifier,
                    code=code_text,
                    unknowns=unknowns,
                )

            runs.append((build_prompt, code, on_reply))
        if not runs:
            return
        if self.batched:
            self.analyzer.run_many(runs)
        else:
            for build_prompt, code, on_reply in runs:
                self.analyzer.run(build_prompt, initial_code=code, on_reply=on_reply)

    # ------------------------------------------------------------ stage 3
    def dependency_stage(self, info: HandlerInfo, ops) -> None:
        gpt = self.gpt
        blocks: list[str] = []
        for op in ops:
            if not op.handler_fn or not gpt.extractor.has_definition(op.handler_fn):
                continue
            blocks.append(f"/* operation: {op.identifier} */\n{self.extract_code(op.handler_fn)}")
        if not blocks:
            return
        prompt = gpt.prompts.dependency_prompt(info.handler_name, code="\n\n".join(blocks))
        # The stage has exactly one prompt per handler; submit it as a batch
        # so the backend sees batch granularity end to end.
        reply = self.parse_query_batch((prompt,))[0]
        for record in reply.dependencies:
            identifier = record.get("IDENT", "")
            for op in ops:
                if op.identifier == identifier:
                    op.produces = record.get("PRODUCES")
                    op.produces_handler = record.get("HANDLER")

    def analyze_secondary_handlers(self, info: HandlerInfo, ops, *, depth: int = 0):
        """Analyse handlers reached through produced resources (e.g. KVM VM fds).

        Recurses (bounded by the iteration limit) so chains like
        ``/dev/kvm → VM fd → VCPU fd`` are fully discovered.
        """
        from .generator import DiscoveredOp

        gpt = self.gpt
        secondary_ops: list[DiscoveredOp] = []
        typedefs: dict[str, str] = {}
        if depth >= gpt.max_iterations:
            return secondary_ops, typedefs
        for op in ops:
            if not op.produces or not op.produces_handler:
                continue
            try:
                secondary_info = gpt.extractor.handler(op.produces_handler)
            except ExtractionError:
                continue
            saved_typedefs = dict(self.pending_typedefs)
            self.pending_typedefs = {}
            new_ops, _, _ = self.identifier_stage(secondary_info)
            self.type_stage(secondary_info, new_ops)
            self.dependency_stage(secondary_info, new_ops)
            typedefs.update(self.pending_typedefs)
            self.pending_typedefs = saved_typedefs
            for new_op in new_ops:
                new_op.consumes = op.produces
            nested_ops, nested_typedefs = self.analyze_secondary_handlers(
                secondary_info, new_ops, depth=depth + 1
            )
            secondary_ops.extend(new_ops)
            secondary_ops.extend(nested_ops)
            typedefs.update(nested_typedefs)
        return secondary_ops, typedefs

    # --------------------------------------------------- validation + repair
    def validate_and_repair(self, info: HandlerInfo, result) -> None:
        """Validate the assembled suite and drive the session's repair mode.

        ``repair_mode="per-query"`` is the historical loop — one LLM
        round-trip per broken declaration per round, each repair applied
        before the next prompt is built — retained as the equivalence
        oracle.  ``"transactional"`` runs each round as one
        :class:`~repro.core.repair.RepairTransaction`: every prompt
        describes the round-start snapshot, the whole round is one request
        batch, and the fragments commit atomically under determinism
        rule 7.  Both modes converge to the same valid-or-exhausted outcome
        on the oracle corpus; the transactional mode issues one LLM
        round-trip per round instead of one per declaration.
        """
        gpt = self.gpt
        report = gpt._validator.validate(result.suite)
        result.initially_valid = report.is_valid
        result.validation_report = report
        result.valid = report.is_valid
        result.repair_mode = self.repair_mode
        if report.is_valid or not gpt.repair_enabled:
            return
        if self.repair_mode == "transactional":
            self._repair_transactional(info, result, report)
        else:
            self._repair_per_query(info, result, report)

    def _repair_per_query(self, info: HandlerInfo, result, report) -> None:
        gpt = self.gpt
        context = gpt._repair_context(info)
        for round_index in range(1, gpt.repair_rounds + 1):
            result.repair_rounds_used = round_index
            changed = False
            for subject in report.subjects_with_errors():
                description = gpt._describe_subject(result.suite, subject)
                errors = "\n".join(issue.render() for issue in report.issues_for(subject))
                prompt = gpt.prompts.repair_prompt(
                    info.handler_name, description=description, errors=errors, code=context
                )
                reply = self.parse_query(prompt)
                result.repair_queries += 1
                result.repair_llm_calls += 1
                if not reply.repaired_text:
                    continue
                if gpt._apply_repair(result.suite, reply.repaired_text, original_subject=subject):
                    changed = True
            report = gpt._validator.validate(result.suite)
            result.validation_report = report
            if report.is_valid:
                result.valid = True
                result.repaired = True
                return
            if not changed:
                break
        result.valid = report.is_valid

    def _repair_transactional(self, info: HandlerInfo, result, report) -> None:
        """One :class:`RepairTransaction` per round, one LLM batch per round."""
        from .repair import REPAIR_ROUTE_TAG, RepairTransaction

        gpt = self.gpt
        context = gpt._repair_context(info)
        route = gpt.repair_route or gpt.backend_route or REPAIR_ROUTE_TAG
        for round_index in range(1, gpt.repair_rounds + 1):
            result.repair_rounds_used = round_index
            transaction = RepairTransaction(result.suite, report)
            if not transaction.items:
                break
            requests = [
                LLMRequest(
                    prompt=gpt.prompts.repair_item_prompt(
                        info.handler_name,
                        subject=item.subject,
                        error_code=item.code.value,
                        description=gpt._describe_subject(transaction.snapshot, item.subject),
                        errors=item.render_errors(),
                        code=context,
                    ),
                    route=route,
                )
                for item in transaction.items
            ]
            replies = self.parse_query_batch(requests)
            result.repair_queries += len(requests)
            result.repair_llm_calls += 1
            commit = transaction.commit(
                [reply.repaired_text for reply in replies],
                result.suite,
                apply=gpt._apply_repair,
            )
            result.repair_conflicts += len(commit.conflicts)
            result.repair_requeued += len(commit.requeued)
            report = gpt._validator.validate(result.suite)
            result.validation_report = report
            if report.is_valid:
                result.valid = True
                result.repaired = True
                return
            if not commit.changed:
                break
        result.valid = report.is_valid


def run_session(gpt, handler_name: str, *, engine=None, repair_mode: str | None = None):
    """Run one handler's full generation session and return its result.

    ``repair_mode`` overrides the generator's repair mode for this session
    only (a per-call knob, so a shared generator is never mutated).
    """
    return GenerationSession(gpt, handler_name, engine=engine, repair_mode=repair_mode).run()


__all__ = ["GenerationSession", "run_session"]
