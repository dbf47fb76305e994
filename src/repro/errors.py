"""Exception hierarchy shared by every subsystem of the reproduction.

All library errors derive from :class:`ReproError` so that callers can catch
one base class at API boundaries.  Subsystem-specific errors refine it with
the context a user needs to diagnose the failure (which spec, which handler,
which prompt).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class SyzlangError(ReproError):
    """Base class for errors in the syzlang subsystem."""


class SyzlangParseError(SyzlangError):
    """Raised when syzlang source text cannot be parsed.

    Attributes
    ----------
    line:
        1-based line number of the offending construct, when known.
    snippet:
        The source line (or fragment) that failed to parse.
    """

    def __init__(self, message: str, *, line: int | None = None, snippet: str | None = None):
        self.line = line
        self.snippet = snippet
        location = f" (line {line})" if line is not None else ""
        detail = f": {snippet!r}" if snippet else ""
        super().__init__(f"{message}{location}{detail}")


class SpecValidationError(SyzlangError):
    """Raised when validation is asked to fail hard on an invalid spec suite."""


class KernelModelError(ReproError):
    """Raised when the synthetic kernel substrate is constructed inconsistently."""


class ConfigError(KernelModelError):
    """Raised when a kernel config axis or preset is structurally invalid.

    Covers malformed config option names, duplicate axes within a preset,
    presets that mix ``enable_all`` with explicit axes, and lookups of
    unknown preset names.  Raised at model-construction / resolution time,
    before any pruning or campaign scheduling happens.
    """


class ExtractionError(ReproError):
    """Raised when the source extractor cannot parse or locate a construct."""


class CLexError(ExtractionError):
    """Raised when the C-subset lexer hits an unrecognised character sequence."""


class CParseError(ExtractionError):
    """Raised when the C-subset parser cannot make sense of a declaration."""


class LLMError(ReproError):
    """Base class for analysis-LLM backend errors."""


class LLMProtocolError(LLMError):
    """Raised when a backend returns a completion the pipeline cannot interpret."""


class LLMBudgetExceeded(LLMError):
    """Raised when a backend exceeds its configured token or query budget."""


class BackendError(LLMError):
    """Base class for backend serving faults (the resilience-layer taxonomy).

    A plain ``BackendError`` is **permanent**: retrying the same request
    cannot help (authentication failure, an invalid model, a request the
    provider rejects deterministically), so retry layers fail fast on it.
    Transient faults derive from :class:`TransientBackendError` instead.

    Batch state
    -----------
    A failing ``complete_batch`` may have served part of its batch before
    the fault.  Raisers attach that partial outcome via
    :meth:`attach_batch_state` so retry layers re-send only what failed:

    ``served``
        ``{position: Completion}`` for requests that completed, positions
        relative to the request sequence passed to the *raising*
        ``complete_batch`` call.  Served requests are already metered and
        budget-charged; re-sending them would double-charge.
    ``failed``
        ``((position, error), ...)`` for requests that did not complete, in
        batch order.  ``None`` (alongside ``served is None``) means the
        raiser carried no batch state and the whole batch must be treated
        as failed.
    """

    #: Class-level default; instances never mutate the class attributes.
    served: "dict[int, object] | None" = None
    failed: "tuple[tuple[int, BaseException], ...] | None" = None
    #: Retry layers stamp how many attempts were made before giving up.
    attempts: int | None = None

    def __init__(self, message: str, *, route: str | None = None, subject: str | None = None):
        self.route = route
        self.subject = subject
        super().__init__(message)

    @property
    def is_transient(self) -> bool:
        """Whether a retry of the same request can succeed."""
        return isinstance(self, TransientBackendError)

    def attach_batch_state(
        self,
        served: "dict[int, object]",
        failed: "tuple[tuple[int, BaseException], ...]",
    ) -> None:
        """Record the partial outcome of the batch this error aborted."""
        self.served = dict(served)
        self.failed = tuple(failed)


class TransientBackendError(BackendError):
    """A backend fault that a retry of the same request can repair."""


class BackendTimeout(TransientBackendError):
    """The backend did not answer within its deadline.

    Attributes
    ----------
    timeout:
        The deadline that elapsed, in seconds, when known.
    """

    def __init__(self, message: str, *, timeout: float | None = None, **context):
        self.timeout = timeout
        super().__init__(message, **context)


class RateLimited(TransientBackendError):
    """The backend shed load; ``retry_after`` is its requested back-off.

    Attributes
    ----------
    retry_after:
        Seconds the backend asked the caller to wait before retrying;
        retry policies honour it as a lower bound on their computed delay.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0, **context):
        self.retry_after = retry_after
        super().__init__(message, **context)


class MalformedReply(TransientBackendError):
    """The backend answered, but with a truncated or unparseable reply.

    Classified transient: completions are sampled, so re-asking the same
    prompt is expected to produce a well-formed reply — which is also what
    makes chaos runs converge to the fault-free output.

    Attributes
    ----------
    excerpt:
        A short prefix of the malformed reply text, when known.
    """

    def __init__(self, message: str, *, excerpt: str | None = None, **context):
        self.excerpt = excerpt
        super().__init__(message, **context)


def is_transient_fault(error: BaseException) -> bool:
    """True for faults a retry can repair (:class:`TransientBackendError`)."""
    return isinstance(error, TransientBackendError)


def is_permanent_fault(error: BaseException) -> bool:
    """True for classified-permanent backend faults (retrying cannot help).

    Only a :class:`BackendError` that is *not* transient counts: unclassified
    exceptions (a ``RuntimeError`` from a task body) are not "permanent
    backend faults" — retry-budget layers keep their historical behaviour
    for those.
    """
    return isinstance(error, BackendError) and not error.is_transient


class GenerationError(ReproError):
    """Raised when the specification-generation pipeline fails irrecoverably."""


class RepairError(GenerationError):
    """Raised when the repair loop exhausts its attempts without a valid spec."""


class FuzzerError(ReproError):
    """Base class for fuzzing-substrate errors."""


class ProgramError(FuzzerError):
    """Raised when a syscall program is structurally invalid."""


class ExecutorError(FuzzerError):
    """Raised when the simulated kernel executor is driven incorrectly."""


class CoverageSpaceMismatch(FuzzerError, ValueError):
    """Raised when bitmaps over different coverage spaces are combined.

    Config-pruned spaces (:func:`repro.kconfig.prune_coverage_space`) make it
    easy to hold bitmaps whose indices mean different labels; silently
    unioning them would produce wrong counts, so ``union`` /
    ``difference_count`` refuse with this typed error instead.  Subclasses
    ``ValueError`` for compatibility with callers that guarded the historical
    untyped raise.

    Attributes
    ----------
    left_digest / right_digest:
        The two space digests that failed to align, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        left_digest: str | None = None,
        right_digest: str | None = None,
    ):
        self.left_digest = left_digest
        self.right_digest = right_digest
        super().__init__(message)


class ExperimentError(ReproError):
    """Raised when an experiment harness is misconfigured."""


class StoreError(ReproError):
    """Base class for persistent artifact-store failures (:mod:`repro.store`)."""


class StoreCorruption(StoreError):
    """Raised when stored bytes fail verification against their digest.

    The store's integrity contract: a load either returns exactly the bytes
    that were saved, or raises this — never silently wrong content.  Raised
    for blobs whose content no longer hashes to their name (bit flips,
    truncation), manifest lines whose check digest does not match
    (hand-edits, torn writes), manifest entries naming a missing blob, and
    lockfiles whose whole-file checksum fails.

    Attributes
    ----------
    path:
        Filesystem path of the corrupt artifact, when known.
    key:
        Canonical store key whose load surfaced the corruption, when known.
    """

    def __init__(self, message: str, *, path: str | None = None, key: str | None = None):
        self.path = path
        self.key = key
        super().__init__(message)


class StoreLockTimeout(StoreError):
    """Raised when the store's inter-process ``flock`` cannot be acquired in time.

    The store's advisory lock is held only around manifest reads/appends, so
    contention is normally milliseconds; a bounded wait turns a crashed or
    wedged lock holder into a typed, diagnosable error instead of an
    indefinite cross-process hang.

    Attributes
    ----------
    path:
        Filesystem path of the lock file.
    timeout:
        Seconds waited before giving up.
    """

    def __init__(self, message: str, *, path: str | None = None, timeout: float | None = None):
        self.path = path
        self.timeout = timeout
        super().__init__(message)


class FrozenStoreMiss(StoreError):
    """Raised when a frozen (lockfile-pinned) run needs an artifact it lacks.

    Frozen mode trades liveness for reproducibility: an artifact absent from
    the lockfile must fail loudly rather than fall through to a live LLM
    call — a silent recomputation would make the "byte-reproducible rerun"
    claim unverifiable.

    Attributes
    ----------
    key:
        Canonical store key of the missing artifact, when known.
    kind:
        Artifact kind (``llm``/``session``/…), when known.
    """

    def __init__(self, message: str, *, key: str | None = None, kind: str | None = None):
        self.key = key
        self.kind = kind
        super().__init__(message)


class AdmissionError(ReproError):
    """Base class for serving-layer admission-control failures.

    The job service refuses work it cannot (or must not) take on with a
    typed error carrying the admission context, so callers — the ``serve``
    runner, load generators, tests — can distinguish "try again later"
    (:class:`ServiceSaturated`) from "this tenant is out of budget"
    (:class:`TenantBudgetExceeded`) without string matching.
    """


class ServiceSaturated(AdmissionError):
    """Raised when the job service cannot admit more work.

    Attributes
    ----------
    limit:
        The admission limit that was hit (queue capacity), when known.
    pending:
        How much work was already admitted at refusal time, when known.
    """

    def __init__(self, message: str, *, limit: int | None = None, pending: int | None = None):
        self.limit = limit
        self.pending = pending
        super().__init__(message)


class TenantBudgetExceeded(AdmissionError):
    """Raised when a tenant's query budget cannot fund a submitted batch.

    Mirrors the backend budget contract (:class:`LLMBudgetExceeded`): the
    in-budget prefix of the batch is still served and charged before the
    error raises, and ``request_index`` names the position — within the
    submitted batch — of the first request that could not be funded, so the
    failure point is identical whether the tenant batches or loops.
    """

    def __init__(self, tenant: str, *, limit: int, requested: int, request_index: int):
        self.tenant = tenant
        self.limit = limit
        self.requested = requested
        self.request_index = request_index
        super().__init__(
            f"tenant {tenant!r} exceeded its query budget of {limit}: "
            f"{requested} distinct queries submitted, request #{request_index} refused"
        )


class CampaignError(ReproError):
    """Base class for campaign-orchestrator failures (:mod:`repro.orchestrator`).

    Campaigns are DAGs of typed tasks with quality gates at the leaves; the
    orchestrator refuses malformed plans (:class:`CampaignPlanError`), reports
    retry-budget exhaustion (:class:`CampaignTaskFailed`) and failed verifier
    gates (:class:`CampaignGateFailed`) with enough context that CI consumes
    the typed error rather than scraping stdout.
    """


class CampaignPlanError(CampaignError):
    """Raised when a campaign plan is structurally invalid.

    Covers duplicate task ids, edges to unknown tasks, self-dependencies and
    cycles — anything that makes a deterministic topological order
    impossible.  Raised at plan construction, before any task runs.
    """


class CampaignTaskFailed(CampaignError):
    """Raised when a campaign task exhausts its retry budget.

    Attributes
    ----------
    task_id:
        Id of the task whose attempts are exhausted.
    attempts:
        How many attempts were made (retry budget + 1).
    cause:
        The error raised by the final attempt, when known.
    """

    def __init__(self, message: str, *, task_id: str, attempts: int, cause: BaseException | None = None):
        self.task_id = task_id
        self.attempts = attempts
        self.cause = cause
        super().__init__(message)


class CampaignGateFailed(CampaignError):
    """Raised when one or more quality gates report a failing verdict.

    Gates are ordinary terminal tasks that *complete* with a structured
    verdict; a failing verdict fails the campaign as a whole once every
    reachable task has run, so one bad gate never hides another.

    Attributes
    ----------
    gates:
        Task ids of the failed gates, in deterministic (sorted) order.
    details:
        Gate id → human-readable failure detail.
    """

    def __init__(self, message: str, *, gates: tuple[str, ...], details: dict[str, str]):
        self.gates = gates
        self.details = dict(details)
        super().__init__(message)


class EventLogError(CampaignError):
    """Raised when an event violates the event-log schema, or a log is unreadable.

    Attributes
    ----------
    line:
        1-based line number of the offending record when reading a file.
    """

    def __init__(self, message: str, *, line: int | None = None):
        self.line = line
        location = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{location}")
