"""Job descriptions, streamed events and results for the serving layer.

A :class:`Job` is a declarative description of one unit of pipeline work —
generate specs for some handlers, repair-heavy generation, a fuzzing
campaign, or a full experiment table.  The service turns it into a
:class:`JobHandle` immediately at submission: the handle streams
:class:`JobEvent`\\ s as the job's sub-results land (completed handlers
surface while later ones are still running) and finally carries one
:class:`JobResult` with the rendered text, timing, query accounting and the
job's slice of the coalescer statistics.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Iterator

#: Supported job kinds, in the order the CLI documents them.
JOB_KINDS = ("generation", "repair", "fuzz", "experiment")


@dataclass(frozen=True)
class Job:
    """A declarative request for one unit of pipeline work.

    ``spec`` is kind-specific: handler names for ``generation``/``repair``
    (comma-separated in the CLI), an experiment name for ``experiment``, a
    suite selector (``syzkaller`` or a handler name) for ``fuzz``.
    """

    kind: str
    tenant: str = "default"
    label: str | None = None
    #: Handlers to generate/repair, in output order: the text blocks and
    #: ``handler`` events follow it, while the service runs the handlers'
    #: sessions concurrently.
    handlers: tuple[str, ...] = ()
    #: Experiment name for ``kind == "experiment"`` (e.g. ``table1``).
    experiment: str | None = None
    #: Fuzz-job inputs: which suite to fuzz and how hard.
    suite: str = "syzkaller"
    budget_programs: int = 300
    seed: int = 0
    #: Repair protocol override; None uses the generator's configured mode
    #: (``repair`` jobs default to ``transactional``).
    repair_mode: str | None = None
    #: Job-level retry budget for **transient** backend faults
    #: (:class:`~repro.errors.TransientBackendError` escaping the job's
    #: pipeline); ``None`` defers to the service-wide default.  Permanent
    #: faults and unclassified errors never consume it — they fail the job
    #: on first occurrence.
    retries: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; choose from {', '.join(JOB_KINDS)}")

    def describe(self) -> str:
        """A stable human label: explicit ``label`` or a kind:spec summary."""
        if self.label:
            return self.label
        if self.kind == "experiment":
            return f"experiment:{self.experiment}"
        if self.kind == "fuzz":
            return f"fuzz:{self.suite}@{self.seed}"
        spec = ",".join(self.handlers) if self.handlers else "<all>"
        return f"{self.kind}:{spec}"


@dataclass(frozen=True)
class JobEvent:
    """One streamed sub-result: a handler finished, a stage completed."""

    job_id: str
    stage: str
    detail: str
    elapsed: float


@dataclass
class JobResult:
    """Everything a finished job produced, plus its accounting.

    ``error`` is the raised exception for failed jobs (``text`` is then
    empty); ``coalescing`` is the job's slice of the coalescer statistics —
    ``queries_saved_by_coalescing`` counts this job's requests answered by
    another session's identical in-flight request, and ``by_kind`` snapshots
    the service-wide per-prompt-kind merged batch sizes at completion time.
    """

    job_id: str
    label: str
    kind: str
    tenant: str
    text: str = ""
    error: BaseException | None = None
    duration: float = 0.0
    #: How many times the job ran (1 = no retries were needed).
    attempts: int = 1
    queries: int = 0
    cache: dict = field(default_factory=dict)
    coalescing: dict = field(default_factory=dict)
    events: list[JobEvent] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None


class JobHandle:
    """The caller's view of a submitted job: an event stream plus the result.

    Events arrive on an internal queue as the job runs; :meth:`events`
    drains them in order and terminates when the job finishes.  The handle
    is thread-safe: one thread may stream events while another waits on the
    result.
    """

    def __init__(self, job_id: str, job: Job):
        self.job_id = job_id
        self.job = job
        self._events: queue.Queue[JobEvent | None] = queue.Queue()
        self._done = threading.Event()
        self._result: JobResult | None = None

    # ------------------------------------------------------- producer side
    def _emit(self, event: JobEvent) -> None:
        self._events.put(event)

    def _finish(self, result: JobResult) -> None:
        self._result = result
        self._done.set()
        self._events.put(None)

    # ------------------------------------------------------- consumer side
    def events(self) -> Iterator[JobEvent]:
        """Yield streamed events in emission order until the job finishes."""
        while True:
            event = self._events.get()
            if event is None:
                return
            yield event

    def wait(self, timeout: float | None = None) -> JobResult:
        """Block until the job finishes and return its result."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.job_id} did not finish within {timeout}s")
        assert self._result is not None
        return self._result

    @property
    def done(self) -> bool:
        return self._done.is_set()


__all__ = ["JOB_KINDS", "Job", "JobEvent", "JobResult", "JobHandle"]
