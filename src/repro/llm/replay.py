"""Deterministic test backends: scripted replies and request recording.

Both backends are **engine-safe**: they may be shared by any number of
concurrent generation sessions (a service job's handlers run as concurrent
sessions), and still behave exactly as they would under a serial run.

The original implementations kept unsynchronized FIFO queues — the reply a
prompt received depended on how the schedule interleaved ``pop(0)`` calls,
so they were documented serial-only.  The rewrite keys replies **per
prompt**, by a stable content digest (:func:`prompt_key`):

* an exact-prompt script (:meth:`ReplayBackend.script`) binds a reply
  sequence to one specific prompt;
* a kind-level reply list (:meth:`ReplayBackend.add_reply`) serves *each
  distinct prompt* of that kind independently: the i-th time one exact
  prompt is asked it receives the i-th reply (the last reply repeats once
  the list is exhausted).

Because the reply is a function of (prompt content, per-prompt occurrence
index) — never of global arrival order — any executor schedule produces the
same completion for the same prompt.  Occurrence counters belong to one
backend object: a pickled copy starts at zero, so a multi-reply sequence
only advances within one copy.  Recording appends under a lock, one
exchange per distinct request in request order.

**Interaction with the artifact store** (repro.store): store hydration
happens *above* the backend — the engine's
:class:`~repro.store.StoreBinding` serves stored completions without
calling ``complete_batch`` — so a hydrated reply advances **no** occurrence
counter, records **no** exchange, and meters **no** usage.  A warm start
therefore cannot double-count usage: the backend's
:class:`~repro.llm.UsageMeter` reflects real traffic only, while
run-attributed totals (``GenerationRun.usage_summary``) travel inside the
stored session artifacts and stay byte-identical.  The flip side mirrors
the per-copy counter contract above: the store pins whichever
occurrence of a multi-reply sequence was live when the artifact was first
saved, so a warm rerun replays *that* reply instead of advancing the
sequence — cross-run multi-reply semantics would need a global "i-th ask"
order that, exactly as across pickled copies, does not exist.  Scripts
that must vary across runs belong outside the store (or under a different
:meth:`ReplayBackend.store_profile`, which digests the reply tables and so
already separates differently-scripted backends).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

from ..errors import LLMProtocolError
from .backend import Completion, LLMBackend, LLMRequest, Prompt


def prompt_key(prompt: Prompt) -> str:
    """A stable content digest identifying one exact prompt.

    Derived from the prompt's kind, subject and full text via SHA-256 — the
    same prompt hashes identically in every worker process regardless of
    ``PYTHONHASHSEED``, which is what lets replay scripts and recorded
    transcripts be keyed consistently across processes.
    """
    digest = hashlib.sha256()
    for part in (prompt.kind, prompt.subject, prompt.text):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:24]


class ReplayBackend(LLMBackend):
    """Returns canned completions keyed by prompt content.

    Useful in unit tests that exercise the pipeline's control flow without
    depending on the oracle's analysis.  A prompt with neither an exact
    script nor a kind-level reply raises ``LLMProtocolError`` (unless a
    ``default`` was provided).
    """

    def __init__(
        self,
        replies: dict[str, list[str]] | None = None,
        *,
        default: str | None = None,
        query_budget: int | None = None,
    ):
        super().__init__(model="replay", query_budget=query_budget)
        self._kind_replies: dict[str, list[str]] = {
            kind: list(items) for kind, items in (replies or {}).items()
        }
        self._scripted: dict[str, list[str]] = {}
        self._default = default
        # Per-prompt occurrence counters (content digest -> times asked).
        # The lock only orders counter bumps for *identical* concurrent
        # prompts; distinct prompts never contend on reply choice.
        self._counts: dict[str, int] = {}
        self._replay_lock = threading.Lock()

    def script(self, prompt: Prompt, *texts: str) -> None:
        """Bind a reply sequence to one exact prompt (content-hash keyed)."""
        if not texts:
            raise ValueError("script() needs at least one reply text")
        self._scripted.setdefault(prompt_key(prompt), []).extend(texts)

    def add_reply(self, kind: str, text: str) -> None:
        """Append a kind-level reply, served per distinct prompt of ``kind``."""
        self._kind_replies.setdefault(kind, []).append(text)

    def complete_batch(self, requests) -> list[Completion]:
        """Serve a batch through the base template.

        Replies remain a function of (prompt content, per-prompt occurrence
        index): in-batch duplicates are deduped by the template, so they all
        receive the completion of one occurrence — the same collapse the
        engine's single-flight cache applies to concurrent identical
        prompts — and the occurrence counter advances once per batch.
        """
        return self._serve_batch(requests)

    def complete(self, prompt: Prompt) -> Completion:
        key = prompt_key(prompt)
        with self._replay_lock:
            occurrence = self._counts.get(key, 0)
            self._counts[key] = occurrence + 1
        sequence = self._scripted.get(key) or self._kind_replies.get(prompt.kind)
        if sequence:
            return Completion(text=sequence[min(occurrence, len(sequence) - 1)], model=self.model)
        if self._default is not None:
            return Completion(text=self._default, model=self.model)
        raise LLMProtocolError(f"no scripted reply for prompt kind {prompt.kind!r}")

    def store_profile(self) -> str:
        """Identity for persistent cache keys: a digest of the reply tables.

        Covers the scripted sequences, kind-level replies and the default —
        differently-scripted replay backends never share stored artifacts.
        Occurrence *counters* are deliberately excluded: they are run-local
        mutable state (worker-local by the same contract as pickling), and
        including them would make every ask rotate the key space.  The
        consequence, documented in the module docstring, is that the store
        pins the first-saved occurrence of a multi-reply sequence.
        """
        digest = hashlib.sha256()
        for kind in sorted(self._kind_replies):
            digest.update(f"kind:{kind}".encode("utf-8"))
            for text in self._kind_replies[kind]:
                digest.update(text.encode("utf-8"))
                digest.update(b"\x00")
        for key in sorted(self._scripted):
            digest.update(f"script:{key}".encode("utf-8"))
            for text in self._scripted[key]:
                digest.update(text.encode("utf-8"))
                digest.update(b"\x00")
        if self._default is not None:
            digest.update(b"default:")
            digest.update(self._default.encode("utf-8"))
        return f"replay:{digest.hexdigest()[:16]}"

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state.pop("_replay_lock", None)
        # Occurrence counters are worker-local by contract (see the module
        # docstring): a copy starts counting from zero rather than from a
        # meaningless snapshot of the parent's history.
        state["_counts"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._replay_lock = threading.Lock()


@dataclass(frozen=True)
class RecordedExchange:
    """One prompt/completion pair captured by :class:`RecordingBackend`."""

    prompt: Prompt
    completion: Completion

    @property
    def key(self) -> str:
        return prompt_key(self.prompt)


class RecordingBackend(LLMBackend):
    """Wraps another backend and records every exchange (for inspection/tests)."""

    def __init__(self, inner: LLMBackend):
        super().__init__(model=f"recording({inner.model})")
        self._inner = inner
        self.exchanges: list[RecordedExchange] = []
        self._record_lock = threading.Lock()

    def complete_batch(self, requests) -> list[Completion]:
        """Forward the distinct sub-batch to the inner backend, recording it.

        The inner backend sees one ``complete_batch`` call per wrapper batch
        (so its own batch semantics — dedupe, budget, metering — apply at
        the same granularity), and one exchange is recorded per distinct
        request, in request order.
        """
        return self._serve_batch(requests, complete_many=self._complete_and_record)

    def store_profile(self) -> str:
        """Delegate to the wrapped backend: recording never changes completions.

        Artifacts stored through a recording wrapper are hits for the bare
        backend (and vice versa) — and store hydration bypasses the wrapper
        entirely, so hydrated replies are never re-recorded into the
        transcript (see the module docstring).
        """
        return self._inner.store_profile()

    def _complete_and_record(self, requests: list[LLMRequest]) -> list[Completion]:
        completions = self._inner.complete_batch(requests)
        with self._record_lock:
            self.exchanges.extend(
                RecordedExchange(prompt=request.prompt, completion=completion)
                for request, completion in zip(requests, completions)
            )
        return completions

    def prompts_of_kind(self, kind: str) -> list[Prompt]:
        with self._record_lock:
            return [exchange.prompt for exchange in self.exchanges if exchange.prompt.kind == kind]

    def exchanges_for(self, prompt: Prompt) -> list[RecordedExchange]:
        """Every recorded exchange whose prompt content matches ``prompt``."""
        key = prompt_key(prompt)
        with self._record_lock:
            return [exchange for exchange in self.exchanges if exchange.key == key]

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state.pop("_record_lock", None)
        # A pickled copy starts with an empty transcript instead of
        # carrying the full recorded history.
        state["exchanges"] = []
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._record_lock = threading.Lock()


__all__ = ["ReplayBackend", "RecordingBackend", "RecordedExchange", "prompt_key"]
