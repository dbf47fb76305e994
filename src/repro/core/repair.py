"""Transactional specification repair: snapshot, batch, commit (§3.2).

The paper's validation-and-repair loop was the last stage still serialized
one LLM query at a time: the per-query loop mutates the suite after every
single repair reply, so the prompt for subject N+1 describes a suite that
subject N's repair already changed.  That coupling is what kept repair off
the batched :meth:`~repro.llm.LLMBackend.complete_batch` protocol.

:class:`RepairTransaction` breaks the coupling the way syzkaller batches
corpus triage per round rather than per program:

1. **Snapshot.**  The transaction copies the suite at round start; every
   repair prompt of the round describes that immutable snapshot.
2. **Group.**  The round's error issues are grouped by ``(subject,
   ErrorCode)`` into independent :class:`RepairItem`\\ s — one prompt each,
   carrying *all* of that subject's issues of that error class.
3. **Batch.**  All items' prompts are fanned out as **one** request batch
   (route tag ``repair``), so a :class:`~repro.llm.BackendPool` can steer
   the whole round to a cheap capability profile and a real provider sees
   one round-trip per round instead of one per broken declaration.
4. **Commit.**  The parsed fragments are applied atomically under the
   deterministic conflict rule below; losers re-queue for the next round.

Determinism rule 7 (the conflict rule)
--------------------------------------
Items are ordered by **subject interning order** — each subject's first
appearance among the report's error issues, which is suite declaration
order because :class:`~repro.syzlang.ValidationReport` emits issues in
declaration order — with a subject's error classes in first-appearance
order after that.  At commit time the fragments are considered in item
order; a fragment is applied only if none of the declarations it touches
(its emitted syscalls/structs/unions/resources/flag sets, plus the
original subject it would rename away) was already touched by a
lower-indexed item.  When
two repairs touch the same declaration, the lower-indexed item wins and
the loser's issues re-queue for the next round.  Renames resolve through
the existing ``_apply_repair`` subject matching, applied in commit order.

Re-queue is realized through re-validation: the committed suite is the
next round's snapshot, so a loser's issues reappear in the fresh report if
(and only if) the winning repairs did not incidentally resolve them — and
under the winner's *new* subject name if the winner renamed the
declaration.  The :class:`RepairCommit` still records the re-queued issues
so round accounting (and the tests) can observe the conflicts.

Transactions are plain data — a suite copy, issue tuples, no locks or
callables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import SyzlangParseError
from ..syzlang import SpecSuite, ValidationIssue, ValidationReport, parse_suite
from ..syzlang.validator import ErrorCode, Severity

#: Valid repair-loop modes: the historical one-query-per-reply loop (the
#: equivalence oracle) and the snapshot-batched transactional protocol.
REPAIR_MODES = ("per-query", "transactional")

#: Routing tag stamped on transactional repair requests when the generator
#: has no explicit repair route — what a kind-route table (``--route
#: repair=gpt-3.5``) keys on.
REPAIR_ROUTE_TAG = "repair"


@dataclass(frozen=True)
class RepairItem:
    """One independent unit of a repair round.

    All of one subject's issues of one error class, to be repaired by a
    single multi-issue prompt.  ``index`` is the item's position in the
    transaction's deterministic order (rule 7) — the priority used to
    resolve commit conflicts.
    """

    index: int
    subject: str
    code: ErrorCode
    issues: tuple[ValidationIssue, ...]

    def render_errors(self) -> str:
        """The item's error messages, one per line, in report order."""
        return "\n".join(issue.render() for issue in self.issues)


@dataclass
class RepairCommit:
    """What one transaction commit did, for accounting and tests.

    ``changed`` mirrors the per-query loop's round-level ``changed`` flag:
    at least one fragment was applied and altered the suite, so another
    round can make progress.
    """

    applied: tuple[RepairItem, ...] = ()
    conflicts: tuple[RepairItem, ...] = ()
    requeued: tuple[ValidationIssue, ...] = ()
    unparsed: tuple[RepairItem, ...] = ()
    empty: tuple[RepairItem, ...] = ()
    touched: tuple[str, ...] = ()
    changed: bool = False


def fragment_declarations(parsed: SpecSuite) -> tuple[str, ...]:
    """Every declaration name a parsed repair fragment would write."""
    names: dict[str, None] = {}
    for syscall in parsed:
        names[syscall.full_name] = None
    for table in (parsed.structs, parsed.unions, parsed.resources, parsed.flags):
        for name in table:
            names[name] = None
    return tuple(names)


class RepairTransaction:
    """One round of snapshot-batched repair over a validation report.

    Construction takes the live suite and the round-start report; the
    transaction copies the suite (the snapshot every prompt of the round
    describes) and builds the deterministic item list.  ``commit`` then
    applies the round's repaired fragments to the *live* suite under the
    conflict rule.  Between snapshot and commit the transaction never
    observes suite mutations — that is what makes the round's prompts
    batchable in one ``complete_batch``.
    """

    def __init__(self, suite: SpecSuite, report: ValidationReport):
        self.snapshot = suite.copy()
        self.suite_name = suite.name
        self.items: tuple[RepairItem, ...] = self._build_items(report)

    @staticmethod
    def _build_items(report: ValidationReport) -> tuple[RepairItem, ...]:
        """Group error issues by ``(subject, code)`` in interning order.

        Subjects come first-appearance ordered straight from
        :meth:`~repro.syzlang.ValidationReport.subjects_with_errors`
        (declaration order — rule 7's interning order); within a subject,
        error classes keep their first-appearance order.  No set or dict
        iteration over hashed content is involved anywhere.  Warnings never
        form items: they do not block validity, and the per-query loop
        never prompts for warning-only subjects either.
        """
        grouped: dict[tuple[str, ErrorCode], list[ValidationIssue]] = {}
        for issue in report.issues:
            if issue.severity is not Severity.ERROR:
                continue
            grouped.setdefault((issue.subject, issue.code), []).append(issue)
        rank = {subject: position for position, subject in enumerate(report.subjects_with_errors())}
        items: list[RepairItem] = []
        # ``sorted`` is stable, so within one subject the error classes keep
        # their first-appearance (insertion) order.
        for subject, code in sorted(grouped, key=lambda key: rank[key[0]]):
            items.append(
                RepairItem(
                    index=len(items),
                    subject=subject,
                    code=code,
                    issues=tuple(grouped[(subject, code)]),
                )
            )
        return tuple(items)

    def __len__(self) -> int:
        return len(self.items)

    # ------------------------------------------------------------- commit
    def commit(
        self,
        fragments: Sequence[str],
        suite: SpecSuite,
        *,
        apply: Callable[..., bool],
    ) -> RepairCommit:
        """Apply the round's repaired fragments atomically to ``suite``.

        ``fragments`` holds one repaired-description text per item, in item
        order (empty string where the backend produced no repair).
        ``apply`` is the fragment applicator —
        ``KernelGPT._apply_repair(suite, text, original_subject=...,
        parsed=...)`` — called in commit order for every winning item
        (handing over the already-parsed fragment, so conflict detection
        and application share one parse), which is what makes renames
        resolve exactly like the per-query loop.

        The conflict rule (determinism rule 7): a fragment's touched
        declarations are its parsed definitions/syscalls plus the item's
        original subject; the first (lowest-indexed) item to touch a
        declaration wins it, later items touching any already-claimed
        declaration are skipped whole and their issues re-queue.
        """
        if len(fragments) != len(self.items):
            raise ValueError(
                f"commit expects {len(self.items)} fragments, got {len(fragments)}"
            )
        touched: dict[str, None] = {}
        applied: list[RepairItem] = []
        conflicts: list[RepairItem] = []
        requeued: list[ValidationIssue] = []
        unparsed: list[RepairItem] = []
        empty: list[RepairItem] = []
        changed = False
        for item, fragment in zip(self.items, fragments):
            if not fragment:
                empty.append(item)
                continue
            try:
                parsed = parse_suite(fragment)
            except SyzlangParseError:
                unparsed.append(item)
                continue
            writes = fragment_declarations(parsed) + (item.subject,)
            if any(name in touched for name in writes):
                conflicts.append(item)
                requeued.extend(item.issues)
                continue
            for name in writes:
                touched[name] = None
            if apply(suite, fragment, original_subject=item.subject, parsed=parsed):
                applied.append(item)
                changed = True
        return RepairCommit(
            applied=tuple(applied),
            conflicts=tuple(conflicts),
            requeued=tuple(requeued),
            unparsed=tuple(unparsed),
            empty=tuple(empty),
            touched=tuple(touched),
            changed=changed,
        )


__all__ = [
    "REPAIR_MODES",
    "REPAIR_ROUTE_TAG",
    "RepairItem",
    "RepairCommit",
    "RepairTransaction",
    "fragment_declarations",
]
