"""``kernelgpt-repro serve`` — drive the job service from the command line.

A serve invocation submits every ``--job`` up front, streams events as
handlers land, then prints each job's output grouped in submission order
(deterministic whatever the completion order was).  Experiment jobs with
``--output`` write the same ``<experiment>.txt`` files as the batch CLI,
byte for byte — that equivalence is CI-checked.

Job syntax: ``--job [TENANT=]KIND:SPEC`` where KIND is one of
``generation``/``repair``/``fuzz``/``experiment`` and SPEC is
kind-specific (comma-separated handlers, a suite selector, an experiment
name).  A bare name with no kind is shorthand for ``experiment:NAME``.
"""

from __future__ import annotations

import sys

from ..errors import AdmissionError
from ..experiments.flags import build_parser, config_from_args
from ..experiments.runner import EXPERIMENTS
from .jobs import JOB_KINDS, Job


def parse_job(entry: str) -> Job:
    """Parse one ``[TENANT=]KIND:SPEC`` flag into a :class:`Job`."""
    tenant = "default"
    body = entry.strip()
    if "=" in body.split(":", 1)[0]:
        tenant, _, body = body.partition("=")
        tenant, body = tenant.strip(), body.strip()
        if not tenant or not body:
            raise SystemExit(f"--job expects [TENANT=]KIND:SPEC, got {entry!r}")
    kind, separator, spec = body.partition(":")
    kind, spec = kind.strip(), spec.strip()
    if not separator:
        # Bare experiment-name shorthand: --job table1
        kind, spec = "experiment", kind
    if kind not in JOB_KINDS:
        raise SystemExit(
            f"--job {entry!r}: unknown kind {kind!r}; choose from {', '.join(JOB_KINDS)}"
        )
    if not spec:
        raise SystemExit(f"--job {entry!r}: empty spec")
    if kind == "experiment":
        if spec not in EXPERIMENTS:
            raise SystemExit(
                f"--job {entry!r}: unknown experiment {spec!r}; "
                f"choose from {', '.join(EXPERIMENTS)}"
            )
        return Job(kind=kind, tenant=tenant, experiment=spec)
    if kind == "fuzz":
        suite, _, seed = spec.partition("@")
        try:
            seed_value = int(seed) if seed else 0
        except ValueError:
            raise SystemExit(f"--job {entry!r}: seed {seed!r} is not an integer") from None
        return Job(kind=kind, tenant=tenant, suite=suite, seed=seed_value)
    handlers = tuple(part.strip() for part in spec.split(",") if part.strip())
    return Job(kind=kind, tenant=tenant, handlers=handlers)


def parse_tenant_budget(entry: str) -> tuple[str, int]:
    tenant, separator, limit = entry.partition("=")
    tenant, limit = tenant.strip(), limit.strip()
    if not separator or not tenant or not limit.isdigit():
        raise SystemExit(f"--tenant-budget expects TENANT=N, got {entry!r}")
    return tenant, int(limit)


def serve_main(argv: list[str] | None = None) -> int:
    from .service import JobService

    parser = build_parser("serve")
    args = parser.parse_args(argv)
    jobs = [parse_job(entry) for entry in (args.job or [])]
    if not jobs:
        parser.error("at least one --job is required")
    tenant_budgets = dict(parse_tenant_budget(entry) for entry in (args.tenant_budget or []))
    config = config_from_args(args)

    event_log = None
    if args.events is not None:
        # The orchestrator's event log doubles as the service's: same JSONL
        # schema, serve-specific event types, so CI asserts on events here
        # too instead of scraping --profile output.  Built before the
        # service so backend retries and breaker transitions are wired from
        # the first request.
        from ..orchestrator.events import EventLog

        event_log = EventLog(args.events)
    service = JobService(
        config,
        workers=args.workers,
        max_pending=args.max_pending,
        coalesce=not args.no_coalesce,
        window=args.window / 1000.0,
        max_batch=args.max_batch,
        tenant_budgets=tenant_budgets,
        store=args.store,
        job_retries=args.job_retries,
        events=event_log,
    )
    if event_log is not None:
        service.coalescer.observer = lambda info: event_log.emit("coalescer_flush", **info)
    failures = 0
    try:
        try:
            handles = service.submit_all(jobs)
        except AdmissionError as error:
            print(f"admission refused: {error}", file=sys.stderr)
            return 2
        if event_log is not None:
            for handle in handles:
                event_log.emit(
                    "job_admitted",
                    job_id=handle.job_id,
                    kind=handle.job.kind,
                    tenant=handle.job.tenant,
                    label=handle.job.describe(),
                )
        results = [handle.wait() for handle in handles]
        if event_log is not None:
            for result in results:
                event_log.emit(
                    "job_finished",
                    job_id=result.job_id,
                    ok=result.error is None,
                    queries=result.queries,
                    duration=round(result.duration, 6),
                    saved_by_coalescing=result.coalescing.get(
                        "queries_saved_by_coalescing", 0
                    ),
                )
        for result in results:
            print(f"=== {result.job_id} {result.label} (tenant={result.tenant})")
            for event in result.events:
                print(f"  [{event.elapsed:6.2f}s] {event.stage}: {event.detail}")
            if result.error is not None:
                failures += 1
                print(f"  FAILED: {result.error!r}", file=sys.stderr)
                continue
            print(result.text)
            print(f"[{result.job_id}] completed in {result.duration:.1f}s "
                  f"queries={result.queries} "
                  f"saved_by_coalescing={result.coalescing['queries_saved_by_coalescing']}\n")
            if args.output is not None and result.kind == "experiment":
                args.output.mkdir(parents=True, exist_ok=True)
                # result.text already carries the CLI's trailing newline.
                (args.output / f"{_experiment_name(result)}.txt").write_text(result.text)
        if args.profile:
            _print_profile(service, results)
    except AdmissionError as error:
        print(f"admission refused: {error}", file=sys.stderr)
        return 2
    finally:
        # Graceful degradation on exit: drain in-flight jobs first, then
        # terminate.  The drain verdict is part of the event record — a
        # dirty drain means results above may be incomplete.
        clean = service.drain()
        if event_log is not None:
            event_log.emit("service_drained", clean=clean)
        service.close()
        if event_log is not None:
            event_log.close()
    return 1 if failures else 0


def _experiment_name(result) -> str:
    # JobResult carries the human label "experiment:NAME"; recover NAME for
    # the output filename so it matches the batch CLI's layout.
    return result.label.split(":", 1)[1] if ":" in result.label else result.label


def _print_profile(service, results) -> None:
    print("per-job statistics")
    print("------------------")
    for result in results:
        coalescing = result.coalescing
        print(f"{result.job_id}  queries={result.queries:5d}  "
              f"saved_by_coalescing={coalescing.get('queries_saved_by_coalescing', 0):4d}  "
              f"flushes_joined={coalescing.get('flushes_joined', 0):4d}")
        for cache in result.cache.values():
            print(f"    cache {cache['name']:8s}  hits={cache['hits']:6d}  "
                  f"misses={cache['misses']:6d}  hit_rate={cache['hit_rate']:.1%}")
    stats = service.stats()
    coalescer = stats["coalescer"]
    print("coalescer summary")
    print("-----------------")
    print(f"flushes={coalescer['flushes']}  merged_flushes={coalescer['merged_flushes']}  "
          f"requests={coalescer['requests']}  distinct={coalescer['distinct_requests']}  "
          f"saved={coalescer['queries_saved_by_coalescing']}  "
          f"max_merged_batch={coalescer['max_merged_batch']}")
    for kind, entry in sorted(coalescer["by_kind"].items()):
        print(f"  kind {kind:12s}  batches={entry['batches']:5d}  "
              f"requests={entry['requests']:6d}  max_batch={entry['max_batch']:4d}")
    if stats["tenants"]:
        print("tenant budgets")
        print("--------------")
        for tenant, usage in sorted(stats["tenants"].items()):
            print(f"  {tenant:12s}  used={usage['used']:5d}  limit={usage['limit']:5d}  "
                  f"remaining={usage['remaining']:5d}")


if __name__ == "__main__":
    sys.exit(serve_main())
