"""Traced execution of one workload, in a fresh interpreter of its own.

Wrappers installed from here, around each layer's public entry points,
record one span per call (name, layer, start, end, parent, thread) and the
counts the per-layer metrics need.  Nothing in ``src/`` changes.  Spans
stay in memory and are written out as JSON lines, into the run's scratch
directory, when the run ends; a span's self time is its duration minus the
time its child spans (same thread, nested inside it) cover.

``campaign-warm`` is traced in two phases, each in its own interpreter
calling the CLI's ``main()``: ``populate`` is the serial cold
``--no-gates`` campaign that fills ``--store``, ``rerun`` the warm
``--jobs 2 --executor process`` campaign against it.  Spans inside the
re-run's process workers are not collected: those tasks' durations come
from the parent's event log.  ``serve-burst`` drives the service
in-process with the code ``serve.py`` uses.  The report carries additive
totals, so the harness can add up phases before :func:`finish_metrics`
takes the ratios.

    python3 perfbench/tracer.py --workload campaign-warm --phase populate --seed 1 \\
        --seconds 40 --work DIR --store DIR --out FILE
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import itertools
import json
import os
import resource
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


class Tracer:
    """Span recorder: per-thread call stacks, totals kept as spans close."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def traced(self, original, name: str, layer: str, on_result=None):
        """A span-recording wrapper around ``original``.

        ``on_result(args, result, duration)`` runs after the span closes.
        """
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                if parent is not None:
                    parent[2] += duration
                with tracer._lock:
                    tracer.spans.append((
                        frame[0], name, layer, frame[1], end,
                        parent[0] if parent else None, threading.get_ident(),
                    ))
                    tracer.self_s[name] += duration - frame[2]
                    tracer.total_s[name] += duration
                    tracer.calls[name] += 1
            if on_result is not None:
                on_result(args, result, duration)
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, layer: str, on_result=None) -> None:
        """Trace calls to the method ``owner.attr``."""
        setattr(owner, attr, self.traced(getattr(owner, attr), name, layer, on_result))

    def wrap_function(self, function, name: str, layer: str):
        """Trace a module-level function everywhere a ``repro`` module bound it by name."""
        traced = self.traced(function, name, layer)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is function:
                        setattr(module, attr, traced)
        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, layer, start, end, parent, thread in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "thread": thread,
                }) + "\n")


def install(tracer: Tracer) -> dict:
    """Wrap every traced entry point; returns live objects the metrics read."""
    import repro.experiments.runner as runner
    import repro.orchestrator.cli  # noqa: F401 - binds the names wrapped below
    import repro.orchestrator.scheduler  # noqa: F401
    import repro.orchestrator.verifier  # noqa: F401
    import repro.service  # noqa: F401
    from repro.baselines import build_syzkaller_corpus
    from repro.core.session import GenerationSession
    from repro.engine import ExecutionEngine
    from repro.extractor import KernelExtractor
    from repro.fuzzer import Fuzzer
    from repro.kernel import build_default_kernel
    from repro.llm import CoalescingBackend, OracleBackend
    from repro.store import ArtifactStore
    from repro.syzlang.validator import SpecValidator
    from serve import RoundTripBackend

    live = {"engines": []}
    tracer.wrap_function(build_default_kernel, "kernel.build", "kernel")
    tracer.wrap(KernelExtractor, "__init__", "extractor.index", "extractor")
    original_extract = KernelExtractor.extract_code

    def counted_extract(self, identifier):
        tracer.add("extractor.lookups")
        return original_extract(self, identifier)

    KernelExtractor.extract_code = counted_extract
    tracer.wrap_function(build_syzkaller_corpus, "baselines.corpus", "baselines")
    tracer.wrap(SpecValidator, "validate", "syzlang.validate", "syzlang")
    for attr, name in (
        ("identifier_stage", "core.identifier"),
        ("type_stage", "core.type"),
        ("dependency_stage", "core.dependency"),
        ("analyze_secondary_handlers", "core.secondary"),
        ("validate_and_repair", "core.repair"),
    ):
        tracer.wrap(GenerationSession, attr, name, "core")

    def count_requests(args, result, duration):
        tracer.add("llm.requests", len(args[1]))

    tracer.wrap(OracleBackend, "complete_batch", "llm.oracle", "llm", count_requests)
    tracer.wrap(RoundTripBackend, "complete_batch", "llm.round_trip", "llm")
    tracer.wrap(CoalescingBackend, "complete_batch", "llm.coalescer", "llm")

    original_engine_init = ExecutionEngine.__init__

    def engine_init(self, *args, **kwargs):
        original_engine_init(self, *args, **kwargs)
        live["engines"].append(self)

    ExecutionEngine.__init__ = engine_init

    def dispatch(args, results, duration):
        # Wall time beyond the shortest schedule the task durations allow.
        engine, stage, tasks = args[0], args[1], args[2]
        durations = [result.duration for result in results] or [0.0]
        lanes = max(1, min(engine.jobs, len(tasks)))
        floor = max(max(durations), sum(durations) / lanes)
        tracer.add("engine.dispatch_s", max(0.0, duration - floor))
        if stage == "campaign":
            tracer.add("orchestrator.waves_s", duration)

    tracer.wrap(ExecutionEngine, "run_tasks", "engine.run_tasks", "engine", dispatch)

    def count_put(args, result, duration):
        tracer.add("store.bytes_written", len(args[2]))

    def count_get(args, result, duration):
        if result is not None:
            tracer.add("store.hits")

    tracer.wrap(ArtifactStore, "__init__", "store.open", "store")
    tracer.wrap(ArtifactStore, "put_bytes", "store.put", "store", count_put)
    tracer.wrap(ArtifactStore, "get_bytes", "store.get", "store", count_get)
    tracer.wrap(ArtifactStore, "verify", "store.verify", "store")

    def count_programs(args, result, duration):
        tracer.add("fuzzer.programs", result.executed_programs)

    tracer.wrap(Fuzzer, "run", "fuzzer.run", "fuzzer", count_programs)
    for name, function in list(runner.EXPERIMENTS.items()):
        runner.EXPERIMENTS[name] = tracer.wrap_function(
            function, "experiments.report", "experiments"
        )

    original_fsync = os.fsync

    def counted_fsync(fd):
        tracer.add("store.fsyncs")
        return original_fsync(fd)

    os.fsync = counted_fsync

    gc_started = {}

    def on_gc(phase, info):
        if phase == "start":
            gc_started[threading.get_ident()] = time.perf_counter()
        else:
            began = gc_started.pop(threading.get_ident(), None)
            if began is not None:
                tracer.add("runtime.gc_pause_s", time.perf_counter() - began)
            if info.get("generation") == 2:
                tracer.add("runtime.gc_gen2")

    gc.callbacks.append(on_gc)
    live["on_gc"] = on_gc
    return live


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_campaign(args, tracer: Tracer, extra: list[str]) -> dict:
    """Call the CLI's ``main()`` in-process; stdout goes to a file for the golden check."""
    from repro.experiments.runner import main as cli_main
    from workloads import TRAJECTORIES

    events = args.work / f"traced-{args.phase}-events.jsonl"
    stdout = args.work / f"traced-{args.phase}-stdout.txt"
    argv = ["campaign", "--preset", "quick", "--store", str(args.store), "--events", str(events),
            "--bench", str(TRAJECTORIES), *extra]
    with open(stdout, "w", encoding="utf-8") as handle, contextlib.redirect_stdout(handle):
        code = cli_main(argv)
    return {"code": code, "stdout": stdout, "events": events}


def orchestrator_metrics(tracer: Tracer, events: list[dict]) -> dict:
    kinds = Counter(event["type"] for event in events)
    finished = [event for event in events if event["type"] == "campaign_finished"]
    wall = finished[-1]["wall"] if finished else 0.0
    gate_s = sum(
        event.get("duration", 0.0) for event in events
        if event["type"] == "task_finished" and event["task_id"].startswith("gate:")
    )
    return {
        "orchestrator.tasks_executed": kinds["task_finished"],
        "orchestrator.tasks_reused": kinds["task_reused"],
        "orchestrator.task_retries": kinds["task_retried"],
        "orchestrator.gate_s": gate_s,
        "orchestrator.overhead_s": max(0.0, wall - tracer.counts["orchestrator.waves_s"]),
    }


#: Totals that only feed a ratio in :func:`finish_metrics`.
RATIO_PARTS = ("engine.memo_hits", "engine.memo_misses", "store.hits", "fuzzer.busy_s")


def layer_totals(tracer: Tracer, live: dict) -> dict:
    """Additive per-layer totals of one traced interpreter; ratios come later."""
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    hits = misses = 0
    for engine in live["engines"]:
        for name, row in engine.cache_stats().items():
            if name in ("extract", "llm", "session"):
                hits += row["hits"]
                misses += row["misses"]
    return {
        "kernel.build_s": self_s["kernel.build"],
        "extractor.index_s": self_s["extractor.index"],
        "extractor.lookups": counts["extractor.lookups"],
        "baselines.corpus_s": self_s["baselines.corpus"],
        "syzlang.validate_s": self_s["syzlang.validate"],
        "core.handlers": calls["core.identifier"],
        "core.identifier_s": self_s["core.identifier"],
        "core.type_s": self_s["core.type"],
        "core.dependency_s": self_s["core.dependency"],
        "core.secondary_s": self_s["core.secondary"],
        "core.repair_s": self_s["core.repair"],
        "llm.round_trips": calls["llm.oracle"],
        "llm.requests": counts["llm.requests"],
        "llm.backend_s": self_s["llm.oracle"] + self_s["llm.round_trip"],
        "llm.coalescer_wait_s": self_s["llm.coalescer"],
        "engine.memo_hits": hits,
        "engine.memo_misses": misses,
        "engine.dispatch_s": counts["engine.dispatch_s"],
        "store.puts": calls["store.put"],
        "store.put_s": self_s["store.put"],
        "store.fsyncs": counts["store.fsyncs"],
        "store.bytes_written": counts["store.bytes_written"],
        "store.open_s": self_s["store.open"],
        "store.gets": calls["store.get"],
        "store.get_s": self_s["store.get"],
        "store.hits": counts["store.hits"],
        "store.verify_s": self_s["store.verify"],
        "fuzzer.programs": counts["fuzzer.programs"],
        "fuzzer.run_s": self_s["fuzzer.run"],
        "fuzzer.busy_s": tracer.total_s["fuzzer.run"],
        "experiments.report_s": self_s["experiments.report"],
        "runtime.gc_pause_s": counts["runtime.gc_pause_s"],
        "runtime.gc_gen2": counts["runtime.gc_gen2"],
    }


def finish_metrics(totals: dict) -> dict:
    """The per-layer metrics from the totals of one or more traced phases.

    Ratios are taken over the summed parts.  The service quantiles and the
    generator lag come from ``serve-burst``'s single phase.
    """
    metrics = {name: value for name, value in totals.items() if name not in RATIO_PARTS}
    lookups = totals["engine.memo_hits"] + totals["engine.memo_misses"]
    gets, busy = totals["store.gets"], totals["fuzzer.busy_s"]
    metrics["engine.memo_hit_rate"] = totals["engine.memo_hits"] / lookups if lookups else 0.0
    metrics["store.hit_rate"] = totals["store.hits"] / gets if gets else 0.0
    metrics["fuzzer.execs_per_s"] = totals["fuzzer.programs"] / busy if busy else 0.0
    return metrics


def trace_serve(args, tracer: Tracer, live: dict) -> dict:
    import serve
    from repro.llm import OracleBackend

    service = serve.build_service(serve.RoundTripBackend(OracleBackend()))
    try:
        run = serve.drive(service, serve.job_mix(args.seed, serve.burst_count(args.seconds)))
    finally:
        service.close()
    summary = serve.summarize(run, [])
    totals = layer_totals(tracer, live)
    totals.update(orchestrator_metrics(tracer, []))
    totals.update({
        "llm.coalesced_saved": service.stats()["coalescer"]["queries_saved_by_coalescing"],
        "service.queue_wait_p50_s": summary["queue_wait_p50_s"],
        "service.run_p50_s": summary["run_p50_s"],
        "harness.lag_max_s": summary["lag_max_s"],
    })
    return {
        "totals": totals,
        "traced_wall_s": summary["burst_makespan_s"],
        "attempted": summary["attempted"],
        "problems": summary["problems"],
    }


#: Per phase: extra campaign flags, then the tasks executed and reused and
#: the gates passed that its event log must show.
PHASES = {
    "populate": (["--no-gates"], (12, 0, 0)),
    "rerun": (["--jobs", "2", "--executor", "process"], (3, 12, 3)),
}


def trace_campaign(args, tracer: Tracer, live: dict) -> dict:
    from workloads import check_campaign, read_events

    extra, (executed, reused, gates) = PHASES[args.phase]
    outcome = run_campaign(args, tracer, extra)
    events = read_events(outcome["events"])
    totals = layer_totals(tracer, live)
    totals.update(orchestrator_metrics(tracer, events))
    totals.update({
        "llm.coalesced_saved": 0,
        "service.queue_wait_p50_s": 0.0,
        "service.run_p50_s": 0.0,
        "harness.lag_max_s": 0.0,
    })
    problems = check_campaign(
        outcome["code"], outcome["stdout"], events, executed=executed, reused=reused, gates=gates
    )
    return {"totals": totals, "attempted": 1, "problems": problems}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["campaign-warm", "serve-burst"])
    parser.add_argument("--phase", choices=sorted(PHASES), default=None)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--store", type=Path, default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.workload == "campaign-warm" and (args.phase is None or args.store is None):
        parser.error("campaign-warm needs --phase and --store")

    tracer = Tracer()
    live = install(tracer)
    cpu_before = cpu_seconds()
    if args.workload == "serve-burst":
        report = trace_serve(args, tracer, live)
    else:
        report = trace_campaign(args, tracer, live)
    report["totals"]["runtime.cpu_s"] = cpu_seconds() - cpu_before
    gc.callbacks.remove(live["on_gc"])
    suffix = f"-{args.phase}" if args.phase else ""
    tracer.write(args.work / f"spans-{args.workload}{suffix}.jsonl")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
