"""The workloads, driven from the harness process through fresh interpreters.

Every measured unit of work runs in a new interpreter started here: a
``kernelgpt-repro campaign`` process for the campaign workloads, a
``serve.py`` process for ``serve-burst``.  This process never imports the
program, so nothing one measurement leaves in memory reaches the next.

Each workload returns a :class:`Outcome`: the end-to-end metrics, the
operations attempted and failed, and a note per failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORIES = HERE / "trajectories"
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

#: A child that runs longer than this is killed and counted as failed, so a
#: hung program cannot hold a run past its time limit.
CHILD_TIMEOUT_S = 120.0
#: Fewest warm re-runs a run takes, whatever ``--seconds`` says.  A traced
#: run needs only a rough untraced baseline for the trace overhead.
MIN_WARM_CAMPAIGNS = 3


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    #: Sample counts and validity figures, printed with the result.
    info: list = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], logs: Path) -> dict:
    """Run one fresh interpreter to completion; wall time, exit code and peak RSS.

    Its output goes to ``logs`` with suffixes ``.out`` and ``.err``.
    ``os.wait4`` reaps the child so its rusage, which covers every
    descendant it waited for, gives the largest process's peak RSS.
    """
    with open(logs.with_suffix(".out"), "wb") as out, \
            open(logs.with_suffix(".err"), "wb") as err:
        launched = time.time()
        began = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    label = f"{logs.parent.name}/{logs.name}"
    print(f"perfbench: {label} exited {proc.returncode} after {wall:.2f}s", file=sys.stderr)
    errors = logs.with_suffix(".err").read_text(encoding="utf-8", errors="replace").strip()
    return {
        "wall_s": wall,
        "launched": launched,
        "returncode": proc.returncode,
        "error": errors.splitlines()[-1] if proc.returncode and errors else "",
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def campaign_argv(store: Path, events: Path, *extra: str) -> list[str]:
    return [
        "-m", "repro.experiments.runner", "campaign", "--preset", "quick",
        "--store", str(store), "--events", str(events), "--bench", str(TRAJECTORIES), *extra,
    ]


def read_events(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def check_campaign(returncode: int, stdout: Path, events: list[dict], *, executed: int,
                   reused: int, gates: int) -> list[str]:
    """Everything that makes one campaign run a failed op, as notes."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    data = stdout.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != GOLDEN["campaign_quick_stdout_sha256"]:
        problems.append(f"stdout digest {digest[:12]} ({len(data)} bytes) differs from golden")
    kinds = [event["type"] for event in events]
    counts = {
        "executed": kinds.count("task_finished"),
        "reused": kinds.count("task_reused"),
        "gates passed": kinds.count("gate_passed"),
    }
    wanted = {"executed": executed, "reused": reused, "gates passed": gates}
    for name, value in wanted.items():
        if counts[name] != value:
            problems.append(f"{counts[name]} tasks {name}, expected {value}")
    finished = [event for event in events if event["type"] == "campaign_finished"]
    if not finished or not finished[-1].get("passed"):
        problems.append("campaign did not finish passed")
    return problems


def task_latencies(run: dict, events: list[dict]) -> list[float]:
    """Seconds from the campaign's launch until each task's result landed."""
    return [
        event["ts"] - run["launched"]
        for event in events
        if event["type"] in ("task_finished", "task_reused")
    ]


def quantile_metrics(per_campaign: list[list[float]]) -> dict:
    """Each campaign's task-latency p50 and p90, then their medians over the run.

    A campaign's tasks land in a few scheduler waves, so pooling several
    campaigns' latencies would make each quantile the slowest campaign's
    wave; the median over campaigns is steadier.
    """
    return {
        "job_latency_p50_s": statistics.median(
            statistics.median(latencies) for latencies in per_campaign
        ),
        "job_latency_p90_s": statistics.median(
            statistics.quantiles(latencies, n=10)[8] for latencies in per_campaign
        ),
    }


def campaign_warm(work: Path, seed: int, seconds: float, trace: bool = False) -> Outcome:
    """Warm ``--jobs 2 --executor process`` re-runs against a store set-up populated."""
    outcome = Outcome()
    store = work / "warm-store"
    populate_dir = work / "warm-populate"
    populate_dir.mkdir()
    events_path = populate_dir / "events.jsonl"
    run = run_child(campaign_argv(store, events_path, "--no-gates"), populate_dir / "campaign")
    outcome.attempted += 1
    for problem in check_campaign(run["returncode"], populate_dir / "campaign.out",
                                  read_events(events_path), executed=12, reused=0, gates=0):
        outcome.fail(f"warm set-up: {problem}")
    setup_s = run["wall_s"]
    walls, per_campaign, rss = [], [], []
    began = time.perf_counter()
    index = 0
    while index < MIN_WARM_CAMPAIGNS or (
            not trace and time.perf_counter() - began < seconds):
        run_dir = work / f"warm-{index}"
        run_dir.mkdir()
        events_path = run_dir / "events.jsonl"
        run = run_child(
            campaign_argv(store, events_path, "--jobs", "2", "--executor", "process"),
            run_dir / "campaign",
        )
        events = read_events(events_path)
        outcome.attempted += 1
        for problem in check_campaign(run["returncode"], run_dir / "campaign.out", events,
                                      executed=3, reused=12, gates=3):
            outcome.fail(f"warm campaign {index}: {problem}")
        walls.append(run["wall_s"])
        per_campaign.append(task_latencies(run, events))
        rss.append(run["peak_rss_mb"])
        index += 1
    outcome.metrics = {
        "wall_s": statistics.median(walls),
        **quantile_metrics(per_campaign),
        "setup_s": setup_s,
        "peak_rss_mb": max(rss),
    }
    outcome.info.append(f"samples: {len(walls)} warm campaigns of 15 tasks each, 1 set-up")
    outcome.info.append("re-run walls (s): " + " ".join(f"{wall:.3f}" for wall in walls))
    return outcome


def serve_argv(seed: int, seconds: float, out: Path, *extra: str) -> list[str]:
    return [str(HERE / "serve.py"), "--seed", str(seed), "--seconds", str(seconds),
            "--out", str(out), *extra]


def serve_setup_probe(work: Path, seed: int, seconds: float, index: int,
                      outcome: Outcome, setups: list) -> None:
    """Time service construction plus the shared-context build in a fresh interpreter."""
    out = work / f"serve-setup-{index}.json"
    run = run_child(serve_argv(seed, seconds, out, "--setup-only"), work / f"serve-setup-{index}")
    if run["returncode"] != 0:
        outcome.attempted += 1
        outcome.fail(f"serve set-up probe {index}: exit code {run['returncode']} {run['error']}")
        return
    setups.append(json.loads(out.read_text(encoding="utf-8"))["setup_s"])


def serve_burst(work: Path, seed: int, seconds: float, trace: bool = False) -> Outcome:
    """Bursty multi-tenant traffic into one in-process JobService."""
    outcome = Outcome()
    setups: list = []
    if not trace:
        serve_setup_probe(work, seed, seconds, 0, outcome, setups)
    out = work / "serve.json"
    run = run_child(serve_argv(seed, seconds, out), work / "serve")
    if run["returncode"] != 0:
        outcome.attempted += 1
        outcome.fail(f"serve run: exit code {run['returncode']} {run['error']}")
        return outcome
    report = json.loads(out.read_text(encoding="utf-8"))
    setups.append(report["setup_s"])
    if not trace:
        serve_setup_probe(work, seed, seconds, 1, outcome, setups)
    outcome.attempted += report["attempted"]
    for problem in report["problems"]:
        outcome.fail(f"serve job: {problem}")
    outcome.metrics = {
        "wall_s": report["burst_makespan_s"],
        "job_latency_p50_s": report["job_latency_p50_s"],
        "job_latency_p90_s": report["job_latency_p90_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    outcome.info.append(
        f"samples: {report['generation_jobs']} generation jobs, {len(setups)} set-ups; "
        f"{report['round_trips']} round trips for {report['requests']} requests; "
        f"generator lag max {report['lag_max_s']:.4f}s; all jobs done "
        f"{report['tail_s']:.2f}s after the last burst"
    )
    outcome.info.append("burst makespans (s): " + " ".join(
        f"{makespan:.3f}" for makespan in report["burst_makespans_s"]))
    return outcome


def traced_metrics(workload: str, work: Path, seed: int, seconds: float,
                   untraced: Outcome) -> Outcome:
    """One traced execution of the workload, set-up included; per-layer metrics.

    ``campaign-warm`` is traced in two fresh interpreters, one populating a
    new store and one re-running against it, and their totals add up.
    ``harness.trace_overhead_s`` is the traced wall time minus the untraced
    run's for the same work.
    """
    from tracer import finish_metrics

    outcome = Outcome()
    if workload == "campaign-warm":
        store = str(work / "traced-store")
        phases = [["--phase", "populate", "--store", store], ["--phase", "rerun", "--store", store]]
        untraced_wall = untraced.metrics["setup_s"] + untraced.metrics["wall_s"]
    else:
        phases = [[]]
        untraced_wall = untraced.metrics["wall_s"]
    totals: dict = {}
    traced_wall = 0.0
    for index, extra in enumerate(phases):
        out = work / f"traced-{index}.json"
        argv = [str(HERE / "tracer.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--work", str(work), "--out", str(out), *extra]
        run = run_child(argv, work / f"traced-{index}")
        outcome.attempted += 1
        if run["returncode"] != 0 or not out.exists():
            outcome.fail(f"traced run: exit code {run['returncode']} {run['error']}")
            return outcome
        report = json.loads(out.read_text(encoding="utf-8"))
        outcome.attempted += report["attempted"] - 1
        for problem in report["problems"]:
            outcome.fail(f"traced run: {problem}")
        traced_wall += report.get("traced_wall_s", run["wall_s"])
        for name, value in report["totals"].items():
            totals[name] = totals.get(name, 0) + value
    outcome.metrics = finish_metrics(totals)
    outcome.metrics["harness.trace_overhead_s"] = traced_wall - untraced_wall
    return outcome


WORKLOADS = {
    "campaign-warm": campaign_warm,
    "serve-burst": serve_burst,
}
