"""One flag set for the four front doors: the runner, ``campaign``, ``diff``, ``serve``.

Each flag is defined once in :data:`FLAGS`; :data:`FRONT_DOORS` names the flags
each front door accepts on top of the eight :data:`CONFIG_FLAGS`, which
:func:`config_from_args` validates and folds into the one frozen
:class:`ExperimentConfig` that carries a run's configuration everywhere.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from .config import ExperimentConfig, paper, quick


def _experiments() -> list[str]:
    from .runner import EXPERIMENTS

    return sorted(EXPERIMENTS) + ["all"]


def _output_dir(value: str) -> Path:
    """``--output DIR``: refuse an existing path that is not a directory."""
    path = Path(value)
    if path.exists() and not path.is_dir():
        raise argparse.ArgumentTypeError(f"{value!r} exists and is not a directory")
    return path


#: Flag name → the one ``add_argument`` call that defines it.
FLAGS = {
    # Config flags, accepted by every front door (see config_from_args).
    "preset": lambda p: p.add_argument("--preset", choices=["quick", "paper"], default="quick"),
    "backends": lambda p: p.add_argument(
        "--backends", metavar="PROFILES",
        help="LLM-choice ablation profiles, e.g. gpt-4,gpt-3.5 (default: gpt-4,gpt-4o,gpt-3.5)"),
    "pool-schedule": lambda p: p.add_argument(
        "--pool-schedule", choices=["tagged", "round-robin"],
        help="BackendPool placement of untagged requests (default: tagged)"),
    "repair-mode": lambda p: p.add_argument(
        "--repair-mode", choices=["per-query", "transactional"],
        help="repair protocol: a round-trip per broken declaration, or per repair round"),
    "route": lambda p: p.add_argument(
        "--route", action="append", metavar="KIND=PROFILE",
        help="route every prompt of KIND to a capability profile, e.g. repair=gpt-3.5"),
    "fault-plan": lambda p: p.add_argument(
        "--fault-plan", metavar="SPEC",
        help="deterministic backend fault injection, e.g. rate=0.2,seed=7[,kinds=timeout]"),
    "retry": lambda p: p.add_argument(
        "--retry", metavar="SPEC", help="resilient-backend retry policy, e.g. attempts=6 or off"),
    "breaker-threshold": lambda p: p.add_argument(
        "--breaker-threshold", type=int, metavar="N",
        help="open a pool member's circuit breaker after N consecutive failures"),
    # Run flags.
    "experiment": lambda p: p.add_argument(
        "--experiment", "-e", action="append", choices=_experiments(),
        help="experiment(s) to run (default: all)"),
    "jobs": lambda p: p.add_argument(
        "--jobs", "-j", type=int, default=1, help="parallel workers (default: 1)"),
    "executor": lambda p: p.add_argument(
        "--executor", choices=["serial", "thread", "process"], default="thread",
        help="worker pool flavour (default: thread)"),
    "store": lambda p: p.add_argument(
        "--store", type=Path, metavar="DIR",
        help="persistent artifact store: hydrate from DIR, write fresh artifacts through"),
    "freeze": lambda p: p.add_argument(
        "--freeze", type=Path, metavar="LOCKFILE",
        help="after a clean run, pin the store manifest to LOCKFILE (needs --store)"),
    "frozen": lambda p: p.add_argument(
        "--frozen", type=Path, metavar="LOCKFILE",
        help="replay LOCKFILE's pins with zero backend traffic (needs --store)"),
    "output": lambda p: p.add_argument(
        "--output", type=_output_dir, metavar="DIR", help="directory to write result text files"),
    "events": lambda p: p.add_argument(
        "--events", type=Path, metavar="FILE", help="append the JSONL event log to FILE"),
    "profile": lambda p: p.add_argument(
        "--profile", action="store_true", help="print stage timings and cache statistics"),
    # Campaign and diff flags.
    "retries": lambda p: p.add_argument(
        "--retries", type=int, default=1, help="retry budget per campaign task (default: 1)"),
    "fuzz-budget": lambda p: p.add_argument(
        "--fuzz-budget", type=int, default=200,
        help="programs per campaign fuzz stage or config cell (default: 200)"),
    "no-gates": lambda p: p.add_argument(
        "--no-gates", action="store_true", help="skip the campaign's quality gates"),
    "bench": lambda p: p.add_argument(
        "--bench", type=Path, metavar="DIR",
        help="trajectory directory for the bench-floors gate (default: benchmarks/)"),
    "configs": lambda p: p.add_argument(
        "--configs", required=True, metavar="A,B,...",
        help="comma-separated kernel config presets, at least 2"),
    # Serve flags.
    "job": lambda p: p.add_argument(
        "--job", action="append", metavar="[TENANT=]KIND:SPEC",
        help="a job to submit (repeatable); bare NAME means experiment:NAME"),
    "workers": lambda p: p.add_argument(
        "--workers", type=int, default=2, help="service worker threads (default: 2)"),
    "no-coalesce": lambda p: p.add_argument(
        "--no-coalesce", action="store_true", help="flush every LLM submission alone"),
    "window": lambda p: p.add_argument(
        "--window", type=float, default=10.0, metavar="MS",
        help="coalescing admission window (default: 10 ms)"),
    "max-batch": lambda p: p.add_argument(
        "--max-batch", type=int, default=64, help="flush at this many pending requests"),
    "tenant-budget": lambda p: p.add_argument(
        "--tenant-budget", action="append", metavar="TENANT=N",
        help="cap TENANT at N distinct backend queries (repeatable)"),
    "max-pending": lambda p: p.add_argument(
        "--max-pending", type=int, help="refuse submissions beyond this many jobs"),
    "job-retries": lambda p: p.add_argument(
        "--job-retries", type=int, default=0, metavar="N",
        help="retries for jobs felled by a transient backend fault (default: 0)"),
}

#: The flags :func:`config_from_args` folds into the run's ExperimentConfig.
CONFIG_FLAGS = (
    "preset", "backends", "pool-schedule", "repair-mode", "route",
    "fault-plan", "retry", "breaker-threshold",
)

#: Front door → (prog, description, the flags it accepts besides CONFIG_FLAGS).
FRONT_DOORS = {
    "runner": (
        None, "Regenerate the KernelGPT evaluation tables/figures",
        ("experiment", "output", "jobs", "executor", "store", "freeze", "frozen", "profile"),
    ),
    "campaign": (
        "kernelgpt-repro campaign",
        "Run the evaluation as a DAG-scheduled campaign with quality gates",
        ("experiment", "jobs", "executor", "store", "events", "output", "bench", "retries",
         "fuzz-budget", "no-gates"),
    ),
    "diff": (
        "kernelgpt-repro diff",
        "Run a differential campaign: one cell per config preset, plus cross-config diff reports",
        ("configs", "jobs", "executor", "store", "events", "output", "retries", "fuzz-budget"),
    ),
    "serve": (
        "kernelgpt-repro serve",
        "Run generation/repair/fuzz/experiment jobs through the coalescing job service",
        ("job", "workers", "no-coalesce", "window", "max-batch",
         "tenant-budget", "max-pending", "store", "output", "events", "job-retries", "profile"),
    ),
}


def build_parser(door: str) -> argparse.ArgumentParser:
    """One front door's parser: its own flags plus every config flag."""
    prog, description, flags = FRONT_DOORS[door]
    parser = argparse.ArgumentParser(prog=prog, description=description)
    for name in flags + CONFIG_FLAGS:
        FLAGS[name](parser)
    return parser


def parse_route_table(entries: list[str]) -> tuple[tuple[str, str], ...]:
    """Parse repeated ``--route KIND=PROFILE`` flags into a route table.

    Entries are sorted by kind so that flag order never changes the
    configuration (route tables are lookup maps, not priority lists); a
    kind given twice is an error rather than a silent last-wins.
    """
    from ..llm import PROFILE_FACTORIES

    table: dict[str, str] = {}
    for entry in entries:
        kind, separator, profile = entry.partition("=")
        kind, profile = kind.strip(), profile.strip()
        if not separator or not kind or not profile:
            raise SystemExit(f"--route expects KIND=PROFILE, got {entry!r}")
        if profile not in PROFILE_FACTORIES:
            raise SystemExit(
                f"--route {entry!r}: unknown profile {profile!r}; "
                f"choose from {', '.join(PROFILE_FACTORIES)}"
            )
        if kind in table:
            raise SystemExit(f"--route given twice for kind {kind!r}")
        table[kind] = profile
    return tuple(sorted(table.items()))


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Fold the parsed config flags into one validated ExperimentConfig.

    Specs are validated here, at the CLI boundary, so a typo fails before
    any kernel assembly rather than deep inside a worker process.
    """
    from ..llm import FaultPlan, RetryPolicy

    config = paper() if args.preset == "paper" else quick()
    backends = tuple(part.strip() for part in (args.backends or "").split(",") if part.strip())
    try:
        if args.fault_plan:
            FaultPlan.parse(args.fault_plan)
        if args.retry and args.retry != "off":
            RetryPolicy.parse(args.retry)
    except ValueError as error:
        raise SystemExit(f"invalid resilience spec: {error}")
    return config.with_overrides(
        llm_backends=backends or config.llm_backends,
        pool_schedule=args.pool_schedule or config.pool_schedule,
        repair_mode=args.repair_mode or config.repair_mode,
        route_table=parse_route_table(args.route) if args.route else config.route_table,
        fault_plan=args.fault_plan,
        retry_spec=args.retry,
        breaker_threshold=args.breaker_threshold,
    )


__all__ = [
    "CONFIG_FLAGS", "FLAGS", "FRONT_DOORS", "build_parser", "config_from_args", "parse_route_table",
]
