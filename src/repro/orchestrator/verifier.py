"""Quality gates: first-class terminal campaign tasks with structured verdicts.

A gate is an ordinary :class:`~repro.orchestrator.plan.CampaignTask` of kind
``gate`` that *completes* with a :class:`GateVerdict` — pass/fail plus a
human-readable detail and machine-readable metrics — rather than raising.
The scheduler records the verdict as a ``gate_passed``/``gate_failed``
event and, once every reachable task has run, fails the campaign with a
typed :class:`~repro.errors.CampaignGateFailed` if any verdict failed, so
one bad gate never hides another.

Three gates ship with the standard plan:

``determinism``
    Re-runs one report task, deterministically sampled from the campaign's
    own outputs, against a *fresh*, uncached ``EvaluationContext(config)``
    (no store binding, not the process-cached context the reports used —
    the whole pipeline recomputes live) and byte-compares the rendered text.  The
    executable form of DESIGN.md's determinism rules.
``bench_floors``
    Reads every ``benchmarks/BENCH_*.json`` trajectory and checks the last
    row's headline against its recorded ``check_floor`` — the same contract
    the ``--check`` mode of each benchmark enforces in CI.
``store_verify``
    Runs :meth:`~repro.store.ArtifactStore.verify` over the campaign's
    artifact store: every manifest entry re-hashed against its blob.

Gates are ``cacheable=False``: verification must observe the present run,
never a recorded verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..experiments.config import ExperimentConfig
from .plan import canonical_json, content_digest, output_digest


@dataclass
class GateVerdict:
    """Structured pass/fail outcome of one quality gate."""

    gate: str
    passed: bool
    detail: str
    metrics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "gate": self.gate,
            "passed": self.passed,
            "detail": self.detail,
            "metrics": self.metrics,
        }


def _fuzzer_headline(row: dict) -> float:
    return max(cell["speedup"] for cell in row["budgets"].values())


def _service_headline(row: dict) -> float:
    if "headline_reduction" in row:
        return row["headline_reduction"]
    return max(cell["round_trip_reduction"] for cell in row["grid"].values())


def _orchestrator_headline(row: dict) -> float:
    return row["reuse_speedup"]


def _resilience_headline(row: dict) -> float:
    return row["overhead_pct"]


#: Benchmark name → headline extractor over the trajectory's last row.  The
#: headline is the figure each benchmark's ``--check`` mode compares against
#: its floor (or ceiling); the gate applies the identical comparison.
HEADLINE_EXTRACTORS = {
    "fuzzer-hotloop": _fuzzer_headline,
    "service-throughput": _service_headline,
    "campaign-orchestrator": _orchestrator_headline,
    "diff-campaign": _orchestrator_headline,
    "resilience-overhead": _resilience_headline,
}


def check_recorded_floor(path: Path) -> dict:
    """Check one BENCH_*.json trajectory's last row against its bound.

    Most trajectories record a ``check_floor`` (headline must stay at or
    above it: speedups, round-trip reductions); overhead-style trajectories
    record a ``check_ceiling`` instead (headline must stay at or below it).
    """
    name = path.name
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        benchmark = data["benchmark"]
        row = data["rows"][-1]
        if "check_floor" in row:
            bound, is_floor = row["check_floor"], True
        else:
            bound, is_floor = row["check_ceiling"], False
    except (ValueError, KeyError, IndexError) as error:
        return {"file": name, "passed": False, "detail": f"unreadable trajectory: {error!r}"}
    extractor = HEADLINE_EXTRACTORS.get(benchmark)
    if extractor is None:
        headline = row.get("headline")
        if headline is None:
            return {
                "file": name,
                "passed": False,
                "detail": f"no headline extractor for benchmark {benchmark!r}",
            }
    else:
        try:
            headline = extractor(row)
        except (KeyError, ValueError, TypeError) as error:
            return {"file": name, "passed": False, "detail": f"malformed last row: {error!r}"}
    passed = headline >= bound if is_floor else headline <= bound
    bound_name = "floor" if is_floor else "ceiling"
    detail = f"{benchmark}: headline {headline:.2f} vs {bound_name} {bound:.2f}"
    return {
        "file": name,
        "passed": passed,
        "detail": detail,
        "benchmark": benchmark,
        "headline": headline,
        bound_name: bound,
    }


def bench_floor_gate(bench_dir: str | None) -> GateVerdict:
    """Every recorded benchmark trajectory must sit at or above its floor."""
    directory = Path(bench_dir) if bench_dir else Path("benchmarks")
    trajectories = sorted(directory.glob("BENCH_*.json")) if directory.is_dir() else []
    if not trajectories:
        return GateVerdict(
            "bench_floors",
            True,
            f"no benchmark trajectories under {directory} (vacuous pass)",
            {"trajectories": {}},
        )
    results = [check_recorded_floor(path) for path in trajectories]
    failed = [result for result in results if not result["passed"]]
    detail = "; ".join(result["detail"] for result in results)
    return GateVerdict(
        "bench_floors",
        not failed,
        detail,
        {"trajectories": {result["file"]: result for result in results}},
    )


def store_verify_gate(store_root: str) -> GateVerdict:
    """The campaign's artifact store must pass full integrity verification."""
    from ..errors import StoreCorruption, StoreError
    from ..store import ArtifactStore

    try:
        store = ArtifactStore(store_root)
        verified = store.verify()
    except (StoreCorruption, StoreError) as error:
        return GateVerdict("store_verify", False, f"{type(error).__name__}: {error}")
    return GateVerdict(
        "store_verify",
        True,
        f"verified {verified} artifact(s) in {store_root}",
        {"artifacts": verified},
    )


def sample_report(reports: dict[str, dict]) -> str:
    """Deterministically sample one report task id from the campaign outputs.

    The choice is a function of the report set and their output digests —
    stable across jobs/executor for equivalent runs, but rotating as content
    evolves, so over a trajectory of runs every table gets audited.
    """
    ids = sorted(reports)
    seed = content_digest(
        *(part for task_id in ids for part in (task_id, output_digest(reports[task_id])))
    )
    return ids[int(seed[:16], 16) % len(ids)]


def determinism_gate(config: ExperimentConfig, reports: dict[str, dict]) -> GateVerdict:
    """Re-run one sampled report on a fresh context and byte-compare the output.

    The context is uncached and store-less, so the whole pipeline recomputes live.
    """
    from ..experiments.context import EvaluationContext
    from ..experiments.runner import render_report

    if not reports:
        return GateVerdict("determinism", True, "no report tasks to sample (vacuous pass)")
    task_id = sample_report(reports)
    recorded = reports[task_id]
    fresh = render_report(task_id.split(":", 1)[1], EvaluationContext(config))
    identical = canonical_json(fresh) == canonical_json(recorded)
    if identical:
        detail = f"{task_id} re-run byte-identical"
    else:
        detail = (
            f"{task_id} re-run diverged: recorded {len(recorded.get('text', ''))} chars "
            f"(digest {output_digest(recorded)[:12]}), fresh {len(fresh['text'])} chars "
            f"(digest {output_digest(fresh)[:12]})"
        )
    return GateVerdict("determinism", identical, detail, {"sampled": task_id})


def run_gate(gate: str, params: dict, config: ExperimentConfig, upstream: dict[str, dict]) -> dict:
    """Dispatch one gate task; returns the verdict as a plain dict."""
    if gate == "determinism":
        reports = {
            task_id: output for task_id, output in upstream.items() if task_id.startswith("report:")
        }
        return determinism_gate(config, reports).as_dict()
    if gate == "bench_floors":
        return bench_floor_gate(params.get("bench_dir")).as_dict()
    if gate == "store_verify":
        return store_verify_gate(params["store"]).as_dict()
    from ..errors import CampaignPlanError

    raise CampaignPlanError(f"unknown gate {gate!r}")


__all__ = [
    "HEADLINE_EXTRACTORS",
    "GateVerdict",
    "bench_floor_gate",
    "check_recorded_floor",
    "determinism_gate",
    "run_gate",
    "sample_report",
    "store_verify_gate",
]
