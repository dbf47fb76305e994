"""KernelGPT reproduction benchmark: one run of one workload.

    python3 perfbench/run.py --workload campaign-warm --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric named in ``BENCHMARK.json``; ``--trace 1`` makes the same untraced
measurement and then one traced execution in a separate interpreter, and
prints every per-layer metric instead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it give the host fingerprint, each metric with its unit
and every failed operation.

Noise controls: the store, event logs and outputs live on a tmpfs mounted
over ``.perfbench_scratch/run-<pid>`` inside the checkout, in a private
mount namespace that disappears with the run (a plain directory when
``unshare`` is not permitted; the fingerprint names the filesystem either
way).  Every measured unit of work runs in a fresh interpreter.
``EVIDENCE.md`` records why the workloads are what they are and how steady
their metrics were.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_scratch"
#: Names the mount point in the re-executed child that owns the private tmpfs.
NAMESPACE_ENV = "PERFBENCH_PRIVATE_MOUNT"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign-warm", "serve-burst"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def checkout_problem() -> str | None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no program sources under {ROOT / 'src' / 'repro'}"
    if not (ROOT / "BENCHMARK.json").is_file():
        return f"no BENCHMARK.json at {ROOT}"
    return None


def can_unshare() -> bool:
    if shutil.which("unshare") is None or shutil.which("mount") is None:
        return False
    probe = subprocess.run(unshare_prefix() + ["true"], capture_output=True)
    return probe.returncode == 0


def unshare_prefix() -> list[str]:
    prefix = ["unshare", "--mount", "--propagation", "private"]
    if os.geteuid() != 0:
        prefix.insert(1, "--map-root-user")
    return prefix


def filesystem_type(path: Path) -> str:
    """The type of the filesystem ``path`` lives on, from the mount table."""
    best, kind = "", "unknown"
    resolved = str(path.resolve())
    with open("/proc/self/mounts", encoding="utf-8") as mounts:
        for line in mounts:
            fields = line.split()
            mount_point = fields[1].replace("\\040", " ")
            inside = resolved == mount_point or resolved.startswith(mount_point.rstrip("/") + "/")
            if inside and len(mount_point) >= len(best):
                best, kind = mount_point, fields[2]
    return kind


def fingerprint(scratch: Path) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scratch_fs": filesystem_type(scratch),
    }


def measure(args: argparse.Namespace, work: Path) -> int:
    from workloads import WORKLOADS, run_child, traced_metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.environ["TMPDIR"] = str(work)
    print("# host " + json.dumps(fingerprint(work), sort_keys=True))
    build = run_child(["-m", "compileall", "-q", str(ROOT / "src")], work / "build")
    if build["returncode"] != 0:
        print("perfbench: compiling the sources failed", file=sys.stderr)
        return 1
    outcome = WORKLOADS[args.workload](work, args.seed, args.seconds, bool(args.trace))
    metrics = outcome.metrics
    if args.trace:
        traced = traced_metrics(args.workload, work, args.seed, args.seconds, outcome)
        outcome.attempted += traced.attempted
        outcome.failed += traced.failed
        outcome.notes.extend(traced.notes)
        metrics = traced.metrics
    missing = [item["name"] for item in wanted if item["name"] not in metrics]
    if missing:
        outcome.attempted += 1
        outcome.fail(f"workload produced no value for {', '.join(missing)}")
    result = {}
    for item in wanted:
        value = metrics.get(item["name"], 0.0)
        result[item["name"]] = {"value": value, "unit": item["unit"]}
        print(f"# {args.workload} {item['name']} = {value:.6g} {item['unit']}")
    for line in outcome.info:
        print(f"# {args.workload} {line}")
    print(f"# {args.workload} failed_share = {outcome.failed / max(1, outcome.attempted):.6g} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for note in outcome.notes:
        print(f"# FAILED {note}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": result,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # A terminated run still stops and reaps the processes it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    problem = checkout_problem()
    if problem is not None:
        print(f"perfbench: {problem}; run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    private = os.environ.get(NAMESPACE_ENV)
    if private:
        # Inside the private mount namespace: the tmpfs vanishes with it.  If
        # mounting is refused the directory stays as it is, and the
        # fingerprint's scratch_fs says so.
        subprocess.run(["mount", "-t", "tmpfs", "-o", "size=2g,mode=0700", "perfbench", private])
        return measure(args, Path(private))
    work = SCRATCH / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if can_unshare():
            env = dict(os.environ, **{NAMESPACE_ENV: str(work)})
            child = subprocess.Popen(unshare_prefix() + [sys.executable, *sys.argv], env=env)
            try:
                return child.wait()
            finally:
                if child.poll() is None:
                    # SIGTERM first, so the child reaps its own children.
                    child.terminate()
                    try:
                        child.wait(timeout=30)
                    except subprocess.TimeoutExpired:
                        child.kill()
                        child.wait()
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


if __name__ == "__main__":
    raise SystemExit(main())
