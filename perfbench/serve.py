"""The ``serve-burst`` workload: open-loop multi-tenant bursts into one JobService.

One harness thread feeds an in-process ``JobService(workers=6)`` a burst
every ``PERIOD_S`` seconds, on a fixed schedule whatever the service does
(an open loop: independent tenants do not wait for each other).  A burst is
five generation jobs, one per tenant, each naming the burst's two shared
"hot" handlers plus one handler of its own, and one background job: a
300-program fuzz run in every third burst, a transactional repair in the
others.  Six workers let a whole burst run at once, so the tenants'
hot-handler request waves line up in the coalescer, which merges and
deduplicates them.

The backend is :class:`RoundTripBackend`, a stand-in that adds
``ROUND_TRIP_S`` of sleep to every ``complete_batch``.  Real analyst round
trips take seconds; 20 ms keeps a run under a minute while round trips,
not CPU, still set generation latency (a traced run used about 0.4 s of
CPU per 1.5 s period).

Latency is taken per generation job, from the burst's scheduled time to
the moment the client sees the job finish.  Background jobs are load.  A
job that fails or is refused counts as missing every latency limit.  After
the timed region every distinct job is re-run alone on a fresh service with
the undelayed analyst, and its text must equal the burst run's (rule 8).

Run as a script it is one fresh interpreter doing one thing: either
``--setup-only`` (time service construction plus the shared-context build)
or the full workload; either way it writes one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import threading
import time

from repro.experiments.config import quick
from repro.llm import LLMBackend, OracleBackend
from repro.service import Job, JobService

#: Added latency per backend round trip (see the module docstring).
ROUND_TRIP_S = 0.020
#: Seconds between bursts.  A burst's jobs all finish in about 1.3 s, so the
#: service is idle briefly before the next one and no backlog builds.
PERIOD_S = 1.5
WORKERS = 6
TENANTS = 5
FUZZ_PROGRAMS = 300
#: Every third burst's background job is a fuzz run.  Fuzz jobs hold the
#: GIL, so a burst with one finishes its generation jobs about 0.5 s later.
#: With fuzz in every other burst the two clusters were equal in size and
#: the generation p50 fell in the gap between them, where its spread over
#: five runs was 0.11 and 0.15; now p50 falls inside the repair bursts and
#: p90 inside the fuzz bursts.
FUZZ_EVERY = 3
#: Generation jobs per run must leave at least ten samples beyond p90.
MIN_GENERATION_JOBS = 100
#: Seconds a client waits for one job before counting it as failed.
JOB_TIMEOUT_S = 60.0

#: Handler pools, fixed here so the job mix does not drift with the repo.
#: Each hot pair costs 15 sequential round trips and is one the oracle
#: repairs, so the tenants sharing it issue identical request waves.  Own
#: handlers cover small and large drivers and sockets.  Repair pairs are
#: handlers the oracle gets wrong first.
HOT_PAIRS = (
    ("sgn_fops", "ppp_fops"),
    ("dm_ctl_fops", "timer_fops"),
    ("uvc_queue_fops", "vmci_fops"),
    ("dvb_demux_fops", "capi20_fops"),
)
OWN_POOL = (
    "btrfs_control_fops", "cec_devnode_fops", "dvb_dvr_fops", "hpet_fops",
    "i2c_n_fops", "loop_control_fops", "loopn_fops", "nbdn_fops",
    "posix_clock_fops", "qat_adf_ctl_fops", "raw_gadget_fops", "snapshot_fops",
    "synth000_fops", "synth003_fops", "synth009_fops", "synth019_fops",
    "synth024_fops", "usbmonn_fops", "caif_stream_proto_ops", "packet_proto_ops",
    "phonet_dgram_proto_ops", "rds_proto_ops", "synthsock12_proto_ops",
    "synthsock27_proto_ops", "synthsock41_proto_ops",
)
REPAIR_PAIRS = (
    ("synth022_fops", "synth027_fops"),
    ("pppol2tp_proto_ops", "synthsock50_proto_ops"),
    ("synth012_fops", "synth029_fops"),
    ("synthsock01_proto_ops", "synthsock25_proto_ops"),
    ("synth016_fops", "synth031_fops"),
)
FUZZ_SEEDS = (0, 1)


class RoundTripBackend(LLMBackend):
    """Stand-in analyst: the wrapped backend plus a fixed delay per round trip.

    Completions come unchanged from ``inner``, and ``store_profile``
    delegates, so the stand-in never changes what a job produces, only
    how long each ``complete_batch`` takes.  It counts round trips and
    requests for the trace.
    """

    def __init__(self, inner: LLMBackend):
        super().__init__(model=inner.model)
        self.inner = inner
        self._count_lock = threading.Lock()
        self.round_trips = 0
        self.requests = 0

    def store_profile(self) -> str:
        return self.inner.store_profile()

    def complete_batch(self, requests):
        time.sleep(ROUND_TRIP_S)
        with self._count_lock:
            self.round_trips += 1
            self.requests += len(requests)
        return self.inner.complete_batch(requests)


def burst_count(seconds: float) -> int:
    """Bursts for a run of ``seconds``: never fewer than the p90 sample floor needs."""
    return max(-(-MIN_GENERATION_JOBS // TENANTS), round(seconds / PERIOD_S))


def _rounds(rng: random.Random, items, count: int) -> list:
    """``count`` items in seeded rounds, each round a permutation of ``items``."""
    drawn: list = []
    while len(drawn) < count:
        drawn.extend(rng.sample(items, len(items)))
    return drawn[:count]


def job_mix(seed: int, bursts: int) -> list[list[Job]]:
    """The seeded job mix: ``bursts`` lists of five generation jobs plus one background job.

    Hot pairs repeat in a seeded order with period 4 and fuzz runs with
    period 3, so every pairing of hot pair and background kind recurs every
    12 bursts, and own handlers come in rounds of the whole pool.  The seed
    changes which tenant, burst and pairing gets which piece of work, not
    how much work a run holds, so runs with different seeds load the
    service alike.
    """
    rng = random.Random(f"serve-burst:{seed}")
    hot = rng.sample(HOT_PAIRS, len(HOT_PAIRS))
    own = _rounds(rng, OWN_POOL, bursts * TENANTS)
    repairs = iter(_rounds(rng, REPAIR_PAIRS, bursts))
    fuzz_seeds = iter(_rounds(rng, FUZZ_SEEDS, bursts))
    mix = []
    for index in range(bursts):
        burst = [
            Job(kind="generation", tenant=f"tenant-{tenant}",
                handlers=(*hot[index % len(hot)], own[index * TENANTS + tenant]))
            for tenant in range(TENANTS)
        ]
        if index % FUZZ_EVERY == FUZZ_EVERY - 1:
            burst.append(
                Job(kind="fuzz", tenant="background", suite="syzkaller",
                    budget_programs=FUZZ_PROGRAMS, seed=next(fuzz_seeds))
            )
        else:
            burst.append(Job(kind="repair", tenant="background", handlers=next(repairs)))
        mix.append(burst)
    return mix


def build_service(backend: LLMBackend, *, workers: int = WORKERS, kernel=None) -> JobService:
    """Construct the service and build the shared context the jobs read."""
    service = JobService(quick(), workers=workers, backend=backend, kernel=kernel)
    context = service.context
    context.kernelgpt
    context.syzkaller_corpus
    context.selection
    return service


def drive(service: JobService, mix: list[list[Job]]) -> dict:
    """Feed ``mix`` on its schedule; returns one record per job and the generator lag."""
    records: list[dict] = []
    waiters: list[threading.Thread] = []
    lag_max = 0.0

    def wait_for(record: dict, handle) -> None:
        try:
            record["result"] = handle.wait(JOB_TIMEOUT_S)
        except TimeoutError as error:
            record["error"] = f"{type(error).__name__}: {error}"
        record["done"] = time.perf_counter()

    start = time.perf_counter() + 0.05
    for index, burst in enumerate(mix):
        due = start + index * PERIOD_S
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lag_max = max(lag_max, time.perf_counter() - due)
        for job in burst:
            record = {"job": job, "burst": index, "due": due}
            records.append(record)
            try:
                handle = service.submit(job)
            except Exception as error:  # a refused job is a failed op
                record["error"] = f"{type(error).__name__}: {error}"
                record["done"] = time.perf_counter()
                continue
            waiter = threading.Thread(target=wait_for, args=(record, handle), daemon=True)
            waiter.start()
            waiters.append(waiter)
    last_due = start + (len(mix) - 1) * PERIOD_S
    for waiter in waiters:
        waiter.join(JOB_TIMEOUT_S)
    drained = time.perf_counter()
    return {"records": records, "lag_max_s": lag_max, "tail_s": drained - last_due}


def job_key(job: Job) -> tuple:
    """What a job's text depends on: everything but the tenant."""
    return (job.kind, job.handlers, job.suite, job.budget_programs, job.seed)


def verify_solo(records: list[dict], kernel) -> list[str]:
    """Re-run each distinct job alone (rule 8) and compare texts; returns mismatches."""
    expected: dict[tuple, str] = {}
    problems = []
    with build_service(OracleBackend(), workers=1, kernel=kernel) as solo:
        for record in records:
            result = record.get("result")
            if result is None or not result.ok:
                continue
            key = job_key(record["job"])
            if key not in expected:
                alone = solo.submit(record["job"]).wait(JOB_TIMEOUT_S)
                expected[key] = alone.text if alone.ok else f"<solo failed: {alone.error!r}>"
            if result.text != expected[key]:
                problems.append(f"{result.job_id} {result.label}: text differs from its solo run")
    return problems


def failed_reason(record: dict) -> str | None:
    if "error" in record:
        return record["error"]
    result = record.get("result")
    if result is None:
        return "no result"
    if not result.ok:
        return f"{type(result.error).__name__}: {result.error}"
    return None


def summarize(run: dict, problems: list[str]) -> dict:
    """Latency, burst makespan and failure accounting for one driven run."""
    records = run["records"]
    failed = [record for record in records if failed_reason(record) is not None]
    ok = [record for record in records if failed_reason(record) is None]
    # A failed or refused job misses every latency limit.
    latencies = [
        JOB_TIMEOUT_S if failed_reason(record) else record["done"] - record["due"]
        for record in records if record["job"].kind == "generation"
    ]
    makespans: dict[int, float] = {}
    for record in records:
        end = record["done"] - record["due"]
        makespans[record["burst"]] = max(makespans.get(record["burst"], 0.0), end)
    return {
        "attempted": len(records),
        "problems": [failed_reason(record) for record in failed] + problems,
        "generation_jobs": len(latencies),
        "job_latency_p50_s": statistics.median(latencies),
        "job_latency_p90_s": statistics.quantiles(latencies, n=10)[8],
        "burst_makespan_s": statistics.median(makespans.values()),
        "burst_makespans_s": [makespans[burst] for burst in sorted(makespans)],
        "lag_max_s": run["lag_max_s"],
        "tail_s": run["tail_s"],
        "queue_wait_p50_s": statistics.median(
            record["done"] - record["due"] - record["result"].duration for record in ok
        ) if ok else 0.0,
        "run_p50_s": statistics.median(record["result"].duration for record in ok) if ok else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    mix = job_mix(args.seed, burst_count(args.seconds))
    backend = RoundTripBackend(OracleBackend())
    began = time.perf_counter()
    service = build_service(backend)
    setup_s = time.perf_counter() - began
    report: dict = {"setup_s": setup_s}
    if not args.setup_only:
        try:
            run = drive(service, mix)
        finally:
            service.close()
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["round_trips"] = backend.round_trips
        report["requests"] = backend.requests
        report.update(summarize(run, verify_solo(run["records"], service.context.kernel)))
    else:
        service.close()
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
