"""End-to-end benchmark of the V-ETL reproduction, with an optional per-layer trace.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-1k --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # each workload in its own process

With ``--trace 0`` a run sets the workload up cold at least three times
(``setup_s`` is the median) and repeats the one timed call, after each set-up
and then until ``--seconds`` of calls have run, and prints the end-to-end
metrics.  With ``--trace 1`` it
sets up once, makes one untraced and one traced call, and prints the
per-layer metrics.  Both modes run the correctness checks; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported (shard processes inherit this).
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any, Dict, Iterator, List, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: A run sets up at least this many times, and until this much set-up time
#: has accumulated: sub-second fits need more samples for a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 6.0
#: Seconds the benchmark process spends on one CPU before it moves on.
CPU_SLICE_SECONDS = 0.5
OFFLINE_STAGES = (
    "sample_segments",
    "filter_configurations",
    "profile_placements",
    "content_categories",
    "label_history",
    "train_forecaster",
)

#: (name, unit) of the end-to-end metrics, reported with ``--trace 0``.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("segments_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("quality", "ratio"),
    ("served_ratio", "ratio"),
    ("lag_mean_s", "sim_s"),
    ("lag_max_s", "sim_s"),
]

#: (name, unit) of the per-layer metrics, reported with ``--trace 1``.
PER_LAYER: List[Tuple[str, str]] = [
    ("core.fleet.select_calls", "count"),
    ("core.fleet.select_s", "s"),
    ("core.fleet.ready_mean", "count"),
    ("core.fleet.ready_max", "count"),
    ("video.states_calls", "count"),
    ("video.states_s", "s"),
    ("video.segments_built", "count"),
    ("video.segment_s", "s"),
    ("workloads.evaluate_calls", "count"),
    ("workloads.evaluate_s", "s"),
    ("core.events.execute_s", "s"),
    ("core.events.engine_self_s", "s"),
    ("core.policy.decide_calls", "count"),
    ("core.policy.decide_s", "s"),
    ("core.policy.observe_s", "s"),
    ("core.switcher.decide_s", "s"),
    ("core.planner.plans", "count"),
    ("core.planner.plan_s", "s"),
    *[(f"core.offline.{stage}_s", "s") for stage in OFFLINE_STAGES],
    ("core.offline.evaluations", "count"),
    ("core.offline.eval_hit_ratio", "ratio"),
    ("core.offline.forecast_mae", "ratio"),
    ("workloads.evaluate_many_rows", "count"),
    ("workloads.evaluate_many_s", "s"),
    ("cluster.profile_calls", "count"),
    ("cluster.profile_s", "s"),
    ("experiments.reprovision_calls", "count"),
    ("experiments.reprovision_s", "s"),
    ("registry.create_policy_calls", "count"),
    ("registry.create_policy_s", "s"),
    ("core.fleet.ledger_calls", "count"),
    ("core.fleet.ledger_s", "s"),
    ("core.fleet.cloud_usd", "USD"),
    ("core.fleet.overspend_usd", "USD"),
    ("service.spawn_s", "s"),
    ("service.batches", "count"),
    ("service.dispatch_s", "s"),
    ("service.worker_busy_s", "s"),
    ("service.ipc_wait_s", "s"),
    ("service.parallel_efficiency", "ratio"),
    ("service.worker_peak_rss_mb", "MB"),
    ("trace.overhead_ratio", "ratio"),
]


@contextmanager
def alternate_cpus(enabled: bool = True) -> Iterator[None]:
    """Move the calling thread round the CPUs it may use, one slice at a time.

    On a shared host each CPU's speed can change in spells of its own, tens
    of seconds long.  A region that runs on one CPU takes that CPU's spell;
    one that visits every CPU in turn takes their average, so one CPU's
    spell no longer decides a run.  Disable it around work that forks
    processes, which would inherit the one-CPU mask.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if not enabled or len(cpus) < 2:
        yield
        return
    thread_id = threading.get_native_id()
    stop = threading.Event()

    def rotate() -> None:
        turn = 0
        while not stop.wait(CPU_SLICE_SECONDS):
            turn += 1
            os.sched_setaffinity(thread_id, {cpus[turn % len(cpus)]})

    try:
        os.sched_setaffinity(thread_id, {cpus[0]})
    except OSError:  # the host does not let us choose: stay where the OS puts us
        yield
        return
    mover = threading.Thread(target=rotate, daemon=True)
    mover.start()
    try:
        yield
    finally:
        stop.set()
        mover.join()
        os.sched_setaffinity(thread_id, cpus)


def _setup(workload: Any, seed: int) -> Tuple[float, Any]:
    """Wall time and state of one cold set-up."""
    gc.collect()
    with alternate_cpus():
        started = perf_counter()
        state = workload.setup(seed)
        return perf_counter() - started, state


def _timed_call(workload: Any, state: Any) -> Tuple[float, Any]:
    """Wall time and outcome of one timed call (preparation is not timed)."""
    call = workload.prepare(state)
    gc.collect()
    # The service's shards are forked inside the call: they must keep every CPU.
    with alternate_cpus(enabled=not getattr(workload, "n_shards", 0)):
        started = perf_counter()
        result = call()
        wall = perf_counter() - started
    return wall, workload.outcome(state, result)


def run_untraced(workload: Any, seed: int, seconds: float, checks: Any) -> Dict[str, float]:
    """Cold set-ups and timed calls for ``seconds``: the end-to-end metrics.

    Each set-up is followed by a timed call on what it built, so the calls
    spread over the whole run rather than bunching at its end.
    """
    setup_times: List[float] = []
    walls: List[float] = []
    outcomes = []

    def more_setups() -> bool:
        return len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS

    state = None
    while more_setups() or sum(walls) < seconds:
        if more_setups():
            state = None  # release the previous fit before the next cold one
            elapsed, state = _setup(workload, seed)
            setup_times.append(elapsed)
        if sum(walls) < seconds:
            wall, outcome = _timed_call(workload, state)
            walls.append(wall)
            outcomes.append(outcome)
            checks.merge(outcome.checks)
    first = outcomes[0].metrics()
    if workload.deterministic:
        for outcome in outcomes[1:]:
            checks.check("repeat calls give identical outcomes", outcome.metrics() == first)

    def median_of(key: str) -> float:
        return statistics.median(outcome.metrics()[key] for outcome in outcomes)

    metrics = {
        "setup_s": statistics.median(setup_times),
        # All calls pooled: segments arrived over their summed wall time.
        "segments_per_s": sum(outcome.segments for outcome in outcomes) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for key in ("quality", "served_ratio", "lag_mean_s", "lag_max_s"):
        metrics[key] = median_of(key)
    print(
        f"  {len(setup_times)} set-ups {['%.3f' % t for t in setup_times]} s; "
        f"{len(walls)} timed calls {['%.3f' % w for w in walls]} s; "
        f"{outcomes[0].segments} segments per call; cloud {median_of('cloud_usd'):.6f} USD"
    )
    return metrics


def run_traced(workload: Any, seed: int, checks: Any) -> Dict[str, float]:
    """One traced set-up, one untraced and one traced call: per-layer metrics."""
    import tracing

    tracer = tracing.Tracer()
    tracing.install_offline_layers(tracer)
    try:
        _, state = _setup(workload, seed)
    finally:
        tracer.uninstall()
    offline = tracer.snapshot()["stats"]
    report = getattr(state, "bundle", state).offline_report

    untraced_wall, untraced = _timed_call(workload, state)
    checks.merge(untraced.checks)

    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        counter_dir = Path(scratch)
        tracing.install_run_layers(tracer)
        tracing.install_service_layers(tracer, counter_dir)
        try:
            traced_wall, traced = _timed_call(workload, state)
        finally:
            tracer.uninstall()
        workers = tracing.merge_worker_counters(tracer, counter_dir)
    checks.merge(traced.checks)
    shards = getattr(workload, "n_shards", 0)
    if shards:
        checks.check(
            "every shard wrote its counters", workers == shards, f"{workers} of {shards}"
        )
    if workload.deterministic:
        checks.check(
            "traced and untraced outcomes identical",
            traced.metrics() == untraced.metrics(),
            f"{traced.metrics()} != {untraced.metrics()}",
        )
    snapshot = tracer.snapshot()
    stats, maxima = snapshot["stats"], snapshot["maxima"]
    # Engine runs in the shards too: their per-stream results never reach the
    # parent, so the traced wrapper checks them where they are made.
    streams = stats.get("check.streams", 0.0)
    unbalanced = stats.get("check.streams_unbalanced", 0.0)
    checks.check(
        "every engine stream: arrived == processed + dropped",
        streams >= getattr(workload, "n_streams", 1) and unbalanced == 0,
        f"{unbalanced:g} of {streams:g} streams",
    )
    overspend, days = tracing.overspend(stats, workload.budget_per_day)

    stats.update(offline)
    get = stats.get
    select_calls = get("core.fleet.select_calls", 0.0)
    # Most per-layer metrics are a traced counter of the same name.
    metrics = {name: get(name, 0.0) for name, _ in PER_LAYER}
    metrics.update(
        {
            "core.fleet.ready_mean": (
                get("core.fleet.ready_sum", 0.0) / select_calls if select_calls else 0.0
            ),
            "core.fleet.ready_max": maxima.get("core.fleet.ready_max", 0.0),
            "video.segments_built": get("video.segment_calls", 0.0),
            "core.planner.plans": get("core.planner.plan_calls", 0.0),
            "core.offline.evaluations": float(
                report.evaluation_cache_hits + report.evaluation_cache_misses
            ),
            "core.offline.eval_hit_ratio": report.evaluation_cache_hit_ratio,
            # 0 when the workload trains no forecaster (the MAE is then NaN).
            "core.offline.forecast_mae": (
                report.forecast_validation_mae
                if math.isfinite(report.forecast_validation_mae)
                else 0.0
            ),
            # Calls count charges; the time also covers the per-segment remaining().
            "core.fleet.ledger_calls": get("core.fleet.ledger_charge_calls", 0.0),
            "core.fleet.ledger_s": get("core.fleet.ledger_charge_s", 0.0)
            + get("core.fleet.ledger_remaining_s", 0.0),
            "core.fleet.overspend_usd": overspend,
            "service.batches": get("service.worker_busy_calls", 0.0),
            "service.parallel_efficiency": (
                get("service.worker_busy_s", 0.0) / (shards * traced_wall) if shards else 0.0
            ),
            "service.worker_peak_rss_mb": maxima.get("service.worker_peak_rss_mb", 0.0),
            "trace.overhead_ratio": traced_wall / untraced_wall - 1.0,
        }
    )
    for stage in OFFLINE_STAGES:
        metrics[f"core.offline.{stage}_s"] = report.stage_runtimes_seconds.get(stage, 0.0)
    print(
        f"  untraced call {untraced_wall:.3f} s, traced call {traced_wall:.3f} s; "
        f"{days} ledger day(s) charged; {workers} shard counter file(s)"
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one workload; print its metrics table and return the result object."""
    from workloads import WORKLOADS, Checks, import_program

    workload = WORKLOADS[name]
    import_program()
    checks = Checks()
    print(f"workload {name}  seed {seed}  trace {int(trace)}  seconds {seconds:g}")
    if trace:
        metrics, units = run_traced(workload, seed, checks), dict(PER_LAYER)
    else:
        metrics, units = run_untraced(workload, seed, seconds, checks), dict(END_TO_END)
    assert set(metrics) == set(units), sorted(set(metrics) ^ set(units))
    for key, unit in units.items():
        print(f"  {key:<34} {metrics[key]:>16.6f} {unit}")
    failed_ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    print(
        f"  checks: {checks.attempted - checks.failed}/{checks.attempted} passed "
        f"(failed_ratio {failed_ratio:.6f})"
    )
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    return {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }


def main(argv: List[str]) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    sys.path.insert(0, str(ROOT / "src"))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


def run_all(names: List[str], args: argparse.Namespace) -> int:
    """Run each workload in a child process of its own, one after another.

    A process of its own gives each workload its own peak RSS and a fresh
    heap.  The children's output passes through; the last line is one result
    object that merges theirs, with the metrics keyed ``<workload>/<metric>``.
    """
    import subprocess

    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    merged: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, *rest],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines), flush=True)
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
