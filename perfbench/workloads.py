"""The benchmark's two workloads: inputs, the timed call, outcome and checks.

Every workload builds its inputs from the seed alone, hands the program only
those inputs, and times exactly one public entry point:

* ``fleet-1k`` — one EV camera fitted on 16 days of history (forecaster
  trained), the offline fit; timed ``ExperimentRunner.run_fleet("static")``
  over 1024 re-seeded, phase-shifted cameras for 216 s of video.
* ``service-drain`` — a 0.5-day fit plus ``submit_fleet`` of 256 phase-shifted
  clones; timed ``FleetIngestionService.run()`` on 2 shards under one binding
  $2/day budget.

NOTES.md in this directory says why each was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

SECONDS_PER_DAY = 86_400.0


class Checks:
    """Correctness checks: attempts and failures per named invariant."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: 20 - len(self.failures)])


@dataclass
class Outcome:
    """What one timed call produced, as a user of the system sees it."""

    segments: int
    quality: float
    cloud_usd: float
    served_ratio: float
    lag_mean_s: float
    lag_max_s: float
    checks: Checks = field(default_factory=Checks, compare=False)

    def metrics(self) -> Dict[str, float]:
        return {
            "segments": float(self.segments),
            "quality": self.quality,
            "cloud_usd": self.cloud_usd,
            "served_ratio": self.served_ratio,
            "lag_mean_s": self.lag_mean_s,
            "lag_max_s": self.lag_max_s,
        }


def import_program() -> None:
    """Import the program's modules up front: set-up time excludes imports."""
    import repro.experiments.runner  # noqa: F401
    import repro.service.service  # noqa: F401
    import repro.workloads.ev  # noqa: F401


def _stream_checks(checks: Checks, results: List[Any], expected: int) -> None:
    """Per stream: arrived = processed + dropped, and arrived = window / segment."""
    for result in results:
        processed = sum(result.configuration_usage.values())
        checks.check(
            "arrived == processed + dropped",
            result.segments_total == processed + result.segments_dropped,
            f"{result.stream_id}: {result.segments_total} != {processed} + "
            f"{result.segments_dropped}",
        )
        checks.check(
            "arrived == window / segment length",
            result.segments_total == expected,
            f"{result.stream_id}: {result.segments_total} != {expected}",
        )


def _bundle(history_days: float, online_days: float, seed: int, **config):
    from repro.experiments.runner import ExperimentConfig, prepare_bundle
    from repro.workloads.ev import make_ev_setup

    setup = make_ev_setup(history_days=history_days, online_days=online_days, seed=seed)
    # No cache_dir and no fit workers: every set-up is a cold, serial fit.
    return prepare_bundle(
        setup,
        ExperimentConfig(
            history_days=history_days, online_days=online_days, seed=seed, **config
        ),
    )


class Workload:
    """One benchmark workload.

    ``setup(seed)`` does the cold set-up the user pays before the call;
    ``prepare(state)`` returns the zero-argument timed call (untimed work such
    as building a fresh service happens here); ``outcome(state, result)``
    turns the call's result into user-visible metrics and runs the checks.
    """

    name = ""
    #: Whether two calls on the same inputs must give identical outcomes.
    deterministic = True
    budget_per_day: Optional[float] = None

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def prepare(self, state: Any) -> Callable[[], Any]:
        raise NotImplementedError

    def outcome(self, state: Any, result: Any) -> Outcome:
        raise NotImplementedError


class Fleet1k(Workload):
    name = "fleet-1k"
    history_days = 16.0
    window_seconds = 216.0
    n_streams = 1024
    cores = 8192
    #: ``static`` registers as not using the cloud, so it runs on a $0 budget.
    budget_per_day = 0.0

    def setup(self, seed: int) -> Any:
        # The offline fit of the paper's setting: set-up time is its cost.
        return _bundle(
            self.history_days,
            self.window_seconds / SECONDS_PER_DAY,
            seed,
            train_forecaster=True,
        )

    def prepare(self, bundle: Any) -> Callable[[], Any]:
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(bundle)
        return lambda: runner.run_fleet(
            "static",
            n_streams=self.n_streams,
            heterogeneous=True,
            scheduler="fifo",
            cores=self.cores,
            buffer_bytes=64_000_000,
        )

    def outcome(self, bundle: Any, result: Any) -> Outcome:
        checks = Checks()
        expected = round(self.window_seconds / bundle.setup.source.segment_seconds)
        _stream_checks(checks, result.results, expected)
        checks.check("one result per camera", result.n_streams == self.n_streams)
        for day, spend in result.cloud_spend_by_day.items():
            checks.check(
                "cloud spend per day <= budget",
                spend <= self.budget_per_day + 1e-9,
                f"day {day}: {spend}",
            )
        return Outcome(
            segments=result.segments_total,
            quality=result.weighted_quality,
            cloud_usd=result.cloud_dollars,
            served_ratio=1.0 - result.segments_dropped / result.segments_total,
            lag_mean_s=result.mean_lag_seconds,
            lag_max_s=result.max_lag_seconds,
            checks=checks,
        )


@dataclass
class ServiceState:
    bundle: Any
    service: Optional[Any] = None


class ServiceDrain(Workload):
    name = "service-drain"
    deterministic = False  # shards race on the shared ledger (see NOTES.md)
    history_days = 0.5
    window_seconds = 1296.0
    n_streams = 256
    n_shards = 2
    cores_per_shard = 64
    budget_per_day = 2.0

    def setup(self, seed: int) -> ServiceState:
        bundle = _bundle(
            self.history_days,
            self.window_seconds / SECONDS_PER_DAY,
            seed,
            cloud_budget_per_day=self.budget_per_day,
        )
        return ServiceState(bundle=bundle, service=self._submitted(bundle))

    def _submitted(self, bundle: Any) -> Any:
        from repro.service.service import FleetIngestionService, ServiceConfig

        # The default store is in memory: the parent idles while shards work.
        service = FleetIngestionService(
            bundle,
            ServiceConfig(
                n_shards=self.n_shards,
                system="skyscraper",
                scheduler="fifo",
                cores_per_shard=self.cores_per_shard,
                buffer_bytes=32_000_000,
                cloud_budget_per_day=self.budget_per_day,
                max_batch_size=32,
            ),
        )
        service.submit_fleet(n_streams=self.n_streams, phase_shift_seconds=60.0)
        return service

    def prepare(self, state: ServiceState) -> Callable[[], Any]:
        service = state.service or self._submitted(state.bundle)
        state.service = None
        return lambda: (service, service.run())

    def outcome(self, state: ServiceState, result: Any) -> Outcome:
        service, report = result
        checks = Checks()
        jobs = service.store.list()
        expected = round(self.window_seconds / state.bundle.setup.source.segment_seconds)
        checks.check("one job per camera", len(jobs) == self.n_streams, str(len(jobs)))
        checks.check("no dead letters", not report.dead_letter, str(report.dead_letter[:3]))
        totals = dropped = processed = 0
        weighted_quality = weighted_lag = lag_max = 0.0
        for job in jobs:
            checks.check("job succeeded", job.status == "success", f"{job.job_id}: {job.status}")
            if job.status != "success":
                continue
            metrics = job.metrics
            total = int(metrics["segments_total"])
            drop = int(metrics["segments_dropped"])
            checks.check(
                "arrived == window / segment length",
                total == expected,
                f"{job.stream_id}: {total} != {expected}",
            )
            checks.check(
                "0 <= dropped <= arrived", 0 <= drop <= total, f"{job.stream_id}: {drop}"
            )
            totals += total
            dropped += drop
            processed += total - drop
            weighted_quality += metrics["quality"] * total
            weighted_lag += metrics["mean_lag_s"] * (total - drop)
            lag_max = max(lag_max, metrics["max_lag_s"])
        checks.check(
            "shard totals == job totals",
            report.segments_total == totals and report.segments_dropped == dropped,
            f"{report.segments_total}/{report.segments_dropped} vs {totals}/{dropped}",
        )
        return Outcome(
            segments=totals,
            # Job outcomes carry no quality weights: segment-mean true quality.
            quality=weighted_quality / totals if totals else 0.0,
            cloud_usd=report.cloud_total_dollars,
            served_ratio=1.0 - dropped / totals if totals else 0.0,
            lag_mean_s=weighted_lag / processed if processed else 0.0,
            lag_max_s=lag_max,
            checks=checks,
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (Fleet1k(), ServiceDrain())
}
