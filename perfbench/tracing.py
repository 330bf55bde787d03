"""Per-layer tracing from outside the program.

The benchmark never edits the program to trace it.  A :class:`Tracer`
replaces public methods at class level (or module-level functions at the
name their caller looks them up by) with wrappers that count calls and time
them with ``perf_counter``.  Wrapped calls nest: each keeps a child-time
accumulator on a stack, so a layer's self time is its own duration minus the
time its wrapped callees took.

Service shards are forked from the traced parent, so they inherit the
wrappers; :func:`traced_worker_main` resets the inherited counters in the
child and writes them to a JSON file when the worker returns, and the parent
merges the files.
"""

from __future__ import annotations

import json
import resource
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()


class Tracer:
    """Call counters and timers for wrapped methods, keyed by layer name."""

    def __init__(self) -> None:
        #: Per wrapped key: [calls, seconds, self seconds].
        self.cells: Dict[str, List[float]] = {}
        #: Other sums: observer figures and counters merged from workers.
        self.stats: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self._stack: List[float] = [0.0]
        self._installed: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Forget every count (the wrappers stay installed)."""
        for cell in self.cells.values():
            cell[:] = [0, 0.0, 0.0]
        self.stats.clear()
        self.maxima.clear()
        self._stack[:] = [0.0]

    def wrap(
        self,
        owner: Any,
        attr: str,
        key: str,
        observe: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a counting, timing wrapper.

        ``key_calls``, ``key_s`` and ``key_self_s`` accumulate the number of
        calls, their total time and their time outside other wrapped calls.
        ``observe(tracer, args, result)`` may record extra per-call figures.
        """
        function = getattr(owner, attr)
        cell = self.cells.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                children = stack.pop()
                stack[-1] += elapsed
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += elapsed - children
            if observe is not None:
                observe(self, args, result)
            return result

        wrapper.__wrapped__ = function
        self.replace(owner, attr, wrapper)

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._installed.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def peak(self, key: str, value: float) -> None:
        """Keep the largest ``value`` seen under ``key``."""
        if value > self.maxima[key]:
            self.maxima[key] = float(value)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Every counter as plain dicts (what a worker writes out)."""
        stats = defaultdict(float, self.stats)
        for key, (calls, seconds, own) in self.cells.items():
            stats[key + "_calls"] += calls
            stats[key + "_s"] += seconds
            stats[key + "_self_s"] += own
        return {"stats": dict(stats), "maxima": dict(self.maxima)}

    def merge(self, snapshot: Dict[str, Dict[str, float]]) -> None:
        """Add a worker's counters to this tracer's."""
        for key, value in snapshot["stats"].items():
            self.stats[key] += value
        for key, value in snapshot["maxima"].items():
            self.peak(key, value)


def observe_ready(tracer: Tracer, args: tuple, _result: Any) -> None:
    """Scheduler ``select(self, ready, now)``: record the ready-set size."""
    ready = len(args[1])
    tracer.stats["core.fleet.ready_sum"] += ready
    tracer.peak("core.fleet.ready_max", ready)


def observe_rows(tracer: Tracer, args: tuple, _result: Any) -> None:
    """``evaluate_many(self, pairs)``: count the evaluated rows."""
    tracer.stats["workloads.evaluate_many_rows"] += len(args[1])


def observe_streams(tracer: Tracer, _args: tuple, result: Any) -> None:
    """``FleetEngine.run``: count streams where arrived != processed + dropped."""
    for stream in result.stream_results.values():
        processed = sum(stream.configuration_usage.values())
        tracer.stats["check.streams"] += 1
        if stream.segments_total != processed + stream.segments_dropped:
            tracer.stats["check.streams_unbalanced"] += 1


def observe_charge(tracer: Tracer, args: tuple, _result: Any) -> None:
    """Ledger ``charge(self, time, dollars)``: keep per-day spend."""
    ledger, time, dollars = args[0], args[1], args[2]
    tracer.stats[f"day_spend.{id(ledger)}.{ledger.day_of(time)}"] += dollars
    tracer.stats["core.fleet.cloud_usd"] += dollars


def install_run_layers(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the timed call goes through."""
    import repro.core.profiles as profiles
    import repro.experiments.runner as runner
    from repro.core.fleet import DailyBudgetLedger, FifoScheduler, FleetEngine
    from repro.core.events import StreamSession
    from repro.core.planner import KnobPlanner
    from repro.core.policy import SkyscraperPolicy
    from repro.core.switcher import KnobSwitcher
    from repro.service.ledger import SharedDailyLedger
    from repro.video.content import ContentModel
    from repro.video.stream import SegmentColumns
    from repro.workloads.ev import EVCountingWorkload

    tracer.wrap(FleetEngine, "run", "core.events.engine", observe_streams)
    tracer.wrap(FifoScheduler, "select", "core.fleet.select", observe_ready)
    tracer.wrap(StreamSession, "execute", "core.events.execute")
    tracer.wrap(ContentModel, "states_at", "video.states")
    tracer.wrap(SegmentColumns, "segment", "video.segment")
    tracer.wrap(EVCountingWorkload, "evaluate", "workloads.evaluate")
    tracer.wrap(SkyscraperPolicy, "decide", "core.policy.decide")
    tracer.wrap(SkyscraperPolicy, "observe", "core.policy.observe")
    tracer.wrap(KnobSwitcher, "decide", "core.switcher.decide")
    tracer.wrap(KnobPlanner, "plan", "core.planner.plan")
    tracer.wrap(profiles, "profile_placements", "cluster.profile")
    tracer.wrap(runner.SystemBundle, "reprovision", "experiments.reprovision")
    tracer.wrap(runner, "create_policy", "registry.create_policy")
    for ledger in (DailyBudgetLedger, SharedDailyLedger):
        tracer.wrap(ledger, "remaining", "core.fleet.ledger_remaining")
        tracer.wrap(ledger, "charge", "core.fleet.ledger_charge", observe_charge)


def install_service_layers(tracer: Tracer, counter_dir: Path) -> None:
    """Wrap the service's dispatch, spawn and worker entry points."""
    import multiprocessing.process
    import repro.service.service as service
    import repro.service.worker as worker

    tracer.wrap(service.FleetIngestionService, "_dispatch_wave", "service.dispatch")
    tracer.wrap(multiprocessing.process.BaseProcess, "start", "service.spawn")
    tracer.wrap(worker, "run_batch", "service.worker_busy")
    worker_main = service.worker_main

    def traced_worker_main(config, bundle, scenario, ledger, inbox, results, *rest):
        # Runs in the forked shard: drop the counters copied from the parent.
        tracer.reset()
        inbox = _TimedInbox(inbox, tracer)
        try:
            worker_main(config, bundle, scenario, ledger, inbox, results, *rest)
        finally:
            tracer.peak(
                "service.worker_peak_rss_mb",
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
            path = counter_dir / f"worker-{config.shard_id}.json"
            path.write_text(json.dumps(tracer.snapshot()))

    tracer.replace(service, "worker_main", traced_worker_main)


def merge_worker_counters(tracer: Tracer, counter_dir: Path) -> int:
    """Fold every worker's counter file into ``tracer``; returns the file count."""
    paths = sorted(counter_dir.glob("worker-*.json"))
    for path in paths:
        tracer.merge(json.loads(path.read_text()))
        path.unlink()
    return len(paths)


class _TimedInbox:
    """A worker inbox whose blocking ``get`` counts as IPC wait."""

    def __init__(self, inbox: Any, tracer: Tracer):
        self._inbox = inbox
        self._tracer = tracer

    def get(self, *args, **kwargs):
        started = perf_counter()
        try:
            return self._inbox.get(*args, **kwargs)
        finally:
            self._tracer.stats["service.ipc_wait_s"] += perf_counter() - started


def install_offline_layers(tracer: Tracer) -> None:
    """Wrap the batched evaluation the offline fit runs on."""
    from repro.workloads.base import BaseWorkload

    tracer.wrap(BaseWorkload, "evaluate_many", "workloads.evaluate_many", observe_rows)


def overspend(stats: Dict[str, float], budget: Optional[float]) -> Tuple[float, int]:
    """Dollars charged above ``budget`` summed over days, and the day count."""
    days = [value for key, value in stats.items() if key.startswith("day_spend.")]
    if budget is None:
        return 0.0, len(days)
    return sum((max(spend - budget, 0.0) for spend in days), 0.0), len(days)
