"""The multi-stream fleet engine: N streams on one shared cluster.

One :class:`FleetEngine` ingests a fleet of streams concurrently on a single
:class:`~repro.cluster.resources.ClusterSpec`: arrivals and finishes from all
streams interleave on one event loop (:mod:`repro.core.events`), the cloud's
daily budget is a shared ledger across the fleet, and whenever the cluster
frees up a pluggable :class:`Scheduler` decides which stream's pending
segment gets the cores next.

Built-in schedulers, with their cost per serve for ``n`` ready streams:

* ``"fifo"`` — globally oldest pending segment first (arrival order across
  the whole fleet); a heap keyed by head arrival time, O(log n);
* ``"round-robin"`` — cycle through the streams in fleet order, skipping
  streams with nothing pending; a bisect on the fleet index, O(log n);
* ``"lag-aware"`` — serve the stream at greatest risk of violating its
  buffer bound first: highest buffer-fill fraction, ties broken by lag; a
  scan, O(n).

The engine calls ``select(ready, now)`` exactly once per serve, with
``ready`` the sessions that have pending segments, in fleet order.  A
scheduler that also defines ``push(session)`` is told whenever a session's
head segment changes — when the session becomes ready and after a serve
that leaves it non-empty — which is all an index keyed by the head needs.
Schedulers without ``push`` (the select-only default) work unchanged.  The
engine's own upkeep of ``ready`` is an ``insort``/``del`` at a bisected
position, so with the indexed built-ins no step of a serve scans the fleet.
The scan versions of ``"fifo"`` and ``"round-robin"`` live on in
:mod:`repro.core.reference` as the parity oracle.

The single-stream :class:`~repro.core.engine.IngestionEngine` is a thin
wrapper over a one-stream fleet, with bit-for-bit identical results.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple, Union

from repro.cluster.resources import CloudSpec, ClusterSpec
from repro.core.engine import IngestionResult, Policy, SECONDS_PER_DAY
from repro.core.events import ARRIVAL, FINISH, EventLoop, StreamSession
from repro.core.interfaces import VETLWorkload
from repro.errors import ConfigurationError
from repro.video.stream import SyntheticVideoSource


# --------------------------------------------------------------------- #
# Shared daily cloud-budget ledger
# --------------------------------------------------------------------- #
class DailyBudgetLedger:
    """Cloud spend charged against a daily budget shared by a whole fleet.

    The budget resets at every day boundary (``time // 86_400``): spend is
    bucketed by day index, and the remaining budget at any instant is the
    daily allowance minus what the fleet already spent that day.  A ``None``
    budget means unlimited cloud.
    """

    def __init__(self, daily_budget_dollars: Optional[float]):
        if daily_budget_dollars is not None and daily_budget_dollars < 0:
            raise ConfigurationError("daily_budget_dollars must be non-negative")
        self.daily_budget_dollars = daily_budget_dollars
        self.spend_by_day: Dict[int, float] = {}
        # Current-day bucket cache: ``remaining``/``charge`` run per segment
        # and almost always hit the same day, so the day index and its spend
        # are kept hot between consecutive same-day calls.
        self._cached_day: Optional[int] = None
        self._cached_spend = 0.0

    @staticmethod
    def day_of(time: float) -> int:
        return int(time // SECONDS_PER_DAY)

    def _day_spend(self, day: int) -> float:
        if day != self._cached_day:
            self._cached_day = day
            self._cached_spend = self.spend_by_day.get(day, 0.0)
        return self._cached_spend

    def spent_on(self, time: float) -> float:
        """Dollars already spent during the day containing ``time``."""
        return self._day_spend(self.day_of(time))

    def remaining(self, time: float) -> float:
        """Budget left for the day containing ``time`` (``inf`` if unlimited)."""
        if self.daily_budget_dollars is None:
            return float("inf")
        return max(self.daily_budget_dollars - self.spent_on(time), 0.0)

    def charge(self, time: float, dollars: float) -> None:
        """Charge ``dollars`` against the day containing ``time``."""
        day = self.day_of(time)
        spend = self._day_spend(day) + dollars
        self.spend_by_day[day] = spend
        self._cached_spend = spend

    @property
    def total_dollars(self) -> float:
        return sum(self.spend_by_day.values())


# --------------------------------------------------------------------- #
# Pluggable schedulers
# --------------------------------------------------------------------- #
class Scheduler(Protocol):
    """Decides which ready stream's pending segment gets the cluster next.

    ``select`` receives the sessions that have at least one pending segment,
    in fleet order, and the current simulation time; it returns one of them.
    Schedulers may keep state between calls (e.g. a round-robin cursor); the
    fleet engine builds a fresh instance per run when given a name.

    A scheduler may also define ``push(session)``: the engine then calls it
    whenever ``session.pending[0]`` changes (the session became ready, or a
    serve left it non-empty).  It is optional; see :class:`FifoScheduler`.
    """

    name: str

    def select(self, ready: Sequence[StreamSession], now: float) -> StreamSession:
        ...


_SCHEDULERS: Dict[str, Callable[[], "Scheduler"]] = {}
_fleet_index = attrgetter("index")


def register_scheduler(name: str) -> Callable[[Callable[[], "Scheduler"]], Callable[[], "Scheduler"]]:
    """Register a scheduler factory under ``name`` (used by ``scheduler=`` strings)."""
    if not name:
        raise ConfigurationError("scheduler name must be non-empty")

    def decorate(factory: Callable[[], "Scheduler"]) -> Callable[[], "Scheduler"]:
        if name in _SCHEDULERS:
            raise ConfigurationError(f"scheduler {name!r} is already registered")
        _SCHEDULERS[name] = factory
        return factory

    return decorate


def scheduler_names() -> List[str]:
    """Names of every registered scheduler, sorted."""
    return sorted(_SCHEDULERS)


def make_scheduler(scheduler: Union[str, "Scheduler"]) -> "Scheduler":
    """Resolve ``scheduler``: a registered name builds a fresh instance."""
    if isinstance(scheduler, str):
        if scheduler not in _SCHEDULERS:
            raise ConfigurationError(
                f"unknown scheduler {scheduler!r}; registered: {scheduler_names()}"
            )
        return _SCHEDULERS[scheduler]()
    return scheduler


@register_scheduler("fifo")
class FifoScheduler:
    """Globally oldest pending segment first (fleet-wide arrival order).

    Keeps the ready sessions in a heap keyed ``(head arrival_time, index)``,
    so a serve costs O(log streams) instead of a scan.  A session's key
    changes only when it is served (arrivals append behind the head, and an
    overflow drops the new segment, not the head), so the engine's
    :meth:`push` on becoming ready and after a serve that leaves the session
    non-empty keeps every key exact.  Ties go to the lowest fleet index, as
    ``min()`` over ``ready`` in fleet order would.
    """

    name = "fifo"

    def __init__(self):
        self._heap: List[Tuple[float, int]] = []
        self._sessions: Dict[int, StreamSession] = {}

    def push(self, session: StreamSession) -> None:
        """Index a session whose head segment is ``pending[0]``."""
        self._sessions[session.index] = session
        heappush(self._heap, (session.pending[0].arrival_time, session.index))

    def select(self, ready: Sequence[StreamSession], now: float) -> StreamSession:
        # Between serves only the chosen session can leave ``ready``, so the
        # heap holds exactly the ready sessions iff the sizes agree.  A
        # driver that never pushes (or an instance reused after an aborted
        # run) gets the heap rebuilt from ``ready`` instead.
        if len(self._heap) != len(ready):
            self._sessions = {session.index: session for session in ready}
            self._heap = [
                (session.pending[0].arrival_time, session.index) for session in ready
            ]
            heapify(self._heap)
        return self._sessions[heappop(self._heap)[1]]


@register_scheduler("round-robin")
class RoundRobinScheduler:
    """Cycle through the streams in fleet order, skipping idle streams."""

    name = "round-robin"

    def __init__(self):
        self._cursor = 0

    def select(self, ready: Sequence[StreamSession], now: float) -> StreamSession:
        # ``ready`` is in fleet order: the first session at or after the
        # cursor, wrapping round to the start.
        position = bisect_left(ready, self._cursor, key=_fleet_index)
        chosen = ready[position] if position < len(ready) else ready[0]
        self._cursor = chosen.index + 1
        return chosen


@register_scheduler("lag-aware")
class LagAwareScheduler:
    """Overflow-risk priority: fullest buffer first, ties broken by lag.

    A stream whose buffer is nearly full is about to drop segments no matter
    how patient the others are, so it gets the cores first; among equally
    endangered streams the one that has waited longest wins.
    """

    name = "lag-aware"

    def select(self, ready: Sequence[StreamSession], now: float) -> StreamSession:
        def priority(session: StreamSession):
            capacity = session.buffer_capacity_bytes
            fill = session.buffer_bytes / capacity if capacity > 0 else 1.0
            lag = now - session.pending[0].arrival_time
            return (fill, lag)

        return max(ready, key=priority)


# --------------------------------------------------------------------- #
# Fleet streams and results
# --------------------------------------------------------------------- #
@dataclass
class FleetStream:
    """One member stream of a fleet ingestion.

    Attributes:
        workload: the stream's V-ETL job.
        source: the stream's video source.
        policy: the stream's decision policy (one instance per stream —
            policies are stateful and must not be shared).
        stream_id: identifier used in results; defaults to the source's.
        buffer_capacity_bytes: the stream's video-buffer size.
        on_overflow: ``"drop"`` or ``"raise"`` (see the engine docs).
        ledger: optional per-stream budget ledger overriding the engine's
            shared one — how a fleet plan's per-tenant sub-budgets deploy
            (see :class:`repro.planning.allocation.TenantSubLedger`, whose
            charges forward to the shared ledger so fleet-wide accounting
            stays intact).  Anything that quacks like
            :class:`DailyBudgetLedger` works.
    """

    workload: VETLWorkload
    source: SyntheticVideoSource
    policy: Policy
    stream_id: Optional[str] = None
    buffer_capacity_bytes: int = 4_000_000_000
    on_overflow: str = "drop"
    ledger: Optional[object] = None


@dataclass
class FleetResult:
    """Aggregate outcome of one fleet ingestion.

    Per-stream :class:`IngestionResult` objects carry the detailed telemetry;
    the aggregate properties fold them into fleet-level metrics.  See
    :func:`repro.experiments.results.fleet_point` for the flattened record
    used by sweeps and benchmarks.
    """

    scheduler: str
    start_time: float
    end_time: float
    stream_results: Dict[str, IngestionResult] = field(default_factory=dict)
    cloud_spend_by_day: Dict[int, float] = field(default_factory=dict)

    @property
    def n_streams(self) -> int:
        return len(self.stream_results)

    @property
    def results(self) -> List[IngestionResult]:
        return list(self.stream_results.values())

    @property
    def segments_total(self) -> int:
        return sum(result.segments_total for result in self.results)

    @property
    def segments_dropped(self) -> int:
        return sum(result.segments_dropped for result in self.results)

    @property
    def overflow_count(self) -> int:
        return sum(result.overflow_count for result in self.results)

    @property
    def overflowed(self) -> bool:
        return any(result.overflowed for result in self.results)

    @property
    def cloud_dollars(self) -> float:
        return sum(result.cloud_dollars for result in self.results)

    @property
    def on_prem_core_seconds(self) -> float:
        return sum(result.on_prem_core_seconds for result in self.results)

    @property
    def cloud_core_seconds(self) -> float:
        return sum(result.cloud_core_seconds for result in self.results)

    @property
    def total_work_core_seconds(self) -> float:
        return self.on_prem_core_seconds + self.cloud_core_seconds

    @property
    def peak_buffer_bytes(self) -> int:
        return max((result.peak_buffer_bytes for result in self.results), default=0)

    @property
    def weighted_quality(self) -> float:
        """Entity-weighted quality pooled across the whole fleet."""
        weight = sum(result.total_quality_weight for result in self.results)
        if weight <= 0:
            return self.mean_true_quality
        return sum(result.total_weighted_quality for result in self.results) / weight

    @property
    def mean_true_quality(self) -> float:
        total = self.segments_total
        if total == 0:
            return 0.0
        return sum(result.total_true_quality for result in self.results) / total

    @property
    def max_lag_seconds(self) -> float:
        return max((result.max_lag_seconds for result in self.results), default=0.0)

    @property
    def mean_lag_seconds(self) -> float:
        processed = self.segments_total - self.segments_dropped
        if processed <= 0:
            return 0.0
        return sum(result.total_lag_seconds for result in self.results) / processed


# --------------------------------------------------------------------- #
# The fleet engine
# --------------------------------------------------------------------- #
class FleetEngine:
    """Ingests N streams concurrently on one shared cluster.

    The engine serializes segment processing on the shared cluster — at most
    one segment is on the cores at a time, exactly as in the single-stream
    reference model — and interleaves the streams' arrivals, decisions and
    finishes on an event loop.  Which pending segment runs next is the
    scheduler's call.

    Args:
        cluster: the shared on-premise hardware.
        cloud: shared cloud specification; its ``daily_budget_dollars`` funds
            the whole fleet through one :class:`DailyBudgetLedger`.
        scheduler: a registered scheduler name (``"fifo"``,
            ``"round-robin"``, ``"lag-aware"``) or a :class:`Scheduler`
            instance.  Names build a fresh instance per run.
        keep_traces: whether sessions record per-segment traces.
        ledger: an external budget ledger to charge instead of a fresh
            per-run :class:`DailyBudgetLedger` — how sharded fleets spend
            one shared daily budget across engines (see
            :class:`repro.service.ledger.SharedDailyLedger`).  With an
            external ledger the result's ``cloud_spend_by_day`` reflects
            the *shared* ledger, not just this engine's charges.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        cloud: Optional[CloudSpec] = None,
        scheduler: Union[str, Scheduler] = "fifo",
        keep_traces: bool = True,
        ledger: Optional["DailyBudgetLedger"] = None,
    ):
        self.cluster = cluster
        self.cloud = cloud or CloudSpec()
        self.scheduler = scheduler
        self.keep_traces = keep_traces
        self.ledger = ledger

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        streams: Sequence[FleetStream],
        start_time: float,
        end_time: float,
    ) -> FleetResult:
        """Ingest every stream over ``[start_time, end_time)`` concurrently."""
        if end_time <= start_time:
            raise ConfigurationError("end_time must be after start_time")
        if not streams:
            raise ConfigurationError("a fleet needs at least one stream")

        sessions: List[StreamSession] = []
        seen_ids: Dict[str, int] = {}
        for index, stream in enumerate(streams):
            session = StreamSession(
                workload=stream.workload,
                source=stream.source,
                policy=stream.policy,
                buffer_capacity_bytes=stream.buffer_capacity_bytes,
                stream_id=stream.stream_id,
                on_overflow=stream.on_overflow,
                keep_traces=self.keep_traces,
            )
            if session.stream_id in seen_ids:
                raise ConfigurationError(
                    f"duplicate stream_id {session.stream_id!r} in fleet "
                    f"(streams {seen_ids[session.stream_id]} and {index}); "
                    "give each stream a unique stream_id"
                )
            seen_ids[session.stream_id] = index
            session.index = index
            sessions.append(session)

        scheduler = make_scheduler(self.scheduler)
        ledger = (
            self.ledger
            if self.ledger is not None
            else DailyBudgetLedger(self.cloud.daily_budget_dollars)
        )
        # Streams with their own ledger (per-tenant sub-budgets) charge it
        # instead of the shared one; sub-ledgers forward to the shared
        # ledger themselves, so the fleet total stays consistent.
        stream_ledgers = [
            stream.ledger if stream.ledger is not None else ledger
            for stream in streams
        ]
        loop = EventLoop()
        for session in sessions:
            session.start(start_time, end_time)
            self._schedule_next_arrival(loop, session)

        busy_until = start_time
        # The ready list (sessions with pending segments, in fleet order) is
        # maintained incrementally: a session enters when an arrival lands in
        # its empty queue and leaves when its last pending segment is served.
        # Indexed schedulers additionally get ``push(session)`` whenever a
        # session's head segment changes: when it becomes ready and after a
        # serve that leaves it non-empty.  Select-only schedulers skip it.
        ready: List[StreamSession] = []
        push = getattr(scheduler, "push", None)
        while len(loop):
            now = loop.next_time()
            # Drain every event at this timestamp (finishes before arrivals)
            # so the scheduler sees a consistent snapshot of the fleet.
            while len(loop) and loop.next_time() == now:
                _, kind, session, payload = loop.pop()
                if kind == FINISH:
                    session.on_finish(payload)
                elif kind == ARRIVAL:
                    if session.on_arrival(payload) and len(session.pending) == 1:
                        insort(ready, session, key=_fleet_index)
                        if push is not None:
                            push(session)
                    self._schedule_next_arrival(loop, session)
            # Hand the cluster to pending segments while it is idle; each
            # decision advances the shared clock, so at most one segment is
            # in flight at any instant.
            while busy_until <= now and ready:
                # Always consult the scheduler, even with one candidate:
                # stateful schedulers (round-robin's cursor) must observe
                # every serve to keep their documented order.
                chosen = scheduler.select(ready, now)
                stream_ledger = stream_ledgers[chosen.index]
                entry = chosen.pending.popleft()
                if not chosen.pending:
                    del ready[bisect_left(ready, chosen.index, key=_fleet_index)]
                elif push is not None:
                    push(chosen)
                finish, cloud_dollars = chosen.execute(
                    entry, now, self.cluster, stream_ledger.remaining(now)
                )
                # Zero charges are skipped so cloud-free fleets never pay
                # for a (possibly cross-process) ledger round trip.
                if cloud_dollars:
                    stream_ledger.charge(now, cloud_dollars)
                busy_until = finish
                loop.schedule(finish, FINISH, chosen, entry.segment.encoded_bytes)

        stream_results: Dict[str, IngestionResult] = {}
        for session in sessions:
            result = session.finalize()
            # Policies may expose end-of-run telemetry (the adaptive policy's
            # drift/re-fit counters) through a duck-typed hook.
            metrics_hook = getattr(session.policy, "ingestion_metrics", None)
            if callable(metrics_hook):
                result.policy_metrics.update(
                    {str(key): float(value) for key, value in metrics_hook().items()}
                )
            stream_results[session.stream_id] = result
        return FleetResult(
            scheduler=getattr(scheduler, "name", type(scheduler).__name__),
            start_time=start_time,
            end_time=end_time,
            stream_results=stream_results,
            cloud_spend_by_day=dict(ledger.spend_by_day),
        )

    @staticmethod
    def _schedule_next_arrival(loop: EventLoop, session: StreamSession) -> None:
        arrival = session.next_arrival()
        if arrival is not None:
            arrival_time, position = arrival
            loop.schedule(arrival_time, ARRIVAL, session, position)
