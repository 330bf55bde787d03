"""The indexed schedulers against their scan oracles, and the scheduler contract.

``FifoScheduler`` keeps a heap and ``RoundRobinScheduler`` bisects on the
fleet index; :func:`repro.core.reference.reference_fleet_run` resolves the
same names to the frozen ``min()``/``next()`` scans.  Generated fleets with
small buffers (so segments drop) and a shared arrival grid (so head arrival
times tie across streams) must produce equal :class:`FleetResult` objects:
every stream's totals, drops, lags and per-segment traces.

The contract tests pin what the engine promises any scheduler: ``select``
is called exactly once per serve with ``ready`` equal to the sessions that
have pending segments, in fleet order, and a scheduler that implements only
``select`` (no ``push``) still drains a fleet.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import repro.core.fleet as fleet_module
from repro.baselines.static import StaticPolicy
from repro.cluster.resources import CloudSpec, ClusterSpec
from repro.core.events import StreamSession
from repro.core.fleet import FifoScheduler, FleetEngine, FleetStream, register_scheduler
from repro.core.reference import (
    SCAN_SCHEDULERS,
    ScanFifoScheduler,
    ScanRoundRobinScheduler,
    reference_fleet_run,
)
from repro.errors import BufferOverflowError
from repro.workloads.base import WorkloadSetup
from repro.workloads.fleet import make_fleet_scenario

ONLINE_START = 0.25 * 86_400.0
SEGMENT_BYTES = 172_000  # roughly one 2 s COVID segment


def _streams(sky, workload, source, n_streams, phase_shift, heterogeneous, buffers, mixed):
    setup = WorkloadSetup(workload=workload, source=source, history_days=0.25, online_days=0.01)
    scenario = make_fleet_scenario(
        setup, n_streams, phase_shift_seconds=phase_shift, heterogeneous=heterogeneous
    )
    profiles = list(sky.profiles)
    streams = []
    for index, spec in enumerate(scenario.streams):
        if mixed and index % 3 == 0:
            policy = sky.build_policy(source.segment_seconds)
        else:
            policy = StaticPolicy(sky.profiles, profiles[index % len(profiles)])
        streams.append(
            FleetStream(
                workload=workload,
                source=spec.source,
                policy=policy,
                stream_id=spec.stream_id,
                buffer_capacity_bytes=buffers[index % len(buffers)],
            )
        )
    return streams


def _run_both(sky, workload, source, scheduler, window, cores, budget, **fleet):
    cluster = ClusterSpec(cores=cores)
    cloud = CloudSpec(daily_budget_dollars=budget)
    end = ONLINE_START + window
    actual = FleetEngine(cluster=cluster, cloud=cloud, scheduler=scheduler).run(
        _streams(sky, workload, source, **fleet), ONLINE_START, end
    )
    expected = reference_fleet_run(
        _streams(sky, workload, source, **fleet),
        ONLINE_START,
        end,
        cluster,
        cloud=cloud,
        scheduler=scheduler,
    )
    return actual, expected


def test_reference_resolves_fifo_and_round_robin_to_the_scans():
    assert SCAN_SCHEDULERS == {
        "fifo": ScanFifoScheduler,
        "round-robin": ScanRoundRobinScheduler,
    }
    for name, scan in SCAN_SCHEDULERS.items():
        assert scan.name == name
        assert not hasattr(scan, "push")


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    scheduler=st.sampled_from(["fifo", "round-robin"]),
    n_streams=st.integers(min_value=1, max_value=64),
    phase_shift=st.sampled_from([0.0, 2.0, 7.0, 1_800.0]),
    heterogeneous=st.booleans(),
    buffer_segments=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4),
    cores=st.sampled_from([1, 2, 4, 8]),
    mixed=st.booleans(),
    budget=st.sampled_from([0.0, 0.05, 2.0]),
    data=st.data(),
)
def test_indexed_engine_equals_scan_oracle(
    fitted_skyscraper,
    covid_workload,
    covid_source,
    scheduler,
    n_streams,
    phase_shift,
    heterogeneous,
    buffer_segments,
    cores,
    mixed,
    budget,
    data,
):
    # Keep a generated fleet near 1,500 segments so the example stays cheap.
    max_window = max(8, min(120, 3_000 // n_streams))
    window = data.draw(st.integers(min_value=4, max_value=max_window), label="window") * 1.0
    actual, expected = _run_both(
        fitted_skyscraper,
        covid_workload,
        covid_source,
        scheduler,
        window,
        cores,
        budget,
        n_streams=n_streams,
        phase_shift=phase_shift,
        heterogeneous=heterogeneous,
        buffers=[segments * SEGMENT_BYTES for segments in buffer_segments],
        mixed=mixed,
    )
    event(f"drops: {actual.segments_dropped > 0}")
    event(f"streams > 1: {n_streams > 1}")
    assert actual == expected


@pytest.mark.parametrize("scheduler", ["fifo", "round-robin"])
def test_oracle_fleet_with_drops_and_ties(
    scheduler, fitted_skyscraper, covid_workload, covid_source
):
    """A fixed fleet in the generator's range that does drop and does tie."""
    actual, expected = _run_both(
        fitted_skyscraper,
        covid_workload,
        covid_source,
        scheduler,
        window=60.0,
        cores=1,
        budget=0.05,
        n_streams=24,
        phase_shift=0.0,
        heterogeneous=False,
        buffers=[SEGMENT_BYTES, 3 * SEGMENT_BYTES],
        mixed=True,
    )
    assert actual == expected
    assert actual.segments_dropped > 0
    processed = actual.segments_total - actual.segments_dropped
    assert processed > actual.n_streams
    # Every stream's arrivals land on the same grid, so heads tie.
    arrivals = {
        trace.arrival_time
        for result in actual.results
        for trace in result.traces
        if not trace.dropped
    }
    assert len(arrivals) < processed


# --------------------------------------------------------------------- #
# The scheduler contract
# --------------------------------------------------------------------- #
@pytest.fixture
def live_sessions(monkeypatch):
    """Every ``StreamSession`` started during the test, in start order."""
    sessions = []
    original = StreamSession.start

    def start(self, start_time, end_time):
        sessions.append(self)
        return original(self, start_time, end_time)

    monkeypatch.setattr(StreamSession, "start", start)
    return sessions


class _ContractProbe:
    """Wraps a scheduler and checks every ``select`` against the fleet."""

    def __init__(self, inner, sessions):
        self.inner = inner
        self.name = inner.name
        self.sessions = sessions
        self.calls = 0
        if hasattr(inner, "push"):
            self.push = inner.push

    def select(self, ready, now):
        self.calls += 1
        pending = [session for session in self.sessions if session.pending]
        assert list(ready) == pending
        assert len(ready) == len(pending)
        chosen = self.inner.select(ready, now)
        assert any(chosen is session for session in ready)
        return chosen


def _contract_fleet(sky, workload, source):
    return _streams(
        sky,
        workload,
        source,
        n_streams=12,
        phase_shift=2.0,
        heterogeneous=True,
        buffers=[2 * SEGMENT_BYTES, 6 * SEGMENT_BYTES],
        mixed=False,
    )


@pytest.mark.parametrize("inner", [FifoScheduler, ScanFifoScheduler], ids=["push", "select-only"])
def test_select_is_called_once_per_serve_with_the_ready_sessions(
    inner, live_sessions, fitted_skyscraper, covid_workload, covid_source
):
    probe = _ContractProbe(inner(), live_sessions)
    engine = FleetEngine(cluster=ClusterSpec(cores=1), scheduler=probe)
    result = engine.run(
        _contract_fleet(fitted_skyscraper, covid_workload, covid_source),
        ONLINE_START,
        ONLINE_START + 60.0,
    )
    served = result.segments_total - result.segments_dropped
    assert result.segments_dropped > 0
    assert probe.calls == served
    assert len(live_sessions) == 12
    assert not any(session.pending for session in live_sessions)


def test_engine_pushes_keep_the_fifo_heap_in_step(
    monkeypatch, fitted_skyscraper, covid_workload, covid_source
):
    """With the engine's pushes the heap always holds exactly the ready
    sessions, so ``select`` never falls back to rebuilding it."""
    rebuilds = []
    monkeypatch.setattr(fleet_module, "heapify", rebuilds.append)
    engine = FleetEngine(cluster=ClusterSpec(cores=1), scheduler="fifo")
    result = engine.run(
        _contract_fleet(fitted_skyscraper, covid_workload, covid_source),
        ONLINE_START,
        ONLINE_START + 60.0,
    )
    assert result.segments_dropped > 0
    assert rebuilds == []


class _NewestHeadFirst:
    """Select-only scheduler: newest head segment first, highest index on ties."""

    name = "test-select-only"

    def select(self, ready, now):
        return max(ready, key=lambda session: (session.pending[0].arrival_time, session.index))


def test_select_only_registered_scheduler_drains_a_fleet(
    monkeypatch, fitted_skyscraper, covid_workload, covid_source
):
    # Register into a copy of the registry, so sweeps over every registered
    # scheduler in later tests do not pick this one up.
    monkeypatch.setattr(fleet_module, "_SCHEDULERS", dict(fleet_module._SCHEDULERS))
    register_scheduler("test-select-only")(_NewestHeadFirst)
    streams = _contract_fleet(fitted_skyscraper, covid_workload, covid_source)
    engine = FleetEngine(cluster=ClusterSpec(cores=1), scheduler="test-select-only")
    result = engine.run(streams, ONLINE_START, ONLINE_START + 60.0)
    assert result.scheduler == "test-select-only"
    assert result.segments_total == 12 * 30
    for stream in result.results:
        processed = sum(stream.configuration_usage.values())
        assert stream.segments_total == processed + stream.segments_dropped
    expected = reference_fleet_run(
        _contract_fleet(fitted_skyscraper, covid_workload, covid_source),
        ONLINE_START,
        ONLINE_START + 60.0,
        ClusterSpec(cores=1),
        scheduler=_NewestHeadFirst(),
    )
    assert result == expected


def test_fifo_instance_reused_after_an_aborted_run_starts_clean(
    fitted_skyscraper, covid_workload, covid_source
):
    """Entries left in the heap by a run that raised never leak into the next."""
    scheduler = FifoScheduler()
    streams = _contract_fleet(fitted_skyscraper, covid_workload, covid_source)
    for stream in streams:
        stream.on_overflow = "raise"
    engine = FleetEngine(cluster=ClusterSpec(cores=1), scheduler=scheduler)
    with pytest.raises(BufferOverflowError):
        engine.run(streams, ONLINE_START, ONLINE_START + 60.0)
    assert scheduler._heap
    result = engine.run(
        _contract_fleet(fitted_skyscraper, covid_workload, covid_source),
        ONLINE_START,
        ONLINE_START + 60.0,
    )
    expected = reference_fleet_run(
        _contract_fleet(fitted_skyscraper, covid_workload, covid_source),
        ONLINE_START,
        ONLINE_START + 60.0,
        ClusterSpec(cores=1),
        scheduler="fifo",
    )
    assert result == expected
