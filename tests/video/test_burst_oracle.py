"""Burst-stream oracle: the live burst generator against a frozen copy.

``ContentModel._bursts_for_day`` draws every camera's random bursts, and
every content state, segment size and quality downstream depends on them.
The scalar reference in :mod:`repro.core.reference` calls the live
generator, so only this frozen copy of the original per-burst loop catches
a changed draw order, a changed formula or a changed sort.  The comparison
is exact (``np.array_equal``), not a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import pytest

from repro.video.content import SECONDS_PER_DAY, ContentModel, DiurnalProfile
from repro.workloads.fleet import PhaseShiftedContentModel


@dataclass(frozen=True)
class _FrozenBurst:
    start: float
    duration: float
    magnitude: float


def frozen_bursts_for_day(
    model: ContentModel, day: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Verbatim body of the original ``ContentModel._bursts_for_day`` (no cache)."""
    rng = np.random.default_rng((model.seed * 1_000_003 + day * 7_919) & 0xFFFFFFFF)
    expected = model.burst_rate_per_hour * 24.0
    count = int(rng.poisson(expected)) if expected > 0 else 0
    bursts: List[_FrozenBurst] = []
    day_start = day * SECONDS_PER_DAY
    for _ in range(count):
        start = day_start + rng.uniform(0.0, SECONDS_PER_DAY)
        duration = max(rng.exponential(model.burst_duration_seconds), 5.0)
        # Bursts are more likely and stronger during active hours.
        weight = model.diurnal.activity(start)
        if rng.uniform() > 0.25 + 0.75 * weight:
            continue
        magnitude = max(rng.normal(model.burst_magnitude, model.burst_magnitude * 0.4), 0.05)
        bursts.append(_FrozenBurst(start=start, duration=duration, magnitude=magnitude))
    bursts.sort(key=lambda burst: burst.start)
    return (
        np.array([burst.start for burst in bursts], dtype=float),
        np.array([burst.duration for burst in bursts], dtype=float),
        np.array([burst.magnitude for burst in bursts], dtype=float),
    )


def _assert_same_bursts(model: ContentModel, day: int) -> None:
    expected = frozen_bursts_for_day(model, day)
    actual = model._bursts_for_day(day)
    for name, want, got in zip(("starts", "durations", "magnitudes"), expected, actual):
        assert got.dtype == want.dtype, (name, model.seed, day)
        assert np.array_equal(got, want), (name, model.seed, day)


_CUSTOM_DIURNAL = DiurnalProfile(
    night_level=0.3,
    day_level=0.4,
    morning_peak_hour=6.5,
    evening_peak_hour=20.0,
    peak_level=0.8,
    peak_width_hours=0.7,
)


#: Activity near zero at night, so the acceptance draw's threshold varies
#: over its whole range instead of staying above the night level.
_QUIET_DIURNAL = DiurnalProfile(
    night_level=0.0,
    day_level=0.05,
    peak_level=0.2,
    peak_width_hours=0.5,
)


def test_default_models_match_the_frozen_generator_on_200_seed_day_pairs():
    pairs = [(seed, day) for seed in range(40) for day in range(5)]
    assert len(pairs) >= 200 and any(day == 0 for _, day in pairs)
    for seed, day in pairs:
        _assert_same_bursts(ContentModel(seed=seed), day)


def test_large_seeds_and_days_wrap_the_same_way():
    # The seed expression is masked to 32 bits; both sides must wrap alike.
    for seed, day in ((2**31 - 1, 0), (10**9 + 7, 3), (123_456, 365), (7, 10_000)):
        _assert_same_bursts(ContentModel(seed=seed), day)


def test_zero_burst_rate_yields_empty_arrays_on_both_sides():
    model = ContentModel(seed=4, burst_rate_per_hour=0.0)
    for day in range(3):
        _assert_same_bursts(model, day)
        assert model._bursts_for_day(day)[0].size == 0


@pytest.mark.parametrize(
    "options",
    [
        {"diurnal": _CUSTOM_DIURNAL},
        {"diurnal": _QUIET_DIURNAL},
        {"burst_rate_per_hour": 3.5, "burst_duration_seconds": 4.0},
        {"burst_magnitude": 0.02},  # most magnitudes clip to the 0.05 floor
        {"diurnal": _CUSTOM_DIURNAL, "burst_rate_per_hour": 90.0, "burst_magnitude": 0.6},
    ],
    ids=["custom-diurnal", "quiet-diurnal", "rare-short", "tiny-magnitude", "custom-busy"],
)
def test_custom_dynamics_match(options):
    for seed in range(6):
        model = ContentModel(seed=seed, **options)
        for day in (0, 1, 9):
            _assert_same_bursts(model, day)


def test_with_seed_replicas_match():
    base = ContentModel(seed=0, diurnal=_CUSTOM_DIURNAL, burst_duration_seconds=30.0)
    for seed in (1, 17, 1_000, 65_537):
        replica = base.with_seed(seed)
        for day in (0, 2):
            _assert_same_bursts(replica, day)


def test_phase_shifted_models_draw_the_base_bursts():
    base = ContentModel(seed=11)
    for shift in (0.0, 3_600.0, 0.75 * SECONDS_PER_DAY):
        for seed in (11, 12):
            shifted = PhaseShiftedContentModel(base, shift).with_seed(seed)
            # A shifted camera reads the bursts of the days its shifted
            # timestamps fall on; check those days plus the one before.
            timestamps = np.array([0.0, 43_200.0, 86_399.0]) + shift
            days = {int(math.floor(t / SECONDS_PER_DAY)) for t in timestamps}
            for day in sorted(days | {max(day - 1, 0) for day in days}):
                _assert_same_bursts(shifted.base, day)


def test_cached_arrays_are_returned_unchanged():
    model = ContentModel(seed=2)
    first = model._bursts_for_day(1)
    assert model._bursts_for_day(1) is first
    _assert_same_bursts(model, 1)
