"""Degradation state machine: hysteresis on both edges, dead band."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import DEGRADED, NORMAL, DegradeController

magnitudes = st.one_of(
    st.floats(min_value=1e-9, max_value=1e6),
    # log-uniform: full-mantissa values, where the two lerp forms round apart
    st.floats(min_value=-9.0, max_value=6.0).map(lambda e: 10.0**e),
)
# sizes drawn uniformly (hypothesis favours short lists), so that both of
# the interpolation's branches come up: g >= 0.5 below 52 values
samples = st.integers(min_value=1, max_value=200).flatmap(
    lambda n: st.one_of(
        st.lists(magnitudes, min_size=n, max_size=n),
        # a few distinct values drawn many times: ties at the order statistics
        st.lists(magnitudes, min_size=1, max_size=5).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=n, max_size=n)
        ),
    )
)


def _ctl(**kw):
    defaults = dict(slo_us=1000.0, enter_breaches=3, exit_clears=2,
                    recover_ratio=0.5, window=8)
    defaults.update(kw)
    return DegradeController(**defaults)


def _breach(ctl, n, now=0.0):
    """n evaluations whose projected p99 clearly exceeds the SLO."""
    for _ in range(n):
        ctl.record_latency(10 * ctl.slo_us)
        ctl.evaluate(now, [], None)


def _clear(ctl, n, now=0.0):
    """n evaluations with every windowed latency far under recovery."""
    for _ in range(n):
        for _ in range(8):  # flood the window with good samples
            ctl.record_latency(0.1 * ctl.slo_us)
        ctl.evaluate(now, [], None)


def test_enters_degraded_only_after_consecutive_breaches():
    ctl = _ctl()
    _breach(ctl, 2)
    assert ctl.state == NORMAL
    _breach(ctl, 1)
    assert ctl.state == DEGRADED
    assert [s for _, s, _ in ctl.transitions] == [DEGRADED]


def test_recovers_only_after_consecutive_clears():
    ctl = _ctl()
    _breach(ctl, 3)
    _clear(ctl, 1)
    assert ctl.state == DEGRADED
    _clear(ctl, 1)
    assert ctl.state == NORMAL
    assert [s for _, s, _ in ctl.transitions] == [DEGRADED, NORMAL]


def test_dead_band_resets_both_streaks():
    ctl = _ctl()
    _breach(ctl, 2)
    # land between recover_ratio*slo and slo: in the dead band
    for _ in range(8):
        ctl.record_latency(0.8 * ctl.slo_us)
    ctl.evaluate(0.0, [], None)
    _breach(ctl, 2)
    assert ctl.state == NORMAL  # the streak restarted after the dead band
    _breach(ctl, 1)
    assert ctl.state == DEGRADED


def test_projection_counts_queued_requests():
    ctl = _ctl()
    # nothing completed yet, but three requests queued for 5 ms each:
    # the projection alone must breach
    p99 = ctl.projected_p99_us(5000.0, [0.0, 0.0, 0.0], 100.0)
    assert p99 > ctl.slo_us


def test_empty_system_projects_zero():
    ctl = _ctl()
    assert ctl.projected_p99_us(0.0, [], None) == 0.0


def test_invalid_recover_ratio_rejected():
    with pytest.raises(ValueError):
        DegradeController(slo_us=1.0, recover_ratio=0.0)


@given(
    sample=samples,
    split=st.integers(min_value=0, max_value=200),
    est=st.one_of(st.none(), magnitudes),
)
@settings(deadline=None)
def test_projected_p99_is_numpys_percentile(sample, split, est):
    # the first ``split`` values complete; the rest are still queued
    now = 2e6
    ctl = DegradeController(slo_us=1.0, window=200)
    done, queued = sample[:split], sample[split:]
    for latency in done:
        ctl.record_latency(latency)
    arrivals = [now - x for x in queued]
    projected = done + [now - a + (est or 0.0) for a in arrivals]
    assert ctl.projected_p99_us(now, arrivals, est) == np.percentile(projected, 99)


def test_projected_p99_is_numpys_percentile_on_random_draws():
    # hypothesis favours simple floats, whose two interpolation forms seldom
    # round apart; these full-mantissa draws tell the branches apart
    rng = random.Random(0)
    for _ in range(2000):
        sample = [10.0 ** rng.uniform(-9, 6) for _ in range(rng.randint(1, 200))]
        ctl = DegradeController(slo_us=1.0, window=200)
        for latency in sample:
            ctl.record_latency(latency)
        assert ctl.projected_p99_us(0.0, [], None) == np.percentile(sample, 99)
