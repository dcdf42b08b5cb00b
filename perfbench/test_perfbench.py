"""Unit tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/test_perfbench.py`` from the
repository root; they need neither the program nor a timed run.
"""

from __future__ import annotations

import math
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402


# -- percentile with >= 10 samples beyond it ---------------------------- #


def test_tail_needs_ten_samples_beyond():
    assert not stats.tail_supported(99, 90)
    assert stats.tail_supported(100, 90)
    assert stats.tail_supported(1000, 99)
    assert not stats.tail_supported(999, 99)


def test_tail_percentile_refuses_thin_tail():
    with pytest.raises(ValueError):
        stats.tail_percentile(list(range(50)), 90)
    xs = list(range(101))
    assert stats.tail_percentile(xs, 90) == pytest.approx(90.0)


def test_percentile_matches_linear_interpolation_and_counts_failures():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert stats.percentile([5.0], 90) == 5.0
    # A failed request is an infinite latency: it raises the tail.
    xs = [1.0] * 95 + [math.inf] * 5
    assert stats.percentile(xs, 50) == 1.0
    assert stats.percentile(xs, 99) == math.inf


# -- self time ------------------------------------------------------------ #


def _span(start, end, parent=None, **kw):
    return dict(start=start, end=end, parent=parent, **kw)


def test_self_time_subtracts_children():
    spans = [_span(0, 10), _span(1, 3, 0), _span(5, 6, 0), _span(5.2, 5.5, 2)]
    assert stats.self_times(spans) == pytest.approx([7.0, 2.0, 0.7, 0.3])


def test_self_time_unions_overlapping_children():
    # Two rank threads' children overlap in time: count the union once.
    spans = [_span(0, 10), _span(1, 5, 0), _span(3, 7, 0), _span(9, 12, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(10 - 6 - 1)


def test_covered_clips_to_window():
    assert stats.covered([(-1, 2), (8, 20)], 0, 10) == pytest.approx(4.0)
    assert stats.covered([], 0, 10) == 0.0


# -- rendezvous-wait pairing ---------------------------------------------- #


def test_rendezvous_waits_pair_by_round():
    spans = [
        _span(0.0, 2.0, round=("c", 0)),
        _span(1.5, 2.0, round=("c", 0)),
        _span(0.5, 2.0, round=("c", 0)),
        _span(3.0, 4.0, round=("c", 1)),
        _span(3.2, 4.0, round=("c", 1)),
        _span(0.0, 1.0),  # no round: not a collective
    ]
    assert stats.rendezvous_waits(spans) == pytest.approx([1.5, 0.0, 1.0, 0.2, 0.0, 0.0])


def test_recorder_rounds_are_per_communicator_and_rank():
    class State:
        pass

    class FakeComm:
        def __init__(self, state, rank):
            self._state, self.rank = state, rank

    rec = tracer.SpanRecorder()
    a, b = State(), State()
    r0 = [rec.round_of(FakeComm(a, 0)) for _ in range(3)]
    r1 = [rec.round_of(FakeComm(a, 1)) for _ in range(3)]
    other = rec.round_of(FakeComm(b, 0))
    assert r0 == r1
    assert len(set(r0)) == 3
    assert other not in r0


def test_recorder_threads_hang_under_launch_span():
    rec = tracer.SpanRecorder()
    launch = rec.open("simmpi.run_spmd", "simmpi")
    rec.launch_parent = launch

    def rank():
        rec.close(rec.open("simmpi.allreduce", "simmpi"))

    t = threading.Thread(target=rank)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    rec.launch_parent = None
    rec.close(launch)
    assert rec.spans[1]["parent"] == launch
    assert stats.self_times(rec.spans)[0] >= 0.0


def test_recorder_patch_is_undone():
    class Target:
        def f(self, x):
            return x + 1

    rec = tracer.SpanRecorder()
    rec.wrap(Target, "f", "t.f", "t")
    assert Target().f(1) == 2
    assert [s["name"] for s in rec.spans] == ["t.f"]
    rec.uninstall()
    assert "f" in Target.__dict__ and not hasattr(Target.__dict__["f"], "__wrapped__")


# -- max_rate_rps interpolation ------------------------------------------ #


def test_max_rate_interpolates_in_log_log():
    rungs = [(100.0, 1.0, False), (400.0, 4.0, False)]
    # limit 2.0 lies halfway in log(latency), so halfway in log(rate).
    assert stats.max_rate(rungs, 2.0) == pytest.approx(200.0)


def test_max_rate_edges():
    rungs = [(100.0, 1.0, False), (200.0, 1.5, False)]
    assert stats.max_rate(rungs, 2.0) == 200.0  # every rung passes
    assert stats.max_rate(rungs, 0.5) == 0.0  # the lowest rung fails
    # The next rung fails on backlog growth: no interpolation past it.
    grow = [(100.0, 1.0, False), (200.0, 3.0, True)]
    assert stats.max_rate(grow, 2.0) == 100.0
    # A failed rung with infinite latency (requests lost) stops at the pass.
    lost = [(100.0, 1.0, False), (200.0, math.inf, False)]
    assert stats.max_rate(lost, 2.0) == 100.0
    # Unsorted input is sorted by rate.
    assert stats.max_rate(list(reversed(rungs)), 2.0) == 200.0


# -- backlog-growth detection ---------------------------------------------- #


def test_backlog_steady_when_service_keeps_up():
    arrivals = [i * 1.0 for i in range(100)]
    finishes = [t + 0.5 for t in arrivals]
    assert not stats.backlog_growing(arrivals, finishes)


def test_backlog_grows_when_service_falls_behind():
    arrivals = [i * 1.0 for i in range(100)]
    # Served one per 2 s: request i finishes at 2 * (i + 1).
    finishes = [2.0 * (i + 1) for i in range(100)]
    assert stats.backlog_growing(arrivals, finishes)


def test_backlog_counts_unfinished_requests():
    arrivals = [i * 1.0 for i in range(100)]
    finishes = [t + 0.5 if i < 50 else math.inf for i, t in enumerate(arrivals)]
    assert stats.backlog_growing(arrivals, finishes)


# -- scaling to reference speed ----------------------------------------- #


def test_reference_factor_is_geometric_mean_over_the_window():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    # Part i ran (i + 2)x slower on the wall in the first window and 4x in
    # the second; its CPU time read the reference throughout.
    probe.samples = {
        name: [((i + 2) * ref[name], ref[name]), (4 * ref[name], ref[name])]
        for i, name in enumerate(ref)
    }
    first = math.exp(-sum(math.log(i + 2) for i in range(len(ref))) / len(ref))
    assert probe.to_reference(0, 0, 1) == pytest.approx(first)
    assert probe.to_reference(0, 1) == pytest.approx(0.25)
    assert probe.to_reference(1) == pytest.approx(1.0)


def test_probe_records_every_part_per_measurement():
    probe = speed.SpeedProbe()
    probe.measure()
    probe.measure()
    assert probe.count() == 2
    assert all(len(s) == 2 and min(min(s)) > 0 for s in probe.samples.values())
