"""Pure helpers behind the benchmark's numbers (unit-tested in test_perfbench.py).

Nothing here imports the program under test: these functions turn raw
samples and spans into the reported statistics.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_TAIL_SAMPLES = 10


def tail_supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ten beyond the ``q``-th percentile."""
    return n * (100.0 - q) >= MIN_TAIL_SAMPLES * 100.0 - 1e-6


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]), as numpy's default.

    Failed or refused requests enter as ``math.inf``: they miss every
    latency limit, so they push the tail up instead of vanishing.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    if frac == 0 or xs[lo] == xs[hi]:
        return xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """``percentile`` that refuses a tail fewer than ten samples support."""
    if not tail_supported(len(samples), q):
        raise ValueError(
            f"p{q:g} needs >= {MIN_TAIL_SAMPLES} samples beyond it; "
            f"got n={len(samples)}"
        )
    return percentile(samples, q)


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = [(max(a, lo), min(b, hi)) for a, b in intervals]
    return _union_length([(a, b) for a, b in clipped if b > a])


def self_times(spans: Sequence[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Spans are dicts with ``start``, ``end`` and ``parent`` (index into
    ``spans`` or None). Children may run on other threads and overlap
    each other, so coverage is an interval union, not a sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        out.append(dur - covered(children.get(i, ()), s["start"], s["end"]))
    return out


def rendezvous_waits(spans: Sequence[dict]) -> list[float]:
    """Host seconds each collective span waited for the last rank to enter.

    Collective spans carry ``round`` — a key that is equal for the spans
    of all ranks taking part in one collective round. A rank's wait is
    the last entry of its round minus its own entry. Spans without a
    round wait 0.
    """
    last: dict = {}
    for s in spans:
        key = s.get("round")
        if key is not None:
            last[key] = max(last.get(key, s["start"]), s["start"])
    return [
        last[s["round"]] - s["start"] if s.get("round") is not None else 0.0
        for s in spans
    ]


# --------------------------------------------------------------------- #
# Serving ladder
# --------------------------------------------------------------------- #


def backlog_growing(
    arrivals: Sequence[float],
    finishes: Sequence[float],
    warmup_frac: float = 0.2,
    factor: float = 1.5,
) -> bool:
    """Whether requests in the system keep piling up over an open loop.

    The backlog is sampled at each arrival (requests arrived and not yet
    finished; a request that never finishes has ``inf``). After dropping
    the warm-up share of samples (the system starts empty), the backlog
    grows when the later half's mean exceeds ``factor`` times the earlier
    half's mean plus one request.
    """
    order = sorted(range(len(arrivals)), key=lambda i: arrivals[i])
    samples = []
    for i in order:
        t = arrivals[i]
        samples.append(
            sum(1 for j in order if arrivals[j] <= t and finishes[j] > t)
        )
    samples = samples[int(len(samples) * warmup_frac):]
    if len(samples) < 4:
        return False
    half = len(samples) // 2
    early = sum(samples[:half]) / half
    late = sum(samples[half:]) / (len(samples) - half)
    return late > factor * early + 1.0


def max_rate(rungs: Sequence[tuple[float, float, bool]], limit: float) -> float:
    """Highest sustainable rate of a ladder, log-interpolated between rungs.

    ``rungs`` are ``(rate, tail_latency, backlog_growing)``. A rung passes
    when its tail latency meets ``limit`` and its backlog does not grow.
    Past the highest passing rung, the next rung's latency (when it failed
    on latency alone) sets a crossing point by linear interpolation in
    log(rate)-log(latency). Returns 0.0 when the lowest rung already
    fails, and the top rate when every rung passes.
    """
    rungs = sorted(rungs)
    best = None
    for i, (rate, lat, growing) in enumerate(rungs):
        if lat <= limit and not growing:
            best = i
            continue
        break
    if best is None:
        return 0.0
    r0, l0, _ = rungs[best]
    if best == len(rungs) - 1:
        return r0
    r1, l1, growing = rungs[best + 1]
    if growing or not math.isfinite(l1) or l1 <= l0 or l0 <= 0:
        return r0
    frac = (math.log(limit) - math.log(l0)) / (math.log(l1) - math.log(l0))
    return math.exp(math.log(r0) + frac * (math.log(r1) - math.log(r0)))
