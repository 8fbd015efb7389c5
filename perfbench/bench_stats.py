"""Pure helpers of the benchmark: op outcomes, percentiles, span self times.

Nothing here imports ``wavekin``, so the rules can be tested in isolation.
"""

from __future__ import annotations

import bisect
import math
import statistics

# Standard percentiles considered for the tail figure, lowest first.
_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
# A percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10

OK = "ok"
RAISED = "raised"
NONFINITE = "nonfinite"
DEADLINE = "deadline"


def classify(values_finite, elapsed_s, deadline_s, raised):
    """Outcome of one op.

    ``raised`` is the exception type name the op raised (None if it
    returned), ``values_finite`` whether every returned number is finite.
    A deadline miss wins over the other failures: the alarm that enforces
    the deadline surfaces as an exception, and an op that returned late
    missed its deadline too.
    """
    if elapsed_s > deadline_s or raised == "DeadlineExceeded":
        return DEADLINE
    if raised is not None:
        return RAISED
    if not values_finite:
        return NONFINITE
    return OK


def all_finite(value):
    """True if every number in a scalar or nested sequence is finite."""
    if isinstance(value, (list, tuple)):
        return all(all_finite(v) for v in value)
    try:
        it = iter(value)
    except TypeError:
        return math.isfinite(abs(complex(value)))
    return all(all_finite(v) for v in it)


def tail_percentile(n):
    """Highest standard percentile with MIN_BEYOND of n samples beyond it.

    Returns None when even the median has fewer than MIN_BEYOND samples
    above it.
    """
    best = None
    for p in _PERCENTILES:
        if n - _rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def _rank(p, n):
    # nearest rank ceil(p n / 100), in integers so that p = 90, n = 100
    # gives exactly 90
    tenths = round(p * 10)
    return max(1, -(-tenths * n // 1000))


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list (p in (0, 100])."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def summarize_ops(records, deadline_s):
    """Throughput, latency and failure figures of a timed phase.

    ``records`` holds (status, latency_s) per attempted op.  Throughput is
    the successful ops over the time spent in ops, so the loop's own
    bookkeeping between ops does not count.  A failed op counts as having
    missed the latency limit: it enters the percentiles at no less than the
    deadline, so it ranks above every success.
    """
    attempted = len(records)
    if attempted == 0:
        raise ValueError("the timed phase attempted no op")
    failed = sum(1 for status, _ in records if status != OK)
    lat = sorted(lat if status == OK else max(lat, deadline_s)
                 for status, lat in records)
    out = {
        "attempted": attempted,
        "failed": failed,
        "success_rate": (attempted - failed) / attempted,
        "ops_per_s": (attempted - failed) / sum(t for _, t in records),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": None,
        "tail_percentile": tail_percentile(attempted),
    }
    if out["tail_percentile"] is not None and out["tail_percentile"] >= 90.0:
        out["latency_p90_ms"] = 1e3 * percentile(lat, 90.0)
    return out


#: the library's time grows as the calibration kernel's to this power.  On
#: the 2-vCPU VM the benchmark was written on, a fixed eval_U op (line
#: build included) regressed on the kernel over two minutes of speed
#: changes gave 0.67, and ten symbol runs scaled by the full ratio read
#: lower latencies the slower the machine was.
ELASTICITY = 0.7


def slowness_of(cal_samples, cal_ref_s):
    """How much slower than the reference the library runs, from calibration.

    That is the mean calibration pass time over ``cal_ref_s``, to the power
    ELASTICITY.  The fastest and slowest tenth of the passes (rounded, so
    one each of five to fourteen) are cut: one pass preempted by another
    process must not move the figure.  A mean, not a median, follows the
    share of passes taken in the machine's slow mode smoothly; a median
    jumps between the two speeds when that share is near one half.
    """
    cal = sorted(cal_samples)
    cut = (len(cal) + 5) // 10
    return (statistics.fmean(cal[cut:len(cal) - cut]) / cal_ref_s
            ) ** ELASTICITY


def local_slowness(op_spans, cal_points, cal_ref_s, window_s):
    """The library's slowness around each op.

    ``op_spans`` holds (start, end) per op, ``cal_points`` (time, duration)
    per calibration pass in time order.  Each op gets ``slowness_of`` the
    passes taken from ``window_s`` before it starts to ``window_s`` after it
    ends.  The machine's speed modes last seconds, so a switch of mode
    during a run is cancelled op by op.
    """
    times = [t for t, _ in cal_points]
    out = []
    for start, end in op_spans:
        lo = bisect.bisect_left(times, start - window_s)
        hi = bisect.bisect_right(times, end + window_s)
        near = [d for _, d in cal_points[lo:hi]]
        out.append(slowness_of(near or [d for _, d in cal_points], cal_ref_s))
    return out


def at_reference_speed(records, slowness):
    """(status, latency_s) records with each latency over its op's slowness.

    A slow phase of the machine cancels while a slower library does not.
    The wait of a deadline miss lasts the same wall time at any speed, so it
    is kept as it is.
    """
    return [(status, lat if status == DEADLINE else lat / sl)
            for (status, lat), sl in zip(records, slowness)]


def self_times(spans):
    """Self time of every span: its duration minus that of its direct children.

    ``spans`` is a list of (name, start, end, parent) with parent the index
    of the enclosing span or -1.  Children of one span never overlap (the
    benchmark drives the library from one thread), so the time they cover
    is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_n, start, end, _p) in enumerate(spans)]


def median_or_zero(values):
    return statistics.median(values) if values else 0.0
