"""The four workloads: seeded inputs, warm-up ops and cross-route pairs.

Inputs are plain tuples made from ``--seed`` alone; nothing here imports
``wavekin``.  An op is ``Op(kind, args, t)``: ``kind`` names the public entry
point (see ``bench_worker.execute``), ``t`` the time it runs at (None for
eval_V, which has none), used to tag first and repeat touches of a t.

Every workload is driven in whole rounds.  A round holds a fixed mix of op
kinds, so each run measures the same mix however many rounds fit in its
time; the seed draws where inside its range each input falls.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple


class Op(NamedTuple):
    kind: str
    args: tuple
    t: float | None


#: tolerance asked of the two integrals that report no error of their own;
#: it stands in for their error (l1_norm_lambda's default)
INTEGRAL_REL_TOL = 1e-6
#: radial_profile grid of the lambda_integrals workload
RADIAL_GRID = (1e-2, 1e2, 256)
#: points on one eval_U_line line of the symbol workload
U_LINE_POINTS = 100


def _uniform(rng, lo, hi, log=False):
    if log:
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return rng.uniform(lo, hi)


def strata(rng, n, lo, hi, log=False):
    """n values, one from each of n equal bins of [lo, hi], in seeded order.

    Stratifying keeps the share of inputs in any sub-range the same on
    every seed, which is what makes the figures of short runs repeat.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    vals = [a + (b - a) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return [math.exp(v) for v in vals] if log else vals


# ---------------------------------------------------------------------------
# lambda_points
# ---------------------------------------------------------------------------

#: distinct t values; twice fundsol's 48-entry line-assembly cache
T_POOL = 96


def lambda_points_rounds(rng):
    pool = strata(rng, T_POOL, 0.2, 4.0, log=True)
    while True:
        order = pool[:]
        rng.shuffle(order)
        xs = strata(rng, T_POOL, 1e-3, 1e3, log=True)
        yield [Op("lambda", (t, x, "auto"), t) for t, x in zip(order, xs)]


# ---------------------------------------------------------------------------
# lambda_integrals
# ---------------------------------------------------------------------------

#: healthy t range of l1_norm_lambda / delta_pairing; below t = 1 their cost
#: climbs steeply toward the regime edge at 0.55 (l1 takes 1.5 s at t = 1,
#: 4.6 s at 0.6 and over 8 s at 0.56 on the reference machine), so misses
#: there would measure the machine rather than the defect
T_HEALTHY = (1.0, 4.0)
#: t range that reaches the known stall of the log-regularized bulk values
T_STALL = (0.2, 0.55)


def _crossing_bump(rng):
    # supports that contain x = 1, so the core panels around it are used
    return _uniform(rng, 0.3, 0.8), _uniform(rng, 1.25, 3.0)


def lambda_integrals_rounds(rng):
    k = 0
    while True:
        ta = _uniform(rng, *T_HEALTHY, log=True)
        tb = _uniform(rng, *T_HEALTHY, log=True)
        tc = _uniform(rng, *T_STALL, log=True)
        lo, hi = _crossing_bump(rng)
        if k % 2 == 0:
            stall = Op("l1", (tc,), tc)
        else:
            clo, chi = _crossing_bump(rng)
            stall = Op("pairing", (tc, clo, chi), tc)
        # a profile at each of those t, and a sweep of seven more: with ten
        # 60-110 ms profiles against three 0.5-3 s ops, the median is
        # a profile near the middle of its group, not the slowest one
        sweep = [Op("radial", (t,), t)
                 for t in strata(rng, 7, 0.2, 4.0, log=True)]
        yield [
            Op("l1", (ta,), ta), Op("radial", (ta,), ta), *sweep[:2],
            Op("pairing", (tb, lo, hi), tb), Op("radial", (tb,), tb),
            *sweep[2:4],
            stall, Op("radial", (tc,), tc), *sweep[4:],
        ]
        k += 1


# ---------------------------------------------------------------------------
# asymptotic
# ---------------------------------------------------------------------------

#: x < 1 band where the short-time series refused every input at the seed
#: commit with a TruncationError although it lies inside the series zone
SERIES_REFUSED = ((0.55, 0.64), (0.76, 0.80))


#: theta stratum paired with each t stratum of the large-t ops; fixed, so
#: every round holds the same eight (t, theta) cells and the seed only moves
#: the inputs inside them
LARGE_T_CELLS = (3, 6, 0, 5, 2, 7, 1, 4)


def asymptotic_rounds(rng):
    (t_lo, t_hi), (x_lo, x_hi) = SERIES_REFUSED
    for k in itertools.count():
        # x > 1 (1.2-2.3 s, the costliest op): t and x alternate between
        # the halves of their ranges, so two rounds cover the band the same
        # way on every seed; then x < 1, and the refused band
        t = _uniform(rng, *((0.5, 0.6), (0.6, 0.7))[k % 2])
        x = _uniform(rng, *((2.1, 3.0), (1.5, 2.1))[k % 2], log=True)
        series = [Op("series", (t, x), t)]
        t = _uniform(rng, 0.15, 0.4)
        x = _uniform(rng, max(0.3, 1.25 * t), 0.75)
        series.append(Op("series", (t, x), t))
        t = _uniform(rng, t_lo, t_hi)
        series.append(Op("series", (t, _uniform(rng, x_lo, x_hi)), t))
        # theta = x/t in [0.5, 3]: q1's cost grows with |log theta| and its
        # relative error with theta, so wider ranges only add spread
        ts = sorted(strata(rng, 8, 1.2, 6.0, log=True))
        thetas = sorted(strata(rng, 8, 0.5, 3.0, log=True))
        large = [Op("large_t", (t, t * thetas[j]), t)
                 for t, j in zip(ts, LARGE_T_CELLS)]
        rng.shuffle(large)
        yield [series[0], *large[:2], series[1], *large[2:4], series[2],
               *large[4:]]


# ---------------------------------------------------------------------------
# symbol
# ---------------------------------------------------------------------------

IM_S_MAX = 60.0
#: Re s range where eval_U_line refused every line at the seed commit with a
#: ConvergenceError (it also refused most lines at Re s = 1.7, |Im s| >= 16)
U_LINE_REFUSED = (1.8, 1.95)


def _u_line(rng, t, re, im_mid):
    im_lo = min(max(im_mid - 10.0, -IM_S_MAX), IM_S_MAX - 20.0)
    return Op("U_line", (t, re, im_lo, im_lo + 20.0, U_LINE_POINTS), t)


def symbol_rounds(rng):
    while True:
        # the strip window of B reaches from Im s back to 0, so the cost of
        # a line build grows with |Im s|: stratify Im s and Re s over the
        # round; two of each symbol op keep the median inside them
        ims = strata(rng, 10, -IM_S_MAX, IM_S_MAX)
        res = strata(rng, 8, 0.2, 1.8)
        ops = []
        for i in range(2):
            t = _uniform(rng, 0.2, 3.0, log=True)
            ops.append(Op("U", (t, complex(res[4 * i], ims[4 * i])), t))
            t = _uniform(rng, 0.1, 0.9)
            ops.append(Op("U_small", (t, complex(res[4 * i + 1],
                                                 ims[4 * i + 1])), t))
            t = _uniform(rng, 0.2, 3.0, log=True)
            ops.append(Op("dU", (t, complex(res[4 * i + 2],
                                            ims[4 * i + 2])), t))
            z = complex(_uniform(rng, 0.3, 3.0), _uniform(rng, -3.0, 3.0))
            ops.append(Op("V", (z, complex(res[4 * i + 3], ims[4 * i + 3])),
                          None))
        for (re_lo, re_hi), im in (((0.2, 1.6), ims[8]),
                                   (U_LINE_REFUSED, ims[9])):
            ops.append(_u_line(rng, _uniform(rng, 0.3, 3.0, log=True),
                               _uniform(rng, re_lo, re_hi), im))
        yield ops


# ---------------------------------------------------------------------------
# documented zones
# ---------------------------------------------------------------------------


def _re_s_ok(s):
    return 0.0 < s.real < 2.0 and abs(s.imag) <= IM_S_MAX


def in_zone(op):
    """True if the op's input lies inside its route's documented zone."""
    k, a = op.kind, op.args
    if k == "lambda":
        t, x, regime = a
        if regime == "direct":
            return t > 0.5 and x > 0.0
        if regime == "log_regularized":
            return 0.0 < t <= 0.6 and x > 0.0 and x != 1.0
        if regime == "large_t_asymptotic":
            return t > 1.0 and x > 0.0
        if regime == "small_t_series":
            return in_zone(Op("series", (t, x), t))
        return regime == "auto" and t > 0.0 and x > 0.0
    if k in ("l1", "radial", "U_mass"):
        return a[0] > 0.0
    if k == "pairing":
        t, lo, hi = a
        return t > 0.0 and 0.0 < lo < hi
    if k == "series":
        t, x = a
        return 0.0 < t < 1.0 and x / t > 1.0 and abs(x - 1.0) >= 0.1
    if k == "large_t":
        t, x = a
        return 1.0 < t <= 6.0 and x > 0.0
    if k == "U":
        return a[0] >= 0.0 and _re_s_ok(a[1])
    if k == "U_small":
        return 0.0 <= a[0] < 1.0 and _re_s_ok(a[1])
    if k == "dU":
        return a[0] >= 0.0 and _re_s_ok(a[1])
    if k == "V":
        return a[0].real > 0.0 and _re_s_ok(a[1])
    if k == "U_line":
        t, re, im_lo, im_hi, _n = a
        return (t > 0.0 and _re_s_ok(complex(re, im_lo))
                and _re_s_ok(complex(re, im_hi)))
    raise ValueError(f"unknown op kind {k!r}")


# ---------------------------------------------------------------------------
# the workload table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable
    #: per-op deadline; an op still running then is interrupted and failed
    deadline_s: float
    #: one untimed op of each kind, at fixed inputs outside the timed set
    warmup: tuple
    #: fixed, untimed pairs of independent routes: (label, op_a, op_b)
    cross: tuple = ()

    def ops(self, seed):
        """Endless iterator over rounds (lists of Op) for this seed."""
        return self.rounds(random.Random(f"{self.name}:{seed}"))


def _lam(t, x, regime):
    return Op("lambda", (t, x, regime), t)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="lambda_points",
            rounds=lambda_points_rounds,
            deadline_s=2.0,
            warmup=(_lam(1.0, 2.0, "auto"),),
            cross=tuple(
                [(f"direct~log_regularized@({t},{x})",
                  _lam(t, x, "direct"), _lam(t, x, "log_regularized"))
                 for t, x in ((0.52, 2.0), (0.55, 0.5), (0.58, 3.0))]
                + [(f"direct~large_t_asymptotic@({t},{x})",
                    _lam(t, x, "direct"), _lam(t, x, "large_t_asymptotic"))
                   for t, x in ((3.0, 2.0), (1.5, 4.0), (2.0, 0.5))]),
        ),
        Workload(
            name="lambda_integrals",
            rounds=lambda_integrals_rounds,
            deadline_s=3.0,
            warmup=(Op("l1", (4.0,), 4.0),
                    Op("pairing", (4.0, 0.8, 1.25), 4.0),
                    Op("radial", (4.0,), 4.0)),
            cross=tuple(
                (f"l1_norm_lambda~sqrt(2pi)Re_eval_U(t,1)@{t}",
                 Op("l1", (t,), t), Op("U_mass", (t,), t))
                for t in (0.7, 1.0, 1.5)),
        ),
        Workload(
            name="asymptotic",
            rounds=asymptotic_rounds,
            deadline_s=10.0,
            warmup=(Op("series", (0.3, 0.6), 0.3),
                    Op("large_t", (3.0, 2.0), 3.0)),
            cross=(
                ("small_t_series~direct@(0.52,2.0)",
                 _lam(0.52, 2.0, "small_t_series"), _lam(0.52, 2.0, "direct")),
                ("large_t_asymptotic~direct@(3.0,2.0)",
                 _lam(3.0, 2.0, "large_t_asymptotic"),
                 _lam(3.0, 2.0, "direct")),
            ),
        ),
        Workload(
            name="symbol",
            rounds=symbol_rounds,
            deadline_s=5.0,
            warmup=(Op("U", (1.0, 1.0 + 5.0j), 1.0),
                    Op("U_small", (0.5, 1.0 + 5.0j), 0.5),
                    Op("dU", (1.0, 1.0 + 5.0j), 1.0),
                    Op("V", (1.0 + 1.0j, 1.0 + 5.0j), None),
                    Op("U_line", (1.0, 1.0, 0.0, 20.0, U_LINE_POINTS), 1.0)),
            cross=tuple(
                [(f"eval_U~eval_U_small_t@({t},{s})",
                  Op("U", (t, s), t), Op("U_small", (t, s), t))
                 for t, s in ((0.5, 1.0 + 5.0j), (0.8, 0.6 + 20.0j))]
                + [(f"eval_U~eval_U_line@({t},{s})",
                    Op("U", (t, s), t), Op("U_line", (t, s.real, s.imag,
                                                      s.imag, 1), t))
                   for t, s in ((0.5, 1.0 + 5.0j), (0.8, 0.6 + 20.0j))]),
        ),
    )
}
