"""Tests of the benchmark's own rules; none of them runs the library."""

import json
import math
import os
import signal
import time
import types

import pytest

import bench_worker
from bench_stats import (
    DEADLINE,
    ELASTICITY,
    NONFINITE,
    OK,
    RAISED,
    all_finite,
    at_reference_speed,
    classify,
    local_slowness,
    self_times,
    slowness_of,
    summarize_ops,
    tail_percentile,
)
from bench_trace import Tracer, per_layer
from bench_workloads import (
    SERIES_REFUSED,
    T_STALL,
    U_LINE_REFUSED,
    WORKLOADS,
    Op,
    Workload,
    in_zone,
)
from run import END_TO_END_UNITS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _rounds(name, seed, n):
    it = WORKLOADS[name].ops(seed)
    return [next(it) for _ in range(n)]


# ---------------------------------------------------------------- percentiles


@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_p90_omitted_below_100_ops():
    rec = [(OK, 0.001 * (i + 1)) for i in range(99)]
    assert summarize_ops(rec, 1.0)["latency_p90_ms"] is None
    rec.append((OK, 0.1))
    out = summarize_ops(rec, 1.0)
    assert out["latency_p90_ms"] == pytest.approx(90.0)
    assert out["latency_p50_ms"] == pytest.approx(50.5)


def test_reference_speed_cancels_a_slow_machine_not_a_slow_library():
    # the machine turns slower halfway: the library by 1.5x, the kernel
    # by 1.5x to the power 1 / ELASTICITY
    slow_pass = 1e-3 * 1.5 ** (1.0 / ELASTICITY)
    cal = [(0.1 * i, 1e-3 if i < 50 else slow_pass) for i in range(100)]
    spans = ([(0.3 * i, 0.3 * i + 0.002) for i in range(10)]
             + [(7.0 + 0.3 * i, 7.0 + 0.3 * i + 0.003) for i in range(10)])
    slowness = local_slowness(spans, cal, 1e-3, 1.0)
    assert slowness == pytest.approx([1.0] * 10 + [1.5] * 10)
    raw = [(OK, end - start) for start, end in spans]
    out = summarize_ops(at_reference_speed(raw, slowness), 1.0)
    assert out["latency_p50_ms"] == pytest.approx(2.0)
    assert out["ops_per_s"] == pytest.approx(500.0)
    # a slower library is not scaled away
    lib = summarize_ops(at_reference_speed(raw, [1.0] * 20), 1.0)
    assert lib["latency_p50_ms"] == pytest.approx(2.5)
    # a 1 s deadline wait lasts 1 s at any speed: only the rest is scaled
    stalled = at_reference_speed([(OK, 0.5), (DEADLINE, 1.0)], [2.0, 2.0])
    assert summarize_ops(stalled, 1.0)["ops_per_s"] == pytest.approx(
        1.0 / (0.5 / 2.0 + 1.0))


def test_slowness_follows_the_slow_share_and_ignores_one_outlier():
    # two speed modes: the figure moves by the share of slow passes, with
    # no jump where that share crosses one half
    shares = [slowness_of([1.5e-3] * k + [1e-3] * (20 - k), 1e-3)
              ** (1.0 / ELASTICITY) for k in (9, 10, 11)]
    assert shares == pytest.approx([1.21875, 1.25, 1.28125])
    # one pass preempted for 20x its time is cut
    assert slowness_of([1e-3] * 19 + [20e-3], 1e-3) == pytest.approx(1.0)


# ----------------------------------------------------------------- self time


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_tracer_attributes_nested_calls():
    ns = types.SimpleNamespace()

    def inner(x):
        time.sleep(0.01)
        return x

    def outer(x):
        return ns.inner(x) + 1

    ns.inner, ns.outer = inner, outer
    tr = Tracer()
    tr.phase = "timed"
    tr.wrap(ns, "inner", "layer.inner", lambda args, out: args[0])
    tr.wrap(ns, "outer", "layer.outer")
    assert ns.outer(3) == 4
    tr.uninstall()
    assert ns.inner is inner and ns.outer is outer
    (o_name, o_start, o_end, o_parent, _, _), (i_name, *_rest) = tr.spans
    assert (o_name, o_parent, i_name) == ("layer.outer", -1, "layer.inner")
    assert tr.spans[1][3] == 0 and tr.spans[1][4] == 3
    own = self_times([s[:4] for s in tr.spans])
    assert own[0] == pytest.approx(o_end - o_start - (tr.spans[1][2]
                                                     - tr.spans[1][1]))


# ------------------------------------------------------------ failure counts


def test_classify_outcomes():
    assert classify(True, 0.5, 1.0, None) == OK
    assert classify(False, 0.5, 1.0, None) == NONFINITE
    assert classify(False, 0.5, 1.0, "TruncationError") == RAISED
    assert classify(True, 1.5, 1.0, None) == DEADLINE
    assert classify(False, 0.99, 1.0, "DeadlineExceeded") == DEADLINE


def test_all_finite_sees_nested_nan():
    assert all_finite(1.0) and all_finite([1.0, 2 + 3j])
    assert not all_finite([1.0, [2.0, math.nan]])
    assert not all_finite(complex(math.inf, 0.0))


def test_timed_phase_counts_raises_nonfinite_and_deadline(monkeypatch):
    def fake_execute(_mods, _ev, op):
        if op.kind == "stall":
            while True:  # a pure-Python stall, like the known defect
                pass
        if op.kind == "raise":
            raise ArithmeticError("refused")
        if op.kind == "nan":
            return [1.0, math.nan], None
        return 2.0, 2e-6

    def rounds(_rng):
        while True:
            yield [Op(k, (), float(i))
                   for i, k in enumerate(("ok", "stall", "raise", "nan"))]

    monkeypatch.setattr(bench_worker, "execute", fake_execute)
    wl = Workload(name="fake", rounds=rounds, deadline_s=0.2,
                  warmup=())
    start = time.perf_counter()
    records, cal = bench_worker.timed_phase(None, None, wl, 1, 0.01, None)
    assert cal and all(d > 0.0 for _, d in cal)
    assert time.perf_counter() - start < 5.0
    assert [r[0] for r in records] == [OK, DEADLINE, RAISED, NONFINITE]
    assert [r[5] for r in records] == [None, "DeadlineExceeded",
                                       "ArithmeticError", None]
    out = summarize_ops([r[:2] for r in records], wl.deadline_s)
    assert (out["attempted"], out["failed"]) == (4, 3)
    assert out["success_rate"] == pytest.approx(0.25)
    # failures rank at or above the deadline, so the median is a failure
    assert out["latency_p50_ms"] >= 200.0


def test_alarm_after_disarm_is_ignored():
    assert bench_worker.with_deadline(lambda: 5, 1.0) == (5, None)
    # an alarm that is delivered once the op is over raises nothing
    bench_worker._alarm(None, None)
    os.kill(os.getpid(), signal.SIGALRM)
    time.sleep(0.01)


def test_cross_check_stall_is_reported_not_hung(monkeypatch):
    def fake_execute(_mods, _ev, op):
        if op.kind == "stall":
            while True:
                pass
        return 1.0, 1e-9

    monkeypatch.setattr(bench_worker, "execute", fake_execute)
    monkeypatch.setattr(bench_worker, "CROSS_DEADLINE_S", 0.1)
    wl = Workload(name="fake", rounds=None, deadline_s=0.2, warmup=(),
                  cross=(("p", Op("ok", (), 1.0), Op("stall", (), 1.0)),))
    out, rel = bench_worker.cross_checks(None, None, wl)
    assert out == [{"pair": "p", "ratio": None, "sane": False,
                    "error": "DeadlineExceeded"}]
    assert rel == []


def test_stand_in_error_enters_as_realised_distance(monkeypatch):
    values = {"l1": (1.001, 1.001e-6), "U_mass": (1.0, 2e-12)}
    monkeypatch.setattr(bench_worker, "execute",
                        lambda _m, _e, op: values[op.kind])
    wl = Workload(name="fake", rounds=None, deadline_s=1.0, warmup=(),
                  cross=(("p", Op("l1", (), 1.0), Op("U_mass", (), 1.0)),))
    out, rel = bench_worker.cross_checks(None, None, wl)
    # the l1 figure is its distance from the mass, not its 1e-6 stand-in
    assert rel == pytest.approx([1e-3, 2e-12])
    assert out[0]["ratio"] == pytest.approx(1e-3 / (1.001e-6 + 2e-12))
    assert out[0]["sane"]


# ------------------------------------------------------------------- inputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    assert _rounds(name, 7, 3) == _rounds(name, 7, 3)
    assert _rounds(name, 7, 3) != _rounds(name, 8, 3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_lie_in_documented_zones(name):
    w = WORKLOADS[name]
    ops = [op for seed in (1, 2, 3) for r in _rounds(name, seed, 6)
           for op in r]
    ops += list(w.warmup) + [op for _, a, b in w.cross for op in (a, b)]
    bad = [op for op in ops if not in_zone(op)]
    assert not bad


def test_known_defects_keep_a_fixed_share():
    for r in _rounds("lambda_integrals", 3, 4):
        stalls = [op for op in r if op.kind in ("l1", "pairing")
                  and op.t <= T_STALL[1]]
        assert len(stalls) == 1 and len(r) == 13
        if stalls[0].kind == "pairing":
            assert stalls[0].args[1] < 1.0 < stalls[0].args[2]
    (t_lo, t_hi), (x_lo, x_hi) = SERIES_REFUSED
    for r in _rounds("asymptotic", 3, 4):
        band = [op for op in r if op.kind == "series"
                and t_lo <= op.args[0] <= t_hi and x_lo <= op.args[1] <= x_hi]
        assert len(band) == 1
    for r in _rounds("symbol", 3, 4):
        edge = [op for op in r if op.kind == "U_line"
                and op.args[1] >= U_LINE_REFUSED[0]]
        assert len(edge) == 1


def test_lambda_points_t_pool_is_twice_the_assembly_cache():
    ts = {op.t for r in _rounds("lambda_points", 5, 3) for op in r}
    assert len(ts) == 96
    first = [op.t for op in _rounds("lambda_points", 5, 1)[0]]
    assert sorted(first) == sorted(ts)


# ------------------------------------------------------------- declaration


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == END_TO_END_UNITS
    layer = set(per_layer(Tracer(), {"setup": 0, "timed": 0}))
    layer |= {"fundsol.first_t_ms", "fundsol.seen_t_ms",
              "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer
