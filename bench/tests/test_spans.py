"""Span recorder, host-speed probe and metric names.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import layers
import run
import spans


def test_self_time_subtracts_direct_children_only():
    # 0 [0,10] has children 1 [1,4] and 3 [5,8]; 1 has child 2 [2,3]; 4 is a second root
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 10.0])
    end = np.array([10.0, 4.0, 3.0, 8.0, 11.0])
    assert spans.self_times(parent, start, end).tolist() == [4.0, 2.0, 1.0, 3.0, 1.0]


def test_recorder_nests_spans_and_counts_errors():
    rec = spans.Recorder()
    seen = []
    inner = rec.wrap("m.inner", lambda x: x * 2, observe=seen.append)

    def outer_fn():
        return inner(1) + inner(2)

    outer = rec.wrap("m.outer", outer_fn)
    boom = rec.wrap("m.boom", lambda: 1 / 0)
    assert outer() == 6
    with pytest.raises(ZeroDivisionError):
        boom()
    s = rec.summary()
    assert (s["m.outer"]["calls"], s["m.inner"]["calls"], s["m.boom"]["calls"]) == (1, 2, 1)
    assert s["m.outer"]["self_s"] == pytest.approx(s["m.outer"]["total_s"] - s["m.inner"]["total_s"])
    assert rec.child_calls("m.inner", "m.outer") == 2
    assert rec.errors["m.boom"] == 1 and rec.errors["m.inner"] == 0
    assert seen == [2, 4]


def test_patched_reaches_every_binding_site_and_restores():
    from slowent import covernum, expcli, toys

    original = covernum.sample_from_points
    factory = toys.TranslationAction.__dict__["pair_bowen"]
    rec = spans.Recorder()
    traced = [("slowent.covernum", "sample_from_points", "covernum.sample_from_points")]
    with spans.patched(rec, traced, layers.CLOSURES):
        assert expcli.sample_from_points is covernum.sample_from_points is not original
        pts = toys.sample_torus_points(3, 1)
        dn = toys.TranslationAction().pair_bowen(pts, 1)
        assert dn(0, 1) == dn(1, 0)
    assert expcli.sample_from_points is covernum.sample_from_points is original
    assert toys.TranslationAction.__dict__["pair_bowen"] is factory
    assert rec.summary()["toys.dn"]["calls"] == 2


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.metric_units()


def test_sampler_leaves_its_probes_out_of_the_reference_time():
    with hostspeed.Sampler() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 3 * hostspeed.PERIOD_S:
            pass
        wall = time.perf_counter() - start
    assert len(probe.samples) >= 4  # one before, one after, periodic ones inside
    assert 0 < probe.spent < wall
    assert probe.scale == pytest.approx(statistics.fmean(hostspeed.PROBE_REF_S / x for x in probe.samples))
    assert probe.reference(wall) == pytest.approx((wall - probe.spent) * probe.scale)
