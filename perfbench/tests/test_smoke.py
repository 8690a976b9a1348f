"""Smoke test of the benchmark at tiny sizes.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import END_TO_END, measure  # noqa: E402
from perfbench.spans import PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS, Box, Check, Decay, mode_text  # noqa: E402
from veflow.cli import sample_grid_for_check  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "box-n64-march": Box(n=8, steps=3, output_every=3, extra_setups=2),
    "box-n32-monitor": Box(n=8, steps=3, output_every=1, extra_setups=2),
    "whole-space-decay": Decay(points=16),
    "propagator-check": Check(n_times=3),
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    runs = {}
    for name, workload in TINY.items():
        tracer_result, report = measure(workload, 3, 0.0, True, out / name)
        spans = [json.loads(line) for line in (out / name / "spans-seed3.jsonl").open()]
        runs[name] = (tracer_result, report, spans)
    return runs


def test_benchmark_json_lists_the_emitted_metrics():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == list(PER_LAYER)


def test_every_metric_is_emitted(traced, tmp_path):
    for name, (result, report, _) in traced.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [m for m, *_ in PER_LAYER], name
        assert list(report["end_to_end"]) == [m for m, _ in END_TO_END], name
        assert result["attempted"] >= 1
    result, _ = measure(TINY["box-n32-monitor"], 3, 0.0, False, tmp_path)
    assert list(result["metrics"]) == [m for m, _ in END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_span_self_times_are_consistent(traced):
    for name, (_, _, spans) in traced.items():
        children = [0.0] * len(spans)
        for s in spans:
            assert s["self_ms"] >= 0.0, (name, s)
            if s["parent"] >= 0:
                children[s["parent"]] += s["end"] - s["start"]
        for s, c in zip(spans, children):
            assert c <= s["end"] - s["start"] + 1e-9, (name, s)


def test_transform_counts_per_step_and_sample(traced):
    for name in ("box-n64-march", "box-n32-monitor"):
        metrics = traced[name][0]["metrics"]
        assert metrics["fft.transforms_per_step"]["value"] == 136
        assert metrics["fft.transforms_per_sample"]["value"] == 81
    for name in ("whole-space-decay", "propagator-check"):
        metrics = traced[name][0]["metrics"]
        assert metrics["fft.c2c.transforms"]["value"] == metrics["fft.r2c.transforms"]["value"] == 0
    assert traced["whole-space-decay"][0]["metrics"]["quadrature.panels"]["value"] > 0
    assert traced["propagator-check"][0]["metrics"]["oracles.rk4_block_expm.calls"]["value"] == 2


def test_counts_repeat_and_outputs_are_byte_identical(traced, tmp_path):
    for name, workload in TINY.items():
        again, report = measure(workload, 3, 0.0, True, tmp_path / name)
        first, first_report, _ = traced[name]
        counts = [m for m, unit, _ in PER_LAYER if unit in ("count", "B", "count/step", "count/sample")]
        for m in counts:
            assert again["metrics"][m]["value"] == first["metrics"][m]["value"], (name, m)
        # the untraced and the traced solve of each run agree, and so do the two runs
        assert isinstance(report["digest"], str) and report["digest"] == first_report["digest"]


def test_failed_operations_are_counted(traced):
    # N = 8 cannot resolve the sample data to the 1e-8 residual bound
    result, report, _ = traced["box-n32-monitor"]
    assert result["failed"] > 0 and not result["correct"]
    assert any("residual" in n for n in report["notes"])
    for name in ("whole-space-decay", "propagator-check"):
        assert traced[name][0]["failed"] == 0 and traced[name][0]["correct"]


def test_seed_zero_reproduces_the_cli_inputs():
    assert mode_text(0) == (ROOT / "sample_ic.txt").read_text()
    decay = WORKLOADS["whole-space-decay"]
    for series, (_, (lo, hi), _, _) in zip(decay.build(decay.inputs(0)), decay.PLAN):
        np.testing.assert_array_equal(series.times, np.logspace(np.log10(lo), np.log10(hi), 64))
    check = WORKLOADS["propagator-check"]
    for system, radii, times in check.build(check.inputs(0)):
        want_r, want_t = sample_grid_for_check(system)
        np.testing.assert_array_equal(radii, want_r)
        np.testing.assert_array_equal(times, want_t)


def test_other_seeds_change_only_random_parts():
    from veflow.initial import parse_mode_file

    base, other = parse_mode_file(mode_text(0)), parse_mode_file(mode_text(5))
    for a, b in zip(base.phi_modes + base.u_modes, other.phi_modes + other.u_modes):
        assert a.k == b.k
        np.testing.assert_allclose(np.abs(a.amplitude), np.abs(b.amplitude), rtol=1e-15)
    decay = WORKLOADS["whole-space-decay"]
    for s0, s5, (_, (lo, hi), _, _) in zip(decay.build(decay.inputs(0)),
                                           decay.build(decay.inputs(5)), decay.PLAN):
        assert s5.times.size == s0.times.size and np.all(np.diff(s5.times) > 0)
        assert (s5.times[0], s5.times[-1]) == (lo, hi) and not np.array_equal(s0.times, s5.times)
    check = WORKLOADS["propagator-check"]
    for (_, r0, t0), (_, r5, t5) in zip(check.build(check.inputs(0)), check.build(check.inputs(5))):
        fixed = np.r_[0, 27:40]
        np.testing.assert_array_equal(r0[fixed], r5[fixed])
        np.testing.assert_array_equal(t0, t5)
        assert r5.max() == r0.max()


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "box-n32-monitor",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_host_clock_scales_work_and_leaves_out_pauses():
    from perfbench.hostclock import REF_KERNEL_S, HostClock

    clock = HostClock(timed=False)
    ref = REF_KERNEL_S
    clock.count = 3
    clock._starts[:3], clock._ends[:3] = [0.0, 2.0, 5.0], [1.0, 3.0, 6.0]
    clock._kernel_s[:3] = [ref, ref, 2.0 * ref]
    assert clock.scaled(1.0, 2.0) == pytest.approx(1.0)
    # [1.5, 2] at the reference speed; [2, 3] is a pause; [3, 4] at 1.5x slower
    assert clock.scaled(1.5, 4.0) == pytest.approx(0.5 + 1.0 / 1.5)
    with pytest.raises(ValueError):
        clock.scaled(0.5, 2.0)

    with HostClock() as clock:
        a = perf_counter()
        while perf_counter() - a < 0.35:
            pass
    assert len(clock.kernel_s) >= 4 and clock.pause_s() > 0.0
