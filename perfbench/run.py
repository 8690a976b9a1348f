"""veflow benchmark runner.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload box-n32-monitor --seed 0 --seconds 5 --trace 0

One run is a closed loop with one caller: solves of the workload follow each
other until ``--seconds`` have passed (at least one solve), and the set-up
is repeated a few extra times, half before the solves and half after.
Every solve's outputs are checked.  Every time metric is in
reference-speed seconds: the host clock (``perfbench/hostclock.py``)
calibrates the host's speed every 0.1 s of the run and scales each
stretch of it to the speed where its FFT kernel takes ``REF_KERNEL_S``;
the raw times are in the report.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the same loop is followed by one traced solve and the JSON
object carries the per-layer metrics.  The lines before it print every metric by name with its
unit, the environment and the computed working set; the full report, and
in a traced run the span file, are written under ``.perfbench_out/``.

The program is imported from ``src/`` of the checkout; the runner exits
with status 2 without a result when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
)
# names the per-operation metrics are printed under, by kind of operation
OP_ALIASES = {"sample": "sample_ms", "time point": "point_ms", "check point": "check_ms"}


def _read_first(path: str, prefix: str = "") -> str:
    """First line of ``path`` starting with ``prefix``; '' when unreadable."""
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line[len(prefix):].strip(" \t:\n")
    except OSError:
        pass
    return ""


def environment() -> dict:
    import platform

    import numpy as np

    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    try:
        from numpy.fft import _pocketfft_umath  # noqa: F401
        backend = "pocketfft (numpy.fft._pocketfft_umath)"
    except ImportError:
        backend = "numpy.fft (backend unknown)"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name") or platform.processor(),
        "l2_cache": _read_first(cache.format(2)),
        "llc": _read_first(cache.format(3)),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _bytes(size: str) -> int:
    """'107520K' -> bytes; 0 when unknown."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    try:
        return int(size[:-1]) * units[size[-1]] if size[-1:] in units else int(size)
    except ValueError:
        return 0


def tail(values: list) -> tuple[float, str, int]:
    """Highest ladder percentile leaving at least ten samples beyond it (else the max)."""
    n = len(values)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0:
            return statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1], f"p{p:g}", n
    return max(values), "max", n


def measure(workload, seed: int, seconds: float, trace: bool, out: Path, reference=None):
    """Run one workload; returns (result line, full report)."""
    # both import numpy, so not before main() pins the threads
    from perfbench.hostclock import HostClock
    from perfbench.spans import Tracer

    out.mkdir(parents=True, exist_ok=True)
    inputs = workload.inputs(seed)
    clock = HostClock()
    with clock:   # the extra set-ups are split around the solves, to sample two host states
        setups = [workload.setup(inputs, out) for _ in range(workload.extra_setups // 2)]
        solves = []
        start = perf_counter()
        while not solves or perf_counter() - start < seconds:
            solves.append(workload.solve(inputs, out))
        setups += [workload.setup(inputs, out) for _ in range(workload.extra_setups - len(setups))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = tracer = None
    if trace:
        tracer = Tracer()
        traced_clock = HostClock(timed=False)   # no calibration inside a span
        with traced_clock, tracer, tracer.span("bench.solve"):
            traced = workload.solve(inputs, out, tracer)

    notes, attempted, failed = [], 0, 0
    for s in solves + ([traced] if traced else []):
        bad = set(s.failed_ops)
        if reference is not None:
            mismatch = workload.compare(s.outputs, reference)
            if mismatch:
                notes.append(f"{len(mismatch)} operations differ from the reference values")
            bad |= mismatch
        attempted += s.attempted
        failed += len(bad)
        notes += s.notes
    digests = sorted({s.digest for s in solves + ([traced] if traced else [])})
    if len(digests) > 1:
        notes.append("repeated solves of one seed gave different output bytes")

    def op_ms(pieces, duration):
        return 1e3 * sum(w * duration(a, b) for a, b, w in pieces)

    def raw(a, b):
        return b - a

    setup_ivs = setups + [s.setup for s in solves]
    ops = [op_ms(p, clock.scaled) for s in solves for p in s.ops]
    tail_ms, tail_label, tail_n = tail(ops)
    e2e = {
        "wall_s": statistics.median([clock.scaled(*s.wall) for s in solves]),
        "setup_s": statistics.median([clock.scaled(*iv) for iv in setup_ivs]),
        "peak_rss_mb": peak_rss_mb,
        "op_ms_p50": statistics.median(ops),
        "op_ms_tail": tail_ms,
    }
    raw_ops = [op_ms(p, raw) for s in solves for p in s.ops]
    raw_times = {
        "wall_s": statistics.median([raw(*s.wall) for s in solves]),
        "setup_s": statistics.median([raw(*iv) for iv in setup_ivs]),
        "op_ms_p50": statistics.median(raw_ops),
        "op_ms_tail": tail(raw_ops)[0],
    }
    e2e = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if trace:
        overhead_s = traced_clock.scaled(*traced.wall) - e2e["wall_s"]["value"]
        metrics = tracer.metrics(traced.write_bytes, overhead_s)
        tracer.write(out / f"spans-seed{seed}.jsonl")
    else:
        metrics = e2e
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    env = environment()
    ws = workload.working_set()
    ws["llc_bytes"] = _bytes(env["llc"])
    ws["share_of_llc"] = ws["bytes"] / ws["llc_bytes"] if ws["llc_bytes"] else None
    report = {
        "seed": seed,
        "trace": int(trace),
        "end_to_end": e2e,
        "per_layer": metrics if trace else None,
        "operation": workload.op,
        "op_ms_alias": OP_ALIASES[workload.op],
        "tail_percentile": tail_label,
        "tail_samples": tail_n,
        "solves": len(solves),
        "setups": len(setups) + len(solves),
        "digest": digests[0] if len(digests) == 1 else digests,
        "reference_compared": reference is not None,
        "notes": notes[:50],
        "environment": env,
        "raw_times": raw_times,
        "host_clock": clock.summary(),
        "working_set_computed": ws,
        "result": result,
    }
    return result, report


def _print_report(name: str, report: dict) -> None:
    alias = report["op_ms_alias"]
    print(f"perfbench {name} seed={report['seed']} trace={report['trace']}")
    for metric, m in report["end_to_end"].items():
        label = metric.replace("op_ms", alias) if metric.startswith("op_ms") else metric
        print(f"  {label:<36} {m['value']:.6g} {m['unit']}")
    print(f"  tail = {report['tail_percentile']} of {report['tail_samples']} {report['operation']}s; "
          f"{report['solves']} solve(s), {report['setups']} set-ups")
    for metric, m in (report["per_layer"] or {}).items():
        print(f"  {metric:<36} {m['value']:.6g} {m['unit']}")
    ws = report["working_set_computed"]
    share = f"{ws['share_of_llc']:.3f}" if ws["share_of_llc"] is not None else "n/a"
    print(f"  working set (computed) {ws['bytes']} B = {share} x LLC")
    print(f"  environment {json.dumps(report['environment'], sort_keys=True)}")
    hc = report["host_clock"]
    print(f"  host clock: {hc['calibrations']} calibrations, kernel p50 {hc['kernel_ms_p50']:.4g} ms "
          f"(min {hc['kernel_ms_min']:.4g}, max {hc['kernel_ms_max']:.4g}, "
          f"reference {hc['ref_kernel_ms']:.4g}), {hc['pause_s']:.3g} s paused")
    print("  raw times: " + ", ".join(f"{k} {v:.6g}" for k, v in report["raw_times"].items()))
    for note in report["notes"]:
        print(f"  note: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:   # before numpy is imported
        os.environ[var] = "1"
    if not (SRC / "veflow" / "__init__.py").is_file():
        print(f"perfbench: no veflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference = refs.get(args.workload, {}).get(str(args.seed))
    result, report = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), OUT / args.workload, reference)
    (OUT / args.workload / f"report-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    _print_report(args.workload, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
