"""The benchmark must find every veflow name it patches, imports or calls.

``perfbench/spans.py`` replaces veflow functions, methods and numpy.fft
entry points by name while a traced run is installed.  A refactor that
renames or deletes one of those names breaks the traced benchmark; this
test catches it, and checks that every patched attribute is restored.
``perfbench/workloads.py`` imports veflow names and calls them with
keyword options; importing it and running each cheap workload's set-up
catches a deleted name or option there.  One propagator-check solve runs
the benchmark's closed-form vs RK4 gate and its reference comparison, one
whole-space-decay solve its slope checks and reference comparison, and one
box-n32-monitor solve its residual and H2 bounds and its reference
comparison of every CSV column, so a change to the oracle, the closed form,
the quadrature, the stepper or the diagnostics that fails the benchmark
fails here.
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.spans import TARGETS, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _owner(where: str):
    mod_name, _, cls_name = where.partition(":")
    owner = importlib.import_module(mod_name)
    return getattr(owner, cls_name) if cls_name else owner


def test_tracer_patches_and_restores_every_target():
    before = {(w, a): inspect.getattr_static(_owner(w), a) for w, a, _ in TARGETS}
    tracer = Tracer()
    try:
        with tracer:
            for where, attr, _ in TARGETS:
                assert inspect.getattr_static(_owner(where), attr) is not before[(where, attr)]
    finally:
        tracer.__exit__(None, None, None)   # also undoes a partial install
    for where, attr, _ in TARGETS:
        assert inspect.getattr_static(_owner(where), attr) is before[(where, attr)], (where, attr)


def test_workload_setups_run(tmp_path):
    for name in ("box-n32-monitor", "whole-space-decay", "propagator-check"):
        workload = WORKLOADS[name]
        start, end = workload.setup(workload.inputs(0), tmp_path)
        assert end >= start, name


def test_propagator_check_gate_and_reference(tmp_path):
    workload = WORKLOADS["propagator-check"]
    solve = workload.solve(workload.inputs(0), tmp_path)
    assert solve.attempted == 400
    assert not solve.failed_ops, solve.notes[:5]
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert not workload.compare(solve.outputs, reference["propagator-check"]["0"])


def test_whole_space_decay_checks_and_reference(tmp_path):
    workload = WORKLOADS["whole-space-decay"]
    solve = workload.solve(workload.inputs(0), tmp_path)
    assert solve.attempted == 256
    assert not solve.failed_ops, solve.notes[:5]
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert not workload.compare(solve.outputs, reference["whole-space-decay"]["0"])


def test_box_n32_monitor_gate_and_reference(tmp_path):
    workload = WORKLOADS["box-n32-monitor"]
    solve = workload.solve(workload.inputs(0), tmp_path)
    assert solve.attempted == 41
    assert not solve.failed_ops, solve.notes[:5]
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert not workload.compare(solve.outputs, reference["box-n32-monitor"]["0"])

