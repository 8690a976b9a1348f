"""Exponential-midpoint integrator: CFL, exactness, convergence, runs."""

import numpy as np
import pytest

from helpers import generic_piola_spec, smooth_state
from veflow import (
    FlowState,
    Grid,
    ParameterError,
    ScalarField,
    TensorField,
    VacuumError,
    VectorField,
    apply_linear_semigroup,
    cfl_dt,
    make_params,
    phys_to_pert,
    piola_ic,
    run,
    step,
)
from veflow.diagnostics import h2_distance
from veflow.fields import hermitian_defect
from veflow.stepping import StepperConfig


class TestCfl:
    def test_reference_value(self, params):
        g = Grid(32, 2.0 * np.pi)
        assert cfl_dt(g, params, 0.5) == pytest.approx(0.5 / (np.sqrt(2.0) * 15.0), rel=1e-12)

    def test_unit_wave_speed_limit(self):
        g = Grid(32, 2.0 * np.pi)
        p = make_params(alpha=1e-12)
        assert cfl_dt(g, p, 0.5) == pytest.approx(0.5 / 15.0, rel=1e-9)

    def test_resolution_scaling(self, params):
        d16 = cfl_dt(Grid(16), params)
        d32 = cfl_dt(Grid(32), params)
        assert d16 / d32 == pytest.approx(15.0 / 7.0, rel=1e-12)

    def test_run_rejects_dt_above_bound(self, grid8, params):
        cfg = StepperConfig(dt=10.0, t_end=1.0)
        with pytest.raises(ParameterError, match="CFL"):
            run(FlowState.zero(grid8), params, cfg)


class TestStep:
    def test_zero_state(self, grid8, params):
        out = step(FlowState.zero(grid8), params, 0.01)
        assert out.h_norm(2) == 0.0
        assert out.time == pytest.approx(0.01)

    def test_sources_off_is_exact_linear(self, grid8, params, rng):
        st = smooth_state(grid8, rng, amp=1e-2)
        dt = cfl_dt(grid8, params)
        one = step(st, params, dt, sources=False)
        lin = apply_linear_semigroup(st, params, dt)
        assert h2_distance(one, lin) < 1e-12

    def test_output_spectra_hermitian(self, grid8, params, rng):
        st = smooth_state(grid8, rng, amp=1e-2)
        cur = st
        for _ in range(3):
            cur = step(cur, params, cfl_dt(grid8, params))
        for f in cur.fields():
            assert hermitian_defect(f.spectrum) <= 1e-12 * np.max(np.abs(f.spectrum))

    def test_multi_step_linear_matches_semigroup(self, grid8, params, rng):
        st = smooth_state(grid8, rng, amp=1e-2)
        dt = cfl_dt(grid8, params)
        cur = st
        for _ in range(10):
            cur = step(cur, params, dt, sources=False)
        lin = apply_linear_semigroup(st, params, 10 * dt)
        assert h2_distance(cur, lin) < 1e-10

    def test_second_order_convergence(self, params):
        grid = Grid(8)
        st = phys_to_pert(piola_ic(generic_piola_spec(1e-2), grid, params), params, warn=False)
        t_end = 0.2

        def advance(dt):
            cur = st
            for _ in range(int(round(t_end / dt))):
                cur = step(cur, params, dt)
            return cur

        dt0 = t_end / 8.0
        ref = advance(dt0 / 8.0)
        e1 = h2_distance(advance(dt0), ref)
        e2 = h2_distance(advance(dt0 / 2.0), ref)
        ratio = e1 / e2
        assert 3.2 <= ratio <= 4.8, ratio


class TestRun:
    def test_t_end_zero_single_sample(self, grid8, params):
        cfg = StepperConfig(dt=0.01, t_end=0.0)
        rec = run(FlowState.zero(grid8), params, cfg)
        assert len(rec) == 1
        assert rec.times[0] == 0.0

    @pytest.mark.parametrize("field", ["dt", "t_end"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_config_rejects_non_finite(self, field, value):
        kwargs = {"dt": 0.01, "t_end": 1.0, field: value}
        with pytest.raises(ParameterError, match=field):
            StepperConfig(**kwargs)

    def test_sample_cadence_and_final(self, grid8, params, rng):
        st = smooth_state(grid8, rng, amp=1e-3)
        dt = cfl_dt(grid8, params)
        cfg = StepperConfig(dt=dt, t_end=10.5 * dt, output_every=4)
        rec = run(st, params, cfg)
        # samples at t0, steps 4, 8, and the final fractional step
        assert len(rec) == 4
        assert rec.times[-1] == pytest.approx(10.5 * dt)

    def test_energy_bounded_small_run(self, params):
        grid = Grid(16)
        st = phys_to_pert(piola_ic(generic_piola_spec(1e-3), grid, params), params, warn=False)
        cfg = StepperConfig(dt=cfl_dt(grid, params), t_end=1.0, output_every=5)
        rec = run(st, params, cfg)
        h2 = rec.array("H2")
        assert np.max(h2**2) <= 2.0 * h2[0] ** 2
        acc1 = rec.array("diss_acc1")
        acc2 = rec.array("diss_acc2")
        assert np.all(np.diff(acc1) >= 0.0) and np.all(np.diff(acc2) >= 0.0)

    def test_abort_flushes_partial_csv(self, tmp_path, grid8, params):
        n = ScalarField(grid8, np.full(grid8.shape, -0.52))
        bad = FlowState.create(
            n, VectorField.zero(grid8), TensorField.zero(grid8), project=False
        )
        csv_path = tmp_path / "partial.csv"
        cfg = StepperConfig(dt=0.01, t_end=1.0)
        with pytest.raises(VacuumError):
            run(bad, params, cfg, csv_path=csv_path, dump_dir=tmp_path)
        text = csv_path.read_text().strip().splitlines()
        assert text[0].startswith("t,")
        assert (tmp_path / "abort_n.cvf").exists()

    def test_streamed_csv_matches_record(self, tmp_path, grid8, params, rng):
        st = smooth_state(grid8, rng, amp=1e-3)
        dt = cfl_dt(grid8, params)
        cfg = StepperConfig(dt=dt, t_end=5.5 * dt, output_every=2)
        csv_path = tmp_path / "series.csv"
        rec = run(st, params, cfg, csv_path=csv_path)
        assert len(rec) == 4
        assert csv_path.read_bytes() == rec.csv_text().encode("ascii")

    def test_keep_states(self, grid8, params, rng):
        st = smooth_state(grid8, rng, amp=1e-3)
        dt = cfl_dt(grid8, params)
        cfg = StepperConfig(dt=dt, t_end=4 * dt, output_every=2, keep_states=True)
        rec = run(st, params, cfg)
        assert len(rec.states) == len(rec)
        assert rec.final_state is rec.states[-1]

    def test_nonunit_coupling_pipeline(self):
        """Full nonlinear machinery with a != 1 (scaled pressure, heavier coupling).

        Constraint drift tracks the dealiased band, so the residual ceiling
        here is the N = 16 truncation level, not the N = 32 one.
        """
        from veflow.diagnostics import duhamel_compare

        p = make_params(mu=0.8, lam=0.3, alpha=2.0, gamma=3.0, pressure_scale=4.0)
        assert p.a == pytest.approx(0.5)
        grid = Grid(16)
        devs = {}
        for delta in (1e-3, 5e-4):
            st = phys_to_pert(piola_ic(generic_piola_spec(delta), grid, p), p, warn=False)
            cfg = StepperConfig(
                dt=cfl_dt(grid, p), t_end=1.5, output_every=5, keep_states=True
            )
            rec = run(st, p, cfg)
            h2 = rec.array("H2")
            assert np.max(h2**2) <= 2.0 * h2[0] ** 2
            assert max(rec.array("r1").max(), rec.array("r3").max()) < 1e-7
            devs[delta] = duhamel_compare(rec, p, st).max_deviation
        assert 3.0 <= devs[1e-3] / devs[5e-4] <= 5.0
