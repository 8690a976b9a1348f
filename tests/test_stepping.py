"""Exponential-midpoint integrator: CFL, exactness, convergence, runs."""

import logging

import numpy as np
import pytest

from helpers import (
    antisymmetric_part,
    column,
    einsum_apply,
    field_wrapped_rhs_spectra,
    full_lattice,
    full_spectrum_step,
    full_state,
    generic_piola_spec,
    hermitian_defect,
    max_relative_gap,
    random_spectra,
    same_bits,
    smooth_state,
    step_memory,
    zero_field,
    zero_state,
)
from veflow import (
    FlowState,
    Grid,
    ParameterError,
    ScalarField,
    TensorField,
    VacuumError,
    VectorField,
    cfl_dt,
    make_params,
    phys_to_pert,
    piola_ic,
    run,
    step,
)
from veflow.diagnostics import CSV_HEADER, h2_distance, sample_row
from veflow.fields import half_to_full
from veflow.operators import gradient_sobolev_norm
from veflow.semigroup import LinearPropagator
from veflow.sources import constraint_residuals
from veflow.state import state_from_spectra
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
            run(zero_state(grid8), params, cfg)


class TestStep:
    def test_zero_state(self, grid8, params):
        out = step(zero_state(grid8), params, 0.01)
        assert out.h_norm(2) == 0.0
        assert out.time == pytest.approx(0.01)

    def test_sources_off_is_exact_linear(self, grid8, params, rng):
        st = smooth_state(grid8, rng, amp=1e-2)
        dt = cfl_dt(grid8, params)
        one = step(st, params, dt, sources=False)
        lin = LinearPropagator(grid8, params, dt)(st)
        assert h2_distance(one, lin) < 1e-12

    def test_output_spectra_hermitian(self, grid8, params, rng):
        st = smooth_state(grid8, rng, amp=1e-2)
        cur = st
        for _ in range(3):
            cur = step(cur, params, cfl_dt(grid8, params))
        for f in cur.fields():
            spec = half_to_full(grid8, f.half)
            assert hermitian_defect(spec) <= 1e-12 * np.max(np.abs(spec))

    def test_multi_step_linear_matches_semigroup(self, grid8, params, rng):
        st = smooth_state(grid8, rng, amp=1e-2)
        dt = cfl_dt(grid8, params)
        cur = st
        for _ in range(10):
            cur = step(cur, params, dt, sources=False)
        lin = LinearPropagator(grid8, params, 10 * dt)(st)
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


def _one_line_step(state, params, dt, dealias, half_prop, full_prop, sources):
    """``step`` with K(dt) U formed first and every sum a new array, on the
    batched apply (``einsum_apply``) and the field-wrapped sources, on the
    kz >= 0 halves."""
    grid = state.grid
    n0, v0, e0 = (f.half for f in state.fields())
    nf, vf, ef = einsum_apply(full_prop, n0, v0, e0)
    if not sources:
        return state_from_spectra(grid, nf, vf, ef, state.time + dt)
    gn0, gv0, ge0 = field_wrapped_rhs_spectra(state, params, dealias)
    nh, vh, eh = einsum_apply(half_prop, n0, v0, e0)
    mid = state_from_spectra(
        grid,
        nh + 0.5 * dt * gn0,
        vh + 0.5 * dt * gv0,
        eh + 0.5 * dt * ge0,
        state.time + 0.5 * dt,
    )
    gn1, gv1, ge1 = field_wrapped_rhs_spectra(mid, params, dealias)
    kn, kv, ke = einsum_apply(half_prop, gn1, gv1, ge1)
    return state_from_spectra(
        grid, nf + dt * kn, vf + dt * kv, ef + dt * ke, state.time + dt
    )


class TestLeanStep:
    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("sources", [True, False])
    def test_bit_identical_to_one_line_form(self, n, dealias, sources):
        """Freeing each spectrum after its last use and summing in place, with
        each K U fused into its sum a slab at a time, round exactly as the
        one-line step, also on 2/3-masked data with exact zeros,
        where -0.0 and 0.0 differ.  At gamma = 2 the pressure coefficient is
        exactly 0; gamma = 1.4 and 3 pin its bits too.  The full-spectrum step
        is the second oracle: every mode, the Nyquist planes too, within 1e-14
        of each component's largest coefficient."""
        grid = Grid(n)
        for gamma in (2.0, 1.4, 3.0):
            params = make_params(gamma=gamma)
            dt = cfl_dt(grid, params)
            props = LinearPropagator(grid, params, 0.5 * dt), LinearPropagator(grid, params, dt)
            for seed in range(2):
                spectra = tuple(1e-2 * x for x in random_spectra(grid, seed))
                for data in (spectra, tuple(x * full_lattice(grid).dealias_mask for x in spectra)):
                    st = full_state(grid, *(x.copy() for x in data), 0.25)
                    got = step(st, params, dt, dealias, *props, sources=sources)
                    want = _one_line_step(st, params, dt, dealias, *props, sources)
                    assert got.time == want.time
                    for a, b in zip(got.fields(), want.fields()):
                        assert same_bits(a.half, b.half), gamma
                    if sources:
                        oracle = full_spectrum_step(st, params, dt, dealias)
                        assert max_relative_gap(got, oracle) <= 1e-14, gamma


class TestHalfSpectrumStep:
    """The step on the kz >= 0 halves against the full-spectrum step
    (``helpers.full_spectrum_step``), and its independence of the sampling."""

    @pytest.mark.parametrize("n", [8, 12, 16])
    @pytest.mark.parametrize("gamma", [2.0, 1.4])
    def test_round_off_of_full_spectrum_step(self, n, gamma):
        """Ten steps of the delta = 0.1 criterion-5 data stay within 1e-14 of
        each component's largest coefficient (measured at most 2.3e-16)."""
        grid = Grid(n)
        params = make_params(gamma=gamma)
        dt = cfl_dt(grid, params)
        got = want = phys_to_pert(piola_ic(generic_piola_spec(0.1), grid, params), params, warn=False)
        for _ in range(10):
            got = step(got, params, dt)
            want = full_spectrum_step(want, params, dt)
            assert max_relative_gap(got, want) <= 1e-14

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("gamma", [2.0, 1.4])
    def test_trajectory_does_not_depend_on_cadence(self, n, gamma):
        """Sampling every step caches the v and E views of every state; the
        sources read neither, so the last state is the same bit for bit."""
        grid = Grid(n)
        params = make_params(gamma=gamma)
        st = phys_to_pert(piola_ic(generic_piola_spec(0.1), grid, params), params, warn=False)
        dt = cfl_dt(grid, params)
        ends = [
            run(st, params, StepperConfig(dt=dt, t_end=8 * dt, output_every=every)).final_state
            for every in (1, 4)
        ]
        assert ends[0].time == ends[1].time
        for a, b in zip(*(end.fields() for end in ends)):
            assert same_bits(a.half, b.half)


class TestHalfBuiltStates:
    """A stepped state keeps the kz >= 0 halves the step computed and mirrors
    a field only to form its samples, when they are first read."""

    @staticmethod
    def _mirrors(monkeypatch, sources):
        """(state, next state, the half shapes ``half_to_full`` was called on) for
        one step from an unsampled stepped state at N = 8."""
        import veflow.fields

        grid = Grid(8)
        params = make_params()
        dt = cfl_dt(grid, params)
        initial = phys_to_pert(piola_ic(generic_piola_spec(1e-3), grid, params), params, warn=False)
        state = step(initial, params, dt)
        calls = []
        mirror = veflow.fields.half_to_full

        def counting(grid, half):
            calls.append(half.shape)
            return mirror(grid, half)

        monkeypatch.setattr(veflow.fields, "half_to_full", counting)
        return state, step(state, params, dt, sources=sources), calls

    def test_step_mirrors_only_n(self, monkeypatch):
        """One step from an unsampled state mirrors the n of U_mid and of
        U(t+dt), for the vacuum check's samples, and neither v nor E."""
        _, stepped, calls = self._mirrors(monkeypatch, True)
        assert calls == [(8, 8, 5)] * 2
        assert stepped.v.half.base is None and stepped.E.half.base is None

    def test_zero_source_step_builds_a_half_state(self, monkeypatch):
        """One step without sources applies K(dt) to the halves and assembles the
        new state from halves: it mirrors only the new n, for the vacuum check's
        samples, and neither v nor E of either state."""
        state, stepped, calls = self._mirrors(monkeypatch, False)
        assert calls == [(8, 8, 5)]
        for f in (state.v, state.E, stepped.v, stepped.E):
            assert f.half.base is None

    def test_sampled_state_keeps_no_full_spectrum(self, monkeypatch):
        """``sample_row`` on a stepped state mirrors E once, for the residuals'
        samples, and v never, and keeps no mirror: every field holds its half,
        N/2 + 1 kz-planes in an array of its own, and n and E their samples."""
        _, stepped, calls = self._mirrors(monkeypatch, True)
        sample_row(stepped)
        assert calls[:2] == [(8, 8, 5)] * 2  # n of U_mid and of U(t+dt), in the step
        assert calls[2:] == [(3, 3, 8, 8, 5)]
        for f in stepped.fields():
            assert f.half.shape[-3:] == (8, 8, 5) and f.half.base is None
        for f in (stepped.n, stepped.E):
            assert sorted(vars(f)) == ["grid", "half", "samples"]
        assert sorted(vars(stepped.v)) == ["grid", "half"]


class TestMemory:
    """Traced peaks at N = 16 in multiples of the state's full spectrum bytes.
    The step bound sits between the step with its propagator apply on the
    whole lattice, all 27 components of grad E and the v and E samples cached
    on the state (4.13x) and the one with the apply one slab and one component
    at a time, grad E one row at a time and those samples formed for the call
    only (3.16x on full spectra, 3.11x on the kz >= 0 halves mirrored into
    full spectra at each assembly, 2.69x with the halves kept and no mirror in
    the step, 2.31x with E and grad E one column at a time and h held as
    samples until its three columns are filled, 2.38x with each K U fused
    into its midpoint sum through one slab-sized scratch set per update); it was 3.0, 0.31 above 2.69x,
    and is now 2.6, 0.29 above 2.31x.  The sample_row bound sits
    between the 27-slot r2 (3.1x) and r2 one row of grad F at a time (1.6x on
    a state of full spectra, 1.96x on one of halves that its first read
    mirrored into full spectra, 1.54x with the halves kept and each mirror
    dropped once its samples are formed, 1.49x with F's half formed one row
    at a time too)."""

    @pytest.fixture(scope="class")
    def peaks(self):
        return step_memory(16)

    def test_step_peak(self, peaks):
        assert peaks[0] < 2.6

    def test_sample_row_peak(self, peaks):
        assert peaks[1] < 2.4


class TestResidualPasses:
    """One constraint-residual pass per sampled state: ``run`` hands the report
    of its t = 0 warning to the first row."""

    @pytest.fixture
    def counted(self, monkeypatch):
        import veflow.diagnostics
        import veflow.stepping

        calls = []

        def counting(obj):
            calls.append(obj)
            return constraint_residuals(obj)

        for module in (veflow.stepping, veflow.diagnostics):
            monkeypatch.setattr(module, "constraint_residuals", counting)
        return calls

    @pytest.mark.parametrize("steps, every, samples", [(0, 1, 1), (4.5, 2, 4), (6, 1, 7)])
    def test_one_pass_per_sample(self, counted, grid8, params, rng, steps, every, samples):
        st = smooth_state(grid8, rng, amp=1e-3)
        dt = cfl_dt(grid8, params)
        cfg = StepperConfig(dt=dt, t_end=steps * dt, output_every=every)
        rec = run(st, params, cfg)
        assert len(rec) == samples
        assert len(counted) == samples
        assert counted[0] is st

    def test_first_row_is_the_initial_report(self, tmp_path, grid8, params, rng):
        st = smooth_state(grid8, rng, amp=1e-3)
        cfg = StepperConfig(dt=cfl_dt(grid8, params), t_end=0.0)
        csv_path = tmp_path / "series.csv"
        run(st, params, cfg, csv_path=csv_path)
        header, first = csv_path.read_text().splitlines()[:2]
        row = dict(zip(header.split(","), first.split(",")))
        want = constraint_residuals(st)
        for name in ("r1", "r2", "r3"):
            assert row[name] == repr(getattr(want, name))

    def test_warning_precedes_first_row(self, tmp_path, grid8, params, rng, caplog):
        """Data off the constraints is reported before its first row is written."""
        st = smooth_state(grid8, rng, amp=1e-2)
        csv_path = tmp_path / "series.csv"
        seen = []

        def sink(state):
            warned = [r for r in caplog.records if "violates the material constraints" in r.message]
            data_rows = csv_path.read_text().splitlines()[1:]
            seen.append((len(warned), data_rows))

        cfg = StepperConfig(dt=cfl_dt(grid8, params), t_end=0.0)
        with caplog.at_level(logging.WARNING, logger="veflow.stepping"):
            run(st, params, cfg, sinks=(sink,), csv_path=csv_path)
        assert seen == [(1, [])]


class TestRun:
    def test_t_end_zero_single_sample(self, grid8, params):
        cfg = StepperConfig(dt=0.01, t_end=0.0)
        rec = run(zero_state(grid8), params, cfg)
        assert len(rec) == 1
        assert column(rec, "t")[0] == 0.0

    @pytest.mark.parametrize("field", ["dt", "t_end"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_config_rejects_non_finite(self, field, value):
        kwargs = {"dt": 0.01, "t_end": 1.0, field: value}
        with pytest.raises(ParameterError, match=field):
            StepperConfig(**kwargs)

    @pytest.mark.parametrize("every", [2.5, 2.0, True, "2", 0, -1])
    def test_config_rejects_non_integer_cadence(self, every):
        """A float, even a whole one, or a bool is no step count: 2.5 would
        sample every 5 steps and True every step."""
        with pytest.raises(ParameterError, match="output_every"):
            StepperConfig(dt=0.01, t_end=1.0, output_every=every)

    def test_config_accepts_numpy_integer_cadence(self):
        assert StepperConfig(dt=0.01, t_end=1.0, output_every=np.int64(3)).output_every == 3

    def test_sample_cadence_and_final(self, grid8, params, rng):
        st = smooth_state(grid8, rng, amp=1e-3)
        dt = cfl_dt(grid8, params)
        cfg = StepperConfig(dt=dt, t_end=10.5 * dt, output_every=4)
        rec = run(st, params, cfg)
        # samples at t0, steps 4, 8, and the final fractional step
        assert len(rec) == 4
        assert column(rec, "t")[-1] == pytest.approx(10.5 * dt)

    def test_short_last_step_builds_its_own_pair(self, grid8, params, rng):
        """Full steps share run's K(dt/2), K(dt); the short last step is step() of its
        own size, which builds the pair for it, and lands on t_end."""
        st = smooth_state(grid8, rng, amp=1e-3)
        dt = cfl_dt(grid8, params)
        kept = []
        run(st, params, StepperConfig(dt=dt, t_end=2.5 * dt, output_every=3), sinks=(kept.append,))
        want = step(step(step(st, params, dt), params, dt), params, 2.5 * dt - 2 * dt)
        assert kept[-1].time == want.time
        for a, b in zip(kept[-1].fields(), want.fields()):
            assert same_bits(a.half, b.half)

    def test_energy_bounded_small_run(self, params):
        """H2 growth, dissipation, the Cauchy-Schwarz bound on the cross terms of M,
        and the elliptic estimate on admissible states."""
        grid = Grid(16)
        st = phys_to_pert(piola_ic(generic_piola_spec(1e-3), grid, params), params, warn=False)
        cfg = StepperConfig(dt=cfl_dt(grid, params), t_end=1.0, output_every=5)
        kept = []
        rec = run(st, params, cfg, sinks=(kept.append,))
        h2 = column(rec, "H2")
        assert np.max(h2**2) <= 2.0 * h2[0] ** 2
        acc1 = column(rec, "diss_acc1")
        acc2 = column(rec, "diss_acc2")
        assert np.all(np.diff(acc1) >= 0.0) and np.all(np.diff(acc2) >= 0.0)
        # |cross1| + |cross2| <= (1/2 + sqrt(2)) |grad(n, v, E)|_{H1}^2
        h1g = column(rec, "H1g")
        cross = np.abs(column(rec, "cross1")) + np.abs(column(rec, "cross2"))
        assert np.all(cross <= (0.5 + np.sqrt(2.0)) * h1g**2 + 1e-12 * (1.0 + h1g**2))
        # ||grad E||^2 <= 10 (||grad n||^2 + ||grad (E^T - E)||^2)
        for state in kept:
            grad_e = gradient_sobolev_norm(state.E, 0) ** 2
            grad_n = gradient_sobolev_norm(state.n, 0) ** 2
            grad_asym = gradient_sobolev_norm(antisymmetric_part(state.E), 0) ** 2
            assert grad_e <= 10.0 * (grad_n + grad_asym)

    def test_abort_flushes_partial_csv(self, tmp_path, grid8, params):
        n = ScalarField(grid8, np.full(grid8.shape, -0.52))
        bad = FlowState(n, zero_field(VectorField, grid8), zero_field(TensorField, grid8))
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
        expected = CSV_HEADER + "".join(rec.csv_row(i) for i in range(len(rec)))
        assert csv_path.read_bytes() == expected.encode("ascii")

    def test_sinks_see_each_sample(self, grid8, params, rng):
        """Each sink gets every sampled state once, in sample order."""
        st = smooth_state(grid8, rng, amp=1e-3)
        dt = cfl_dt(grid8, params)
        cfg = StepperConfig(dt=dt, t_end=4.5 * dt, output_every=2)
        seen, times = [], []
        rec = run(st, params, cfg, sinks=(seen.append, lambda s: times.append(s.time)))
        assert len(seen) == len(rec) == 4
        assert [s.time for s in seen] == times == rec.columns["t"]
        assert seen[0] is st
        assert seen[-1] is rec.final_state

    def test_nonunit_coupling_pipeline(self):
        """Full nonlinear machinery with a != 1 (scaled pressure, heavier coupling).

        Constraint drift tracks the dealiased band, so the residual ceiling
        here is the N = 16 truncation level, not the N = 32 one.
        """
        from veflow.diagnostics import DuhamelDeviation

        p = make_params(mu=0.8, lam=0.3, alpha=2.0, gamma=3.0, pressure_scale=4.0)
        assert p.a == pytest.approx(0.5)
        grid = Grid(16)
        devs = {}
        for delta in (1e-3, 5e-4):
            st = phys_to_pert(piola_ic(generic_piola_spec(delta), grid, p), p, warn=False)
            cfg = StepperConfig(dt=cfl_dt(grid, p), t_end=1.5, output_every=5)
            deviation = DuhamelDeviation(p, st)
            rec = run(st, p, cfg, sinks=(deviation,))
            h2 = column(rec, "H2")
            assert np.max(h2**2) <= 2.0 * h2[0] ** 2
            assert max(column(rec, "r1").max(), column(rec, "r3").max()) < 1e-7
            devs[delta] = deviation.max_deviation
        assert 3.0 <= devs[1e-3] / devs[5e-4] <= 5.0
