"""Nonlinear source terms, the longitudinal reduction, and constraint residuals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from helpers import (
    antisymmetric_slot_max,
    axes,
    even_n,
    field_wrapped_rhs_spectra,
    full_lattice,
    full_spectrum_rhs_spectra,
    generic_piola_spec,
    hermitian_defect,
    identity_field,
    r2_oracle,
    same_bits,
    smooth_state,
    source_passes,
    valid_params,
    walked_slabs,
    zero_field,
    zero_state,
)
from veflow import (
    FlowState,
    Grid,
    PhysState,
    ScalarField,
    TensorField,
    VacuumError,
    VectorField,
    constraint_residuals,
    l2_norm,
    make_params,
    piola_ic,
)
import veflow.fields
import veflow.sources
from veflow.diagnostics import sample_row
from veflow.fields import half_to_full, samples_and_gradient, to_samples
from veflow.operators import half_sum
from veflow.sources import rhs_spectra
from veflow.state import phys_to_pert, state_from_spectra


def full_spectrum_residuals(obj) -> np.ndarray:
    """Reference (r1, r2, r3): full complex spectra, every one of the 27 r2 slots
    transformed and its norm taken by Parseval."""
    if isinstance(obj, PhysState):
        grid, rho, F = obj.grid, obj.rho.samples, obj.F.samples
    else:
        grid, rho = obj.grid, 1.0 + obj.n.samples
        F = obj.E.samples + identity_field(grid).samples
    axes, n3, vol, xi = (-3, -2, -1), grid.n**3, grid.volume, full_lattice(grid).xi
    rhoF_hat = np.fft.fftn(rho * F, axes=axes) / n3
    w_hat = np.einsum("j...,jk...->k...", 1j * xi, rhoF_hat)
    q_hat = np.einsum("k...,k...->...", 1j * xi, w_hat)
    F_hat = np.fft.fftn(F, axes=axes) / n3
    dF = np.fft.ifftn(1j * np.einsum("l...,ij...->lij...", xi, F_hat), axes=axes).real * n3
    first = np.einsum("lk...,lij...->ijk...", F, dF)
    return np.array([
        np.sqrt(vol * np.sum(np.abs(w_hat) ** 2)),
        spectral_slot_max(grid, first - np.swapaxes(first, 1, 2)),
        np.sqrt(vol * np.sum(np.abs(q_hat) ** 2)),
    ])


def spectral_slot_max(grid, expr: np.ndarray) -> float:
    """max over all 27 slots of the Parseval norm of each slot's full spectrum."""
    axes = (-3, -2, -1)
    spec = np.fft.fftn(expr, axes=axes) / grid.n**3
    return float(np.sqrt(grid.volume * np.sum(np.abs(spec) ** 2, axis=axes)).max())


class TestEvaluateSources:
    """Source evaluation through its one path, rhs_spectra."""

    def test_zero_state_gives_zero_sources(self, grid8, params):
        st = zero_state(grid8)
        for spec in rhs_spectra(st, params):
            assert np.max(np.abs(spec)) == 0.0

    def test_f_for_constant_density_perturbation(self, grid16, params):
        # mean-allowed test input: construct without projection
        x, _, _ = axes(grid16)
        n = ScalarField(grid16, np.full(grid16.shape, 0.1))
        v = VectorField(
            grid16,
            np.stack([np.sin(x) + np.zeros(grid16.shape)] + [np.zeros(grid16.shape)] * 2),
        )
        st = FlowState(n, v, zero_field(TensorField, grid16))
        g_n, _, _ = rhs_spectra(st, params)
        # grad n = 0, so G_n is f = -n div v alone
        expected = -0.1 * (np.cos(x) + np.zeros(grid16.shape))
        assert np.max(np.abs(ScalarField.from_half_spectrum(grid16, g_n).samples - expected)) < 1e-12

    def test_zero_deformation_kills_elastic_terms(self, grid8, params, rng):
        st = smooth_state(grid8, rng, amp=0.01)
        st = FlowState(st.n, st.v, zero_field(TensorField, grid8))
        _, _, g_e = rhs_spectra(st, params)
        assert np.max(np.abs(g_e)) == 0.0

    def test_quadratic_scaling(self, grid8, params, rng):
        st = smooth_state(grid8, rng, amp=2e-3)
        norms = []
        for theta in (1.0, 0.5, 0.25):
            scaled = FlowState(*(type(f)(grid8, theta * f.samples) for f in st.fields()))
            spectra = rhs_spectra(scaled, params)
            norms.append([np.sqrt(np.sum(np.abs(s) ** 2)) for s in spectra])  # Parseval
        for key in range(3):
            for i in range(2):
                ratio = norms[i][key] / norms[i + 1][key]
                assert 3.0 <= ratio <= 5.0, (key, ratio)

    def test_vacuum_guard_aborts(self, grid8, params):
        n = ScalarField(grid8, np.full(grid8.shape, -0.55))
        st = FlowState(n, zero_field(VectorField, grid8), zero_field(TensorField, grid8))
        with pytest.raises(VacuumError):
            rhs_spectra(st, params)

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 3.0])
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("n", [8, 12])
    def test_bit_identical_to_field_wrapped_form(self, n, dealias, gamma):
        """One density array, guarded once, and grad E one row at a time give the
        bits of the form that formed 1 + n three times, wrapped the pressure
        coefficient in a field and formed all 27 components of grad E at once,
        on a sampled state and on one assembled from spectra.  The full-lattice
        sources, formed from c2c samples and transformed by c2c, are the second
        oracle: within 1e-14 of each source's largest coefficient."""
        params = make_params(gamma=gamma, lam=0.3, alpha=1.7, pressure_scale=1.3)
        grid = Grid(n)
        sampled = smooth_state(grid, np.random.default_rng(n), amp=0.2, kmax=n // 3)
        for st in (sampled, unsampled(sampled)):
            got = rhs_spectra(st, params, dealias)
            for g, want in zip(got, field_wrapped_rhs_spectra(st, params, dealias)):
                assert same_bits(g, want)
            for g, full in zip(got, full_spectrum_rhs_spectra(st, params, dealias)):
                gap = np.max(np.abs(half_to_full(grid, g) - full))
                assert gap <= 1e-14 * np.max(np.abs(full))

    @pytest.mark.parametrize("n", [8, 12])
    def test_slabs_do_not_change_bits(self, monkeypatch, n):
        """Up to N = 16 one slab spans the lattice; slabs of n/2 - 1 x-planes,
        three of them with a ragged last one (3, 3, 2 at n = 8), round exactly
        as the whole-lattice contractions of the field-wrapped form."""
        width = n // 2 - 1
        assert -(-n // width) == 3 and n % width != 0
        monkeypatch.setattr(veflow.fields, "_SLAB_BYTES", width * 8 * n * n)
        grid = Grid(n)
        params = make_params(gamma=1.4, lam=0.3, alpha=1.7)
        st = smooth_state(grid, np.random.default_rng(n), amp=0.2, kmax=n // 3)
        assert len(walked_slabs(grid, 8 * n * n)) == 3
        for dealias in (True, False):
            for g, want in zip(rhs_spectra(st, params, dealias), field_wrapped_rhs_spectra(st, params, dealias)):
                assert same_bits(g, want)

    def test_dealias_toggle_changes_high_modes_only(self, grid8, params, rng):
        st = smooth_state(grid8, rng, amp=0.01, kmax=3)
        raw, cut = (half_to_full(grid8, rhs_spectra(st, params, dealias=d)[0]) for d in (False, True))
        assert np.max(np.abs((raw - cut) * full_lattice(grid8).dealias_mask)) < 1e-16


def unsampled(st: FlowState) -> FlowState:
    """``st`` assembled anew from copies of its halves: only n's samples are
    computed (by the vacuum check)."""
    return state_from_spectra(st.grid, *(f.half.copy() for f in st.fields()), st.time)


class TestTransientSamples:
    """rhs_spectra forms the v and E samples from the state's kz >= 0 halves,
    one component at a time by ``samples_and_gradient``, for the call only,
    whether or not the state has its own sample views cached: it reads no
    view and caches none.  Its viscous term is the one samples-only call."""

    @pytest.fixture
    def transforms(self, monkeypatch):
        """(transform, spectrum, whether samples were written) of every call of
        ``to_samples``, the transform behind every field's samples, and of
        ``rhs_spectra``'s ``samples_and_gradient``, a call without a gradient
        recorded as "samples_only"."""
        seen = []

        def views(grid, spectrum):
            seen.append(("to_samples", spectrum, True))
            return to_samples(grid, spectrum)

        def shared(grid, half, samples_out, grad_out, bufs):
            kind = "samples_and_gradient" if grad_out is not None else "samples_only"
            seen.append((kind, half, samples_out is not None))
            samples_and_gradient(grid, half, samples_out, grad_out, bufs)

        monkeypatch.setattr(veflow.fields, "to_samples", views)
        monkeypatch.setattr(veflow.sources, "samples_and_gradient", shared)
        return seen

    @staticmethod
    def _state(grid, params):
        initial = phys_to_pert(piola_ic(generic_piola_spec(1e-3), grid, params), params, warn=False)
        return unsampled(initial)

    @staticmethod
    def _calls(seen, field):
        """Per component of ``field``, the ``samples_and_gradient`` calls on a
        view of that component of its half, each as whether it wrote samples."""
        half = field.half
        return {
            comp: [w for kind, x, w in seen
                   if kind == "samples_and_gradient" and (x is half or x.base is half)
                   and np.shares_memory(x, half[comp])]
            for comp in np.ndindex(half.shape[:-3])
        }

    def _check_calls(self, seen, st):
        """No ``to_samples``; n's half once, for its gradient only; each v and E
        component once, with its samples; the three components of the viscous
        term, samples only; and nothing else."""
        assert [kind for kind, _, _ in seen].count("to_samples") == 0
        assert self._calls(seen, st.n) == {(): [False]}
        for field in (st.v, st.E):
            assert all(calls == [True] for calls in self._calls(seen, field).values())
        assert [w for kind, _, w in seen if kind == "samples_only"] == [True] * 3
        assert len(seen) == 1 + 3 + 9 + 3

    def test_unsampled_state_keeps_none(self, grid8, params, transforms):
        st = self._state(grid8, params)
        transforms.clear()
        rhs_spectra(st, params)
        self._check_calls(transforms, st)
        assert "samples" not in vars(st.v) and "samples" not in vars(st.E)

    def test_sampled_state_forms_samples_from_half_spectra(self, grid8, params, transforms):
        """After ``sample_row`` the state's views are cached; the sources still
        form v and E from the halves, and equal those of the unsampled state
        bit for bit."""
        st = self._state(grid8, params)
        want = rhs_spectra(unsampled(st), params)
        sample_row(st)
        views = st.v.samples, st.E.samples
        transforms.clear()
        got = rhs_spectra(st, params)
        self._check_calls(transforms, st)
        assert st.v.samples is views[0] and st.E.samples is views[1]
        for a, b in zip(got, want):
            assert same_bits(a, b)


class TestInversePasses:
    def test_passes_per_call(self):
        """At N = 8, one ``rhs_spectra`` call runs 125 full-size inverse passes:
        8 for grad n, 9 for each of the 3 v and 9 E components with their
        gradients, and 9 for the viscous term (162 with a separate three-pass
        transform per sample and per derivative).  One ``constraint_residuals``
        call runs 8 per component of grad F, 72 (81 with separate passes)."""
        assert source_passes(8) == (125, 72)

    def test_passes_per_call_on_two_workers(self, monkeypatch):
        """At N = 32 on two workers, where the calls of each group of
        ``samples_and_gradient`` run on two threads at once, the same counts:
        no pass is lost or added by the split."""
        monkeypatch.setattr(veflow.fields, "WORKERS", 2)
        assert source_passes(32) == (125, 72)


class TestLongitudinalIdentity:
    def test_div_g1_identity_on_constraint_data(self, params):
        """div(rhs of v) reduces to nu*lap(div v) - (1+a)*lap n + div g1 on
        constraint-compatible states (spectral residual of the reduction)."""
        from veflow import Grid
        from helpers import div_tensor, grad
        from veflow.operators import div, laplacian

        grid = Grid(32)
        phys = piola_ic(generic_piola_spec(1e-2), grid, params)
        # keep the O(delta^2) component means: the reduction identity is exact
        # on the raw constraint-compatible fields
        st = FlowState(
            ScalarField(grid, phys.rho.samples - 1.0),
            VectorField(grid, params.chi0 * phys.u.samples),
            TensorField(grid, phys.F.samples - identity_field(grid).samples),
        )
        g_hat = rhs_spectra(st, params, dealias=False)[1]
        # g1 = g - a div(nE), the forcing of the reduced (n, div v) system
        n_e = TensorField(grid, st.n.samples * st.E.samples)
        g1 = VectorField.from_half_spectrum(grid, g_hat - params.a * div_tensor(n_e).half)

        # full velocity right-hand side, then its divergence
        rhs_v_hat = (
            laplacian(st.v).half * params.mu
            + grad(div(st.v)).half * (params.lam + params.mu)
            - grad(st.n).half
            + params.a * div_tensor(st.E).half
            + g_hat
        )
        lhs = div(VectorField.from_half_spectrum(grid, rhs_v_hat)).half

        divv = div(st.v)
        rhs = (
            (2.0 * params.mu + params.lam) * laplacian(divv).half
            - (1.0 + params.a) * laplacian(st.n).half
            + div(g1).half
        )
        num = l2_norm(ScalarField.from_half_spectrum(grid, lhs - rhs))
        den = l2_norm(ScalarField.from_half_spectrum(grid, lhs))
        assert num < 1e-8 * max(den, 1.0)


class TestHermitianOutput:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=even_n, params=valid_params, dealias=hst.booleans(), seed=hst.integers(0, 2**32 - 1)
    )
    def test_rhs_spectra(self, n, params, dealias, seed):
        """The sources are products of real fields, so their spectra are
        Hermitian up to transform round-off: at most 4.9e-16 of the max in 60
        random cases (with and without dealiasing); 1e-13 is a 100x margin,
        while a mask or product that breaks the k / -k mirror gives O(1)."""
        from veflow import Grid

        grid = Grid(n)
        state = smooth_state(grid, np.random.default_rng(seed), amp=1e-2, kmax=n // 2)
        for out in rhs_spectra(state, params, dealias=dealias):
            out = half_to_full(grid, out)
            assert hermitian_defect(out) <= 1e-13 * np.max(np.abs(out))


class TestConstraintResiduals:
    def test_equilibrium_is_exact(self, grid8):
        rho = ScalarField(grid8, np.ones(grid8.shape))
        rep = constraint_residuals(
            PhysState(rho, zero_field(VectorField, grid8), identity_field(grid8))
        )
        assert rep.r1 == rep.r2 == rep.r3 == 0.0

    def test_single_entry_deformation_r1(self, grid16):
        eps = 0.01
        x, _, _ = axes(grid16)
        F = identity_field(grid16).samples.copy()
        F[0, 0] += eps * (np.sin(x) + np.zeros(grid16.shape))
        phys = PhysState(
            ScalarField(grid16, np.ones(grid16.shape)),
            zero_field(VectorField, grid16),
            TensorField(grid16, F),
        )
        rep = constraint_residuals(phys)
        expected = eps * np.sqrt((2.0 * np.pi) ** 3 / 2.0)
        assert rep.r1 == pytest.approx(expected, rel=1e-12)

    def test_r2_detects_row_incompatibility(self, grid16):
        eps = 0.01
        _, y, _ = axes(grid16)
        F = identity_field(grid16).samples.copy()
        F[0, 0] += eps * (np.sin(y) + np.zeros(grid16.shape))  # d_2 F^{11} != 0
        phys = PhysState(
            ScalarField(grid16, np.ones(grid16.shape)),
            zero_field(VectorField, grid16),
            TensorField(grid16, F),
        )
        rep = constraint_residuals(phys)
        expected = eps * np.sqrt((2.0 * np.pi) ** 3 / 2.0)
        assert rep.r2 == pytest.approx(expected, rel=1e-6)

    def test_piola_data_is_exact(self, params):
        from veflow import Grid

        grid = Grid(32)
        phys = piola_ic(generic_piola_spec(1e-3), grid, params)
        rep = constraint_residuals(phys)
        assert rep.max() <= 1e-10

    def test_accepts_flow_state(self, grid8, params):
        rep = constraint_residuals(zero_state(grid8))
        assert rep.max() == 0.0

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            constraint_residuals(42)


class TestResidualOracle:
    """The half-spectrum r1/r3 and the 9-slot grid-Parseval r2 against the
    full-spectrum, 27-slot form."""

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("amp", [1e-3, 1e-2])
    def test_matches_full_spectrum_along_a_run(self, n, amp, params):
        from veflow import Grid, phys_to_pert
        from veflow.stepping import cfl_dt, step

        grid = Grid(n)
        phys = piola_ic(generic_piola_spec(amp), grid, params)
        state = phys_to_pert(phys, params, warn=False)
        objs = [phys, state]
        for _ in range(3):
            state = step(state, params, cfl_dt(grid, params, 0.5))
            objs.append(state)
        want = np.array([full_spectrum_residuals(o) for o in objs])
        got = np.array([[r.r1, r.r2, r.r3] for r in map(constraint_residuals, objs)])
        assert np.all(want[1:] > 0.0)
        # per column, relative to the column's largest value along the run
        assert np.all(np.abs(got - want) <= 1e-8 * want.max(axis=0)), np.abs(got - want) / want.max(axis=0)

    def test_half_spectrum_sum_is_parseval(self, grid8, rng):
        u = rng.standard_normal((2,) + grid8.shape)
        full = np.sum(np.abs(np.fft.fftn(u, axes=(-3, -2, -1))) ** 2)
        half = half_sum(np.abs(np.fft.rfftn(u, axes=(-3, -2, -1))) ** 2)
        assert half == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize("slot", [(i, j, k) for i in range(3) for j, k in ((0, 1), (0, 2), (1, 2))])
    def test_grid_parseval_r2_equals_spectral(self, grid8, rng, slot):
        # one slot dominates, so leaving any (i, j < k) slot out changes the max
        first = rng.standard_normal((3, 3, 3) + grid8.shape)
        first[slot] *= 10.0
        expr = first - np.swapaxes(first, 1, 2)
        want = spectral_slot_max(grid8, expr)
        assert antisymmetric_slot_max(grid8, first) == pytest.approx(want, rel=1e-12)


class TestR2RowAtATime:
    """r2 formed one row of d_l F^{ij} at a time rounds exactly as the 27-slot
    form (``helpers.r2_oracle``) on the criterion-5 data."""

    @pytest.fixture(scope="class")
    def objs(self, params):
        from veflow import Grid, phys_to_pert
        from veflow.stepping import cfl_dt, step

        grid = Grid(32)
        phys = piola_ic(generic_piola_spec(1e-3), grid, params)
        state = phys_to_pert(phys, params, warn=False)
        return {"phys": phys, "state": state, "stepped": step(state, params, cfl_dt(grid, params, 0.5))}

    @pytest.mark.parametrize("name", ["phys", "state", "stepped"])
    def test_bit_identical_to_27_slot_form(self, objs, name):
        got = constraint_residuals(objs[name]).r2
        assert got > 0.0
        assert got.hex() == r2_oracle(objs[name]).hex()
