"""Closed-form block propagators and the full-grid linear solution operator."""

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    dense_linear_generator,
    einsum_apply,
    even_n,
    random_spectra,
    same_bits,
    single_mode_state,
    smooth_state,
    valid_params,
)
from veflow import (
    BlockSystem,
    FlowState,
    Grid,
    ParameterError,
    Propagator2x2,
    make_params,
)
from veflow.fields import hermitian_defect, to_spectrum
from veflow.oracles import _rhs, rk4_block_expm
from veflow.semigroup import _SMALL_DIFF, LinearPropagator, _entries
from veflow.state import state_from_spectra
from veflow.stepping import cfl_dt


@pytest.fixture(scope="module")
def comp():
    return BlockSystem.compressible(make_params())


BLOCKS = (BlockSystem.compressible(make_params()), BlockSystem.shear(make_params()))


def _rk4_four_stages_per_step(nu, b, radii, times, tol=1e-10):
    """The RK4 recurrence written out: four stages per step from the current M,
    with the step rule of ``rk4_block_expm``."""
    radii = np.asarray(radii, dtype=float)
    norm = float(np.max(1.0 + radii + b * radii + nu * radii**2))
    h_acc = (30.0 * tol / (max(max(times), 1e-6) * norm**5)) ** 0.25
    h = min(0.5 / norm, h_acc)
    m = np.zeros((radii.size, 2, 2))
    m[:, 0, 0] = m[:, 1, 1] = 1.0
    out, t_now = [], 0.0
    for t in sorted(times):
        if t > t_now:
            steps = int(np.ceil((t - t_now) / h))
            hh = (t - t_now) / steps
            for _ in range(steps):
                k1 = _rhs(nu, b, radii, m)
                k2 = _rhs(nu, b, radii, m + 0.5 * hh * k1)
                k3 = _rhs(nu, b, radii, m + 0.5 * hh * k2)
                k4 = _rhs(nu, b, radii, m + hh * k3)
                m = m + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_now = t
        out.append(m)
    return np.array(out)


class TestBlockSystem:
    def test_invalid_block(self):
        with pytest.raises(ParameterError):
            BlockSystem(-1.0, 1.0)


class TestPropagator:
    def test_identity_at_zero_time(self, comp):
        m = Propagator2x2.build(comp, 1.3, 0.0).matrix
        assert np.allclose(m, np.eye(2), atol=1e-15)

    def test_against_rk4_example(self, comp):
        exact = Propagator2x2.build(comp, 1.0, 1.0).matrix
        oracle = rk4_block_expm(comp.nu, comp.b, [1.0], [1.0])[0, 0]
        assert np.max(np.abs(exact - oracle)) < 1e-8

    @pytest.mark.parametrize("system", BLOCKS, ids=lambda s: s.kind)
    def test_closed_form_against_extended_precision(self, system):
        """Closed form vs 50-digit mpmath.expm across r -> 0, r* and r >> r*."""
        rs = system.confluent_radius
        radii = (1e-8, 1e-3, 0.5 * rs, rs * (1 - 1e-9), rs, rs * (1 + 1e-9),
                 rs * (1 + 1e-4), 2.5 * rs, 70.0 * rs)
        with mpmath.workdps(50):
            for r in radii:
                mr = mpmath.mpf(r)
                a = mpmath.matrix([[0, -mr], [system.b * mr, -system.nu * mr**2]])
                for t in (0.1, 1.0, 50.0):
                    want = mpmath.expm(a * mpmath.mpf(t))
                    want = np.array([[float(want[i, j]) for j in range(2)] for i in range(2)])
                    got = Propagator2x2.build(system, r, t).matrix
                    scale = np.max(np.abs(want))
                    assert np.max(np.abs(got - want)) <= 1e-10 * scale, (r, t)

    def test_confluent_continuity(self, comp):
        rstar = comp.confluent_radius
        assert rstar == pytest.approx(np.sqrt(2.0))
        at = Propagator2x2.build(comp, rstar, 1.0).matrix
        below = Propagator2x2.build(comp, rstar - 1e-6, 1.0).matrix
        above = Propagator2x2.build(comp, rstar + 1e-6, 1.0).matrix
        assert np.max(np.abs(at - below)) < 1e-5
        assert np.max(np.abs(at - above)) < 1e-5

    def test_confluent_limit_formula(self, comp):
        rstar = comp.confluent_radius
        t = 0.8
        kappa = -0.5 * comp.nu * rstar**2
        a_mat = np.array([[0.0, -rstar], [comp.b * rstar, -comp.nu * rstar**2]])
        limit = np.exp(kappa * t) * (np.eye(2) + t * (a_mat - kappa * np.eye(2)))
        assert np.max(np.abs(Propagator2x2.build(comp, rstar, t).matrix - limit)) < 1e-12

    def test_group_property(self, comp, rng):
        for _ in range(20):
            r = float(rng.uniform(0.0, 5.0))
            t1, t2 = rng.uniform(0.0, 2.0, size=2)
            p1 = Propagator2x2.build(comp, r, float(t1)).matrix
            p2 = Propagator2x2.build(comp, r, float(t2)).matrix
            p12 = Propagator2x2.build(comp, r, float(t1 + t2)).matrix
            assert np.max(np.abs(p12 - p2 @ p1)) < 1e-9

    def test_determinant_identity(self, comp, rng):
        for _ in range(20):
            r = float(rng.uniform(0.0, 5.0))
            t = float(rng.uniform(0.0, 3.0))
            det = np.linalg.det(Propagator2x2.build(comp, r, t).matrix)
            assert abs(det - np.exp(-comp.nu * r**2 * t)) < 1e-10

    def test_negative_time_rejected(self, comp):
        with pytest.raises(ParameterError):
            Propagator2x2.build(comp, 1.0, -0.1)

    @pytest.mark.parametrize(
        "r, t", [(1.0, np.nan), (1.0, np.inf), (np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0)]
    )
    def test_non_finite_time_or_radius_rejected(self, comp, r, t):
        with pytest.raises(ParameterError):
            Propagator2x2.build(comp, r, t)

    @pytest.mark.parametrize("t", [0.0, 1.0, 50.0])
    def test_entries_exact_elementwise(self, comp, t):
        """Each radius goes through its own branch only, so one call on an array
        that crosses both branches, both sides of _SMALL_DIFF, r = 0 and r = r*
        equals the per-element 0-d calls bit for bit, and 0-d in gives 0-d out."""
        rs = comp.confluent_radius
        r = np.concatenate(
            ([0.0, rs], np.linspace(0.0, 3.0 * rs, 13), rs * (1.0 + np.logspace(-14, -2, 13)))
        )
        r2 = r * r
        disc = (comp.nu * r2) ** 2 - 4.0 * comp.b * r2
        dk_t = np.sqrt(np.maximum(disc, 0.0)) * t
        if t > 0.0:
            assert np.any(disc < 0.0) and np.any(dk_t > _SMALL_DIFF)
            assert np.any((disc > 0.0) & (dk_t <= _SMALL_DIFF))
        batch = _entries(comp.nu, comp.b, r, t)
        for i, x in enumerate(r):
            for got, want in zip(_entries(comp.nu, comp.b, np.asarray(x), t), batch):
                assert got.shape == ()
                assert same_bits(got, np.asarray(want[i])), (x, t)

    def test_entries_real_and_finite_on_array(self, comp):
        r = np.linspace(0.0, 50.0, 400)
        for t in (0.0, 0.01, 1.0, 100.0, 1e4):
            for e in _entries(comp.nu, comp.b, r, t):
                assert np.all(np.isfinite(e))


class TestGridSemigroup:
    @pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
    def test_bad_time_rejected(self, grid8, params, t):
        with pytest.raises(ParameterError):
            LinearPropagator(grid8, params, t)

    def test_zero_state_stays_zero(self, grid8, params):
        out = LinearPropagator(grid8, params, 2.0)(FlowState.zero(grid8))
        assert out.h_norm(2) == 0.0

    def test_identity_at_zero_time(self, grid8, params, rng):
        st = smooth_state(grid8, rng)
        out = LinearPropagator(grid8, params, 0.0)(st)
        for f0, f1 in zip(st.fields(), out.fields()):
            assert np.max(np.abs(f0.samples - f1.samples)) < 1e-13

    def test_longitudinal_sector_invariance(self, grid16, params):
        x, _, _ = grid16.axes()
        n = 0.01 * np.sin(x) + np.zeros(grid16.shape)
        st = state_from_spectra(
            grid16,
            to_spectrum(grid16, n),
            np.zeros((3,) + grid16.shape, complex),
            np.zeros((3, 3) + grid16.shape, complex),
            0.0,
        )
        out = LinearPropagator(grid16, params, 1.5)(st)
        # transverse velocity and curl stay zero: v stays along e1, mode (1,0,0)
        from veflow import curl_matrix, hodge_decompose

        d, omega = hodge_decompose(out.v)
        assert np.max(np.abs(omega.samples)) < 1e-12
        assert np.max(np.abs(out.v.samples[1:])) < 1e-12
        assert np.max(np.abs(curl_matrix(out.v).samples)) < 1e-12

    def test_shear_sector_invariance_and_oracle(self, grid16, params):
        _, y, _ = grid16.axes()
        v = np.zeros((3,) + grid16.shape)
        v[0] = 0.01 * np.sin(y) + np.zeros(grid16.shape)
        st = state_from_spectra(
            grid16,
            np.zeros(grid16.shape, complex),
            to_spectrum(grid16, v),
            np.zeros((3, 3) + grid16.shape, complex),
            0.0,
        )
        t = 0.9
        out = LinearPropagator(grid16, params, t)(st)
        assert np.max(np.abs(out.n.samples)) < 1e-12
        from veflow import div, hodge_decompose

        assert np.max(np.abs(div(out.v).samples)) < 1e-12
        # per-mode oracle at k = (0, 1, 0)
        xi = np.array([0.0, 1.0, 0.0])
        L = dense_linear_generator(xi, params)
        u0 = np.zeros(13, complex)
        u0[1] = st.v.spectrum[0, 0, 1, 0]
        u_t = scipy.linalg.expm(L * t) @ u0
        assert abs(out.v.spectrum[0, 0, 1, 0] - u_t[1]) < 1e-8
        assert abs(out.E.spectrum[0, 1, 0, 1, 0] - u_t[4 + 3 * 0 + 1]) < 1e-8

    @pytest.mark.parametrize("aval,lam", [(1.0, 0.0), (1.5, 0.3), (0.25, -0.2)])
    def test_matches_dense_exponential_on_random_modes(self, grid8, rng, aval, lam):
        params = make_params(mu=1.0, lam=lam, alpha=aval)
        st_modes = [
            (1, 0, 0),
            (0, 2, 0),
            (1, 1, 1),
            (-2, 1, 0),
            (3, -3, 2),
        ]
        for k in st_modes:
            u0 = 0.01 * (rng.standard_normal(13) + 1j * rng.standard_normal(13))
            st = single_mode_state(grid8, k, u0)
            for t in (1e-3, 0.4, 1.7, 20.0):
                out = LinearPropagator(grid8, params, t)(st)
                xi = (2.0 * np.pi / grid8.length) * np.array(k, dtype=float)
                u_exact = scipy.linalg.expm(dense_linear_generator(xi, params) * t) @ u0
                idx = tuple(kk % grid8.n for kk in k)
                got = np.empty(13, complex)
                got[0] = out.n.spectrum[idx]
                for i in range(3):
                    got[1 + i] = out.v.spectrum[(i,) + idx]
                    for j in range(3):
                        got[4 + 3 * i + j] = out.E.spectrum[(i, j) + idx]
                err = np.max(np.abs(got - u_exact)) / np.max(np.abs(u0))
                assert err < 1e-12

    def test_matches_fine_step_pde_integrator(self, grid8, params, rng):
        """RK4 on the spectrally discretized linear system, band-limited data."""
        st = smooth_state(grid8, rng, amp=1e-2, kmax=2)
        t_end = 0.5
        n_steps = 2000
        dt = t_end / n_steps

        g = grid8
        xi = g.xi
        r2 = g.xi_mag**2 * g.nyquist_mask
        a = params.a

        def rhs(n, v, e):
            divv = np.einsum("j...,j...->...", 1j * xi, v)
            dn = -divv
            dive = np.einsum("j...,ij...->i...", 1j * xi, e)
            dv = (
                -params.mu * r2 * v
                - (params.lam + params.mu) * np.einsum("i...,...->i...", xi, np.einsum("j...,j...->...", xi, v))
                - 1j * xi * n[np.newaxis]
                + a * dive
            )
            de = np.einsum("j...,i...->ij...", 1j * xi, v)
            return dn, dv, de

        n = st.n.spectrum.copy()
        v = st.v.spectrum.copy()
        e = st.E.spectrum.copy()
        for _ in range(n_steps):
            k1 = rhs(n, v, e)
            k2 = rhs(n + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1], e + 0.5 * dt * k1[2])
            k3 = rhs(n + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1], e + 0.5 * dt * k2[2])
            k4 = rhs(n + dt * k3[0], v + dt * k3[1], e + dt * k3[2])
            n = n + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            v = v + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            e = e + (dt / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        reference = state_from_spectra(g, n, v, e, t_end)

        out = LinearPropagator(grid8, params, t_end)(st)
        from veflow.diagnostics import h2_distance

        assert h2_distance(out, reference) < 1e-6

    def test_hermitian_output_gives_real_fields(self, grid8, params, rng):
        st = smooth_state(grid8, rng)
        prop = LinearPropagator(grid8, params, 0.7)
        out = prop.apply_spectra(st.n.spectrum, st.v.spectrum, st.E.spectrum)
        for spec in out:
            assert hermitian_defect(spec) <= 1e-12 * np.max(np.abs(spec))

    @pytest.mark.parametrize("system", BLOCKS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("r_max, times", [("3r*", (0.0, 0.05, 0.1)), (4.0, (0.0, 0.5, 2.0))])
    def test_oracle_is_the_rk4_recurrence(self, system, r_max, times):
        """One increment per interval, applied as M + D M, is the RK4 step."""
        if r_max == "3r*":
            r_max = 3.0 * system.confluent_radius
        radii = np.linspace(0.0, r_max, 9)
        hoisted = rk4_block_expm(system.nu, system.b, radii, times)
        literal = _rk4_four_stages_per_step(system.nu, system.b, radii, times)
        assert np.max(np.abs(hoisted - literal)) <= 1e-13

    def test_vectorized_oracle_batch(self, comp):
        radii = np.linspace(0.0, 4.0, 9)
        times = [0.0, 0.5, 2.0]
        batch = rk4_block_expm(comp.nu, comp.b, radii, times)
        for it, t in enumerate(times):
            for ir, r in enumerate(radii):
                exact = Propagator2x2.build(comp, float(r), float(t)).matrix
                assert np.max(np.abs(exact - batch[it, ir])) < 1e-8


_times = st.floats(1e-6, 20.0)


class TestComponentApply:
    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_bit_identical_to_einsum_form(self, n, alpha):
        """The one-component-at-a-time deformation update rounds exactly as the
        batched outer products did, on the half-step and the full-step propagator,
        also on 2/3-masked spectra with exact zeros, where -0.0 and 0.0 differ."""
        grid = Grid(n)
        params = make_params(alpha=alpha)
        dt = cfl_dt(grid, params)
        for seed in range(2):
            spectra = random_spectra(grid, seed)
            masked = tuple(x * grid.dealias_mask for x in spectra)
            for prop in (LinearPropagator(grid, params, 0.5 * dt), LinearPropagator(grid, params, dt)):
                for data in (spectra, masked):
                    for got, want in zip(prop.apply_spectra(*data), einsum_apply(prop, *data)):
                        assert same_bits(got, want)


class TestEntriesPerRadius:
    @pytest.mark.parametrize("n", [6, 10, 12, 16])
    @pytest.mark.parametrize("length", [2.0 * np.pi, 3.7])
    def test_gathered_entries_equal_full_lattice(self, n, length):
        """Entries evaluated once per distinct |xi| and gathered equal ``_entries``
        on the full lattice bit for bit, for both blocks at t = 0, dt/2 and dt;
        N that are not powers of two and L != 2 pi give radii that are not
        integer square roots."""
        grid = Grid(n, length)
        params = make_params()
        dt = cfl_dt(grid, params)
        for t in (0.0, 0.5 * dt, dt):
            prop = LinearPropagator(grid, params, t)
            for block, got in zip(BLOCKS, (prop._comp, prop._shear)):
                want = _entries(block.nu, block.b, grid.xi_mag, t)
                assert all(same_bits(g, w) for g, w in zip(got, want))

    def test_propagators_share_unit_wavevectors(self, grid8):
        params = make_params()
        props = LinearPropagator(grid8, params, 0.1), LinearPropagator(grid8, params, 0.2)
        assert props[0]._rhat is props[1]._rhat is grid8.unit_xi


class TestGridSemigroupProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mu=st.floats(0.05, 3.0),
        lam_ratio=st.floats(-0.6, 2.0),
        alpha=st.one_of(st.sampled_from([0.3, 1.0, 2.7]), st.floats(0.05, 5.0)),
        t1=_times,
        t2=_times,
    )
    @example(seed=0, mu=1.0, lam_ratio=0.0, alpha=0.3, t1=0.4, t2=1.7)
    def test_group_law_and_exact_identity_where_r_is_zero(
        self, grid8, seed, mu, lam_ratio, alpha, t1, t2
    ):
        """K(t2) K(t1) = K(t1 + t2), and modes with r = 0 (zero mode, Nyquist
        planes) pass unchanged bit for bit: there e^{tA} = I exactly, and the
        steady-state shift must not round n through n - n* + n*."""
        params = make_params(mu=mu, lam=lam_ratio * mu, alpha=alpha)
        spectra = random_spectra(grid8, seed)

        k1 = LinearPropagator(grid8, params, t1)
        k2 = LinearPropagator(grid8, params, t2)
        once = LinearPropagator(grid8, params, t1 + t2).apply_spectra(*spectra)
        twice = k2.apply_spectra(*k1.apply_spectra(*spectra))
        for x, y, x0 in zip(once, twice, spectra):
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(x0))

        still = (grid8.xi_mag * grid8.nyquist_mask) == 0.0
        assert 0 < still.sum() < still.size
        for x0, x in zip(spectra, k1.apply_spectra(*spectra)):
            assert np.array_equal(x[..., still], x0[..., still])


class TestHermitianOutput:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=even_n, params=valid_params, t=_times, seed=st.integers(0, 2**32 - 1))
    def test_apply_spectra(self, n, params, t, seed):
        """Spectra of real data stay spectra of real data.  The entries depend on
        |xi| and on the unit vector r_hat, odd in k, only through i r_hat, so a
        mirrored mode gets the conjugate arithmetic: the input's own defect
        (transform round-off, at most 4.8e-16 of its max in 60 random cases) is
        all that is left, 5.6e-16 at most; 1e-13 of the input max is a 100x
        margin, while a symbol that breaks the mirror gives an O(1) defect."""
        grid = Grid(n)
        spectra = random_spectra(grid, seed)
        for out in LinearPropagator(grid, params, t).apply_spectra(*spectra):
            assert hermitian_defect(out) <= 1e-13 * max(np.max(np.abs(x)) for x in spectra)
