"""Closed-form block propagators and the full-grid linear solution operator."""

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    axes,
    curl_matrix,
    dense_linear_generator,
    einsum_apply,
    even_n,
    full_state,
    gathered_entries,
    hermitian_defect,
    hodge_decompose,
    masked_block_entries,
    propagator_retained,
    random_spectra,
    same_bits,
    single_mode_state,
    smooth_state,
    valid_params,
    zero_state,
)
import veflow.grid
from veflow import (
    BlockSystem,
    Grid,
    ParameterError,
    Propagator2x2,
    make_params,
)
from veflow.fields import half_to_full, to_spectrum
from veflow.oracles import _rhs, rk4_block_expm
from veflow.semigroup import _SMALL_DIFF, LinearPropagator, block_entries
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
        batch = block_entries(comp.nu, comp.b, r, t)
        for i, x in enumerate(r):
            for got, want in zip(block_entries(comp.nu, comp.b, np.asarray(x), t), batch):
                assert got.shape == ()
                assert same_bits(got, np.asarray(want[i])), (x, t)

    @pytest.mark.parametrize("t", [0.0, cfl_dt(Grid(32), make_params()), 1e5], ids=["0", "cfl", "1e5"])
    @pytest.mark.parametrize("block", BLOCKS, ids=lambda s: s.kind)
    def test_entries_match_masked_oracle(self, block, t):
        """Running a branch unmasked when it covers every radius keeps the bits of
        the masked form, on all-oscillatory, all-overdamped and mixed radii."""
        def disc(r):
            return (block.nu * r**2) ** 2 - 4.0 * block.b * r**2

        rs = block.confluent_radius
        osc = np.linspace(0.001 * rs, 0.999 * rs, 17)  # r = 0 is on the overdamped side
        ladder = rs * (1.0 + np.logspace(-16.0, -1.0, 61))  # just past r*
        dk_t = np.sqrt(disc(ladder)) * t
        assert np.all(disc(osc) < 0.0) and np.all(disc(ladder) >= 0.0)
        if 0.0 < t < 1.0:  # the ladder straddles _SMALL_DIFF at the CFL step
            assert np.any(dk_t > _SMALL_DIFF) and np.any((dk_t > 0.0) & (dk_t <= _SMALL_DIFF))
        cases = {
            "oscillatory": osc,
            "overdamped": np.concatenate((ladder, np.linspace(1.1 * rs, 40.0 * rs, 17))),
            "mixed": np.concatenate((np.linspace(0.0, 3.0 * rs, 31), [rs], ladder)),
            "r*": np.array([rs]),
            "zero": np.zeros(1),
            "0-d osc": np.asarray(0.5 * rs),
            "0-d r*": np.asarray(rs),
            "0-d zero": np.asarray(0.0),
            "0-d over": np.asarray(2.0 * rs),
        }
        for name, r in cases.items():
            for got, want in zip(block_entries(block.nu, block.b, r, t),
                                 masked_block_entries(block.nu, block.b, r, t)):
                assert same_bits(np.asarray(got), np.asarray(want)), (name, t)

    def test_entries_real_and_finite_on_array(self, comp):
        r = np.linspace(0.0, 50.0, 400)
        for t in (0.0, 0.01, 1.0, 100.0, 1e4):
            for e in block_entries(comp.nu, comp.b, r, t):
                assert np.all(np.isfinite(e))


class TestGridSemigroup:
    @pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
    def test_bad_time_rejected(self, grid8, params, t):
        with pytest.raises(ParameterError):
            LinearPropagator(grid8, params, t)

    def test_zero_state_stays_zero(self, grid8, params):
        out = LinearPropagator(grid8, params, 2.0)(zero_state(grid8))
        assert out.h_norm(2) == 0.0

    def test_identity_at_zero_time(self, grid8, params, rng):
        st = smooth_state(grid8, rng)
        out = LinearPropagator(grid8, params, 0.0)(st)
        for f0, f1 in zip(st.fields(), out.fields()):
            assert np.max(np.abs(f0.samples - f1.samples)) < 1e-13

    def test_longitudinal_sector_invariance(self, grid16, params):
        x, _, _ = axes(grid16)
        n = 0.01 * np.sin(x) + np.zeros(grid16.shape)
        st = full_state(
            grid16,
            to_spectrum(grid16, n),
            np.zeros((3,) + grid16.shape, complex),
            np.zeros((3, 3) + grid16.shape, complex),
            0.0,
        )
        out = LinearPropagator(grid16, params, 1.5)(st)
        # transverse velocity and curl stay zero: v stays along e1, mode (1,0,0)
        d, omega = hodge_decompose(out.v)
        assert np.max(np.abs(omega.samples)) < 1e-12
        assert np.max(np.abs(out.v.samples[1:])) < 1e-12
        assert np.max(np.abs(curl_matrix(out.v).samples)) < 1e-12

    def test_shear_sector_invariance_and_oracle(self, grid16, params):
        _, y, _ = axes(grid16)
        v = np.zeros((3,) + grid16.shape)
        v[0] = 0.01 * np.sin(y) + np.zeros(grid16.shape)
        st = full_state(
            grid16,
            np.zeros(grid16.shape, complex),
            to_spectrum(grid16, v),
            np.zeros((3, 3) + grid16.shape, complex),
            0.0,
        )
        t = 0.9
        out = LinearPropagator(grid16, params, t)(st)
        assert np.max(np.abs(out.n.samples)) < 1e-12
        from veflow import div

        assert np.max(np.abs(div(out.v).samples)) < 1e-12
        # per-mode oracle at k = (0, 1, 0)
        xi = np.array([0.0, 1.0, 0.0])
        L = dense_linear_generator(xi, params)
        u0 = np.zeros(13, complex)
        u0[1] = st.v.half[0, 0, 1, 0]
        u_t = scipy.linalg.expm(L * t) @ u0
        assert abs(out.v.half[0, 0, 1, 0] - u_t[1]) < 1e-8
        assert abs(out.E.half[0, 1, 0, 1, 0] - u_t[4 + 3 * 0 + 1]) < 1e-8

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
                idx = tuple(kk % grid8.n for kk in k)  # kz >= 0: a mode of the half
                got = np.empty(13, complex)
                got[0] = out.n.half[idx]
                for i in range(3):
                    got[1 + i] = out.v.half[(i,) + idx]
                    for j in range(3):
                        got[4 + 3 * i + j] = out.E.half[(i, j) + idx]
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

        n, v, e = (to_spectrum(g, f.samples) for f in st.fields())
        for _ in range(n_steps):
            k1 = rhs(n, v, e)
            k2 = rhs(n + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1], e + 0.5 * dt * k1[2])
            k3 = rhs(n + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1], e + 0.5 * dt * k2[2])
            k4 = rhs(n + dt * k3[0], v + dt * k3[1], e + dt * k3[2])
            n = n + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            v = v + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            e = e + (dt / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        reference = full_state(g, n, v, e, t_end)

        out = LinearPropagator(grid8, params, t_end)(st)
        from veflow.diagnostics import h2_distance

        assert h2_distance(out, reference) < 1e-6

    def test_hermitian_output_gives_real_fields(self, grid8, params, rng):
        st = smooth_state(grid8, rng)
        prop = LinearPropagator(grid8, params, 0.7)
        for half in prop.apply_spectra(*(f.half for f in st.fields())):
            spec = half_to_full(grid8, half)
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
    def test_bit_identical_to_einsum_form(self, monkeypatch, n, alpha):
        """The slab-at-a-time, one-component-at-a-time update with entries gathered
        per slab rounds exactly as the batched whole-lattice form, on the half-step
        and the full-step propagator, also on 2/3-masked spectra with exact zeros,
        where -0.0 and 0.0 differ: in one slab, and in slabs of n/2 - 1 kx-planes,
        three of them with a ragged last one (3, 3, 2 at n = 8).  On the kz >= 0
        halves as strided views of full spectra, the views that ``step`` passes
        for a state of full spectra."""
        grid = Grid(n)
        params = make_params(alpha=alpha)
        dt = cfl_dt(grid, params)
        half = n // 2 + 1
        width = n // 2 - 1
        assert -(-n // width) == 3 and n % width != 0
        for slab_bytes in (veflow.grid._SLAB_BYTES, width * 16 * n * half):
            monkeypatch.setattr(veflow.grid, "_SLAB_BYTES", slab_bytes)
            for seed in range(2):
                spectra = random_spectra(grid, seed)
                masked = tuple(x * grid.dealias_mask for x in spectra)
                for t in (0.5 * dt, dt):
                    prop = LinearPropagator(grid, params, t)
                    for data in (spectra, masked):
                        data = tuple(x[..., :half] for x in data)
                        for got, want in zip(prop.apply_spectra(*data), einsum_apply(prop, *data)):
                            assert same_bits(got, want)

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_half_apply_is_the_kz_nonnegative_part_of_the_full_apply(self, n):
        """The update is per mode, so the apply on the halves gives the bits of the
        batched apply on the full lattice (``einsum_apply``) on those modes."""
        grid = Grid(n)
        params = make_params()
        prop = LinearPropagator(grid, params, cfl_dt(grid, params))
        spectra = random_spectra(grid, n)
        half = n // 2 + 1
        full = einsum_apply(prop, *spectra)
        for got, want in zip(prop.apply_spectra(*(x[..., :half] for x in spectra)), full):
            assert same_bits(got, want[..., :half].copy())


class TestEntriesPerRadius:
    @pytest.mark.parametrize("n", [6, 10, 12, 16])
    @pytest.mark.parametrize("length", [2.0 * np.pi, 3.7])
    def test_gathered_entries_equal_full_lattice(self, n, length):
        """Entries evaluated once per distinct |xi| and gathered equal ``block_entries``
        on the full lattice bit for bit, for both blocks at t = 0, dt/2 and dt;
        N that are not powers of two and L != 2 pi give radii that are not
        integer square roots."""
        grid = Grid(n, length)
        params = make_params()
        dt = cfl_dt(grid, params)
        for t in (0.0, 0.5 * dt, dt):
            prop = LinearPropagator(grid, params, t)
            assert prop._table.shape == (8, grid.distinct_radii[0].size)
            entries = gathered_entries(prop)
            for block, got in zip(BLOCKS, (entries[:4], entries[4:])):
                want = block_entries(block.nu, block.b, grid.xi_mag, t)
                assert all(same_bits(g, w) for g, w in zip(got, want))

    def test_propagators_share_unit_wavevectors(self, grid8):
        """Each propagator keeps kz >= 0 views of the grid's unit wavevectors and
        radius index, not copies."""
        params = make_params()
        props = LinearPropagator(grid8, params, 0.1), LinearPropagator(grid8, params, 0.2)
        for prop in props:
            assert prop._rhat.base is grid8.unit_xi
            assert np.shares_memory(prop._index, grid8.distinct_radii[1])
            assert prop._rhat.shape[-1] == prop._index.shape[-1] == 5

    def test_propagator_retains_less_than_one_lattice_array(self):
        """A propagator at N = 32 on a grid with its lattice cached keeps its
        per-radius table only: under one float64 N^3 array (8 with the 8
        entries gathered onto the lattice at build)."""
        assert propagator_retained(32) < 32**3 * 8


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
        """K(t2) K(t1) = K(t1 + t2) on the kz >= 0 halves, and modes with r = 0
        (zero mode, Nyquist planes) pass unchanged bit for bit: there e^{tA} = I
        exactly, and the steady-state shift must not round n through n - n* + n*."""
        params = make_params(mu=mu, lam=lam_ratio * mu, alpha=alpha)
        spectra = tuple(x[..., :5] for x in random_spectra(grid8, seed))

        k1 = LinearPropagator(grid8, params, t1)
        k2 = LinearPropagator(grid8, params, t2)
        once = LinearPropagator(grid8, params, t1 + t2).apply_spectra(*spectra)
        twice = k2.apply_spectra(*k1.apply_spectra(*spectra))
        for x, y, x0 in zip(once, twice, spectra):
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(x0))

        still = (grid8.xi_mag * grid8.nyquist_mask)[..., :5] == 0.0
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
        margin, while a symbol that breaks the mirror gives an O(1) defect.  The
        apply runs on the kz >= 0 halves, so the mirror that it must keep is the
        one inside the kz = 0 and kz = N/2 planes, which ``half_to_full`` passes
        through."""
        grid = Grid(n)
        spectra = random_spectra(grid, seed)
        halves = tuple(x[..., : n // 2 + 1] for x in spectra)
        for out in LinearPropagator(grid, params, t).apply_spectra(*halves):
            defect = hermitian_defect(half_to_full(grid, out))
            assert defect <= 1e-13 * max(np.max(np.abs(x)) for x in spectra)
