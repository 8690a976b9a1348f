"""Grid, field, transform and Fourier-multiplier tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import antisymmetric_part, even_n, same_bits, smooth_scalar, smooth_vector
from veflow import (
    FieldError,
    Grid,
    GridMismatchError,
    ParameterError,
    ScalarField,
    TensorField,
    VectorField,
    div,
    grad,
    hodge_decompose,
    hodge_reconstruct,
    inner_product,
    l2_norm,
    lam,
    laplacian,
    sobolev_norm,
)
from veflow.fields import half_to_samples, to_half_spectrum, to_samples, to_spectrum
from veflow.operators import lam_symbol
from veflow.sources import _gradient

VOL = (2.0 * np.pi) ** 3


def sin_x1(grid):
    x, y, z = grid.axes()
    return ScalarField(grid, np.sin(x) + 0.0 * y + 0.0 * z)


class TestGrid:
    def test_rejects_odd_or_small_n(self):
        with pytest.raises(ParameterError):
            Grid(7)
        with pytest.raises(ParameterError):
            Grid(2)
        with pytest.raises(ParameterError):
            Grid(16, -1.0)

    @pytest.mark.parametrize("n", [8.0, "8", None, np.float64(8.0)])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(ParameterError):
            Grid(n)

    @pytest.mark.parametrize("length", [float("inf"), float("nan"), 0.0, -np.inf])
    def test_rejects_unusable_length(self, length):
        with pytest.raises(ParameterError):
            Grid(8, length)

    def test_accepts_numpy_integer_n(self):
        assert Grid(np.int64(8)) == Grid(8)

    def test_distinct_radii_rebuild_xi_mag(self):
        for grid in (Grid(6), Grid(10, 3.7), Grid(16)):
            radii, index = grid.distinct_radii
            assert np.all(np.diff(radii) > 0.0)
            assert index.shape == grid.shape
            assert same_bits(radii[index], grid.xi_mag)

    def test_unit_xi(self, grid16):
        r = grid16.xi_mag
        assert np.all(grid16.unit_xi[:, r == 0.0] == 0.0)
        norm = np.sqrt((grid16.unit_xi**2).sum(axis=0))
        assert np.allclose(norm[r > 0.0], 1.0, rtol=0, atol=1e-15)
        assert not grid16.unit_xi.flags.writeable

    def test_frequency_lattice_symmetry(self, grid16):
        k = grid16.xi
        # away from the Nyquist planes the lattice is symmetric under k -> -k
        mask = grid16.nyquist_mask
        for axis in range(3):
            flipped = k[axis]
            for ax in (0, 1, 2):
                flipped = np.flip(np.roll(flipped, -1, axis=ax), axis=ax)
            assert np.all((k[axis] == -flipped) | ~mask)

    def test_nyquist_planes_zeroed_in_xi(self, grid16):
        nyq = grid16.n // 2
        assert np.all(grid16.xi[:, nyq, :, :] == 0.0)
        assert np.all(grid16.xi_mag[nyq, :, :] == 0.0)

    def test_xi_max(self):
        g = Grid(32, 2.0 * np.pi)
        assert g.xi_max() == pytest.approx(15.0)


class TestTransforms:
    def test_constant_field_dc_mode(self, grid16):
        f = ScalarField(grid16, np.full(grid16.shape, 2.5))
        spec = f.spectrum
        assert spec[0, 0, 0] == pytest.approx(2.5)
        rest = np.abs(spec).sum() - abs(spec[0, 0, 0])
        assert rest < 1e-12

    def test_single_mode_sin(self, grid16):
        spec = sin_x1(grid16).spectrum
        assert spec[1, 0, 0] == pytest.approx(-0.5j, abs=1e-14)
        assert spec[-1, 0, 0] == pytest.approx(0.5j, abs=1e-14)
        other = np.abs(spec).sum() - abs(spec[1, 0, 0]) - abs(spec[-1, 0, 0])
        assert other < 1e-12

    def test_round_trip_random(self, grid16, rng):
        samples = rng.standard_normal(grid16.shape)
        f = ScalarField(grid16, samples)
        back = ScalarField.from_spectrum(grid16, f.spectrum)
        assert np.max(np.abs(back.samples - samples)) < 1e-12 * np.max(np.abs(samples))

    def test_parseval_random(self, grid16, rng):
        u = rng.standard_normal(grid16.shape)
        w = rng.standard_normal(grid16.shape)
        fu, fw = ScalarField(grid16, u), ScalarField(grid16, w)
        quadrature = float((u * w).sum()) * grid16.cell_volume
        spectral = inner_product(fu, fw)
        assert spectral == pytest.approx(quadrature, rel=1e-10)

    def test_non_finite_rejected(self, grid8):
        bad = np.zeros(grid8.shape)
        bad[0, 0, 0] = np.nan
        with pytest.raises(FieldError):
            ScalarField(grid8, bad)

    def test_non_hermitian_rejected(self, grid8):
        for cls, lead in ((ScalarField, ()), (VectorField, (3,)), (TensorField, (3, 3))):
            spec = np.zeros(lead + grid8.shape, complex)
            spec[..., 1, 0, 0] = 1.0  # no conjugate partner
            with pytest.raises(FieldError, match="Hermitian"):
                cls.from_frequency(grid8, spec)

    def test_grid_mismatch(self, grid8, grid16):
        a = ScalarField(grid8, np.zeros(grid8.shape))
        b = ScalarField(grid16, np.zeros(grid16.shape))
        with pytest.raises(GridMismatchError):
            _ = a - b


AXES = (-3, -2, -1)
LEADS = [(), (3,), (3, 3), (3, 3, 3)]


class TestComponentTransforms:
    """The component-at-a-time transforms against the one batched numpy call each replaces."""

    @pytest.mark.parametrize("lead", LEADS, ids=str)
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_bit_identical_to_batched_call(self, n, lead):
        grid = Grid(n)
        u = np.random.default_rng(n + len(lead)).standard_normal(lead + grid.shape)
        spec = np.fft.fftn(u, axes=AXES) / n**3
        half = np.fft.rfftn(u, axes=AXES) / n**3
        assert same_bits(to_spectrum(grid, u), spec)
        assert same_bits(to_samples(grid, spec), np.fft.ifftn(spec, axes=AXES).real * n**3)
        assert same_bits(to_half_spectrum(grid, u), half)
        batched = np.fft.irfftn(half, s=grid.shape, axes=AXES) * n**3
        assert same_bits(half_to_samples(grid, half), batched)

    @pytest.mark.parametrize("lead", LEADS[:3], ids=str)
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_gradient_bit_identical_to_batched_einsum(self, n, lead):
        grid = Grid(n)
        u = np.random.default_rng(10 * n + len(lead)).standard_normal(lead + grid.shape)
        half = to_half_spectrum(grid, u)
        xi = grid.xi[..., : n // 2 + 1]
        batched = half_to_samples(grid, 1j * np.einsum("l...,...->l...", xi, half))
        assert same_bits(_gradient(grid, half), batched)


_lead = st.sampled_from(LEADS[:3])
_seed = st.integers(0, 2**32 - 1)


class TestTransformProperties:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=even_n, lead=_lead, seed=_seed)
    def test_parseval(self, n, lead, seed):
        grid = Grid(n)
        u = np.random.default_rng(seed).standard_normal(lead + grid.shape)
        physical = grid.cell_volume * np.sum(u**2, axis=AXES)
        spectral = grid.volume * np.sum(np.abs(to_spectrum(grid, u)) ** 2, axis=AXES)
        assert np.all(np.abs(spectral - physical) <= 1e-12 * physical)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=even_n, lead=_lead, seed=_seed)
    def test_half_spectrum_is_nonnegative_kz_slice(self, n, lead, seed):
        grid = Grid(n)
        u = np.random.default_rng(seed).standard_normal(lead + grid.shape)
        full = to_spectrum(grid, u)
        half = to_half_spectrum(grid, u)
        assert half.shape == lead + (n, n, n // 2 + 1)
        assert np.max(np.abs(half - full[..., : n // 2 + 1])) <= 1e-15 * np.max(np.abs(full))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=even_n, lead=_lead, seed=_seed)
    def test_round_trip(self, n, lead, seed):
        grid = Grid(n)
        u = np.random.default_rng(seed).standard_normal(lead + grid.shape)
        back = to_samples(grid, to_spectrum(grid, u))
        assert np.max(np.abs(back - u)) <= 1e-14 * np.max(np.abs(u))
        back = half_to_samples(grid, to_half_spectrum(grid, u))
        assert np.max(np.abs(back - u)) <= 1e-14 * np.max(np.abs(u))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=even_n, lead=_lead, seed=_seed)
    def test_gradient_mask_kills_nyquist_planes(self, n, lead, seed):
        """Data living only on the k = -N/2 planes has exactly zero derivative."""
        grid = Grid(n)
        rng = np.random.default_rng(seed)
        shape = lead + (n, n, n // 2 + 1)
        half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        nyquist = ~grid.nyquist_mask[..., : n // 2 + 1]
        half *= nyquist
        assert np.count_nonzero(half) > 0
        assert np.count_nonzero(_gradient(grid, half)) == 0


class TestMultipliers:
    def test_lambda_single_mode(self, grid16):
        f = sin_x1(grid16)
        out = lam(f, 1.0)
        assert np.max(np.abs(out.samples - f.samples)) < 1e-12

    @pytest.mark.parametrize("s", [-2.0, -1.0, 0.0, 1.0, 2.0])
    def test_lambda_kills_constants(self, grid8, s):
        f = ScalarField(grid8, np.ones(grid8.shape))
        out = lam(f, s)
        assert np.max(np.abs(out.samples)) < 1e-13

    def test_lambda_inverse(self, grid16, rng):
        u = smooth_scalar(grid16, rng)
        back = lam(lam(u, 1.0), -1.0)
        assert np.max(np.abs(back.samples - u.samples)) < 1e-12 * np.max(np.abs(u.samples))

    def test_lambda_squared_is_minus_laplacian(self, grid16, rng):
        u = smooth_scalar(grid16, rng)
        left = lam(lam(u, 1.0), 1.0).samples
        right = -laplacian(u).samples
        assert np.max(np.abs(left - right)) < 1e-12 * max(np.max(np.abs(right)), 1.0)

    def test_negative_order_zero_mode_convention(self, grid8):
        sym = lam_symbol(grid8, -1.0)
        assert sym[0, 0, 0] == 0.0

    def test_multipliers_commute(self, grid8, rng):
        u = smooth_scalar(grid8, rng)
        du = grad(u)
        d_ij = grad(ScalarField.from_spectrum(grid8, du.spectrum[0])).spectrum[1]
        d_ji = grad(ScalarField.from_spectrum(grid8, grad(u).spectrum[1])).spectrum[0]
        assert np.array_equal(d_ij, d_ji)

    def test_derivatives_zero_nyquist_planes(self, grid8):
        spec = np.zeros(grid8.shape, complex)
        nyq = -(grid8.n // 2)
        spec[nyq % grid8.n, 0, 0] = 1.0  # self-conjugate Nyquist mode
        f = ScalarField.from_spectrum(grid8, spec)
        assert np.max(np.abs(laplacian(f).spectrum)) == 0.0
        assert np.max(np.abs(grad(f).spectrum)) == 0.0


class TestHodge:
    def test_gradient_field(self, grid16):
        f = sin_x1(grid16)
        v = grad(f)
        d, omega = hodge_decompose(v)
        assert np.max(np.abs(omega.samples)) < 1e-13
        expected = -f.samples
        assert np.max(np.abs(d.samples - expected)) < 1e-12

    def test_divergence_free_field(self, grid16):
        x, y, z = grid16.axes()
        v = VectorField(
            grid16,
            np.stack([np.sin(y) + 0 * x + 0 * z, np.zeros(grid16.shape), np.zeros(grid16.shape)]),
        )
        d, omega = hodge_decompose(v)
        assert np.max(np.abs(d.samples)) < 1e-13
        recon = hodge_reconstruct(ScalarField.zero(grid16), omega)
        assert np.max(np.abs(div(recon).samples)) < 1e-12

    def test_round_trip_decompose_reconstruct(self, grid16, rng):
        v = smooth_vector(grid16, rng)
        d, omega = hodge_decompose(v)
        back = hodge_reconstruct(d, omega)
        assert np.max(np.abs(back.samples - v.samples)) < 1e-12 * np.max(np.abs(v.samples))

    def test_round_trip_reconstruct_decompose(self, grid16, rng):
        d0 = smooth_scalar(grid16, rng)
        v0 = smooth_vector(grid16, rng)
        _, om0 = hodge_decompose(v0)
        v = hodge_reconstruct(d0, om0)
        d1, om1 = hodge_decompose(v)
        assert np.max(np.abs(d1.samples - d0.samples)) < 1e-12
        assert np.max(np.abs(om1.samples - om0.samples)) < 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=even_n, seed=_seed)
    def test_round_trip_property(self, n, seed):
        """Any mean-zero field with nothing on the Nyquist planes (where the
        gradient symbol is zero by design) comes back.  Each mode passes through
        a few products with the unit vector of xi and two transforms, so the
        error is round-off: at most 7.6e-16 of max |v| over 60 random cases;
        1e-13 leaves a 100x margin, while a lost Hodge sector is an O(1) error."""
        grid = Grid(n)
        rng = np.random.default_rng(seed)
        spec = to_spectrum(grid, rng.standard_normal((3,) + grid.shape)) * grid.nyquist_mask
        spec[:, 0, 0, 0] = 0.0
        v = VectorField.from_spectrum(grid, spec)
        back = hodge_reconstruct(*hodge_decompose(v))
        assert np.max(np.abs(back.samples - v.samples)) <= 1e-13 * np.max(np.abs(v.samples))

    def test_reconstruct_rejects_non_antisymmetric(self, grid8):
        omega = TensorField.identity(grid8)
        with pytest.raises(FieldError):
            hodge_reconstruct(ScalarField.zero(grid8), omega)

    def test_example_reconstruction(self, grid16):
        # d = -sin(x1), omega = 0  ->  v = (cos x1, 0, 0)
        f = sin_x1(grid16)
        d = ScalarField(grid16, -f.samples)
        v = hodge_reconstruct(d, TensorField.zero(grid16))
        x, _, _ = grid16.axes()
        expected = np.cos(x) + np.zeros(grid16.shape)
        assert np.max(np.abs(v.samples[0] - expected)) < 1e-12
        assert np.max(np.abs(v.samples[1:])) < 1e-13


class TestNormsAndProducts:
    def test_inner_product_sin_sin(self, grid16):
        f = sin_x1(grid16)
        assert inner_product(f, f) == pytest.approx(VOL / 2.0, rel=1e-12)

    def test_inner_product_orthogonality(self, grid16):
        x, y, z = grid16.axes()
        s = sin_x1(grid16)
        c = ScalarField(grid16, np.cos(x) + 0 * y + 0 * z)
        assert abs(inner_product(s, c)) < 1e-12

    def test_h1_norm_example(self, grid16):
        f = sin_x1(grid16)
        assert sobolev_norm(f, 1) ** 2 == pytest.approx(VOL, rel=1e-12)

    def test_h0_equals_l2(self, grid16, rng):
        u = smooth_scalar(grid16, rng)
        assert sobolev_norm(u, 0) == pytest.approx(l2_norm(u), rel=1e-13)

    def test_sobolev_rejects_bad_order(self, grid8):
        with pytest.raises(FieldError):
            sobolev_norm(ScalarField.zero(grid8), 4)

    def test_antisymmetric_part_exact(self, grid8, rng):
        t = TensorField(grid8, rng.standard_normal((3, 3) + grid8.shape))
        a = antisymmetric_part(t)
        assert np.array_equal(a.spectrum, -np.swapaxes(a.spectrum, 0, 1))

    def test_tensor_inner_product_matches_quadrature(self, grid8, rng):
        t1 = TensorField(grid8, rng.standard_normal((3, 3) + grid8.shape))
        t2 = TensorField(grid8, rng.standard_normal((3, 3) + grid8.shape))
        quad = float((t1.samples * t2.samples).sum()) * grid8.cell_volume
        assert inner_product(t1, t2) == pytest.approx(quad, rel=1e-10)

    def test_generic_multiplier_matches_laplacian(self, grid8, rng):
        from veflow import apply_multiplier

        u = smooth_scalar(grid8, rng)
        sym = -(grid8.xi_mag**2) * grid8.nyquist_mask
        direct = apply_multiplier(u, sym).samples
        assert np.max(np.abs(direct - laplacian(u).samples)) < 1e-13
