"""Grid, field, transform and Fourier-multiplier tests."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    antisymmetric_part,
    axes,
    even_n,
    full_lattice,
    grad,
    half_samples,
    hodge_decompose,
    hodge_reconstruct,
    identity_field,
    lam,
    lam_symbol,
    random_spectra,
    same_bits,
    separate_pass_gradient,
    smooth_scalar,
    smooth_vector,
    zero_field,
    zero_state,
)
from veflow import (
    FieldError,
    Grid,
    GridMismatchError,
    ParameterError,
    ScalarField,
    TensorField,
    VectorField,
    div,
    inner_product,
    l2_norm,
    laplacian,
    sobolev_norm,
)
from veflow.diagnostics import h2_distance
from veflow.fields import (
    half_to_full,
    product,
    samples_and_gradient,
    to_half_spectrum,
    to_samples,
    to_spectrum,
)


VOL = (2.0 * np.pi) ** 3


def sin_x1(grid):
    x, y, z = axes(grid)
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
            assert index.shape == grid.half_shape
            assert same_bits(radii[index], grid.xi_mag)

    def test_unit_xi(self, grid16):
        r = grid16.xi_mag
        assert np.all(grid16.unit_xi[:, r == 0.0] == 0.0)
        norm = np.sqrt((grid16.unit_xi**2).sum(axis=0))
        assert np.allclose(norm[r > 0.0], 1.0, rtol=0, atol=1e-15)
        assert not grid16.unit_xi.flags.writeable

    def test_frequency_lattice_symmetry(self, grid16):
        lattice = full_lattice(grid16)
        k = lattice.xi
        # away from the Nyquist planes the lattice is symmetric under k -> -k
        mask = lattice.nyquist_mask
        for axis in range(3):
            flipped = k[axis]
            for ax in (0, 1, 2):
                flipped = np.flip(np.roll(flipped, -1, axis=ax), axis=ax)
            assert np.all((k[axis] == -flipped) | ~mask)

    def test_nyquist_planes_zeroed_in_xi(self, grid16):
        nyq = grid16.n // 2
        assert np.all(grid16.xi[:, nyq, :, :] == 0.0)
        assert np.all(grid16.xi_mag[nyq, :, :] == 0.0)
        assert np.all(grid16.xi[..., nyq] == 0.0)
        assert np.all(grid16.xi_mag[..., nyq] == 0.0)

    def test_xi_max(self):
        g = Grid(32, 2.0 * np.pi)
        assert g.xi_max() == pytest.approx(15.0)


class TestHalfLattice:
    """The grid builds each lattice array on the kz >= 0 half: the first N/2 + 1
    kz planes of the full N^3 lattice (``helpers.full_lattice``), byte for byte,
    so the last one is the k = -N/2 plane and its zeros keep their sign."""

    ARRAYS = ("xi", "xi_mag", "laplacian_symbol", "unit_xi", "dealias_mask")
    WEIGHTS = ((0, 0), (0, 2), (0, 3), (1, 2), (1, 3))

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 32, 64])
    def test_arrays_are_the_kz_nonnegative_planes_of_the_full_lattice(self, n):
        grid, h = Grid(n, 2.0 * np.pi * 1.7), n // 2 + 1
        full = full_lattice(grid)
        for name in self.ARRAYS:
            got = getattr(grid, name)
            assert got.shape[-3:] == grid.half_shape and not got.flags.writeable, name
            assert same_bits(got, getattr(full, name)[..., :h]), name
        radii, index = grid.distinct_radii
        assert same_bits(index, full.radius_index[..., :h])
        for first, last in self.WEIGHTS:
            got = grid.sobolev_weight(first, last)
            assert same_bits(got, full.sobolev_weight(first, last)[..., :h]), (first, last)
        # the kz = -N/2 plane holds zeros signed as k times 0: -0.0 in xi_z, and
        # in xi_x where kx < 0
        assert np.all(grid.xi[..., -1] == 0.0) and np.all(np.signbit(grid.xi[2, ..., -1]))
        kx = np.fft.fftfreq(n, d=1.0 / n)
        assert np.array_equal(np.signbit(grid.xi[0, :, 0, -1]), kx < 0)

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 32, 64])
    def test_distinct_radii_are_those_of_the_full_lattice(self, n):
        """Every |xi| of the full lattice has its mirror on the half, so the
        propagator's per-radius table does not depend on the layout."""
        grid = Grid(n, 2.0 * np.pi * 1.7)
        radii, _ = grid.distinct_radii
        assert same_bits(radii, np.unique(full_lattice(grid).xi_mag))
        assert same_bits(radii, full_lattice(grid).radii)


class TestTransforms:
    def test_constant_field_dc_mode(self, grid16):
        f = ScalarField(grid16, np.full(grid16.shape, 2.5))
        spec = f.half
        assert spec[0, 0, 0] == pytest.approx(2.5)
        rest = np.abs(spec).sum() - abs(spec[0, 0, 0])
        assert rest < 1e-12

    def test_single_mode_sin(self, grid16):
        spec = sin_x1(grid16).half
        assert spec[1, 0, 0] == pytest.approx(-0.5j, abs=1e-14)
        assert spec[-1, 0, 0] == pytest.approx(0.5j, abs=1e-14)
        other = np.abs(spec).sum() - abs(spec[1, 0, 0]) - abs(spec[-1, 0, 0])
        assert other < 1e-12

    def test_round_trip_random(self, grid16, rng):
        samples = rng.standard_normal(grid16.shape)
        f = ScalarField(grid16, samples)
        back = ScalarField.from_half_spectrum(grid16, f.half)
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

    def test_grid_mismatch(self, grid8, grid16):
        """h2_distance differences spectra: states on grids of equal N and
        different L would broadcast, so they are rejected like unequal N."""
        for other in (grid16, Grid(8, 1.0)):
            with pytest.raises(GridMismatchError):
                h2_distance(zero_state(grid8), zero_state(other))


AXES = (-3, -2, -1)
LEADS = [(), (3,), (3, 3), (3, 3, 3)]


class TestComponentTransforms:
    """The component-at-a-time transforms against the one batched numpy call each replaces."""

    @pytest.mark.parametrize("lead", LEADS, ids=str)
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_bit_identical_to_batched_call(self, n, lead):
        """The real-data pair is normalised inside pocketfft; for a power-of-two
        N that has the bits of scaling the unnormalised call in place."""
        grid = Grid(n)
        u = np.random.default_rng(n + len(lead)).standard_normal(lead + grid.shape)
        spec = np.fft.fftn(u, axes=AXES) / n**3
        half = np.fft.rfftn(u, axes=AXES, norm="forward")
        assert same_bits(to_spectrum(grid, u), spec)
        assert same_bits(to_samples(grid, spec), np.fft.ifftn(spec, axes=AXES).real * n**3)
        assert same_bits(to_half_spectrum(grid, u), half)
        batched = np.fft.irfftn(half, s=grid.shape, axes=AXES, norm="forward")
        assert same_bits(half_samples(grid, half), batched)
        if n & (n - 1) == 0:
            assert same_bits(half, np.fft.rfftn(u, axes=AXES) / n**3)
            assert same_bits(batched, np.fft.irfftn(half, s=grid.shape, axes=AXES) * n**3)

    @pytest.mark.parametrize("lead", LEADS, ids=str)
    @pytest.mark.parametrize("n", [6, 8, 12, 16, 32, 64])
    def test_in_place_passes_are_irfftn(self, n, lead):
        """The two ifft passes and the irfft pass of the samples-only form of
        ``samples_and_gradient``, in its two buffers, give irfftn's bits,
        signed zeros too (int64 views), on non-contiguous slices of a
        random lattice whose kz = 0 and N/2 planes are not Hermitian, so both
        must drop those planes' imaginary parts as irfftn does."""
        grid = Grid(n)
        rng = np.random.default_rng(100 * n + len(lead))
        lattice = rng.standard_normal(lead + grid.shape + (2,)).view(np.complex128)[..., 0]
        half = lattice[..., : n // 2 + 1]
        assert not half.flags.c_contiguous
        out = np.empty((2,) + lead + grid.shape)[1]
        bufs = np.empty((2,) + grid.half_shape, dtype=np.complex128)
        for comp in np.ndindex(lead):
            samples_and_gradient(grid, half[comp], out[comp], None, bufs)
            want = np.fft.irfftn(half[comp], s=grid.shape, axes=AXES, norm="forward")
            assert np.array_equal(out[comp].view(np.int64), want.view(np.int64)), comp

    @pytest.mark.parametrize("lead", LEADS[:3], ids=str)
    @pytest.mark.parametrize("n", [6, 8, 12, 16])
    def test_gradient_bit_identical_to_batched_einsum(self, n, lead):
        """One product per component against one batched einsum and one batched
        irfftn, also on 2/3-masked data, whose exact zeros carry either sign."""
        grid = Grid(n)
        u = np.random.default_rng(10 * n + len(lead)).standard_normal(lead + grid.shape)
        half = to_half_spectrum(grid, u)
        xi = grid.xi
        for data in (half, half * grid.dealias_mask):
            batched = 1j * np.einsum("l...,...->l...", xi, data)
            batched = np.fft.irfftn(batched, s=grid.shape, axes=AXES, norm="forward")
            assert same_bits(separate_pass_gradient(grid, data), batched)


# largest |d_l u - its separate-pass value| / max |grad u| of ``samples_and_gradient``
# measured over N in {4, ..., 64}, l = y, z: 4.2e-16 (numpy 2.4.6); Nyquist-only
# halves 7.5e-17
SHARED_PASS_BOUND = 2e-15


class TestSharedPassGradient:
    """``samples_and_gradient`` against ``irfftn`` and the separate three-pass
    gradient of every derivative (``helpers.separate_pass_gradient``),
    on one component of a random lattice whose Nyquist planes hold content and
    whose kz = 0 and N/2 planes are not Hermitian."""

    @staticmethod
    def _half(n):
        rng = np.random.default_rng(1000 + n)
        lattice = rng.standard_normal((n, n, n, 2)).view(np.complex128)[..., 0]
        return lattice[..., : n // 2 + 1]

    @staticmethod
    def _shared(grid, half, with_samples):
        """(samples or None, gradient), each written into a strided view."""
        samples = np.empty((2,) + grid.shape)[1] if with_samples else None
        grad_out = np.empty((3, 2) + grid.shape)[:, 1]
        bufs = np.empty((2,) + half.shape, dtype=np.complex128)
        samples_and_gradient(grid, half, samples, grad_out, bufs)
        return samples, grad_out

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 32, 64])
    def test_matches_separate_passes(self, n):
        """The samples are irfftn's bits, with or without the gradient, and d_x
        is bit for bit that of the separate passes, with or without the
        samples; d_y and d_z are within ``SHARED_PASS_BOUND`` of the largest
        derivative."""
        grid = Grid(n)
        half = self._half(n)
        assert not half.flags.c_contiguous
        want = separate_pass_gradient(grid, half)
        samples, got = self._shared(grid, half, True)
        assert same_bits(samples, np.fft.irfftn(half, s=grid.shape, axes=AXES, norm="forward"))
        assert same_bits(samples, half_samples(grid, half))
        assert same_bits(got[0], want[0])
        assert same_bits(self._shared(grid, half, False)[1], got)
        gap = np.max(np.abs(got[1:] - want[1:]))
        assert gap <= SHARED_PASS_BOUND * np.max(np.abs(want)), gap / np.max(np.abs(want))

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 32, 64])
    def test_nyquist_planes_have_no_gradient(self, n):
        """A half with content only on the k = -N/2 planes has zero derivative:
        exactly zero d_x, and d_y, d_z within ``SHARED_PASS_BOUND`` of the
        largest derivative of the unmasked half, so the plane corrections
        remove those planes' content from d_y and d_z."""
        grid = Grid(n)
        half = self._half(n)
        nyquist = half * ~full_lattice(grid).nyquist_mask[..., : n // 2 + 1]
        _, got = self._shared(grid, nyquist, False)
        assert np.count_nonzero(got[0]) == 0
        gap = np.max(np.abs(got))
        scale = np.max(np.abs(separate_pass_gradient(grid, half)))
        assert gap <= SHARED_PASS_BOUND * scale, gap / scale


class TestProduct:
    """``product`` against the einsum forms it stands for, bit for bit."""

    @pytest.mark.parametrize("n", [6, 8, 12])
    @pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
    def test_bit_identical_to_einsum(self, n, masked):
        """Real x complex, complex x real and real x real, same and broadcast
        shapes, strided half-spectrum views, with and without ``out``.  The
        2/3-masked spectra hold exact zeros of either sign."""
        grid = Grid(n)
        spectra = random_spectra(grid, n)
        if masked:
            spectra = tuple(x * full_lattice(grid).dealias_mask for x in spectra)
        n_hat, v_hat, e_hat = spectra
        half = n // 2 + 1
        xi = grid.xi
        cases = [
            ("...,...->...", xi[1], v_hat[2][..., :half]),  # real x complex, strided
            ("...,...->...", e_hat[0, 2], full_lattice(grid).unit_xi[1]),  # complex x real
            ("i...,...->i...", xi, n_hat[..., :half]),  # real x complex, broadcast
            ("...,i...->i...", n_hat.real, v_hat.real),  # real x real, broadcast, strided
            ("...,...->...", v_hat[0].imag, e_hat[1, 1].real),  # real x real
        ]
        bare = []
        for spec, a, b in cases:
            want = np.einsum(spec, a, b)
            assert same_bits(product(a, b), want)
            out = np.empty((2,) + want.shape, dtype=want.dtype)[1]
            assert product(a, b, out=out) is out
            assert same_bits(out, want)
            bare.append(same_bits(np.multiply(a, b), want))
        # a bare multiply leaves -0.0 where einsum has +0.0: the cases can tell
        assert not any(bare[:3])
        if masked:
            assert not any(bare)


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
        back = half_samples(grid, to_half_spectrum(grid, u))
        assert np.max(np.abs(back - u)) <= 1e-14 * np.max(np.abs(u))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=even_n, lead=_lead, seed=_seed)
    def test_gradient_mask_kills_nyquist_planes(self, n, lead, seed):
        """Data living only on the k = -N/2 planes has exactly zero derivative."""
        grid = Grid(n)
        rng = np.random.default_rng(seed)
        shape = lead + (n, n, n // 2 + 1)
        half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        nyquist = ~full_lattice(grid).nyquist_mask[..., : n // 2 + 1]
        half *= nyquist
        assert np.count_nonzero(half) > 0
        assert np.count_nonzero(separate_pass_gradient(grid, half)) == 0


class TestHalfToFull:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=even_n, lead=_lead, seed=_seed)
    def test_mirror_bit_for_bit(self, n, lead, seed):
        """Every kz < 0 plane is conj of its k -> -k mirror bit for bit, built here
        by roll and flip; the kz = 0 ... N/2 planes, the self-mirrored kz = 0 and
        kz = N/2 among them, pass through unchanged, even on a half that is
        not Hermitian within them."""
        grid = Grid(n)
        rng = np.random.default_rng(seed)
        shape = lead + (n, n, n // 2 + 1)
        half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = half_to_full(grid, half)
        assert full.shape == lead + grid.shape
        assert same_bits(full[..., : n // 2 + 1].copy(), half)
        mirror = full
        for ax in AXES:
            mirror = np.flip(np.roll(mirror, -1, axis=ax), axis=ax)  # index j -> (N - j) mod N
        assert same_bits(full[..., n // 2 + 1 :].copy(), np.conj(mirror[..., n // 2 + 1 :]))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=even_n, lead=_lead, seed=_seed)
    def test_inverts_the_half_of_a_real_field(self, n, lead, seed):
        grid = Grid(n)
        u = np.random.default_rng(seed).standard_normal(lead + grid.shape)
        full = to_spectrum(grid, u)
        assert np.max(np.abs(half_to_full(grid, to_half_spectrum(grid, u)) - full)) <= (
            1e-15 * np.max(np.abs(full))
        )


class TestHalfBuiltFields:
    """A field keeps two views, its samples and its kz >= 0 half, and no full
    spectrum."""

    @pytest.mark.parametrize("cls", [ScalarField, VectorField, TensorField])
    @pytest.mark.parametrize("n", [6, 8])
    def test_views_are_those_of_the_mirror(self, n, cls):
        """A half-built field keeps its half as built, and its samples are the
        complex inverse transform of the half's mirror, bit for bit."""
        grid = Grid(n)
        u = np.random.default_rng(n + cls.rank).standard_normal((3,) * cls.rank + grid.shape)
        half = to_half_spectrum(grid, u)
        built = half.copy()
        field = cls.from_half_spectrum(grid, built)
        assert same_bits(field.samples, to_samples(grid, half_to_full(grid, half)))
        assert field.half is built
        assert sorted(vars(field)) == ["grid", "half", "samples"]

    def test_half_of_other_fields_is_their_rfftn(self, grid8, rng):
        """A samples-built field's half is the rfftn of its samples, in an array
        of its own."""
        samples = rng.standard_normal(grid8.shape)
        field = ScalarField(grid8, samples)
        assert same_bits(field.half, to_half_spectrum(grid8, samples))
        assert field.half.base is None and not field.half.flags.writeable
        assert sorted(vars(field)) == ["grid", "half", "samples"]

    def test_rejects_non_finite_or_misshapen_halves(self, grid8):
        half = np.zeros((3, 8, 8, 5), dtype=np.complex128)
        half[1, 2, 3, 4] = np.inf
        with pytest.raises(FieldError):
            VectorField.from_half_spectrum(grid8, half)
        for shape in ((3, 8, 8, 8), (8, 8, 5), (3, 8, 8, 4)):
            with pytest.raises(FieldError):
                VectorField.from_half_spectrum(grid8, np.zeros(shape, dtype=np.complex128))


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
        d_ij = grad(ScalarField.from_half_spectrum(grid8, du.half[0])).half[1]
        d_ji = grad(ScalarField.from_half_spectrum(grid8, grad(u).half[1])).half[0]
        assert np.array_equal(d_ij, d_ji)

    def test_derivatives_zero_nyquist_planes(self, grid8):
        spec = np.zeros(grid8.shape, complex)
        nyq = -(grid8.n // 2)
        spec[nyq % grid8.n, 0, 0] = 1.0  # self-conjugate Nyquist mode
        f = ScalarField.from_half_spectrum(grid8, spec[..., : grid8.n // 2 + 1])
        assert np.max(np.abs(laplacian(f).half)) == 0.0
        assert np.max(np.abs(grad(f).half)) == 0.0


class TestHodge:
    def test_gradient_field(self, grid16):
        f = sin_x1(grid16)
        v = grad(f)
        d, omega = hodge_decompose(v)
        assert np.max(np.abs(omega.samples)) < 1e-13
        expected = -f.samples
        assert np.max(np.abs(d.samples - expected)) < 1e-12

    def test_divergence_free_field(self, grid16):
        x, y, z = axes(grid16)
        v = VectorField(
            grid16,
            np.stack([np.sin(y) + 0 * x + 0 * z, np.zeros(grid16.shape), np.zeros(grid16.shape)]),
        )
        d, omega = hodge_decompose(v)
        assert np.max(np.abs(d.samples)) < 1e-13
        recon = hodge_reconstruct(zero_field(ScalarField, grid16), omega)
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
        spec = to_spectrum(grid, rng.standard_normal((3,) + grid.shape))
        spec *= full_lattice(grid).nyquist_mask
        spec[:, 0, 0, 0] = 0.0
        v = VectorField.from_half_spectrum(grid, spec[..., : n // 2 + 1])
        back = hodge_reconstruct(*hodge_decompose(v))
        assert np.max(np.abs(back.samples - v.samples)) <= 1e-13 * np.max(np.abs(v.samples))

    def test_reconstruct_rejects_non_antisymmetric(self, grid8):
        omega = identity_field(grid8)
        with pytest.raises(FieldError):
            hodge_reconstruct(zero_field(ScalarField, grid8), omega)

    def test_example_reconstruction(self, grid16):
        # d = -sin(x1), omega = 0  ->  v = (cos x1, 0, 0)
        f = sin_x1(grid16)
        d = ScalarField(grid16, -f.samples)
        v = hodge_reconstruct(d, zero_field(TensorField, grid16))
        x, _, _ = axes(grid16)
        expected = np.cos(x) + np.zeros(grid16.shape)
        assert np.max(np.abs(v.samples[0] - expected)) < 1e-12
        assert np.max(np.abs(v.samples[1:])) < 1e-13


class TestParsevalOnHalves:
    """Every norm sums over the kz >= 0 half, with weight 1 on the self-mirrored
    kz = 0 and kz = N/2 planes and 2 elsewhere, and equals the grid sum of the
    samples.  N/2 is odd at N = 6 and even at N = 8, 12 and 16; random samples
    fill both self-mirrored planes, the Nyquist plane among them."""

    @pytest.mark.parametrize("cls", [ScalarField, VectorField, TensorField])
    @pytest.mark.parametrize("n", [6, 8, 12, 16])
    def test_norms_equal_grid_sums(self, n, cls):
        grid = Grid(n)
        rng = np.random.default_rng(n + cls.rank)
        u = rng.standard_normal((3,) * cls.rank + grid.shape)
        w = 0.5 * u + rng.standard_normal(u.shape)  # correlated, so <u, w> does not cancel
        fu, fw = cls(grid, u), cls(grid, w)
        cell = grid.cell_volume
        assert inner_product(fu, fw) == pytest.approx(cell * np.sum(u * w), rel=1e-13)
        for norm in (l2_norm(fu), sobolev_norm(fu, 0)):
            assert norm == pytest.approx(np.sqrt(cell * np.sum(u * u)), rel=1e-13)


class TestNormsAndProducts:
    def test_inner_product_sin_sin(self, grid16):
        f = sin_x1(grid16)
        assert inner_product(f, f) == pytest.approx(VOL / 2.0, rel=1e-12)

    def test_inner_product_orthogonality(self, grid16):
        x, y, z = axes(grid16)
        s = sin_x1(grid16)
        c = ScalarField(grid16, np.cos(x) + 0 * y + 0 * z)
        assert abs(inner_product(s, c)) < 1e-12

    def test_h1_norm_example(self, grid16):
        f = sin_x1(grid16)
        assert sobolev_norm(f, 1) ** 2 == pytest.approx(VOL, rel=1e-12)

    def test_h0_equals_l2(self, grid16, rng):
        u = smooth_scalar(grid16, rng)
        assert sobolev_norm(u, 0) == pytest.approx(l2_norm(u), rel=1e-13)

    def test_grid_freed_after_sobolev_norm(self, rng):
        """The Sobolev weights are cached on their grid, so no cache keeps a grid
        alive past its last use."""
        grid = Grid(16)
        ref = weakref.ref(grid)
        u = smooth_scalar(grid, rng)
        assert sobolev_norm(u, 2) > 0.0 and grid.sobolev_weight(0, 2) is grid.sobolev_weight(0, 2)
        del grid, u
        assert ref() is None

    def test_sobolev_rejects_bad_order(self, grid8):
        with pytest.raises(FieldError):
            sobolev_norm(zero_field(ScalarField, grid8), 4)

    def test_antisymmetric_part_exact(self, grid8, rng):
        t = TensorField(grid8, rng.standard_normal((3, 3) + grid8.shape))
        a = antisymmetric_part(t)
        assert np.array_equal(a.half, -np.swapaxes(a.half, 0, 1))

    def test_tensor_inner_product_matches_quadrature(self, grid8, rng):
        t1 = TensorField(grid8, rng.standard_normal((3, 3) + grid8.shape))
        t2 = TensorField(grid8, rng.standard_normal((3, 3) + grid8.shape))
        quad = float((t1.samples * t2.samples).sum()) * grid8.cell_volume
        assert inner_product(t1, t2) == pytest.approx(quad, rel=1e-10)

    def test_generic_multiplier_matches_laplacian(self, grid8, rng):
        from veflow import apply_multiplier

        u = smooth_scalar(grid8, rng)
        sym = -(grid8.xi_mag**2)
        direct = apply_multiplier(u, sym).samples
        assert np.max(np.abs(direct - laplacian(u).samples)) < 1e-13
