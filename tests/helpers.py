"""Shared builders for the test suite, and the operators and readers that only
the suite uses: the gradient, tensor divergence, matrix curl, fractional
operator and Hodge pair that criterion 8 and the operator identities are
checked with, the per-field mean projection that ``phys_to_pert``'s bits are
pinned against, the reader of the snapshots that ``simulate`` writes, zero
and identity fields, zero states, a record's columns as arrays, and the
samples-difference H2 distance and field-wrapped source evaluation that
``h2_distance`` and ``rhs_spectra`` are checked against, the
full-spectrum states and step that the half-spectrum ``step`` and the
propagator are checked against, the propagator's earlier and vector forms
and the norm of the components the linear flow keeps, the full N^3 Fourier
lattice that the grid's kz >= 0 lattice and the full-spectrum oracles are
built from, the separate-pass gradient that ``samples_and_gradient`` is
checked against, its three scratch buffers and the strided-correction kernel
its bits are pinned to, the per-call row that ``sample_row``'s bits are
pinned to, the counter of the inverse passes that the sources run, and the
slabs that ``fields.each_slab`` walks."""

import contextlib
import dataclasses
import functools
import logging
import tracemalloc
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st

from veflow import (
    BlockSystem,
    DisplacementSpec,
    FlowState,
    FourierMode,
    Grid,
    ScalarField,
    TensorField,
    VectorField,
    cfl_dt,
    constraint_residuals,
    div,
    eta_profile,
    gaussian_profile,
    inner_product,
    l2_norm,
    laplacian,
    lowerbound_profiles,
    make_params,
    phys_to_pert,
    piola_ic,
    sample_row,
    step,
    whole_space_norm,
)
from veflow.diagnostics import D2, _cross_curl
from veflow.errors import FieldError, GridMismatchError
from veflow.fields import (
    each_slab,
    half_to_full,
    product,
    samples_and_gradient,
    to_half_spectrum,
    to_samples,
    to_spectrum,
)
from veflow.operators import apply_multiplier, gradient_sobolev_norm, sobolev_norm
from veflow.params import guard_positive_density, pressure_coefficient
from veflow.semigroup import _SMALL_DIFF, LinearPropagator
from veflow.snapshot import _read_triple
from veflow.sources import _dealiased, _rho_f_of, rhs_spectra
from veflow.state import IDENTITY, MEAN_WARN

logger = logging.getLogger(__name__)

even_n = st.integers(2, 8).map(lambda h: 2 * h)  # N in [4, 16]

# every draw passes make_params: 2 mu + 3 lam >= 0.2 mu > 0, gamma >= 1
valid_params = st.builds(
    lambda mu, lam_ratio, alpha, gamma, pressure_scale: make_params(
        mu=mu, lam=lam_ratio * mu, alpha=alpha, gamma=gamma, pressure_scale=pressure_scale
    ),
    mu=st.floats(0.05, 3.0),
    lam_ratio=st.floats(-0.6, 2.0),
    alpha=st.floats(0.05, 5.0),
    gamma=st.floats(1.0, 4.0),
    pressure_scale=st.floats(0.2, 5.0),
)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: stricter than np.array_equal, for which -0.0 == 0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def full_lattice(grid: Grid) -> SimpleNamespace:
    """The grid's Fourier lattice on all N^3 modes, built here from its formulas
    and independently of ``Grid``, read-only: ``xi`` with its Nyquist planes
    zeroed by ``nyquist_mask``, ``xi_mag``, ``laplacian_symbol``, ``unit_xi``,
    ``radii`` and ``radius_index`` (``np.unique`` of ``xi_mag``), ``dealias_mask``
    and ``sobolev_weight(first, last)``.  The grid keeps the kz >= 0 half of
    each; the full-spectrum oracles read all of it."""
    return _full_lattice(grid.n, grid.length)


@functools.lru_cache(maxsize=4)
def _full_lattice(n: int, length: float) -> SimpleNamespace:
    k1 = np.fft.fftfreq(n, d=1.0 / n)  # exact integers as floats
    kx, ky, kz = k1.reshape(-1, 1, 1), k1.reshape(1, -1, 1), k1.reshape(1, 1, -1)
    nyq = -(n // 2)
    nyquist_mask = (kx != nyq) & (ky != nyq) & (kz != nyq)
    xi = np.stack([(2.0 * np.pi / length) * k * nyquist_mask for k in (kx, ky, kz)])
    xi_mag = np.sqrt((xi**2).sum(axis=0))
    unit_xi = np.where(xi_mag > 0.0, xi / np.where(xi_mag > 0.0, xi_mag, 1.0), 0.0)
    radii, index = np.unique(xi_mag, return_inverse=True)
    lattice = SimpleNamespace(
        nyquist_mask=nyquist_mask,
        xi=xi,
        xi_mag=xi_mag,
        laplacian_symbol=-(xi_mag**2),
        unit_xi=unit_xi,
        radii=radii,
        radius_index=index.reshape(xi_mag.shape),
        dealias_mask=kx**2 + ky**2 + kz**2 <= (n / 3.0) ** 2,
    )
    for array in vars(lattice).values():
        array.setflags(write=False)

    def sobolev_weight(first: int, last: int) -> np.ndarray:
        """sum_{first <= j <= last} |xi|^(2j)."""
        r2 = -lattice.laplacian_symbol
        weight = np.ones(r2.shape) if first == 0 else np.zeros(r2.shape)
        acc = np.ones(r2.shape)
        for _ in range(last):
            acc = acc * r2
            weight = weight + acc
        return weight

    lattice.sobolev_weight = sobolev_weight
    return lattice


def kernel_bufs(grid: Grid) -> tuple:
    """The three scratch buffers of ``samples_and_gradient``: two complex half
    lattices and the (2, N, N/2 + 1) one of its (c, -c) Nyquist pairs."""
    h = grid.half_shape
    return (*np.empty((2,) + h, dtype=np.complex128), np.empty((2,) + h[1:], dtype=np.complex128))


def half_samples(grid: Grid, half_spectrum: np.ndarray) -> np.ndarray:
    """Samples of every component of a kz >= 0 half spectrum, by the samples-only
    form of ``samples_and_gradient``: the bits of ``irfftn(norm="forward")``."""
    out = np.empty(half_spectrum.shape[:-3] + grid.shape)
    bufs = kernel_bufs(grid)
    for comp in np.ndindex(half_spectrum.shape[:-3]):
        samples_and_gradient(grid, half_spectrum[comp], out[comp], None, bufs)
    return out


def smooth_spectrum(grid: Grid, rng, kmax: int, shape=()) -> np.ndarray:
    """Random Hermitian spectrum supported on |k| <= kmax, zero mean."""
    raw = rng.standard_normal(shape + grid.shape)
    spec = to_spectrum(grid, raw)
    k1 = np.fft.fftfreq(grid.n, d=1.0 / grid.n)  # integer wavenumbers as floats
    k2 = k1[:, None, None] ** 2 + k1[None, :, None] ** 2 + k1[None, None, :] ** 2
    spec *= k2 <= kmax**2
    spec[(Ellipsis,) + (0, 0, 0)] = 0.0
    return spec


def smooth_scalar(grid: Grid, rng, kmax: int = None, amp: float = 1.0) -> ScalarField:
    kmax = kmax if kmax is not None else grid.n // 3
    return ScalarField(grid, amp * to_samples(grid, smooth_spectrum(grid, rng, kmax)))


def smooth_vector(grid: Grid, rng, kmax: int = None, amp: float = 1.0) -> VectorField:
    kmax = kmax if kmax is not None else grid.n // 3
    return VectorField(grid, amp * to_samples(grid, smooth_spectrum(grid, rng, kmax, (3,))))


def smooth_tensor(grid: Grid, rng, kmax: int = None, amp: float = 1.0) -> TensorField:
    kmax = kmax if kmax is not None else grid.n // 3
    return TensorField(grid, amp * to_samples(grid, smooth_spectrum(grid, rng, kmax, (3, 3))))


def smooth_state(grid: Grid, rng, amp: float = 1e-2, kmax: int = 3) -> FlowState:
    """Random small mean-zero state, band-limited to |k| <= kmax."""
    return FlowState(
        smooth_scalar(grid, rng, kmax, amp),
        smooth_vector(grid, rng, kmax, amp),
        smooth_tensor(grid, rng, kmax, amp),
    )


def generic_piola_spec(scale: float) -> DisplacementSpec:
    """Multi-mode displacement plus velocity exciting every Hodge sector."""
    return DisplacementSpec(
        phi_modes=(
            FourierMode((1, 0, 0), (0.0, -0.5j, 0.25j)),
            FourierMode((0, 1, 0), (0.3 - 0.1j, 0.0, -0.2j)),
            FourierMode((1, 1, 0), (0.15j, -0.1, 0.05)),
            FourierMode((0, 1, 1), (0.1, 0.2j, -0.15)),
        ),
        u_modes=(
            FourierMode((1, 0, 0), (0.4 - 0.2j, 0.1j, 0.0)),
            FourierMode((0, 0, 1), (0.2, -0.3j, 0.1)),
            FourierMode((1, 0, 1), (0.0, 0.25, -0.1j)),
        ),
        scale=scale,
    )


def single_mode_state(grid: Grid, k, values: np.ndarray, scale: float = 1.0) -> FlowState:
    """State with one excited mode pair; values is the 13-vector (n, v, E-rows)."""
    nhat = np.zeros(grid.shape, complex)
    vhat = np.zeros((3,) + grid.shape, complex)
    ehat = np.zeros((3, 3) + grid.shape, complex)
    idx = tuple(int(kk) % grid.n for kk in k)
    cidx = tuple((-int(kk)) % grid.n for kk in k)
    u = np.asarray(values, dtype=complex) * scale
    nhat[idx] = u[0]
    nhat[cidx] = np.conj(u[0])
    for i in range(3):
        vhat[(i,) + idx] = u[1 + i]
        vhat[(i,) + cidx] = np.conj(u[1 + i])
        for j in range(3):
            ehat[(i, j) + idx] = u[4 + 3 * i + j]
            ehat[(i, j) + cidx] = np.conj(u[4 + 3 * i + j])
    return FlowState(
        ScalarField(grid, to_samples(grid, nhat)),
        VectorField(grid, to_samples(grid, vhat)),
        TensorField(grid, to_samples(grid, ehat)),
    )


def dense_linear_generator(xi: np.ndarray, params) -> np.ndarray:
    """Per-mode 13x13 generator of the linearized system, for expm oracles."""
    a = params.a
    L = np.zeros((13, 13), dtype=complex)

    def eidx(i, j):
        return 4 + 3 * i + j

    xi2 = float(np.dot(xi, xi))
    for j in range(3):
        L[0, 1 + j] = -1j * xi[j]
    for i in range(3):
        L[1 + i, 1 + i] += -params.mu * xi2
        for j in range(3):
            L[1 + i, 1 + j] += -(params.lam + params.mu) * xi[i] * xi[j]
        L[1 + i, 0] = -1j * xi[i]
        for j in range(3):
            L[1 + i, eidx(i, j)] = a * 1j * xi[j]
            L[eidx(i, j), 1 + i] = 1j * xi[j]
    return L


def random_spectra(grid, seed):
    """Hermitian (n, v, E) spectra on every mode, zero mode and Nyquist planes too."""
    rng = np.random.default_rng(seed)
    return tuple(
        to_spectrum(grid, rng.standard_normal(shape + grid.shape))
        for shape in ((), (3,), (3, 3))
    )


def antisymmetric_part(t: TensorField) -> TensorField:
    """T^T - T, formed on the half; exactly antisymmetric by construction."""
    half = t.half
    return TensorField.from_half_spectrum(t.grid, np.swapaxes(half, 0, 1) - half)


def cross_curl_oracle(state: FlowState) -> float:
    """<W, lap(E^T - E)> over all nine slots through the named operators: the
    oracle of the three-slot sum behind ``sample_row``'s cross2."""
    return inner_product(curl_matrix(state.v), laplacian(antisymmetric_part(state.E)))


def lp_norm_oracle(state: FlowState, p: float) -> float:
    """L^p norm of the full triple through its pointwise magnitude: criterion 9's
    L4 and L6, which the box solver's rows do not carry."""
    mag2 = (
        state.n.samples**2
        + (state.v.samples**2).sum(axis=0)
        + (state.E.samples**2).sum(axis=(0, 1))
    )
    return float((np.sum(mag2 ** (p / 2.0)) * state.grid.cell_volume) ** (1.0 / p))


def antisymmetric_slot_max(grid: Grid, first: np.ndarray) -> float:
    """max over (i, j, k) of ||first[i, j, k] - first[i, k, j]|| by grid Parseval, over
    j < k only: j = k slots are exactly 0 and (i, k, j) exactly negates (i, j, k)."""
    j, k = np.triu_indices(3, 1)
    expr = first[:, j, k] - first[:, k, j]
    return float(np.sqrt(grid.cell_volume * np.sum(expr**2, axis=(-3, -2, -1))).max())


def separate_pass_gradient(grid: Grid, half_spectrum: np.ndarray) -> np.ndarray:
    """Physical d_l of every component of a half spectrum, out[l, ...] = d_l u[...],
    each derivative by its own three inverse passes: 1j xi_l u_hat is formed one
    component at a time in one buffer and transformed by the samples-only form
    of ``samples_and_gradient``.  The independent oracle of its gradient."""
    out = np.empty((3,) + half_spectrum.shape[:-3] + grid.shape)
    buf = np.empty(grid.half_shape, dtype=np.complex128)
    bufs = kernel_bufs(grid)
    for l in range(3):
        for comp in np.ndindex(half_spectrum.shape[:-3]):
            product(grid.xi[l], half_spectrum[comp], out=buf)
            buf *= 1j
            samples_and_gradient(grid, buf, out[(l,) + comp], None, bufs)
    return out


def shared_pass_gradient(grid: Grid, half_spectrum: np.ndarray) -> np.ndarray:
    """Physical d_l of every component of a half spectrum, out[l, ...] = d_l u[...],
    by ``samples_and_gradient`` one component at a time: the gradient bits of
    ``rhs_spectra`` and ``constraint_residuals``."""
    out = np.empty((3,) + half_spectrum.shape[:-3] + grid.shape)
    bufs = kernel_bufs(grid)
    for comp in np.ndindex(half_spectrum.shape[:-3]):
        samples_and_gradient(grid, half_spectrum[comp], None, out[(slice(None),) + comp], bufs)
    return out


def strided_samples_and_gradient(grid: Grid, half, samples_out, grad_out, bufs) -> None:
    """``samples_and_gradient`` with each x-parity Nyquist correction as two
    strided passes, one over the even and one over the odd x-planes: the
    reference its fused corrections are pinned to, bit for bit."""
    b0, b1, _ = bufs
    h = grid.n // 2
    np.fft.ifft(half, axis=0, norm="forward", out=b0)
    np.fft.ifft(b0, axis=1, norm="forward", out=b1)
    if samples_out is not None:
        np.fft.irfft(b1, n=grid.n, axis=2, norm="forward", out=samples_out)
    if grad_out is None:
        return
    nyquist = half[h]
    b0[0::2] -= nyquist
    b0[1::2] += nyquist
    plane = np.fft.ifft(nyquist, axis=0, norm="forward")
    b1[0::2] -= plane
    b1[1::2] += plane
    row = b0[:, h]
    b1.reshape(grid.n, h, 2 * h + 2)[...] -= np.concatenate((row, -row), axis=-1)[:, np.newaxis]
    b1 *= 1j * grid.xi[2, 0, 0]
    np.fft.irfft(b1, n=grid.n, axis=2, norm="forward", out=grad_out[2])
    b0 *= 1j * grid.xi[1, 0]
    np.fft.ifft(b0, axis=1, norm="forward", out=b0)
    np.fft.irfft(b0, n=grid.n, axis=2, norm="forward", out=grad_out[1])
    product(grid.xi[0], half, out=b0)
    b0 *= 1j
    np.fft.ifft(b0, axis=0, norm="forward", out=b0)
    np.fft.ifft(b0, axis=1, norm="forward", out=b0)
    np.fft.irfft(b0, n=grid.n, axis=2, norm="forward", out=grad_out[0])


def per_call_row(state: FlowState, residuals) -> dict:
    """The row of ``sample_row`` built column by column from one norm call per
    field and column, each forming the field's |u_hat|^2 itself: the reference
    that the row's one power per field is pinned to, bit for bit."""
    grad = [gradient_sobolev_norm(f, 1) ** 2 for f in state.fields()]
    cross1 = inner_product(div(state.v), laplacian(state.n))
    cross2 = _cross_curl(state)
    return {
        "t": state.time,
        "L2_n": l2_norm(state.n),
        "L2_v": l2_norm(state.v),
        "L2_E": l2_norm(state.E),
        "H1g": np.sqrt(sum(grad)),
        "H2": state.h_norm(2),
        "M": D2 * sum(grad) + cross1 + cross2,
        "cross1": cross1,
        "cross2": cross2,
        "r1": residuals.r1,
        "r2": residuals.r2,
        "r3": residuals.r3,
        "diss1_inst": grad[0] + grad[2],
        "diss2_inst": gradient_sobolev_norm(state.v, 2) ** 2,
    }


def r2_oracle(obj) -> float:
    """r2 of ``constraint_residuals`` in its 27-slot form: all 27 gradients
    d_l F^{ij} at once, the product first[i, j, k] = F^{lk} d_l F^{ij} in one
    einsum, then the slot differences."""
    grid, _, F = _rho_f_of(obj)
    dF = shared_pass_gradient(grid, to_half_spectrum(grid, F))
    first = np.einsum("lk...,lij...->ijk...", F, dF)
    return antisymmetric_slot_max(grid, first)


def gathered_entries(prop) -> np.ndarray:
    """The 8 block entries of a ``LinearPropagator`` on the full lattice, rows
    p11, p12, p21, p22 of the compressible block and then of the shear block: the
    real part of its per-radius table gathered through the full lattice's radius
    index, whose radii are the grid's bit for bit."""
    return np.take(prop._table.real, full_lattice(prop.grid).radius_index, axis=1)


def einsum_apply(prop, n_hat, v_hat, e_hat):
    """``LinearPropagator.apply_spectra`` in its batched form, on every mode at
    once, each product as in its slab update but with the real entries and
    unit wavevectors, which numpy casts to complex in each product.  It takes
    full spectra or the kz >= 0 halves, slicing the full lattice's arrays to
    the last axis it is given."""
    m = n_hat.shape[-1]
    rhat = full_lattice(prop.grid).unit_xi[..., :m]
    a = prop.params.a
    p11, p12, p21, p22, q11, q12, q21, q22 = gathered_entries(prop)[..., :m]
    vpar = rhat[0] * v_hat[0] + rhat[1] * v_hat[1] + rhat[2] * v_hat[2]
    c = e_hat[:, 0] * rhat[0] + e_hat[:, 1] * rhat[1] + e_hat[:, 2] * rhat[2]
    cpar = rhat[0] * c[0] + rhat[1] * c[1] + rhat[2] * c[2]
    s = n_hat + cpar
    n_star = (a / (1.0 + a)) * s
    d0 = 1j * vpar
    n1 = p11 * n_hat + p12 * d0 + (1.0 - p11) * n_star
    d1 = p21 * n_hat + p22 * d0 - p21 * n_star
    cperp = c - cpar * rhat
    vperp = v_hat - vpar * rhat
    v1 = 1j * q21 * cperp + q22 * vperp + -1j * d1 * rhat
    c1 = q11 * cperp + -1j * q12 * vperp + (s - n1) * rhat
    e1 = c1[:, None] * rhat + (e_hat - c[:, None] * rhat)
    return n1, v1, e1


def vector_form_apply(prop, n_hat, v_hat, e_hat):
    """The propagator's update in vector form, the round-off oracle of the
    split form: no transverse part is formed, and E1 = E + (c1 - c) r^T, with
    v1 = (i q21) c + q22 v + alpha r and c1 - c = (q11 - 1) c - (i q12) v + beta r
    for the two scalars alpha and beta of each mode.  Full spectra or kz >= 0
    halves, as ``einsum_apply``."""
    m = n_hat.shape[-1]
    rhat = full_lattice(prop.grid).unit_xi[..., :m]
    a = prop.params.a
    p11, p12, p21, p22, q11, q12, q21, q22 = gathered_entries(prop)[..., :m]
    vpar = rhat[0] * v_hat[0] + rhat[1] * v_hat[1] + rhat[2] * v_hat[2]
    c = e_hat[:, 0] * rhat[0] + e_hat[:, 1] * rhat[1] + e_hat[:, 2] * rhat[2]
    cpar = rhat[0] * c[0] + rhat[1] * c[1] + rhat[2] * c[2]
    s = n_hat + cpar
    n_star = (a / (1.0 + a)) * s
    d0 = 1j * vpar
    n1 = p11 * n_hat + p12 * d0 + (1.0 - p11) * n_star
    d1 = p21 * n_hat + p22 * d0 - p21 * n_star
    alpha = -1j * d1 - 1j * q21 * cpar - q22 * vpar
    beta = s - n1 - q11 * cpar + 1j * q12 * vpar
    v1 = 1j * q21 * c + q22 * v_hat + alpha * rhat
    dc = (q11 - 1.0) * c - 1j * q12 * v_hat + beta * rhat
    e1 = e_hat + dc[:, None] * rhat
    return n1, v1, e1


def frozen_part_apply(prop, n_hat, v_hat, e_hat):
    """The propagator's update as it was written before its entries took the
    factors i and -i of the shear block: the transverse pairs x0 = i c_perp and
    v_perp advanced by the shear block, c1 = r.c1 r - i x1 and
    v1 = r.v1 r + y1, E1 = c1 r^T + (E - c r^T), the contractions and outer
    products by einsum.  Full spectra or kz >= 0 halves, as ``einsum_apply``."""
    m = n_hat.shape[-1]
    rhat = full_lattice(prop.grid).unit_xi[..., :m]
    a = prop.params.a
    p11, p12, p21, p22, q11, q12, q21, q22 = gathered_entries(prop)[..., :m]
    vpar = np.einsum("j...,j...->...", rhat, v_hat)
    d0 = 1j * vpar
    c = np.einsum("ij...,j...->i...", e_hat, rhat)
    cpar = np.einsum("i...,i...->...", rhat, c)
    s = n_hat + cpar
    n_star = (a / (1.0 + a)) * s
    n1 = p11 * n_hat + p12 * d0 + (1.0 - p11) * n_star
    d1 = p21 * n_hat + p22 * d0 - p21 * n_star
    cpar1 = s - n1
    vpar1 = -1j * d1
    cperp = c - cpar * rhat
    vperp = v_hat - vpar * rhat
    x0 = 1j * cperp
    x1 = q11 * x0 + q12 * vperp
    y1 = q21 * x0 + q22 * vperp
    cperp1 = -1j * x1
    frozen = e_hat - np.einsum("i...,j...->ij...", c, rhat)
    c1 = cpar1 * rhat + cperp1
    v1 = vpar1 * rhat + y1
    e1 = np.einsum("i...,j...->ij...", c1, rhat) + frozen
    return n1, v1, e1


def kept_norm(grid: Grid, n_hat: np.ndarray, e_hat: np.ndarray) -> float:
    """K = ||(s, E (I - r r^T))|| over the kz >= 0 halves, with r the grid's unit
    wavevectors and s = n + r.E r: the components of each mode that the linear
    flow keeps (n and E where r = 0), computed from n and E directly."""
    r = grid.unit_xi
    c = np.einsum("ij...,j...->i...", e_hat, r)
    s = n_hat + np.einsum("i...,i...->...", r, c)
    perp = e_hat - c[:, None] * r
    return float(np.sqrt(np.sum(np.abs(s) ** 2) + np.sum(np.abs(perp) ** 2)))


def masked_block_entries(nu: float, b: float, r: np.ndarray, t: float):
    """``block_entries`` written out with a masked subset per branch, also when
    the branch covers all or none of the radii: the bits it must keep."""
    r = np.asarray(r, dtype=float)
    r2 = r * r
    disc = (nu * r2) ** 2 - 4.0 * b * r2
    sigma = -0.5 * nu * r2
    d = np.empty_like(r)
    p11 = np.empty_like(r)
    osc = disc < 0.0
    s = sigma[osc]
    beta = np.sqrt(-disc[osc]) * 0.5
    env = np.exp(s * t)
    d_osc = env * t * np.sinc(beta * t / np.pi)
    d[osc] = d_osc
    p11[osc] = env * np.cos(beta * t) - s * d_osc
    over = ~osc
    h = np.sqrt(disc[over]) * 0.5
    km = sigma[over] - h
    dk_t = 2.0 * h * t
    exp_km = np.exp(km * t)
    d_over = np.empty_like(h)
    big = dk_t > _SMALL_DIFF
    hb = h[big]
    d_over[big] = (np.exp((km[big] + 2.0 * hb) * t) - exp_km[big]) / (2.0 * hb)
    small = ~big
    z = dk_t[small]
    phi = np.where(z > 0.0, np.expm1(z) / np.where(z > 0.0, z, 1.0), 1.0)
    d_over[small] = exp_km[small] * t * phi
    d[over] = d_over
    p11[over] = exp_km - km * d_over
    return p11, -r * d, b * r * d, p11 - nu * r2 * d


@contextlib.contextmanager
def _tracing():
    """tracemalloc on for the block, and off after it unless it was on before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        yield
    finally:
        if not tracing:
            tracemalloc.stop()


def traced_peak(fn) -> int:
    """Peak traced bytes above the level at the call, over one call of ``fn``
    (numpy reports its array buffers to tracemalloc)."""
    with _tracing():
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base


def stepped(n: int):
    """(state, step of it) for the criterion-5 data at grid size n: the state is
    one CFL-0.5 step from the initial data, as ``run`` hands it on, and the step
    function runs one more step of its argument with the run's propagators."""
    grid = Grid(n)
    params = make_params()
    dt = cfl_dt(grid, params, 0.5)
    props = LinearPropagator(grid, params, 0.5 * dt), LinearPropagator(grid, params, dt)
    initial = phys_to_pert(piola_ic(generic_piola_spec(1e-3), grid, params), params, warn=False)
    return step(initial, params, dt, True, *props), lambda st: step(st, params, dt, True, *props)


def step_memory(n: int) -> tuple[float, float, float]:
    """Traced peaks of one ``step``, one cold ``sample_row`` and one warm
    ``sample_row`` at grid size n, in multiples of the state's full spectrum
    bytes (13 complex components).  Each call gets the criterion-5 data fresh
    from a CFL-0.5 step, as ``run`` hands it on: a state of kz >= 0 halves,
    whose samples are computed on first use, inside the call.  The cold sample
    is the grid's first, so its peak also holds the Sobolev weights that it
    caches on the grid; the warm one samples a second state of the same grid,
    one more step on, and holds the per-sample memory only.  Tracing starts
    before each sampled state is built."""
    state, advance = stepped(n)
    size = 13 * n**3 * np.dtype(np.complex128).itemsize
    step_peak = traced_peak(lambda: advance(state))
    with _tracing():
        fresh = advance(state)
        row_peak = traced_peak(lambda: sample_row(fresh))
        second = advance(fresh)
        warm_peak = traced_peak(lambda: sample_row(second))
    return step_peak / size, row_peak / size, warm_peak / size


def _retained(n: int, sampled: bool) -> int:
    state, advance = stepped(n)
    with _tracing():
        base = tracemalloc.get_traced_memory()[0]
        fresh = advance(state)  # alive while the level is read
        if sampled:
            sample_row(fresh)
        return tracemalloc.get_traced_memory()[0] - base


def state_retained(n: int) -> int:
    """Traced bytes that one unsampled stepped state at grid size n keeps: its
    three kz >= 0 halves and n's samples, which the vacuum check reads."""
    return _retained(n, False)


def sampled_state_retained(n: int) -> int:
    """Traced bytes that one stepped state at grid size n keeps after
    ``sample_row``: its three kz >= 0 halves and the samples of n and E, which
    the vacuum check and the residuals read, plus the three Sobolev weights
    that this first sample caches on the grid."""
    return _retained(n, True)


def propagator_retained(n: int) -> int:
    """Traced bytes that one ``LinearPropagator`` at grid size n keeps after its
    build, on a grid whose lattice arrays (unit wavevectors, radius index) an
    earlier propagator has already cached."""
    grid = Grid(n)
    params = make_params()
    LinearPropagator(grid, params, 0.1)
    with _tracing():
        base = tracemalloc.get_traced_memory()[0]
        prop = LinearPropagator(grid, params, 0.2)  # alive while the level is read
        return tracemalloc.get_traced_memory()[0] - base


def lattice_retained(n: int) -> int:
    """Bytes of every lattice array that a grid of size n caches over one step
    and one ``sample_row`` of the criterion-5 data: the wavevectors, their
    magnitudes and unit vectors, the Laplacian symbol, the distinct radii and
    their index, the 2/3 mask and the Sobolev weights."""
    state, advance = stepped(n)
    sample_row(advance(state))
    cached = []
    for value in vars(state.grid).values():  # n, length and the cached arrays
        if isinstance(value, dict):  # the Sobolev weights
            value = tuple(value.values())
        cached += value if isinstance(value, tuple) else [value]
    return sum(a.nbytes for a in cached if isinstance(a, np.ndarray))


def walked_slabs(grid: Grid, plane_bytes: int) -> list:
    """The slabs that ``fields.each_slab`` walks for planes of ``plane_bytes``,
    in plane order."""
    walked = []
    each_slab(grid, plane_bytes, lambda x, _: walked.append(x))
    return sorted(walked, key=lambda x: x.start)


def inverse_passes(fn) -> int:
    """Full-size one-dimensional inverse passes over one call of ``fn``: the
    ``numpy.fft.ifft`` and ``numpy.fft.irfft`` calls on a three-axis array.
    The transform layer calls both through ``numpy.fft``; the small pass on one
    Nyquist plane of ``samples_and_gradient`` is not counted, and neither are
    the n-d transforms (``ifftn`` runs its passes inside numpy).  Each pass is
    one ``list.append``, atomic under the GIL, so the passes that the two
    workers of ``fields.each`` run at once are all counted."""
    passes = []
    originals = np.fft.ifft, np.fft.irfft

    def counted(original):
        def call(a, *args, **kwargs):
            if np.ndim(a) == 3:
                passes.append(None)
            return original(a, *args, **kwargs)
        return call

    np.fft.ifft, np.fft.irfft = map(counted, originals)
    try:
        fn()
    finally:
        np.fft.ifft, np.fft.irfft = originals
    return len(passes)


def source_passes(n: int) -> tuple[int, int]:
    """Full-size inverse passes (:func:`inverse_passes`) of one ``rhs_spectra``
    and one ``constraint_residuals`` call on a stepped state of the
    criterion-5 data at grid size n, sampled first so that no field view is
    formed inside the count."""
    state, _ = stepped(n)
    sample_row(state)
    params = make_params()
    return (inverse_passes(lambda: rhs_spectra(state, params)),
            inverse_passes(lambda: constraint_residuals(state)))


def whole_space_nodes() -> int:
    """Integrand nodes that the eight default whole-space series evaluate, counted
    through ``profile.first``: ``linear-decay``'s k = 0 and 1 norms of both blocks
    on log:1:1e4:64, and both components of ``lower-bound`` at c0 = 1 and at
    eta = 1 on log:10:1e4:64, all at width 1 and the default parameters."""
    params = make_params()
    comp, shear = BlockSystem.compressible(params), BlockSystem.shear(params)
    gauss = gaussian_profile(amp_first=1.0, amp_second=1.0)
    decay, band = np.logspace(0.0, 4.0, 64), np.logspace(1.0, 4.0, 64)
    plan = ((comp, gauss, decay, "k"), (shear, gauss, decay, "k"),
            (comp, lowerbound_profiles(1.0), band, "component"),
            (comp, eta_profile(1.0), band, "component"))
    seen = []
    for system, profile, tgrid, key in plan:
        first = profile.first
        counted = dataclasses.replace(profile, first=lambda r: seen.append(np.size(r)) or first(r))
        for value in (0, 1):
            for t in tgrid:
                whole_space_norm(counted, system, float(t), **{key: value})
    return sum(seen)


# ---------------------------------------------------------------------------
# operators only the suite uses, in the package's conventions:
# (grad v)^{ij} = d_j v^i, (div T)^i = d_j T^{ij}, W^{ij} = d_j v^i - d_i v^j,
# lam(u, s) = F^-1(|xi|^s u_hat); the Hodge pair is d = lam^-1 div v and
# omega = lam^-1 W, inverted by v^i = -lam^-1 d_i d + lam^-1 d_j omega^{ji}

def lam_symbol(grid: Grid, s: float) -> np.ndarray:
    """|xi|^s on the grid's Nyquist-zeroed kz >= 0 lattice; zero mode maps to 0
    for every s."""
    r = grid.xi_mag
    out = np.zeros_like(r)
    nz = r > 0.0
    if s == 0.0:
        out[nz] = 1.0
    else:
        out[nz] = r[nz] ** s
    return out


def _grad_symbols(grid: Grid) -> np.ndarray:
    """i*xi_j on the kz >= 0 half, masked on the Nyquist planes as well:
    ``grid.xi`` is already zero there."""
    return 1j * grid.xi * full_lattice(grid).nyquist_mask[..., : grid.n // 2 + 1]


def grad(f: ScalarField) -> VectorField:
    sym = _grad_symbols(f.grid)
    return VectorField.from_half_spectrum(f.grid, sym * f.half[np.newaxis])


def lam(field, s: float):
    return apply_multiplier(field, lam_symbol(field.grid, s))


def grad_vector(v: VectorField) -> TensorField:
    """(grad v)^{ij} = d_j v^i."""
    sym = _grad_symbols(v.grid)
    return TensorField.from_half_spectrum(v.grid, v.half[:, np.newaxis] * sym[np.newaxis, :])


def div_tensor(t: TensorField) -> VectorField:
    """(div T)^i = d_j T^{ij}."""
    sym = _grad_symbols(t.grid)
    return VectorField.from_half_spectrum(t.grid, (t.half * sym[np.newaxis, :]).sum(axis=1))


def curl_matrix(v: VectorField) -> TensorField:
    """W^{ij} = d_j v^i - d_i v^j (antisymmetric matrix curl)."""
    gv = grad_vector(v).half
    return TensorField.from_half_spectrum(v.grid, gv - np.swapaxes(gv, 0, 1))


def spectrum_field(cls, grid: Grid, spectrum: np.ndarray):
    """The field of class ``cls`` of a full spectrum: a copy of its kz >= 0 half,
    and its inverse transform as the samples."""
    field = cls.from_half_spectrum(grid, spectrum[..., : grid.n // 2 + 1])
    field.samples = to_samples(grid, spectrum)
    return field


def project_mean_zero(field, warn: bool = True, label: str = "field"):
    """Zero the k = 0 coefficient of every component of the complex spectrum of
    the field's samples: the :func:`spectrum_field` of that spectrum."""
    spec = to_spectrum(field.grid, field.samples)
    zero = (Ellipsis,) + (0, 0, 0)
    worst = float(np.max(np.abs(spec[zero])))
    if warn and worst > MEAN_WARN:
        logger.warning("projecting %s mean of size %.3e to zero", label, worst)
    spec[zero] = 0.0
    return spectrum_field(type(field), field.grid, spec)


def projected_phys_to_pert(phys, params, warn: bool = True) -> FlowState:
    """``phys_to_pert`` through fields of the three samples, each projected to
    mean zero by :func:`project_mean_zero`, which transforms it again."""
    grid = phys.grid
    n = ScalarField(grid, phys.rho.samples - 1.0)
    v = VectorField(grid, params.chi0 * phys.u.samples)
    E = TensorField(grid, phys.F.samples - IDENTITY)
    n = project_mean_zero(n, warn=warn, label="n")
    v = project_mean_zero(v, warn=warn, label="v")
    E = project_mean_zero(E, warn=warn, label="E")
    return FlowState(n, v, E)


def hodge_decompose(v: VectorField) -> tuple[ScalarField, TensorField]:
    """Split v into (d, omega): compressible scalar and transverse antisymmetric matrix."""
    v = project_mean_zero(v, label="velocity")
    d = lam(div(v), -1.0)
    omega = lam(curl_matrix(v), -1.0)
    return d, omega


def hodge_reconstruct(d: ScalarField, omega: TensorField) -> VectorField:
    """Inverse of :func:`hodge_decompose`; omega must be antisymmetric."""
    if omega.grid != d.grid:
        raise GridMismatchError("d and omega live on different grids")
    asym = np.max(np.abs(omega.half + np.swapaxes(omega.half, 0, 1)))
    scale = float(np.max(np.abs(omega.half))) or 1.0
    if asym > 1e-10 * scale:
        raise FieldError(f"omega is not antisymmetric (defect {asym:.3e})")
    d = project_mean_zero(d, label="d")
    omega = project_mean_zero(omega, label="omega")
    sym = _grad_symbols(d.grid)
    grad_part = sym * d.half[np.newaxis]
    curl_part = (sym[:, np.newaxis] * omega.half).sum(axis=0)  # d_j omega^{ji}
    inv = lam_symbol(d.grid, -1.0)
    return VectorField.from_half_spectrum(d.grid, inv * (curl_part - grad_part))


def hermitian_defect(spectrum: np.ndarray) -> float:
    """Max |u_hat(k) - conj(u_hat(-k))| over the lattice."""
    flipped = spectrum
    for ax in (-3, -2, -1):
        flipped = np.flip(np.roll(flipped, -1, axis=ax), axis=ax)
    return float(np.max(np.abs(spectrum - np.conj(flipped))))


def axes(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Open (broadcastable) coordinate arrays along each axis."""
    x = np.arange(grid.n) * grid.spacing
    return (
        x.reshape(-1, 1, 1),
        x.reshape(1, -1, 1),
        x.reshape(1, 1, -1),
    )


def read_state(directory, prefix: str = "state", time: float = 0.0) -> FlowState:
    return FlowState(*_read_triple(directory, ("n", "v", "E"), prefix), time)


# ---------------------------------------------------------------------------
# accessors that only the suite uses, and the earlier forms of two
# computations that src/ is pinned against


def zero_field(cls, grid: Grid):
    """The field of class ``cls`` that is zero everywhere."""
    return cls(grid, np.zeros((3,) * cls.rank + grid.shape))


def identity_field(grid: Grid) -> TensorField:
    """The deformation gradient I at every grid point."""
    return TensorField(grid, np.broadcast_to(IDENTITY, (3, 3) + grid.shape))


def zero_state(grid: Grid) -> FlowState:
    return FlowState(*(zero_field(c, grid) for c in (ScalarField, VectorField, TensorField)))


def column(record, name: str) -> np.ndarray:
    """One sampled column of a ``TimeSeriesRecord`` as a float array."""
    return np.asarray(record.columns[name], dtype=float)


def samples_h2_distance(a: FlowState, b: FlowState) -> float:
    """``h2_distance`` formed from the difference of the samples, each
    difference transformed to its spectrum again."""
    total = 0.0
    for fa, fb in zip(a.fields(), b.fields()):
        total += sobolev_norm(type(fa)(a.grid, fa.samples - fb.samples), 2) ** 2
    return float(np.sqrt(total))


def field_pressure_coefficient(n: ScalarField, params) -> ScalarField:
    """The pressure coefficient of a field n, guarded on its own and wrapped
    in a field."""
    base = 1.0 + n.samples
    guard_positive_density(base)
    return ScalarField(n.grid, base ** (params.gamma - 2.0) - 1.0)


def field_wrapped_rhs_spectra(state: FlowState, params, dealias: bool = True):
    """``rhs_spectra`` with 1 + n formed three times, the pressure coefficient
    taken from :func:`field_pressure_coefficient`, all 27 components of grad E
    formed at once and every contraction on the whole lattice; g's elastic
    term is summed one column of E at a time, as ``rhs_spectra`` sums it.  The
    v and E samples are formed from the state's half spectra, and the sources
    are returned as dealiased half spectra."""
    grid = state.grid
    n = state.n.samples
    guard_positive_density(1.0 + n)
    v_hat = state.v.half
    v = half_samples(grid, v_hat)
    E = half_samples(grid, state.E.half)
    dn = shared_pass_gradient(grid, state.n.half)
    dv = shared_pass_gradient(grid, v_hat)
    f = -n * (dv[0, 0] + dv[1, 1] + dv[2, 2])
    f -= np.einsum("j...,j...->...", v, dn)
    g_n = _dealiased(grid, f, dealias)
    xi = grid.xi
    xiv = np.einsum("j...,j...->...", xi, v_hat)
    visc_hat = -params.mu * grid.xi_mag**2 * v_hat - (params.lam + params.mu) * product(xi, xiv)
    visc = half_samples(grid, visc_hat)
    dE = shared_pass_gradient(grid, state.E.half)
    columns = [np.einsum("j...,ji...->i...", E[:, k], dE[:, :, k]) for k in range(3)]
    g = params.a * (columns[0] + columns[1] + columns[2])
    g -= product(n / (1.0 + n), visc)
    g -= np.einsum("j...,ji...->i...", v, dv)
    g -= product(field_pressure_coefficient(state.n, params).samples, dn)
    g_v = _dealiased(grid, g, dealias)
    h = np.einsum("ki...,kj...->ij...", dv, E)
    h -= np.einsum("k...,kij...->ij...", v, dE)
    return g_n, g_v, _dealiased(grid, h, dealias)


# ---------------------------------------------------------------------------
# the full-spectrum step, the round-off oracle of the half-spectrum one: its
# sources are c2c spectra of products of c2c samples, and the propagator and
# the midpoint sums run on every mode of the lattice


def full_spectra(state: FlowState) -> tuple:
    """The mirrors of the state's three halves: its full spectra."""
    return tuple(half_to_full(state.grid, f.half) for f in state.fields())


def full_spectrum_rhs_spectra(state: FlowState, params, dealias: bool = True):
    """The three source spectra on the full lattice: v and E samples from the
    full spectra by ``to_samples``, every source transformed by ``to_spectrum``
    and masked by the full 2/3 mask."""
    grid = state.grid
    n = state.n.samples
    v_hat = state.v.half
    v = to_samples(grid, half_to_full(grid, v_hat))
    E = to_samples(grid, half_to_full(grid, state.E.half))

    def dealiased(phys):
        spec = to_spectrum(grid, phys)
        if dealias:
            spec *= full_lattice(grid).dealias_mask
        return spec

    dn = separate_pass_gradient(grid, state.n.half)
    dv = separate_pass_gradient(grid, v_hat)
    f = -n * (dv[0, 0] + dv[1, 1] + dv[2, 2])
    f -= np.einsum("j...,j...->...", v, dn)
    xi = grid.xi
    xiv = np.einsum("j...,j...->...", xi, v_hat)
    visc_hat = params.mu * grid.laplacian_symbol * v_hat - (
        params.lam + params.mu
    ) * product(xi, xiv)
    visc = half_samples(grid, visc_hat)
    dE = separate_pass_gradient(grid, state.E.half)
    h = np.einsum("ki...,kj...->ij...", dv, E)
    h -= np.einsum("k...,kij...->ij...", v, dE)
    rho = 1.0 + n
    guard_positive_density(rho)
    g = params.a * np.einsum("jk...,jik...->i...", E, dE)
    g -= product(n / rho, visc)
    g -= np.einsum("j...,ji...->i...", v, dv)
    g -= product(pressure_coefficient(rho, params), dn)
    return dealiased(f), dealiased(g), dealiased(h)


def full_state(grid: Grid, n_hat, v_hat, e_hat, time: float) -> FlowState:
    """The state of the :func:`spectrum_field` fields of three full spectra, as
    ``phys_to_pert`` builds it, the mean modes zeroed in place."""
    n_hat[0, 0, 0] = 0.0
    v_hat[:, 0, 0, 0] = 0.0
    e_hat[:, :, 0, 0, 0] = 0.0
    return FlowState(
        spectrum_field(ScalarField, grid, n_hat),
        spectrum_field(VectorField, grid, v_hat),
        spectrum_field(TensorField, grid, e_hat),
        time,
    )


def full_spectrum_step(state: FlowState, params, dt: float, dealias: bool = True) -> FlowState:
    """One exponential-midpoint step with every spectrum on the full lattice,
    the propagator applied in its batched form (``einsum_apply``)."""
    grid = state.grid
    half_prop = LinearPropagator(grid, params, 0.5 * dt)
    full_prop = LinearPropagator(grid, params, dt)
    spectra = full_spectra(state)
    gs = full_spectrum_rhs_spectra(state, params, dealias)
    hs = einsum_apply(half_prop, *spectra)
    mid = full_state(
        grid, *(h + 0.5 * dt * g for g, h in zip(gs, hs)), state.time + 0.5 * dt
    )
    ks = einsum_apply(half_prop, *full_spectrum_rhs_spectra(mid, params, dealias))
    fs = einsum_apply(full_prop, *spectra)
    return full_state(grid, *(f + dt * k for k, f in zip(ks, fs)), state.time + dt)


def max_relative_gap(a: FlowState, b: FlowState) -> float:
    """max over the three components of max |a_hat - b_hat| / max |b_hat|, on
    the halves, whose mirrors hold the same moduli."""
    return max(
        float(np.max(np.abs(fa.half - fb.half)) / np.max(np.abs(fb.half)))
        for fa, fb in zip(a.fields(), b.fields())
    )
