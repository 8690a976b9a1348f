"""Shared builders for the test suite."""

import tracemalloc

import numpy as np
from hypothesis import strategies as st

from veflow import (
    DisplacementSpec,
    FlowState,
    FourierMode,
    Grid,
    ScalarField,
    TensorField,
    VectorField,
    cfl_dt,
    curl_matrix,
    inner_product,
    laplacian,
    make_params,
    phys_to_pert,
    piola_ic,
    sample_row,
    step,
)
from veflow.fields import to_samples, to_spectrum
from veflow.semigroup import LinearPropagator

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
    """T^T - T, formed on the spectrum; exactly antisymmetric by construction."""
    spec = t.spectrum
    return TensorField.from_spectrum(t.grid, np.swapaxes(spec, 0, 1) - spec)


def cross_curl_oracle(state: FlowState) -> float:
    """<W, lap(E^T - E)> over all nine slots through the named operators: the
    oracle of the three-slot sum in ``lyapunov_m``."""
    return inner_product(curl_matrix(state.v), laplacian(antisymmetric_part(state.E)))


def lp_norm_oracle(state: FlowState, p: float) -> float:
    """L^p norm of the full triple, one exponent per call (the per-exponent formula)."""
    mag2 = (
        state.n.samples**2
        + (state.v.samples**2).sum(axis=0)
        + (state.E.samples**2).sum(axis=(0, 1))
    )
    return float((np.sum(mag2 ** (p / 2.0)) * state.grid.cell_volume) ** (1.0 / p))


def einsum_apply(prop, n_hat, v_hat, e_hat):
    """``LinearPropagator.apply_spectra`` in its batched form: the deformation
    update built from two 9-component einsum outer products and the frozen part."""
    rhat = prop._rhat
    a = prop.params.a
    p11, p12, p21, p22 = prop._comp
    q11, q12, q21, q22 = prop._shear
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


def traced_peak(fn) -> int:
    """Peak traced bytes above the level at the call, over one call of ``fn``
    (numpy reports its array buffers to tracemalloc)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def step_memory(n: int) -> tuple[float, float]:
    """Traced peaks of one ``step`` and one ``sample_row`` at grid size n, in
    multiples of the state's spectrum bytes (13 complex components).  Each call
    gets the criterion-5 data fresh from a CFL-0.5 step, as ``run`` hands it
    on: its samples are computed on first use, inside the call."""
    grid = Grid(n)
    params = make_params()
    dt = cfl_dt(grid, params, 0.5)
    props = LinearPropagator(grid, params, 0.5 * dt), LinearPropagator(grid, params, dt)
    initial = phys_to_pert(piola_ic(generic_piola_spec(1e-3), grid, params), params, warn=False)
    state = step(initial, params, dt, True, *props)
    size = sum(f.spectrum.nbytes for f in state.fields())
    step_peak = traced_peak(lambda: step(state, params, dt, True, *props))
    fresh = step(state, params, dt, True, *props)
    return step_peak / size, traced_peak(lambda: sample_row(fresh)) / size
