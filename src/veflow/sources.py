"""Nonlinear source terms and constraint residuals, pseudo-spectrally.

With the convention (grad v)^{ij} = d_j v^i the perturbation system reads

    n_t + div v                                   = f - v.grad n
    v_t - mu lap v - (lam+mu) grad div v
        + grad n - a div E                        = g
    E_t - grad v                                  = h - v.grad E

with  f = -n div v,  h = (grad v) E  and

    g^i = a E^{jk} d_j E^{ik}
        - n/(1+n) (mu lap v^i + (lam+mu) d_i div v)
        - v.grad v^i
        - (P'(1+n)/((1+n) P'(1)) - 1) d_i n.

Derivatives are spectral, products are formed pointwise in physical space,
and every quadratic output is cleaned with the spherical 2/3 rule.  The
1/(1+n) factors are evaluated pointwise (no series truncation) from one
array rho = 1 + n, whose one vacuum guard aborts when min(rho) <= 0.5.

Constraint residuals, reported as L2 norms:

    r1 = ||d_j(rho F^{jk})||                 (momentum-compatible density)
    r2 = max_{ijk} ||F^{lk} d_l F^{ij} - F^{lj} d_l F^{ik}||
    r3 = ||d_i d_j (rho F^{ji})||            (second-order form of r1)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import half_to_samples, product, to_half_spectrum
from .grid import Grid
from .operators import half_sum
from .params import ModelParams, guard_positive_density, pressure_coefficient
from .state import IDENTITY, FlowState, PhysState


@dataclass(frozen=True)
class ConstraintReport:
    r1: float
    r2: float
    r3: float

    def max(self) -> float:
        return max(self.r1, self.r2, self.r3)


def _dealiased(grid: Grid, phys: np.ndarray, enabled: bool) -> np.ndarray:
    """Half spectrum of a physical product, 2/3-masked in place unless ``enabled`` is false."""
    spec = to_half_spectrum(grid, phys)
    if enabled:
        spec *= grid.dealias_mask[..., : spec.shape[-1]]
    return spec


def _gradient(grid: Grid, half_spectrum: np.ndarray) -> np.ndarray:
    """Physical d_l of every component of a half spectrum: out[l, ...] = d_l u[...].

    Each 1j xi_l u_hat is formed one component at a time in one buffer and
    inverse transformed straight into its slice of out[l].
    """
    xi = grid.xi[..., : half_spectrum.shape[-1]]
    out = np.empty((3,) + half_spectrum.shape[:-3] + grid.shape)
    buf = np.empty(half_spectrum.shape[-3:], dtype=np.complex128)
    for l in range(3):
        for comp in np.ndindex(half_spectrum.shape[:-3]):
            product(xi[l], half_spectrum[comp], out=buf)
            buf *= 1j
            half_to_samples(grid, buf, out=out[(l,) + comp])
    return out


def rhs_spectra(state: FlowState, params: ModelParams, dealias: bool = True):
    """Dealiased kz >= 0 half spectra of the combined right-hand sides.

    Returns (G_n, G_v, G_E) = the rfftn halves, shaped (..., N, N, N/2 + 1),
    of (f - v.grad n, g, h - v.grad E).  This is the one evaluator of the
    nonlinear sources.  Each source is formed in physical space, transformed
    and freed before the next one is formed, and each gradient is freed after
    its last use.  grad E is formed one row dEi[l, j] = d_l E^{ij} at a time,
    which fills g^i and row i of h.  The v and E samples are formed by
    ``half_to_samples`` from the state's halves for this call only, whether or not
    the state has its own sample views cached, so a trajectory does not
    depend on which of its states were sampled; nothing is kept on the state.
    """
    grid = state.grid
    n = state.n.samples

    # everything through the kz >= 0 halves, without a mirror
    half = grid.n // 2 + 1
    v_hat = state.v.half
    e_half = state.E.half
    v = half_to_samples(grid, v_hat)
    E = half_to_samples(grid, e_half)

    # gradients: dn[l] = d_l n, dv[l, i] = d_l v^i
    dn = _gradient(grid, state.n.half)
    dv = _gradient(grid, v_hat)
    f = -n * (dv[0, 0] + dv[1, 1] + dv[2, 2])
    f -= np.einsum("j...,j...->...", v, dn)
    g_n = _dealiased(grid, f, dealias)
    del f

    # mu lap v + (lam+mu) grad div v, spectrally: grad div v -> -xi (xi.v)
    xi = grid.xi[..., :half]
    xiv = np.einsum("j...,j...->...", xi, v_hat)
    visc_hat = params.mu * grid.laplacian_symbol[..., :half] * v_hat - (
        params.lam + params.mu
    ) * product(xi, xiv)
    visc = half_to_samples(grid, visc_hat)
    del visc_hat
    # g^i = a E^{jk} d_j E^{ik} and h^{ij} = d_k v^i E^{kj} - v^k d_k E^{ij}, one
    # row i of grad E at a time: the full-tensor subscripts restricted to row i
    h = np.einsum("ki...,kj...->ij...", dv, E)
    g = np.empty(v.shape)
    for i in range(3):
        dEi = _gradient(grid, e_half[i])
        np.multiply(params.a, np.einsum("jk...,jk...->...", E, dEi), out=g[i])
        h[i] -= np.einsum("k...,kj...->j...", v, dEi)
        del dEi  # before the next row allocates its own
    rho = 1.0 + n  # formed at its use: held across the gradients, it kept 24 MB more RSS at N = 64
    guard_positive_density(rho)
    g -= product(n / rho, visc)
    g -= np.einsum("j...,ji...->i...", v, dv)
    g -= product(pressure_coefficient(rho, params), dn)
    del rho, visc, dn, dv
    g_v = _dealiased(grid, g, dealias)
    del g
    return g_n, g_v, _dealiased(grid, h, dealias)


# ---------------------------------------------------------------------------
# constraint residuals

def _rho_f_of(obj) -> tuple[Grid, np.ndarray, np.ndarray]:
    if isinstance(obj, FlowState):
        return obj.grid, 1.0 + obj.n.samples, obj.E.samples + IDENTITY
    if isinstance(obj, PhysState):
        return obj.grid, obj.rho.samples, obj.F.samples
    raise TypeError(f"expected FlowState or PhysState, got {type(obj).__name__}")


def constraint_residuals(obj) -> ConstraintReport:
    """L2 residuals of the two material constraints, from half spectra of rho F and F."""
    grid, rho, F = _rho_f_of(obj)
    vol = grid.volume
    xi = grid.xi[..., : grid.n // 2 + 1]

    # r1: w^k = d_j (rho F^{jk})
    rhoF_hat = to_half_spectrum(grid, rho[np.newaxis, np.newaxis] * F)
    w_hat = np.einsum("j...,jk...->k...", 1j * xi, rhoF_hat)
    del rhoF_hat
    r1 = float(np.sqrt(vol * half_sum(np.abs(w_hat) ** 2)))

    # r3: d_k d_j (rho F^{jk}) = divdiv[(rho F)^T]
    q_hat = np.einsum("k...,k...->...", 1j * xi, w_hat)
    r3 = float(np.sqrt(vol * half_sum(np.abs(q_hat) ** 2)))

    # r2: max over slots of ||F^{lk} d_l F^{ij} - F^{lj} d_l F^{ik}||, one row i
    # of d_l F^{ij} at a time, by grid Parseval over j < k only: j = k slots are
    # exactly 0 and (i, k, j) exactly negates (i, j, k).  d_l F from F's samples:
    # E's half is equal in exact arithmetic but moves r2's rounding past the
    # recorded benchmark references
    del rho, w_hat, q_hat
    F_hat = to_half_spectrum(grid, F)
    sums = []
    for i in range(3):
        dFi = _gradient(grid, F_hat[i])  # dFi[l, j] = d_l F^{ij}
        for j, k in ((0, 1), (0, 2), (1, 2)):
            expr = np.einsum("l...,l...->...", F[:, k], dFi[:, j])
            expr -= np.einsum("l...,l...->...", F[:, j], dFi[:, k])
            sums.append(np.sum(expr**2))
        del dFi, expr  # before the next row allocates its own
    r2 = float(np.sqrt(grid.cell_volume * np.array(sums)).max())
    return ConstraintReport(r1=r1, r2=r2, r3=r3)
