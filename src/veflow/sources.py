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
Every gradient, here and in r2, comes from ``fields.samples_and_gradient``,
which forms a component's samples and its three derivatives from one shared
tree of inverse passes.  The sources take E one column at a time, so E and
grad E are never held whole, and run their pointwise products one slab of
x-planes at a time (``fields.each_slab``, which cuts the slabs for the workers).

Constraint residuals, reported as L2 norms:

    r1 = ||d_j(rho F^{jk})||                 (momentum-compatible density)
    r2 = max_{ijk} ||F^{lk} d_l F^{ij} - F^{lj} d_l F^{ik}||
    r3 = ||d_i d_j (rho F^{ji})||            (second-order form of r1)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import each, each_slab, product, samples_and_gradient, to_half_spectrum
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
        spec *= grid.dealias_mask
    return spec


def rhs_spectra(state: FlowState, params: ModelParams, dealias: bool = True):
    """Dealiased kz >= 0 half spectra of the combined right-hand sides.

    Returns (G_n, G_v, G_E) = the rfftn halves, shaped (..., N, N, N/2 + 1),
    of (f - v.grad n, g, h - v.grad E).  This is the one evaluator of the
    nonlinear sources.  The v and E samples and every gradient come from
    ``samples_and_gradient``, one component at a time, for this call only,
    whether or not the state has its own sample views cached, so a trajectory
    does not depend on which of its states were sampled; nothing is kept on
    the state.  E is taken one column k at a time: E^{jk} and d_l E^{ik} fill
    column k of h and add column k's terms to g^i, in buffers that the next
    column reuses, so E and grad E are never held whole.  The pointwise work
    runs one slab of x-planes at a time, and each source is transformed and
    freed once it is complete.
    """
    grid = state.grid
    n = state.n.samples
    cells = grid.shape
    plane = 8 * grid.n**2  # bytes of one real x-plane
    v_hat, e_hat, xi = state.v.half, state.E.half, grid.xi  # fetched before any job reads them

    # dn[l] = d_l n, dv[l, i] = d_l v^i
    dn = np.empty((3,) + cells)
    v = np.empty((3,) + cells)
    dv = np.empty((3, 3) + cells)
    _gradients(grid, [(state.n.half, None, dn)] + [(v_hat[i], v[i], dv[:, i]) for i in range(3)])
    f = np.empty(cells)

    def f_slab(x, _):
        np.multiply(-n[x], dv[0, 0, x] + dv[1, 1, x] + dv[2, 2, x], out=f[x])
        f[x] -= np.einsum("j...,j...->...", v[:, x], dn[:, x])
    each_slab(grid, plane, f_slab)
    g_n = _dealiased(grid, f, dealias)
    del f

    # column k of E: g^i += E^{jk} d_j E^{ik} and h^{ik} = d_j v^i E^{jk} - v^j d_j E^{ik}
    g = np.zeros((3,) + cells)
    h = np.empty((3, 3) + cells)
    e = np.empty((3,) + cells)
    de = np.empty((3, 3) + cells)  # de[l, i] = d_l E^{ik}

    def column_slab(x, _):  # of the column k that the loop below is at
        for i in range(3):
            g[i, x] += np.einsum("j...,j...->...", e[:, x], de[:, i, x])
            np.einsum("j...,j...->...", dv[:, i, x], e[:, x], out=h[i, k, x])
            h[i, k, x] -= np.einsum("j...,j...->...", v[:, x], de[:, i, x])
    for k in range(3):
        _gradients(grid, [(e_hat[i, k], e[i], de[:, i]) for i in range(3)])
        each_slab(grid, plane, column_slab)
    del e, de
    g_e = _dealiased(grid, h, dealias)
    del h

    # mu lap v + (lam+mu) grad div v, spectrally: grad div v -> -xi (xi.v)
    xiv = np.einsum("j...,j...->...", xi, v_hat)
    visc_hat = params.mu * grid.laplacian_symbol * v_hat - (
        params.lam + params.mu
    ) * product(xi, xiv)
    visc = np.empty((3,) + cells)
    _gradients(grid, [(visc_hat[i], visc[i], None) for i in range(3)])
    del visc_hat, xiv
    rho = 1.0 + n  # formed at its use: held across the gradients, it kept 24 MB more RSS at N = 64
    guard_positive_density(rho)

    def g_slab(x, _):
        gx = g[:, x]
        gx *= params.a
        gx -= product(n[x] / rho[x], visc[:, x])
        gx -= np.einsum("j...,ji...->i...", v[:, x], dv[:, :, x])
        gx -= product(pressure_coefficient(rho[x], params), dn[:, x])
    each_slab(grid, plane, g_slab)
    del rho, visc, dn, dv, v
    return g_n, _dealiased(grid, g, dealias), g_e


def _gradients(grid: Grid, calls) -> None:
    """``samples_and_gradient(grid, *call, bufs)`` for each call, one ``bufs`` per worker."""
    h = grid.half_shape
    each(grid, lambda call, bufs: samples_and_gradient(grid, *call, bufs), calls,
         lambda: (*np.empty((2,) + h, dtype=np.complex128), np.empty((2,) + h[1:], dtype=np.complex128)))


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
    xi = grid.xi

    # r1: w^k = d_j (rho F^{jk})
    rhoF_hat = to_half_spectrum(grid, rho[np.newaxis, np.newaxis] * F)
    ixi = 1j * xi  # the symbol of grad, for r1 and r3, formed after rho F's samples are freed
    w_hat = np.einsum("j...,jk...->k...", ixi, rhoF_hat)
    del rhoF_hat
    r1 = float(np.sqrt(vol * half_sum(np.abs(w_hat) ** 2)))

    # r3: d_k d_j (rho F^{jk}) = divdiv[(rho F)^T]
    q_hat = np.einsum("k...,k...->...", ixi, w_hat)
    r3 = float(np.sqrt(vol * half_sum(np.abs(q_hat) ** 2)))

    # r2: max over slots of ||F^{lk} d_l F^{ij} - F^{lj} d_l F^{ik}||, one row i
    # of F^{ij} and d_l F^{ij} at a time, by grid Parseval over j < k only: j = k
    # slots are exactly 0 and (i, k, j) exactly negates (i, j, k).  d_l F from
    # F's samples: E's half is equal in exact arithmetic but moves r2's rounding
    # past the recorded benchmark references
    del rho, w_hat, q_hat, ixi
    dFi = np.empty((3, 3) + grid.shape)  # dFi[l, j] = d_l F^{ij}
    sums = []
    for i in range(3):
        Fi_hat = to_half_spectrum(grid, F[i])
        _gradients(grid, [(Fi_hat[j], None, dFi[:, j]) for j in range(3)])
        for j, k in ((0, 1), (0, 2), (1, 2)):
            expr = np.einsum("l...,l...->...", F[:, k], dFi[:, j])
            expr -= np.einsum("l...,l...->...", F[:, j], dFi[:, k])
            sums.append(np.sum(expr**2))
    r2 = float(np.sqrt(grid.cell_volume * np.array(sums)).max())
    return ConstraintReport(r1=r1, r2=r2, r3=r3)
