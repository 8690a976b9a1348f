"""Fourier-multiplier calculus on periodic fields.

Conventions (fixed once, used everywhere):

* gradient of a vector:          (grad v)^{ij} = d_j v^i
* divergence of a tensor:        (div T)^i    = d_j T^{ij}
* matrix curl of a vector:       W^{ij}       = d_j v^i - d_i v^j
* fractional operator:           lam(u, s)    = F^-1(|xi|^s u_hat)

Every multiplier zeroes the Nyquist planes and, for s <= 0, the zero mode,
so lam(u, -1) is well defined on mean-zero fields and lam(lam(u, 1), 1)
equals -laplacian(u) there.

The Hodge pair is d = lam^-1 div v (compressible part) and
omega = lam^-1 W (transverse part, an antisymmetric matrix); the inverse
map contracts omega over its first index:

    v^i = -lam^-1 d_i d + lam^-1 d_j omega^{ji},

the sign and contraction being fixed by the round-trip identity.
"""

from __future__ import annotations

import logging
from functools import lru_cache

import numpy as np

from .errors import FieldError, GridMismatchError
from .fields import FREQUENCY, ScalarField, TensorField, VectorField
from .grid import Grid

logger = logging.getLogger(__name__)

MEAN_WARN = 1e-13


# ---------------------------------------------------------------------------
# generic multiplier machinery

def apply_multiplier(field, symbol: np.ndarray):
    """Multiply the field's spectrum by ``symbol`` (broadcast over components)."""
    out = field.spectrum * symbol
    return type(field)(field.grid, out, FREQUENCY)


def _grad_symbols(grid: Grid) -> np.ndarray:
    # i*xi_j with Nyquist planes already zeroed inside grid.xi
    return 1j * grid.xi * grid.nyquist_mask


def lam_symbol(grid: Grid, s: float) -> np.ndarray:
    """|xi|^s on the Nyquist-zeroed lattice; zero mode maps to 0 for every s."""
    r = grid.xi_mag
    out = np.zeros_like(r)
    nz = r > 0.0
    if s == 0.0:
        out[nz] = 1.0
    else:
        out[nz] = r[nz] ** s
    return out * grid.nyquist_mask


# ---------------------------------------------------------------------------
# named differential operators

def grad(f: ScalarField) -> VectorField:
    sym = _grad_symbols(f.grid)
    return VectorField(f.grid, sym * f.spectrum[np.newaxis], FREQUENCY)


def div(v: VectorField) -> ScalarField:
    sym = _grad_symbols(v.grid)
    return ScalarField(v.grid, (sym * v.spectrum).sum(axis=0), FREQUENCY)


def laplacian(field):
    g = field.grid
    sym = -(g.xi_mag**2) * g.nyquist_mask
    return apply_multiplier(field, sym)


def lam(field, s: float):
    return apply_multiplier(field, lam_symbol(field.grid, s))


def grad_vector(v: VectorField) -> TensorField:
    """(grad v)^{ij} = d_j v^i."""
    sym = _grad_symbols(v.grid)
    out = v.spectrum[:, np.newaxis] * sym[np.newaxis, :]
    return TensorField(v.grid, out, FREQUENCY)


def div_tensor(t: TensorField) -> VectorField:
    """(div T)^i = d_j T^{ij}."""
    sym = _grad_symbols(t.grid)
    return VectorField(t.grid, (t.spectrum * sym[np.newaxis, :]).sum(axis=1), FREQUENCY)


def curl_matrix(v: VectorField) -> TensorField:
    """W^{ij} = d_j v^i - d_i v^j (antisymmetric matrix curl)."""
    gv = grad_vector(v).data
    return TensorField(v.grid, gv - np.swapaxes(gv, 0, 1), FREQUENCY)


def project_mean_zero(field, warn: bool = True, label: str = "field"):
    """Zero the k = 0 coefficient of every component."""
    spec = np.array(field.spectrum)
    zero = (Ellipsis,) + (0, 0, 0)
    worst = float(np.max(np.abs(spec[zero])))
    if warn and worst > MEAN_WARN:
        logger.warning("projecting %s mean of size %.3e to zero", label, worst)
    spec[zero] = 0.0
    return type(field)(field.grid, spec, FREQUENCY)


# ---------------------------------------------------------------------------
# Hodge decomposition

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
    asym = np.max(np.abs(omega.data + np.swapaxes(omega.data, 0, 1)))
    scale = float(np.max(np.abs(omega.data))) or 1.0
    if asym > 1e-10 * scale:
        raise FieldError(f"omega is not antisymmetric (defect {asym:.3e})")
    d = project_mean_zero(d, label="d")
    omega = project_mean_zero(omega, label="omega")
    sym = _grad_symbols(d.grid)
    grad_part = sym * d.spectrum[np.newaxis]
    curl_part = (sym[:, np.newaxis] * omega.spectrum).sum(axis=0)  # d_j omega^{ji}
    inv = lam_symbol(d.grid, -1.0)
    return VectorField(d.grid, inv * (curl_part - grad_part), FREQUENCY)


# ---------------------------------------------------------------------------
# inner products and norms

def _pair_check(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")
    if type(a) is not type(b):
        raise FieldError("inner product requires fields of the same rank")


def inner_product(a, b) -> float:
    """L2 inner product over the box, via Parseval."""
    _pair_check(a, b)
    return float(a.grid.volume * np.sum(a.spectrum * np.conj(b.spectrum)).real)


def l2_norm(field) -> float:
    return float(np.sqrt(field.grid.volume * np.sum(np.abs(field.spectrum) ** 2)))


@lru_cache(maxsize=16)
def _sobolev_weight(grid: Grid, first: int, last: int) -> np.ndarray:
    """Read-only w = sum_{first <= j <= last} |xi|^(2j), built once per (grid, first, last)."""
    r2 = (grid.xi_mag**2) * grid.nyquist_mask
    weight = np.ones(grid.shape) if first == 0 else np.zeros(grid.shape)
    acc = np.ones(grid.shape)
    for _ in range(last):
        acc = acc * r2
        weight = weight + acc
    weight.setflags(write=False)
    return weight


def _weighted_l2(field, first: int, last: int) -> float:
    """sqrt(L^3 sum_xi w |u_hat|^2) with w = sum_{first <= j <= last} |xi|^(2j); first is 0 or 1."""
    g = field.grid
    power = np.abs(field.spectrum) ** 2
    while power.ndim > 3:
        power = power.sum(axis=0)
    return float(np.sqrt(g.volume * np.sum(_sobolev_weight(g, first, last) * power)))


def sobolev_norm(field, k: int) -> float:
    """|u|_{H^k} with  |u|^2 = sum_{j<=k} |grad^j u|^2, spectral derivatives."""
    if k not in (0, 1, 2, 3):
        raise FieldError(f"Sobolev order must be in 0..3, got {k}")
    return _weighted_l2(field, 0, k)


def gradient_sobolev_norm(field, k: int) -> float:
    """|grad u|_{H^k}: like :func:`sobolev_norm` with one extra derivative everywhere."""
    return _weighted_l2(field, 1, k + 1)
