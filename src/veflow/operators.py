"""Fourier multipliers and norms on periodic fields, all on the kz >= 0 half.

The divergence and the Laplacian are spectral multipliers, i*xi_j and
``Grid.laplacian_symbol``, built on the same kz >= 0 half as a field's half
and applied to it unsliced; both come from ``Grid.xi``, whose Nyquist planes
are zeroed, so no multiplier here masks them again.  Inner products and
Sobolev norms are evaluated by Parseval, ||u||_L2^2 = L^3 * sum_k
|u_hat(k)|^2, and :func:`half_sum` is the one place a sum over the lattice
is taken from a half.

The gradient, tensor divergence, matrix curl, fractional operator and Hodge
pair that the operator identities are checked with live in the test suite
(``tests/helpers.py``): no experiment runs them.
"""

from __future__ import annotations

import numpy as np

from .errors import FieldError, GridMismatchError
from .fields import ScalarField, VectorField


def half_sum(power: np.ndarray) -> float:
    """Full-lattice sum over k of a real p(k) = p(-k), such as |u_hat|^2 or
    Re(u_hat conj(w_hat)) of Hermitian spectra, from its kz >= 0 half and over
    every leading axis: weight 1 on the self-mirrored kz = 0 and kz = N/2
    planes, 2 elsewhere."""
    return float(2.0 * np.sum(power) - np.sum(power[..., 0]) - np.sum(power[..., -1]))


# ---------------------------------------------------------------------------
# generic multiplier machinery

def apply_multiplier(field, symbol: np.ndarray):
    """Multiply the field's half by the lattice array ``symbol``, shaped
    ``grid.half_shape`` (broadcast over components)."""
    return type(field).from_half_spectrum(field.grid, field.half * symbol)


# ---------------------------------------------------------------------------
# named differential operators

def div(v: VectorField) -> ScalarField:
    return ScalarField.from_half_spectrum(v.grid, (1j * v.grid.xi * v.half).sum(axis=0))


def laplacian(field):
    return apply_multiplier(field, field.grid.laplacian_symbol)


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
    return float(a.grid.volume * half_sum((a.half * np.conj(b.half)).real))


def l2_norm(field) -> float:
    return float(np.sqrt(field.grid.volume * half_sum(np.abs(field.half) ** 2)))


def _weighted_l2(field, first: int, last: int) -> float:
    """sqrt(L^3 sum_xi w |u_hat|^2) with w = sum_{first <= j <= last} |xi|^(2j); first is 0 or 1."""
    g = field.grid
    power = np.abs(field.half) ** 2
    while power.ndim > 3:
        power = power.sum(axis=0)
    return float(np.sqrt(g.volume * half_sum(g.sobolev_weight(first, last) * power)))


def sobolev_norm(field, k: int) -> float:
    """|u|_{H^k} with  |u|^2 = sum_{j<=k} |grad^j u|^2, spectral derivatives."""
    if k not in (0, 1, 2, 3):
        raise FieldError(f"Sobolev order must be in 0..3, got {k}")
    return _weighted_l2(field, 0, k)


def gradient_sobolev_norm(field, k: int) -> float:
    """|grad u|_{H^k}: like :func:`sobolev_norm` with one extra derivative everywhere."""
    return _weighted_l2(field, 1, k + 1)
