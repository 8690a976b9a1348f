"""Fourier multipliers and norms on periodic fields.

The divergence and the Laplacian are spectral multipliers, i*xi_j and
``Grid.laplacian_symbol``; both are built from ``Grid.xi``, whose Nyquist
planes are zeroed, so no multiplier here masks them again.  Inner products
and Sobolev norms are evaluated by Parseval on the spectrum,
||u||_L2^2 = L^3 * sum_k |u_hat(k)|^2.

The gradient, tensor divergence, matrix curl, fractional operator and Hodge
pair that the operator identities are checked with live in the test suite
(``tests/helpers.py``): no experiment runs them.
"""

from __future__ import annotations

import numpy as np

from .errors import FieldError, GridMismatchError
from .fields import ScalarField, VectorField


# ---------------------------------------------------------------------------
# generic multiplier machinery

def apply_multiplier(field, symbol: np.ndarray):
    """Multiply the field's spectrum by ``symbol`` (broadcast over components)."""
    return type(field).from_spectrum(field.grid, field.spectrum * symbol)


# ---------------------------------------------------------------------------
# named differential operators

def div(v: VectorField) -> ScalarField:
    return ScalarField.from_spectrum(v.grid, (1j * v.grid.xi * v.spectrum).sum(axis=0))


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
    return float(a.grid.volume * np.sum(a.spectrum * np.conj(b.spectrum)).real)


def l2_norm(field) -> float:
    return float(np.sqrt(field.grid.volume * np.sum(np.abs(field.spectrum) ** 2)))


def _weighted_l2(field, first: int, last: int) -> float:
    """sqrt(L^3 sum_xi w |u_hat|^2) with w = sum_{first <= j <= last} |xi|^(2j); first is 0 or 1."""
    g = field.grid
    power = np.abs(field.spectrum) ** 2
    while power.ndim > 3:
        power = power.sum(axis=0)
    return float(np.sqrt(g.volume * np.sum(g.sobolev_weight(first, last) * power)))


def sobolev_norm(field, k: int) -> float:
    """|u|_{H^k} with  |u|^2 = sum_{j<=k} |grad^j u|^2, spectral derivatives."""
    if k not in (0, 1, 2, 3):
        raise FieldError(f"Sobolev order must be in 0..3, got {k}")
    return _weighted_l2(field, 0, k)


def gradient_sobolev_norm(field, k: int) -> float:
    """|grad u|_{H^k}: like :func:`sobolev_norm` with one extra derivative everywhere."""
    return _weighted_l2(field, 1, k + 1)
