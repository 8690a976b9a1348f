"""Grid functions with physical and frequency representations.

Scalar, vector (3 components) and tensor (3x3 components) fields share one
storage convention: a real array of samples, or a complex array of Fourier
coefficients normalized so the k = 0 coefficient is the mean,

    u_hat(k) = N^-3 * sum_x u(x) exp(-i xi.x),
    u(x)     = sum_k u_hat(k) exp(+i xi.x).

With this pairing Parseval reads  ||u||_L2^2 = L^3 * sum_k |u_hat(k)|^2.
Fields are immutable after construction; frequency data of a real field is
Hermitian-symmetric.  That symmetry is checked once, where frequency data
enters from outside (:meth:`from_frequency`, used by the snapshot reader),
not on every inverse transform.

This module is the one transform layer of the package: every other module
goes through :func:`to_spectrum`, :func:`to_samples`,
:func:`to_half_spectrum` and :func:`half_to_samples`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import FieldError, GridMismatchError
from .grid import Grid

PHYSICAL = "physical"
FREQUENCY = "frequency"

_RANK_SHAPE = {0: (), 1: (3,), 2: (3, 3)}


def _check_payload(grid: Grid, data: np.ndarray, rep: str, rank: int) -> np.ndarray:
    want = _RANK_SHAPE[rank] + grid.shape
    if data.shape != want:
        raise FieldError(f"expected shape {want}, got {data.shape}")
    if rep == PHYSICAL:
        data = np.ascontiguousarray(data, dtype=np.float64)
    elif rep == FREQUENCY:
        data = np.ascontiguousarray(data, dtype=np.complex128)
    else:
        raise FieldError(f"unknown representation {rep!r}")
    if not np.all(np.isfinite(data)):
        raise FieldError("field contains non-finite values")
    data.setflags(write=False)
    return data


def to_spectrum(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Fourier coefficients of real samples over the last three axes."""
    return np.fft.fftn(samples, axes=(-3, -2, -1)) / grid.n**3


def to_samples(grid: Grid, spectrum: np.ndarray) -> np.ndarray:
    """Real samples of a Hermitian spectrum; the imaginary part is dropped unchecked."""
    return np.fft.ifftn(spectrum, axes=(-3, -2, -1)).real * grid.n**3


def to_half_spectrum(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Nonnegative-last-axis half of the Fourier coefficients of real samples."""
    return np.fft.rfftn(samples, axes=(-3, -2, -1)) / grid.n**3


def half_to_samples(grid: Grid, half_spectrum: np.ndarray) -> np.ndarray:
    """Real samples from the nonnegative-last-axis half of a Hermitian spectrum."""
    return np.fft.irfftn(half_spectrum, s=grid.shape, axes=(-3, -2, -1)) * grid.n**3


def hermitian_defect(spectrum: np.ndarray) -> float:
    """Max |u_hat(k) - conj(u_hat(-k))| over the lattice."""
    flipped = spectrum
    for ax in (-3, -2, -1):
        flipped = np.flip(np.roll(flipped, -1, axis=ax), axis=ax)
    return float(np.max(np.abs(spectrum - np.conj(flipped))))


class _BaseField:
    rank = 0

    def __init__(self, grid: Grid, data: np.ndarray, rep: str = PHYSICAL):
        """Wrap samples or coefficients; ``rep=FREQUENCY`` data is trusted.

        Frequency data passed here must already be Hermitian-symmetric: its
        imaginary part is dropped unchecked in :attr:`samples`.  Frequency
        data from outside the package goes through :meth:`from_frequency`.
        """
        self.grid = grid
        self.rep = rep
        self.data = _check_payload(grid, np.asarray(data), rep, self.rank)

    @classmethod
    def from_frequency(cls, grid: Grid, spectrum: np.ndarray):
        """Field from frequency data given from outside; rejects non-Hermitian spectra."""
        field = cls(grid, spectrum, FREQUENCY)
        scale = float(np.max(np.abs(field.data))) or 1.0
        defect = hermitian_defect(field.data)
        if defect > 1e-10 * scale:
            raise FieldError(f"spectrum is not Hermitian-symmetric (defect {defect:.3e})")
        return field

    @classmethod
    def from_spectrum(cls, grid: Grid, spectrum: np.ndarray):
        """Physical field of a trusted Hermitian spectrum, kept as its :attr:`spectrum`."""
        coeffs = _check_payload(grid, np.asarray(spectrum), FREQUENCY, cls.rank)
        field = cls(grid, to_samples(grid, coeffs), PHYSICAL)
        field.spectrum = coeffs  # seeds the cached property
        return field

    # -- representations --------------------------------------------------

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Fourier coefficients (read-only complex array)."""
        if self.rep == FREQUENCY:
            return self.data
        out = to_spectrum(self.grid, self.data)
        out.setflags(write=False)
        return out

    @cached_property
    def samples(self) -> np.ndarray:
        """Physical samples (read-only real array)."""
        if self.rep == PHYSICAL:
            return self.data
        out = to_samples(self.grid, self.data)
        out.setflags(write=False)
        return out

    def to_physical(self):
        if self.rep == PHYSICAL:
            return self
        return type(self)(self.grid, self.samples, PHYSICAL)

    def to_frequency(self):
        if self.rep == FREQUENCY:
            return self
        return type(self)(self.grid, self.spectrum, FREQUENCY)

    # -- basic algebra -----------------------------------------------------

    def _binary(self, other, op):
        if not isinstance(other, type(self)):
            return NotImplemented
        if other.grid != self.grid:
            raise GridMismatchError("fields live on different grids")
        if other.rep != self.rep:
            other = other.to_physical() if self.rep == PHYSICAL else other.to_frequency()
        return type(self)(self.grid, op(self.data, other.data), self.rep)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return type(self)(self.grid, -self.data, self.rep)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return type(self)(self.grid, self.data * scalar, self.rep)

    __rmul__ = __mul__

    def __repr__(self):
        return (
            f"{type(self).__name__}(n={self.grid.n}, L={self.grid.length:g}, "
            f"rep={self.rep})"
        )


class ScalarField(_BaseField):
    """Real scalar grid function."""

    rank = 0

    @classmethod
    def zero(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape), PHYSICAL)

    def mean(self) -> float:
        if self.rep == FREQUENCY:
            return float(self.data[0, 0, 0].real)
        return float(self.data.mean())


class VectorField(_BaseField):
    """Real 3-component grid function, stored as one (3, N, N, N) array."""

    rank = 1

    @classmethod
    def zero(cls, grid: Grid) -> "VectorField":
        return cls(grid, np.zeros((3,) + grid.shape), PHYSICAL)

    def component(self, i: int) -> ScalarField:
        return ScalarField(self.grid, self.data[i], self.rep)


class TensorField(_BaseField):
    """Real 3x3-component grid function, stored as one (3, 3, N, N, N) array."""

    rank = 2

    @classmethod
    def zero(cls, grid: Grid) -> "TensorField":
        return cls(grid, np.zeros((3, 3) + grid.shape), PHYSICAL)

    @classmethod
    def identity(cls, grid: Grid) -> "TensorField":
        data = np.zeros((3, 3) + grid.shape)
        for i in range(3):
            data[i, i] = 1.0
        return cls(grid, data, PHYSICAL)

    def component(self, i: int, j: int) -> ScalarField:
        return ScalarField(self.grid, self.data[i, j], self.rep)

    def antisymmetric_part(self) -> "TensorField":
        """T^T - T, formed on the spectrum; exactly antisymmetric by construction."""
        return TensorField(self.grid, np.swapaxes(self.spectrum, 0, 1) - self.spectrum, FREQUENCY)
