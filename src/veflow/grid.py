"""Periodic cubic grid and its Fourier lattice.

The box is [0, L)^3 sampled on N points per axis (N even).  Wavevectors are
xi = (2*pi/L) * k with integer k per axis in [-N/2, N/2).  Transforms are
normalized so the forward coefficient at k = 0 equals the field mean.

Every lattice array is built on the kz >= 0 half, shaped (..., N, N, N/2 + 1)
(``half_shape``), the layout of a field's half spectrum; its last kz plane
is k = -N/2, as in the full lattice.

The k = -N/2 planes carry no derivative sign, so they are zeroed in every
component of ``xi``, and so in ``xi_mag``, in the Laplacian symbol
``laplacian_symbol`` = -|xi|^2, in the Sobolev weights ``sobolev_weight``
and in every multiplier built from them: ``xi`` is the one place the
Nyquist planes are zeroed, to k * 0: -0.0 where k < 0.
Nonlinear products are cleaned with the spherical 2/3 rule
(``dealias_mask``).

Constructing a grid only validates (N, L).  Each lattice array is built on
its first use from broadcast 1-D views of k, then kept read-only; the
integer lattice is never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)^3; equality and hashing use (n, length) only."""

    n: int
    length: float = 2.0 * np.pi

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 4 or self.n % 2 != 0:
            raise ParameterError(f"grid size must be an even integer >= 4, got {self.n!r}")
        if not 0.0 < self.length < np.inf:
            raise ParameterError(f"box length must be positive and finite, got {self.length}")

    def _k(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer wavenumbers per axis as broadcastable (N,1,1), (1,N,1), (1,1,N/2+1)
        views; kz ends at -N/2, not rfftfreq's +N/2, so a zeroed Nyquist entry is -0.0."""
        k1 = np.fft.fftfreq(self.n, d=1.0 / self.n)  # exact integers as floats
        return k1.reshape(-1, 1, 1), k1.reshape(1, -1, 1), k1[: self.n // 2 + 1].reshape(1, 1, -1)

    # -- lattice views ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @property
    def half_shape(self) -> tuple[int, int, int]:
        """Shape of the kz >= 0 half of the lattice, that of every lattice array."""
        return (self.n, self.n, self.n // 2 + 1)

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**3

    @property
    def volume(self) -> float:
        return self.length**3

    @cached_property
    def xi(self) -> np.ndarray:
        """Physical wavevectors with Nyquist planes zeroed, shape (3, N, N, N/2 + 1)."""
        scale = 2.0 * np.pi / self.length
        kx, ky, kz = self._k()
        nyq = -(self.n // 2)
        mask = (kx != nyq) & (ky != nyq) & (kz != nyq)
        return _freeze(np.stack([scale * k * mask for k in (kx, ky, kz)]))

    @cached_property
    def xi_mag(self) -> np.ndarray:
        """|xi| built from the Nyquist-zeroed lattice."""
        return _freeze(np.sqrt((self.xi**2).sum(axis=0)))

    @cached_property
    def laplacian_symbol(self) -> np.ndarray:
        """-|xi|^2, the Fourier symbol of the Laplacian."""
        return _freeze(-(self.xi_mag**2))

    def sobolev_weight(self, first: int, last: int) -> np.ndarray:
        """sum_{first <= j <= last} |xi|^(2j), built on first use per (first, last)."""
        weights = self.__dict__.setdefault("_sobolev_weights", {})
        if (first, last) not in weights:
            r2 = -self.laplacian_symbol
            weight = np.ones(r2.shape) if first == 0 else np.zeros(r2.shape)
            acc = np.ones(r2.shape)
            for _ in range(last):
                acc = acc * r2
                weight = weight + acc
            weights[first, last] = _freeze(weight)
        return weights[first, last]

    @cached_property
    def unit_xi(self) -> np.ndarray:
        """xi / |xi|, and 0 where |xi| = 0, shape (3, N, N, N/2 + 1)."""
        r = self.xi_mag
        return _freeze(np.where(r > 0.0, self.xi / np.where(r > 0.0, r, 1.0), 0.0))

    @cached_property
    def distinct_radii(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct values of ``xi_mag`` and, per lattice point, the index
        of its value: ``radii[index] == xi_mag`` bit for bit."""
        radii, index = np.unique(self.xi_mag, return_inverse=True)
        return _freeze(radii), _freeze(index.reshape(self.half_shape))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Spherical 2/3-rule mask, |k| <= N/3."""
        kx, ky, kz = self._k()
        return _freeze(kx**2 + ky**2 + kz**2 <= (self.n / 3.0) ** 2)

    def xi_max(self) -> float:
        """Largest per-axis wavevector magnitude after Nyquist zeroing."""
        return (2.0 * np.pi / self.length) * (self.n / 2 - 1)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a
