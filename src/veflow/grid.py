"""Periodic cubic grid and its Fourier lattice.

The box is [0, L)^3 sampled on N points per axis (N even).  Wavevectors are
xi = (2*pi/L) * k with integer k per axis in [-N/2, N/2).  Transforms are
normalized so the forward coefficient at k = 0 equals the field mean.

The k = -N/2 planes carry no derivative sign, so every differential
multiplier zeroes them (``nyquist_mask``).  Nonlinear products are cleaned
with the spherical 2/3 rule (``dealias_mask``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)^3 with cached spectral lattices."""

    n: int
    length: float = 2.0 * np.pi

    # caches, excluded from equality/repr
    _xi: np.ndarray = field(init=False, repr=False, compare=False)
    _nyquist_mask: np.ndarray = field(init=False, repr=False, compare=False)
    _dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)
    _xi_mag: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ParameterError(f"grid size must be even and >= 4, got {self.n}")
        if not (self.length > 0.0):
            raise ParameterError(f"box length must be positive, got {self.length}")

        n = self.n
        k1 = np.fft.fftfreq(n, d=1.0 / n)  # exact integers as floats
        kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
        k = np.stack([kx, ky, kz])

        nyq = -(n // 2)
        mask = (kx != nyq) & (ky != nyq) & (kz != nyq)
        object.__setattr__(self, "_nyquist_mask", _freeze(mask))

        xi = (2.0 * np.pi / self.length) * k * mask
        object.__setattr__(self, "_xi", _freeze(xi))
        object.__setattr__(self, "_xi_mag", _freeze(np.sqrt((xi**2).sum(axis=0))))

        k2 = kx**2 + ky**2 + kz**2
        object.__setattr__(self, "_dealias_mask", _freeze(k2 <= (n / 3.0) ** 2))

    # -- lattice views ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**3

    @property
    def volume(self) -> float:
        return self.length**3

    @property
    def xi(self) -> np.ndarray:
        """Physical wavevectors with Nyquist planes zeroed, shape (3, N, N, N)."""
        return self._xi

    @property
    def xi_mag(self) -> np.ndarray:
        """|xi| built from the Nyquist-zeroed lattice."""
        return self._xi_mag

    @property
    def nyquist_mask(self) -> np.ndarray:
        """False on any k = -N/2 plane."""
        return self._nyquist_mask

    @property
    def dealias_mask(self) -> np.ndarray:
        """Spherical 2/3-rule mask, |k| <= N/3."""
        return self._dealias_mask

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Open (broadcastable) coordinate arrays along each axis."""
        x = np.arange(self.n) * self.spacing
        return (
            x.reshape(-1, 1, 1),
            x.reshape(1, -1, 1),
            x.reshape(1, 1, -1),
        )

    def xi_max(self) -> float:
        """Largest per-axis wavevector magnitude after Nyquist zeroing."""
        return (2.0 * np.pi / self.length) * (self.n / 2 - 1)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a
