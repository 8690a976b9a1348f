"""Constraint-exact initial data and radial profiles for decay experiments.

The deformation-side constraints are nonlinear in F, so admissible data is
built from a displacement instead of prescribed directly: with

    X(x) = x + phi(x),   A = grad X = I + grad phi,
    F0 = A^{-1},         rho0 = det A / <det A>,

the cofactor identity div(det(A) A^{-T}) = 0 and the gradient structure of
A make both constraints hold analytically; on the grid the residuals sit at
the spectral truncation floor.  Dividing det A by its box mean fixes the
total mass to the box volume, which keeps the constraints exact (they are
homogeneous in rho) and makes the density perturbation mean-free.

Displacements and velocities are given as finite Fourier mode lists; each
listed mode k contributes c exp(i k.x) plus its conjugate at -k, so fields
are real by construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InitialDataError
from .fields import (
    ScalarField,
    TensorField,
    VectorField,
    half_to_full,
    product,
    to_samples,
    to_spectrum,
)
from .grid import Grid
from .operators import sobolev_norm
from .params import ModelParams
from .quadrature import RadialProfile, gaussian_profile
from .state import IDENTITY, PhysState, adjugate3, det3

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FourierMode:
    k: tuple[int, int, int]
    amplitude: tuple[complex, complex, complex]


@dataclass(frozen=True)
class DisplacementSpec:
    """Finite mode lists for the displacement phi and the velocity u."""

    phi_modes: tuple[FourierMode, ...]
    u_modes: tuple[FourierMode, ...] = ()
    scale: float = 1.0
    u_scale: float | None = None

    def scaled(self, scale: float, u_scale: float | None = None) -> "DisplacementSpec":
        return DisplacementSpec(self.phi_modes, self.u_modes, scale, u_scale)


def parse_mode_file(text: str) -> DisplacementSpec:
    """Parse the plain-text mode list format.

    Lines are ``phi k1 k2 k3 re1 im1 re2 im2 re3 im3`` or ``u ...``;
    blank lines and ``#`` comments are ignored.
    """
    phi, u = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] not in ("phi", "u") or len(parts) != 10:
            raise InitialDataError(
                f"mode file line {lineno}: expected 'phi|u k1 k2 k3 re1 im1 ... re3 im3'"
            )
        try:
            k = tuple(int(p) for p in parts[1:4])
            nums = [float(p) for p in parts[4:10]]
        except ValueError as exc:
            raise InitialDataError(f"mode file line {lineno}: {exc}") from None
        if not all(np.isfinite(nums)):
            raise InitialDataError(f"mode file line {lineno}: non-finite amplitude")
        if k == (0, 0, 0):
            # c and conj(c) would share one index: 2 Re(c), Im(c) silently lost
            raise InitialDataError(f"mode file line {lineno}: k = (0, 0, 0) is not a Fourier pair")
        amp = tuple(complex(nums[2 * i], nums[2 * i + 1]) for i in range(3))
        mode = FourierMode(k, amp)
        (phi if parts[0] == "phi" else u).append(mode)
    if not phi and not u:
        raise InitialDataError("mode file declares no modes")
    return DisplacementSpec(tuple(phi), tuple(u))


def build_vector_field(grid: Grid, modes, scale: float = 1.0) -> VectorField:
    """Real vector field from a mode list; k and -k entries are conjugate pairs."""
    spec = np.zeros((3,) + grid.shape, dtype=np.complex128)
    half = grid.n // 2
    for mode in modes:
        if any(abs(k) > half - 1 for k in mode.k):
            raise InitialDataError(
                f"mode {mode.k} is not resolvable on an N = {grid.n} grid "
                f"(need |k| <= {half - 1})"
            )
        idx = tuple(k % grid.n for k in mode.k)
        conj_idx = tuple((-k) % grid.n for k in mode.k)
        for i in range(3):
            spec[(i,) + idx] += scale * mode.amplitude[i]
            spec[(i,) + conj_idx] += scale * np.conj(mode.amplitude[i])
    return VectorField(grid, to_samples(grid, spec))


def piola_ic(spec: DisplacementSpec, grid: Grid, params: ModelParams) -> PhysState:
    """Constraint-compatible physical state from a displacement mode list."""
    phi = build_vector_field(grid, spec.phi_modes, spec.scale)
    u_scale = spec.scale if spec.u_scale is None else spec.u_scale
    u = build_vector_field(grid, spec.u_modes, u_scale)

    # grad phi, (grad phi)^{ij} = d_j phi^i, one component at a time from phi's
    # full spectrum, so with xi_j on the full lattice, one j at a time: xi is
    # odd, xi(k) = -xi(-k), so its kz < 0 planes are those of its real even
    # mirror, negated.  A zero there may change sign, which ``product`` returns
    # as +0.0 anyway; I is added below
    A = np.empty((3, 3) + grid.shape)
    phi_hat = to_spectrum(grid, phi.samples)
    for j in range(3):
        xi = half_to_full(grid, grid.xi[j])
        np.negative(xi[..., grid.n // 2 + 1 :], out=xi[..., grid.n // 2 + 1 :])
        for i in range(3):
            A[i, j] = to_samples(grid, 1j * product(xi, phi_hat[i]))
    sup = float(np.sqrt((A**2).sum(axis=(0, 1))).max())
    if sup >= 1.0:
        raise InitialDataError(
            f"displacement too large: ||grad phi||_Linf = {sup:.4g} >= 1 "
            "(I + grad phi may be singular)"
        )
    for i in range(3):
        A[i, i] += 1.0  # A = I + grad phi, in place

    det = det3(A)
    if float(det.min()) <= 0.0:
        raise InitialDataError("det(I + grad phi) is not positive everywhere")
    F = adjugate3(A) / det
    rho = det / det.mean()

    state = PhysState(ScalarField(grid, rho), u, TensorField(grid, F))
    # the H2 of the state that runs is recorded by make-ic and by row 0 of a run
    if logger.isEnabledFor(logging.DEBUG):
        h2 = float(
            np.sqrt(
                sobolev_norm(ScalarField(grid, rho - 1.0), 2) ** 2
                + sobolev_norm(u, 2) ** 2
                + sobolev_norm(TensorField(grid, F - IDENTITY), 2) ** 2
            )
        )
        logger.debug("generated initial data with |(rho0-1, u0, F0-I)|_H2 = %.6e", h2)
    return state


# ---------------------------------------------------------------------------
# radial spectral profiles for the whole-space experiments

def lowerbound_profiles(c0: float, width: float = 1.0) -> RadialProfile:
    """Profile realizing the low-frequency lower-bound hypothesis.

    First slot: c0 * exp(-r^2/(2 width^2)), bounded below by c0/2 for
    r <= width.  Second slot: zero.
    """
    if not c0 > 0.0:
        raise InitialDataError(f"lower-bound profile needs c0 > 0, got {c0}")
    return gaussian_profile(amp_first=c0, width=width, label=f"lowerbound(c0={c0:g})")


def eta_profile(eta: float, width: float = 1.0) -> RadialProfile:
    """|U0_hat| <= r^eta data: r^eta times the envelope in the second slot, zero in the first."""
    if not eta > 0.0:
        raise InitialDataError(f"profile exponent must be positive, got {eta}")
    return gaussian_profile(
        amp_first=0.0, amp_second=1.0, eta_second=eta, width=width, label=f"eta(eta={eta:g})"
    )
