"""Physical and perturbation state containers and the change of variables.

A physical state (rho, u, F) near the constant equilibrium (1, 0, I) maps
to the perturbation triple

    n = rho - 1,   v = chi0 * u,   E = F - I,

with time rescaled by chi0^2 (grid points are relabelled, not resampled:
the box length is interpreted in the perturbation frame).  Physical data is
initial data and carries no time: the state it maps to starts at t = 0.
The initial state is built by :func:`phys_to_pert`, whose fields hold both
views: the samples of the mean-free complex spectrum and that spectrum's
kz >= 0 half.  Every propagated state is built of half fields by
:func:`state_from_spectra`, from the kz >= 0 halves that the step and the
propagator compute.  Both zero the mean modes: the perturbation system is
posed on mean-zero fields.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, GridMismatchError, VacuumError
from .fields import ScalarField, TensorField, VectorField, to_samples, to_spectrum
from .grid import Grid
from .operators import sobolev_norm
from .params import ModelParams

logger = logging.getLogger(__name__)

MEAN_WARN = 1e-13
IDENTITY = np.eye(3).reshape(3, 3, 1, 1, 1)  # F at equilibrium, broadcast over the grid


@dataclass(frozen=True)
class FlowState:
    """Perturbation triple (n, v, E) at a given time, all components mean-zero."""

    n: ScalarField
    v: VectorField
    E: TensorField
    time: float = 0.0

    def __post_init__(self):
        if self.v.grid != self.n.grid or self.E.grid != self.n.grid:
            raise GridMismatchError("state components live on different grids")
        if float(self.n.samples.min()) <= -1.0:
            raise VacuumError("1 + n must stay positive")

    @property
    def grid(self) -> Grid:
        return self.n.grid

    def fields(self):
        return (self.n, self.v, self.E)

    def h_norm(self, k: int) -> float:
        """Sobolev norm of the full triple, (sum of squared component norms)^(1/2)."""
        return float(
            np.sqrt(sum(sobolev_norm(f, k) ** 2 for f in self.fields()))
        )


@dataclass(frozen=True)
class PhysState:
    """Physical initial data (rho, u, F) on the grid."""

    rho: ScalarField
    u: VectorField
    F: TensorField

    def __post_init__(self):
        if self.u.grid != self.rho.grid or self.F.grid != self.rho.grid:
            raise GridMismatchError("state components live on different grids")
        if float(self.rho.samples.min()) <= 0.0:
            raise VacuumError("density must be positive everywhere")
        if float(det3(self.F.samples).min()) <= 0.0:
            raise FieldError("deformation gradient must have positive determinant")

    @property
    def grid(self) -> Grid:
        return self.rho.grid


def det3(t: np.ndarray) -> np.ndarray:
    """Pointwise determinant of a (3, 3, ...) array."""
    return (
        t[0, 0] * (t[1, 1] * t[2, 2] - t[1, 2] * t[2, 1])
        - t[0, 1] * (t[1, 0] * t[2, 2] - t[1, 2] * t[2, 0])
        + t[0, 2] * (t[1, 0] * t[2, 1] - t[1, 1] * t[2, 0])
    )


def adjugate3(t: np.ndarray) -> np.ndarray:
    """Pointwise adjugate of a (3, 3, ...) array, so inv = adj / det."""
    out = np.empty_like(t)
    out[0, 0] = t[1, 1] * t[2, 2] - t[1, 2] * t[2, 1]
    out[0, 1] = t[0, 2] * t[2, 1] - t[0, 1] * t[2, 2]
    out[0, 2] = t[0, 1] * t[1, 2] - t[0, 2] * t[1, 1]
    out[1, 0] = t[1, 2] * t[2, 0] - t[1, 0] * t[2, 2]
    out[1, 1] = t[0, 0] * t[2, 2] - t[0, 2] * t[2, 0]
    out[1, 2] = t[0, 2] * t[1, 0] - t[0, 0] * t[1, 2]
    out[2, 0] = t[1, 0] * t[2, 1] - t[1, 1] * t[2, 0]
    out[2, 1] = t[0, 1] * t[2, 0] - t[0, 0] * t[2, 1]
    out[2, 2] = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
    return out


def phys_to_pert(phys: PhysState, params: ModelParams, warn: bool = True) -> FlowState:
    """Change of variables (rho, u, F) -> (n, v, E), a state at t = 0 whose
    fields hold both views; a mean mode above ``MEAN_WARN`` is logged, when
    ``warn`` is true, before it is zeroed."""
    grid = phys.grid

    def mean_free(label, cls, samples):
        spec = to_spectrum(grid, samples)
        worst = float(np.max(np.abs(spec[..., 0, 0, 0])))
        if warn and worst > MEAN_WARN:
            logger.warning("projecting %s mean of size %.3e to zero", label, worst)
        spec[..., 0, 0, 0] = 0.0
        field = cls.from_half_spectrum(grid, spec[..., : grid.n // 2 + 1])  # a contiguous copy
        # the samples of fftn's spectrum itself, which is not bitwise the mirror of its half
        field.samples = to_samples(grid, spec)
        field.samples.setflags(write=False)
        return field

    return FlowState(
        mean_free("n", ScalarField, phys.rho.samples - 1.0),
        mean_free("v", VectorField, params.chi0 * phys.u.samples),
        mean_free("E", TensorField, phys.F.samples - IDENTITY),
        0.0,
    )


def state_from_spectra(
    grid: Grid,
    n_hat: np.ndarray,
    v_hat: np.ndarray,
    e_hat: np.ndarray,
    time: float,
) -> FlowState:
    """Assemble a state of half fields from the kz >= 0 halves of its spectra,
    zeroing the mean modes silently.  The state owns the three arrays, uncopied:
    their mean modes are zeroed in place and they are frozen, so pass arrays
    that nothing else holds."""
    n_hat[0, 0, 0] = 0.0
    v_hat[:, 0, 0, 0] = 0.0
    e_hat[:, :, 0, 0, 0] = 0.0
    return FlowState(
        ScalarField.from_half_spectrum(grid, n_hat),
        VectorField.from_half_spectrum(grid, v_hat),
        TensorField.from_half_spectrum(grid, e_hat),
        time,
    )
