"""Model parameters, pressure law, and admissibility checks.

The barotropic pressure family is P(rho) = K * rho^gamma / gamma, which is
increasing and convex on rho > 0 for gamma >= 1 and K > 0.  Its derivative
at the reference density is P'(1) = K = ``pressure_scale``, so the prefactor
is what moves the acoustic scale chi0 = P'(1)^{-1/2} and the elastic
coupling a = alpha/P'(1) away from their unit-normalized values.  A density
array passes the one vacuum guard before the pressure kernel sees it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, VacuumError

VACUUM_FLOOR = 0.5


@dataclass(frozen=True)
class ModelParams:
    mu: float
    lam: float
    alpha: float
    gamma: float
    pressure_scale: float = 1.0

    @property
    def chi0(self) -> float:
        return self.pressure_scale ** -0.5

    @property
    def a(self) -> float:
        """Elastic coupling of the rescaled system, alpha / P'(1)."""
        return self.alpha / self.pressure_scale


def make_params(
    mu: float = 1.0,
    lam: float = 0.0,
    alpha: float = 1.0,
    gamma: float = 2.0,
    pressure_scale: float = 1.0,
) -> ModelParams:
    """Validate and assemble model parameters; raises naming the failed condition."""
    given = {"mu": mu, "lam": lam, "alpha": alpha, "gamma": gamma, "pressure_scale": pressure_scale}
    for name, value in given.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
    if not mu > 0.0:
        raise ParameterError(f"viscosity condition mu > 0 failed (mu = {mu})")
    if not 2.0 * mu + 3.0 * lam > 0.0:
        raise ParameterError(
            f"Lame condition 2*mu + 3*lambda > 0 failed (value = {2 * mu + 3 * lam})"
        )
    if not alpha > 0.0:
        raise ParameterError(f"elastic coupling condition alpha > 0 failed (alpha = {alpha})")
    if not pressure_scale > 0.0:
        raise ParameterError(
            f"pressure condition P'(1) > 0 failed (P'(1) = {pressure_scale})"
        )
    if not gamma >= 1.0:
        raise ParameterError(
            f"convexity of the pressure law needs gamma >= 1 (gamma = {gamma})"
        )
    return ModelParams(mu, lam, alpha, gamma, pressure_scale)


def pressure_coefficient(density: np.ndarray, params: ModelParams) -> np.ndarray:
    """Pointwise P'(rho) / (rho P'(1)) - 1 of a guarded density rho = 1 + n,
    O(n) near n = 0: rho^{gamma-2} - 1, which vanishes identically at gamma = 2."""
    return density ** (params.gamma - 2.0) - 1.0


def guard_positive_density(density: np.ndarray) -> None:
    """Abort a source evaluation whose density has left the admissible range, min > 0.5."""
    low = float(density.min())
    if low <= VACUUM_FLOOR:
        raise VacuumError(
            f"source evaluation: density dropped to {low:.6g} <= {VACUUM_FLOOR}; "
            "run left the small-perturbation regime"
        )
