"""Closed-form propagators for the two Hodge blocks and the full linear flow.

Both reduced subsystems share the frequency-side structure

    d/dt [x, y] = A(r) [x, y],      A(r) = [[0, -r], [b*r, -nu*r^2]],

with (nu, b) = (2*mu + lambda, 1 + a) for the compressible pair (n, d) and
(nu, b) = (mu, a) for the shear pair (E^T - E, omega).  The eigenvalues
solve kappa^2 + nu r^2 kappa + b r^2 = 0, and

    e^{tA} = e^{k+ t} (A - k- I)/(k+ - k-) + e^{k- t} (A - k+ I)/(k- - k+).

Entries are evaluated through the divided difference
D = (e^{k+ t} - e^{k- t}) / (k+ - k-), computed as sin(beta t)/beta in the
oscillatory regime and through expm1 in the overdamped one, so the formula
stays accurate through the confluent radius r* = 2 sqrt(b)/nu where the
eigenvalues coalesce and the limit e^{kt}(I + t(A - kI)) applies.

The grid-level solver evolves each mode of the full linearized system by
splitting the velocity and the deformation columns along xi: the
longitudinal triple (n, d, xi.E xi) keeps s = n + xi.E xi frozen and is
the compressible block shifted by its steady state (n*, d*) = (a s/(1 + a), 0),
the two transverse pairs reduce to the shear block, and the remaining
deformation components are constant in time.  This
reproduces the exact solution operator for arbitrary mean-zero data and
coincides with the two-block picture on constraint-satisfying data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import Grid
from .params import ModelParams
from .state import FlowState, state_from_spectra

_SMALL_DIFF = 1e-5   # switch to expm1 form below this |dk * t|


@dataclass(frozen=True)
class BlockSystem:
    """One reduced 2x2 subsystem: diffusion nu, coupling b."""

    nu: float
    b: float
    kind: str = "generic"

    def __post_init__(self):
        if not (self.nu > 0.0 and self.b > 0.0):
            raise ParameterError(f"block requires nu > 0 and b > 0, got ({self.nu}, {self.b})")

    @classmethod
    def compressible(cls, params: ModelParams) -> "BlockSystem":
        return cls(2.0 * params.mu + params.lam, 1.0 + params.a, "compressible")

    @classmethod
    def shear(cls, params: ModelParams) -> "BlockSystem":
        return cls(params.mu, params.a, "shear")

    @property
    def confluent_radius(self) -> float:
        return 2.0 * np.sqrt(self.b) / self.nu

    @property
    def wave_speed(self) -> float:
        """Low-frequency phase speed sqrt(b) (from kappa+ kappa- = b r^2)."""
        return float(np.sqrt(self.b))


def eigenvalues(system: BlockSystem, r):
    """Roots (k+, k-) of kappa^2 + nu r^2 kappa + b r^2, k+ the slow one."""
    r = np.asarray(r, dtype=float)
    nu, b = system.nu, system.b
    disc = (nu * r**2) ** 2 - 4.0 * b * r**2
    sq = np.sqrt(np.abs(disc)).astype(complex)
    sq = np.where(disc >= 0.0, sq, 1j * sq)
    kp = 0.5 * (-nu * r**2 + sq)
    km = 0.5 * (-nu * r**2 - sq)
    if kp.ndim == 0:
        return complex(kp), complex(km)
    return kp, km


def _entries(nu: float, b: float, r: np.ndarray, t: float):
    """Real entries (p11, p12, p21, p22) of e^{tA(r)}, vectorized over r >= 0."""
    r = np.asarray(r, dtype=float)
    r2 = r * r
    disc = (nu * r2) ** 2 - 4.0 * b * r2
    osc = disc < 0.0

    sigma = -0.5 * nu * r2
    # oscillatory branch: kappa = sigma +- i beta
    beta = np.sqrt(np.where(osc, -disc, 0.0)) * 0.5
    env = np.exp(sigma * t)
    d_osc = env * t * np.sinc(beta * t / np.pi)
    p11_osc = env * np.cos(beta * t) - sigma * d_osc

    # overdamped branch: kappa- = sigma - h, kappa+ = sigma + h
    h = np.sqrt(np.where(osc, 0.0, disc)) * 0.5
    km = sigma - h
    dk_t = 2.0 * h * t
    exp_km = np.exp(km * t)
    direct = (np.exp((km + 2.0 * h) * t) - exp_km) / np.where(dk_t > 0.0, 2.0 * h, 1.0)
    # stable difference quotient near coalescence, clamped where unused
    z = np.minimum(dk_t, 1.0)
    phi = np.expm1(z) / np.where(z > 0.0, z, 1.0)
    phi = np.where(z > 0.0, phi, 1.0)
    series = exp_km * t * phi
    d_over = np.where(dk_t > _SMALL_DIFF, direct, series)
    p11_over = exp_km - km * d_over

    d = np.where(osc, d_osc, d_over)
    p11 = np.where(osc, p11_osc, p11_over)
    p12 = -r * d
    p21 = b * r * d
    p22 = p11 - nu * r2 * d
    return p11, p12, p21, p22


@dataclass(frozen=True)
class Propagator2x2:
    """e^{tA(r)} for one block at a single (r, t)."""

    r: float
    t: float
    matrix: np.ndarray

    @classmethod
    def build(cls, system: BlockSystem, r: float, t: float) -> "Propagator2x2":
        if t < 0.0:
            raise ParameterError(f"propagator needs t >= 0, got {t}")
        p11, p12, p21, p22 = _entries(system.nu, system.b, np.asarray(float(r)), float(t))
        m = np.array([[float(p11), float(p12)], [float(p21), float(p22)]])
        return cls(float(r), float(t), m)


def decay_exponent(l: float, k: int) -> float:
    """Whole-space decay rate of the k-th derivative in L2 for data in L^l."""
    return 1.5 * (1.0 / l - 0.5) + 0.5 * k


class LinearPropagator:
    """Grid-level solution operator of the linearized system at a fixed step t.

    Precomputes the per-mode block entries once so repeated applications
    (time stepping, Duhamel comparisons) cost only array arithmetic.
    """

    def __init__(self, grid: Grid, params: ModelParams, t: float):
        if t < 0.0:
            raise ParameterError(f"semigroup needs t >= 0, got {t}")
        self.grid = grid
        self.params = params
        self.t = float(t)

        r = grid.xi_mag * grid.nyquist_mask
        with np.errstate(invalid="ignore", divide="ignore"):
            rhat = np.where(r > 0.0, grid.xi / np.where(r > 0.0, r, 1.0), 0.0)
        self._rhat = rhat

        comp = BlockSystem.compressible(params)
        shear = BlockSystem.shear(params)
        self._comp = _entries(comp.nu, comp.b, r, self.t)
        self._shear = _entries(shear.nu, shear.b, r, self.t)

    def apply_spectra(self, n_hat, v_hat, e_hat):
        """Advance raw spectra (n, v, E) by t; returns new spectra."""
        rhat = self._rhat
        a = self.params.a
        p11, p12, p21, p22 = self._comp
        q11, q12, q21, q22 = self._shear

        vpar = np.einsum("j...,j...->...", rhat, v_hat)
        d0 = 1j * vpar
        c = np.einsum("ij...,j...->i...", e_hat, rhat)
        cpar = np.einsum("i...,i...->...", rhat, c)
        s = n_hat + cpar
        # (n*, 0) with n* = a s / (1 + a) is the steady state under the
        # frozen forcing -a r s, so (n - n*, d) follows the compressible block;
        # the (1 - p11) form keeps r = 0 modes (e^{tA} = I) exact bit for bit
        n_star = (a / (1.0 + a)) * s

        n1 = p11 * n_hat + p12 * d0 + (1.0 - p11) * n_star
        d1 = p21 * n_hat + p22 * d0 - p21 * n_star
        cpar1 = s - n1
        vpar1 = -1j * d1

        cperp = c - cpar * rhat
        vperp = v_hat - vpar * rhat
        x0 = 1j * cperp
        x1 = q11 * x0 + q12 * vperp
        y1 = q21 * x0 + q22 * vperp
        cperp1 = -1j * x1

        frozen = e_hat - np.einsum("i...,j...->ij...", c, rhat)
        c1 = cpar1 * rhat + cperp1
        v1 = vpar1 * rhat + y1
        e1 = np.einsum("i...,j...->ij...", c1, rhat) + frozen
        return n1, v1, e1

    def __call__(self, state: FlowState) -> FlowState:
        n1, v1, e1 = self.apply_spectra(
            state.n.spectrum, state.v.spectrum, state.E.spectrum
        )
        return state_from_spectra(self.grid, n1, v1, e1, state.time + self.t)


def apply_linear_semigroup(state: FlowState, params: ModelParams, t: float) -> FlowState:
    """Evolve the state by the exact linearized flow for a time t."""
    return LinearPropagator(state.grid, params, t)(state)
