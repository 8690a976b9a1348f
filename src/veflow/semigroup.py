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


def _entries(nu: float, b: float, r: np.ndarray, t: float):
    """Real entries (p11, p12, p21, p22) of e^{tA(r)}, vectorized over r >= 0.

    Each branch, and each side of _SMALL_DIFF, runs on its own radii only.
    """
    r = np.asarray(r, dtype=float)
    r2 = r * r
    disc = (nu * r2) ** 2 - 4.0 * b * r2
    sigma = -0.5 * nu * r2
    d = np.empty_like(r)
    p11 = np.empty_like(r)

    # oscillatory branch: kappa = sigma +- i beta
    osc = disc < 0.0
    if osc.any():
        s = sigma[osc]
        beta = np.sqrt(-disc[osc]) * 0.5
        env = np.exp(s * t)
        d_osc = env * t * np.sinc(beta * t / np.pi)
        d[osc] = d_osc
        p11[osc] = env * np.cos(beta * t) - s * d_osc

    # overdamped branch: kappa- = sigma - h, kappa+ = sigma + h
    over = ~osc
    if over.any():
        h = np.sqrt(disc[over]) * 0.5
        km = sigma[over] - h
        dk_t = 2.0 * h * t
        exp_km = np.exp(km * t)
        d_over = np.empty_like(h)
        big = dk_t > _SMALL_DIFF
        hb = h[big]
        d_over[big] = (np.exp((km[big] + 2.0 * hb) * t) - exp_km[big]) / (2.0 * hb)
        # stable difference quotient near coalescence: expm1(z)/z -> 1 as z -> 0
        small = ~big
        z = dk_t[small]
        phi = np.where(z > 0.0, np.expm1(z) / np.where(z > 0.0, z, 1.0), 1.0)
        d_over[small] = exp_km[small] * t * phi
        d[over] = d_over
        p11[over] = exp_km - km * d_over

    p12 = -r * d
    p21 = b * r * d
    p22 = p11 - nu * r2 * d
    return p11, p12, p21, p22


@dataclass(frozen=True)
class Propagator2x2:
    """e^{tA(r)} for one block at a single (r, t)."""

    matrix: np.ndarray

    @classmethod
    def build(cls, system: BlockSystem, r: float, t: float) -> "Propagator2x2":
        if not 0.0 <= t < np.inf:
            raise ParameterError(f"propagator needs finite t >= 0, got {t}")
        if not np.isfinite(r):
            raise ParameterError(f"propagator needs a finite radius, got {r}")
        p11, p12, p21, p22 = _entries(system.nu, system.b, np.asarray(float(r)), float(t))
        m = np.array([[float(p11), float(p12)], [float(p21), float(p22)]])
        return cls(m)


class LinearPropagator:
    """Grid-level solution operator of the linearized system at a fixed step t.

    Precomputes the per-mode block entries once so repeated applications
    (time stepping, Duhamel comparisons) cost only array arithmetic; the unit
    wavevectors are the grid's, shared by every propagator on it.
    """

    def __init__(self, grid: Grid, params: ModelParams, t: float):
        if not 0.0 <= t < np.inf:
            raise ParameterError(f"semigroup needs finite t >= 0, got {t}")
        self.grid = grid
        self.params = params
        self.t = float(t)

        self._rhat = grid.unit_xi
        # the entries depend on |xi| only: evaluate once per distinct radius, gather
        radii, index = grid.distinct_radii
        comp = BlockSystem.compressible(params)
        shear = BlockSystem.shear(params)
        self._comp = tuple(p[index] for p in _entries(comp.nu, comp.b, radii, self.t))
        self._shear = tuple(p[index] for p in _entries(shear.nu, shear.b, radii, self.t))

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

        # sums accumulate in place, left to right, with each product's operands in
        # the order of the one-line form, and temporaries die after their last use
        n1 = p11 * n_hat
        n1 += p12 * d0
        n1 += (1.0 - p11) * n_star  # p11 n + p12 d0 + (1 - p11) n*
        d1 = p21 * n_hat
        d1 += p22 * d0
        d1 -= p21 * n_star  # p21 n + p22 d0 - p21 n*
        cpar1 = np.subtract(s, n1, out=s)
        vpar1 = np.multiply(-1j, d1, out=d1)
        cperp = c - cpar * rhat
        vperp = v_hat - vpar * rhat
        del d0, n_star, s, d1, cpar, vpar
        x0 = np.multiply(1j, cperp, out=cperp)
        x1 = q11 * x0
        x1 += q12 * vperp  # q11 x0 + q12 vperp
        y1 = q21 * x0
        y1 += q22 * vperp  # q21 x0 + q22 vperp
        del cperp, x0, vperp
        cperp1 = np.multiply(-1j, x1, out=x1)
        c1 = cpar1 * rhat
        c1 += cperp1
        v1 = vpar1 * rhat
        v1 += y1
        del cpar1, vpar1, x1, cperp1, y1
        # e1[i, j] = c1[i] rhat[j] + (e[i, j] - c[i] rhat[j]), one component at a
        # time; einsum, not multiply, so that zero products stay +0.0 bit for bit
        e1 = np.empty(e_hat.shape, dtype=np.complex128)
        frozen = np.empty(e_hat.shape[2:], dtype=np.complex128)
        for i, j in np.ndindex(3, 3):
            np.einsum("...,...->...", c[i], rhat[j], out=frozen)
            np.subtract(e_hat[i, j], frozen, out=frozen)
            np.einsum("...,...->...", c1[i], rhat[j], out=e1[i, j])
            e1[i, j] += frozen
        return n1, v1, e1

    def __call__(self, state: FlowState) -> FlowState:
        n1, v1, e1 = self.apply_spectra(
            state.n.spectrum, state.v.spectrum, state.E.spectrum
        )
        return state_from_spectra(self.grid, n1, v1, e1, state.time + self.t)

