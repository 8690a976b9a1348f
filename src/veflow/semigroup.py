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
from .fields import product
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


def _branches(mask, args, yes, no):
    """(d, p11) from ``yes`` where ``mask`` holds and from ``no`` elsewhere, each run
    on its own elements of ``args``, or on ``args`` themselves if it covers them all."""
    every = mask.all()
    if every or not mask.any():
        return (yes if every else no)(*args)
    d, p11 = np.empty(mask.shape), np.empty(mask.shape)
    for m, branch in ((mask, yes), (~mask, no)):
        d[m], p11[m] = branch(*(a[m] for a in args))
    return d, p11


def block_entries(nu: float, b: float, r: np.ndarray, t: float):
    """Real entries (p11, p12, p21, p22) of e^{tA(r)}, vectorized over r >= 0.

    Each branch, and each side of _SMALL_DIFF, runs on its own radii only.
    """

    def oscillatory(s, q):  # kappa = sigma +- i beta
        beta = np.sqrt(-q) * 0.5
        env = np.exp(s * t)
        d = env * t * np.sinc(beta * t / np.pi)
        return d, env * np.cos(beta * t) - s * d

    def overdamped(s, q):  # kappa- = sigma - h, kappa+ = sigma + h
        h = np.sqrt(q) * 0.5
        km = s - h
        dk_t = 2.0 * h * t
        return _branches(dk_t > _SMALL_DIFF, (km, h, np.exp(km * t), dk_t), apart, near)

    def apart(km, h, exp_km, z):
        d = (np.exp((km + 2.0 * h) * t) - exp_km) / (2.0 * h)
        return d, exp_km - km * d

    def near(km, h, exp_km, z):
        # stable difference quotient near coalescence: expm1(z)/z -> 1 as z -> 0
        d = exp_km * t * np.where(z > 0.0, np.expm1(z) / np.where(z > 0.0, z, 1.0), 1.0)
        return d, exp_km - km * d

    r = np.asarray(r, dtype=float)
    r2 = r * r
    disc = (nu * r2) ** 2 - 4.0 * b * r2
    sigma = -0.5 * nu * r2
    d, p11 = _branches(disc < 0.0, (sigma, disc), oscillatory, overdamped)
    return p11, -r * d, b * r * d, p11 - nu * r2 * d


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
        p11, p12, p21, p22 = block_entries(system.nu, system.b, np.asarray(float(r)), float(t))
        m = np.array([[float(p11), float(p12)], [float(p21), float(p22)]])
        return cls(m)


class LinearPropagator:
    """Grid-level solution operator of the linearized system at a fixed step t,
    applied to the kz >= 0 halves of the spectra.

    The 8 block entries (4 per block) depend on |xi| only, so they are kept as
    one (8, R) table over the grid's R distinct radii, evaluated once per
    propagator.  ``apply_spectra`` runs one slab of kx-planes at a time: it
    gathers the slab's entries from the table through the grid's radius index
    into a small buffer, runs the per-mode update on the slab and writes it
    into the outputs, so no temporary spans the lattice.  The unit
    wavevectors and the radius index are kz >= 0 views of the grid's, shared
    by every propagator on it.
    """

    def __init__(self, grid: Grid, params: ModelParams, t: float):
        if not 0.0 <= t < np.inf:
            raise ParameterError(f"semigroup needs finite t >= 0, got {t}")
        self.grid = grid
        self.params = params
        self.t = float(t)

        half = grid.n // 2 + 1
        self._rhat = grid.unit_xi[..., :half]
        radii, index = grid.distinct_radii
        self._index = index[..., :half]
        comp = BlockSystem.compressible(params)
        shear = BlockSystem.shear(params)
        # rows p11, p12, p21, p22 of the compressible block, then of the shear block
        self._table = np.array(
            block_entries(comp.nu, comp.b, radii, self.t)
            + block_entries(shear.nu, shear.b, radii, self.t)
        )

    def apply_spectra(self, n_hat, v_hat, e_hat):
        """Advance the kz >= 0 halves (n, v, E), shaped (..., N, N, N/2 + 1), by t;
        returns new halves."""
        n1 = np.empty(n_hat.shape, dtype=np.complex128)
        v1 = np.empty(v_hat.shape, dtype=np.complex128)
        e1 = np.empty(e_hat.shape, dtype=np.complex128)
        n = self.grid.n
        for x in self.grid.slabs(16 * n * (n // 2 + 1)):
            self._apply_slab(
                self._index[x], self._rhat[:, x], n_hat[x], v_hat[:, x], e_hat[:, :, x],
                n1[x], v1[:, x], e1[:, :, x],
            )
        return n1, v1, e1

    def _apply_slab(self, index, rhat, n_hat, v_hat, e_hat, n1, v1, e1):
        """The per-mode update on one slab, written into the slabs n1, v1, e1; each
        block's entries are gathered from the table at the slab's radius ``index``."""
        a = self.params.a
        p11, p12, p21, p22 = np.take(self._table[:4], index, axis=1)

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
        np.multiply(p11, n_hat, out=n1)
        n1 += p12 * d0
        n1 += (1.0 - p11) * n_star  # p11 n + p12 d0 + (1 - p11) n*
        d1 = p21 * n_hat
        d1 += p22 * d0
        d1 -= p21 * n_star  # p21 n + p22 d0 - p21 n*
        del d0, n_star, p11, p12, p21, p22
        cpar1 = np.subtract(s, n1, out=s)
        vpar1 = np.multiply(-1j, d1, out=d1)
        # the transverse pairs, v1 and e1 one component i at a time: x0 = 1j cperp,
        # x1 = q11 x0 + q12 vperp, y1 = q21 x0 + q22 vperp, c1 = cpar1 rhat - 1j x1,
        # v1 = vpar1 rhat + y1 and e1[i, j] = c1[i] rhat[j] + (e[i, j] - c[i] rhat[j]);
        # y1 is formed in v1[i] and x1 in x0's buffer, and the last sums of v1 and c1
        # are written with their terms swapped, the same bits as IEEE + commutes
        q11, q12, q21, q22 = np.take(self._table[4:], index, axis=1)
        for i in range(3):
            x0 = c[i] - cpar * rhat[i]
            np.multiply(1j, x0, out=x0)
            vperp = v_hat[i] - vpar * rhat[i]
            np.multiply(q21, x0, out=v1[i])
            v1[i] += q22 * vperp
            v1[i] += vpar1 * rhat[i]
            x1 = np.multiply(q11, x0, out=x0)
            x1 += q12 * vperp
            c1 = np.multiply(-1j, x1, out=x1)
            c1 += cpar1 * rhat[i]
            frozen = vperp  # its buffer, free from here
            for j in range(3):
                product(c[i], rhat[j], out=frozen)
                np.subtract(e_hat[i, j], frozen, out=frozen)
                product(c1, rhat[j], out=e1[i, j])
                e1[i, j] += frozen

    def __call__(self, state: FlowState) -> FlowState:
        n1, v1, e1 = self.apply_spectra(*(f.half for f in state.fields()))
        return state_from_spectra(self.grid, n1, v1, e1, state.time + self.t)

