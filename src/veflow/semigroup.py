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

The grid-level solver splits v and the columns of E of each mode along the
unit wavevector r, with c = E r and s = n + r.c: (n - n*, d = i r.v)
follows the compressible block about its steady state n* = a s/(1 + a)
under the frozen s, (i c_perp, v_perp) follows the shear block, and s and
E (I - r r^T) are constant: the exact solution operator for any mean-zero
data.  On the kz >= 0 halves, with (p, q) the two blocks' entries and the
shear block's factors +-i folded into them:

    n1 = p11 n + p12 d + (1 - p11) n*,   d1 = p21 n + p22 d - p21 n*,
    v1 = (i q21) c_perp + q22 v_perp + (-i d1) r,
    c1 = q11 c_perp + (-i q12) v_perp + (s - n1) r,
    E1 = c1 r^T + (E - c r^T),

which round as x0 = i c_perp, v1 = q21 x0 + ... and c1 = -i (q11 x0 + ...)
do, a product by +-i being exact; the (1 - p11) form keeps r = 0 modes
(e^{tA} = I) exact bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fields import each, workers
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

    The 8 block entries (4 per block) depend on |xi| only: one (8, R) table
    over the grid's R distinct radii, evaluated once per propagator and kept
    complex, x + 0j as numpy casts a real operand, so that no product of the
    update casts one.  The update runs a slab of kx-planes at a time, its
    entries gathered through the grid's radius index and its unit wavevectors
    cast to complex once, into a slab-sized output: no temporary spans the
    lattice.  ``apply_spectra`` writes each slab into new halves, ``add_to``
    into a midpoint sum of ``stepping.step``, each worker (``fields.each``) on
    one half of the kx-planes; the slab width lives here only.
    """

    def __init__(self, grid: Grid, params: ModelParams, t: float):
        if not 0.0 <= t < np.inf:
            raise ParameterError(f"semigroup needs finite t >= 0, got {t}")
        self.grid = grid
        self.params = params
        self.t = float(t)

        self._rhat = grid.unit_xi
        radii, self._index = grid.distinct_radii
        comp = BlockSystem.compressible(params)
        shear = BlockSystem.shear(params)
        # rows p11, p12, p21, p22 of the compressible block, then of the shear block
        self._table = np.array(
            block_entries(comp.nu, comp.b, radii, self.t)
            + block_entries(shear.nu, shear.b, radii, self.t),
            dtype=np.complex128,
        )

    def _slabs(self) -> list[slice]:
        """The slabs of kx-planes that ``_apply_slab`` takes, the widest first."""
        return self.grid.slabs(16 * self._index[0].size, workers(self.grid))

    def apply_spectra(self, *spectra):
        """Advance the kz >= 0 halves (n, v, E), shaped (..., N, N, N/2 + 1), by t;
        returns new halves."""
        out = tuple(np.empty(f.shape, dtype=np.complex128) for f in spectra)
        each(self.grid, lambda x, _: self._apply_slab(x, spectra, tuple(f[..., x, :, :] for f in out)),
             self._slabs())
        return out

    def add_to(self, acc, scale, spectra) -> None:
        """acc <- scale * acc + K(t) spectra in place on halves (n, v, E), a slab at a
        time (acc *= scale; acc += K(t) slab), one slab-sized scratch set per worker."""
        slabs = self._slabs()

        def update(x, scratch):
            for a, k in zip((f[..., x, :, :] for f in acc), self._apply_slab(x, spectra, scratch)):
                a *= scale
                a += k
        each(self.grid, update, slabs,
             lambda: tuple(np.empty_like(f[..., slabs[0], :, :]) for f in spectra))

    def _apply_slab(self, x, spectra, out) -> tuple:
        """Advance slab ``x`` of the halves ``spectra`` = (n, v, E) by t, written
        into the leading kx-planes of ``out``, three arrays at least as wide;
        returns those planes."""
        n_hat, v_hat, e_hat = (f[..., x, :, :] for f in spectra)
        n1, v1, e1 = (f[..., : n_hat.shape[0], :, :] for f in out)
        a = self.params.a
        index = self._index[x]
        rhat = self._rhat[:, x].astype(np.complex128)
        vpar = rhat[0] * v_hat[0] + rhat[1] * v_hat[1] + rhat[2] * v_hat[2]
        c = e_hat[:, 0] * rhat[0] + e_hat[:, 1] * rhat[1] + e_hat[:, 2] * rhat[2]
        cpar = rhat[0] * c[0] + rhat[1] * c[1] + rhat[2] * c[2]
        s = n_hat + cpar
        n_star = (a / (1.0 + a)) * s
        # sums accumulate in place, left to right, each product's operands in the
        # order of the formulas above; ``term`` takes every product term
        p11, p12, p21, p22 = np.take(self._table[:4], index, axis=1)
        d0 = 1j * vpar
        term = np.multiply(p12, d0)
        np.multiply(p11, n_hat, out=n1)
        n1 += term
        n1 += np.multiply(np.subtract(1.0, p11, out=p11), n_star, out=term)
        np.multiply(p22, d0, out=term)
        d1 = np.multiply(p21, n_hat, out=d0)
        d1 += term
        d1 -= np.multiply(p21, n_star, out=term)
        del p11, p12, p21, p22, n_star
        cpar1 = np.subtract(s, n1, out=s)
        vpar1 = np.multiply(-1j, d1, out=d1)
        q11, q12, q21, q22 = np.take(self._table[4:], index, axis=1)
        iq21 = np.multiply(1j, q21, out=q21)
        miq12 = np.multiply(-1j, q12, out=q12)
        cperp, vperp = np.empty_like(term), np.empty_like(term)
        for i in range(3):
            np.subtract(c[i], np.multiply(cpar, rhat[i], out=term), out=cperp)
            np.subtract(v_hat[i], np.multiply(vpar, rhat[i], out=term), out=vperp)
            np.multiply(iq21, cperp, out=v1[i])
            v1[i] += np.multiply(q22, vperp, out=term)
            v1[i] += np.multiply(vpar1, rhat[i], out=term)
            c1 = np.multiply(q11, cperp, out=cperp)
            c1 += np.multiply(miq12, vperp, out=term)
            c1 += np.multiply(cpar1, rhat[i], out=term)
            for j in range(3):
                frozen = np.subtract(e_hat[i, j], np.multiply(c[i], rhat[j], out=term), out=term)
                np.multiply(c1, rhat[j], out=e1[i, j])
                e1[i, j] += frozen
        return n1, v1, e1

    def __call__(self, state: FlowState) -> FlowState:
        n1, v1, e1 = self.apply_spectra(*(f.half for f in state.fields()))
        return state_from_spectra(self.grid, n1, v1, e1, state.time + self.t)
