"""Whole-space L2 norms of propagated radial profiles.

For data whose transform is radial, U0_hat(xi) = U0_hat(|xi|), the L2 norm
of grad^k K(t) U0 over R^3 reduces to a radial integral,

    ||grad^k K(t) U0||^2 = (2 pi)^-3 * 4 pi * int_0^inf r^(2k) |e^{tA(r)} U0_hat(r)|^2 r^2 dr,

which this module evaluates with adaptive bisected 20-node Gauss-Legendre
panels. Seed panels resolve both the shrinking parabolic envelope (scale
1/sqrt(nu t)) and the acoustic oscillation (wavelength 2 pi / (sqrt(b) t)), so
refinement converges quickly even at t ~ 1e4.

Refinement runs level by level: all seed panels are evaluated in one pass,
then all halves of the panels still open at each level, with the nodes of up
to 128 panels gathered into one integrand call. A panel is accepted when its
halves agree with it to within its share of the error budget, which halves
per level. A non-finite integrand value, or a level that would hold more than
2**16 live panels, raises QuadratureError instead of refining further.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError
from .semigroup import BlockSystem, _entries

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_MAX_DEPTH = 48
_CHUNK = 128  # panels per integrand call: bounds the node temporaries at 2560 values
_MAX_PANELS = 2**16  # live panels per bisection level


@dataclass(frozen=True)
class RadialProfile:
    """Pair of radial spectral profiles with a Gaussian-type envelope.

    ``first``/``second`` evaluate the two components at radius r >= 0;
    the envelope amp * r^eta * exp(-r^2/(2 width^2)) must dominate both,
    it is what the tail-cutoff estimate uses.
    """

    first: Callable[[np.ndarray], np.ndarray]
    second: Callable[[np.ndarray], np.ndarray]
    env_amp: float
    env_eta: float
    env_width: float
    label: str = "profile"

    def components(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.first(r), dtype=float), np.asarray(self.second(r), dtype=float)

    def tail_radius(self, k: int, tol: float, bound: float) -> float:
        """Radius beyond which the integrand tail is below ``tol`` (absolute)."""
        if not np.isfinite(self.env_width) or self.env_width <= 0.0:
            raise QuadratureError(f"{self.label}: envelope does not decay, integral rejected")
        w = self.env_width
        m = 2 * k + 2 + 2 * self.env_eta
        amp2 = (bound * self.env_amp) ** 2
        r = 4.0 * w
        for _ in range(200):
            # crude but safe: tail(R) <= amp2 * R^m e^{-R^2/w^2} * w * (1 + m w / R)
            g = amp2 * r**m * np.exp(-(r / w) ** 2) * w * (1.0 + m * w / r)
            if g < tol:
                return float(r)
            r *= 1.25
        raise QuadratureError(f"{self.label}: could not bound the integrand tail")


def gaussian_profile(
    amp_first: float = 1.0,
    amp_second: float = 0.0,
    eta_second: float = 0.0,
    width: float = 1.0,
    label: str = "gaussian",
) -> RadialProfile:
    """Profiles amp * r^eta * exp(-r^2 / (2 width^2)) in each slot; eta = 0 in the first."""

    def _make(amp, eta):
        if amp == 0.0:
            return lambda r: np.zeros_like(np.asarray(r, dtype=float))
        if eta == 0.0:
            return lambda r: amp * np.exp(-np.asarray(r, dtype=float) ** 2 / (2.0 * width**2))
        return lambda r: amp * np.asarray(r, dtype=float) ** eta * np.exp(
            -np.asarray(r, dtype=float) ** 2 / (2.0 * width**2)
        )

    env_amp = max(abs(amp_first), abs(amp_second))
    env_eta = min(0.0 if amp_first else np.inf, eta_second if amp_second else np.inf)
    if not np.isfinite(env_eta):
        env_eta = 0.0
    return RadialProfile(
        _make(amp_first, 0.0),
        _make(amp_second, eta_second),
        env_amp=env_amp if env_amp > 0.0 else 1.0,
        env_eta=env_eta,
        env_width=width,
        label=label,
    )


def _integrand_factory(profile, system, t, k, component):
    nu, b = system.nu, system.b
    pref = 4.0 * np.pi / (2.0 * np.pi) ** 3

    def f(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        u1, u2 = profile.components(r)
        p11, p12, p21, p22 = _entries(nu, b, r, t)
        out1 = p11 * u1 + p12 * u2
        out2 = p21 * u1 + p22 * u2
        if component == 0:
            mag2 = out1**2
        elif component == 1:
            mag2 = out2**2
        else:
            mag2 = out1**2 + out2**2
        return pref * r ** (2 * k + 2) * mag2

    return f


def _panels(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """20-node Gauss-Legendre values of the panels [a_i, b_i], _CHUNK panels per call of f."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    out = np.empty(a.size)
    for lo in range(0, a.size, _CHUNK):
        hi = lo + _CHUNK
        nodes = mid[lo:hi, None] + half[lo:hi, None] * _GL_NODES
        vals = f(nodes.ravel()).reshape(nodes.shape)
        out[lo:hi] = half[lo:hi] * (vals @ _GL_WEIGHTS)
    if not np.all(np.isfinite(out)):
        raise QuadratureError("integrand is not finite on the quadrature nodes")
    return out


def _seed_edges(system: BlockSystem, t: float, k: int, r_tail: float) -> np.ndarray:
    nu, b = system.nu, system.b
    # envelope support: exp(-nu r^2 t) negligible past r_core
    r_core = r_tail if t * nu <= 0.0 else min(r_tail, np.sqrt(80.0 / (nu * max(t, 1e-12))))
    r_core = max(r_core, r_tail * 1e-4)
    wavelength = 2.0 * np.pi / (np.sqrt(b) * max(t, 1.0))
    width = max(wavelength / 3.0, r_core / 512.0)
    n_core = int(np.ceil(r_core / width))
    n_core = min(max(n_core, 8), 8192)
    edges = list(np.linspace(0.0, r_core, n_core + 1))
    r = r_core
    while r < r_tail:
        r = min(2.0 * r, r_tail)
        edges.append(r)
    return np.array(edges)


def whole_space_norm(
    profile: RadialProfile,
    system: BlockSystem,
    t: float,
    k: int = 0,
    component: int | None = None,
    rtol: float = 1e-8,
) -> float:
    """||grad^k (component of) e^{tA} U0||_{L2(R^3)} for radial data U0."""
    if not 0.0 <= t < np.inf:
        raise QuadratureError(f"time must be finite and nonnegative, got {t}")
    if not 0.0 < rtol < 1.0:
        raise QuadratureError(f"rtol must lie in (0, 1), got {rtol}")
    if not k >= 0:
        raise QuadratureError(f"derivative order must be nonnegative, got {k}")
    if component not in (None, 0, 1):
        raise QuadratureError(f"component must be None, 0 or 1, got {component!r}")
    f = _integrand_factory(profile, system, t, k, component)
    bound = 4.0 * max(1.0, np.sqrt(system.b), 1.0 / np.sqrt(system.b))
    # integrate out to where even an O(1) prefactor leaves nothing
    r_tail = profile.tail_radius(k, tol=1e-290, bound=bound)

    edges = _seed_edges(system, t, k, r_tail)
    a, b = edges[:-1], edges[1:]
    whole = _panels(f, a, b)
    total = float(whole.sum())
    if total <= 0.0:
        return 0.0

    budget = rtol * total
    share = budget / a.size
    value = 0.0
    err = 0.0
    for depth in range(_MAX_DEPTH + 1):
        mid = 0.5 * (a + b)
        halves = _panels(f, np.concatenate((a, mid)), np.concatenate((mid, b)))
        pair = halves[: a.size] + halves[a.size :]
        gap = np.abs(pair - whole)
        done = (gap <= share) | (depth == _MAX_DEPTH)
        value += float(pair[done].sum())
        err += float(gap[done].sum())
        todo = ~done
        live = 2 * int(todo.sum())
        if live == 0:
            break
        if live > _MAX_PANELS:
            raise QuadratureError(
                f"quadrature needs more than {_MAX_PANELS} live panels at depth {depth + 1}"
            )
        a, b = np.concatenate((a[todo], mid[todo])), np.concatenate((mid[todo], b[todo]))
        whole = halves[np.tile(todo, 2)]
        share *= 0.5
    if err > budget * 4.0:
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds budget {budget:.3e}"
        )
    return float(np.sqrt(value))
