"""Whole-space L2 norms of propagated radial profiles.

For data whose transform is radial, U0_hat(xi) = U0_hat(|xi|), the L2 norm
of grad^k K(t) U0 over R^3 reduces to a radial integral,

    ||grad^k K(t) U0||^2 = (2 pi)^-3 * 4 pi * int_0^inf r^(2k) |e^{tA(r)} U0_hat(r)|^2 r^2 dr,

which this module evaluates with adaptive bisected 21-point Gauss-Kronrod
panels (the G10-K21 pair of QUADPACK, Piessens et al., 1983). Seed panels
resolve both the shrinking parabolic envelope (scale 1/sqrt(nu t)) and the
acoustic oscillation: the entries oscillate with wavelength 2 pi / (sqrt(b) t),
so their squares, and the integrand, with period pi / (sqrt(b) t), and a core
seed panel spans one such period (or 1/512 of the core, if that is wider).
K21 is exact to degree 31, ample for one period, and G10 still accepts every
seed panel on the default time grids, so those norms need no refinement even
at t ~ 1e4; when none is needed, the norm is the square root of the seed total.

A panel's value is its 21-node Kronrod sum K21; its error estimate is
|K21 - G10|, where the 10-node Gauss rule G10 reuses 10 of the same nodes, so
one integrand pass gives both. Refinement runs level by level: all seed panels
are evaluated in one pass, then both halves of every panel still open, with the
nodes of up to 128 panels gathered into one integrand call. A panel is accepted
when its estimate is within its share of the error budget, which halves per
level. A non-finite integrand value, or a level that would hold more than
2**16 live panels, raises QuadratureError instead of refining further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError
from .semigroup import BlockSystem, block_entries

# QUADPACK qk21: Kronrod nodes in [0, 1] (descending, odd positions are the
# G10 nodes), their K21 weights and the G10 weights of the odd positions
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980178870, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))  # 21 nodes on [-1, 1], ascending
_G10 = np.zeros(11)
_G10[1::2] = _WG
# column 0 gives K21, column 1 gives G10 (zero weight on the other 11 nodes)
_WEIGHTS = np.stack([np.concatenate((w[:-1], w[::-1])) for w in (_WGK, _G10)], axis=1)
_MAX_DEPTH = 48
_CHUNK = 128  # panels per integrand call: bounds the node temporaries at 2688 values
_MAX_PANELS = 2**16  # live panels per bisection level
_RTOL = 1e-8  # error budget relative to the seed panels' total
_LOG_TAIL_TOL = math.log(1e-290)  # log of the tail left out: nothing an O(1) prefactor shows


@dataclass(frozen=True)
class RadialProfile:
    """Pair of radial spectral profiles with a Gaussian-type envelope.

    ``first``/``second`` evaluate the two components at radius r >= 0;
    the envelope amp * r^eta * exp(-r^2/(2 width^2)) must dominate both
    for r >= 1, where the tail-cutoff estimate uses it.
    """

    first: Callable[[np.ndarray], np.ndarray]
    second: Callable[[np.ndarray], np.ndarray]
    env_amp: float
    env_eta: float
    env_width: float
    label: str = "profile"

    def components(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.first(r), dtype=float), np.asarray(self.second(r), dtype=float)

    def tail_radius(self, k: int, bound: float) -> float:
        """Radius, at least 1, beyond which the integrand tail is below 1e-290, in logs."""
        if not math.isfinite(self.env_width) or self.env_width <= 0.0:
            raise QuadratureError(f"{self.label}: envelope does not decay, integral rejected")
        w = self.env_width
        m = 2 * k + 2 + 2 * self.env_eta
        log_amp2 = 2.0 * math.log(bound * self.env_amp)
        r = max(4.0 * w, 1.0)
        for _ in range(200):
            # crude but safe: tail(R) <= amp2 * R^m e^{-R^2/w^2} * w * (1 + m w / R)
            log_g = log_amp2 + m * math.log(r) - (r / w) * (r / w)
            if log_g + math.log(w * (1.0 + m * w / r)) < _LOG_TAIL_TOL:
                return r
            r *= 1.25
        raise QuadratureError(f"{self.label}: could not bound the integrand tail")


def gaussian_profile(
    amp_first: float = 1.0,
    amp_second: float = 0.0,
    eta_second: float = 0.0,
    width: float = 1.0,
    label: str = "gaussian",
) -> RadialProfile:
    """Profiles amp * r^eta * exp(-r^2 / (2 width^2)) in each slot; eta = 0 in the first.
    The envelope takes the largest exponent of the nonzero slots."""

    def _make(amp, eta):
        if amp == 0.0:
            return lambda r: np.zeros_like(np.asarray(r, dtype=float))
        if eta == 0.0:
            return lambda r: amp * np.exp(-np.asarray(r, dtype=float) ** 2 / (2.0 * width * width))
        return lambda r: amp * np.asarray(r, dtype=float) ** eta * np.exp(
            -np.asarray(r, dtype=float) ** 2 / (2.0 * width * width)
        )

    env_amp = max(abs(amp_first), abs(amp_second))
    etas = [eta for amp, eta in ((amp_first, 0.0), (amp_second, eta_second)) if amp]
    env_eta = max(etas, default=0.0)
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
        p11, p12, p21, p22 = block_entries(nu, b, r, t)
        mag2 = 0.0  # |component of e^{tA} U0_hat|^2, each output formed only if used
        if component != 1:
            mag2 = mag2 + (p11 * u1 + p12 * u2) ** 2
        if component != 0:
            mag2 = mag2 + (p21 * u1 + p22 * u2) ** 2
        return pref * (r * r) ** (k + 1) * mag2

    return f


def _kronrod(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K21 values of the panels [a_i, b_i] and |K21 - G10|, _CHUNK panels per call of f."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    out = np.empty((a.size, 2))
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value, raised below
        for lo in range(0, a.size, _CHUNK):
            hi = lo + _CHUNK
            nodes = mid[lo:hi, None] + half[lo:hi, None] * _NODES
            vals = f(nodes.ravel()).reshape(nodes.shape)
            out[lo:hi] = half[lo:hi, None] * (vals @ _WEIGHTS)
    if not np.all(np.isfinite(out)):
        raise QuadratureError("integrand is not finite on the quadrature nodes")
    return out[:, 0], np.abs(out[:, 0] - out[:, 1])


def _seed_edges(system: BlockSystem, t: float, r_tail: float) -> np.ndarray:
    nu, b = system.nu, system.b
    # envelope support: exp(-nu r^2 t) negligible past r_core
    r_core = r_tail if t * nu <= 0.0 else min(r_tail, math.sqrt(80.0 / (nu * max(t, 1e-12))))
    r_core = max(r_core, r_tail * 1e-4)
    # one panel per period pi / (sqrt(b) t) of the squared integrand
    width = max(math.pi / (math.sqrt(b) * max(t, 1.0)), r_core / 512.0)
    n_core = min(max(math.ceil(r_core / width), 8), 8192)
    # the tail doubles out from r_core (exact in binary) and stops at r_tail;
    # the core edges are np.linspace(0, r_core, n_core + 1) bit for bit
    tail = [r_core]
    while tail[-1] < r_tail:
        tail.append(min(2.0 * tail[-1], r_tail))
    return np.concatenate((np.arange(n_core) * (r_core / n_core), tail))


def whole_space_norm(
    profile: RadialProfile,
    system: BlockSystem,
    t: float,
    k: int = 0,
    component: int | None = None,
) -> float:
    """||grad^k (component of) e^{tA} U0||_{L2(R^3)} for radial data U0."""
    if not 0.0 <= t < math.inf:
        raise QuadratureError(f"time must be finite and nonnegative, got {t}")
    if not k >= 0:
        raise QuadratureError(f"derivative order must be nonnegative, got {k}")
    if component not in (None, 0, 1):
        raise QuadratureError(f"component must be None, 0 or 1, got {component!r}")
    f = _integrand_factory(profile, system, t, k, component)
    bound = 4.0 * max(1.0, math.sqrt(system.b), 1.0 / math.sqrt(system.b))
    r_tail = profile.tail_radius(k, bound=bound)

    edges = _seed_edges(system, t, r_tail)
    a, b = edges[:-1], edges[1:]
    panel, gap = _kronrod(f, a, b)
    total = float(panel.sum())
    if total <= 0.0:
        return 0.0

    budget = _RTOL * total
    share = budget / a.size
    if gap.max() <= share:  # every seed panel accepted: value is total
        return math.sqrt(total)
    value = 0.0
    err = 0.0
    for depth in range(_MAX_DEPTH + 1):
        done = (gap <= share) | (depth == _MAX_DEPTH)
        value += float(panel[done].sum())
        err += float(gap[done].sum())
        todo = ~done
        live = 2 * int(todo.sum())
        if live == 0:
            break
        if live > _MAX_PANELS:
            raise QuadratureError(
                f"quadrature needs more than {_MAX_PANELS} live panels at depth {depth + 1}"
            )
        mid = 0.5 * (a + b)
        a, b = np.concatenate((a[todo], mid[todo])), np.concatenate((mid[todo], b[todo]))
        panel, gap = _kronrod(f, a, b)
        share *= 0.5
    if err > budget * 4.0:
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds budget {budget:.3e}"
        )
    return math.sqrt(value)
