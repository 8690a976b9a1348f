"""Direct ODE integration used to cross-check the closed-form propagator.

Classic fixed-step RK4 on  M'(t) = A(r) M(t),  M(0) = I,  vectorized over a
batch of radii.  The step size is chosen from the standard local-error
model h^4 ||A||^5 t / 30 <= _TOL = 1e-10 together with the stability limit
h ||A|| <= 0.5, so the oracle error stays well below the 1e-8 comparison
tolerance on the sample grids used here.

A(r) depends on neither t nor M, so one RK4 step of size h is linear in M:
M <- M + D M, where D = (h/6)(k1 + 2 k2 + 2 k3 + k4) is the increment of a
step taken from M = I.  D is computed once per time interval (the step
size is fixed within it) and each step is one batched 2x2 product.  The
step keeps the increment form M + D M rather than (I + D) M: forming I + D
rounds D at eps * ||I|| on every step, and stepping with it raises the
closed-form vs RK4 gap on the semigroup-check grid from 4e-14 to 6e-12.
"""

from __future__ import annotations

import numpy as np

_TOL = 1e-10


def _rhs(nu: float, b: float, r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """A(r) @ M for a batch: m has shape (len(r), 2, 2)."""
    out = np.empty_like(m)
    out[:, 0, 0] = -r * m[:, 1, 0]
    out[:, 0, 1] = -r * m[:, 1, 1]
    out[:, 1, 0] = b * r * m[:, 0, 0] - nu * r**2 * m[:, 1, 0]
    out[:, 1, 1] = b * r * m[:, 0, 1] - nu * r**2 * m[:, 1, 1]
    return out


def rk4_block_expm(nu: float, b: float, radii, times) -> np.ndarray:
    """e^{t A(r)} for every (t, r) pair; shape (len(times), len(radii), 2, 2).

    ``radii`` must be finite and ``times`` finite and nonnegative; the times
    are visited in sorted order and the result is returned in the order given.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    for name, values in (("radii", radii), ("times", times)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"oracle {name} must be finite, got {values}")
    if np.any(times < 0.0):
        raise ValueError("oracle times must be nonnegative")

    norm = float(np.max(1.0 + radii + b * radii + nu * radii**2))
    t_max = float(times.max()) if times.size else 0.0
    h_acc = (30.0 * _TOL / (max(t_max, 1e-6) * norm**5)) ** 0.25
    h = min(0.5 / norm, h_acc)

    order = np.argsort(times, kind="stable")
    out = np.empty((times.size, radii.size, 2, 2))
    eye = np.zeros((radii.size, 2, 2))
    eye[:, 0, 0] = 1.0
    eye[:, 1, 1] = 1.0
    m = eye
    t_now = 0.0
    for idx in order:
        target = float(times[idx])
        span = target - t_now
        if span > 0.0:
            steps = int(np.ceil(span / h))
            hh = span / steps
            # the RK4 increment of a step from M = I; a step from any M adds D @ M
            k1 = _rhs(nu, b, radii, eye)
            k2 = _rhs(nu, b, radii, eye + 0.5 * hh * k1)
            k3 = _rhs(nu, b, radii, eye + 0.5 * hh * k2)
            k4 = _rhs(nu, b, radii, eye + hh * k3)
            d = (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            for _ in range(steps):
                m = m + d @ m
            t_now = target
        out[idx] = m
    return out
