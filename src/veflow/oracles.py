"""Direct ODE integration used to cross-check the closed-form propagator.

Classic fixed-step RK4 on  M'(t) = A(r) M(t),  M(0) = I,  vectorized over a
batch of radii.  The step size is chosen from the standard local-error
model h^4 ||A||^5 t / 30 <= tol together with the stability limit
h ||A|| <= 0.5, so the oracle error stays well below the 1e-8 comparison
tolerance on the sample grids used here.
"""

from __future__ import annotations

import numpy as np


def _rhs(nu: float, b: float, r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """A(r) @ M for a batch: m has shape (len(r), 2, 2)."""
    out = np.empty_like(m)
    out[:, 0, 0] = -r * m[:, 1, 0]
    out[:, 0, 1] = -r * m[:, 1, 1]
    out[:, 1, 0] = b * r * m[:, 0, 0] - nu * r**2 * m[:, 1, 0]
    out[:, 1, 1] = b * r * m[:, 0, 1] - nu * r**2 * m[:, 1, 1]
    return out


def rk4_block_expm(
    nu: float,
    b: float,
    radii,
    times,
    tol: float = 1e-10,
) -> np.ndarray:
    """e^{t A(r)} for every (t, r) pair; shape (len(times), len(radii), 2, 2).

    ``times`` must be nonnegative; they are visited in sorted order and the
    result is returned in the order given.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0.0):
        raise ValueError("oracle times must be nonnegative")

    norm = float(np.max(1.0 + radii + b * radii + nu * radii**2))
    t_max = float(times.max()) if times.size else 0.0
    h_acc = (30.0 * tol / (max(t_max, 1e-6) * norm**5)) ** 0.25
    h = min(0.5 / norm, h_acc)

    order = np.argsort(times, kind="stable")
    out = np.empty((times.size, radii.size, 2, 2))
    m = np.zeros((radii.size, 2, 2))
    m[:, 0, 0] = 1.0
    m[:, 1, 1] = 1.0
    t_now = 0.0
    for idx in order:
        target = float(times[idx])
        span = target - t_now
        if span > 0.0:
            steps = int(np.ceil(span / h))
            hh = span / steps
            for _ in range(steps):
                k1 = _rhs(nu, b, radii, m)
                k2 = _rhs(nu, b, radii, m + 0.5 * hh * k1)
                k3 = _rhs(nu, b, radii, m + 0.5 * hh * k2)
                k4 = _rhs(nu, b, radii, m + hh * k3)
                m = m + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_now = target
        out[idx] = m
    return out
