"""Run diagnostics: monitored functionals, time series, fits, comparisons.

The monitored energy functional, column ``M`` of :func:`sample_row`, is

    M = D2 * |grad (n, v, E)|_{H1}^2 + <div v, lap n> + <W, lap(E^T - E)>,

whose cross terms are Cauchy-Schwarz dominated by half the leading term
once D2 >= 4, giving the equivalence band [D2 - 2, D2 + 2] on admissible
states.  The weight is the module constant ``D2 = 4.0``, the least value
for which that domination holds.  Per-sample rows also carry Sobolev
norms, constraint residuals and the two dissipation accumulators

    acc1 = int |grad (n, E)|_{H1}^2,   acc2 = int |grad v|_{H2}^2,

integrated with the trapezoid rule along the run.

A sample forms each field's spectral power |u_hat|^2 on its kz >= 0 half
once, in :func:`sample_row`, one field at a time and for that field's
norms only: the L2 norm reduces it per component, the H1 and H2 terms
and the dissipation rate reduce its sum over the components.  Nothing is
cached on the field, and every value keeps the bits of its own norm call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, ParameterError, VeflowError
from .operators import (
    component_power,
    div,
    gradient_sobolev_norm,
    half_sum,
    inner_product,
    l2_norm,
    laplacian,
    sobolev_norm,
)
from .params import ModelParams
from .semigroup import LinearPropagator
from .sources import ConstraintReport, constraint_residuals
from .state import FlowState

CSV_COLUMNS = (
    "t",
    "L2_n",
    "L2_v",
    "L2_E",
    "H1g",
    "H2",
    "M",
    "cross1",
    "cross2",
    "r1",
    "r2",
    "r3",
    "diss_acc1",
    "diss_acc2",
)
CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"

D2 = 4.0  # weight of the leading term of M


def csv_line(values) -> str:
    """One CSV line, each value as the repr of a Python float, which reads back exactly."""
    return ",".join(repr(float(x)) for x in values) + "\n"


def _cross_curl(state: FlowState) -> float:
    """<W, lap(E^T - E)> with W^{ij} = d_j v^i - d_i v^j by Parseval, over the slots
    i < j: both matrices are antisymmetric, so slot (j, i) repeats slot (i, j)."""
    grid = state.grid
    v, e = state.v.half, state.E.half
    xi, lap = grid.xi, grid.laplacian_symbol
    total = 0.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        w = 1j * (xi[j] * v[i] - xi[i] * v[j])
        total += half_sum((w * np.conj(lap * (e[j, i] - e[i, j]))).real)
    return float(2.0 * grid.volume * total)


def sample_row(state: FlowState, residuals: ConstraintReport | None = None) -> dict:
    """All monitored quantities of one state, as a plain dict.  ``residuals`` is its
    ``constraint_residuals`` report when the caller has one; the argument goes once
    perfbench stops patching that name in ``stepping`` (ROADMAP item 1a).

    Each field's power is formed once and passed to its norms, which give the
    bits of their own calls: ``l2_norm`` of the power per component, and the H2,
    |grad f|_{H1} (summed n, v, E into M and H1g) and dissipation terms of its
    ``component_power``."""
    # the residuals peak highest: formed first, they overlap no power or weight
    res = constraint_residuals(state) if residuals is None else residuals
    l2, h2, grad = [], [], []
    for f in state.fields():
        power = np.abs(f.half) ** 2
        l2.append(l2_norm(f, power))
        power = component_power(power)
        h2.append(sobolev_norm(f, 2, power) ** 2)
        grad.append(gradient_sobolev_norm(f, 1, power) ** 2)
        if f is state.v:
            diss2 = gradient_sobolev_norm(f, 2, power) ** 2
    cross1 = inner_product(div(state.v), laplacian(state.n))
    cross2 = _cross_curl(state)
    return {
        "t": state.time,
        "L2_n": l2[0],
        "L2_v": l2[1],
        "L2_E": l2[2],
        "H1g": np.sqrt(sum(grad)),
        "H2": float(np.sqrt(sum(h2))),  # the bits of state.h_norm(2)
        "M": D2 * sum(grad) + cross1 + cross2,
        "cross1": cross1,
        "cross2": cross2,
        "r1": res.r1,
        "r2": res.r2,
        "r3": res.r3,
        "diss1_inst": grad[0] + grad[2],
        "diss2_inst": diss2,
    }


@dataclass
class TimeSeriesRecord:
    """Sampled diagnostics of one run, and the state it ended on."""

    columns: dict = field(default_factory=lambda: {name: [] for name in _ALL_COLUMNS})
    final_state: object = None

    def add(self, row: dict):
        times = self.columns["t"]
        if times and row["t"] <= times[-1]:
            raise VeflowError("sample times must be strictly increasing")
        stored = dict(row, diss_acc1=0.0, diss_acc2=0.0)
        if times:  # trapezoid accumulation of the dissipation integrals
            dt = row["t"] - times[-1]
            for acc, rate in (("diss_acc1", "diss1_inst"), ("diss_acc2", "diss2_inst")):
                stored[acc] = self.columns[acc][-1] + 0.5 * dt * (row[rate] + self.columns[rate][-1])
        for name in _ALL_COLUMNS:
            self.columns[name].append(stored[name])

    def __len__(self) -> int:
        return len(self.columns["t"])

    def csv_row(self, i: int) -> str:
        """Line of sample ``i`` in the CSV table."""
        return csv_line(self.columns[c][i] for c in CSV_COLUMNS)


_ALL_COLUMNS = CSV_COLUMNS + ("diss1_inst", "diss2_inst")


# ---------------------------------------------------------------------------
# decay fits

@dataclass(frozen=True)
class DecayFit:
    window: tuple[float, float]
    slope: float
    intercept: float
    r_squared: float
    band_low: float
    band_high: float


MIN_FIT_SAMPLES = 8


def decay_fit(
    times,
    values,
    window: tuple[float, float] | None = None,
    band_exponent: float | None = None,
) -> DecayFit:
    """Least-squares slope of log(value) against log(1 + t) on the window.

    ``band_exponent`` (negative for decay) also reports the min and max of
    (1 + t)^(-band_exponent) * value over the window; a band that overflows
    reads inf, with no warning, for the caller to reject.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if window is None:
        window = (float(t.min()), float(t.max()))
    lo, hi = window
    if not hi > lo or lo < 0.0:
        raise ParameterError(f"bad fit window {window}")
    sel = (t >= lo) & (t <= hi)
    count = int(sel.sum())
    if count < MIN_FIT_SAMPLES:
        raise ParameterError(f"fit needs >= {MIN_FIT_SAMPLES} samples in window, got {count}")
    if not np.all(np.isfinite(y[sel])):
        raise ParameterError("fit window contains non-finite values")
    if np.any(y[sel] <= 0.0):
        raise ParameterError("fit window contains non-positive values")
    x = np.log(1.0 + t[sel])
    z = np.log(y[sel])
    slope, intercept = np.polyfit(x, z, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((z - fitted) ** 2))
    ss_tot = float(np.sum((z - z.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    exponent = band_exponent if band_exponent is not None else slope
    with np.errstate(over="ignore"):
        band = (1.0 + t[sel]) ** (-exponent) * y[sel]
    return DecayFit(
        window=(lo, hi),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        band_low=float(band.min()),
        band_high=float(band.max()),
    )


# ---------------------------------------------------------------------------
# linear-vs-nonlinear comparison

def h2_distance(a: FlowState, b: FlowState) -> float:
    """H2 norm of the componentwise difference of two states, from their halves."""
    if a.grid != b.grid:
        raise GridMismatchError("states live on different grids")
    total = 0.0
    for fa, fb in zip(a.fields(), b.fields()):
        total += sobolev_norm(type(fa).from_half_spectrum(a.grid, fa.half - fb.half), 2) ** 2
    return float(np.sqrt(total))


class DuhamelDeviation:
    """Sink for ``run`` that keeps the running max, over the sampled states, of
    the H2 distance to the exact linear flow from ``initial``; no state is kept."""

    def __init__(self, params: ModelParams, initial: FlowState):
        self.params, self.initial, self.max_deviation = params, initial, 0.0

    def __call__(self, state: FlowState) -> None:
        t = state.time - self.initial.time
        linear = LinearPropagator(state.grid, self.params, t)(self.initial)
        self.max_deviation = max(self.max_deviation, h2_distance(state, linear))
