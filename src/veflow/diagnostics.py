"""Run diagnostics: monitored functionals, time series, fits, comparisons.

The monitored energy functional is

    M = D2 * |grad (n, v, E)|_{H1}^2 + <div v, lap n> + <W, lap(E^T - E)>,

whose cross terms are Cauchy-Schwarz dominated by half the leading term
once D2 >= 4, giving the equivalence band [D2 - 2, D2 + 2] on admissible
states.  Per-sample rows also carry Sobolev norms, constraint residuals
and the two dissipation accumulators

    acc1 = int |grad (n, E)|_{H1}^2,   acc2 = int |grad v|_{H2}^2,

integrated with the trapezoid rule along the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, VeflowError
from .operators import (
    curl_matrix,
    div,
    gradient_sobolev_norm,
    inner_product,
    l2_norm,
    laplacian,
    sobolev_norm,
)
from .params import ModelParams
from .semigroup import LinearPropagator
from .sources import constraint_residuals
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


@dataclass
class LyapunovValue:
    total: float
    gradient_terms: tuple[float, float, float]  # |grad f|_{H1}^2 for f = n, v, E
    cross_div: float
    cross_curl: float

    @property
    def gradient_h1_sq(self) -> float:
        return sum(self.gradient_terms)


def lyapunov_m(state: FlowState, d2: float = 4.0) -> LyapunovValue:
    """Monitored functional M with its component breakdown."""
    if not d2 > 0.0:
        raise ParameterError(f"weight D2 must be positive, got {d2}")
    terms = tuple(gradient_sobolev_norm(f, 1) ** 2 for f in state.fields())
    cross1 = inner_product(div(state.v), laplacian(state.n))
    asym = state.E.antisymmetric_part()
    cross2 = inner_product(curl_matrix(state.v), laplacian(asym))
    return LyapunovValue(d2 * sum(terms) + cross1 + cross2, terms, cross1, cross2)


def lp_norm_state(state: FlowState, p: float) -> float:
    """L^p norm of the full triple through its pointwise magnitude."""
    mag2 = (
        state.n.samples**2
        + (state.v.samples**2).sum(axis=0)
        + (state.E.samples**2).sum(axis=(0, 1))
    )
    if p == 2.0:
        return float(np.sqrt(mag2.sum() * state.grid.cell_volume))
    return float((np.sum(mag2 ** (p / 2.0)) * state.grid.cell_volume) ** (1.0 / p))


def interpolation_gap(state: FlowState, p: float = 4.0) -> float:
    """||U||_p - ||U||_2^theta ||U||_6^(1-theta) with theta = (6-p)/(2p); <= 0 up to roundoff."""
    theta = (6.0 - p) / (2.0 * p)
    lhs = lp_norm_state(state, p)
    rhs = lp_norm_state(state, 2.0) ** theta * lp_norm_state(state, 6.0) ** (1.0 - theta)
    return lhs - rhs


def sample_row(state: FlowState, d2: float = 4.0) -> dict:
    """All monitored quantities of one state, as a plain dict."""
    lyap = lyapunov_m(state, d2)
    res = constraint_residuals(state)
    grad_n, _, grad_e = lyap.gradient_terms
    diss1 = grad_n + grad_e
    diss2 = gradient_sobolev_norm(state.v, 2) ** 2
    return {
        "t": state.time,
        "L2_n": l2_norm(state.n),
        "L2_v": l2_norm(state.v),
        "L2_E": l2_norm(state.E),
        "H1g": np.sqrt(lyap.gradient_h1_sq),
        "H2": state.h_norm(2),
        "M": lyap.total,
        "cross1": lyap.cross_div,
        "cross2": lyap.cross_curl,
        "r1": res.r1,
        "r2": res.r2,
        "r3": res.r3,
        "diss1_inst": diss1,
        "diss2_inst": diss2,
        "Lp4": lp_norm_state(state, 4.0),
        "Lp6": lp_norm_state(state, 6.0),
    }


@dataclass
class TimeSeriesRecord:
    """Sampled diagnostics of one run; optionally the sampled states themselves."""

    columns: dict = field(default_factory=lambda: {name: [] for name in _ALL_COLUMNS})
    states: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    final_state: object = None

    def add(self, row: dict, state: FlowState | None = None, keep_state: bool = False):
        times = self.columns["t"]
        if times and row["t"] <= times[-1]:
            raise VeflowError("sample times must be strictly increasing")
        # trapezoid accumulation of the dissipation integrals
        if times:
            dt = row["t"] - times[-1]
            acc1 = self.columns["diss_acc1"][-1] + 0.5 * dt * (
                row["diss1_inst"] + self.columns["diss1_inst"][-1]
            )
            acc2 = self.columns["diss_acc2"][-1] + 0.5 * dt * (
                row["diss2_inst"] + self.columns["diss2_inst"][-1]
            )
        else:
            acc1 = acc2 = 0.0
        stored = dict(row)
        stored["diss_acc1"] = acc1
        stored["diss_acc2"] = acc2
        for name in _ALL_COLUMNS:
            self.columns[name].append(stored[name])
        if keep_state and state is not None:
            self.states.append(state)

    def __len__(self) -> int:
        return len(self.columns["t"])

    def array(self, name: str) -> np.ndarray:
        return np.asarray(self.columns[name], dtype=float)

    @property
    def times(self) -> np.ndarray:
        return self.array("t")

    def csv_row(self, i: int) -> str:
        """Line of sample ``i`` in the CSV table, every value written with repr."""
        return ",".join(repr(float(self.columns[c][i])) for c in CSV_COLUMNS) + "\n"

    def csv_text(self) -> str:
        return CSV_HEADER + "".join(self.csv_row(i) for i in range(len(self)))


_ALL_COLUMNS = CSV_COLUMNS + ("diss1_inst", "diss2_inst", "Lp4", "Lp6")


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
    n_samples: int


def decay_fit(
    times,
    values,
    window: tuple[float, float] | None = None,
    band_exponent: float | None = None,
) -> DecayFit:
    """Least-squares slope of log(value) against log(1 + t) on the window.

    ``band_exponent`` (negative for decay) also reports the min and max of
    (1 + t)^(-band_exponent) * value over the window.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if window is None:
        window = (float(t.min()), float(t.max()))
    lo, hi = window
    if not hi > lo or lo < 0.0:
        raise ParameterError(f"bad fit window {window}")
    sel = (t >= lo) & (t <= hi)
    if int(sel.sum()) < 8:
        raise ParameterError(f"fit needs at least 8 samples in window, got {int(sel.sum())}")
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
    band = (1.0 + t[sel]) ** (-exponent) * y[sel]
    return DecayFit(
        window=(lo, hi),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        band_low=float(band.min()),
        band_high=float(band.max()),
        n_samples=int(sel.sum()),
    )


# ---------------------------------------------------------------------------
# energy ledger

@dataclass(frozen=True)
class LedgerReport:
    h2_growth: float                 # max_t H2(t)^2 / H2(0)^2
    dissipation_nonnegative: bool
    accumulators_monotone: bool
    accumulators_finite: bool
    elliptic_constant: float | None  # max ||grad E||^2 / ||grad (n, E^T-E)||^2
    cross_within_cs: bool
    energy_nonincreasing: bool | None
    bounded_constant: float          # max_t (H2^2 + acc1 + acc2) / H2(0)^2

    def verdicts(self) -> dict:
        out = {
            "h2_bounded_2x": self.h2_growth <= 2.0,
            "dissipation_nonnegative": self.dissipation_nonnegative,
            "accumulators_monotone": self.accumulators_monotone,
            "accumulators_finite": self.accumulators_finite,
            "cross_within_cs": self.cross_within_cs,
        }
        if self.elliptic_constant is not None:
            out["elliptic_constant_le_10"] = self.elliptic_constant <= 10.0
        if self.energy_nonincreasing is not None:
            out["energy_nonincreasing"] = self.energy_nonincreasing
        return out


def energy_ledger(record: TimeSeriesRecord, params: ModelParams) -> LedgerReport:
    """Discrete analogues of the energy and dissipation inequalities along a run."""
    if len(record) == 0:
        raise VeflowError("empty record")
    h2 = record.array("H2")
    acc1 = record.array("diss_acc1")
    acc2 = record.array("diss_acc2")
    d1 = record.array("diss1_inst")
    d2 = record.array("diss2_inst")
    base = h2[0] ** 2 if h2[0] > 0.0 else 1.0

    h1g = record.array("H1g")
    cross = np.abs(record.array("cross1")) + np.abs(record.array("cross2"))
    # |cross| <= (1/2 + sqrt(2)) |grad(n,v,E)|_{H1}^2 by Cauchy-Schwarz
    cross_ok = bool(np.all(cross <= (0.5 + np.sqrt(2.0)) * h1g**2 + 1e-12 * (1.0 + h1g**2)))

    elliptic = None
    if record.states:
        ratios = []
        for st in record.states:
            num = gradient_sobolev_norm(st.E, 0) ** 2
            den = (
                gradient_sobolev_norm(st.n, 0) ** 2
                + gradient_sobolev_norm(st.E.antisymmetric_part(), 0) ** 2
            )
            if den > 0.0:
                ratios.append(num / den)
        elliptic = max(ratios) if ratios else None

    energy_flag = None
    if record.meta.get("sources_enabled") is False:
        e = (
            record.array("L2_n") ** 2
            + record.array("L2_v") ** 2
            + params.a * record.array("L2_E") ** 2
        )
        energy_flag = bool(np.all(np.diff(e) <= 1e-10 * max(e[0], 1.0)))

    return LedgerReport(
        h2_growth=float((h2**2).max() / base),
        dissipation_nonnegative=bool(np.all(d1 >= 0.0) and np.all(d2 >= 0.0)),
        accumulators_monotone=bool(np.all(np.diff(acc1) >= -1e-15) and np.all(np.diff(acc2) >= -1e-15)),
        accumulators_finite=bool(np.all(np.isfinite(acc1)) and np.all(np.isfinite(acc2))),
        elliptic_constant=elliptic,
        cross_within_cs=cross_ok,
        energy_nonincreasing=energy_flag,
        bounded_constant=float(((h2**2 + acc1 + acc2).max()) / base),
    )


# ---------------------------------------------------------------------------
# linear-vs-nonlinear comparison

@dataclass(frozen=True)
class DuhamelReport:
    times: np.ndarray
    deviations: np.ndarray
    max_deviation: float


def h2_distance(a: FlowState, b: FlowState) -> float:
    """H2 norm of the componentwise difference of two states."""
    total = 0.0
    for fa, fb in zip(a.fields(), b.fields()):
        total += sobolev_norm(fa - fb, 2) ** 2
    return float(np.sqrt(total))


def duhamel_compare(
    record: TimeSeriesRecord, params: ModelParams, initial: FlowState
) -> DuhamelReport:
    """Max-over-time H2 distance between a recorded run and the exact linear flow."""
    if not record.states:
        raise VeflowError(
            "record carries no states; rerun with keep_states enabled to compare"
        )
    times = []
    devs = []
    for st in record.states:
        lin = LinearPropagator(st.grid, params, st.time - initial.time)(initial)
        times.append(st.time)
        devs.append(h2_distance(st, lin))
    times = np.asarray(times)
    devs = np.asarray(devs)
    return DuhamelReport(times, devs, float(devs.max()))
