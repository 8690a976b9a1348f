"""Time integration of the full nonlinear perturbation system.

The linear part is applied exactly through the per-mode propagator, so the
scheme is an exponential midpoint rule,

    U_mid   = K(dt/2) U(t) + (dt/2) G(U(t)),
    U(t+dt) = K(dt)   U(t) + dt K(dt/2) G(U_mid),

second-order accurate in dt and exact when the sources G vanish.  Only the
advective and quadratic terms constrain the step; the CFL bound follows
the acoustic speed sqrt(1 + a) of the compressible block,

    dt = cfl_safety / (sqrt(1 + a) * xi_max),   xi_max = (2 pi / L)(N/2 - 1).

Constraints are monitored, never re-projected: residual drift is part of
what the diagnostics are meant to expose.  A vacuum-guard breach aborts
the run with the partial record flushed and, when a dump directory is
configured, a snapshot of the last completed state.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .diagnostics import CSV_HEADER, TimeSeriesRecord, sample_row
from .errors import ParameterError, VacuumError
from .grid import Grid
from .params import ModelParams
from .semigroup import BlockSystem, LinearPropagator
from .sources import constraint_residuals, rhs_spectra
from .state import FlowState, state_from_spectra

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    t_end: float
    cfl_safety: float = 0.5
    output_every: int = 1
    dealias: bool = True
    sources: bool = True
    keep_states: bool = False

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ParameterError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 <= self.t_end < np.inf:
            raise ParameterError(f"t_end must be nonnegative and finite, got {self.t_end}")
        if self.output_every < 1:
            raise ParameterError("output_every must be >= 1")


def cfl_dt(grid: Grid, params: ModelParams, cfl_safety: float = 0.5) -> float:
    """Timestep from the acoustic CFL condition."""
    speed = BlockSystem.compressible(params).wave_speed  # sqrt(1 + a)
    return cfl_safety / (speed * grid.xi_max())


def _check_cfl(grid: Grid, params: ModelParams, dt: float) -> None:
    bound = cfl_dt(grid, params, cfl_safety=1.0)
    if dt > bound * (1.0 + 1e-12):
        raise ParameterError(
            f"dt = {dt:.6g} exceeds the CFL bound {bound:.6g}"
        )


def step(
    state: FlowState,
    params: ModelParams,
    dt: float,
    dealias: bool = True,
    half_prop: LinearPropagator | None = None,
    full_prop: LinearPropagator | None = None,
    sources: bool = True,
) -> FlowState:
    """One exponential-midpoint step of size dt."""
    grid = state.grid
    if full_prop is None:
        full_prop = LinearPropagator(grid, params, dt)
    n0, v0, e0 = state.n.spectrum, state.v.spectrum, state.E.spectrum
    nf, vf, ef = full_prop.apply_spectra(n0, v0, e0)
    if not sources:
        return state_from_spectra(grid, nf, vf, ef, state.time + dt)

    if half_prop is None:
        half_prop = LinearPropagator(grid, params, 0.5 * dt)
    gn0, gv0, ge0 = rhs_spectra(state, params, dealias=dealias)
    nh, vh, eh = half_prop.apply_spectra(n0, v0, e0)
    mid = state_from_spectra(
        grid,
        nh + 0.5 * dt * gn0,
        vh + 0.5 * dt * gv0,
        eh + 0.5 * dt * ge0,
        state.time + 0.5 * dt,
    )
    gn1, gv1, ge1 = rhs_spectra(mid, params, dealias=dealias)
    kn, kv, ke = half_prop.apply_spectra(gn1, gv1, ge1)
    return state_from_spectra(
        grid,
        nf + dt * kn,
        vf + dt * kv,
        ef + dt * ke,
        state.time + dt,
    )


def run(
    initial: FlowState,
    params: ModelParams,
    config: StepperConfig,
    sinks: tuple = (),
    csv_path=None,
    dump_dir=None,
) -> TimeSeriesRecord:
    """March the system to t_end, sampling diagnostics every ``output_every`` steps."""
    grid = initial.grid
    _check_cfl(grid, params, config.dt)

    record = TimeSeriesRecord(
        meta={
            "sources_enabled": config.sources,
            "dt": config.dt,
            "t_end": config.t_end,
            "dealias": config.dealias,
        }
    )
    csv_handle = None
    if csv_path is not None:
        csv_handle = open(csv_path, "w", encoding="ascii", newline="")
        csv_handle.write(CSV_HEADER)

    def emit(state: FlowState):
        row = sample_row(state)
        record.add(row, state=state, keep_state=config.keep_states)
        for sink in sinks:
            sink(state)
        if csv_handle is not None:
            csv_handle.write(record.csv_row(len(record) - 1))
            csv_handle.flush()

    worst = constraint_residuals(initial).max()
    if worst > 1e-6:
        logger.warning(
            "initial data violates the material constraints (residual %.3e)", worst
        )

    n_steps = int(np.ceil(config.t_end / config.dt - 1e-12)) if config.t_end > 0 else 0
    half_prop = LinearPropagator(grid, params, 0.5 * config.dt)
    full_prop = LinearPropagator(grid, params, config.dt)

    state = initial
    try:
        emit(state)
        for k in range(n_steps):
            dt = min(config.dt, config.t_end - k * config.dt)
            if dt < config.dt * (1.0 - 1e-9):
                state = step(state, params, dt, config.dealias, sources=config.sources)
            else:
                state = step(
                    state, params, config.dt, config.dealias, half_prop, full_prop,
                    sources=config.sources,
                )
            if (k + 1) % config.output_every == 0 or k == n_steps - 1:
                emit(state)
    except VacuumError as exc:
        logger.error("run aborted at t = %.6g: %s", state.time, exc)
        record.final_state = state
        if dump_dir is not None:
            from .snapshot import write_state

            write_state(dump_dir, state, prefix="abort")
        raise
    finally:
        if csv_handle is not None:
            csv_handle.close()
    record.final_state = state
    return record
