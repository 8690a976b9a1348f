"""Time integration of the full nonlinear perturbation system.

The linear part is applied exactly through the per-mode propagator, so the
scheme is an exponential midpoint rule,

    U_mid   = K(dt/2) U(t) + (dt/2) G(U(t)),
    U(t+dt) = K(dt)   U(t) + dt K(dt/2) G(U_mid),

second-order accurate in dt and exact when the sources G vanish.  Only the
advective and quadratic terms constrain the step; the CFL bound follows
the acoustic speed sqrt(1 + a) of the compressible block,

    dt = cfl_safety / (sqrt(1 + a) * xi_max),   xi_max = (2 pi / L)(N/2 - 1),

with ``CFL_SAFETY`` = 0.5 the one default fraction of every caller.

The step runs on the kz >= 0 half of the lattice: the sources come back
as rfftn half spectra, the propagator is applied to the state's halves
(``f.half``, no copies) and the two midpoint sums are formed on halves.
The mid state and the new state are assembled from their halves,
uncopied, and the step mirrors nothing: a half-built field mirrors its
half (``fields.half_to_full``) only to form its samples, when they are
first read, and drops the mirror after.  An unsampled state so mirrors
only n, for the vacuum check; a sampled state mirrors every field once
and keeps its halves and samples, since the norms read the halves.  A
real-data transform costs about half a complex one, and the apply and
the sums touch N/2 + 1 of the N kz-planes.

Evaluation order and memory: every spectrum is freed after its last use,
and K(dt) U is formed last, so it is not held through the two source
evaluations.  Each sum is formed in the buffers of its scaled term
(g *= dt/2; g += h, the bits of h + (dt/2) g, as IEEE * and + commute).
The propagator works one slab of kx-planes at a time, and the sources
form E and grad E one column at a time and their v and E samples for the
call only.  The temporaries of the step are halves, about (N/2 + 1)/N of a
full spectrum each, and so is U_mid; one step peaks about 2.3x the
state's full spectrum bytes above the state it starts from.

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
from .snapshot import write_state
from .sources import constraint_residuals, rhs_spectra
from .state import FlowState, state_from_spectra

logger = logging.getLogger(__name__)

CFL_SAFETY = 0.5


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    t_end: float
    cfl_safety: float = CFL_SAFETY  # never read by run: the step is dt
    output_every: int = 1
    dealias: bool = True
    sources: bool = True

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ParameterError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 <= self.t_end < np.inf:
            raise ParameterError(f"t_end must be nonnegative and finite, got {self.t_end}")
        every = self.output_every
        if isinstance(every, bool) or not isinstance(every, (int, np.integer)) or every < 1:
            raise ParameterError(f"output_every must be an integer >= 1, got {every!r}")


def cfl_dt(grid: Grid, params: ModelParams, cfl_safety: float = CFL_SAFETY) -> float:
    """Timestep from the acoustic CFL condition."""
    speed = BlockSystem.compressible(params).wave_speed  # sqrt(1 + a)
    return cfl_safety / (speed * grid.xi_max())


def check_cfl(grid: Grid, params: ModelParams, dt: float) -> None:
    """Reject a step beyond the acoustic CFL bound (``cfl_dt`` at safety 1)."""
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
    """One exponential-midpoint step of size dt; ``half_prop`` and ``full_prop`` are
    K(dt/2) and K(dt), built here when None.  Without sources it is ``full_prop(state)``."""
    grid = state.grid
    if full_prop is None:
        full_prop = LinearPropagator(grid, params, dt)
    if not sources:
        return full_prop(state)

    # the kz >= 0 halves of the state's spectra: the sources, the propagator and
    # the sums run on them, and each assembled state keeps its halves as built
    spectra = tuple(f.half for f in state.fields())
    if half_prop is None:
        half_prop = LinearPropagator(grid, params, 0.5 * dt)
    # U_mid = K(dt/2) U + (dt/2) G(U), summed into the buffers of G(U)
    gs = list(rhs_spectra(state, params, dealias=dealias))
    hs = half_prop.apply_spectra(*spectra)
    for g, h in zip(gs, hs):
        g *= 0.5 * dt
        g += h
    del hs, g, h
    mid = state_from_spectra(grid, *gs, state.time + 0.5 * dt)
    del gs  # mid owns the halves, and frees n's once its vacuum check mirrored it
    gs = rhs_spectra(mid, params, dealias=dealias)
    del mid
    ks = list(half_prop.apply_spectra(*gs))
    del gs
    # U(t+dt) = K(dt) U + dt K(dt/2) G(U_mid), with K(dt) U formed last
    fs = full_prop.apply_spectra(*spectra)
    for k, f in zip(ks, fs):
        k *= dt
        k += f
    del fs, k, f
    return state_from_spectra(grid, *ks, state.time + dt)


def run(
    initial: FlowState,
    params: ModelParams,
    config: StepperConfig,
    sinks: tuple = (),
    csv_path=None,
    dump_dir=None,
) -> TimeSeriesRecord:
    """March the system to t_end in one ``step`` call per step, sampling diagnostics every
    ``output_every`` steps; a short last step builds its own propagators.  Each of
    ``sinks`` is called once with every sampled state, in order."""
    grid = initial.grid
    check_cfl(grid, params, config.dt)

    record = TimeSeriesRecord()
    csv_handle = None
    if csv_path is not None:
        csv_handle = open(csv_path, "w", encoding="ascii", newline="")
        csv_handle.write(CSV_HEADER)

    def emit(state: FlowState, residuals=None):
        row = sample_row(state, residuals)
        record.add(row)
        for sink in sinks:
            sink(state)
        if csv_handle is not None:
            csv_handle.write(record.csv_row(len(record) - 1))
            csv_handle.flush()

    # one residual pass at t = 0: the warning's report is the first row's
    initial_residuals = constraint_residuals(initial)
    worst = initial_residuals.max()
    if worst > 1e-6:
        logger.warning(
            "initial data violates the material constraints (residual %.3e)", worst
        )

    n_steps = int(np.ceil(config.t_end / config.dt - 1e-12))
    half_prop = LinearPropagator(grid, params, 0.5 * config.dt)
    full_prop = LinearPropagator(grid, params, config.dt)

    state = initial
    try:
        emit(state, initial_residuals)
        for k in range(n_steps):
            dt = min(config.dt, config.t_end - k * config.dt)
            if dt < config.dt * (1.0 - 1e-9):  # a short last step builds its own pair
                half_prop = full_prop = None
            else:
                dt = config.dt
            state = step(state, params, dt, config.dealias, half_prop, full_prop, config.sources)
            if (k + 1) % config.output_every == 0 or k == n_steps - 1:
                emit(state)
    except VacuumError as exc:
        logger.error("run aborted at t = %.6g: %s", state.time, exc)
        if dump_dir is not None:
            write_state(dump_dir, state, prefix="abort")
        raise
    finally:
        if csv_handle is not None:
            csv_handle.close()
    record.final_state = state
    return record
