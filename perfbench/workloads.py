"""The benchmark's workloads: seeded inputs, one timed solve, output checks.

Each solve calls veflow's public functions in the order the matching CLI
subcommand does (``simulate``, ``linear-decay`` + ``lower-bound``,
``semigroup-check``) and times them from outside.  CLI-only bookkeeping
(manifest and summary files) is left out.

Seed 0 reproduces ``sample_ic.txt`` and the CLI's default grids.  Other
seeds change only random parts and never the amount of work: mode phases
(magnitudes fixed, so the H2 size and the CFL step stay the same), time
points (count and range fixed, each jittered inside its own log cell) and
check radii (near-confluent points and extremes fixed, interior points
jittered inside their own cell).

An operation is a sample (box workloads), a time point covering both norms
(whole-space decay) or a check point (propagator check).  Solves return raw
``perf_counter`` intervals; the runner converts them with its host clock.  It fails if an
exception ends it, if it is unfinished after an abort, if a value is
non-finite, or if it breaks an acceptance bound of the test suite.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from veflow import grid as vgrid
from veflow import initial as vinitial
from veflow import oracles as voracles
from veflow import quadrature as vquadrature
from veflow import snapshot as vsnapshot
from veflow.cli import sample_grid_for_check
from veflow.diagnostics import CSV_COLUMNS, decay_fit
from veflow.errors import ParameterError, VeflowError
from veflow.params import make_params
from veflow.semigroup import BlockSystem, Propagator2x2
from veflow.state import phys_to_pert
from veflow.stepping import StepperConfig, cfl_dt, run

ROOT = Path(__file__).resolve().parents[1]

DELTA = 1e-3              # displacement amplitude of the sample_ic.txt family
CFL = 0.5
# acceptance bounds of the test suite (criteria 1-6)
RESIDUAL_BOUND = 1e-8
H2_GROWTH_BOUND = 2.0
SLOPE_TOL = 0.03
BAND_SLOPE_TOL = 0.02
RK4_BOUND = 1e-8
# reference comparison, no looser than the suite's own tolerances
REF_RTOL = 1e-8
REF_ATOL_ENTRIES = 1e-10
JITTER = 0.45             # fraction of a cell a seeded point may move


@dataclass
class Solve:
    """Raw timing intervals and verified outputs of one solve.

    ``setup`` and ``wall`` are (start, end) ``perf_counter`` pairs; each
    entry of ``ops`` lists an operation's (start, end, weight) pieces, whose
    weighted durations add up to the operation's time.
    """

    setup: tuple
    wall: tuple
    ops: list
    attempted: int
    failed_ops: set
    digest: str
    outputs: dict
    notes: list = field(default_factory=list)
    write_bytes: int = 0


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def _jitter(rng: random.Random, count: int, seed: int) -> np.ndarray:
    """Offsets in cells for ``count`` interior points; zero for seed 0."""
    if seed == 0:
        return np.zeros(count)
    return np.array([rng.uniform(-JITTER, JITTER) for _ in range(count)])


# ---------------------------------------------------------------------------
# box workloads: the `simulate` subcommand


class _SetupDone(Exception):
    """Raised by the sink to stop a set-up-only run at its first sample."""


def mode_text(seed: int) -> str:
    """``sample_ic.txt`` for seed 0; otherwise each amplitude gets a random phase."""
    text = (ROOT / "sample_ic.txt").read_text()
    if seed == 0:
        return text
    rng = random.Random(seed)
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].split()
        if len(body) != 10:
            continue
        nums = [float(x) for x in body[4:]]
        amps = []
        for re_, im in zip(nums[0::2], nums[1::2]):
            phase = rng.uniform(0.0, 2.0 * math.pi)
            mag = math.hypot(re_, im)
            amps += [mag * math.cos(phase), mag * math.sin(phase)]
        lines.append(" ".join(body[:4] + [repr(a) for a in amps]))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Box:
    """``simulate`` on the sample_ic.txt family at grid size ``n``."""

    n: int
    steps: int
    output_every: int
    extra_setups: int   # set-up-only runs around the solves, for the setup_s median
    op = "sample"

    def inputs(self, seed: int) -> str:
        return mode_text(seed)

    def expected_samples(self) -> int:
        emits = [k for k in range(self.steps)
                 if (k + 1) % self.output_every == 0 or k == self.steps - 1]
        return 1 + len(emits)

    def working_set(self) -> dict:
        cells = self.n**3
        parts = {
            "complex_state": 13 * cells * 16,
            "real_samples": 13 * cells * 8,
            "rhs_gradient_temporaries": 42 * cells * 8,
        }
        basis = "13 state components as complex spectra and real samples, plus the " \
                "42 real gradient arrays (grad n, grad v, grad E, viscous term) of rhs_spectra"
        return {"bytes": sum(parts.values()), "parts": parts, "basis": basis}

    def setup(self, text: str, out: Path) -> tuple:
        return self._run(text, out, setup_only=True)

    def solve(self, text: str, out: Path, tracer=None) -> Solve:
        return self._run(text, out, setup_only=False)

    def _run(self, text: str, out: Path, setup_only: bool):
        params = make_params()
        spec = vinitial.parse_mode_file(text).scaled(DELTA, None)
        marks = []

        def sink(state):
            marks.append(perf_counter())
            if setup_only:
                raise _SetupDone

        expected = self.expected_samples()
        t0 = perf_counter()
        try:
            grid = vgrid.Grid(self.n)
            phys = vinitial.piola_ic(spec, grid, params)
            dt = cfl_dt(grid, params, CFL)
            initial = phys_to_pert(phys, params, warn=False)
            config = StepperConfig(
                dt=dt, t_end=self.steps * dt, cfl_safety=CFL, output_every=self.output_every
            )
            record = run(initial, params, config, sinks=(sink,),
                         csv_path=out / "series.csv", dump_dir=out)
            paths = vsnapshot.write_state(out, record.final_state, prefix="final")
        except _SetupDone:
            return (t0, marks[0])
        except VeflowError as exc:
            if setup_only:
                raise
            t_end = perf_counter()
            start = marks[0] if marks else t_end
            return Solve((t0, start), (start, t_end), self._intervals(marks), expected,
                         set(range(len(marks), expected)), "", {},
                         [f"aborted after {len(marks)} samples: {exc}"])
        t_end = perf_counter()

        failed, notes = set(), []
        cols = {c: np.asarray(record.columns[c], dtype=float) for c in CSV_COLUMNS}
        if len(record) != expected:
            notes.append(f"{len(record)} samples, expected {expected}")
            failed |= set(range(min(len(record), expected), expected))
        residual = np.maximum(np.maximum(cols["r1"], cols["r2"]), cols["r3"])
        growth = cols["H2"] ** 2 / cols["H2"][0] ** 2
        for i in range(len(record)):
            if not all(np.isfinite(cols[c][i]) for c in CSV_COLUMNS):
                failed.add(i)
                notes.append(f"sample {i}: non-finite value")
            elif residual[i] > RESIDUAL_BOUND:
                failed.add(i)
                notes.append(f"sample {i}: residual {residual[i]:.3e} > {RESIDUAL_BOUND:g}")
            elif growth[i] > H2_GROWTH_BOUND:
                failed.add(i)
                notes.append(f"sample {i}: H2^2 growth {growth[i]:.4f} > {H2_GROWTH_BOUND:g}")
        blobs = [(out / "series.csv").read_bytes()] + [p.read_bytes() for p in paths]
        return Solve(
            setup=(t0, marks[0]),
            wall=(marks[0], t_end),
            ops=self._intervals(marks),
            attempted=expected,
            failed_ops=failed,
            digest=_digest(*blobs),
            outputs={c: cols[c].tolist() for c in CSV_COLUMNS},
            notes=notes,
            write_bytes=sum(len(b) for b in blobs[1:]),
        )

    @staticmethod
    def _intervals(marks: list) -> list:
        """A sample's time runs from the previous sample to its own."""
        return [[(a, b, 1.0)] for a, b in zip(marks, marks[1:])]

    @staticmethod
    def compare(outputs: dict, ref: dict) -> set:
        """Samples whose columns differ from the reference by more than
        ``REF_RTOL`` times the column's largest value."""
        bad = set()
        for c, want in ref.items():
            got = outputs.get(c, [])
            if len(got) != len(want):
                return set(range(len(want)))
            atol = REF_RTOL * max(abs(w) for w in want)
            bad |= {i for i, (g, w) in enumerate(zip(got, want)) if not abs(g - w) <= atol}
        return bad


# ---------------------------------------------------------------------------
# whole-space decay: the `linear-decay` and `lower-bound` subcommands


@dataclass(frozen=True)
class Series:
    name: str
    system: object
    profile: object
    times: np.ndarray
    norms: tuple          # keyword arguments of the two norms of each point
    check: str            # "rate" (criterion 1), "band" (criterion 2) or "eta" (criterion 3)


@dataclass(frozen=True)
class Decay:
    """Default ``linear-decay`` grids for both blocks plus ``lower-bound`` (c0 = 1) and eta = 1."""

    points: int
    op = "time point"
    extra_setups = 400

    # (name, t-grid range of the CLI default, which norms, check)
    PLAN = (
        ("linear-decay/compressible", (1.0, 1e4), "k", "rate"),
        ("linear-decay/shear", (1.0, 1e4), "k", "rate"),
        ("lower-bound/c0=1", (10.0, 1e4), "component", "band"),
        ("lower-bound/eta=1", (10.0, 1e4), "component", "eta"),
    )

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        return [_jitter(rng, self.points - 2, seed) for _ in self.PLAN]

    def working_set(self) -> dict:
        parts = {"coarse_panels": 8193 * 3 * 8, "panel_temporaries": 20 * 16 * 8}
        basis = "at most 8192 coarse panels (a, b, value) per norm plus one 20-node panel"
        return {"bytes": sum(parts.values()), "parts": parts, "basis": basis}

    def _grid(self, lo: float, hi: float, offsets: np.ndarray) -> np.ndarray:
        y = np.linspace(np.log10(lo), np.log10(hi), self.points)
        y[1:-1] += offsets * (y[1] - y[0])
        return np.power(10.0, y)   # equals np.logspace(...) when offsets are zero

    def build(self, offsets: list) -> list:
        params = make_params()
        comp, shear = BlockSystem.compressible(params), BlockSystem.shear(params)
        gauss = vquadrature.gaussian_profile(amp_first=1.0, amp_second=1.0, width=1.0)
        profiles = (
            (comp, gauss),
            (shear, gauss),
            (comp, vinitial.lowerbound_profiles(1.0, width=1.0)),
            (comp, vinitial.eta_profile(1.0, width=1.0)),
        )
        series = []
        for (name, (lo, hi), key, check), (system, profile), off in zip(self.PLAN, profiles, offsets):
            norms = ({key: 0}, {key: 1})
            series.append(Series(name, system, profile, self._grid(lo, hi, off), norms, check))
        return series

    def setup(self, offsets: list, out: Path) -> tuple:
        t0 = perf_counter()
        self.build(offsets)
        return (t0, perf_counter())

    def solve(self, offsets: list, out: Path, tracer=None) -> Solve:
        t0 = perf_counter()
        plan = self.build(offsets)
        if tracer is not None:  # panels are counted through the profile callables
            plan = [replace(s, profile=replace(s.profile, first=tracer.counting(s.profile.first)))
                    for s in plan]
        t1 = perf_counter()
        ops, values, failed, notes = [], {}, set(), []
        for si, s in enumerate(plan):
            base = si * self.points
            vals = np.full((self.points, 2), np.nan)
            pieces = [[] for _ in range(self.points)]
            for j, kw in enumerate(s.norms):        # the CLI computes one norm series at a time
                for i, t in enumerate(s.times):
                    a = perf_counter()
                    try:
                        vals[i, j] = vquadrature.whole_space_norm(s.profile, s.system, float(t), **kw)
                    except VeflowError as exc:
                        notes.append(f"{s.name} t={t:.6g}: {exc}")
                    pieces[i].append((a, perf_counter(), 1.0))
            bad = {base + i for i in range(self.points)
                   if not (np.all(np.isfinite(vals[i])) and np.all(vals[i] > 0.0))}
            fit_note = self._check_fits(s, vals)
            if fit_note:
                notes.append(f"{s.name}: {fit_note}")
                bad = set(range(base, base + self.points))
            failed |= bad
            ops += pieces
            values[s.name] = vals.tolist()
        t_end = perf_counter()
        blob = np.array([values[s.name] for s in plan]).tobytes()
        return Solve((t0, t1), (t1, t_end), ops, len(plan) * self.points, failed,
                     _digest(blob), values, notes)

    @staticmethod
    def _check_fits(s: Series, vals: np.ndarray) -> str:
        """Empty when both norms meet the series' acceptance criterion."""
        try:
            if s.check == "rate":
                fits = [decay_fit(s.times, vals[:, j], window=(1e2, 1e4)) for j in (0, 1)]
                targets = (-0.75, -1.25)
                tol = SLOPE_TOL
            else:
                fits = [decay_fit(s.times, vals[:, j], band_exponent=-0.75) for j in (0, 1)]
                targets = (-0.75, -0.75) if s.check == "band" else (-1.25, -1.25)
                tol = BAND_SLOPE_TOL if s.check == "band" else SLOPE_TOL
        except ParameterError as exc:
            return f"fit failed: {exc}"
        for fit, target in zip(fits, targets):
            if not abs(fit.slope - target) <= tol:
                return f"slope {fit.slope:+.4f} off target {target} by more than {tol}"
            if s.check == "band" and not (0.0 < fit.band_low and fit.band_high <= 2.0 * fit.band_low):
                return f"band [{fit.band_low:.3e}, {fit.band_high:.3e}] wider than 2x"
        return ""

    @staticmethod
    def compare(outputs: dict, ref: dict) -> set:
        """Time points whose norms differ from the reference by more than ``REF_RTOL``."""
        bad = set()
        for si, (name, want) in enumerate(ref.items()):
            got = outputs.get(name, [])
            base = si * len(want)
            for i, w in enumerate(want):
                g = got[i] if i < len(got) else [math.nan, math.nan]
                if not all(abs(a - b) <= REF_RTOL * abs(b) for a, b in zip(g, w)):
                    bad.add(base + i)
        return bad


# ---------------------------------------------------------------------------
# propagator check: the `semigroup-check` subcommand


@dataclass(frozen=True)
class Check:
    """``semigroup-check`` for both blocks: closed form vs the RK4 oracle."""

    n_times: int
    op = "check point"
    extra_setups = 400
    INTERIOR = slice(1, 27)   # interior points of linspace(0, 3 r*, 28)

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        return [_jitter(rng, 26, seed) for _ in range(2)]

    def working_set(self) -> dict:
        radii, times = 40, self.n_times
        parts = {"rk4_stages": 6 * radii * 4 * 8, "oracle_output": times * radii * 4 * 8}
        basis = "RK4 state and four stages over 40 radii plus the (t, r) oracle table"
        return {"bytes": sum(parts.values()), "parts": parts, "basis": basis}

    def build(self, offsets: list) -> list:
        params = make_params()
        plan = []
        for system, off in zip((BlockSystem.compressible(params), BlockSystem.shear(params)), offsets):
            radii, times = sample_grid_for_check(system)
            step = 3.0 * system.confluent_radius / 27
            radii[self.INTERIOR] += off * step
            plan.append((system, radii, times[: self.n_times]))
        return plan

    def setup(self, offsets: list, out: Path) -> tuple:
        t0 = perf_counter()
        self.build(offsets)
        return (t0, perf_counter())

    def solve(self, offsets: list, out: Path, tracer=None) -> Solve:
        t0 = perf_counter()
        plan = self.build(offsets)
        t1 = perf_counter()
        ops, failed, notes, outputs, blobs = [], set(), [], {}, []
        idx = 0
        for system, radii, times in plan:
            a = perf_counter()
            oracle = voracles.rk4_block_expm(system.nu, system.b, radii, times)
            # a check point costs its share of the batched oracle plus its own comparison
            share = (a, perf_counter(), 1.0 / (len(times) * len(radii)))
            entries = []
            for it, t in enumerate(times):
                for ir, r in enumerate(radii):
                    a = perf_counter()
                    exact = Propagator2x2.build(system, float(r), float(t)).matrix
                    err = float(np.max(np.abs(exact - oracle[it, ir])))
                    ops.append([share, (a, perf_counter(), 1.0)])
                    if not err <= RK4_BOUND:
                        failed.add(idx)
                        notes.append(f"{system.kind} r={r:.6g} t={t:g}: |closed-form - RK4| = {err:.3e}")
                    entries.append(exact.ravel().tolist())
                    idx += 1
            outputs[system.kind] = entries
            blobs += [np.array(entries).tobytes(), oracle.tobytes()]
        t_end = perf_counter()
        return Solve((t0, t1), (t1, t_end), ops, idx, failed, _digest(*blobs), outputs, notes)

    @staticmethod
    def compare(outputs: dict, ref: dict) -> set:
        """Check points whose closed-form entries differ from the reference by more
        than ``REF_ATOL_ENTRIES``."""
        bad, base = set(), 0
        for kind, want in ref.items():
            got = outputs.get(kind, [])
            for i, w in enumerate(want):
                g = got[i] if i < len(got) else [math.nan] * 4
                if not all(abs(a - b) <= REF_ATOL_ENTRIES for a, b in zip(g, w)):
                    bad.add(base + i)
            base += len(want)
        return bad


WORKLOADS = {
    "box-n64-march": Box(n=64, steps=8, output_every=8, extra_setups=2),
    "box-n32-monitor": Box(n=32, steps=40, output_every=1, extra_setups=5),
    "whole-space-decay": Decay(points=64),
    "propagator-check": Check(n_times=5),
}
