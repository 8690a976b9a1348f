"""Command-line entry point.

Subcommands: make-ic, simulate, linear-decay, lower-bound, duhamel,
semigroup-check, fit.  A command with ``--out`` first runs every check that
can reject its inputs, then writes ``manifest.json`` before computing: every
parsed flag under its argparse name, the values derived from them, and a
content hash over both and the input bytes, so a run can be reproduced
bit-for-bit from its manifest.  Exit codes: 0 success, 2 usage error
(including an unreadable input path), 3 numerical abort or bad initial data.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import sys
import time as _time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import MIN_FIT_SAMPLES, DuhamelDeviation, csv_line, decay_fit
from .errors import InitialDataError, ParameterError, VeflowError
from .grid import Grid
from .initial import lowerbound_profiles, eta_profile, parse_mode_file, piola_ic
from .oracles import rk4_block_expm
from .params import ModelParams, make_params
from .quadrature import gaussian_profile, whole_space_norm
from .semigroup import BlockSystem, Propagator2x2
from .snapshot import read_phys, write_phys, write_state
from .state import phys_to_pert
from .stepping import CFL_SAFETY, StepperConfig, cfl_dt, check_cfl, run

logger = logging.getLogger(__name__)

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


def _finite(positive: bool = False):
    """argparse type for a finite float (and > 0 when ``positive``): a bad value
    is a usage error, exit 2, raised before any output is written."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not np.isfinite(value) or (positive and not value > 0.0):
            kind = "positive and finite" if positive else "finite"
            raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}")
        return value

    return parse


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=_finite(), default=1.0, help="shear viscosity (> 0)")
    p.add_argument("--lambda", dest="lam", type=_finite(), default=0.0, help="second viscosity")
    p.add_argument("--alpha", type=_finite(), default=1.0, help="elastic coupling (> 0)")
    p.add_argument("--gamma", type=_finite(), default=2.0, help="pressure-law exponent (>= 1)")
    p.add_argument(
        "--pressure-scale",
        type=_finite(),
        default=1.0,
        help="pressure-law prefactor; equals P'(1)",
    )


# defaults of the grid and amplitude flags; a snapshot --ic fixes all four,
# so simulate resolves them only for a mode-file --ic
_IC_DEFAULTS = {"n": 32, "box": 2.0 * np.pi, "delta": 1.0, "delta_u": None}


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=_IC_DEFAULTS["n"], help="grid points per axis (even)")
    p.add_argument(
        "--box", type=_finite(positive=True), default=_IC_DEFAULTS["box"], help="box length L"
    )


def _make_params(args) -> ModelParams:
    """Model parameters from the model flags, whose names are ModelParams' fields."""
    return make_params(**{f.name: getattr(args, f.name) for f in dataclasses.fields(ModelParams)})


def _read_modes(path) -> tuple:
    """Mode-file text and its parsed spec: an unreadable path is a usage error,
    non-UTF-8 bytes or a malformed line bad data."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParameterError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise InitialDataError(f"{path} is not a UTF-8 mode file: {exc}") from None
    return text, parse_mode_file(text)


# parsed names that route the command rather than shape what it computes
_UNRECORDED = ("func", "command", "out", "verbose")


def _write_manifest(out: Path, args, input_bytes: bytes = b"", **derived) -> None:
    """Record every parsed flag plus the ``derived`` values, hashed together with the
    input bytes (mode-file text or snapshot field data); an unwritable --out is a usage error."""
    resolved = {k: v for k, v in vars(args).items() if k not in _UNRECORDED}
    resolved.update(derived)
    blob = json.dumps(resolved, sort_keys=True, allow_nan=False).encode() + input_bytes
    manifest = {
        "tool": f"veflow {__version__}",
        "command": args.command,
        "resolved": resolved,
        "content_hash": hashlib.sha1(blob).hexdigest(),
        "started_at": _time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise ParameterError(f"cannot write --out: {exc}") from None


def _write_summary(out: Path, payload: dict) -> None:
    (out / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _parse_tgrid(spec: str) -> np.ndarray:
    kind, *rest = spec.split(":")
    if kind not in ("log", "lin") or len(rest) != 3:
        raise ParameterError(f"t-grid must be log:a:b:n or lin:a:b:n, got {spec!r}")
    try:
        a, b, num = float(rest[0]), float(rest[1]), int(rest[2])
    except ValueError:
        raise ParameterError(f"bad t-grid {spec!r}") from None
    start_ok = 0 < a if kind == "log" else 0 <= a
    if not (start_ok and a < b < np.inf and num >= MIN_FIT_SAMPLES):
        need = f"0 <= a < b < inf, a > 0 for log, n >= {MIN_FIT_SAMPLES} for the fit"
        raise ParameterError(f"bad t-grid {spec!r}: need {need}")
    if kind == "log":
        return np.logspace(np.log10(a), np.log10(b), num)
    return np.linspace(a, b, num)


def _running_slope(ts, ys) -> list[float]:
    out = []
    for i in range(len(ts)):
        if i < 1 or min(ys[: i + 1]) <= 0.0:
            out.append(float("nan"))
            continue
        x = np.log(1.0 + np.asarray(ts[: i + 1]))
        z = np.log(np.asarray(ys[: i + 1]))
        out.append(float(np.polyfit(x, z, 1)[0]))
    return out


def _norm_series(profile, system: BlockSystem, tgrid, **kw) -> list[float]:
    """``whole_space_norm`` at every time of the grid; ``kw`` selects k or component."""
    return [whole_space_norm(profile, system, t, **kw) for t in tgrid]


def _check_profile(profile, system: BlockSystem, flags: str) -> None:
    """Reject a profile whose L2 norm at t = 0 (where e^{tA} = I) is 0: it has
    underflowed, or it is narrower than the quadrature resolves."""
    if not whole_space_norm(profile, system, 0.0) > 0.0:
        raise ParameterError(f"{flags}: the profile's L2 norm is 0 (underflow or unresolved)")


def _write_csv(path: Path, header: str, rows) -> None:
    path.write_text(header + "\n" + "".join(map(csv_line, rows)), encoding="ascii")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_make_ic(args) -> int:
    out = Path(args.out)
    params = _make_params(args)
    grid = Grid(args.n, args.box)
    text, spec = _read_modes(args.modes)
    phys = piola_ic(spec.scaled(args.delta, args.delta_u), grid, params)
    h2 = phys_to_pert(phys, params, warn=False).h_norm(2)
    _write_manifest(out, args, text.encode())
    write_phys(out, phys)
    _write_summary(
        out,
        {
            "params": dataclasses.asdict(params),
            "h2_perturbation": h2,
            "files": ["ic_rho.cvf", "ic_u.cvf", "ic_F.cvf"],
        },
    )
    print(f"wrote initial data to {out} (|(n0,v0,E0)|_H2 = {h2:.6e})")
    return 0


def _cmd_simulate(args) -> int:
    out = Path(args.out)
    params = _make_params(args)

    if args.dt is None and args.cfl_safety is None:
        args.cfl_safety = CFL_SAFETY
    ic_path = Path(args.ic)
    if ic_path.is_dir():
        given = ["--" + k.replace("_", "-") for k in _IC_DEFAULTS if getattr(args, k) is not None]
        if given:
            raise ParameterError(
                f"{', '.join(given)} cannot be combined with a snapshot --ic, "
                "which fixes the grid and the amplitudes"
            )
        try:
            phys = read_phys(ic_path)
        except OSError as exc:
            raise ParameterError(str(exc)) from None
        input_bytes = b"".join(f.samples.tobytes() for f in (phys.rho, phys.u, phys.F))
    else:
        for k, default in _IC_DEFAULTS.items():
            if getattr(args, k) is None:
                setattr(args, k, default)
        text, spec = _read_modes(ic_path)
        input_bytes = text.encode()
        phys = piola_ic(spec.scaled(args.delta, args.delta_u), Grid(args.n, args.box), params)
    grid = phys.grid
    initial = phys_to_pert(phys, params, warn=False)
    dt = args.dt if args.dt is not None else cfl_dt(grid, params, args.cfl_safety)
    check_cfl(grid, params, dt)
    config = StepperConfig(
        dt=dt,
        t_end=args.t_end,
        output_every=args.output_every,
        dealias=not args.no_dealias,
        sources=not args.linear,
    )
    _write_manifest(out, args, input_bytes, dt=dt, grid={"n": grid.n, "box": grid.length})

    t0 = _time.perf_counter()
    record = run(initial, params, config, csv_path=out / "series.csv", dump_dir=out)
    wall = _time.perf_counter() - t0
    write_state(out, record.final_state, prefix="final")
    _write_summary(
        out,
        {
            "params": dataclasses.asdict(params),
            "dt": dt,
            "samples": len(record),
            "wall_seconds": wall,
            "final_H2": record.columns["H2"][-1],
            "max_residual": max(
                max(record.columns["r1"]), max(record.columns["r2"]), max(record.columns["r3"])
            ),
        },
    )
    print(f"simulate: {len(record)} samples -> {out / 'series.csv'} ({wall:.2f}s)")
    return 0


def _cmd_linear_decay(args) -> int:
    out = Path(args.out)
    params = _make_params(args)
    system = getattr(BlockSystem, args.system)(params)
    profile = gaussian_profile(amp_first=1.0, amp_second=1.0, width=args.width)
    _check_profile(profile, system, f"--width {args.width:g}")
    tgrid = _parse_tgrid(args.t_grid)
    _write_manifest(out, args)
    norms = _norm_series(profile, system, tgrid, k=0)
    gnorms = _norm_series(profile, system, tgrid, k=1)
    slopes = _running_slope(tgrid, norms)
    csv_path = out / "decay.csv"
    _write_csv(
        csv_path, "t,norm_L2,norm_grad_L2,fitted_slope_so_far", zip(tgrid, norms, gnorms, slopes)
    )
    fit = decay_fit(tgrid, norms)
    gfit = decay_fit(tgrid, gnorms)
    _write_summary(
        out,
        {
            "system": args.system,
            "slope_L2": fit.slope,
            "slope_grad_L2": gfit.slope,
            "r_squared": fit.r_squared,
        },
    )
    print(
        f"linear-decay[{args.system}]: slope L2 = {fit.slope:+.4f}, "
        f"grad = {gfit.slope:+.4f} -> {csv_path}"
    )
    return 0


def _cmd_lower_bound(args) -> int:
    out = Path(args.out)
    params = _make_params(args)
    system = getattr(BlockSystem, args.system)(params)
    if args.eta is None:
        args.c0 = 1.0 if args.c0 is None else args.c0
        profile = lowerbound_profiles(args.c0, width=args.width)
        flags = f"--c0 {args.c0:g}"
    else:
        profile = eta_profile(args.eta, width=args.width)
        flags = f"--eta {args.eta:g}"
    _check_profile(profile, system, f"{flags} with --width {args.width:g}")
    tgrid = _parse_tgrid(args.t_grid)
    try:
        weights = [(1.0 + float(t)) ** (-args.target) for t in tgrid]
    except OverflowError:
        raise ParameterError(f"--target {args.target:g}: a band weight overflows") from None
    _write_manifest(out, args)
    first = _norm_series(profile, system, tgrid, component=0)
    second = _norm_series(profile, system, tgrid, component=1)
    csv_path = out / "lowerbound.csv"
    _write_csv(
        csv_path,
        "t,norm_comp1,norm_comp2,band_comp1,band_comp2",
        ((t, a, b, w * a, w * b) for t, a, b, w in zip(tgrid, first, second, weights)),
    )
    summary = {"system": args.system, "target": args.target}
    for name, series in (("comp1", first), ("comp2", second)):
        vals = np.asarray(series)
        if np.all(vals > 0.0):
            fit = decay_fit(tgrid, vals, band_exponent=args.target)
            summary[name] = {
                "slope": fit.slope,
                "band_low": fit.band_low,
                "band_high": fit.band_high,
            }
        else:
            summary[name] = {"slope": None, "band_low": 0.0, "band_high": 0.0}
    _write_summary(out, summary)
    print(f"lower-bound[{args.system}]: {json.dumps(summary['comp1'])} -> {csv_path}")
    return 0


def sample_grid_for_check(system: BlockSystem) -> tuple[np.ndarray, np.ndarray]:
    """(radii, times) sample grid including near-confluent radii; 200 points."""
    rstar = system.confluent_radius
    radii = np.concatenate(
        [
            np.linspace(0.0, 3.0 * rstar, 28),
            rstar + np.array([-1e-4, -1e-6, 0.0, 1e-6, 1e-4]),
            np.array([1e-3, 1e-2, 0.1]),
            rstar * np.array([0.5, 0.9, 1.1, 2.5]),
        ]
    )
    times = np.array([0.0, 0.1, 0.7, 2.0, 5.0])
    return radii, times  # 40 x 5 = 200 points


def _cmd_duhamel(args) -> int:
    out = Path(args.out)
    params = _make_params(args)
    grid = Grid(args.n, args.box)
    if not args.t_end > 0.0:
        raise ParameterError(f"--t-end must be positive for a comparison, got {args.t_end}")
    text, spec = _read_modes(args.ic)
    initials = [
        phys_to_pert(piola_ic(spec.scaled(delta), grid, params), params, warn=False)
        for delta in (args.delta, 0.5 * args.delta)
    ]
    dt = cfl_dt(grid, params, args.cfl_safety)
    check_cfl(grid, params, dt)
    config = StepperConfig(dt, args.t_end, output_every=args.output_every)
    _write_manifest(out, args, text.encode(), dt=dt)
    deviations = []
    for init in initials:
        deviation = DuhamelDeviation(params, init)
        run(init, params, config, sinks=(deviation,))
        deviations.append(deviation.max_deviation)
    full, half = deviations
    if half == 0.0:  # zero-amplitude data, or H2 squares that underflow
        raise VeflowError(f"zero H2 deviation at delta/2 = {0.5 * args.delta:g}: no ratio")
    summary = {
        "delta": args.delta,
        "max_deviation": full,
        "max_deviation_half": half,
        "ratio": full / half,
    }
    _write_summary(out, summary)
    print(
        f"duhamel: max H2 deviation {summary['max_deviation']:.6e} at delta, "
        f"{summary['max_deviation_half']:.6e} at delta/2, ratio {summary['ratio']:.3f}"
    )
    return 0


def _cmd_semigroup_check(args) -> int:
    params = _make_params(args)
    kinds = ("compressible", "shear") if args.system == "both" else (args.system,)
    systems = [getattr(BlockSystem, kind)(params) for kind in kinds]
    worst_overall = 0.0
    print(f"{'system':>14} {'points':>8} {'worst_r':>12} {'worst_t':>8} {'max_err':>12}")
    for system in systems:
        radii, times = sample_grid_for_check(system)
        oracle = rk4_block_expm(system.nu, system.b, radii, times)
        worst = (0.0, 0.0, 0.0)
        for it, t in enumerate(times):
            for ir, r in enumerate(radii):
                exact = Propagator2x2.build(system, float(r), float(t)).matrix
                err = float(np.max(np.abs(exact - oracle[it, ir])))
                if err > worst[0]:
                    worst = (err, float(r), float(t))
        print(
            f"{system.kind:>14} {radii.size * times.size:>8d} "
            f"{worst[1]:>12.6f} {worst[2]:>8.2f} {worst[0]:>12.3e}"
        )
        worst_overall = max(worst_overall, worst[0])
    ok = worst_overall <= args.tol
    print(f"max |closed-form - RK4| = {worst_overall:.3e} ({'OK' if ok else 'FAIL'})")
    return 0 if ok else NUMERICAL_ERROR


def _cmd_fit(args) -> int:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # genfromtxt only warns on an empty file
            rows = np.genfromtxt(args.csv, delimiter=",", names=True)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"{args.csv} is not a readable time-series CSV: {exc}") from None
    except (IndexError, ValueError, UserWarning):  # an empty file, a row with missing columns
        raise ParameterError(f"{args.csv} is not a time-series CSV") from None
    if rows.dtype.names is None or "t" not in rows.dtype.names:
        raise ParameterError(f"{args.csv} is not a time-series CSV")
    if args.column not in rows.dtype.names:
        raise ParameterError(f"column {args.column!r} not in {args.csv}")
    ts = np.atleast_1d(rows["t"])
    ys = np.atleast_1d(rows[args.column])
    window = None
    if args.window:
        try:
            lo, hi = (float(x) for x in args.window.split(":"))
        except ValueError:
            raise ParameterError(f"fit window must be t0:t1, got {args.window!r}") from None
        window = (lo, hi)
    fit = decay_fit(ts, ys, window=window, band_exponent=args.band_exponent)
    exponent = args.band_exponent if args.band_exponent is not None else fit.slope
    if not np.isfinite(fit.band_high):
        raise ParameterError(f"--band-exponent {exponent:g}: the band overflows")
    print(f"fit of {args.column} over t in [{fit.window[0]:g}, {fit.window[1]:g}]")
    print(f"  slope     = {fit.slope:+.6f}")
    print(f"  intercept = {fit.intercept:+.6f}")
    print(f"  R^2       = {fit.r_squared:.8f}")
    print(f"  band (1+t)^{-exponent:+.3f} * value in [{fit.band_low:.6e}, {fit.band_high:.6e}]")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veflow",
        description="Pseudo-spectral toolkit for near-equilibrium compressible "
        "viscoelastic perturbations on a periodic box.",
    )
    parser.add_argument("--version", action="version", version=f"veflow {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    cfl_help = f"CFL step fraction (default {CFL_SAFETY})"

    p = sub.add_parser("make-ic", help="generate constraint-exact initial data")
    _add_grid_flags(p)
    _add_model_flags(p)
    p.add_argument("--modes", required=True, help="mode-list file (phi/u lines)")
    p.add_argument(
        "--delta", type=_finite(), default=_IC_DEFAULTS["delta"], help="displacement amplitude scale"
    )
    p.add_argument("--delta-u", type=_finite(), default=None, help="velocity amplitude scale")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_ic)

    p = sub.add_parser("simulate", help="advance the nonlinear system")
    _add_grid_flags(p)
    _add_model_flags(p)
    step_flags = p.add_mutually_exclusive_group()  # --dt fixes the step
    step_flags.add_argument("--dt", type=_finite(positive=True), help="time step (default: CFL)")
    step_flags.add_argument("--cfl-safety", type=_finite(positive=True), help=cfl_help)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--ic", required=True, help="mode-list file or snapshot directory")
    p.add_argument("--delta", type=_finite())
    p.add_argument("--delta-u", type=_finite(), default=None)
    p.add_argument("--output-every", type=int, default=10)
    p.add_argument("--no-dealias", action="store_true")
    p.add_argument("--linear", action="store_true", help="drop the nonlinear sources")
    p.add_argument("--out", required=True)
    # None marks a flag not given: a mode file resolves it, a snapshot rejects it
    p.set_defaults(func=_cmd_simulate, n=None, box=None)

    p = sub.add_parser("linear-decay", help="whole-space decay of the linear flow")
    _add_model_flags(p)
    p.add_argument("--width", type=_finite(positive=True), default=1.0)
    p.add_argument("--system", choices=["compressible", "shear"], default="compressible")
    p.add_argument("--t-grid", default="log:1:1e4:64")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_linear_decay)

    p = sub.add_parser("lower-bound", help="lower-bound band experiments")
    _add_model_flags(p)
    profile_flags = p.add_mutually_exclusive_group()  # --eta selects a profile without c0
    profile_flags.add_argument("--c0", type=_finite(positive=True), help="default 1")
    profile_flags.add_argument("--eta", type=_finite(positive=True), default=None)
    p.add_argument("--width", type=_finite(positive=True), default=1.0)
    p.add_argument("--system", choices=["compressible", "shear"], default="compressible")
    p.add_argument("--t-grid", default="log:10:1e4:64")
    p.add_argument("--target", type=_finite(), default=-0.75, help="band exponent")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lower_bound)

    p = sub.add_parser("duhamel", help="linear-vs-nonlinear deviation under delta halving")
    _add_grid_flags(p)
    _add_model_flags(p)
    p.add_argument("--ic", required=True, help="mode-list file")
    p.add_argument("--delta", type=_finite(positive=True), default=1e-3)
    p.add_argument("--t-end", type=float, default=4.0)
    p.add_argument("--cfl-safety", type=_finite(positive=True), default=CFL_SAFETY, help=cfl_help)
    p.add_argument("--output-every", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_duhamel)

    p = sub.add_parser("semigroup-check", help="closed-form propagator vs RK4 oracle")
    _add_model_flags(p)
    p.add_argument("--system", choices=["compressible", "shear", "both"], default="both")
    p.add_argument("--tol", type=_finite(positive=True), default=1e-8)
    p.set_defaults(func=_cmd_semigroup_check)

    p = sub.add_parser("fit", help="decay-slope fit of a time-series CSV column")
    p.add_argument("--csv", required=True)
    p.add_argument("--column", default="norm_L2")
    p.add_argument("--window", default=None, help="t0:t1")
    p.add_argument("--band-exponent", type=_finite(), default=None)
    p.set_defaults(func=_cmd_fit)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.getLogger().setLevel(logging.DEBUG)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except VeflowError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
