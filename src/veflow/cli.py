"""Command-line entry point.

Subcommands: make-ic, simulate, linear-decay, lower-bound, semigroup-check,
fit.  Every run writes a manifest (all resolved inputs plus a content hash)
into the output directory before computing, so a run can be reproduced
bit-for-bit from its manifest.  Exit codes: 0 success, 2 usage error
(including a missing input file), 3 numerical abort.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import time as _time
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import decay_fit
from .errors import ParameterError, VeflowError
from .grid import Grid
from .initial import lowerbound_profiles, eta_profile, parse_mode_file, piola_ic
from .params import make_params
from .quadrature import gaussian_profile, whole_space_norm
from .semigroup import BlockSystem, Propagator2x2
from .snapshot import read_phys, write_phys, write_state
from .state import phys_to_pert
from .stepping import StepperConfig, cfl_dt, run

logger = logging.getLogger(__name__)

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=float, default=1.0, help="shear viscosity (> 0)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0, help="second viscosity")
    p.add_argument("--alpha", type=float, default=1.0, help="elastic coupling (> 0)")
    p.add_argument("--gamma", type=float, default=2.0, help="pressure-law exponent (>= 1)")
    p.add_argument(
        "--pressure-scale",
        type=float,
        default=1.0,
        help="pressure-law prefactor; equals P'(1)",
    )


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=32, help="grid points per axis (even)")
    p.add_argument("--box", type=float, default=2.0 * np.pi, help="box length L")


def _params_from(args) -> dict:
    return dict(
        mu=args.mu,
        lam=args.lam,
        alpha=args.alpha,
        gamma=args.gamma,
        pressure_scale=args.pressure_scale,
    )


def _content_hash(payload: dict, extra_bytes: bytes = b"") -> str:
    blob = json.dumps(payload, sort_keys=True).encode() + extra_bytes
    return hashlib.sha1(blob).hexdigest()


def _write_manifest(out: Path, command: str, resolved: dict, extra_bytes: bytes = b"") -> None:
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": f"veflow {__version__}",
        "command": command,
        "resolved": resolved,
        "content_hash": _content_hash(resolved, extra_bytes),
        "started_at": _time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


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
    if not (start_ok and a < b < np.inf and num >= 2):
        raise ParameterError(f"bad t-grid {spec!r}")
    if kind == "log":
        return np.logspace(np.log10(a), np.log10(b), num)
    return np.linspace(a, b, num)


def _system_from(args, params) -> BlockSystem:
    if args.system == "compressible":
        return BlockSystem.compressible(params)
    if args.system == "shear":
        return BlockSystem.shear(params)
    raise ParameterError(f"unknown system {args.system!r}")


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


# ---------------------------------------------------------------------------
# subcommands

def _cmd_make_ic(args) -> int:
    out = Path(args.out)
    params = make_params(**_params_from(args))
    grid = Grid(args.n, args.box)
    text = Path(args.modes).read_text()
    spec = parse_mode_file(text).scaled(args.delta, args.delta_u)
    resolved = {
        "grid": {"n": args.n, "box": args.box},
        "params": _params_from(args),
        "delta": args.delta,
        "delta_u": args.delta_u,
        "modes_file": str(args.modes),
    }
    _write_manifest(out, "make-ic", resolved, text.encode())
    phys = piola_ic(spec, grid, params)
    write_phys(out, phys)
    pert = phys_to_pert(phys, params, warn=False)
    _write_summary(
        out,
        {
            "params": _params_from(args),
            "h2_perturbation": pert.h_norm(2),
            "files": ["ic_rho.cvf", "ic_u.cvf", "ic_F.cvf"],
        },
    )
    print(f"wrote initial data to {out} (|(n0,v0,E0)|_H2 = {pert.h_norm(2):.6e})")
    return 0


def _cmd_simulate(args) -> int:
    out = Path(args.out)
    params = make_params(**_params_from(args))

    ic_path = Path(args.ic)
    extra = b""
    if ic_path.is_dir():
        phys = read_phys(ic_path)
    else:
        text = ic_path.read_text()
        extra = text.encode()
        spec = parse_mode_file(text).scaled(args.delta, args.delta_u)
        phys = piola_ic(spec, Grid(args.n, args.box), params)
    grid = phys.grid
    dt = args.dt if args.dt is not None else cfl_dt(grid, params, args.cfl_safety)
    config = StepperConfig(
        dt=dt,
        t_end=args.t_end,
        cfl_safety=args.cfl_safety,
        output_every=args.output_every,
        dealias=not args.no_dealias,
        sources=not args.linear,
    )
    resolved = {
        "grid": {"n": grid.n, "box": grid.length},
        "params": _params_from(args),
        "dt": dt,
        "t_end": args.t_end,
        "ic": str(args.ic),
        "delta": args.delta,
        "output_every": args.output_every,
        "dealias": not args.no_dealias,
        "sources": not args.linear,
    }
    _write_manifest(out, "simulate", resolved, extra)

    initial = phys_to_pert(phys, params, warn=False)
    t0 = _time.perf_counter()
    record = run(initial, params, config, csv_path=out / "series.csv", dump_dir=out)
    wall = _time.perf_counter() - t0
    if record.final_state is not None:
        write_state(out, record.final_state, prefix="final")
    _write_summary(
        out,
        {
            "params": _params_from(args),
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
    params = make_params(**_params_from(args))
    system = _system_from(args, params)
    if args.profile != "gaussian":
        raise ParameterError(f"linear-decay supports the gaussian profile, got {args.profile!r}")
    profile = gaussian_profile(amp_first=1.0, amp_second=1.0, width=args.width)
    tgrid = _parse_tgrid(args.t_grid)
    resolved = {
        "params": _params_from(args),
        "system": args.system,
        "profile": args.profile,
        "width": args.width,
        "t_grid": args.t_grid,
    }
    _write_manifest(out, "linear-decay", resolved)
    norms = [whole_space_norm(profile, system, t, k=0) for t in tgrid]
    gnorms = [whole_space_norm(profile, system, t, k=1) for t in tgrid]
    slopes = _running_slope(tgrid, norms)
    csv_path = out / "decay.csv"
    with open(csv_path, "w", encoding="ascii") as fh:
        fh.write("t,norm_L2,norm_grad_L2,fitted_slope_so_far\n")
        for t, a, b, s in zip(tgrid, norms, gnorms, slopes):
            fh.write(f"{float(t)!r},{float(a)!r},{float(b)!r},{float(s)!r}\n")
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
    params = make_params(**_params_from(args))
    system = _system_from(args, params)
    if args.eta is None:
        profile = lowerbound_profiles(args.c0, width=args.width)
    else:
        profile = eta_profile(args.eta, width=args.width)
    tgrid = _parse_tgrid(args.t_grid)
    resolved = {
        "params": _params_from(args),
        "system": args.system,
        "c0": args.c0,
        "eta": args.eta,
        "width": args.width,
        "t_grid": args.t_grid,
        "target": args.target,
    }
    _write_manifest(out, "lower-bound", resolved)
    first = [whole_space_norm(profile, system, t, component=0) for t in tgrid]
    second = [whole_space_norm(profile, system, t, component=1) for t in tgrid]
    csv_path = out / "lowerbound.csv"
    with open(csv_path, "w", encoding="ascii") as fh:
        fh.write("t,norm_comp1,norm_comp2,band_comp1,band_comp2\n")
        for t, a, b in zip(tgrid, first, second):
            w = (1.0 + float(t)) ** (-args.target)
            fh.write(
                f"{float(t)!r},{float(a)!r},{float(b)!r},{float(w * a)!r},{float(w * b)!r}\n"
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
    from .diagnostics import duhamel_compare

    out = Path(args.out)
    params = make_params(**_params_from(args))
    grid = Grid(args.n, args.box)
    text = Path(args.ic).read_text()
    config = StepperConfig(
        dt=cfl_dt(grid, params, args.cfl_safety),
        t_end=args.t_end,
        output_every=args.output_every,
        keep_states=True,
    )
    resolved = {
        "grid": {"n": args.n, "box": args.box},
        "params": _params_from(args),
        "delta": args.delta,
        "t_end": args.t_end,
        "ic": str(args.ic),
    }
    _write_manifest(out, "duhamel", resolved, text.encode())
    reports = {}
    for delta in (args.delta, 0.5 * args.delta):
        spec = parse_mode_file(text).scaled(delta)
        initial = phys_to_pert(piola_ic(spec, grid, params), params, warn=False)
        record = run(initial, params, config)
        reports[delta] = duhamel_compare(record, params, initial)
    ratio = reports[args.delta].max_deviation / reports[0.5 * args.delta].max_deviation
    summary = {
        "delta": args.delta,
        "max_deviation": reports[args.delta].max_deviation,
        "max_deviation_half": reports[0.5 * args.delta].max_deviation,
        "ratio": ratio,
    }
    _write_summary(out, summary)
    print(
        f"duhamel: max H2 deviation {summary['max_deviation']:.6e} at delta, "
        f"{summary['max_deviation_half']:.6e} at delta/2, ratio {ratio:.3f}"
    )
    return 0


def _cmd_semigroup_check(args) -> int:
    from .oracles import rk4_block_expm

    params = make_params(**_params_from(args))
    systems = (
        [BlockSystem.compressible(params), BlockSystem.shear(params)]
        if args.system == "both"
        else [_system_from(args, params)]
    )
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
    rows = np.genfromtxt(args.csv, delimiter=",", names=True)
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
    print(f"fit of {args.column} over t in [{fit.window[0]:g}, {fit.window[1]:g}]")
    print(f"  slope     = {fit.slope:+.6f}")
    print(f"  intercept = {fit.intercept:+.6f}")
    print(f"  R^2       = {fit.r_squared:.8f}")
    exponent = args.band_exponent if args.band_exponent is not None else fit.slope
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

    p = sub.add_parser("make-ic", help="generate constraint-exact initial data")
    _add_grid_flags(p)
    _add_model_flags(p)
    p.add_argument("--modes", required=True, help="mode-list file (phi/u lines)")
    p.add_argument("--delta", type=float, default=1.0, help="displacement amplitude scale")
    p.add_argument("--delta-u", type=float, default=None, help="velocity amplitude scale")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_ic)

    p = sub.add_parser("simulate", help="advance the nonlinear system")
    _add_grid_flags(p)
    _add_model_flags(p)
    p.add_argument("--dt", type=float, default=None, help="timestep (default: CFL)")
    p.add_argument("--cfl-safety", type=float, default=0.5)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--ic", required=True, help="mode-list file or snapshot directory")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--delta-u", type=float, default=None)
    p.add_argument("--output-every", type=int, default=10)
    p.add_argument("--no-dealias", action="store_true")
    p.add_argument("--linear", action="store_true", help="drop the nonlinear sources")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("linear-decay", help="whole-space decay of the linear flow")
    _add_model_flags(p)
    p.add_argument("--profile", default="gaussian")
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--system", choices=["compressible", "shear"], default="compressible")
    p.add_argument("--t-grid", default="log:1:1e4:64")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_linear_decay)

    p = sub.add_parser("lower-bound", help="lower-bound band experiments")
    _add_model_flags(p)
    p.add_argument("--c0", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--system", choices=["compressible", "shear"], default="compressible")
    p.add_argument("--t-grid", default="log:10:1e4:64")
    p.add_argument("--target", type=float, default=-0.75, help="band exponent")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lower_bound)

    p = sub.add_parser("duhamel", help="linear-vs-nonlinear deviation under delta halving")
    _add_grid_flags(p)
    _add_model_flags(p)
    p.add_argument("--ic", required=True, help="mode-list file")
    p.add_argument("--delta", type=float, default=1e-3)
    p.add_argument("--t-end", type=float, default=4.0)
    p.add_argument("--cfl-safety", type=float, default=0.5)
    p.add_argument("--output-every", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_duhamel)

    p = sub.add_parser("semigroup-check", help="closed-form propagator vs RK4 oracle")
    _add_model_flags(p)
    p.add_argument("--system", choices=["compressible", "shear", "both"], default="both")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_semigroup_check)

    p = sub.add_parser("fit", help="decay-slope fit of a time-series CSV column")
    p.add_argument("--csv", required=True)
    p.add_argument("--column", default="norm_L2")
    p.add_argument("--window", default=None, help="t0:t1")
    p.add_argument("--band-exponent", type=float, default=None)
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
    except (ParameterError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except VeflowError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
