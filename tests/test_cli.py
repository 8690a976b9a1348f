"""Command-line interface: manifests, determinism, exit codes, outputs."""

import json
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from veflow import VectorField
from veflow.cli import build_parser, main
from veflow.snapshot import read_field, write_field

MODEFILE = """
phi 1 0 0   0.0 0.0   0.0 -0.5   0.0 0.25
phi 0 1 0   0.3 0.0   0.0 0.0   -0.2 0.0
u   1 0 0   0.4 0.0   0.0 0.1    0.0 0.0
"""
ZERO_MODE = "u   0 0 0   0.5 0.3   0.0 0.0    0.0 0.0\n"
SAMPLE_IC = Path(__file__).resolve().parents[1] / "sample_ic.txt"


@pytest.fixture
def modefile(tmp_path):
    p = tmp_path / "modes.txt"
    p.write_text(MODEFILE)
    return p


def _cheap(command, modefile):
    """argv of a small, valid run of a subcommand that writes a manifest; no --out."""
    modes = str(modefile)
    return {
        "make-ic": ["make-ic", "--n", "8", "--modes", modes, "--delta", "1e-3"],
        "simulate": ["simulate", "--n", "8", "--t-end", "0", "--ic", modes, "--delta", "1e-3"],
        "duhamel": ["duhamel", "--n", "8", "--ic", modes, "--t-end", "0.2"],
        "linear-decay": ["linear-decay", "--t-grid", "log:1:10:8"],
        "lower-bound": ["lower-bound", "--t-grid", "log:10:100:8"],
    }[command]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _manifest(out):
    return json.loads((out / "manifest.json").read_text())


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.fixture(autouse=True)
def strict_json_outputs(tmp_path):
    """Every manifest.json and summary.json a CLI test writes parses as strict
    JSON: Python's json module writes NaN and Infinity, which JSON forbids."""
    yield
    for path in sorted(tmp_path.rglob("*.json")):
        if path.name in ("manifest.json", "summary.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)


class TestMakeIc:
    def test_writes_snapshots_and_manifest(self, tmp_path, modefile):
        out = tmp_path / "ic"
        rc = main(
            [
                "make-ic",
                "--n", "16",
                "--modes", str(modefile),
                "--delta", "1e-3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "make-ic"
        assert len(manifest["content_hash"]) == 40
        for name in ("ic_rho.cvf", "ic_u.cvf", "ic_F.cvf", "summary.json"):
            assert (out / name).exists()

    def test_h2_computed_once(self, tmp_path, modefile, capsys, monkeypatch):
        """The H2 of the initial perturbation is computed once, for summary.json
        and for the printed line."""
        from veflow.state import FlowState

        calls, h_norm = [], FlowState.h_norm
        monkeypatch.setattr(FlowState, "h_norm", lambda st, k: calls.append(k) or h_norm(st, k))
        out = tmp_path / "ic"
        argv = ["make-ic", "--n", "8", "--modes", str(modefile), "--delta", "1e-3", "--out", str(out)]
        assert main(argv) == 0
        h2 = json.loads((out / "summary.json").read_text())["h2_perturbation"]
        assert calls == [2]
        assert f"(|(n0,v0,E0)|_H2 = {h2:.6e})" in capsys.readouterr().out

    def test_zero_wavevector_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "modes.txt"
        bad.write_text(MODEFILE + ZERO_MODE)
        rc = main(["make-ic", "--n", "8", "--modes", str(bad), "--out", str(tmp_path / "ic")])
        assert rc == 3
        assert "line 5" in capsys.readouterr().err
        assert not (tmp_path / "ic").exists()

    def test_missing_modes_file_usage_error(self, tmp_path, capsys):
        rc = main(["make-ic", "--modes", str(tmp_path / "none.txt"), "--out", str(tmp_path / "ic")])
        assert rc == 2
        assert "none.txt" in capsys.readouterr().err


class TestSimulate:
    def test_t_end_zero_single_row(self, tmp_path, modefile):
        out = tmp_path / "run0"
        rc = main(
            [
                "simulate",
                "--n", "8",
                "--t-end", "0",
                "--ic", str(modefile),
                "--delta", "1e-3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "series.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert (out / "manifest.json").exists()
        assert (out / "final_n.cvf").exists()

    @pytest.mark.parametrize("t_end", ["nan", "inf", "-inf"])
    def test_non_finite_horizon_usage_error(self, tmp_path, modefile, t_end):
        out = tmp_path / "run"
        args = ["simulate", "--n", "8", f"--t-end={t_end}", "--ic", str(modefile), "--delta", "1e-3"]
        rc = main(args + ["--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["none.txt", "ic_F.cvf"])
    def test_missing_input_usage_error(self, tmp_path, modefile, capsys, missing):
        ic = tmp_path / missing
        if missing == "ic_F.cvf":
            ic = tmp_path / "ic"
            main(["make-ic", "--n", "8", "--modes", str(modefile), "--delta", "1e-3", "--out", str(ic)])
            (ic / missing).unlink()
        rc = main(["simulate", "--t-end", "0.1", "--ic", str(ic), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert missing in capsys.readouterr().err

    def test_from_snapshot_directory(self, tmp_path, modefile):
        ic_dir = tmp_path / "ic"
        main(["make-ic", "--n", "8", "--modes", str(modefile), "--delta", "1e-3", "--out", str(ic_dir)])
        out = tmp_path / "run"
        rc = main(["simulate", "--t-end", "0.1", "--ic", str(ic_dir), "--out", str(out)])
        assert rc == 0
        assert (out / "series.csv").exists()

    @pytest.mark.parametrize(
        "flag, value", [("--n", "8"), ("--box", "6.0"), ("--delta", "1e-3"), ("--delta-u", "1e-3")]
    )
    def test_snapshot_rejects_the_flags_it_fixes(self, tmp_path, modefile, capsys, flag, value):
        """A snapshot fixes the grid and the amplitudes: a flag it would ignore is an
        error, exit 2, before any output."""
        ic_dir = tmp_path / "ic"
        main(["make-ic", "--n", "8", "--modes", str(modefile), "--delta", "1e-3", "--out", str(ic_dir)])
        out = tmp_path / "run"
        rc = main(["simulate", "--t-end", "0.1", "--ic", str(ic_dir), flag, value, "--out", str(out)])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_determinism_byte_identical(self, tmp_path, modefile):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"run_{tag}"
            rc = main(
                [
                    "simulate",
                    "--n", "8",
                    "--t-end", "0.2",
                    "--ic", str(modefile),
                    "--delta", "1e-3",
                    "--out", str(out),
                ]
            )
            assert rc == 0
            outs.append((out / "series.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_vacuum_abort_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        # det(I + grad phi) dips to 0.4 < 1/2: density guard trips at once
        bad.write_text("phi 1 0 0   0.0 -0.3   0.0 0.0   0.0 0.0\n")
        out = tmp_path / "crash"
        rc = main(["simulate", "--n", "8", "--t-end", "1.0", "--ic", str(bad), "--out", str(out)])
        assert rc == 3

    def test_truncated_snapshot_exit_code(self, tmp_path, modefile, capsys):
        ic_dir = tmp_path / "ic"
        main(["make-ic", "--n", "8", "--modes", str(modefile), "--delta", "1e-3", "--out", str(ic_dir)])
        rho = ic_dir / "ic_rho.cvf"
        rho.write_bytes(rho.read_bytes()[:-1])
        rc = main(["simulate", "--t-end", "0.1", "--ic", str(ic_dir), "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "payload length" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [5, 2**20])
    def test_bad_snapshot_grid_exit_code(self, tmp_path, modefile, n):
        """A header N that no grid takes (odd), or whose payload is missing, is bad
        data (exit 3), found before any lattice is built and before any output."""
        ic_dir = tmp_path / "ic"
        main(["make-ic", "--n", "8", "--modes", str(modefile), "--delta", "1e-3", "--out", str(ic_dir)])
        rho = ic_dir / "ic_rho.cvf"
        raw = rho.read_bytes()
        rho.write_bytes(raw[:8] + struct.pack("<I", n) + raw[12:])
        out = tmp_path / "run"
        assert main(["simulate", "--t-end", "0.1", "--ic", str(ic_dir), "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("slot, rank", [("u", 1), ("F", 2)])
    def test_wrong_rank_snapshot_exit_code(self, tmp_path, modefile, capsys, slot, rank):
        """A snapshot file whose rank does not match its slot (here a copy of ic_rho)
        is bad data, exit 3, named with the rank it needs, before any output."""
        ic_dir = tmp_path / "ic"
        main(["make-ic", "--n", "8", "--modes", str(modefile), "--delta", "1e-3", "--out", str(ic_dir)])
        shutil.copyfile(ic_dir / "ic_rho.cvf", ic_dir / f"ic_{slot}.cvf")
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["simulate", "--t-end", "0.1", "--ic", str(ic_dir), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"ic_{slot}.cvf: rank 0 snapshot, need rank {rank}" in err
        assert not out.exists()

    def test_linear_flag(self, tmp_path, modefile):
        out = tmp_path / "lin"
        rc = main(
            [
                "simulate",
                "--n", "8",
                "--t-end", "0.2",
                "--ic", str(modefile),
                "--delta", "1e-3",
                "--linear",
                "--out", str(out),
            ]
        )
        assert rc == 0
        l2 = np.genfromtxt(out / "series.csv", delimiter=",", names=True)
        energy = l2["L2_n"] ** 2 + l2["L2_v"] ** 2 + l2["L2_E"] ** 2
        assert np.all(np.diff(energy) <= 1e-12 * energy[0])


class TestLinearDecay:
    def test_csv_columns_and_slope(self, tmp_path):
        out = tmp_path / "decay"
        rc = main(
            [
                "linear-decay",
                "--system", "compressible",
                "--t-grid", "log:100:10000:12",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "decay.csv").read_text().strip().splitlines()
        assert lines[0] == "t,norm_L2,norm_grad_L2,fitted_slope_so_far"
        assert len(lines) == 13
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["slope_L2"] + 0.75) < 0.03

    def test_bad_tgrid_usage_error(self, tmp_path):
        rc = main(["linear-decay", "--t-grid", "geom:1:2:3", "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize(
        "spec", ["log:1:inf:3", "lin:0:inf:3", "log:nan:10:3", "log:1:10:abc", "lin:0:x:3"]
    )
    def test_malformed_tgrid_usage_error(self, tmp_path, spec):
        rc = main(["linear-decay", "--t-grid", spec, "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_wide_profile_to_large_time(self, tmp_path):
        out = tmp_path / "wide"
        rc = main(
            ["linear-decay", "--width", "30", "--t-grid", "log:1:1e5:16", "--out", str(out)]
        )
        assert rc == 0
        rows = (out / "decay.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 16

    def test_unknown_flag_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["linear-decay", "--eta", "1.0", "--out", "/tmp/x"])
        assert exc.value.code == 2


class TestLowerBound:
    def test_band_columns(self, tmp_path):
        out = tmp_path / "lb"
        rc = main(["lower-bound", "--t-grid", "log:10:100:8", "--out", str(out)])
        assert rc == 0
        lines = (out / "lowerbound.csv").read_text().strip().splitlines()
        assert lines[0] == "t,norm_comp1,norm_comp2,band_comp1,band_comp2"
        assert len(lines) == 9
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 < summary["comp1"]["band_low"] <= summary["comp1"]["band_high"]


_OUT_COMMANDS = ("make-ic", "simulate", "linear-decay", "lower-bound", "duhamel")


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", _OUT_COMMANDS)
def test_uncreatable_out_usage_error(tmp_path, modefile, capsys, command, under):
    """An --out that is a regular file, or lies under one, is a usage error: exit 2
    with one line naming --out, not an OSError traceback."""
    taken = tmp_path / "taken"
    taken.write_text("a regular file\n")
    out = taken / "sub" if under else taken
    capsys.readouterr()
    assert main([*_cheap(command, modefile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot write --out: ") and err.count("\n") == 1
    assert taken.read_text() == "a regular file\n"


# (subcommand, flag, finite positive value past what a Python float power takes,
# exit code): 3 where the quadrature meets a non-finite integrand, 2 where the
# profile's norm at t = 0 is 0 (it underflows or is not resolved), or where a
# band weight overflows
_EXTREME = [
    ("linear-decay", "--width", "1e200", 3),
    ("linear-decay", "--width", "1e-200", 2),
    ("linear-decay", "--width", "1e-20", 2),
    ("lower-bound", "--eta", "400", 3),
    ("lower-bound", "--c0", "1e200", 3),
    ("lower-bound", "--c0", "1e-300", 2),
    ("lower-bound", "--target", "-1e10", 2),
]


@pytest.mark.parametrize(
    "command, flag, value, code", _EXTREME, ids=[f"{c}{f}={v}" for c, f, v, _ in _EXTREME]
)
def test_extreme_profile_flag_exit_code(tmp_path, modefile, capsys, command, flag, value, code):
    """An extreme profile flag ends in exit 2 or 3, with no traceback and no warning."""
    argv = [*_cheap(command, modefile), f"{flag}={value}", "--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == code
    assert not caught, [str(w.message) for w in caught]
    assert ("usage error" if code == 2 else "numerical abort") in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [("linear-decay", "--width", "1e-20"), ("linear-decay", "--width", "1e-200"),
     ("lower-bound", "--c0", "1e-300"), ("lower-bound", "--width", "1e-200")],
)
def test_vanishing_profile_writes_nothing(tmp_path, modefile, capsys, command, flag, value):
    """A profile whose L2 norm at t = 0 is 0 is rejected before the manifest:
    one usage-error line naming the flag, and no output directory."""
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*_cheap(command, modefile), f"{flag}={value}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert f"{flag} {float(value):g}" in err
    assert not out.exists()


# (subcommand with its required flags, flag, bad value)
_BAD_VALUES = [
    ("make-ic", "--delta", "nan"),
    ("make-ic", "--delta", "inf"),
    ("make-ic", "--delta-u", "nan"),
    ("simulate", "--delta", "nan"),
    ("simulate", "--delta-u", "-inf"),
    ("duhamel", "--delta", "nan"),
    ("duhamel", "--delta", "0"),
    ("simulate", "--box", "inf"),
    ("simulate", "--gamma", "inf"),
    ("linear-decay", "--mu", "inf"),
    ("lower-bound", "--alpha", "nan"),
    ("linear-decay", "--width", "nan"),
    ("linear-decay", "--width", "-1"),
    ("linear-decay", "--width", "0"),
    ("linear-decay", "--width", "inf"),
    ("lower-bound", "--width", "nan"),
    ("lower-bound", "--c0", "nan"),
    ("lower-bound", "--c0", "0"),
    ("lower-bound", "--eta", "nan"),
    ("lower-bound", "--eta", "-1"),
    ("lower-bound", "--target", "nan"),
    ("lower-bound", "--target", "inf"),
    ("lower-bound", "--target", "abc"),
    ("simulate", "--dt", "nan"),
    ("simulate", "--dt", "0"),
    ("simulate", "--cfl-safety", "nan"),
    ("simulate", "--cfl-safety", "-0.5"),
    ("duhamel", "--cfl-safety", "inf"),
]


@pytest.mark.parametrize(
    "command, flag, value", _BAD_VALUES, ids=[f"{c}{f}={v}" for c, f, v in _BAD_VALUES]
)
def test_bad_value_is_usage_error(tmp_path, modefile, capsys, command, flag, value):
    """Rejected where the value enters: exit 2, before the manifest is written."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*_cheap(command, modefile), f"{flag}={value}", "--out", str(out)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


# (subcommand, flags added to its small run, exit code); "ZERO" is a mode file
# with a k = (0, 0, 0) line
_REJECTED = [
    ("simulate", ["--dt", "5"], 2),  # beyond the CFL bound
    ("simulate", ["--dt", "0.05", "--cfl-safety", "nan"], 2),
    ("simulate", ["--dt", "0.05", "--cfl-safety", "0.5"], 2),  # --dt fixes the step
    ("duhamel", ["--cfl-safety", "4"], 2),  # beyond the CFL bound
    ("duhamel", ["--t-end", "0"], 2),  # no step, so no remainder to compare
    ("duhamel", ["--ic", "ZERO"], 3),
    ("simulate", ["--ic", "ZERO"], 3),
    ("linear-decay", ["--t-grid", "log:1:10:7"], 2),  # the decay fit needs 8 points
    ("lower-bound", ["--t-grid", "lin:10:100:7"], 2),
    ("lower-bound", ["--eta", "1", "--c0", "2"], 2),  # --eta selects a profile without c0
]


@pytest.mark.parametrize(
    "command, flags, code", _REJECTED, ids=[f"{c}{' '.join(f)}" for c, f, _ in _REJECTED]
)
def test_rejected_input_leaves_no_output(tmp_path, modefile, command, flags, code):
    """Every check that can reject an input runs before the manifest is written."""
    zero = tmp_path / "zero.txt"
    zero.write_text(MODEFILE + ZERO_MODE)
    flags = [str(zero) if f == "ZERO" else f for f in flags]
    out = tmp_path / "out"
    assert _exit_code([*_cheap(command, modefile), *flags, "--out", str(out)]) == code
    assert not out.exists()


# (argv of a command given an input it cannot use, exit code): DIR is a
# directory, CVF a snapshot file (binary, not UTF-8 text), SNAP a snapshot
# directory and HOLE a snapshot directory whose ic_rho.cvf is a directory
_UNREADABLE = [
    (["make-ic", "--modes", "DIR"], 2),
    (["make-ic", "--modes", "CVF"], 3),
    (["simulate", "--t-end", "0.1", "--ic", "CVF"], 3),
    (["simulate", "--t-end", "0.1", "--ic", "HOLE"], 2),
    (["duhamel", "--n", "8", "--ic", "SNAP"], 2),
    (["fit", "--csv", "DIR"], 2),
    (["fit", "--csv", "CVF"], 2),
]


@pytest.mark.parametrize("argv, code", _UNREADABLE, ids=[" ".join(a) for a, _ in _UNREADABLE])
def test_unreadable_input_exit_code(tmp_path, modefile, capsys, argv, code):
    """A path that cannot be read is a usage error (exit 2), like a missing file;
    a mode file that is not UTF-8 text is bad initial data (exit 3).  Either is
    reported, not raised, before any output directory is made."""
    snap = tmp_path / "ic"
    main(["make-ic", "--n", "8", "--modes", str(modefile), "--delta", "1e-3", "--out", str(snap)])
    hole = tmp_path / "hole"
    shutil.copytree(snap, hole)
    (hole / "ic_rho.cvf").unlink()
    (hole / "ic_rho.cvf").mkdir()
    inputs = {"DIR": tmp_path, "CVF": snap / "ic_rho.cvf", "SNAP": snap, "HOLE": hole}
    argv = [str(inputs.get(a, a)) for a in argv]
    out = tmp_path / "out"
    if argv[0] != "fit":
        argv += ["--out", str(out)]
    capsys.readouterr()
    assert main(argv) == code
    assert ("usage error" if code == 2 else "numerical abort") in capsys.readouterr().err
    assert not out.exists()


class TestManifest:
    DERIVED = {"simulate": {"dt", "grid"}, "duhamel": {"dt"}}
    # a mode-file --ic resolves the grid flags that simulate parses as None
    # and the CFL fraction that it parses as None when --dt is absent
    # and lower-bound resolves --c0 to 1 when --eta is absent
    RESOLVED = {"simulate": {"box": 2.0 * np.pi, "cfl_safety": 0.5}, "lower-bound": {"c0": 1.0}}

    @pytest.mark.parametrize(
        "command", ["make-ic", "simulate", "duhamel", "linear-decay", "lower-bound"]
    )
    def test_records_every_parsed_flag(self, tmp_path, modefile, command):
        argv = [*_cheap(command, modefile), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        manifest = _manifest(tmp_path / "out")
        parsed = vars(build_parser().parse_args(argv))
        flags = {k: v for k, v in parsed.items() if k not in ("func", "command", "out", "verbose")}
        flags.update(self.RESOLVED.get(command, {}))
        derived = self.DERIVED.get(command, set())
        assert manifest["command"] == command
        assert set(manifest["resolved"]) == set(flags) | derived
        for name in set(flags) - derived:
            assert manifest["resolved"][name] == flags[name]

    # (subcommand, flags of the first run, flags of the second)
    ONE_FLAG = [
        ("simulate", ["--delta-u", "1e-3"], ["--delta-u", "2e-3"]),
        ("simulate", [], ["--no-dealias"]),
        ("simulate", [], ["--linear"]),
        ("simulate", ["--cfl-safety", "0.5"], ["--cfl-safety", "0.25"]),
        ("duhamel", ["--output-every", "1"], ["--output-every", "2"]),
        ("duhamel", ["--cfl-safety", "0.5"], ["--cfl-safety", "0.25"]),
        ("linear-decay", ["--width", "1"], ["--width", "2"]),
        ("lower-bound", ["--target", "-0.75"], ["--target", "-0.5"]),
    ]

    @pytest.mark.parametrize(
        "command, first, second", ONE_FLAG, ids=[f"{c}{b[0]}" for c, _, b in ONE_FLAG]
    )
    def test_one_flag_changes_hash(self, tmp_path, modefile, command, first, second):
        hashes = []
        for tag, flags in (("a", first), ("b", first), ("c", second)):
            out = tmp_path / tag
            assert main([*_cheap(command, modefile), *flags, "--out", str(out)]) == 0
            hashes.append(_manifest(out)["content_hash"])
        assert hashes[0] == hashes[1] != hashes[2]

    def test_dt_runs_hash_alike(self, tmp_path, modefile):
        """--dt fixes the step, so the CFL fraction is recorded as null."""
        manifests = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main([*_cheap("simulate", modefile), "--dt", "0.05", "--out", str(out)]) == 0
            manifests.append(_manifest(out))
        assert manifests[0]["resolved"]["cfl_safety"] is None
        assert manifests[0]["content_hash"] == manifests[1]["content_hash"]

    def test_snapshot_sample_changes_hash(self, tmp_path, modefile):
        ic = tmp_path / "ic"
        assert main([*_cheap("make-ic", modefile), "--out", str(ic)]) == 0

        def content_hash(tag):
            out = tmp_path / tag
            assert main(["simulate", "--t-end", "0", "--ic", str(ic), "--out", str(out)]) == 0
            return _manifest(out)["content_hash"]

        before = content_hash("a")
        u = read_field(ic / "ic_u.cvf")
        samples = u.samples.copy()
        samples[0, 1, 2, 3] += 1e-9
        write_field(ic / "ic_u.cvf", VectorField(u.grid, samples))
        assert content_hash("b") != before

    def test_snapshot_runs_hash_alike(self, tmp_path, modefile):
        """A snapshot fixes the grid and the amplitudes, so the manifest records
        their flags as null and two runs of one snapshot hash alike."""
        ic = tmp_path / "ic"
        assert main([*_cheap("make-ic", modefile), "--out", str(ic)]) == 0
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            assert main(["simulate", "--t-end", "0.1", "--ic", str(ic), "--out", str(out)]) == 0
        first, second = (_manifest(out) for out in runs)
        assert first["content_hash"] == second["content_hash"]
        assert (runs[0] / "series.csv").read_bytes() == (runs[1] / "series.csv").read_bytes()
        assert [first["resolved"][k] for k in ("n", "box", "delta", "delta_u")] == [None] * 4
        assert first["resolved"]["grid"] == {"n": 8, "box": 2.0 * np.pi}


class TestSemigroupCheck:
    def test_passes_tolerance(self, capsys):
        rc = main(["semigroup-check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_nan_tolerance_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["semigroup-check", "--tol=nan"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestDuhamel:
    def test_ratio_near_four(self, tmp_path, modefile):
        out = tmp_path / "duh"
        rc = main(
            [
                "duhamel",
                "--n", "8",
                "--ic", str(modefile),
                "--delta", "1e-3",
                "--t-end", "1.0",
                "--out", str(out),
            ]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 3.0 <= summary["ratio"] <= 5.0

    @pytest.mark.parametrize(
        "modes, delta",
        [("phi 1 0 0   0 0   0 0   0 0\n", "1e-3"), (None, "1e-200")],
        ids=["zero-amplitude", "delta-1e-200"],
    )
    def test_zero_deviation_is_numerical_abort(self, tmp_path, capsys, modes, delta):
        """A deviation of 0 at delta/2, from zero-amplitude data or from H2
        squares that underflow, leaves no ratio: exit 3, reported, not raised."""
        ic = SAMPLE_IC
        if modes is not None:
            ic = tmp_path / "zero.txt"
            ic.write_text(modes)
        argv = ["duhamel", "--n", "8", "--ic", str(ic), "--delta", delta, "--t-end", "0.1"]
        assert main(argv + ["--out", str(tmp_path / "duh")]) == 3
        assert "numerical abort: zero H2 deviation at delta/2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--t-end=nan"], ["--t-end=inf"], ["--t-end=-inf"], ["--ic", "none.txt"]],
        ids=["t-end-nan", "t-end-inf", "t-end-neg-inf", "missing-ic"],
    )
    def test_bad_input_usage_error(self, tmp_path, modefile, flags):
        args = ["duhamel", "--n", "8", "--ic", str(modefile), "--out", str(tmp_path / "duh")]
        rc = main(args + [f if f != "none.txt" else str(tmp_path / f) for f in flags])
        assert rc == 2
        assert not (tmp_path / "duh").exists()


class TestFit:
    def test_fit_of_decay_csv(self, tmp_path, capsys):
        out = tmp_path / "decay"
        main(
            [
                "linear-decay",
                "--system", "shear",
                "--t-grid", "log:100:10000:12",
                "--out", str(out),
            ]
        )
        rc = main(
            [
                "fit",
                "--csv", str(out / "decay.csv"),
                "--column", "norm_L2",
                "--band-exponent", "-0.75",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "slope" in text and "R^2" in text

    def test_missing_column_usage_error(self, tmp_path):
        csv = tmp_path / "x.csv"
        csv.write_text("t,a\n1.0,2.0\n")
        rc = main(["fit", "--csv", str(csv), "--column", "zzz"])
        assert rc == 2

    def test_non_finite_column_usage_error(self, tmp_path):
        csv = tmp_path / "y.csv"
        rows = "".join(f"{float(t)},nan\n" for t in range(1, 13))
        csv.write_text("t,a\n" + rows)
        rc = main(["fit", "--csv", str(csv), "--column", "a"])
        assert rc == 2

    @pytest.mark.parametrize(
        "flags",
        [["--window", "1"], ["--window", "1:abc"], ["--csv", "none.csv"]],
        ids=["window-1", "window-1:abc", "missing-csv"],
    )
    def test_bad_input_usage_error(self, tmp_path, flags):
        csv = tmp_path / "z.csv"
        csv.write_text("t,a\n" + "".join(f"{float(t)},{1.0 / t}\n" for t in range(1, 13)))
        flags = [f if f != "none.csv" else str(tmp_path / f) for f in flags]
        rc = main(["fit", "--csv", str(csv), "--column", "a"] + flags)
        assert rc == 2

    @pytest.mark.parametrize("text", ["", "t,a\n1,2\n3\n"], ids=["empty", "short-row"])
    def test_malformed_csv_usage_error(self, tmp_path, capsys, text):
        """Text that is no table (an empty file, a row with a missing column) is
        reported as a usage error, exit 2, not raised, and with no warning besides."""
        csv = tmp_path / "bad.csv"
        csv.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fit", "--csv", str(csv), "--column", "a"]) == 2
        assert not caught, [str(w.message) for w in caught]
        assert capsys.readouterr().err == f"usage error: {csv} is not a time-series CSV\n"

    def test_overflowing_band_usage_error(self, tmp_path, capsys):
        """A band exponent whose band (1 + t)^(-exponent) * value overflows is a
        usage error naming --band-exponent, with no warning."""
        out = tmp_path / "decay"
        assert main(["linear-decay", "--t-grid", "log:1:100:8", "--out", str(out)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["fit", "--csv", str(out / "decay.csv"), "--band-exponent=-1e10"])
        assert rc == 2
        assert not caught, [str(w.message) for w in caught]
        captured = capsys.readouterr()
        assert captured.err == "usage error: --band-exponent -1e+10: the band overflows\n"
        assert captured.out == ""

    def test_fit_of_simulate_csv(self, tmp_path, modefile, capsys):
        out = tmp_path / "runfit"
        main(
            [
                "simulate",
                "--n", "8",
                "--t-end", "1.0",
                "--ic", str(modefile),
                "--delta", "1e-3",
                "--output-every", "1",
                "--out", str(out),
            ]
        )
        rc = main(["fit", "--csv", str(out / "series.csv"), "--column", "H2"])
        assert rc == 0
        assert "slope" in capsys.readouterr().out
