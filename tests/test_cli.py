"""Command-line interface: manifests, determinism, exit codes, outputs."""

import json

import numpy as np
import pytest

from veflow.cli import main

MODEFILE = """
phi 1 0 0   0.0 0.0   0.0 -0.5   0.0 0.25
phi 0 1 0   0.3 0.0   0.0 0.0   -0.2 0.0
u   1 0 0   0.4 0.0   0.0 0.1    0.0 0.0
"""


@pytest.fixture
def modefile(tmp_path):
    p = tmp_path / "modes.txt"
    p.write_text(MODEFILE)
    return p


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

    def test_zero_wavevector_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "modes.txt"
        bad.write_text(MODEFILE + "u   0 0 0   0.5 0.3   0.0 0.0    0.0 0.0\n")
        rc = main(["make-ic", "--n", "8", "--modes", str(bad), "--out", str(tmp_path / "ic")])
        assert rc == 3
        assert "line 5" in capsys.readouterr().err

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
        rc = main(["simulate", "--n", "8", "--t-end", "0.1", "--ic", str(ic_dir), "--out", str(out)])
        assert rc == 0
        assert (out / "series.csv").exists()

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
                "--profile", "gaussian",
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


class TestSemigroupCheck:
    def test_passes_tolerance(self, capsys):
        rc = main(["semigroup-check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK" in out


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
