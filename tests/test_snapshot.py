"""Binary snapshot format: header layout, endianness, round trips, and the
frequency payload of older files rejected as a format error."""

import struct
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    generic_piola_spec,
    read_state,
    same_bits,
    smooth_scalar,
    smooth_state,
    smooth_tensor,
    smooth_vector,
)
from veflow import FieldError, Grid, ScalarField, TensorField, parse_mode_file
from veflow.cli import main
from veflow.fields import to_spectrum
from veflow.snapshot import (
    read_field,
    read_phys,
    write_field,
    write_phys,
    write_state,
)
from veflow import make_params, phys_to_pert, piola_ic

ROOT = Path(__file__).resolve().parents[1]


HEADER = struct.Struct("<4sIIdBB")


def write_frequency_file(path, grid, rank, spectrum):
    """A CVF1 file with a frequency payload (representation byte 1), as older
    writers emitted it: the header, then interleaved little-endian re/im pairs
    in row-major order."""
    inter = np.empty(spectrum.shape + (2,), dtype="<f8")
    inter[..., 0] = spectrum.real
    inter[..., 1] = spectrum.imag
    path.write_bytes(HEADER.pack(b"CVF1", 1, grid.n, grid.length, rank, 1) + inter.tobytes())


class TestFieldRoundTrips:
    def test_scalar_physical(self, tmp_path, grid8, rng):
        f = smooth_scalar(grid8, rng)
        p = tmp_path / "s.cvf"
        write_field(p, f)
        assert HEADER.unpack_from(p.read_bytes())[-1] == 0
        back = read_field(p)
        assert same_bits(back.samples, f.samples)

    def test_frequency_payload_rejected(self, tmp_path, grid8, rng):
        """A well-formed frequency payload of a real field is a format error, on
        its header, with or without an expected grid."""
        p = tmp_path / "v.cvf"
        write_frequency_file(p, grid8, 1, to_spectrum(grid8, smooth_vector(grid8, rng).samples))
        for grid in (None, grid8):
            with pytest.raises(FieldError, match="representation"):
                read_field(p, grid)

    def test_tensor_physical(self, tmp_path, grid8, rng):
        f = smooth_tensor(grid8, rng)
        p = tmp_path / "t.cvf"
        write_field(p, f)
        back = read_field(p)
        assert isinstance(back, TensorField)
        assert np.array_equal(back.samples, f.samples)


class TestHeader:
    def test_layout(self, tmp_path):
        g = Grid(8, 3.5)
        f = ScalarField(g, np.zeros(g.shape))
        p = tmp_path / "h.cvf"
        write_field(p, f)
        raw = p.read_bytes()
        magic, version, n, length, rank, rep = struct.unpack_from("<4sIIdBB", raw)
        assert magic == b"CVF1"
        assert version == 1
        assert n == 8
        assert length == 3.5
        assert rank == 0 and rep == 0
        assert len(raw) == struct.calcsize("<4sIIdBB") + 8 * 8**3

    def test_payload_little_endian(self, tmp_path):
        g = Grid(4, 1.0)
        data = np.zeros(g.shape)
        data[0, 0, 0] = 1.0
        write_field(tmp_path / "le.cvf", ScalarField(g, data))
        raw = (tmp_path / "le.cvf").read_bytes()
        first = struct.unpack_from("<d", raw, struct.calcsize("<4sIIdBB"))[0]
        assert first == 1.0

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.cvf"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FieldError, match="magic"):
            read_field(p)

    def test_grid_mismatch_rejected(self, tmp_path, grid8, grid16, rng):
        f = smooth_scalar(grid8, rng)
        p = tmp_path / "g.cvf"
        write_field(p, f)
        with pytest.raises(FieldError, match="grid"):
            read_field(p, grid16)

    @pytest.mark.parametrize(
        "n, length", [(5, 2 * np.pi), (2, 2 * np.pi), (2**20, 2 * np.pi), (8, 0.0), (8, np.nan)]
    )
    def test_bad_header_grid_rejected(self, tmp_path, n, length):
        """An odd or small N, a bad L, or a payload shorter than N^3 values is bad
        data, rejected before a grid is built."""
        p = tmp_path / "h.cvf"
        p.write_bytes(HEADER.pack(b"CVF1", 1, n, length, 0, 0))
        with pytest.raises(FieldError, match="bad grid|payload length"):
            read_field(p)

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "t.cvf"
        p.write_bytes(b"CV")
        with pytest.raises(FieldError):
            read_field(p)

    @pytest.mark.parametrize("kind", ["physical", "tensor"])
    def test_truncated_payload_rejected(self, tmp_path, grid8, rng, kind):
        p = tmp_path / "t.cvf"
        write_field(p, smooth_scalar(grid8, rng) if kind == "physical" else smooth_tensor(grid8, rng))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FieldError, match="payload length"):
            read_field(p)

    def test_overlong_payload_rejected(self, tmp_path, grid8, rng):
        p = tmp_path / "t.cvf"
        write_field(p, smooth_scalar(grid8, rng))
        p.write_bytes(p.read_bytes() + b"\x00" * 8)
        with pytest.raises(FieldError, match="payload length"):
            read_field(p)


class TestStateSnapshots:
    def test_state_round_trip(self, tmp_path, grid8, rng):
        st = smooth_state(grid8, rng, amp=1e-2)
        write_state(tmp_path, st)
        back = read_state(tmp_path)
        for f0, f1 in zip(st.fields(), back.fields()):
            assert np.array_equal(f0.samples, f1.samples)

    def test_phys_round_trip(self, tmp_path, grid8):
        phys = piola_ic(generic_piola_spec(1e-2), grid8, make_params())
        write_phys(tmp_path, phys)
        back = read_phys(tmp_path)
        assert np.array_equal(back.rho.samples, phys.rho.samples)
        assert np.array_equal(back.F.samples, phys.F.samples)

    def test_simulate_rejects_frequency_snapshot(self, tmp_path, grid8):
        """simulate --ic on a snapshot directory holding a frequency payload
        exits 3 and writes no manifest.json."""
        phys = piola_ic(generic_piola_spec(1e-2), grid8, make_params())
        write_phys(tmp_path / "ic", phys)
        write_frequency_file(tmp_path / "ic" / "ic_u.cvf", grid8, 1, to_spectrum(grid8, phys.u.samples))
        out = tmp_path / "run"
        argv = ["simulate", "--ic", str(tmp_path / "ic"), "--t-end", "0.1", "--out", str(out)]
        assert main(argv) == 3
        assert not (out / "manifest.json").exists()

    def test_zero_step_run_writes_samples(self, tmp_path):
        """A run that takes no step writes its initial state, built from spectra,
        as samples; they read back bit for bit."""
        text = (ROOT / "sample_ic.txt").read_text()
        argv = ["simulate", "--n", "8", "--ic", str(ROOT / "sample_ic.txt"), "--delta", "1e-3"]
        assert main(argv + ["--t-end", "0", "--out", str(tmp_path)]) == 0
        for name in ("n", "v", "E"):
            assert HEADER.unpack_from((tmp_path / f"final_{name}.cvf").read_bytes())[-1] == 0
        params = make_params()
        phys = piola_ic(parse_mode_file(text).scaled(1e-3), Grid(8), params)
        initial = phys_to_pert(phys, params, warn=False)
        back = read_state(tmp_path, prefix="final")
        for f0, f1 in zip(initial.fields(), back.fields()):
            assert same_bits(f1.samples, f0.samples)
