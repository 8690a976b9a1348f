"""Binary field snapshots (format "CVF1").

Layout, little-endian throughout:

    bytes 0..3   magic "CVF1"
    u32          version (1)
    u32          N (points per axis)
    f64          L (box length)
    u8           rank: 0 scalar, 1 vector, 2 tensor
    u8           representation: 0 physical
    payload      components in row-major order, each N^3 f64 samples

The writer emits samples only, and the reader accepts nothing else: a
representation byte of 1 (the frequency payload of older files, N^3
interleaved f64 re/im pairs per component) is a format error.  Building
the header's :class:`Grid` checks (N, L) before the payload length is.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FieldError, ParameterError
from .fields import ScalarField, TensorField, VectorField
from .grid import Grid
from .state import FlowState, PhysState

MAGIC = b"CVF1"
VERSION = 1
_HEADER = struct.Struct("<4sIIdBB")
_RANK_TO_CLS = {0: ScalarField, 1: VectorField, 2: TensorField}


def write_field(path, field) -> None:
    header = _HEADER.pack(MAGIC, VERSION, field.grid.n, field.grid.length, field.rank, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.samples, dtype="<f8").tobytes())


def read_field(path, grid: Grid | None = None):
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FieldError(f"{path}: truncated header")
    magic, version, n, length, rank, rep_code = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FieldError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FieldError(f"{path}: unsupported version {version}")
    if rank not in _RANK_TO_CLS or rep_code != 0:
        raise FieldError(
            f"{path}: bad rank/representation ({rank}, {rep_code}), need rank 0-2 and samples (0)"
        )
    try:
        header_grid = Grid(n, length)
    except ParameterError as exc:
        raise FieldError(f"{path}: bad grid: {exc}") from None
    if grid is not None and grid != header_grid:
        raise FieldError(
            f"{path}: snapshot grid ({n}, {length:g}) does not match ({grid.n}, {grid.length:g})"
        )
    count = 3**rank * n**3
    if len(raw) != _HEADER.size + 8 * count:
        raise FieldError(
            f"{path}: payload length {len(raw) - _HEADER.size} bytes, expected {8 * count}"
        )
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=_HEADER.size).astype(np.float64)
    return _RANK_TO_CLS[rank](grid or header_grid, data.reshape((3,) * rank + (n, n, n)))


def _write_triple(directory, fields, names, prefix: str) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, f in zip(names, fields):
        p = directory / f"{prefix}_{name}.cvf"
        write_field(p, f)
        paths.append(p)
    return paths


def _read_triple(directory, names, prefix: str) -> list:
    """Read three snapshot files of ranks 0, 1 and 2, all on the first file's grid."""
    fields = []
    for rank, name in enumerate(names):
        path = Path(directory) / f"{prefix}_{name}.cvf"
        fields.append(read_field(path, fields[0].grid if fields else None))
        if fields[-1].rank != rank:
            raise FieldError(f"{path}: rank {fields[-1].rank} snapshot, need rank {rank}")
    return fields


def write_state(directory, state: FlowState, prefix: str = "state") -> list[Path]:
    """Write the perturbation triple as three snapshot files."""
    return _write_triple(directory, state.fields(), ("n", "v", "E"), prefix)


def write_phys(directory, phys: PhysState) -> list[Path]:
    """Write a physical state as the initial-data files ic_rho / ic_u / ic_F."""
    return _write_triple(directory, (phys.rho, phys.u, phys.F), ("rho", "u", "F"), "ic")


def read_phys(directory) -> PhysState:
    return PhysState(*_read_triple(directory, ("rho", "u", "F"), "ic"))
