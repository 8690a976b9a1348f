"""Real grid functions, each viewed as its samples and as the kz >= 0 half of
its spectrum.

Scalar, vector (3 components) and tensor (3x3 components) fields share one
convention: a real array of samples and complex Fourier coefficients
normalized so the k = 0 coefficient is the mean,

    u_hat(k) = N^-3 * sum_x u(x) exp(-i xi.x),
    u(x)     = sum_k u_hat(k) exp(+i xi.x).

With this pairing Parseval reads  ||u||_L2^2 = L^3 * sum_k |u_hat(k)|^2.
The spectrum of a real field is Hermitian-symmetric, so a field keeps only
its kz >= 0 half, shaped (..., N, N, N/2 + 1), and no field keeps a full
spectrum.  A field is built from one view, samples or half, and computes
the other on first use; both are read-only.  The half of a samples-built
field is the rfftn of its samples.  The samples of a half-built field are
the complex inverse transform of its mirror (:func:`half_to_full`), which
lives for that call only.  Halves come only from the package's own
transforms and multipliers, which keep the symmetry, so it is never
checked: every field that enters from outside (the snapshot reader, the
initial data) enters as samples.

This module is the one transform layer of the package: every other module
goes through :func:`to_spectrum` (fftn), :func:`to_samples` (ifftn),
:func:`to_half_spectrum` (rfftn) and :func:`samples_and_gradient` (the
passes of irfftn: a component's samples, gradient or both from one tree
of passes, the one inverse real transform and gradient path).  It also
holds the one elementwise product kernel of the spectral code,
:func:`product`, and the one Hermitian mirror, :func:`half_to_full`, which
a half-built field runs when its samples are first read.

The transforms work one component at a time: each leading index (none
for a scalar, 3 for a vector, 3x3 or 3x3x3 for tensors and their gradients)
gets its own numpy transform written straight into its slice of one
preallocated result (``out=``, numpy >= 2.0), with the bits of one batched
call, as numpy transforms each 1-d line of a stack on its own.  The complex
pair is normalised in place; the real-data pair inside pocketfft
(``norm="forward"``), with the same bits for a power-of-two N.  One
component (4 MB at N = 64) stays in cache between its passes, where a
batched 9-component temporary (37.7 MB, past glibc's 32 MB mmap ceiling)
page-faults and streams the stack through memory on each pass.

Components and slabs run on ``WORKERS`` = min(2, CPUs the process may run on,
which ``taskset`` limits and ``OMP_NUM_THREADS`` does not) threads from N = 32
(:func:`each`), each job the serial numpy calls, which release the GIL, on its
own slice with its own scratch, so the bits do not depend on the split.  This
module alone holds the count and cuts the slabs: :func:`each_slab` cuts the
kx-planes into one equal run per worker and each run into slabs of about
``_SLAB_BYTES`` per component, so its callers give only the bytes of a plane.

The inverse real transform runs irfftn's own 1-D passes (ifft along x, ifft
along y, irfft along z, in its order and normalisation, so with its bits) in
the buffers of a scratch set that each worker reuses across components, where
irfftn allocates a fresh half lattice for each of its two c2c passes, and
shares them between a component's samples and its three derivatives.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np

from .errors import FieldError
from .grid import Grid

_AXES = (-3, -2, -1)
WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
_PARALLEL_N = 32  # below, a step ran 1.1-1.6x slower on two workers (2-core Xeon)
# bytes of one component of a slab of kx-planes, in which the propagator and the
# pointwise source work walk each worker's run of the lattice: 7 complex half
# planes or 8 real ones at N = 64.  On a 2-core Xeon (numpy 2.4.6) 128 and 256 KiB
# tie on one worker; on two, 128 KiB calls are too short to overlap (GIL hand-offs)
_SLAB_BYTES = 1 << 18


def _new_pool() -> None:  # at import, and in a forked child, which has no pool thread
    global _POOL
    _POOL = ThreadPoolExecutor(1, thread_name_prefix="veflow-worker")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _workers(grid: Grid) -> int:
    """Threads that :func:`each` runs on for ``grid``, read from ``WORKERS`` per call."""
    return WORKERS if grid.n >= _PARALLEL_N else 1


def each(grid: Grid, job, items, scratch=lambda: None) -> None:
    """``job(item, own)`` for every item, ``own`` one ``scratch()`` per worker:
    the first ceil(len/2) items on this thread, the rest on the pool thread,
    and all on this one below ``_PARALLEL_N``.  Returns when both are done,
    raising this thread's error, else the pool's.  A job writes only its own
    slice and never calls ``each``."""
    items = list(items)
    cut = -(-len(items) // _workers(grid))

    def run(chunk):
        own = scratch()
        for item in chunk:
            job(item, own)
    rest = _POOL.submit(run, items[cut:]) if cut < len(items) else None
    try:
        run(items[:cut])
    finally:
        error = rest and rest.exception()
    if error:
        raise error


def each_slab(grid: Grid, plane_bytes: int, job, scratch=lambda widest: None) -> None:
    """:func:`each` over slices of the kx-planes, given the bytes of one plane per
    component: one equal run of planes per worker, each cut into slabs of about
    ``_SLAB_BYTES``, one plane at least, the last of a run the rest of it.  ``own``
    is one ``scratch(widest)`` per worker, ``widest`` the first, widest slab."""
    width, run = max(1, _SLAB_BYTES // plane_bytes), grid.n // _workers(grid)
    slabs = [slice(lo, min(lo + width, end)) for end in range(run, grid.n + 1, run)
             for lo in range(end - run, end, width)]
    each(grid, job, slabs, lambda: scratch(slabs[0]))


def _check_payload(data, dtype, rank: int, shape: tuple) -> np.ndarray:
    data = np.ascontiguousarray(data, dtype=dtype)
    want = (3,) * rank + shape
    if data.shape != want:
        raise FieldError(f"expected shape {want}, got {data.shape}")
    if not np.all(np.isfinite(data)):
        raise FieldError("field contains non-finite values")
    data.setflags(write=False)
    return data


def to_spectrum(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Fourier coefficients of real samples over the last three axes."""
    out = np.empty(samples.shape, dtype=np.complex128)

    def job(comp, _):
        np.fft.fftn(samples[comp], axes=_AXES, out=out[comp])
        out[comp] /= grid.n**3
    each(grid, job, np.ndindex(samples.shape[:-3]))
    return out


def to_samples(grid: Grid, spectrum: np.ndarray) -> np.ndarray:
    """Real samples of a Hermitian spectrum; the imaginary part is dropped unchecked."""
    out = np.empty(spectrum.shape, dtype=np.float64)

    def job(comp, buf):
        np.fft.ifftn(spectrum[comp], axes=_AXES, out=buf)
        np.multiply(buf.real, grid.n**3, out=out[comp])
    each(grid, job, np.ndindex(spectrum.shape[:-3]),
         lambda: np.empty(grid.shape, dtype=np.complex128))
    return out


def to_half_spectrum(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Nonnegative-last-axis half of the Fourier coefficients of real samples."""
    out = np.empty(samples.shape[:-3] + grid.half_shape, dtype=np.complex128)
    each(grid, lambda comp, _: np.fft.rfftn(samples[comp], axes=_AXES, norm="forward", out=out[comp]),
         np.ndindex(samples.shape[:-3]))
    return out


def samples_and_gradient(grid: Grid, half: np.ndarray, samples_out, grad_out, bufs) -> None:
    """Samples (into ``samples_out``) and the three derivatives d_l u (into
    ``grad_out[l]``) of one component's kz >= 0 half u_hat, shaped
    ``grid.half_shape``, each skipped when its output is None, from 9
    one-dimensional inverse passes instead of 12: 8 instead of 9 without the
    samples, 3 without the gradient.  ``bufs`` holds three complex buffers: two
    of the half's shape and a (2, N, N/2 + 1) one for the (c, -c) pairs.

    The passes are X (ifft along x), Y (ifft along y) and Z (irfft along z),
    irfftn's own, so the samples have the bits of ``irfftn(norm="forward")``.
    ``grid.xi`` = s k m(kx) m(ky) m(kz), s = 2 pi / L, zeroes every Nyquist
    plane with a mask that factorises per axis, so with A = X(u_hat) and
    B = Y(A):

        u    = Z(B)                                  (irfftn's bits)
        d_x u = Z Y X(i xi_x u_hat)                  (the separate path's bits)
        d_y u = Z Y(i s ky m(ky) m(kz) A'),  A' = A - (-1)^x u_hat[N/2]
        d_z u = Z(i s kz m(kz) C),  C = B - (-1)^x Y(u_hat[N/2]) - (-1)^y A'[:, N/2]

    since A' = X(m(kx) u_hat) and C = Y X(m(kx) m(ky) u_hat).  d_y and d_z so
    differ from their separate passes by round-off only.
    """
    b0, b1, pair = bufs
    h = grid.n // 2
    np.fft.ifft(half, axis=0, norm="forward", out=b0)  # A
    np.fft.ifft(b0, axis=1, norm="forward", out=b1)  # B
    if samples_out is not None:
        np.fft.irfft(b1, n=grid.n, axis=2, norm="forward", out=samples_out)
    if grad_out is None:
        return
    # (-1)^x c on the (even x, odd x) pairs, one broadcast of (c, -c) over x // 2
    # each: a - (-c) is a + c bit for bit
    parity = (h, 2) + grid.half_shape[1:]
    nyquist = half[h]
    pair[0] = nyquist
    np.negative(nyquist, out=pair[1])
    b0.reshape(parity)[...] -= pair  # A'
    np.fft.ifft(nyquist, axis=0, norm="forward", out=pair[0])
    np.negative(pair[0], out=pair[1])
    b1.reshape(parity)[...] -= pair
    # C: (-1)^y A'[:, N/2] on the (even y, odd y) pairs, one broadcast over y // 2
    row = pair.reshape(grid.n, 2, h + 1)
    row[:, 0] = b0[:, h]
    np.negative(b0[:, h], out=row[:, 1])
    b1.reshape(grid.n, h, 2 * h + 2)[...] -= row.reshape(grid.n, 1, 2 * h + 2)
    b1 *= 1j * grid.xi[2, 0, 0]  # at kx = ky = 0: s kz m(kz)
    np.fft.irfft(b1, n=grid.n, axis=2, norm="forward", out=grad_out[2])
    b0 *= 1j * grid.xi[1, 0]  # at kx = 0: s ky m(ky) m(kz)
    np.fft.ifft(b0, axis=1, norm="forward", out=b0)
    np.fft.irfft(b0, n=grid.n, axis=2, norm="forward", out=grad_out[1])
    product(grid.xi[0], half, out=b0)
    b0 *= 1j
    np.fft.ifft(b0, axis=0, norm="forward", out=b0)
    np.fft.ifft(b0, axis=1, norm="forward", out=b0)
    np.fft.irfft(b0, n=grid.n, axis=2, norm="forward", out=grad_out[0])


def half_to_full(grid: Grid, half_spectrum: np.ndarray) -> np.ndarray:
    """Full spectrum from its kz >= 0 half by the Hermitian mirror
    u_hat(k) = conj(u_hat(-k)) on the kz < 0 planes.

    The kz = 0 and kz = N/2 planes are their own mirrors and pass through
    unchanged, so their in-plane symmetry is whatever the half holds.  Each
    axis maps index j to (N - j) mod N: index 0 stays, and 1..N-1 reverse,
    so the mirror is four slice copies, one per (kx = 0 or not, ky = 0 or not).
    The result has the half's dtype: a real half r gets its even mirror
    r(k) = r(-k).
    """
    h = grid.n // 2
    out = np.empty(half_spectrum.shape[:-1] + (grid.n,), dtype=half_spectrum.dtype)
    out[..., : h + 1] = half_spectrum
    src = half_spectrum[..., h - 1 : 0 : -1]  # kz = N/2 - 1, ..., 1 -> N/2 + 1, ..., N - 1
    dst = out[..., h + 1 :]
    for sx, dx in ((slice(0, 1), slice(0, 1)), (slice(None, 0, -1), slice(1, None))):
        for sy, dy in ((slice(0, 1), slice(0, 1)), (slice(None, 0, -1), slice(1, None))):
            np.conjugate(src[..., sx, sy, :], out=dst[..., dx, dy, :])
    return out


def product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Broadcast elementwise a * b, written into ``out`` when it is given, with
    the bits of ``np.einsum("...,...->...", a, b)``.

    einsum sums each product into a zeroed output, so a zero product is +0.0
    there, where a bare multiply can give -0.0 (say 0.0 * -1.0).  Adding +0.0
    turns -0.0 into +0.0 and leaves every other value unchanged.  A real
    operand of a complex product is cast to complex by the multiply loop, as
    einsum casts it, without einsum's buffered copy."""
    out = np.multiply(a, b, out=out)
    out += 0.0
    return out


class _BaseField:
    """Real grid function with two read-only views, :attr:`samples` and
    :attr:`half`; a constructor sets one, the other is computed on first use."""

    rank = 0

    def __init__(self, grid: Grid, samples: np.ndarray):
        self.grid = grid
        self.samples = _check_payload(samples, np.float64, self.rank, grid.shape)

    @classmethod
    def from_half_spectrum(cls, grid: Grid, half: np.ndarray):
        """Field of the trusted kz >= 0 half of a Hermitian spectrum, shaped
        (..., N, N, N/2 + 1): the imaginary part of the inverse transform of its
        mirror is dropped unchecked in :attr:`samples`."""
        field = cls.__new__(cls)
        field.grid = grid
        field.half = _check_payload(half, np.complex128, cls.rank, grid.half_shape)
        return field

    @cached_property
    def half(self) -> np.ndarray:
        """The kz >= 0 half of the spectrum (read-only), shaped (..., N, N, N/2 + 1)."""
        out = to_half_spectrum(self.grid, self.samples)
        out.setflags(write=False)
        return out

    @cached_property
    def samples(self) -> np.ndarray:
        """Physical samples (read-only real array)."""
        out = to_samples(self.grid, half_to_full(self.grid, self.half))
        out.setflags(write=False)
        return out

    def __repr__(self):
        return f"{type(self).__name__}(n={self.grid.n}, L={self.grid.length:g})"


class ScalarField(_BaseField):
    """Real scalar grid function."""

    rank = 0


class VectorField(_BaseField):
    """Real 3-component grid function, viewed as one (3, N, N, N) array."""

    rank = 1


class TensorField(_BaseField):
    """Real 3x3-component grid function, viewed as one (3, 3, N, N, N) array."""

    rank = 2
