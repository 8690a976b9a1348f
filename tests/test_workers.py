"""The two workers of the transform layer (``fields.each``): the helper itself,
and every output that runs on it, bit for bit the same on one worker and on
two.  Each comparison forces the worker count by patching
``veflow.fields.WORKERS``, so it holds on a one-CPU host too, and runs two
workers on every grid, below ``fields._PARALLEL_N`` too, by patching that."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from helpers import generic_piola_spec, inverse_passes, random_spectra, same_bits, smooth_state
from veflow import Grid, constraint_residuals, make_params, phys_to_pert, piola_ic, sample_row, step
from veflow.fields import each, to_half_spectrum, to_samples, to_spectrum
from veflow.semigroup import LinearPropagator
from veflow.sources import rhs_spectra
from veflow.stepping import cfl_dt
import veflow.fields
import veflow.grid


def test_workers_follow_the_cpu_affinity():
    """Two workers at most, one per CPU that the process may run on (all the
    host's CPUs where the platform has no affinity call)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert veflow.fields.WORKERS == min(2, cpus)


GRID = Grid(veflow.fields._PARALLEL_N)  # the smallest grid that runs on two workers


class TestEach:
    @pytest.fixture(autouse=True)
    def two(self, monkeypatch):
        monkeypatch.setattr(veflow.fields, "WORKERS", 2)

    @pytest.mark.parametrize("count", [1, 2, 5, 8])
    def test_every_item_runs_once_in_contiguous_chunks(self, count):
        """The first ceil(count/2) items on this thread, the rest on the pool
        thread, each chunk with its own one ``scratch()``."""
        seen, made = [], []

        def scratch():
            made.append(threading.get_ident())
            return object()

        each(GRID, lambda item, own: seen.append((item, threading.get_ident(), own)), range(count), scratch)
        assert sorted(item for item, _, _ in seen) == list(range(count))
        cut = -(-count // 2)
        here = threading.get_ident()
        assert [item for item, ident, _ in seen if ident == here] == list(range(cut))
        assert all(ident != here for item, ident, _ in seen if item >= cut)
        assert len(made) == len({ident for _, ident, _ in seen}) == min(count, 2)
        for ident in {ident for _, ident, _ in seen}:
            assert len({id(own) for _, i, own in seen if i == ident}) == 1

    @pytest.mark.parametrize("workers, n", [(1, GRID.n), (2, GRID.n - 2)])
    def test_one_worker_or_a_small_grid_runs_everything_here(self, monkeypatch, workers, n):
        monkeypatch.setattr(veflow.fields, "WORKERS", workers)
        seen = []
        each(Grid(n), lambda item, own: seen.append((item, threading.get_ident())), range(5))
        assert seen == [(item, threading.get_ident()) for item in range(5)]

    @staticmethod
    def _pool_is_idle():
        return veflow.fields._POOL.submit(lambda: True).result(timeout=5)

    def test_pool_error_is_raised_after_this_chunk(self):
        """A job on the pool thread that raises is re-raised only once this
        thread's chunk is done."""
        done = []

        def job(item, _):
            if item == 2:
                raise KeyError("pool")
            time.sleep(0.05)
            done.append(item)

        with pytest.raises(KeyError, match="pool"):
            each(GRID, job, range(4))
        assert done[:2] == [0, 1]
        assert self._pool_is_idle()

    def test_this_error_waits_for_the_pool_chunk(self):
        """This thread's error wins, and is raised only after the pool thread's
        chunk has finished: no job runs after ``each`` returns."""
        done = []

        def job(item, _):
            if item == 0:
                raise KeyError("here")
            time.sleep(0.05)
            done.append(item)

        with pytest.raises(KeyError, match="here"):
            each(GRID, job, range(4))
        assert done == [2, 3]
        assert self._pool_is_idle()

    def test_both_errors_raise_this_threads(self):
        def job(item, _):
            raise KeyError("here" if item == 0 else "pool")

        with pytest.raises(KeyError, match="here"):
            each(GRID, job, range(2))
        assert self._pool_is_idle()


def _on_workers(monkeypatch, fn, count):
    monkeypatch.setattr(veflow.fields, "WORKERS", count)
    monkeypatch.setattr(veflow.fields, "_PARALLEL_N", 4)
    return fn()


def _flat(out):
    """Every array in ``out`` (arrays, tuples of them, fields, states, rows and
    residual reports), in order."""
    if isinstance(out, np.ndarray):
        return [out]
    if isinstance(out, dict):
        return [np.array(list(out.values()))]
    if hasattr(out, "r1"):
        return [np.array([out.r1, out.r2, out.r3])]
    if hasattr(out, "fields"):  # a state: its halves, and the samples it formed
        return [a for f in out.fields() for a in (f.half, vars(f).get("samples")) if a is not None]
    return [a for item in out for a in _flat(item)]


def assert_same_bits_on_one_and_two_workers(monkeypatch, fn):
    one, two = (_flat(_on_workers(monkeypatch, fn, count)) for count in (1, 2))
    assert len(one) == len(two)
    for a, b in zip(one, two):
        assert same_bits(a, b)


# default slabs, and ragged ones: n/2 - 1 kx-planes a slab, so each worker's
# half of the lattice ends in a slab of one plane, for the propagator's planes
# and the sources' alike
SLABS = ["default", "ragged"]


@pytest.fixture(params=[8, 12, 32], scope="module")
def n(request):
    return request.param


@pytest.fixture(params=SLABS)
def grid(request, monkeypatch, n):
    if request.param == "ragged":
        monkeypatch.setattr(veflow.grid, "_SLAB_BYTES", (n // 2 - 1) * 16 * n * (n // 2 + 1))
        slabs = Grid(n).slabs(16 * n * (n // 2 + 1), 2) + Grid(n).slabs(8 * n * n, 2)
        assert {x.stop - x.start for x in slabs} == {n // 2 - 1, 1}
    return Grid(n)


@pytest.fixture(scope="module")
def params():
    return make_params(gamma=1.4, lam=0.3, alpha=1.7)


@pytest.fixture
def state(grid):
    """A smooth state with content up to the 2/3 cutoff, built from samples."""
    return smooth_state(grid, np.random.default_rng(grid.n), amp=0.2, kmax=grid.n // 3)


@pytest.fixture
def halves(grid):
    """Random (n, v, E) halves as strided views of Hermitian full spectra."""
    return tuple(x[..., : grid.n // 2 + 1] for x in random_spectra(grid, grid.n))


class TestSameBits:
    def test_step(self, monkeypatch, state, params):
        dt = cfl_dt(state.grid, params)
        assert_same_bits_on_one_and_two_workers(monkeypatch, lambda: step(state, params, dt))

    def test_step_of_criterion_5_data(self, monkeypatch, grid):
        """The run's data: a state of both views at t = 0, then one of halves."""
        params = make_params()
        initial = phys_to_pert(piola_ic(generic_piola_spec(1e-3), grid, params), params, warn=False)
        dt = cfl_dt(grid, params, 0.5)

        def two_steps():
            first = step(initial, params, dt)
            return first, step(first, params, dt)
        assert_same_bits_on_one_and_two_workers(monkeypatch, two_steps)

    @pytest.mark.parametrize("dealias", [True, False])
    def test_rhs_spectra(self, monkeypatch, state, params, dealias):
        assert_same_bits_on_one_and_two_workers(monkeypatch, lambda: rhs_spectra(state, params, dealias))

    def test_constraint_residuals(self, monkeypatch, state):
        assert_same_bits_on_one_and_two_workers(monkeypatch, lambda: constraint_residuals(state))

    def test_sample_row(self, monkeypatch, state, params):
        """A row of a stepped state, its samples formed inside the call."""
        dt = cfl_dt(state.grid, params)
        assert_same_bits_on_one_and_two_workers(monkeypatch, lambda: sample_row(step(state, params, dt)))

    def test_transforms(self, monkeypatch, grid):
        rng = np.random.default_rng(grid.n)
        samples = rng.standard_normal((3, 3) + grid.shape)
        spectrum = random_spectra(grid, grid.n)[2]
        for fn in (lambda: to_spectrum(grid, samples), lambda: to_half_spectrum(grid, samples),
                   lambda: to_samples(grid, spectrum), lambda: to_samples(grid, spectrum[0, 0])):
            assert_same_bits_on_one_and_two_workers(monkeypatch, fn)

    @pytest.mark.parametrize("half_step", [True, False])
    def test_apply_spectra(self, monkeypatch, grid, params, halves, half_step):
        t = cfl_dt(grid, params) * (0.5 if half_step else 1.0)
        prop = LinearPropagator(grid, params, t)
        assert_same_bits_on_one_and_two_workers(monkeypatch, lambda: prop.apply_spectra(*halves))

    def test_add_to(self, monkeypatch, grid, params, halves):
        prop = LinearPropagator(grid, params, cfl_dt(grid, params))
        acc = tuple(x[..., : grid.n // 2 + 1] for x in random_spectra(grid, grid.n + 1))

        def fused():
            out = tuple(a.copy() for a in acc)
            prop.add_to(out, 0.5, halves)
            return out
        assert_same_bits_on_one_and_two_workers(monkeypatch, fused)


def test_frequent_thread_switches_keep_bits_and_passes(monkeypatch):
    """With the interpreter switching threads every microsecond, repeated
    ``rhs_spectra`` calls on two workers keep the one-worker bits and run
    125 counted passes each: a lost update in a job's outputs or in the
    pass counter would show."""
    grid, params = Grid(12), make_params()
    state = smooth_state(grid, np.random.default_rng(12), amp=0.2, kmax=4)
    want = _on_workers(monkeypatch, lambda: rhs_spectra(state, params), 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        monkeypatch.setattr(veflow.fields, "WORKERS", 2)
        monkeypatch.setattr(veflow.fields, "_PARALLEL_N", 4)
        for _ in range(5):
            got = []
            assert inverse_passes(lambda: got.extend(rhs_spectra(state, params))) == 125
            assert all(same_bits(a, b) for a, b in zip(got, want))
    finally:
        sys.setswitchinterval(interval)
