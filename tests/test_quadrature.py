"""Whole-space radial quadrature of propagated profiles."""

import dataclasses

import numpy as np
import pytest

from veflow import (
    BlockSystem,
    QuadratureError,
    decay_fit,
    gaussian_profile,
    make_params,
    whole_space_norm,
)
from veflow import quadrature
from veflow.cli import _parse_tgrid
from veflow.quadrature import RadialProfile


@pytest.fixture(scope="module")
def comp():
    return BlockSystem.compressible(make_params())


class TestValues:
    def test_gaussian_at_time_zero(self, comp):
        prof = gaussian_profile(amp_first=1.0)
        got = whole_space_norm(prof, comp, 0.0, k=0)
        exact = np.sqrt(np.pi**1.5 / (2.0 * np.pi) ** 3)
        assert got == pytest.approx(exact, rel=1e-10)

    def test_gradient_weight_at_time_zero(self, comp):
        # int r^2 e^{-r^2} * 4 pi r^2 dr / (2pi)^3 = (3/2) pi^{3/2} / (2pi)^3
        prof = gaussian_profile(amp_first=1.0)
        got = whole_space_norm(prof, comp, 0.0, k=1)
        exact = np.sqrt(1.5 * np.pi**1.5 / (2.0 * np.pi) ** 3)
        assert got == pytest.approx(exact, rel=1e-9)

    def test_zero_profile(self, comp):
        prof = gaussian_profile(amp_first=0.0, amp_second=0.0)
        assert whole_space_norm(prof, comp, 3.0) == 0.0

    def test_amplitude_linearity(self, comp):
        p1 = gaussian_profile(amp_first=1.0, amp_second=0.5)
        p3 = gaussian_profile(amp_first=3.0, amp_second=1.5)
        t = 2.5
        assert whole_space_norm(p3, comp, t) == pytest.approx(
            3.0 * whole_space_norm(p1, comp, t), rel=1e-9
        )

    def test_component_split(self, comp):
        prof = gaussian_profile(amp_first=1.0, amp_second=0.7)
        t = 1.7
        both = whole_space_norm(prof, comp, t)
        c0 = whole_space_norm(prof, comp, t, component=0)
        c1 = whole_space_norm(prof, comp, t, component=1)
        assert both == pytest.approx(np.hypot(c0, c1), rel=1e-9)

    def test_time_zero_component_identity(self, comp):
        prof = gaussian_profile(amp_first=0.0, amp_second=1.0)
        c0 = whole_space_norm(prof, comp, 0.0, component=0)
        c1 = whole_space_norm(prof, comp, 0.0, component=1)
        assert c0 == 0.0
        assert c1 == pytest.approx(np.sqrt(np.pi**1.5 / (2.0 * np.pi) ** 3), rel=1e-10)


def _nan_profile():
    return RadialProfile(
        first=lambda r: np.full_like(r, np.nan),
        second=lambda r: np.zeros_like(r),
        env_amp=1.0,
        env_eta=0.0,
        env_width=1.0,
    )


class TestGuards:
    def test_negative_time(self, comp):
        with pytest.raises(QuadratureError):
            whole_space_norm(gaussian_profile(), comp, -1.0)

    @pytest.mark.parametrize(
        "case",
        [
            {"t": np.nan},
            {"t": np.inf},
            {"k": -1},
            {"component": 2},
            {"rtol": 1e-20},  # below round-off: stopped by the live-panel cap
            {"profile": "nan"},
        ],
        ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()),
    )
    def test_bad_input_rejected(self, comp, case, monkeypatch):
        case = dict(case)
        profile = _nan_profile() if case.pop("profile", None) else gaussian_profile(1.0, 0.5)
        t = case.pop("t", 1.0)
        match = None
        if "rtol" in case:  # the error budget is a module constant
            monkeypatch.setattr(quadrature, "_RTOL", case.pop("rtol"))
            match = "live panels"
        with pytest.raises(QuadratureError, match=match):
            whole_space_norm(profile, comp, t, **case)

    def test_envelope_bounds_both_slots(self):
        """The declared envelope amp r^eta exp(-r^2/(2 width^2)) bounds both slots
        on r >= 1, where the tail cutoff uses it, also when their exponents differ."""
        r = np.linspace(1.0, 40.0, 391)
        for prof in (
            gaussian_profile(1.0, 1.0, eta_second=2.0),
            gaussian_profile(2.0, 0.5, eta_second=3.0, width=2.0),
            gaussian_profile(0.0, 1.0, eta_second=1.5),
            gaussian_profile(1.0, 3.0, eta_second=-0.5, width=0.5),
        ):
            env = prof.env_amp * r**prof.env_eta * np.exp(-(r**2) / (2.0 * prof.env_width**2))
            for slot in prof.components(r):
                assert np.all(np.abs(slot) <= env * (1.0 + 1e-12))

    def test_non_decaying_profile_rejected(self, comp):
        flat = RadialProfile(
            first=lambda r: np.ones_like(r),
            second=lambda r: np.zeros_like(r),
            env_amp=1.0,
            env_eta=0.0,
            env_width=np.inf,
        )
        with pytest.raises(QuadratureError):
            whole_space_norm(flat, comp, 1.0)


class TestRates:
    def test_l2_decay_slope(self, comp):
        prof = gaussian_profile(amp_first=1.0, amp_second=1.0)
        ts = np.logspace(2, 4, 16)
        norms = [whole_space_norm(prof, comp, float(t)) for t in ts]
        fit = decay_fit(ts, norms)
        assert fit.slope == pytest.approx(-0.75, abs=0.03)
        assert fit.r_squared > 0.999

    def test_oscillation_resolved_at_large_time(self, comp):
        # adjacent samples at large t differ smoothly; a failed oscillation
        # seed would show up as wild jumps
        ts = np.linspace(9000.0, 10000.0, 5)
        prof = gaussian_profile(amp_first=1.0)
        ns = np.array([whole_space_norm(prof, comp, float(t)) for t in ts])
        assert np.all(np.abs(np.diff(np.log(ns))) < 0.05)


class TestKronrodTable:
    def test_gauss_subset_is_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        np.testing.assert_allclose(quadrature._NODES[1::2], nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(quadrature._WEIGHTS[1::2, 1], weights, rtol=0, atol=1e-15)
        assert not np.any(quadrature._WEIGHTS[::2, 1])

    @pytest.mark.parametrize("rule, degree", [(0, 31), (1, 19)], ids=["K21", "G10"])
    def test_polynomial_exactness(self, rule, degree):
        x, w = quadrature._NODES, quadrature._WEIGHTS[:, rule]
        for j in range(degree + 1):
            exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
            assert abs(np.dot(w, x**j) - exact) <= 1e-15, j
        # and no further: the next even power is not integrated exactly
        j = degree + 1 if degree % 2 else degree + 2
        assert abs(np.dot(w, x**j) - 2.0 / (j + 1)) > 1e-13


def _panel_levels(profile, system, t, k):
    """Bisection level of every panel that whole_space_norm evaluates, by a
    counting wrapper on profile.first: 0 for a seed panel, 1 for its halves."""
    seen = []

    def first(r):
        seen.append(np.array(r, dtype=float).reshape(-1, quadrature._NODES.size))
        return profile.first(r)

    whole_space_norm(dataclasses.replace(profile, first=first), system, t, k=k)
    panels = np.concatenate(seen)
    bound = 4.0 * max(1.0, np.sqrt(system.b), 1.0 / np.sqrt(system.b))
    edges = quadrature._seed_edges(system, t, profile.tail_radius(k, bound=bound))
    mid = panels[:, quadrature._NODES.size // 2]  # the centre node is the panel midpoint
    width = (panels[:, -1] - panels[:, 0]) / quadrature._NODES[-1]
    seed = np.diff(edges)[np.searchsorted(edges, mid) - 1]
    levels = np.rint(np.log2(seed / width)).astype(int)
    return levels, edges.size - 1


class TestRefinementPasses:
    @pytest.mark.parametrize("block", ["compressible", "shear"])
    def test_default_linear_decay_grid_needs_one_pass(self, block):
        system = getattr(BlockSystem, block)(make_params())
        prof = gaussian_profile(amp_first=1.0, amp_second=1.0)
        for t in _parse_tgrid("log:1:1e4:64"):
            for k in (0, 1):
                levels, seeds = _panel_levels(prof, system, t, k)
                assert levels.size == seeds and not np.any(levels), (t, k)

    @pytest.mark.parametrize("block", ["compressible", "shear"])
    def test_wide_profile_bisects_more_than_once(self, block):
        system = getattr(BlockSystem, block)(make_params())
        prof = gaussian_profile(amp_first=1.0, amp_second=1.0, width=30.0)
        levels, seeds = _panel_levels(prof, system, 1e5, 0)
        assert np.sum(levels == 0) == seeds
        assert levels.max() >= 2


def _reference_norm(profile, system, t, k=0, component=None, rtol=1e-8):
    """Scalar oracle: one 20-node panel per call, recursive bisection per coarse panel."""
    f = quadrature._integrand_factory(profile, system, t, k, component)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    bound = 4.0 * max(1.0, np.sqrt(system.b), 1.0 / np.sqrt(system.b))
    edges = quadrature._seed_edges(system, t, profile.tail_radius(k, bound=bound))

    def panel(a, b):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        return half * float(np.dot(weights, f(mid + half * nodes)))

    def refine(a, b, whole, budget, depth):
        mid = 0.5 * (a + b)
        left, right = panel(a, mid), panel(mid, b)
        if abs(left + right - whole) <= budget or depth >= 48:
            return left + right
        return refine(a, mid, left, 0.5 * budget, depth + 1) + refine(
            mid, b, right, 0.5 * budget, depth + 1
        )

    coarse = [(a, b, panel(a, b)) for a, b in zip(edges[:-1], edges[1:])]
    total = sum(v for _, _, v in coarse)
    share = rtol * total / len(coarse)
    return np.sqrt(sum(refine(a, b, v, share, 0) for a, b, v in coarse))


class TestBatchedRefinement:
    @pytest.mark.parametrize("block", ["compressible", "shear"])
    def test_matches_scalar_reference(self, block):
        system = getattr(BlockSystem, block)(make_params())
        # 437 coarse panels at t = 1e4 span many chunks; width 30 at t = 1e5
        # bisects some panels more than once
        cases = [(1.0, t) for t in (0.0, 1.0, 10.0, 1e2, 1e3, 1e4)] + [(30.0, 1e5)]
        for width, t in cases:
            prof = gaussian_profile(amp_first=1.0, amp_second=0.7, width=width)
            for k in (0, 1):
                for component in (None, 0, 1):
                    got = whole_space_norm(prof, system, t, k=k, component=component)
                    want = _reference_norm(prof, system, t, k=k, component=component)
                    assert got == pytest.approx(want, rel=1e-12), (width, t, k, component)

    @pytest.mark.parametrize("block", ["compressible", "shear"])
    @pytest.mark.parametrize("width", [30.0, 100.0])
    def test_second_refinement_level(self, block, width, monkeypatch):
        # wide profiles at t = 1e5 need panels bisected more than once
        system = getattr(BlockSystem, block)(make_params())
        prof = gaussian_profile(amp_first=1.0, amp_second=1.0, width=width)
        for k in (0, 1):
            got = whole_space_norm(prof, system, 1e5, k=k)
            with monkeypatch.context() as m:
                m.setattr(quadrature, "_RTOL", 1e-12)
                tight = whole_space_norm(prof, system, 1e5, k=k)
            assert got == pytest.approx(tight, rel=1e-8), k


def _fine_layout_norm(profile, system, t, k=0, component=None):
    """GL20 over panels laid out here, with no use of the seeds: uniform core panels
    of a third of the seed width pi / (sqrt(b) t) or less, out to where exp(-nu r^2 t)
    is e^-100, then panels that grow by 10% out to 12 envelope widths."""
    f = quadrature._integrand_factory(profile, system, t, k, component)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    r_max = 12.0 * profile.env_width
    r_core = min(r_max, np.sqrt(100.0 / (system.nu * t))) if t > 0.0 else r_max
    h = min(np.pi / (3.0 * np.sqrt(system.b) * max(t, 1.0)), r_core / 1536.0)
    core = np.linspace(0.0, r_core, int(np.ceil(r_core / h)) + 1)
    tail = r_core * 1.1 ** np.arange(1, 1 + int(np.ceil(np.log(r_max / r_core) / np.log(1.1))))
    edges = np.concatenate((core, tail))
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[:-1] + edges[1:])
    return np.sqrt(np.sum(half * (f(mid[:, None] + half[:, None] * nodes) @ weights)))


class TestIndependentLayout:
    @pytest.mark.parametrize("block", ["compressible", "shear"])
    def test_default_linear_decay_grid(self, block):
        system = getattr(BlockSystem, block)(make_params())
        prof = gaussian_profile(amp_first=1.0, amp_second=0.7)
        for t in _parse_tgrid("log:1:1e4:64"):
            for k in (0, 1):
                for component in (None, 0, 1):
                    got = whole_space_norm(prof, system, t, k=k, component=component)
                    want = _fine_layout_norm(prof, system, t, k=k, component=component)
                    assert got == pytest.approx(want, rel=1e-12), (t, k, component)
