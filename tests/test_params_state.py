"""Model parameters, pressure law, and the physical/perturbation change of variables."""

import logging

import numpy as np
import pytest

from helpers import (
    generic_piola_spec,
    identity_field,
    projected_phys_to_pert,
    same_bits,
    smooth_scalar,
    smooth_tensor,
    smooth_vector,
    zero_field,
)
from veflow import (
    FlowState,
    Grid,
    ParameterError,
    PhysState,
    ScalarField,
    TensorField,
    VacuumError,
    VectorField,
    make_params,
    phys_to_pert,
    piola_ic,
    pressure_coefficient,
)
from veflow.params import guard_positive_density


class TestMakeParams:
    def test_default_normalization(self):
        p = make_params(1.0, 0.0, 1.0, 2.0)
        assert p.pressure_scale == 1.0
        assert p.chi0 == pytest.approx(1.0)
        assert p.a == pytest.approx(1.0)

    def test_lame_condition_rejected(self):
        with pytest.raises(ParameterError, match="2\\*mu"):
            make_params(1.0, -1.0, 1.0, 2.0)

    def test_mu_positive(self):
        with pytest.raises(ParameterError, match="mu"):
            make_params(0.0)

    def test_alpha_positive(self):
        with pytest.raises(ParameterError, match="alpha"):
            make_params(alpha=0.0)

    @pytest.mark.parametrize("name", ["mu", "lam", "alpha", "gamma", "pressure_scale"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, name, value):
        """Rejected where they enter, naming the parameter: pressure_scale = inf
        would give chi0 = a = 0, and alpha = inf a = inf, NaN entries later."""
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            make_params(**{name: value})

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0, 5.0])
    def test_p_prime_one_for_default_scale(self, gamma):
        """P'(1) is the pressure scale, 1 by default, so chi0 = 1 and a = alpha."""
        p = make_params(gamma=gamma, alpha=2.5)
        assert (p.pressure_scale, p.chi0, p.a) == (1.0, 1.0, 2.5)

    def test_pressure_scale_moves_chi0_and_a(self):
        p = make_params(pressure_scale=4.0, alpha=1.0)
        assert p.chi0 == pytest.approx(0.5)
        assert p.a == pytest.approx(0.25)


class TestPressureCoefficient:
    def test_zero_at_equilibrium(self, grid8):
        coef = pressure_coefficient(np.ones(grid8.shape), make_params(gamma=3.0))
        assert np.max(np.abs(coef)) == 0.0

    def test_vanishes_identically_for_gamma_two(self, grid8, rng):
        p = make_params(gamma=2.0)
        n = smooth_scalar(grid8, rng, amp=0.1)
        coef = pressure_coefficient(1.0 + n.samples, p)
        assert np.max(np.abs(coef)) < 1e-14

    def test_equals_n_for_gamma_three(self, grid8, rng):
        p = make_params(gamma=3.0)
        n = smooth_scalar(grid8, rng, amp=0.1)
        coef = pressure_coefficient(1.0 + n.samples, p)
        assert np.max(np.abs(coef - n.samples)) < 1e-13

    def test_linear_in_n_near_zero(self, grid8, rng):
        p = make_params(gamma=1.4)
        n = smooth_scalar(grid8, rng, amp=1e-4)
        coef = pressure_coefficient(1.0 + n.samples, p)
        expected = (p.gamma - 2.0) * n.samples
        # remainder is the quadratic Taylor term of (1+n)^(gamma-2)
        quad = abs((p.gamma - 2.0) * (p.gamma - 3.0)) * np.max(n.samples**2)
        assert np.max(np.abs(coef - expected)) < quad

    def test_vacuum_guard(self, grid8):
        """The coefficient is a kernel of a guarded density: the one guard of a
        source evaluation rejects min(1 + n) <= 0.5, the kernel checks nothing."""
        with pytest.raises(VacuumError, match="source evaluation"):
            guard_positive_density(np.full(grid8.shape, 0.4))
        guard_positive_density(np.full(grid8.shape, 0.51))


class TestChangeOfVariables:
    def test_equilibrium_maps_to_zero(self, grid8, params):
        rho = ScalarField(grid8, np.ones(grid8.shape))
        phys = PhysState(rho, zero_field(VectorField, grid8), identity_field(grid8))
        st = phys_to_pert(phys, params)
        assert st.h_norm(2) == 0.0

    def test_chi0_scaling_of_velocity(self, grid8, rng):
        p = make_params(pressure_scale=4.0)  # chi0 = 1/2
        u = smooth_vector(grid8, rng, amp=0.01)
        phys = PhysState(ScalarField(grid8, np.ones(grid8.shape)), u, identity_field(grid8))
        st = phys_to_pert(phys, p)
        assert np.max(np.abs(st.v.samples - 0.5 * u.samples)) < 1e-14
        assert st.time == 0.0  # initial data starts the run

    def test_round_trip_identity(self, grid8, rng, params):
        st = FlowState(
            smooth_scalar(grid8, rng, amp=0.01),
            smooth_vector(grid8, rng, amp=0.01),
            smooth_tensor(grid8, rng, amp=0.01),
        )
        phys = PhysState(
            ScalarField(grid8, 1.0 + st.n.samples),
            VectorField(grid8, st.v.samples / params.chi0),
            TensorField(grid8, st.E.samples + identity_field(grid8).samples),
        )
        back = phys_to_pert(phys, params)
        for f0, f1 in zip(st.fields(), back.fields()):
            assert np.max(np.abs(f0.samples - f1.samples)) < 1e-12
        assert back.time == st.time == 0.0

    def test_negative_density_rejected(self, grid8):
        rho = np.ones(grid8.shape)
        rho[0, 0, 0] = -0.1
        with pytest.raises(VacuumError):
            PhysState(
                ScalarField(grid8, rho),
                zero_field(VectorField, grid8),
                identity_field(grid8),
            )

    def test_degenerate_deformation_rejected(self, grid8):
        F = identity_field(grid8).samples.copy()
        F[0, 0, 0, 0, 0] = -1.0
        from veflow import FieldError

        with pytest.raises(FieldError):
            PhysState(
                ScalarField(grid8, np.ones(grid8.shape)),
                zero_field(VectorField, grid8),
                TensorField(grid8, F),
            )


def offset_phys(grid, rng) -> PhysState:
    """Small smooth data whose rho - 1, u and F - I all have nonzero means."""
    F = identity_field(grid).samples * 1.01 + smooth_tensor(grid, rng, amp=1e-2).samples
    F[0, 1] += 0.02
    return PhysState(
        ScalarField(grid, 1.02 + smooth_scalar(grid, rng, amp=1e-2).samples),
        VectorField(grid, 0.1 + smooth_vector(grid, rng, amp=1e-2).samples),
        TensorField(grid, F),
    )


class TestMeanProjection:
    def test_projection_logged(self, grid8, caplog):
        phys = PhysState(
            ScalarField(grid8, np.full(grid8.shape, 1.01)),
            zero_field(VectorField, grid8),
            identity_field(grid8),
        )
        with caplog.at_level(logging.WARNING, logger="veflow.state"):
            st = phys_to_pert(phys, make_params(), warn=True)
        assert st.n.half[0, 0, 0] == 0.0
        assert [r.getMessage() for r in caplog.records] == [
            "projecting n mean of size 1.000e-02 to zero"
        ]

    @pytest.mark.parametrize("data", ["criterion-5", "offset means"])
    def test_bits_of_the_projected_path(self, data, rng):
        """Spectra from the samples, mean modes zeroed in place: the bits of the
        state that projecting each field through its own spectrum gives, in its
        contiguous half and in its samples."""
        if data == "criterion-5":
            params = make_params()
            phys = piola_ic(generic_piola_spec(1e-3), Grid(32), params)
        else:
            params = make_params(pressure_scale=2.0)
            phys = offset_phys(Grid(16), rng)
        got = phys_to_pert(phys, params, warn=False)
        want = projected_phys_to_pert(phys, params, warn=False)
        assert got.time == want.time
        for f, g in zip(got.fields(), want.fields()):
            assert same_bits(f.half, g.half) and f.half.flags.c_contiguous
            assert same_bits(f.samples, g.samples)

    def test_mean_warnings(self, grid8, rng, caplog):
        """One warning per field with a nonzero mean, worded as before, at
        warn=True; none at warn=False."""
        phys = offset_phys(grid8, rng)
        params = make_params()
        with caplog.at_level(logging.WARNING):
            projected_phys_to_pert(phys, params, warn=True)
            want = [r.getMessage() for r in caplog.records]
            caplog.clear()
            phys_to_pert(phys, params, warn=True)
            got = [(r.name, r.getMessage()) for r in caplog.records]
            caplog.clear()
            phys_to_pert(phys, params, warn=False)
            assert caplog.records == []
        assert [m.split(" mean")[0] for m in want] == [f"projecting {x}" for x in "nvE"]
        assert got == [("veflow.state", m) for m in want]

    def test_vacuum_invariant(self, grid8):
        n = ScalarField(grid8, np.full(grid8.shape, -1.5))
        with pytest.raises(VacuumError):
            FlowState(n, zero_field(VectorField, grid8), zero_field(TensorField, grid8))
