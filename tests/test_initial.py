"""Initial-data generators: Piola construction, mode lists, radial profiles."""

import numpy as np
import pytest

from helpers import generic_piola_spec
from veflow import (
    DisplacementSpec,
    FourierMode,
    Grid,
    InitialDataError,
    constraint_residuals,
    eta_profile,
    lowerbound_profiles,
    parse_mode_file,
    phys_to_pert,
    piola_ic,
)
from veflow.initial import build_vector_field


class TestPiola:
    def test_zero_displacement_is_equilibrium(self, grid8, params):
        spec = DisplacementSpec((FourierMode((1, 0, 0), (0, 0, 0)),), (), 1.0)
        phys = piola_ic(spec, grid8, params)
        assert np.max(np.abs(phys.rho.samples - 1.0)) < 1e-15
        assert np.max(np.abs(phys.u.samples)) < 1e-15
        rep = constraint_residuals(phys)
        assert rep.max() == 0.0

    def test_single_mode_residuals_at_spectral_floor(self, params):
        spec = DisplacementSpec((FourierMode((1, 0, 0), (0j, -0.5j, 0j)),), scale=0.01)
        phys = piola_ic(spec, Grid(32), params)
        rep = constraint_residuals(phys)
        assert rep.max() <= 1e-10

    def test_density_mean_exactly_one(self, params):
        grid = Grid(16)
        phys = piola_ic(generic_piola_spec(0.05), grid, params)
        assert phys.rho.samples.mean() == pytest.approx(1.0, abs=1e-15)

    def test_large_displacement_rejected(self, grid16, params):
        spec = DisplacementSpec((FourierMode((1, 0, 0), (0j, -0.5j, 0j)),), scale=1.2)
        with pytest.raises(InitialDataError, match="grad phi"):
            piola_ic(spec, grid16, params)

    def test_unresolvable_mode_rejected(self, grid8, params):
        spec = DisplacementSpec((FourierMode((7, 0, 0), (0j, -0.5j, 0j)),), scale=0.01)
        with pytest.raises(InitialDataError, match="resolvable"):
            piola_ic(spec, grid8, params)

    def test_residual_drop_under_refinement(self, params):
        # residuals track the spectral truncation error of A^-1 until the floor
        spec = generic_piola_spec(0.18)
        r_coarse = constraint_residuals(piola_ic(spec, Grid(8), params)).max()
        r_fine = constraint_residuals(piola_ic(spec, Grid(16), params)).max()
        assert r_coarse > 1e3 * max(r_fine, 1e-15)

    def test_smallness_proportional_to_scale(self, params):
        grid = Grid(16)
        h2 = []
        for delta in (2e-3, 1e-3):
            st = phys_to_pert(piola_ic(generic_piola_spec(delta), grid, params), params, warn=False)
            h2.append(st.h_norm(2))
        assert h2[0] / h2[1] == pytest.approx(2.0, rel=0.1)


class TestModeFiles:
    def test_parse_and_build(self, grid16):
        text = """
        # displacement and velocity
        phi 1 0 0  0.0 -0.5  0.0 0.0  0.0 0.0
        u   0 1 0  0.1 0.0   0.0 0.2  0.0 0.0
        """
        spec = parse_mode_file(text)
        assert len(spec.phi_modes) == 1 and len(spec.u_modes) == 1
        phi = build_vector_field(grid16, spec.phi_modes, 1.0)
        x, _, _ = grid16.axes()
        assert np.max(np.abs(phi.samples[0] - np.sin(x) - 0 * phi.samples[0])) < 1e-12

    def test_bad_lines_rejected(self):
        with pytest.raises(InitialDataError):
            parse_mode_file("phi 1 0 0 1.0")
        with pytest.raises(InitialDataError):
            parse_mode_file("rho 1 0 0  0 0 0 0 0 0")
        with pytest.raises(InitialDataError):
            parse_mode_file("# only comments\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_amplitude_rejected(self, value):
        text = f"phi 1 0 0  0.0 -0.5  0.0 0.0  0.0 0.0\nu 0 1 0  0.1 {value}  0.0 0.0  0.0 0.0\n"
        with pytest.raises(InitialDataError, match="line 2: non-finite"):
            parse_mode_file(text)

    @pytest.mark.parametrize("field", ["phi", "u"])
    def test_zero_wavevector_rejected(self, field):
        text = f"phi 1 0 0  0.0 -0.5  0.0 0.0  0.0 0.0\n{field} 0 0 0  0.5 0.3  0.0 0.0  0.0 0.0\n"
        with pytest.raises(InitialDataError, match=r"line 2: k = \(0, 0, 0\)"):
            parse_mode_file(text)

    def test_fields_are_real(self, grid8, rng):
        modes = (FourierMode((1, 2, 0), (0.3 + 0.4j, -0.2j, 0.1)),)
        f = build_vector_field(grid8, modes, 1.0)
        assert np.isrealobj(f.samples)


class TestProfiles:
    def test_gaussian_lower_bound(self):
        prof = lowerbound_profiles(1.0)
        r = np.linspace(0.0, 1.0, 50)
        first, second = prof.components(r)
        assert np.all(first >= 0.5)
        assert np.all(second == 0.0)

    def test_guards(self):
        with pytest.raises(InitialDataError):
            lowerbound_profiles(0.0)
        with pytest.raises(InitialDataError):
            eta_profile(0.0)
