"""Pseudo-spectral toolkit for 3D compressible viscoelastic perturbations.

Solves the nonlinear perturbation system around the constant equilibrium
(rho, u, F) = (1, 0, I) on a periodic box, applies the exact per-frequency
linear propagator of its two Hodge blocks, and reproduces the optimal
whole-space decay rates of the linear flow by radial quadrature.
"""

__version__ = "0.1.0"

from .errors import (
    FieldError,
    GridMismatchError,
    InitialDataError,
    ParameterError,
    QuadratureError,
    VacuumError,
    VeflowError,
)
from .fields import ScalarField, TensorField, VectorField
from .grid import Grid
from .operators import apply_multiplier, div, inner_product, l2_norm, laplacian, sobolev_norm
from .params import ModelParams, make_params, pressure_coefficient
from .state import FlowState, PhysState, phys_to_pert
from .semigroup import (
    BlockSystem,
    LinearPropagator,
    Propagator2x2,
)
from .quadrature import RadialProfile, gaussian_profile, whole_space_norm
from .sources import (
    ConstraintReport,
    constraint_residuals,
)
from .initial import (
    DisplacementSpec,
    FourierMode,
    eta_profile,
    lowerbound_profiles,
    parse_mode_file,
    piola_ic,
)
from .diagnostics import (
    DecayFit,
    DuhamelDeviation,
    TimeSeriesRecord,
    decay_fit,
    h2_distance,
    sample_row,
)
from .stepping import StepperConfig, cfl_dt, run, step
from .snapshot import read_field, read_phys, write_field, write_phys, write_state
