"""Numerical laboratory for the accelerating Airy coherent family.

Modules by concern: `core` holds grids (each carrying the physical
constants hbar and m), representations, and windowed metrics; `airy` an
independent Airy evaluator; `oscillatory` steepest-descent cubic-phase
quadrature; `states` the state constructors; `operators` the generator
and displacement algebra; `experiments` the verification battery; `cli`
the `airy-lab` entry point.
"""

from .airy import AiryResult, ai_values, airy_ai
from .core import (
    AirylabError,
    GeometryError,
    Grid,
    GridError,
    PhysParams,
    QuadratureError,
    Rep,
    ResolutionError,
    WaveField,
    Window,
    WindowEscapeError,
    WindowKind,
    fourier,
    inner_product,
    make_grid,
    to_rep,
    window_weights,
    windowed_norm,
)
from .experiments import (
    ExperimentReport,
    acceleration_fit,
    basis_orthonormality,
    berry_balazs_trajectory,
    boost_covariance_residual,
    commutator_table,
    density_shift_distortion,
    eigenrelation_residual,
    eps_to_infinity_fidelity,
    eps_to_zero_limit,
    evolution_equivalence,
    k_expectation_series,
    overlap_scan,
    representation_crosscheck,
    shape_distortion,
)
from .operators import (
    BoostParams,
    GeneratorKind,
    apply_displacement_U,
    apply_generator,
    boost,
    free_evolve,
    translate,
    zassenhaus_rhs,
)
from .oscillatory import cubic_phase_integral
from .states import (
    BandTaper,
    CoherentParams,
    GaussianParams,
    berry_balazs_initial,
    content_map,
    fit_band,
    gaussian_packet,
    perelomov_state,
)

__version__ = "0.1.0"

__all__ = [
    "AiryResult", "ai_values", "airy_ai",
    "AirylabError", "GeometryError", "Grid", "GridError", "PhysParams",
    "QuadratureError", "Rep", "ResolutionError", "WaveField", "Window",
    "WindowEscapeError", "WindowKind", "fourier", "inner_product",
    "make_grid", "to_rep", "window_weights", "windowed_norm",
    "ExperimentReport", "acceleration_fit", "basis_orthonormality",
    "berry_balazs_trajectory", "boost_covariance_residual",
    "commutator_table", "density_shift_distortion",
    "eigenrelation_residual", "eps_to_infinity_fidelity",
    "eps_to_zero_limit", "evolution_equivalence", "k_expectation_series",
    "overlap_scan", "representation_crosscheck", "shape_distortion",
    "BoostParams", "GeneratorKind", "apply_displacement_U",
    "apply_generator", "boost", "free_evolve", "translate",
    "zassenhaus_rhs",
    "cubic_phase_integral",
    "BandTaper", "CoherentParams", "GaussianParams",
    "berry_balazs_initial", "content_map", "fit_band", "gaussian_packet",
    "perelomov_state",
    "__version__",
]
