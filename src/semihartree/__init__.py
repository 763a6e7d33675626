"""Semiclassical coherent-state propagation for the mean-field Hartree
dynamics: spectral reference solvers, packet-frame solvers, higher-order
profile corrections, and convergence-rate harnesses (1-D, periodic)."""

from .amplitude import (
    AmplitudeState,
    InitialDataReport,
    evolve_b,
    evolve_beta,
    validate_initial_amplitude,
)
from .classical import ClassicalState, Trajectory, hessian_along_flow, integrate_flow
from .config import ExperimentConfig, parse_config
from .corrections import CorrectionSet, assemble_expansion, evolve_corrections
from .errors import ConfigError, NumericalError
from .grids import (
    RESCALED,
    Frame,
    Grid,
    WaveFunction,
    WaveSeries,
    abs_moment,
    boundary_mass,
    first_moment,
    fourier_first_moment,
    fourier_second_moment,
    gaussian_profile,
    l2_distance,
    l2_norm,
    make_grid,
    physical_frame,
    radial_convolve,
)
from .hartree import (
    ComparisonResult,
    HartreeRun,
    assemble_approximation,
    build_coherent_state,
    compare_evolution,
    hartree_evolve,
    size_physical_grid,
    theorem_error,
)
from .potentials import ExternalPotential, PairPotential, builtin_external, builtin_pair
from .rescaled import RescaledRun, evolve_rescaled, residual_norm
from .sweep import (
    SweepError,
    SweepReport,
    SweepRow,
    emit_report,
    fit_rate,
    lemma_check,
    run_sweep,
)

__version__ = "0.1.0"
