"""Semiclassical coherent-state propagation for the mean-field Hartree
dynamics (1-D, periodic).  The root exports the sweep entry points; the
solvers live in the submodules (`semihartree.hartree`, `.rescaled`, ...)."""

from .config import ExperimentConfig, parse_config
from .errors import ConfigError, NumericalError
from .sweep import SweepError, SweepReport, lemma_check, run_sweep

__version__ = "0.1.0"
