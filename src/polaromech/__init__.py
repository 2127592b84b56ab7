"""Polarization-controlled optomechanical entanglement.

A two-polarization (TE/TM) driven cavity couples both optical modes to one
mechanical oscillator; rotating the drive polarization angle steers which
optical mode is entangled with the mechanics. This package computes steady
states, stability, stationary Gaussian covariance matrices (intracavity and
for filtered output modes), and logarithmic negativity, plus parameter
sweeps and a small CLI.
"""

from .config import (CONFIG_KEYS, PAPER_BASELINE, ConfigError, build_params,
                     params_record, paper_params, parse_config)
from .figures import FIGURES, reproduce_figure
from .dynamics import (BASIS_LABELS, STABILITY_MARGIN, DriftDiffusion,
                       assemble_drift, diffusion_matrix, drift_diffusion,
                       drift_matrix, is_stable_eigen, spectral_abscissa)
from .gaussian import (BipartiteCM, PhysicalityReport, log_negativity,
                       min_symplectic_pt, reduce_bipartite, symplectic_form,
                       validate_cm)
from .lyapunov import (CovarianceMatrix, LyapunovError, lyapunov_residual,
                       solve_lyapunov)
from .outputfield import FilterSpec, filter_fourier, output_cm
from .params import (DerivedParams, ParameterError, SystemParams,
                     derive_constants, mean_phonon_number, polarization_split)
from .pipeline import (entanglement, intracavity_cm, operating_point,
                       output_cm_at)
from .steadystate import (SteadyState, UnstableOperatingPointError,
                          solve_steady_state)
from .sweep import (AXIS_NAMES, TARGETS, Axis, ResultTable, SweepSpec,
                    run_sweep)

__version__ = "0.1.0"

__all__ = [
    "AXIS_NAMES", "Axis", "BASIS_LABELS", "BipartiteCM", "CONFIG_KEYS",
    "ConfigError", "CovarianceMatrix", "DerivedParams", "DriftDiffusion",
    "FIGURES", "FilterSpec", "LyapunovError", "PAPER_BASELINE",
    "ParameterError", "PhysicalityReport", "ResultTable",
    "STABILITY_MARGIN", "SteadyState", "SweepSpec", "SystemParams",
    "TARGETS", "UnstableOperatingPointError", "assemble_drift",
    "build_params", "derive_constants", "diffusion_matrix",
    "drift_diffusion", "drift_matrix", "entanglement", "filter_fourier",
    "intracavity_cm", "is_stable_eigen", "log_negativity",
    "lyapunov_residual", "mean_phonon_number", "min_symplectic_pt",
    "operating_point", "output_cm", "output_cm_at", "paper_params",
    "params_record", "parse_config", "polarization_split",
    "reduce_bipartite", "reproduce_figure", "run_sweep", "solve_lyapunov",
    "solve_steady_state", "spectral_abscissa", "symplectic_form",
    "validate_cm",
]
