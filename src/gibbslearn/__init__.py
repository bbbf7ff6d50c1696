"""Hamiltonian learning workbench for exact Gibbs states of local qubit models.

The package is organised bottom-up:

- :mod:`gibbslearn.lattice`: lattices, the local Pauli operator basis, and
  Hamiltonian models with JSON round trips.
- :mod:`gibbslearn.gibbs`: exact diagonalisation, Gibbs weights, marginals.
- :mod:`gibbslearn.qbp`: the quantum belief propagation filter pair, the
  filtered transform, and exact log-partition derivatives.
- :mod:`gibbslearn.measure`: measurement planning, outcome sampling, and
  Hoeffding confidence radii.
- :mod:`gibbslearn.solver`: the max-entropy dual solver and its error bound.
- :mod:`gibbslearn.lab`: structural checks (convexity floors, locality decay,
  partition-function bounds).
- :mod:`gibbslearn.cli`: the ``gibbslearn`` command line entry point.
"""

from .gibbs import (
    GibbsEnsemble,
    SpectralDecomposition,
    density_matrix,
    diagonalize,
    gibbs,
    gibbs_state,
    marginal,
    marginals,
    variance,
)
from .lattice import (
    HamiltonianModel,
    LatticeSpec,
    LocalBasisOp,
    OperatorBasis,
    assemble_hamiltonian,
    basis_stack,
    enumerate_basis,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    to_dense,
)
from .measure import (
    MarginalEstimates,
    MeasurementPlan,
    build_plan,
    hoeffding_radius,
    required_delta,
    sample_outcomes,
)
from .qbp import (
    FilterKernel,
    FourierPairReport,
    HessianReport,
    QuadratureConfig,
    f_tilde,
    f_time,
    grad_logZ,
    hessian_logZ,
    log_partition,
    qbp_transform,
    quasilocal_W,
    verify_fourier_pair,
)
from .lab import (
    CheckReport,
    DirectionVector,
    LocalReduction,
    QuasiLocalProfile,
    SpectralConcentration,
    akl_concentration_check,
    delta_gamma,
    embed_on_sites,
    global_to_local_check,
    infinite_temp_variance_check,
    lieb_robinson_decay,
    local_reduce,
    local_unitary_probe,
    local_variance_floor,
    lower_bound_family,
    partial_trace,
    strong_convexity_probe,
    verify_sum_bounds,
)
from .solver import (
    SolverConfig,
    SolverTrace,
    alpha_along_segment,
    error_bound,
    gradient,
    objective,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "DirectionVector",
    "LocalReduction",
    "QuasiLocalProfile",
    "SpectralConcentration",
    "akl_concentration_check",
    "delta_gamma",
    "embed_on_sites",
    "global_to_local_check",
    "infinite_temp_variance_check",
    "lieb_robinson_decay",
    "local_reduce",
    "local_unitary_probe",
    "local_variance_floor",
    "lower_bound_family",
    "partial_trace",
    "strong_convexity_probe",
    "verify_sum_bounds",
    "GibbsEnsemble",
    "SpectralDecomposition",
    "density_matrix",
    "diagonalize",
    "gibbs",
    "gibbs_state",
    "marginal",
    "marginals",
    "variance",
    "HamiltonianModel",
    "LatticeSpec",
    "LocalBasisOp",
    "OperatorBasis",
    "assemble_hamiltonian",
    "basis_stack",
    "enumerate_basis",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "save_model",
    "to_dense",
    "MarginalEstimates",
    "MeasurementPlan",
    "build_plan",
    "hoeffding_radius",
    "required_delta",
    "sample_outcomes",
    "FilterKernel",
    "FourierPairReport",
    "HessianReport",
    "QuadratureConfig",
    "f_tilde",
    "f_time",
    "grad_logZ",
    "hessian_logZ",
    "log_partition",
    "qbp_transform",
    "quasilocal_W",
    "verify_fourier_pair",
    "SolverConfig",
    "SolverTrace",
    "alpha_along_segment",
    "error_bound",
    "gradient",
    "objective",
    "solve",
    "__version__",
]
