"""Hamiltonian learning workbench for exact Gibbs states of local qubit models.

The package root exports the names of the README's library tour: build a
lattice and its local Pauli basis, assemble H(mu), take its Gibbs state,
plan and sample measurements, and solve the max-entropy dual.  Everything
else lives in its module, organised bottom-up:

- :mod:`gibbslearn.lattice`: lattices, the local Pauli operator basis, and
  Hamiltonian models with JSON round trips.
- :mod:`gibbslearn.gibbs`: exact diagonalisation, Gibbs weights, marginals.
- :mod:`gibbslearn.qbp`: the quantum belief propagation filter and the
  exact Hessian of log Z.
- :mod:`gibbslearn.measure`: measurement planning, outcome sampling, and
  Hoeffding confidence radii.
- :mod:`gibbslearn.solver`: the max-entropy dual solver, its error bound,
  `learn`, the whole measure-then-fit pipeline on a model, and `sweep`, its
  seeded trials over N, beta or size.
- :mod:`gibbslearn.lab`: structural checks (convexity floors, locality decay,
  partition-function bounds, the filtered operators and the filter's
  time/frequency pair by quadrature) and `SUITES`, the check suites of
  ``gibbslearn lab``.
- :mod:`gibbslearn.cli`: the ``gibbslearn`` command line entry point, which
  only wires configs to these calls and their results to files.
"""

__version__ = "0.1.0"  # set before the imports: reporting reads it

from .gibbs import gibbs_state
from .lattice import HamiltonianModel, LatticeSpec, assemble_hamiltonian, enumerate_basis
from .measure import build_plan, sample_outcomes
from .solver import solve

__all__ = [
    "HamiltonianModel",
    "LatticeSpec",
    "assemble_hamiltonian",
    "build_plan",
    "enumerate_basis",
    "gibbs_state",
    "sample_outcomes",
    "solve",
    "__version__",
]
