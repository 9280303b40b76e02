"""clrlab: a numerical laboratory for the CLR bound with matrix potentials.

The package has five layers:

* :mod:`clrlab.matcore` — Hermitian eigendecompositions, spectral calculus,
  and the Hölder trace-product inequality.
* :mod:`clrlab.timeorder` — time-ordered functional calculus for tuples of
  PSD matrices, closed forms for monomials and exponentials, and the
  time-ordered Jensen inequality.
* :mod:`clrlab.transforms` — semiclassical constants, the Laplace-type
  transform and corollary integral of a plain callable, the exponential
  integral, the one-parameter test-function family ``f_a`` with its
  closed-form transform, and the constants pipeline ending in
  ``R ≈ 10.332``.  It imports nothing from the rest of the package.
* :mod:`clrlab.lattice` — Hamiltonians with the Dirichlet Laplacian of a
  finite box, Birman–Schwinger operators, eigenvalue counting by
  Schur-complement inertia, Trotter sandwiches, and CLR/Lieb–Thirring
  right-hand sides.
* :mod:`clrlab.harness` — seeded experiment drivers, potential generators,
  and report writers behind the ``clrlab`` command line tool.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .config import (
    DEFAULT_DENSE_BUDGET,
    ENUMERATION_BUDGET,
    MAX_MATRIX_DIM,
    MONOMIAL_MAX_POWER,
    dense_budget,
)
from .errors import (
    AdmissibilityError,
    BudgetError,
    ClrlabError,
    ConfigError,
    EigenSolverError,
    NonHermitianError,
    NotPositiveSemidefiniteError,
    SpectralDomainError,
)
from .matcore import (
    EigenDecomposition,
    apply_spectral,
    eig_hermitian,
    holder_trace_product,
)
from .timeorder import (
    ScalarFunctionClass,
    averaged_trace,
    convex_probe,
    jensen_gap,
    time_ordered_apply,
    time_ordered_exponential,
    time_ordered_monomial,
    time_ordered_mu_exp,
)
from .transforms import (
    c_a,
    classical_constant,
    corollary_constant,
    e1_scaled,
    exp_integral_E1,
    f_a_eval,
    f_a_transform,
    laplace_type_transform,
    lt_rhs,
    lw_product_check,
    minimize_R,
    r_bound,
    r_of_a,
)
from .lattice import (
    DiscreteOperator,
    GridSpec,
    MatrixPotential,
    birman_schwinger,
    bs_bound,
    clr_rhs,
    count_negative,
    h_and_k_spectra,
    hamiltonian,
    heat_diagonal_step,
    k_spectrum,
    load_potential,
    potential_digest,
    resolvent_trace,
    riesz_mean,
    save_potential,
    semigroup_sandwich_trace,
    trotter_sandwich,
)
from .harness import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentReport,
    derive_seed,
    generate_potential,
    run_experiment,
)

__all__ = [
    "__version__",
    # config
    "DEFAULT_DENSE_BUDGET", "ENUMERATION_BUDGET", "MAX_MATRIX_DIM",
    "MONOMIAL_MAX_POWER", "dense_budget",
    # errors
    "AdmissibilityError", "BudgetError", "ClrlabError", "ConfigError",
    "EigenSolverError", "NonHermitianError", "NotPositiveSemidefiniteError",
    "SpectralDomainError",
    # matcore
    "EigenDecomposition", "apply_spectral", "eig_hermitian",
    "holder_trace_product",
    # timeorder
    "ScalarFunctionClass", "averaged_trace", "convex_probe", "jensen_gap",
    "time_ordered_apply", "time_ordered_exponential", "time_ordered_monomial",
    "time_ordered_mu_exp",
    # transforms
    "c_a", "classical_constant", "corollary_constant", "e1_scaled",
    "exp_integral_E1", "f_a_eval", "f_a_transform",
    "laplace_type_transform", "lt_rhs", "lw_product_check", "minimize_R",
    "r_bound", "r_of_a",
    # lattice
    "DiscreteOperator", "GridSpec", "MatrixPotential", "birman_schwinger",
    "bs_bound", "clr_rhs", "count_negative",
    "h_and_k_spectra", "hamiltonian", "heat_diagonal_step", "k_spectrum",
    "load_potential", "potential_digest", "resolvent_trace", "riesz_mean",
    "save_potential", "semigroup_sandwich_trace", "trotter_sandwich",
    # harness
    "EXPERIMENTS", "ExperimentConfig", "ExperimentReport", "derive_seed",
    "generate_potential", "run_experiment",
]
