"""clrlab: a numerical laboratory for the CLR bound with matrix potentials.

The package has five layers:

* :mod:`clrlab.matcore` — Hermitian eigendecompositions, spectral calculus,
  positive parts, and the Hölder trace-product inequality.
* :mod:`clrlab.timeorder` — time-ordered functional calculus for tuples of
  PSD matrices, closed forms for monomials and exponentials, and the
  time-ordered Jensen inequality.
* :mod:`clrlab.transforms` — semiclassical constants, the Laplace-type
  transform, the exponential integral, the one-parameter test-function
  family ``f_a``, and the constants pipeline ending in ``R ≈ 10.332``.
* :mod:`clrlab.lattice` — discrete Laplacians, Birman–Schwinger operators,
  eigenvalue counting, Trotter traces, and CLR/Lieb–Thirring right-hand
  sides on finite grids.
* :mod:`clrlab.harness` — seeded experiment drivers, potential generators,
  and report writers behind the ``clrlab`` command line tool.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .config import (
    ATOM_MAX_ORDER,
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
    negative_part,
    positive_part,
    split_parts,
)
from .timeorder import (
    ScalarFunctionClass,
    TimeOrderedResult,
    averaged_trace,
    convex_probe,
    jensen_gap,
    time_ordered_apply,
    time_ordered_exponential,
    time_ordered_monomial,
    time_ordered_mu_exp,
)
from .transforms import (
    ConstantTable,
    c_a,
    classical_constant,
    constant_table,
    corollary_constant,
    e1_scaled,
    exp_integral_E1,
    f_a_atoms,
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
    build_laplacian,
    clr_rhs,
    count_negative,
    hamiltonian,
    heat_diagonal_step,
    heat_kernel_free,
    k_spectrum,
    load_potential,
    potential_digest,
    resolvent_trace,
    riesz_mean,
    save_potential,
    semigroup_sandwich_trace,
    trotter_trace,
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
    "ATOM_MAX_ORDER", "DEFAULT_DENSE_BUDGET", "ENUMERATION_BUDGET",
    "MAX_MATRIX_DIM", "MONOMIAL_MAX_POWER", "dense_budget",
    # errors
    "AdmissibilityError", "BudgetError", "ClrlabError", "ConfigError",
    "EigenSolverError", "NonHermitianError", "NotPositiveSemidefiniteError",
    "SpectralDomainError",
    # matcore
    "EigenDecomposition", "apply_spectral",
    "eig_hermitian", "holder_trace_product", "negative_part",
    "positive_part", "split_parts",
    # timeorder
    "ScalarFunctionClass", "TimeOrderedResult", "averaged_trace",
    "convex_probe", "jensen_gap", "time_ordered_apply",
    "time_ordered_exponential", "time_ordered_monomial",
    "time_ordered_mu_exp",
    # transforms
    "ConstantTable", "c_a", "classical_constant", "constant_table",
    "corollary_constant", "e1_scaled", "exp_integral_E1", "f_a_atoms",
    "f_a_eval", "f_a_transform", "laplace_type_transform", "lt_rhs",
    "lw_product_check", "minimize_R", "r_bound", "r_of_a",
    # lattice
    "DiscreteOperator", "GridSpec", "MatrixPotential", "birman_schwinger",
    "bs_bound", "build_laplacian", "clr_rhs", "count_negative",
    "hamiltonian", "heat_diagonal_step", "heat_kernel_free", "k_spectrum",
    "load_potential", "potential_digest", "resolvent_trace", "riesz_mean",
    "save_potential", "semigroup_sandwich_trace", "trotter_trace",
    # harness
    "EXPERIMENTS", "ExperimentConfig", "ExperimentReport", "derive_seed",
    "generate_potential", "run_experiment",
]
