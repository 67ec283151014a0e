"""Perturbation-theory eigensolvers for truncated oscillator Hamiltonians.

Two single-state solvers (an order-by-order expansion and a coefficient
iteration that solves each coefficient's local quadratic exactly and
converges linearly where it converges) plus the benchmark matrices,
oscillator matrix elements and run harness used to exercise them.
"""

from .linalg import (
    DimensionMismatchError,
    NoConvergenceError,
    NonSymmetricError,
    PerturbationSolution,
    SolveStatus,
    jacobi_diagonalize,
    residual_norm,
    symmetry_defect,
    write_matrix_text,
)
from .oscillator import (
    IndexOutOfRangeError,
    build_element_table,
    cached_element_table,
    write_table_csv,
)
from .rspt import OrderHistory, rspt_solve, rspt_solve_all
from .iterative import iterate_solve, iterate_solve_all
from .hamiltonians import (
    FgReport,
    StructureViolationError,
    build_2d_synthetic,
    build_2d_true,
    build_linear_synthetic,
    build_linear_true,
    build_quartic_synthetic,
    build_quartic_true,
    build_synthetic,
    default_quartic_a2,
    quartic_a3,
    triangular_pairs,
    verify_fg_structure,
)
from .experiments import (
    BetaOutOfRangeError,
    NotTabulatedError,
    ProblemInstance,
    QUARTIC_BENCHMARK,
    RunResult,
    StateRow,
    UnsupportedProblemError,
    backtransform_wavefunction,
    exact_2d_energy,
    exact_linear_energy,
    quartic_reference_energy,
    run_instance,
    write_results_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
