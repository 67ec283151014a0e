"""The package is its modules: every public name is imported from the module that defines it."""

import ast
import importlib
from pathlib import Path

import pytest

import perturba

# The names the package once re-exported, with the module that defines each.
PUBLIC = {
    "perturba.linalg": """DimensionMismatchError NoConvergenceError NonSymmetricError
        PerturbationSolution SolveStatus jacobi_diagonalize residual_norm write_matrix_text""",
    "perturba.oscillator": "build_element_table cached_element_table write_table_csv",
    "perturba.rspt": "OrderHistory rspt_solve rspt_solve_all",
    "perturba.iterative": "iterate_solve iterate_solve_all",
    "perturba.hamiltonians": """FgReport StructureViolationError build_2d_synthetic build_2d_true
        build_linear_synthetic build_linear_true build_quartic_synthetic build_quartic_true
        build_synthetic default_quartic_a2 quartic_a3 triangular_pairs verify_fg_structure""",
    "perturba.experiments": """BetaOutOfRangeError NotTabulatedError ProblemInstance
        QUARTIC_BENCHMARK RunResult StateRow UnsupportedProblemError backtransform_wavefunction
        exact_2d_energy exact_linear_energy quartic_reference_energy run_instance
        write_results_csv""",
}
CASES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]


@pytest.mark.parametrize("module, name", CASES)
def test_name_resolves_from_its_module(module, name):
    value = getattr(importlib.import_module(module), name)
    # defined there, not re-exported from elsewhere
    assert getattr(value, "__module__", module) == module


def test_package_holds_only_its_docstring_and_version():
    tree = ast.parse(Path(perturba.__file__).read_text())
    docstring, version = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert isinstance(version, ast.Assign) and [t.id for t in version.targets] == ["__version__"]
