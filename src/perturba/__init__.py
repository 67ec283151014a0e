"""Perturbation-theory eigensolvers for truncated oscillator Hamiltonians.

Two single-state solvers (an order-by-order expansion and a coefficient
iteration that solves each coefficient's local quadratic exactly and
converges linearly where it converges) plus the benchmark matrices,
oscillator matrix elements and run harness used to exercise them.

The package is its seven modules, and public names are imported from the
module that defines them, for example ``from perturba.rspt import
rspt_solve``:

- ``perturba.linalg``: the solution type, the rules both solvers share
  (tolerance, divergence guard, size checks, residual) and the Jacobi
  oracle;
- ``perturba.rspt``: the Rayleigh-Schrodinger expansion;
- ``perturba.iterative``: the quadratic coefficient iteration;
- ``perturba.oscillator``: oscillator matrix-element tables;
- ``perturba.hamiltonians``: the benchmark matrices, true and transformed;
- ``perturba.experiments``: run descriptions, reference energies and CSV
  output;
- ``perturba.cli``: the ``perturba`` command.
"""

__version__ = "0.1.0"
