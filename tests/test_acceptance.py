"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Each test prints ``ACCEPTANCE <nn> <name>: PASS|FAIL`` (with per-check
details on failure) before asserting, so the verdict survives in the
captured output either way.  One criterion reports a genuine shortfall of
the update rule itself rather than a bug:

* criterion 04 — the fixed-point solver's frontier on the displaced
  oscillator stops at state 11, short of the 20±2 target.  For states 12
  and above the level-k eigenvector (in intermediate normalisation) is
  still a fixed point of the update, but only with the neighbours k±1 on
  the second root (-d - s sqrt(q)) / (2 H[k, l]) of their local quadratic;
  the sign rule s = sign(d) always selects the first root, so the
  iteration cannot reach that fixed point at any budget.

Criterion 05 checks the untransformed quartic problem where its ground
state's even-parity block actually grows: the coupling preserves parity, so
basis size 8 only adds the odd state |7> and must reproduce size 7 exactly,
while both solvers fail from size 9 upward.

The assertions are kept strict rather than weakened to force a green run.
"""

import math

import numpy as np
import pytest
from helpers import abs_power_oracle, element, random_dominant

from perturba.experiments import (
    QUARTIC_BENCHMARK,
    ProblemInstance,
    backtransform_wavefunction,
    exact_2d_energy,
    exact_linear_energy,
)
from perturba.hamiltonians import (
    build_2d_synthetic,
    build_linear_synthetic,
    build_linear_true,
    build_quartic_synthetic,
    build_quartic_true,
    default_quartic_a2,
    triangular_pairs,
    verify_fg_structure,
)
from perturba.iterative import iterate_solve
from perturba.oscillator import (
    QUAD_BAND_LIMIT,
    QUAD_ROW_LIMIT,
    _quadrature_element,
    build_element_table,
)
from perturba.rspt import rspt_solve


def _report(num: int, name: str, checks: list[tuple[str, bool, str]]) -> None:
    ok = all(good for _, good, _ in checks)
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    print(line)
    failed = [(label, detail) for label, good, detail in checks if not good]
    for label, detail in failed:
        print(f"  - {label}: {detail}")
    assert ok, line + "".join(f"\n  - {label}: {detail}" for label, detail in failed)


def test_criterion_01_quartic_benchmark_grid():
    """Every tabulated quartic level reproduced within 1e-4 relative."""
    cap = 50_000  # one cell needs ~15k sweeps
    checks = []
    worst = 0.0
    for beta, row in QUARTIC_BENCHMARK.items():
        if beta == 0.0:
            # nothing to cancel at zero coupling: the transform rule is
            # vacuous here and the untransformed matrix is already diagonal
            h = build_quartic_true(beta, 100)
        else:
            h = build_quartic_synthetic(beta, default_quartic_a2(beta), 100)
        for n, ref in enumerate(row):
            if ref is None:
                continue
            sol = iterate_solve(h, n, max_iterations=cap)
            rel = abs(sol.energy - ref) / abs(ref)
            worst = max(worst, rel)
            if not (sol.converged and rel <= 1e-4):
                checks.append(
                    (
                        f"beta={beta} n={n}",
                        False,
                        f"status={sol.status.value} rel={rel:.2e}",
                    )
                )
    checks.append(("worst relative error", worst <= 1e-4, f"{worst:.2e}"))
    _report(1, "quartic benchmark grid (dim 100)", checks)


def test_criterion_02_linear_triangularization():
    """Matched transform empties the lower triangle and bares exact levels."""
    checks = []
    for beta in (0.25, 0.5, 1.0, 2.0):
        h = build_linear_synthetic(beta, beta, 50)
        low = float(np.max(np.abs(np.tril(h, k=-1))))
        diag_exact = all(
            h[n, n] == exact_linear_energy(n, beta) for n in range(50)
        )
        checks.append((f"beta={beta} lower triangle", low <= 1e-14, f"max={low:.1e}"))
        checks.append((f"beta={beta} diagonal", diag_exact, "mismatch"))
    _report(2, "linear triangularization (dim 50)", checks)


def test_criterion_03_second_order_exactness():
    """Order-2 expansion on the true linear matrix is exact below the edge."""
    checks = []
    dim = 30
    for beta in (0.25, 0.5):
        worst = 0.0
        for n in range(dim - 1):
            sol = rspt_solve(build_linear_true(beta, dim), n, max_order=2)
            worst = max(worst, abs(sol.energy - exact_linear_energy(n, beta)))
        checks.append((f"beta={beta}", worst <= 1e-12, f"worst={worst:.2e}"))
    _report(3, "second-order exactness (dim 30)", checks)


def test_criterion_04_convergence_frontier_ordering():
    """Fixed-point frontier strictly beats the expansion's on the linear problem."""
    h = build_linear_true(0.5, 30)

    def frontier(solver):
        best = -1
        for n in range(30):
            if not solver(n).converged:
                break
            best = n
        return best

    f_rspt = frontier(lambda n: rspt_solve(h, n))
    f_iter = frontier(lambda n: iterate_solve(h, n, max_iterations=500_000))

    checks = [
        (
            "strict ordering",
            f_iter > f_rspt,
            f"iterative {f_iter} vs expansion {f_rspt}",
        ),
        ("expansion frontier in 11±2", 9 <= f_rspt <= 13, f"got {f_rspt}"),
        (
            "iterative frontier in 20±2",
            18 <= f_iter <= 22,
            f"got {f_iter} at a 500000-sweep budget; for states 12+ the "
            "level-k eigenvector is a fixed point of the update only with "
            "c[k±1] on the second root (-d - s*sqrt(q))/(2 H[k,l]) of the "
            "local quadratic, and the sign rule s = sign(d) always selects "
            "the first root, so the iteration cannot reach it",
        ),
    ]
    _report(4, "convergence frontier ordering (linear, beta=0.5, dim 30)", checks)


def test_criterion_05_true_quartic_basis_growth():
    """Solving the untransformed quartic matrix degrades as the basis grows.

    The quartic coupling only links |n> to |n±2> and |n±4>, so parity is
    conserved and basis size 8 adds only the odd state |7>: the even block
    the ground state sees is the one of size 7, and both solvers must
    reproduce their size-7 run there.  The block grows again at size 9,
    where both solvers fail.
    """
    checks = []
    solvers = (("rspt", rspt_solve), ("iter", iterate_solve))
    h7 = build_quartic_true(1.0, 7)
    sols7 = {name: solve(h7, 0) for name, solve in solvers}
    checks.append(
        (
            "dim 7 both converge",
            all(s.converged for s in sols7.values()),
            ", ".join(s.status.value for s in sols7.values()),
        )
    )
    h8 = build_quartic_true(1.0, 8)
    for name, solve in solvers:
        s7, s8 = sols7[name], solve(h8, 0)
        rel = abs(s8.energy - s7.energy) / abs(s7.energy)
        checks.append(
            (
                f"dim 8 {name} matches dim 7 (odd |7> decouples)",
                s8.converged
                and s8.iterations == s7.iterations
                and rel <= 1e-14
                and s8.coefficients[7] == 0.0,
                f"status={s8.status.value} iterations {s8.iterations} vs "
                f"{s7.iterations}, energy rel diff {rel:.1e}, "
                f"c[7]={s8.coefficients[7]!r}",
            )
        )
    for dim in (9, 10, 12):
        h = build_quartic_true(1.0, dim)
        r = rspt_solve(h, 0)
        i = iterate_solve(h, 0)
        checks.append(
            (
                f"dim {dim} both fail",
                not r.converged and not i.converged,
                f"rspt={r.status.value} iter={i.status.value}",
            )
        )
    _report(5, "true quartic matrix vs basis size (beta=1)", checks)


def test_criterion_06_coupled_2d_degenerate_levels():
    """820-state coupled-oscillator run nails the lowest three levels."""
    checks = []
    assert triangular_pairs(39)[0].size == 820
    for beta in (0.2, 0.4, 0.6, 0.8):
        h = build_2d_synthetic(beta, beta / 2.0, 39)
        worst = 0.0
        all_ok = True
        for idx, (n1, n2) in [(0, (0, 0)), (1, (0, 1)), (2, (1, 0))]:
            sol = iterate_solve(h, idx)
            err = abs(sol.energy - exact_2d_energy(n1, n2, beta))
            worst = max(worst, err)
            all_ok = all_ok and sol.converged
        checks.append(
            (f"beta={beta}", all_ok and worst <= 1e-4, f"worst={worst:.2e}")
        )
    _report(6, "coupled 2-D degenerate levels (820 states)", checks)


def test_criterion_07_random_matrix_oracle_agreement():
    """Converged energies of both solvers match LAPACK eigenvalues to 1e-9."""
    converged = 0
    mismatches = []
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        dim = int(rng.integers(2, 11))
        h = random_dominant(rng, dim)
        reference = np.linalg.eigvalsh(h)
        for solver in (rspt_solve, iterate_solve):
            for k in range(dim):
                sol = solver(h, k)
                if not sol.converged:
                    continue
                converged += 1
                gap = float(np.min(np.abs(reference - sol.energy)))
                if gap > 1e-9:
                    mismatches.append((seed, solver.__name__, k, gap))
    checks = [
        ("sample is non-trivial", converged >= 1000, f"{converged} converged solves"),
        ("all matched within 1e-9", not mismatches, f"{mismatches[:5]}"),
    ]
    _report(7, "random-matrix oracle agreement (200 matrices)", checks)


def test_criterion_08_element_suite():
    """Closed forms close under products; quadrature matches exact moments."""
    checks = []

    # product closure on the 0..60 block, inner sums complete through 64
    tables = {tag: build_element_table(tag, 64) for tag in ("xi", "xi2", "xi3", "xi4")}
    xi, xi2, xi3, xi4 = tables["xi"], tables["xi2"], tables["xi3"], tables["xi4"]
    b = slice(0, 61)
    closures = {
        "xi*xi = xi2": float(np.max(np.abs((xi @ xi - xi2)[b, b]))),
        "xi*xi2 = xi3": float(np.max(np.abs((xi @ xi2 - xi3)[b, b]))),
        "xi2*xi2 = xi4": float(np.max(np.abs((xi2 @ xi2 - xi4)[b, b]))),
    }
    for label, defect in closures.items():
        checks.append((label, defect <= 1e-12, f"defect={defect:.2e}"))

    # quadrature versus exact rational-moment evaluation
    worst = 0.0
    for n in range(21):
        for m in range(n, 21):
            worst = max(
                worst, abs(element("lambda_xi3", n, m) - abs_power_oracle(n, m, 3))
            )
    checks.append(("cubic-magnitude vs exact moments", worst <= 1e-8, f"{worst:.2e}"))

    # extrapolations anchor continuously at both region boundaries
    for power, tag in ((1, "lambda_xi"), (3, "lambda_xi3")):
        for a in (0, 5, 10):
            m = a + QUAD_BAND_LIMIT + 2
            raw = _quadrature_element(a, m, power)
            val = element(tag, a, m)
            ok = raw != 0.0 and abs(val / raw - 1.0) <= 0.15
            checks.append(
                (f"band seam p={power} ({a},{m})", ok, f"ratio={val / raw:.3f}")
            )
        for k in (0, 2):
            a = QUAD_ROW_LIMIT - k // 2 + 1
            raw = _quadrature_element(a, a + k, power)
            val = element(tag, a, a + k)
            ok = raw != 0.0 and abs(val / raw - 1.0) <= 0.15
            checks.append(
                (f"row seam p={power} ({a},{a + k})", ok, f"ratio={val / raw:.3f}")
            )
    _report(8, "operator element suite", checks)


def test_criterion_09_transform_structure():
    """Every synthetic family decomposes as base + skew - positive parts."""
    settings = [
        ("linear", 0.5, 0.5),
        ("linear", 2.0, 2.0),
        ("quartic", 0.2, -0.35),
        ("quartic", 1.0, -0.375),
        ("osc2d", 0.4, 0.2),
        ("osc2d", 0.8, 0.4),
    ]
    checks = []
    for problem, beta, a in settings:
        dim = 10 if problem == "osc2d" else 30
        try:
            report = verify_fg_structure(problem, beta, a, dim)
        except Exception as exc:  # any structural violation fails the criterion
            checks.append((f"{problem} beta={beta}", False, str(exc)))
            continue
        ok = (
            report.f_antisymmetry_defect <= 1e-12
            and report.g_symmetry_defect <= 1e-12
            and report.min_g_diagonal > 0.0
            and report.reconstruction_defect <= 1e-10
        )
        checks.append(
            (
                f"{problem} beta={beta}",
                ok,
                f"recon={report.reconstruction_defect:.1e}",
            )
        )
    _report(9, "transform structure invariants", checks)


def test_criterion_10_backtransform_orthogonality():
    """Recovered coordinate wavefunctions are the shifted exact states."""
    beta = 0.5
    inst = ProblemInstance(problem="linear", beta=beta, dim=30, method="iter", transform=beta)
    h = build_linear_synthetic(beta, beta, 30)
    grid = np.linspace(-12.0, 12.0, 2048)
    waves = []
    checks = []
    for n in range(6):
        sol = iterate_solve(h, n)
        checks.append((f"state {n} converges", sol.converged, sol.status.value))
        waves.append(backtransform_wavefunction(inst, sol, grid))

    exact0 = math.pi ** -0.25 * np.exp(-0.5 * (grid + beta) ** 2)
    err = min(
        float(np.max(np.abs(waves[0] - exact0))),
        float(np.max(np.abs(waves[0] + exact0))),
    )
    checks.append(("ground state pointwise 1e-6", err <= 1e-6, f"max err {err:.2e}"))

    trap = getattr(np, "trapezoid", None) or np.trapz
    worst = 0.0
    for i in range(6):
        for j in range(i + 1, 6):
            worst = max(worst, abs(float(trap(waves[i] * waves[j], grid))))
    checks.append(("mutual orthogonality 1e-6", worst <= 1e-6, f"worst {worst:.2e}"))
    _report(10, "wavefunction back-transform (linear, beta=0.5)", checks)
