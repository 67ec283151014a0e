"""Time the benchmark's solve phases on a parent checkout and on this tree, alternating.

Both src/perturba packages are loaded into one interpreter, under the names
perturba_parent and perturba_change, so that the two sides share the
process, its allocator and its BLAS threads: a per-process offset of a few
percent, which separate benchmark runs can show, cancels here.  Each of 31
rounds times the six phases on both sides, the side that goes first
alternating from round to round:

- quartic-grid: iterate_solve on states 0-7 of the dim-100 transformed
  quartic at beta 0.1, 0.5 and 1.0 (24 calls);
- linear: iterate_solve_all(build_linear_true(0.5, 30)), stacks of 30
  columns narrowing to 11 on one 30-state block;
- quartic-all: iterate_solve_all on the dim-100 transformed quartic at
  beta 0.5, stacks of up to 50 columns on its two 50-state blocks, about
  0.65 s a call on a 2-vCPU host;
- osc2d-levels: iterate_solve on states 0-5 of build_2d_synthetic(0.4, 0.2, 39);
- rspt: rspt_solve_all(build_linear_true(0.5, 30)), the expansion of
  linear-frontier;
- linear-frontier: the workload end to end, its three cli.main calls
  linear --beta 0.5 --dim 30 with --method rspt, iter and oracle, each
  writing its CSV to a temporary directory of the side.

Each side builds the matrices of the solve phases with its own builders
before the clock starts; the linear-frontier phase times the CLI's own
build, as the workload does.  For each phase it prints the median over the rounds of the
change/parent time ratio, with its quartiles, the ratio of the two sides'
minimum times, and the number of rounds the change was faster.  On a
shared 2-vCPU host the median of one run can move by a few percent from
run to run of the same two trees; the quartiles and the ratio of the
minima show how far.
It adds to the alternating perfbench/run.py pairs, not replaces them:
those measure whole processes end to end.

    python3 tools/ab_solves.py PARENT_ROOT

PARENT_ROOT is the root of a checkout of the parent commit, the directory
holding its src/perturba.
"""

from __future__ import annotations

import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROUNDS = 31
HERE = Path(__file__).resolve().parent.parent
FRONTIER = ["linear", "--beta", "0.5", "--dim", "30", "--method"]


def load(name: str, root: Path):
    """Import root/src/perturba as the package name, with its modules."""
    package = root / "src" / "perturba"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return tuple(
        importlib.import_module(f"{name}.{part}")
        for part in ("hamiltonians", "iterative", "rspt", "cli")
    )


def phases(hamiltonians, iterative, rspt, cli, out: Path) -> dict:
    """The six phases of one side, each a function of no arguments; CSVs go to out."""
    grid = [
        hamiltonians.build_quartic_synthetic(b, hamiltonians.default_quartic_a2(b), 100)
        for b in (0.1, 0.5, 1.0)
    ]
    linear = hamiltonians.build_linear_true(0.5, 30)
    osc2d = hamiltonians.build_2d_synthetic(0.4, 0.2, 39)
    return {
        "quartic-grid": lambda: [iterative.iterate_solve(h, k) for h in grid for k in range(8)],
        "linear": lambda: iterative.iterate_solve_all(linear),
        "quartic-all": lambda: iterative.iterate_solve_all(grid[1]),
        "osc2d-levels": lambda: [iterative.iterate_solve(osc2d, k) for k in range(6)],
        "rspt": lambda: rspt.rspt_solve_all(linear),
        "linear-frontier": lambda: [
            cli.main([*FRONTIER, method, "--out", str(out / f"{method}.csv")])
            for method in ("rspt", "iter", "oracle")
        ],
    }


def seconds(solve) -> float:
    t0 = time.perf_counter()
    solve()
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/ab_solves.py PARENT_ROOT", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        return compare([
            phases(*load(name, root), Path(tempfile.mkdtemp(dir=tmp)))
            for name, root in (("perturba_parent", Path(argv[0]).resolve()),
                               ("perturba_change", HERE))
        ])


def compare(sides: list) -> int:
    """Time every phase of the two sides, alternating, and print the ratios."""
    for side in sides:
        for solve in side.values():
            solve()  # warm-up
    times = {name: ([], []) for name in sides[0]}
    for i in range(ROUNDS):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for name, rows in times.items():
            for s in order:
                rows[s].append(seconds(sides[s][name]))
    for name, (parent, change) in times.items():
        ratios = [c / p for p, c in zip(parent, change)]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        wins = sum(r < 1.0 for r in ratios)
        print(f"{name:15} median change/parent {median:.3f} [{q1:.3f}-{q3:.3f}]  "
              f"min change/min parent {min(change) / min(parent):.3f}  wins {wins}/{ROUNDS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
