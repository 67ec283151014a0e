"""Print a digest of the output of a fixed list of CLI runs.

Each run goes through perturba.cli.main in this process, writing to a
temporary file through --out.  One line per run gives the first 16 hex
digits of the sha256 of the bytes written ("-" if nothing was written), the
exit code and the arguments.  Every warning is shown on stderr, once per
run that raises it.  Run it on two commits and diff the outputs to check
that a change keeps every CLI byte:

    PYTHONPATH=src python3 tools/cli_digests.py > digests.txt
"""

from __future__ import annotations

import hashlib
import tempfile
import warnings
from pathlib import Path

from perturba.cli import main as cli_main

_LINEAR = ["linear", "--beta", "0.5", "--dim", "30", "--method"]
_MATRIX = ["matrix", "--beta", "0.3", "--problem"]
# linear entries of order 1e154 and more overflow the squared Frobenius norm
_OVERFLOW = ["linear", "--beta", "1e160", "--dim", "4", "--method"]

RUNS = [
    ["quartic", "--beta", "0.5,1.0", "--dim", "100", "--a2", "auto"],
    ["quartic", "--beta", "0.5", "--dim", "200", "--method", "oracle"],
    # the expansion's guard stops some of these states
    ["quartic", "--beta", "0.5,1.0", "--dim", "100", "--a2", "auto", "--method", "rspt"],
    ["quartic", "--beta", "0.5", "--dim", "100", "--method", "rspt"],
    ["osc2d", "--beta", "0.4", "--nmax", "39"],
    ["osc2d", "--beta", "0.4", "--nmax", "12", "--synthetic", "off"],
    ["osc2d", "--beta", "0.4", "--nmax", "6"],
    *([*_LINEAR, method] for method in ("rspt", "iter", "oracle")),
    *(["elements", "--op", op, "--max-n", "60"] for op in ("xi", "xi2", "xi3", "xi4", "lxi")),
    ["elements", "--op", "lxi3", "--max-n", "60"],
    ["elements", "--op", "lxi3", "--max-n", "500"],
    *([*_MATRIX, problem] for problem in ("linear", "quartic", "osc2d")),
    [*_MATRIX, "linear", "--synthetic-a", "0.2"],
    [*_MATRIX, "quartic", "--a2", "auto", "--dim", "40"],
    [*_MATRIX, "osc2d", "--synthetic", "on", "--nmax", "8"],
    *([*_OVERFLOW, method] for method in ("iter", "rspt", "oracle")),
    ["linear", "--beta", "1e154", "--dim", "5", "--method", "iter"],
    ["matrix", "--problem", "linear", "--beta", "1e160", "--dim", "4"],
    # sizes below their least value, or a table above its cap, write nothing
    ["linear", "--beta", "0.5", "--dim", "0"],
    ["osc2d", "--beta", "0.4", "--nmax", "-1"],
    ["elements", "--op", "xi", "--max-n", "-1"],
    ["elements", "--op", "xi", "--max-n", "501"],
]


def main() -> None:
    warnings.simplefilter("always")
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(RUNS):
            out = Path(tmp) / f"run{i}.out"
            code = cli_main([*argv, "--out", str(out)])
            digest = hashlib.sha256(out.read_bytes()).hexdigest()[:16] if out.exists() else "-"
            print(f"{digest:16} {code} {' '.join(argv)}", flush=True)


if __name__ == "__main__":
    main()
