#!/usr/bin/env python3
"""Self-check of the benchmark itself; about two minutes.

Usage (from the repository root): python3 perfbench/selfcheck.py

1. The classifier, on hand-made results: off-level, high-residual,
   unconverged and malformed states.
2. The classifier on the program's own output: osc2d-levels states 0, 1, 2
   and 5 are ok and state 3 is not (its converged status sits on no level);
   every converged quartic-grid state is ok.
3. Two traced runs of each workload, with different seeds, report the same
   states_ok, states_false, warnings, iterative.sweeps and rspt.orders, and
   print exactly the metrics BENCHMARK.json names.

Exits 1 and names each failed check, or prints "selfcheck: ok".
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import classify  # noqa: E402
import workloads  # noqa: E402
from classify import MalformedOutput, StateResult  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def classifier_cases() -> None:
    h = np.diag([1.0, 2.0, 3.0])
    ref = classify.reference(h, 0.0, classify.levels_by_real_part(h))

    def result(state, energy, status="converged", residual=0.0):
        return StateResult("case", 0.0, state, status, energy, 1, residual, None)

    check(classify.verdict(result(1, 2.0), ref) == "ok", "on-level converged state is ok")
    check(classify.verdict(result(1, 3.0), ref) == "false", "converged on another level is false")
    check(classify.verdict(result(1, 2.0, residual=1e-3), ref) == "false",
          "converged with a large residual is false")
    check(classify.verdict(result(1, 9.0, "max_iterations_exceeded"), ref) == "unconverged",
          "capped state is unconverged")
    for bad in (result(1, float("nan")), result(1, 2.0, status="done")):
        try:
            classify.verdict(bad, ref)
            check(False, f"malformed {bad.status}/{bad.energy} raises")
        except MalformedOutput:
            check(True, f"malformed {bad.status}/{bad.energy} raises")
    try:
        classify.check_rows([result(0, 1.0), result(2, 3.0)], {"case": 3})
        check(False, "a missing row raises")
    except MalformedOutput:
        check(True, "a missing row raises")


def verdicts(name: str) -> dict[tuple[str, int], tuple[str, str]]:
    w = workloads.WORKLOADS[name]
    ctx = w.setup()
    refs = w.references(ctx)
    results, _ = w.collect(ctx, w.run(ctx, random.Random(0), str(ROOT)))
    return {(r.case, r.state): (r.status, classify.verdict(r, refs[r.case])) for r in results}


def program_cases() -> None:
    osc = verdicts("osc2d-levels")
    for k in (0, 1, 2, 5):
        check(osc[("beta=0.4", k)][1] == "ok", f"osc2d-levels state {k} is ok")
    status, v = osc[("beta=0.4", 3)]
    check(v == ("false" if status == "converged" else "unconverged"),
          f"osc2d-levels state 3 ({status}) is not ok: {v}")
    grid = verdicts("quartic-grid")
    converged = [v for status, v in grid.values() if status == "converged"]
    check(all(v == "ok" for v in converged),
          f"all {len(converged)} converged quartic-grid states are ok")


def bench(name: str, seed: int, trace: int) -> tuple[dict, dict]:
    """Result line and summary line of one short run."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    ).stdout.strip().splitlines()
    return json.loads(out[-1]), json.loads(out[-2])


def repeat_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, _ = bench("osc2d-levels", 1, 0)
    check(set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]},
          "an untraced run prints exactly the end-to-end metrics")
    names = {m["name"] for m in spec["per_layer"]}
    keys = ("states_ok", "states_false", "warnings", "iterative.sweeps", "rspt.orders")
    for name in workloads.WORKLOADS:
        seen = []
        for seed in (1, 2):
            result, summary = bench(name, seed, 1)
            counts = summary["counts"]
            check(result["correct"], f"{name} seed {seed} is correct")
            check(set(result["metrics"]) == names, f"{name} prints exactly the per-layer metrics")
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            seen.append({"states_ok": counts["states_ok"],
                         **{k: metrics[k] for k in keys if k != "states_ok"}})
        check(seen[0] == seen[1], f"{name} counts repeat across seeds: {seen[0]}")


def main() -> int:
    classifier_cases()
    program_cases()
    repeat_runs()
    if FAILURES:
        print(f"selfcheck: {len(FAILURES)} failed", file=sys.stderr)
        return 1
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
