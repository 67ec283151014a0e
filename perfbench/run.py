#!/usr/bin/env python3
"""perturba benchmark: four solver workloads with checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload quartic-grid --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
quartic-grid, linear-frontier, quartic-oracle, osc2d-levels.

The run repeats the workload's solve phase until --seconds have passed and
classifies every state of every repetition (classify.py).  With --trace 0 a
host-speed probe (calibrate.py) samples the machine while the program runs,
and wall_s is given in seconds of the reference host.  The last line of
standard output is one JSON object: correct, attempted and failed (states
per repetition, failed being those not "ok"), and the metrics.  --trace 0
gives the end-to-end metrics; --trace 1 alternates untraced and traced
repetitions and gives the per-layer metrics, and writes spans and per-state
rows to .perfbench-out/<workload>-seed<seed>.json.  All load comes from this
one process; set-up samples run one at a time in child processes.

Without src/perturba next to this directory the run exits with code 2.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

import calibrate
import classify
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
SETUP_PROBES = 20  # probe samples between two cold starts

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "states_ok": "count",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "oscillator.table_s": "s",
    "oscillator.tables": "count",
    "hamiltonians.build_s": "s",
    "hamiltonians.builds": "count",
    "iterative.solve_s": "s",
    "iterative.sweeps": "count",
    "iterative.sweep_us": "us",
    "iterative.capped_sweep_share": "ratio",
    "iterative.converged_share": "ratio",
    "iterative.state_ms_p50": "ms",
    "iterative.state_ms_p90": "ms",
    "iterative.state_samples": "count",
    "rspt.solve_s": "s",
    "rspt.orders": "count",
    "rspt.order_us": "us",
    "linalg.jacobi_s": "s",
    "linalg.jacobi_calls": "count",
    "linalg.residual_s": "s",
    "linalg.residual_calls": "count",
    "experiments.csv_s": "s",
    "experiments.csv_bytes": "bytes",
    "experiments.run_self_s": "s",
    "experiments.eig_err_max": "ratio",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace_overhead_s": "s",
    "states_false": "count",
    "warnings": "count",
}
# Layer self times that together cover every span of a traced pass.
SELF_TIMES = (
    "oscillator.table_s", "hamiltonians.build_s", "iterative.solve_s", "rspt.solve_s",
    "linalg.jacobi_s", "linalg.residual_s", "experiments.csv_s", "experiments.run_self_s",
    "cli.self_s", "bench.self_s",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import perturba from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "perturba" / "__init__.py").is_file():
        print(f"perfbench: no perturba sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import perturba

    if Path(perturba.__file__).resolve().parent != src / "perturba":
        print(f"perfbench: imported perturba from {perturba.__file__}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
    }


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure_setup(workload: str, probe: calibrate.Probe) -> tuple[list[float], list[float]]:
    """Cold-start samples, each in a fresh interpreter, one after another.

    Returns the cold-start times and, for each, the mean probe sample time
    over the probe runs just before and just after it.
    """
    def probe_s() -> float:
        return statistics.fmean(probe.sample() for _ in range(SETUP_PROBES))

    samples, probes = [], []
    before = probe_s()
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        after = probe_s()
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        probes.append(0.5 * (before + after))
        before = after
    return samples, probes


def repetition(w, ctx, rng, out_dir: str, tracer, rep_id: int, probe=None) -> dict:
    """One solve phase, timed, with every Python warning counted.

    With a probe, its samples interrupt the solve phase; the repetition's
    wall time leaves them out, and "probe" is their mean time.
    """
    probe_s = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if probe is not None:
            with probe.sampling() as samples:
                t0 = time.perf_counter()
                raw = w.run(ctx, rng, out_dir)
                t1 = time.perf_counter()
            inside = [seconds for start, seconds in samples if t0 <= start <= t1]
            wall = t1 - t0 - sum(inside)
            probe_s = statistics.fmean(inside) if inside else probe.sample()
        elif tracer is None:
            t0 = time.perf_counter()
            raw = w.run(ctx, rng, out_dir)
            wall = time.perf_counter() - t0
        else:
            tracer.pass_id = rep_id
            with tracer.patched(), tracer.span("repetition", "bench") as root:
                raw = w.run(ctx, rng, out_dir)
            wall = root["end"] - root["start"]
    return {"id": rep_id, "traced": tracer is not None, "wall": wall, "probe": probe_s,
            "warnings": len(caught), "raw": raw}


def classify_reps(w, ctx, refs, reps: list[dict]) -> list[str]:
    """Attach results and verdicts to each repetition; return problems found."""
    problems = []
    signature = None
    for rep in reps:
        try:
            results, rep["csv_bytes"] = w.collect(ctx, rep.pop("raw"))
            results.sort(key=lambda r: (r.case, r.state))
            rep["rows"] = [(r, classify.verdict(r, refs[r.case])) for r in results]
        except classify.MalformedOutput as exc:
            problems.append(f"repetition {rep['id']}: {exc}")
            rep["rows"] = None
            continue
        sig = ([(r.case, r.state, r.status, r.iterations, v) for r, v in rep["rows"]],
               rep["warnings"], rep["csv_bytes"])
        if signature is None:
            signature = sig
        elif sig != signature:
            problems.append(f"repetition {rep['id']} differs from the first")
    return problems


def _number(value: float, unit: str) -> float | int:
    """Counts print as integers when they are whole."""
    return int(value) if unit == "count" and float(value).is_integer() else value


def calibrated_wall(reps: list[dict]) -> float:
    """Solve-phase wall time in seconds of the reference host.

    Each repetition's time is divided by the mean time of the probe samples
    taken while it ran; the median of that ratio over the repetitions is
    scaled by the samples' time on the reference host.
    """
    return calibrate.REF_S * statistics.median(rep["wall"] / rep["probe"] for rep in reps)


def state_rows(name: str, rep: dict, recorded: list[dict]) -> list[dict]:
    """Per-state records of one traced repetition."""
    solver_ms = {
        ({"iterate_solve": "iter", "rspt_solve": "rspt"}[s["name"]], s["state"]):
            1.0e3 * (s["end"] - s["start"])
        for s in recorded
        if s["pass"] == rep["id"] and "state" in s
    }
    rows = []
    for r, v in rep["rows"]:
        method = r.case.split("=")[1] if r.case.startswith("method=") else "iter"
        wall_ms = r.wall_ms if r.wall_ms is not None else solver_ms.get((method, r.state))
        rows.append({
            "workload": name, "repetition": rep["id"], "case": r.case, "beta": r.beta,
            "state": r.state, "status": r.status, "iterations": r.iterations,
            "wall_ms": wall_ms, "residual": r.residual, "verdict": v,
        })
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    env = environment()
    import workloads  # imports perturba, so only after import_program()

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    probe = calibrate.Probe()
    setup_samples, setup_probes = measure_setup(args.workload, probe)

    tracer = spans.Tracer() if args.trace else None
    if tracer is None:
        ctx = w.setup()
    else:
        tracer.pass_id = "setup"
        with tracer.patched(), tracer.span("setup", "bench"):
            ctx = w.setup()
    refs = w.references(ctx)

    rng = random.Random(args.seed)
    reps: list[dict] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as out_dir:
        # Start another round while at least half of it fits in --seconds.
        start = time.perf_counter()
        round_s = 0.0
        while not reps or time.perf_counter() - start + round_s / 2 < args.seconds:
            t0 = time.perf_counter()
            reps.append(repetition(w, ctx, rng, out_dir, None, len(reps),
                                   None if tracer is not None else probe))
            if tracer is not None:
                reps.append(repetition(w, ctx, rng, out_dir, tracer, len(reps)))
            round_s = time.perf_counter() - t0
        problems = classify_reps(w, ctx, refs, reps)

    good = [rep for rep in reps if rep["rows"] is not None]
    rows = good[0]["rows"] if good else []
    oks = [r for r, v in rows if v == "ok"]
    if w.golden:
        problems += workloads.golden_problems(refs, oks)
    states_ok = len(oks)
    counts = {
        "states_ok": states_ok,
        "states_false": sum(v == "false" for _, v in rows),
        "warnings": good[0]["warnings"] if good else 0,
        "repetitions": len(reps),
    }

    if tracer is None:
        metrics = {
            "wall_s": calibrated_wall(reps),
            "setup_s": calibrate.REF_S * statistics.median(
                s / p for s, p in zip(setup_samples, setup_probes)),
            "states_ok": states_ok,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        traced = [rep for rep in reps if rep["traced"]]
        untraced = [rep for rep in reps if not rep["traced"]]
        metrics = spans.layer_metrics(tracer.spans, [rep["id"] for rep in traced])
        accounted = sum(metrics[k] for k in SELF_TIMES)
        if abs(accounted - metrics["trace.wall_s"]) > 1.0e-9 * max(1.0, metrics["trace.wall_s"]):
            problems.append(f"self times {accounted} do not cover traced wall {metrics['trace.wall_s']}")
        metrics.update({
            "experiments.csv_bytes": good[0]["csv_bytes"] if good else 0,
            "experiments.eig_err_max": max(
                (classify.energy_error(r.energy, refs[r.case].levels[r.state]) for r in oks),
                default=0.0,
            ),
            "trace_overhead_s": statistics.fmean(rep["wall"] for rep in traced)
            - statistics.fmean(rep["wall"] for rep in untraced),
            "states_false": counts["states_false"],
            "warnings": counts["warnings"],
        })
        units = PER_LAYER
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        path = out / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "spans": tracer.spans,
            "states": [row for rep in traced if rep["rows"] is not None
                       for row in state_rows(args.workload, rep, tracer.spans)],
        }, indent=1))
        print(json.dumps({"trace_file": str(path.relative_to(ROOT))}))

    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env,
                      "setup_samples": setup_samples, "setup_probe_s": setup_probes,
                      "rep_wall_s": [rep["wall"] for rep in reps],
                      "rep_probe_s": [rep["probe"] for rep in reps],
                      "counts": counts, "problems": problems}))
    print(json.dumps({
        "correct": not problems,
        "attempted": w.attempted,
        "failed": w.attempted - states_ok,
        "metrics": {k: {"value": _number(metrics[k], u), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
