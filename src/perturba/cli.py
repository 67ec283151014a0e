"""Command-line front end.

Subcommands: linear, quartic, osc2d (benchmark runs emitting CSV), elements
(operator table dumps) and matrix (plain-text matrix dumps).  Exit code 0
means every requested state converged, 2 flags partial convergence, 1 is
reserved for usage or runtime errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .experiments import (
    ProblemInstance,
    RunResult,
    build_instance_matrix,
    exact_2d_energy,
    run_instance,
    write_results_csv,
)
from .hamiltonians import SyntheticSpec, default_quartic_a2
from .linalg import write_matrix_text
from .oscillator import cached_element_table, write_table_csv

OP_TAGS = {
    "xi": "xi",
    "xi2": "xi2",
    "xi3": "xi3",
    "xi4": "xi4",
    "lxi": "lambda_xi",
    "lxi3": "lambda_xi3",
}


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _beta_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad beta list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty beta list")
    return values


def _write_out(path: str | None, write) -> None:
    """Call write(stream) on stdout, or on the file at path."""
    if path is None or path == "-":
        write(sys.stdout)
        return
    with open(path, "w", newline="") as stream:
        write(stream)


def _parse_transform(args, problem: str, beta: float) -> SyntheticSpec | None:
    if problem == "linear":
        raw = args.synthetic_a
        if raw == "off":
            return None
        return SyntheticSpec(problem="linear", beta=beta, a=float(raw))
    if problem == "quartic":
        raw = args.a2
        if raw == "off":
            return None
        if raw == "auto":
            return SyntheticSpec(problem="quartic", beta=beta, a2=default_quartic_a2(beta))
        return SyntheticSpec(problem="quartic", beta=beta, a2=float(raw))
    if args.synthetic == "on":
        return SyntheticSpec(problem="osc2d", beta=beta, a=0.5 * beta)
    return None


def _run_rows(args, problem: str) -> tuple[list[RunResult], int]:
    # every instance is validated before the first one is built
    instances = [
        ProblemInstance(
            problem=problem,
            beta=beta,
            dim=args.nmax if problem == "osc2d" else args.dim,
            method=args.method,
            transform=_parse_transform(args, problem, beta),
        )
        for beta in args.beta
    ]
    results = [run_instance(instance) for instance in instances]
    failed = any(not r.all_converged for r in results)
    return results, (2 if failed else 0)


def _cmd_bench(args) -> int:
    problem = args.command
    if problem == "osc2d":
        # the exact column needs a bound spectrum: reject such beta before solving
        for beta in args.beta:
            exact_2d_energy(0, 0, beta)
    results, code = _run_rows(args, problem)
    _write_out(args.out, lambda s: write_results_csv(results, s))
    return code


def _cmd_elements(args) -> int:
    table = cached_element_table(OP_TAGS[args.op], args.max_n)
    _write_out(args.out, lambda s: write_table_csv(table, s))
    return 0


def _cmd_matrix(args) -> int:
    problem = args.problem
    # the method plays no part in building the matrix
    instance = ProblemInstance(
        problem=problem,
        beta=args.beta,
        dim=args.nmax if problem == "osc2d" else args.dim,
        method="iter",
        transform=_parse_transform(args, problem, args.beta),
    )
    h = build_instance_matrix(instance)
    _write_out(args.out, lambda s: write_matrix_text(h, s))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    parse_args leaves a parser unchanged and returns a fresh namespace, so
    every main call can share it.
    """
    parser = _Parser(prog="perturba", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--beta", type=_beta_list, required=True,
                       help="comma-separated coupling strengths")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_lin = sub.add_parser("linear", help="displaced-oscillator benchmark")
    add_common(p_lin)
    p_lin.add_argument("--dim", type=int, default=30)
    p_lin.add_argument("--method", choices=["rspt", "iter", "oracle"], default="iter")
    p_lin.add_argument("--synthetic-a", dest="synthetic_a", default="off",
                       help="transform coefficient, or 'off' for the true matrix")
    p_lin.set_defaults(func=_cmd_bench)

    p_qua = sub.add_parser("quartic", help="quartic-perturbation benchmark")
    add_common(p_qua)
    p_qua.add_argument("--dim", type=int, default=100)
    p_qua.add_argument("--method", choices=["rspt", "iter", "oracle"], default="iter")
    p_qua.add_argument("--a2", default="off",
                       help="'off' (true matrix), 'auto' (benchmark rule) or a number")
    p_qua.set_defaults(func=_cmd_bench)

    p_2d = sub.add_parser("osc2d", help="coupled-oscillator benchmark")
    add_common(p_2d)
    p_2d.add_argument("--nmax", type=int, default=39,
                      help="triangular cut on total quanta (at most 39)")
    p_2d.add_argument("--method", choices=["iter"], default="iter")
    p_2d.add_argument("--synthetic", choices=["on", "off"], default="on",
                      help="'on' applies the coupling transform with a = beta/2")
    p_2d.set_defaults(func=_cmd_bench)

    p_el = sub.add_parser("elements", help="dump an operator element table")
    p_el.add_argument("--op", choices=sorted(OP_TAGS), required=True)
    p_el.add_argument("--max-n", dest="max_n", type=int, required=True)
    p_el.add_argument("--out", default=None)
    p_el.set_defaults(func=_cmd_elements)

    p_mat = sub.add_parser("matrix", help="dump a benchmark matrix as text")
    p_mat.add_argument("--problem", choices=["linear", "quartic", "osc2d"],
                       required=True)
    p_mat.add_argument("--beta", type=float, required=True)
    p_mat.add_argument("--dim", type=int, default=30)
    p_mat.add_argument("--nmax", type=int, default=10)
    p_mat.add_argument("--synthetic-a", dest="synthetic_a", default="off")
    p_mat.add_argument("--a2", default="off")
    p_mat.add_argument("--synthetic", choices=["on", "off"], default="off")
    p_mat.add_argument("--out", default=None)
    p_mat.set_defaults(func=_cmd_matrix)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # surface runtime failures as exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
