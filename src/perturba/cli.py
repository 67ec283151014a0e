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
    METHODS,
    PROBLEMS,
    ProblemInstance,
    build_instance_matrix,
    exact_2d_energy,
    run_instance,
    write_results_csv,
)
from .hamiltonians import default_quartic_a2
from .linalg import as_square_matrix, write_matrix_text
from .oscillator import cached_element_table, write_table_csv

OP_TAGS = {
    "xi": "xi",
    "xi2": "xi2",
    "xi3": "xi3",
    "xi4": "xi4",
    "lxi": "lambda_xi",
    "lxi3": "lambda_xi3",
}

# Each problem's transform flag; matrix, which takes all three, rejects the
# flags of the problems it was not asked for.
_TRANSFORM_FLAGS = {"linear": "--synthetic-a", "quartic": "--a2", "osc2d": "--synthetic"}


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


def _flag_value(args, flag: str) -> str:
    return getattr(args, flag[2:].replace("-", "_"))


def _parse_transform(args, problem: str, beta: float) -> float | None:
    """The transform coefficient that args give problem at beta; None if off."""
    raw = _flag_value(args, _TRANSFORM_FLAGS[problem])
    if raw == "off":
        return None
    if problem == "osc2d":  # --synthetic on
        return 0.5 * beta
    if problem == "quartic" and raw == "auto":
        return default_quartic_a2(beta)
    return float(raw)


def _instance(args, problem: str, beta: float) -> ProblemInstance:
    """The run that args ask for at one beta; osc2d reads --nmax as its dim."""
    return ProblemInstance(
        problem=problem,
        beta=beta,
        dim=args.nmax if problem == "osc2d" else args.dim,
        method=args.method,
        transform=_parse_transform(args, problem, beta),
    )


def _cmd_bench(args) -> int:
    problem = args.command
    if problem == "osc2d":
        # the exact column needs a bound spectrum: reject such beta before solving
        for beta in args.beta:
            exact_2d_energy(0, 0, beta)
    # every instance is validated before the first one is built
    instances = [_instance(args, problem, beta) for beta in args.beta]
    results = [run_instance(instance) for instance in instances]
    _write_out(args.out, lambda s: write_results_csv(results, s))
    return 0 if all(r.all_converged for r in results) else 2


def _cmd_elements(args) -> int:
    table = cached_element_table(OP_TAGS[args.op], args.max_n)
    _write_out(args.out, lambda s: write_table_csv(table, s))
    return 0


def _cmd_matrix(args) -> int:
    for owner, flag in _TRANSFORM_FLAGS.items():
        if owner != args.problem and _flag_value(args, flag) != "off":
            raise ValueError(f"{flag} is the {owner} transform flag; --problem is {args.problem}")
    # checked before the output file is opened, so a refused matrix leaves none
    h = as_square_matrix(build_instance_matrix(_instance(args, args.problem, args.beta)))
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
    p_lin.add_argument("--method", choices=METHODS, default="iter")
    p_lin.add_argument("--synthetic-a", dest="synthetic_a", default="off",
                       help="transform coefficient, or 'off' for the true matrix")
    p_lin.set_defaults(func=_cmd_bench)

    p_qua = sub.add_parser("quartic", help="quartic-perturbation benchmark")
    add_common(p_qua)
    p_qua.add_argument("--dim", type=int, default=100)
    p_qua.add_argument("--method", choices=METHODS, default="iter")
    p_qua.add_argument("--a2", default="off",
                       help="'off' (true matrix), 'auto' (benchmark rule) or a number")
    p_qua.set_defaults(func=_cmd_bench)

    p_2d = sub.add_parser("osc2d", help="coupled-oscillator benchmark")
    add_common(p_2d)
    p_2d.add_argument("--nmax", type=int, default=39,
                      help="triangular cut on total quanta")
    p_2d.add_argument("--synthetic", choices=["on", "off"], default="on",
                      help="'on' applies the coupling transform with a = beta/2")
    p_2d.set_defaults(func=_cmd_bench, method="iter")

    p_el = sub.add_parser("elements", help="dump an operator element table")
    p_el.add_argument("--op", choices=sorted(OP_TAGS), required=True)
    p_el.add_argument("--max-n", dest="max_n", type=int, required=True)
    p_el.add_argument("--out", default=None)
    p_el.set_defaults(func=_cmd_elements)

    p_mat = sub.add_parser("matrix", help="dump a benchmark matrix as text")
    p_mat.add_argument("--problem", choices=PROBLEMS, required=True)
    p_mat.add_argument("--beta", type=float, required=True)
    p_mat.add_argument("--dim", type=int, default=30)
    p_mat.add_argument("--nmax", type=int, default=10)
    p_mat.add_argument("--synthetic-a", dest="synthetic_a", default="off")
    p_mat.add_argument("--a2", default="off")
    p_mat.add_argument("--synthetic", choices=["on", "off"], default="off")
    p_mat.add_argument("--out", default=None)
    # the method plays no part in building the matrix
    p_mat.set_defaults(func=_cmd_matrix, method="iter")
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
