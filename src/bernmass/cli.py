"""Command-line interface: experiment runs and matrix dumps as CSV.

Subcommands:
  project       projection experiment for one of the built-in functions
  random        random-system experiment with a seeded generator
  conditioning  condition-number table per degree
  matrix        raw dump of the mass matrix, its inverse, the eigenvector
                matrix, or the eigenvalues

Exit codes: 0 success, 2 usage error, 3 numerical failure.  A degree past
what the library builds (a table's --max-degree, the mass matrix, Q or the
eigenvalues past 582, the inverse past 511, the conditioning table past 514)
exits 3 before any work, with the library's DegreeTooLargeError message.
"""

from __future__ import annotations

import argparse
import sys

from .bernstein import mass_matrix
from .conditioning import _supported, kappa_2, kappa_m_to_2
from .experiments import FUNCTIONS, ExperimentRecord, render_csv, run_projection, run_random
from .inverse import inverse_matrix
from .solvers import METHODS, UnknownMethodError, canonical_method
from .spectral import build_q, eigenvalues

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernmass",
        description="Bernstein mass-matrix experiments and matrix dumps (CSV output).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    project = sub.add_parser("project", help="projection experiment for a test function")
    project.add_argument("--func", choices=sorted(FUNCTIONS), required=True)
    project.add_argument("--max-degree", type=int, default=20)
    project.add_argument("--methods", default=",".join(METHODS),
                         help="comma list from {%s}" % ",".join(METHODS))
    project.add_argument("--out", default=None, help="output file (default stdout)")

    random_cmd = sub.add_parser("random", help="random-system experiment")
    random_cmd.add_argument("--max-degree", type=int, default=20)
    random_cmd.add_argument("--seed", type=int, default=42)
    random_cmd.add_argument("--out", default=None, help="output file (default stdout)")

    conditioning = sub.add_parser("conditioning", help="condition-number table")
    conditioning.add_argument("--max-degree", type=int, default=20)
    conditioning.add_argument("--out", default=None, help="output file (default stdout)")

    matrix = sub.add_parser("matrix", help="dump a matrix or spectrum as raw CSV rows")
    matrix.add_argument("--n", type=int, required=True)
    matrix.add_argument("--what", choices=("mass", "inverse", "q", "eigenvalues"),
                        required=True)
    matrix.add_argument("--out", default=None, help="output file (default stdout)")

    return parser


def _emit(text: str, out) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _matrix_text(n: int, what: str) -> str:
    if what == "mass":
        rows = mass_matrix(n).matrix
    elif what == "inverse":
        rows = inverse_matrix(n)
    elif what == "q":
        rows = build_q(n).q
    else:
        rows = eigenvalues(n).reshape(-1, 1)
    lines = [",".join("%.17g" % v for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _dispatch(args) -> int:
    if args.command == "project":
        methods = [canonical_method(m.strip()) for m in args.methods.split(",") if m.strip()]
        if not methods:
            raise UnknownMethodError("--methods needs at least one method")
        records = run_projection(args.func, args.max_degree, methods)
        _emit(render_csv(records), args.out)
    elif args.command == "random":
        records = run_random(args.max_degree, args.seed)
        _emit(render_csv(records), args.out)
    elif args.command == "conditioning":
        _supported(args.max_degree)
        records = [
            ExperimentRecord(n, {"kappa2": kappa_2(n), "kappam2": kappa_m_to_2(n)})
            for n in range(args.max_degree + 1)
        ]
        _emit(render_csv(records), args.out)
    else:
        _emit(_matrix_text(args.n, args.what), args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    for option in ("max_degree", "n"):  # each subcommand has at most one of them
        if getattr(args, option, 0) < 0:
            print(f"bernmass: --{option.replace('_', '-')} must be nonnegative", file=sys.stderr)
            return 2
    try:
        return _dispatch(args)
    except UnknownMethodError as exc:
        print(f"bernmass: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bernmass: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
