"""Command-line surface.

Subcommands cover each pipeline stage plus the end-to-end run:

  classify      class membership / J-symmetry / Gram-condition checks
  canonicalize  tridiagonal canonical form from (A, x0, J)
  moments       spectral moments of a class matrix
  solve         atomic measure from prescribed moments
  similarity    full construction with verification
  verify        residuals of a measure against prescribed moments
  gen           reproducible random class matrices

Exit codes: 0 pass, 1 verification failure, 2 malformed input,
3 precondition violation, 4 internal-invariant failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .core import (
    DEFAULT_TOL,
    ConjugationMap,
    ConsistencyError,
    InputError,
    PreconditionError,
    TridiagonalSymmetric,
    cmatrix_to_json,
    complex_to_json,
    random_class_matrix,
)
from .classify import (
    _is_class_tridiagonal,
    canonicalize,
    gram_condition_check,
    is_class_matrix,
    verify_j_symmetric,
)
from .moments import MASS_DELTA, RADIUS_GROWTH, RadiusSchedule, algorithm1, solve_rho1
from .moments import spectral_moments, verify_measure
from .similarity import ORTHONORMALITY_TOL, build_transform, verify_similarity

EXIT_PASS = 0
EXIT_VERIFICATION = 1
EXIT_MALFORMED = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _schedule(args) -> RadiusSchedule:
    return RadiusSchedule(gamma=args.gamma, delta=args.delta)


def _load_operator(args) -> tuple[dict, str, object]:
    obj = io.load_json(args.input)
    kind, op = io.operator_from_json(obj)
    return obj, kind, op


def _require_class(op, kind: str) -> TridiagonalSymmetric:
    if kind == "tridiagonal":
        ok, reason = _is_class_tridiagonal(op)
        tri = op
    else:
        ok, tri, reason = is_class_matrix(op)
    if not ok:
        raise PreconditionError(reason)
    return tri


def cmd_classify(args) -> int:
    obj, kind, op = _load_operator(args)
    dense = op.dense() if kind == "tridiagonal" else op
    ok, tri, reason = is_class_matrix(dense, args.tol)
    report: dict = {"class_matrix": ok, "reason": reason}
    if tri is not None:
        report["extracted"] = io.operator_to_json(tri)

    conj = io.conjugation_from_json(obj)
    x0 = io.vector_from_json(obj, "x0")
    all_ok = ok
    if conj is not None:
        res = verify_j_symmetric(dense, conj, args.tol)
        scale = max(1.0, float(np.max(np.abs(dense))))
        j_ok = res <= args.tol * scale
        report["j_symmetric"] = j_ok
        report["j_symmetry_residual"] = res
        all_ok = j_ok and (all_ok or x0 is not None)
        if x0 is not None:
            gr = gram_condition_check(dense, x0, conj, args.tol)
            report["gram_condition"] = gr.passed
            report["gram_determinants"] = [
                {"n": n, "gamma": complex_to_json(g)} for n, g in gr.values
            ]
            # with (J, x0) supplied the verdict is the two-sided criterion,
            # not the basis-dependent tridiagonal test
            all_ok = j_ok and gr.passed
    io.dump_json(report, args.output)
    return EXIT_PASS if all_ok else EXIT_VERIFICATION


def cmd_canonicalize(args) -> int:
    obj, kind, op = _load_operator(args)
    dense = op.dense() if kind == "tridiagonal" else op
    conj = io.conjugation_from_json(obj)
    if conj is None:
        conj = ConjugationMap.standard(dense.shape[0])
    x0 = io.vector_from_json(obj, "x0")
    if x0 is None:
        raise InputError("canonicalize needs an 'x0' vector in the input file")
    form = canonicalize(dense, x0, conj, args.tol)
    io.dump_json(
        {
            "basis": cmatrix_to_json(form.basis),
            "matrix": io.operator_to_json(form.matrix),
            "phases": list(form.phases),
        },
        args.output,
    )
    return EXIT_PASS


def cmd_moments(args) -> int:
    _, kind, op = _load_operator(args)
    tri = _require_class(op, kind)
    rho = args.rho if args.rho is not None else 2 * tri.dim + 1
    if args.rho is not None and args.rho <= 2 * tri.dim:
        raise InputError(f"rho must exceed 2d = {2 * tri.dim}")
    seq = spectral_moments(tri, rho)
    io.dump_json(io.moments_to_json(seq), args.output)
    return EXIT_PASS


def cmd_solve(args) -> int:
    seq = io.moments_from_json(io.load_json(args.input))
    if seq.rho == 1:
        mu = solve_rho1(seq.s0, complex(seq.values[1]))
    else:
        mu = algorithm1(seq, _schedule(args))
    residuals = verify_measure(mu, seq)
    io.dump_json(io.measure_to_json(mu), args.output)
    if args.output is not None:
        io.measure_to_csv(mu, args.output + ".csv")
    io.dump_json(
        {"residuals": residuals.tolist(), "max_residual": float(residuals.max())},
        None,
    )
    return EXIT_PASS if residuals.max() <= args.tol else EXIT_VERIFICATION


def cmd_similarity(args) -> int:
    _, kind, op = _load_operator(args)
    tri = _require_class(op, kind)
    data = build_transform(tri, rho=args.rho, schedule=_schedule(args))
    report = verify_similarity(tri, data, args.tol)
    out = {
        "measure": io.measure_to_json(data.measure),
        "polynomials": [
            row[: n + 1] for n, row in enumerate(cmatrix_to_json(data.polys.coeffs))
        ],
        "rank_one_scale": complex_to_json(data.rank_one_scale),
        "node_matrix_sigma_min": report.sigma_min,
        "orthonormality_residual": report.orthonormality,
        "residuals": report.residuals.tolist(),
        "max_residual": report.max_residual,
        "passed": report.passed,
    }
    io.dump_json(out, args.output)
    return EXIT_PASS if report.passed else EXIT_VERIFICATION


def cmd_verify(args) -> int:
    obj = io.load_json(args.input)
    if "measure" not in obj or "moments" not in obj:
        raise InputError("verify input must contain 'measure' and 'moments' objects")
    mu = io.measure_from_json(obj["measure"])
    seq = io.moments_from_json(obj["moments"])
    residuals = verify_measure(mu, seq)
    io.dump_json(
        {"residuals": residuals.tolist(), "max_residual": float(residuals.max())},
        args.output,
    )
    return EXIT_PASS if residuals.max() <= args.tol else EXIT_VERIFICATION


def cmd_gen(args) -> int:
    if args.seed is None:
        raise InputError("gen needs --seed")
    tri = random_class_matrix(args.seed, args.d)
    io.dump_json(io.operator_to_json(tri), args.output)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisim",
        description="Tridiagonal complex symmetric operators: moment problems "
        "and the similarity to rank-one perturbations of restrictions of "
        "normal operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "input": dict(help="input JSON file"),
        "output": dict(help="output JSON file (stdout if omitted)"),
        "tol": dict(type=float, default=DEFAULT_TOL),
        "rho": dict(type=int),
        "gamma": dict(type=float, default=RADIUS_GROWTH),
        "delta": dict(type=float, default=MASS_DELTA),
        "seed": dict(type=int),
        "d": dict(type=int, default=2),
    }
    # each command takes only the flags it reads
    commands = {
        "classify": (cmd_classify, "input output tol"),
        "canonicalize": (cmd_canonicalize, "input output tol"),
        "moments": (cmd_moments, "input output rho"),
        "solve": (cmd_solve, "input output tol gamma delta"),
        "similarity": (cmd_similarity, "input output tol rho gamma delta"),
        "verify": (cmd_verify, "input output tol"),
        "gen": (cmd_gen, "output seed d"),
    }
    for name, (fn, names) in commands.items():
        # no prefix matching, so that "--d" cannot stand for "--delta"
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in names.split():
            p.add_argument("--" + flag, **flags[flag])
        p.set_defaults(handler=fn)
    sub.choices["similarity"].set_defaults(tol=ORTHONORMALITY_TOL)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "gen" and args.input is None:
        print("error: --input is required", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        # an overflow no check of its own catches exits 3, not inf or nan
        with np.errstate(over="raise", invalid="raise"):
            return args.handler(args)
    except FloatingPointError as e:
        print(f"precondition violated: float64 range exhausted ({e})", file=sys.stderr)
        return EXIT_PRECONDITION
    except PreconditionError as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MALFORMED
    except ConsistencyError as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
