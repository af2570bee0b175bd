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

``main(argv)`` returns the exit code and may be called any number of times
in one process.  Help and argparse's errors, such as a missing required
flag, leave it through ``SystemExit`` (code 0 for help, 2 for an error);
every other outcome is returned.  A call that names a command builds one
argument parser, that command's, and reads the terminal width once; the
``trisim`` parser is built only for help, an unknown command and leftover
arguments.  Building one parser in place of two saves about 0.2 ms a call,
which counts for in-process callers.  A console run dwarfs it: on a shared
2-vCPU VM a d = 16 run takes about 148 ms, of which bare Python is 44 ms
and numpy's import 65-70 ms.  With ``PYTHONDONTWRITEBYTECODE=1`` set,
trisim is compiled again on every run.
"""

from __future__ import annotations

import argparse
import functools
import shutil
import sys

import numpy as np

from . import io
from .core import (
    DEFAULT_TOL,
    ConsistencyError,
    InputError,
    PreconditionError,
    TridiagonalSymmetric,
    as_complex_matrix,
    random_class_matrix,
)
from .classify import (
    canonicalize,
    gram_condition_check,
    is_class_matrix,
    j_residual,
    verify_j_symmetric,
)
from .moments import MASS_DELTA, RADIUS_RATIO, RadiusSchedule, algorithm1
from .moments import moment_order, require_normal_moments, spectral_moments, verify_measure
from .similarity import ORTHONORMALITY_TOL, build_transform, verify_similarity

EXIT_PASS = 0
EXIT_VERIFICATION = 1
EXIT_MALFORMED = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _tol(text: str) -> float:
    tol = float(text)
    if not 0 <= tol < np.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return tol


def _schedule(args) -> RadiusSchedule:
    return RadiusSchedule(gamma=args.gamma, delta=args.delta)


def _load_operator(args) -> tuple:
    """(A, J, x0) of the operator document ``--input`` names."""
    return io.operator_document(io.load_json(args.input))


def _require_class(op, tol: float) -> TridiagonalSymmetric:
    ok, tri, reason = is_class_matrix(op, tol)
    if not ok:
        raise PreconditionError(reason)
    return tri


def _residual_report(residuals: np.ndarray, output: str | None, tol: float) -> int:
    """Write the moment residuals and their max; pass when the max is within tol."""
    io.dump_json({"residuals": residuals.tolist(), "max_residual": float(residuals.max())}, output)
    return EXIT_PASS if residuals.max() <= tol else EXIT_VERIFICATION


def cmd_classify(args) -> int:
    op, conj, x0 = _load_operator(args)
    ok, tri, reason = is_class_matrix(op, args.tol)
    report: dict = {"class_matrix": ok, "reason": reason}
    if tri is not None:
        report["extracted"] = io.operator_to_json(tri)

    passed = ok
    if conj is not None:
        a = as_complex_matrix(op, "A")
        if x0 is None:
            res = verify_j_symmetric(a, conj, args.tol)
        else:
            # the Gram check checks J first, so J is checked once per run
            gr = gram_condition_check(a, x0, conj, args.tol)
            report["gram_condition"] = gr.passed
            report["gram_determinants"] = [
                {"n": n, "gamma": io.complex_to_json(g)} for n, g in enumerate(gr.gammas, 1)
            ]
            res = j_residual(a, conj)
        j_ok = res <= args.tol
        report["j_symmetric"] = j_ok
        report["j_symmetry_residual"] = res
        # with x0 given, and J from C or C = I, the verdict is the
        # two-sided criterion, not the basis-dependent tridiagonal test
        passed = j_ok and (ok if x0 is None else gr.passed)
    io.dump_json(report, args.output)
    return EXIT_PASS if passed else EXIT_VERIFICATION


def cmd_canonicalize(args) -> int:
    op, conj, x0 = _load_operator(args)
    if x0 is None:
        raise InputError("canonicalize needs an 'x0' vector in the input file")
    form = canonicalize(op, x0, conj, args.tol)
    io.dump_json(
        {
            "basis": io.cvector_to_json(form.basis),
            "matrix": io.operator_to_json(form.matrix),
            "phases": form.phases.tolist(),
        },
        args.output,
    )
    return EXIT_PASS


def cmd_moments(args) -> int:
    op, _, _ = _load_operator(args)  # J and x0 are read, so a malformed one exits 2, and unused
    tri = _require_class(op, DEFAULT_TOL)  # moments has no --tol
    seq = spectral_moments(tri, moment_order(tri.dim, args.rho))
    require_normal_moments(tri, seq.rho)  # an underflowed s_k would print as 0
    io.dump_json(io.moments_to_json(seq), args.output)
    return EXIT_PASS


def cmd_solve(args) -> int:
    seq = io.moments_from_json(io.load_json(args.input))
    mu = algorithm1(seq, _schedule(args))
    residuals = verify_measure(mu, seq)
    io.dump_json(io.measure_to_json(mu), args.output)
    if args.output is not None:
        io.measure_to_csv(mu, args.output + ".csv")
    return _residual_report(residuals, None, args.tol)


def cmd_similarity(args) -> int:
    op, _, _ = _load_operator(args)  # J and x0 are read, so a malformed one exits 2, and unused
    tri = _require_class(op, args.tol)
    data = build_transform(tri, rho=args.rho, schedule=_schedule(args))
    report = verify_similarity(tri, data, args.tol)
    failures = report.failures
    out = {
        "measure": io.measure_to_json(data.measure),
        "recurrence": io.operator_to_json(data.polys.ext),
        "node_matrix_sigma_min": report.sigma_min,
        "orthonormality_residual": report.orthonormality,
        "residuals": report.residuals.tolist(),
        "max_residual": report.max_residual,
        "passed": not failures,
    }
    io.dump_json(out, args.output)
    if failures:
        print("verification failed: " + "; ".join(failures), file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_PASS


def cmd_verify(args) -> int:
    obj = io.load_json(args.input)
    if "measure" not in obj or "moments" not in obj:
        raise InputError("verify input must contain 'measure' and 'moments' objects")
    mu = io.measure_from_json(obj["measure"])
    seq = io.moments_from_json(obj["moments"])
    return _residual_report(verify_measure(mu, seq), args.output, args.tol)


def cmd_gen(args) -> int:
    tri = random_class_matrix(args.seed, args.d)
    io.dump_json(io.operator_to_json(tri), args.output)
    return EXIT_PASS


def parse_args(argv=None) -> argparse.Namespace:
    """The Namespace of one call.  A call whose first argument is a command
    builds one parser, that command's, with only its flags; the ``trisim``
    parser is built only to print help, to reject an unknown command or an
    option before the command, and to report leftover arguments.  Help texts,
    error messages and exit codes are those of argparse's own sub-parsers.
    The terminal width is read once per call, as argparse's help formatter
    reads it, so help wraps as it would there."""
    argv = sys.argv[1:] if argv is None else argv
    # each command takes only the flags it reads; tol is the default of --tol
    commands = {
        "classify": (cmd_classify, "input output tol", DEFAULT_TOL),
        "canonicalize": (cmd_canonicalize, "input output tol", DEFAULT_TOL),
        "moments": (cmd_moments, "input output rho", None),
        "solve": (cmd_solve, "input output tol gamma delta", DEFAULT_TOL),
        "similarity": (cmd_similarity, "input output tol rho gamma delta", ORTHONORMALITY_TOL),
        "verify": (cmd_verify, "input output tol", DEFAULT_TOL),
        "gen": (cmd_gen, "output seed d", None),
    }
    # the width HelpFormatter gives itself; without it, every formatter that
    # add_argument makes to check a flag queries the terminal again
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)

    def trisim_parser() -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(
            prog="trisim",
            description="Tridiagonal complex symmetric operators: moment problems "
            "and the similarity to rank-one perturbations of restrictions of "
            "normal operators.",
            formatter_class=formatter,
        )
        # PARSER is the nargs of argparse's sub-parser action: the command and
        # every argument after it
        parser.add_argument("command", choices=commands, nargs=argparse.PARSER)
        return parser

    parser, unknown = None, []
    if argv and argv[0] in commands:
        # the trisim parser would hand this command every argument after it
        command, *rest = argv
    else:
        parser = trisim_parser()
        args, unknown = parser.parse_known_args(argv)
        command, *rest = args.command
    handler, names, tol = commands[command]
    flags = {
        "input": dict(required=True, help="input JSON file"),
        "output": dict(help="output JSON file (stdout if omitted)"),
        "tol": dict(type=_tol, default=tol),
        "rho": dict(type=int),
        "gamma": dict(type=float, default=RADIUS_RATIO),
        "delta": dict(type=float, default=MASS_DELTA),
        "seed": dict(type=int, required=True),
        "d": dict(type=int, default=2),
    }
    # no prefix matching, so that "--d" cannot stand for "--delta"
    sub = argparse.ArgumentParser(prog=f"trisim {command}", allow_abbrev=False, formatter_class=formatter)
    for flag in names.split():
        sub.add_argument("--" + flag, **flags[flag])
    args, more = sub.parse_known_args(rest, argparse.Namespace(command=command, handler=handler))
    if unknown or more:  # argparse reports a sub-parser's leftovers at the top
        (parser or trisim_parser()).error(f"unrecognized arguments: {' '.join(unknown + more)}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
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
