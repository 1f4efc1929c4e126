"""Batch command-line front end.

Exit codes: 0 for success (or a passing verdict), 2 for input errors and
numerical ambiguities, 3 for a verified negative (uncovered family, failing
verdict).  Output is deterministic: floats in CSV and tables use 17
significant digits, JSON keys are sorted, row order is fixed by the inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .circle_dirac import (
    C_TOL,
    I_TOL,
    R_TOL,
    U_TOL,
    HolonomySpec,
    SpinStructure,
    analytic_spectrum,
    kernel_dim,
    truncation_spectrum,
)
from .cohomology import AlgebraContext, format_class, obstruction_product
from .errors import DiracObstructionError, ValidationError
from .fredholm import AMBIGUITY_DECADE, B_TOL, H_TOL, INV_TOL, PathSpec, SampledFamily, _load_json, build_cover, spectral_flow
from .obstruction import TorusGridSpec, verify_contrapositive

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_NEGATIVE = 3


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite: {text}")
    return value


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _holonomy_from_args(args: argparse.Namespace) -> HolonomySpec:
    if (args.holonomy is None) == (args.angles is None):
        raise ValidationError("give exactly one of a holonomy file and --angles")
    if args.angles is not None:
        tokens = [t.strip() for t in args.angles.split(",") if t.strip()]
        if not tokens:
            raise ValidationError("--angles must list at least one angle")
        return HolonomySpec.from_angles(tokens)
    return HolonomySpec.from_json(_load_json(args.holonomy, "JSON"))


def _parse_epsilons(text: str) -> list[float]:
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValidationError(f"malformed radius list {text!r}; expected comma-separated numbers")
    if not values:
        raise ValidationError("--epsilons must list at least one radius")
    return values


def _cmd_spectrum(args: argparse.Namespace) -> int:
    holonomy = _holonomy_from_args(args)
    spin = SpinStructure.parse(args.delta)
    tols = {"u_tol": args.u_tol, "r_tol": args.r_tol, "c_tol": args.c_tol}
    if args.truncation is None:
        window = analytic_spectrum(holonomy, spin, args.epsilon, **tols)
    else:
        window = truncation_spectrum(holonomy, spin, args.truncation, args.epsilon, **tols)
    _emit(window.to_csv(), args.output)
    return EXIT_OK


def _cmd_kernel_dim(args: argparse.Namespace) -> int:
    holonomy = _holonomy_from_args(args)
    spin = SpinStructure.parse(args.delta)
    dim = kernel_dim(holonomy, spin, u_tol=args.u_tol, r_tol=args.r_tol, i_tol=args.i_tol)
    _emit(f"{dim}\n", args.output)
    return EXIT_OK


def _cmd_cohomology(args: argparse.Namespace) -> int:
    try:
        indices = [int(t) for t in args.indices.split(",") if t.strip()]
    except ValueError:
        raise ValidationError(f"malformed index list {args.indices!r}; expected comma-separated integers")
    ctx = AlgebraContext(args.k)
    product = obstruction_product(ctx, indices)
    _emit(
        _dump_json(
            {
                "k": args.k,
                "indices": indices,
                "class": format_class(product),
                "nonzero": not product.is_zero(),
            }
        ),
        args.output,
    )
    return EXIT_OK


def _cmd_cover(args: argparse.Namespace) -> int:
    fam = SampledFamily.load(args.family, h_tol=args.h_tol)
    report = build_cover(fam, args.k, args.epsilon, inv_tol=args.inv_tol)
    doc = report.to_json()
    doc["tolerances"] = {"inv_tol": args.inv_tol, "h_tol": args.h_tol}
    _emit(_dump_json(doc), args.output)
    if report.covered:
        return EXIT_OK
    if report.indeterminate:
        # a negative tainted by borderline invertibility is not a certificate
        print(
            f"error: {len(report.indeterminate)} borderline invertibility decision(s); "
            "perturb epsilon or inv-tol",
            file=sys.stderr,
        )
        return EXIT_ERROR
    return EXIT_NEGATIVE


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = TorusGridSpec(
        k=args.k,
        resolution=args.resolution,
        spin=SpinStructure.parse(args.delta),
        truncation=args.truncation,
        diagonal_only=not args.conjugated,
    )
    verdict = verify_contrapositive(
        spec,
        _parse_epsilons(args.epsilons),
        bounded=args.bounded,
        cover_check=not args.skip_cover,
        b_tol=args.b_tol,
        inv_tol=args.inv_tol,
        i_tol=args.i_tol,
    )
    doc = verdict.to_json()
    doc["tolerances"] = {"b_tol": args.b_tol, "inv_tol": args.inv_tol, "i_tol": args.i_tol}
    sys.stdout.write(verdict.summary_table())
    _emit(_dump_json(doc), args.output)
    if not verdict.passed:
        return EXIT_NEGATIVE
    failed = [r for r in verdict.reports if r.cover_ok is False]
    if failed:
        # counts pass but the pigeonhole cover failed: numerically inconsistent, unless
        # one eigenvalue's ambiguity band, 10*inv_tol either side, reaches two shift levels
        message = "error: cover cross-check failed despite passing counts"
        for r in failed:
            spacing = r.effective_epsilon / (r.max_count + 1)
            if spacing <= 2 * AMBIGUITY_DECADE * args.inv_tol:
                message += (
                    f"; at epsilon {r.epsilon} the shift-level spacing {spacing} is at most "
                    f"20*inv_tol (inv_tol = {args.inv_tol}), so one eigenvalue can block two levels"
                )
                break
        print(message, file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _cmd_flow(args: argparse.Namespace) -> int:
    fam = SampledFamily.load(args.family, h_tol=args.h_tol)
    ids = tuple(t.strip() for t in args.path.split(",") if t.strip())
    path = PathSpec(ids, closed=args.closed)
    flow = spectral_flow(fam, path, args.eta)
    _emit(f"{flow}\n", args.output)
    return EXIT_OK


def _add_holonomy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("holonomy", nargs="?", default=None, help="holonomy JSON file")
    p.add_argument("--angles", default=None, help="comma-separated angles (floats or p/q) instead of a file")
    p.add_argument("--delta", default="1/2", help="spin phase exponent, 0 or 1/2 (default 1/2)")


def _tol_arg(p: argparse.ArgumentParser, flag: str, default: float, doc: str) -> None:
    p.add_argument(flag, type=_positive_float, default=default, help=f"{doc} (default {default:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-obstruction",
        description="Spectral-count obstruction toolkit for twisted Dirac families on the circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="window eigenvalues of a twisted Dirac operator as CSV")
    _add_holonomy_args(p)
    p.add_argument("--epsilon", type=_positive_float, required=True, help="window radius")
    p.add_argument("--truncation", type=int, default=None, help="use the mode-truncated matrix with |n| <= N")
    _tol_arg(p, "--u-tol", U_TOL, "unitarity tolerance")
    _tol_arg(p, "--r-tol", R_TOL, "eigenpair residual tolerance")
    _tol_arg(p, "--c-tol", C_TOL, "multiplicity clustering tolerance")
    p.add_argument("--output", default=None, help="write CSV here instead of stdout")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("kernel-dim", help="dimension of the zero-mode space")
    _add_holonomy_args(p)
    _tol_arg(p, "--u-tol", U_TOL, "unitarity tolerance")
    _tol_arg(p, "--r-tol", R_TOL, "eigenpair residual tolerance")
    _tol_arg(p, "--i-tol", I_TOL, "integrality tolerance")
    p.add_argument("--output", default=None, help="write the integer here instead of stdout")
    p.set_defaults(handler=_cmd_kernel_dim)

    p = sub.add_parser("cohomology", help="product of odd generator classes, canonical text + nonzero flag")
    p.add_argument("--k", type=int, required=True, help="number of generators")
    p.add_argument("--indices", required=True, help="comma-separated generator indices, strictly ascending")
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")
    p.set_defaults(handler=_cmd_cohomology)

    p = sub.add_parser("cover", help="shifted-invertibility cover of a sampled family")
    p.add_argument("family", help="family JSON file")
    p.add_argument("--k", type=int, required=True, help="window count bound; uses k+1 shift levels")
    p.add_argument("--epsilon", type=_positive_float, required=True, help="window radius")
    _tol_arg(p, "--inv-tol", INV_TOL, "invertibility threshold")
    _tol_arg(p, "--h-tol", H_TOL, "Hermitian deviation tolerance")
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")
    p.set_defaults(handler=_cmd_cover)

    p = sub.add_parser("verify", help="end-to-end grid verdict: cohomology product vs window counts")
    p.add_argument("--k", type=int, required=True, help="holonomy rank")
    p.add_argument("--resolution", type=int, required=True, help="grid points per angle circle")
    p.add_argument("--delta", default="1/2", help="spin phase exponent, 0 or 1/2 (default 1/2)")
    p.add_argument("--truncation", type=int, default=4, help="Fourier truncation order N (default 4)")
    p.add_argument("--epsilons", required=True, help="comma-separated window radii")
    p.add_argument("--bounded", action="store_true", help="apply the bounded transform and map radii through it")
    p.add_argument("--conjugated", action="store_true", help="sample conjugated holonomies instead of diagonal ones")
    p.add_argument("--skip-cover", action="store_true", help="skip the cover cross-check")
    _tol_arg(p, "--b-tol", B_TOL, "window boundary guard")
    _tol_arg(p, "--inv-tol", INV_TOL, "invertibility threshold")
    _tol_arg(p, "--i-tol", I_TOL, "integrality tolerance")
    p.add_argument("--output", default=None, help="write the verdict JSON here instead of stdout")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("flow", help="spectral flow along a path through a family file")
    p.add_argument("family", help="family JSON file")
    p.add_argument("--path", required=True, help="comma-separated point ids")
    p.add_argument("--closed", action="store_true", help="append the wrap-around step")
    p.add_argument("--eta", type=_positive_float, required=True, help="step fineness / endpoint gap guard")
    _tol_arg(p, "--h-tol", H_TOL, "Hermitian deviation tolerance")
    p.add_argument("--output", default=None, help="write the integer here instead of stdout")
    p.set_defaults(handler=_cmd_flow)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DiracObstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
