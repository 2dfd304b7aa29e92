"""Command-line front end.

Subcommands: moments, bound, interval, extremal, verify.  Every command
prints a JSON report (floats in shortest round-trip form, lossless at 17
significant digits) to stdout and diagnostics to stderr.

Exit codes:

    0  success
    1  ``verify`` only: the verification failed, an uncertified oracle
       optimum included
    2  usage or parse error (an oversized grid, numbers too large for
       double precision and input nested too deeply included)
    3  mathematical infeasibility (not a moment sequence / infeasible
       configuration)
    4  internal error: an unexpected exception, reported in one line

Only ``verify`` imports the oracle, and with it numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict
from typing import Any, Optional

from . import __version__
from .bounds import (
    BoundResult,
    bound_quarter,
    bound_sqrt,
    bound_trivial,
    certificate_from_hankel,
    extremal_from_sigma,
    m3_interval,
    mean_nonpositive,
    quarter_bound,
)
from .moments import (
    CertificateError,
    DiscreteDistribution,
    InfeasibleMomentsError,
    MomentVector,
    abs_third_moment,
    feasibility,
    moments_from_discrete,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4

#: Acceptable gap between the oracle maximum and the sharp bound in `verify`.
DEFAULT_GAP_TOL = 5e-3


def parse_distribution_file(path: str) -> DiscreteDistribution:
    """Strictly parse a JSON distribution file: {"atoms": [{"x": .., "p": ..}]}."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError:
        raise ValueError(f"invalid JSON in {path}: nested too deeply") from None
    if not isinstance(doc, dict) or set(doc) != {"atoms"}:
        raise ValueError('distribution file must be an object with the single key "atoms"')
    atoms = doc["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise ValueError('"atoms" must be a nonempty list')
    pairs = []
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict) or set(atom) != {"x", "p"}:
            raise ValueError(f'atom {i} must be an object with exactly the keys "x" and "p"')
        x, p = atom["x"], atom["p"]
        if not isinstance(x, (int, float)) or not isinstance(p, (int, float)):
            raise ValueError(f"atom {i}: x and p must be numbers")
        pairs.append((float(x), float(p)))
    return DiscreteDistribution.from_pairs(pairs)


def _atoms_json(dist: DiscreteDistribution) -> list[dict[str, float]]:
    return [{"x": x, "p": p} for x, p in dist.atoms]


def _moments_json(mv: MomentVector) -> dict[str, float]:
    return {"m0": mv.m0, "m1": mv.m1, "m2": mv.m2, "m3": mv.m3, "m4": mv.m4}


def _bound_json(result: BoundResult) -> dict[str, Any]:
    out: dict[str, Any] = {
        "bound": result.bound,
        "slack": result.slack,
        "scaled_slack": result.scaled_slack,
        "tight": result.tight,
    }
    if result.witness is not None:
        out["witness"] = _atoms_json(result.witness)
    return out


def _base_report(command: str, input_echo: Any) -> dict[str, Any]:
    return {"tool": "momentbounds", "version": __version__, "command": command, "input": input_echo}


def _load_moment_vector(args: argparse.Namespace) -> tuple[MomentVector, Any]:
    if args.moments is not None:
        mv = MomentVector(*args.moments)
        return mv, {"moments": list(args.moments)}
    dist = parse_distribution_file(args.file)
    return moments_from_discrete(dist), {"file": args.file, "atoms": _atoms_json(dist)}


def _dumps(report: dict[str, Any]) -> str:
    """The report as strict JSON: a value beyond double range is an
    overflow, not "Infinity"."""
    try:
        return json.dumps(report, indent=2, allow_nan=False)
    except ValueError:
        raise OverflowError("a reported value is not finite") from None


def cmd_moments(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    if args.samples is not None:
        # the empirical law, as ``moments_from_samples`` builds it
        dist = DiscreteDistribution.from_pairs((x, 1.0 / len(args.samples)) for x in args.samples)
        echo: Any = {"samples": list(args.samples)}
    else:
        dist = parse_distribution_file(args.file)
        echo = {"file": args.file, "atoms": _atoms_json(dist)}
    mv = moments_from_discrete(dist)
    report = _base_report("moments", echo)
    report.update(
        {
            "moments": _moments_json(mv),
            "abs_third_moment": abs_third_moment(dist),
            "feasibility": asdict(feasibility(mv)),
        }
    )
    return report, EXIT_OK


def cmd_bound(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    mv, echo = _load_moment_vector(args)
    rep = feasibility(mv)
    if not rep.psd:
        raise InfeasibleMomentsError("not a moment sequence")
    report = _base_report("bound", echo)
    report["moments"] = _moments_json(mv)
    report["tolerance"] = args.tol
    report["feasibility"] = asdict(rep)
    iv = m3_interval(mv.m1, mv.m2, mv.m4)
    report["interval"] = {"lo": iv.lo, "hi": iv.hi}
    report["bounds"] = {"trivial": {"bound": bound_trivial(mv)}}
    if not mean_nonpositive(mv):
        report["note"] = "sharp bounds require m1 <= 0; reporting the interval instead"
        return report, EXIT_OK
    report["bounds"]["sqrt"] = _bound_json(bound_sqrt(mv, tol=args.tol))
    report["bounds"]["quarter"] = _bound_json(bound_quarter(mv, tol=args.tol))
    try:
        cert = certificate_from_hankel(mv, tol=args.tol)
    except InfeasibleMomentsError:
        pass
    else:
        report["certificate"] = {
            "coeffs": list(cert.coeffs),
            "roots": list(cert.roots),
            "recovered": _atoms_json(cert.recovered),
        }
    return report, EXIT_OK


def cmd_interval(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    iv = m3_interval(args.m1, args.m2, args.m4)
    report = _base_report("interval", {"m1": args.m1, "m2": args.m2, "m4": args.m4})
    report["interval"] = {"lo": iv.lo, "hi": iv.hi}
    return report, EXIT_OK


def cmd_extremal(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    dist = extremal_from_sigma(args.sigma)
    (neg_u, _), (v, _) = dist.atoms
    mv = moments_from_discrete(dist)
    report = _base_report("extremal", {"sigma": args.sigma})
    report.update(
        {
            "u": -neg_u,
            "v": v,
            "atoms": _atoms_json(dist),
            "moments": _moments_json(mv),
            "quarter_bound": quarter_bound(mv.m4),
        }
    )
    return report, EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    from .oracle import OracleConfig, oracle_max_m3, random_falsifier

    if args.trials <= 0:
        raise ValueError("trials must be positive")
    cfg = OracleConfig(
        grid_lo=args.grid_lo,
        grid_hi=args.grid_hi,
        grid_step=args.step,
        m4_target=args.m4,
    )
    oracle = oracle_max_m3(cfg)
    sharp = quarter_bound(args.m4)
    gap = sharp - oracle.max_m3
    falsifier = random_falsifier(args.trials, args.seed)
    report = _base_report(
        "verify",
        {
            "grid_lo": args.grid_lo,
            "grid_hi": args.grid_hi,
            "step": args.step,
            "m4": args.m4,
            "trials": args.trials,
            "seed": args.seed,
        },
    )
    report.update(
        {
            "sharp_bound": sharp,
            "oracle_max_m3": oracle.max_m3,
            "gap": gap,
            "gap_tolerance": args.gap_tol,
            "oracle_argmax": _atoms_json(oracle.argmax),
            "candidates_examined": oracle.candidates_examined,
            "constraint_residuals": list(oracle.constraint_residuals),
            "oracle_dual": list(oracle.dual),
            "lp_pivots": oracle.pivots,
            "falsifier": {
                "trials": falsifier.trials,
                "eq_sqrt_violations": falsifier.eq_sqrt_violations,
                "eq_quarter_violations": falsifier.eq_quarter_violations,
                "interval_violations": falsifier.interval_violations,
                "psd_violations": falsifier.psd_violations,
                "worst_scaled_slack": falsifier.worst_scaled_slack,
                "worst_trial": falsifier.worst_trial,
                "violating_trials": list(falsifier.violating_trials),
            },
        }
    )
    ok = falsifier.total_violations == 0 and abs(gap) <= args.gap_tol
    report["verified"] = ok
    return report, EXIT_OK if ok else EXIT_VERIFY_FAILED


def positive_float(text: str) -> float:
    """An argparse type: a finite float above 0."""
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


#: A negative number, exponent form included: argparse alone reads
#: "-1e-05" as an option flag.
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentbounds",
        description="Sharp bounds on the third moment from the first four moments.",
    )
    parser.add_argument("--version", action="version", version=f"momentbounds {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("moments", help="moments and feasibility of a distribution")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("file", nargs="?", help="JSON distribution file")
    source.add_argument("--samples", type=float, nargs="+", help="raw samples instead of a file")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("bound", help="evaluate the third-moment bounds")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("file", nargs="?", help="JSON distribution file")
    source.add_argument(
        "--moments",
        type=float,
        nargs=5,
        metavar=("M0", "M1", "M2", "M3", "M4"),
        help="moment vector instead of a file",
    )
    p.add_argument(
        "--tol", type=positive_float, default=1e-8, help="tightness tolerance on the standardized slack (default 1e-8)"
    )
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("interval", help="exact m3 range from (m1, m2, m4)")
    p.add_argument("m1", type=float)
    p.add_argument("m2", type=float)
    p.add_argument("m4", type=float)
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("extremal", help="equality-case two-point distribution")
    p.add_argument("sigma", type=float)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("verify", help="LP-certified sharpness and randomized soundness check")
    p.add_argument("--grid-lo", type=float, default=-3.0)
    p.add_argument("--grid-hi", type=float, default=3.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--m4", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--gap-tol", type=positive_float, default=DEFAULT_GAP_TOL)
    p.set_defaults(func=cmd_verify)

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
        text = _dumps(report)
    except InfeasibleMomentsError as exc:
        print(f"momentbounds: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"momentbounds: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        print(f"momentbounds: numbers too large for double precision: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificateError as exc:
        print(f"momentbounds: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except Exception as exc:  # a fault of the program, not of the input
        print(f"momentbounds: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
