"""Command-line front end.

Subcommands: moments, bound, interval, extremal, verify.  Every command
prints a JSON report (floats in shortest round-trip form, lossless at 17
significant digits) to stdout and diagnostics to stderr.  A report shows
the library's records by one rule (``_json``): a law as its list of
{"x", "p"} atoms, any other record as its fields.

``verify`` maximizes m3 with m1 <= 0 and m4 = 1 (any m4 is this problem
scaled) over [-3, 3] at ``--step``, and passes when -FALSIFIER_TOL <= gap <=
GAP_TOL and the falsifier (``--trials``, ``--seed``) finds no violation.

Exit codes:

    0  success
    1  ``verify`` only: the verification failed, an uncertified oracle
       optimum included
    2  usage or parse error (a step too small for the grid cap, numbers
       too large for double precision and input nested too deeply included)
    3  mathematical infeasibility (not a moment sequence / a grid too
       coarse to meet the constraints)
    4  internal error: an unexpected exception, reported in one line
    5  stdout was closed before the report was written (as in
       ``momentbounds bound ... | head -3``)

Only ``verify`` imports the oracle and numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import __version__
from .bounds import (
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

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4
EXIT_CLOSED_STDOUT = 5

#: Most that the grid optimum of `verify` (m4 = 1) may fall short of the sharp bound.
GAP_TOL = 5e-3


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
        if type(x) not in (int, float) or type(p) not in (int, float):  # bool is an int subclass
            raise ValueError(f"atom {i}: x and p must be numbers")
        pairs.append((float(x), float(p)))
    return DiscreteDistribution.from_pairs(pairs)


def _json(value: Any) -> Any:
    """The JSON form of a library record: a law is its list of {"x", "p"}
    atoms, any other record its fields, laws among them converted the same
    way and None fields (a missing witness) left out."""
    if isinstance(value, DiscreteDistribution):
        return [{"x": x, "p": p} for x, p in value.atoms]
    return {k: _json(v) if isinstance(v, DiscreteDistribution) else v for k, v in value._asdict().items() if v is not None}


def _base_report(command: str, input_echo: Any) -> dict[str, Any]:
    return {"tool": "momentbounds", "version": __version__, "command": command, "input": input_echo}


def _load_moment_vector(args: argparse.Namespace) -> tuple[MomentVector, Any]:
    if args.moments is not None:
        mv = MomentVector(*args.moments)
        return mv, {"moments": list(args.moments)}
    dist = parse_distribution_file(args.file)
    return moments_from_discrete(dist), {"file": args.file, "atoms": _json(dist)}


def _dumps(report: dict[str, Any]) -> str:
    """The report as strict JSON: a value beyond double range is an
    overflow, not "Infinity"."""
    try:
        return json.dumps(report, indent=2, allow_nan=False)
    except ValueError:
        raise OverflowError("a reported value is not finite") from None


def cmd_moments(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    if args.samples is not None:
        # the empirical law, built for abs_third_moment; moments_from_samples sums its terms without it
        dist = DiscreteDistribution.from_pairs((x, 1.0 / len(args.samples)) for x in args.samples)
        echo: Any = {"samples": list(args.samples)}
    else:
        dist = parse_distribution_file(args.file)
        echo = {"file": args.file, "atoms": _json(dist)}
    mv = moments_from_discrete(dist)
    report = _base_report("moments", echo)
    report.update(
        {
            "moments": _json(mv),
            "abs_third_moment": abs_third_moment(dist),
            "feasibility": _json(feasibility(mv)),
        }
    )
    return report, EXIT_OK


def cmd_bound(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    mv, echo = _load_moment_vector(args)
    rep = feasibility(mv)
    if not rep.psd:
        raise InfeasibleMomentsError("not a moment sequence")
    report = _base_report("bound", echo)
    report["moments"] = _json(mv)
    report["feasibility"] = _json(rep)
    report["interval"] = _json(m3_interval(mv.m1, mv.m2, mv.m4))
    report["bounds"] = {"trivial": {"bound": bound_trivial(mv)}}
    if not mean_nonpositive(mv):
        report["note"] = "sharp bounds require m1 <= 0; reporting the interval instead"
        return report, EXIT_OK
    report["bounds"]["sqrt"] = _json(bound_sqrt(mv))
    report["bounds"]["quarter"] = _json(bound_quarter(mv))
    try:
        report["certificate"] = _json(certificate_from_hankel(mv))
    except InfeasibleMomentsError:
        pass
    return report, EXIT_OK


def cmd_interval(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    report = _base_report("interval", {"m1": args.m1, "m2": args.m2, "m4": args.m4})
    report["interval"] = _json(m3_interval(args.m1, args.m2, args.m4))
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
            "atoms": _json(dist),
            "moments": _json(mv),
            "quarter_bound": quarter_bound(mv.m4),
        }
    )
    return report, EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    try:
        from .oracle import FALSIFIER_TOL, OracleConfig, oracle_max_m3, random_falsifier
        import numpy  # noqa: F401  second: imported first, it raised the process's peak RSS by ~1.5 MB
    except ImportError as exc:  # numpy is missing or broken; the other commands do not need it
        raise ValueError(f"verify needs numpy, which failed to import ({exc}); install it with: pip install numpy") from None

    cfg = OracleConfig(grid_step=args.step)
    falsifier = random_falsifier(args.trials, args.seed)  # first: it refuses a bad trial count or seed at once
    oracle = oracle_max_m3(cfg)
    sharp = quarter_bound(1.0)
    gap = sharp - oracle.max_m3
    report = _base_report("verify", {"step": args.step, "trials": args.trials, "seed": args.seed})
    report.update(
        {
            "sharp_bound": sharp,
            "oracle_max_m3": oracle.max_m3,
            "gap": gap,
            "gap_tolerance": GAP_TOL,
            "oracle_argmax": _json(oracle.argmax),
            "candidates_examined": oracle.candidates_examined,
            "oracle_dual": oracle.dual,
            "lp_pivots": oracle.pivots,
            "falsifier": _json(falsifier),
        }
    )
    # an optimum above the sharp bound by more than the falsifier's cut refutes it
    ok = falsifier.total_violations == 0 and -FALSIFIER_TOL <= gap <= GAP_TOL
    report["verified"] = ok
    return report, EXIT_OK if ok else EXIT_VERIFY_FAILED


#: A negative number, exponent form included: argparse alone reads
#: "-1e-05" as an option flag.
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; it holds the ``cmd_*`` functions, so patching one after the first call does nothing."""
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
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("interval", help="m3 range from (m1, m2, m4)")
    p.add_argument("m1", type=float)
    p.add_argument("m2", type=float)
    p.add_argument("m4", type=float)
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("extremal", help="equality-case two-point distribution")
    p.add_argument("sigma", type=float)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("verify", help="LP-certified sharpness and randomized soundness check")
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_verify)

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def main(argv: list[str] | None = None) -> int:
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
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the flush at exit would fail again: let it write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


if __name__ == "__main__":
    sys.exit(main())
