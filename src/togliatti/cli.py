"""Command-line surface.

Commands: check, enumerate, family, bound, verify.  Human-readable text by
default, --json for the stable structured report.  Exit codes: 0 pass/clean,
1 property failure or stdout closed early, 2 usage error, 3 inconclusive
(budget exhausted).
"""

from __future__ import annotations

import argparse
import json
import re
import sys as _sys

from . import classify, family as family_mod
from .errors import BudgetExhaustedError, ParseError, TogliattiError
from .monomials import PartitionSpec, _tokens, parse_system, serialize

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _infer_n(text: str) -> int:
    """Largest variable index (or tuple width) among parse_system's tokens."""
    best = -1
    for _, token in _tokens(text):
        for m in re.finditer(r"\bx(\d+)", token):
            best = max(best, int(m.group(1)))
        for m in re.finditer(r"\(([^()]*)\)", token):
            best = max(best, m.group(1).count(","))
    if best < 1:
        raise ParseError("cannot infer n from input; pass --n")
    return best


def _at_least(low, convert=int):
    """argparse type: a number >= low; anything else is a usage error (exit 2)."""

    def number(text):  # argparse names the type: "invalid number value"
        value = convert(text)
        if not value >= low:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value

    return number


def _partition(text):
    """argparse type: comma-separated integers, e.g. 2,1,1."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers like 2,1,1, got {text!r}") from None


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        _pretty(payload)


def _pretty(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)) and value:
                print(f"{pad}{key}:")
                _pretty(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                print(f"{pad}-")
                _pretty(value, indent + 1)
            else:
                print(f"{pad}- {value}")
    else:
        print(f"{pad}{payload}")


def cmd_check(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {args.file}: {exc}") from None
    n = args.n if args.n is not None else _infer_n(text)
    system = parse_system(text, n, args.d)
    report = classify.check_command(system, verbose=args.verbose)
    _emit(report, args.json)
    clean = report["togliatti"] and report.get("minimal") and report.get("smooth")
    return EXIT_PASS if clean else EXIT_FAIL


def cmd_enumerate(args) -> int:
    try:
        result = classify.enumerate_minimal_smooth(args.n, args.budget)
    except BudgetExhaustedError as exc:
        payload = {"status": "inconclusive", "reason": str(exc), **classify.budget_progress(exc)}
        _emit(payload, args.json)
        return EXIT_INCONCLUSIVE
    payload = {
        "schema_version": 1,
        "n": result.n,
        "class_count": len(result.classes),
        "classes": [
            {
                **classify.class_summary(rec),
                "smooth": True,  # the search keeps only smooth orbits
                "laplace_delta": rec.laplace_delta,
            }
            for rec in result.classes
        ],
        "stats": result.stats,
    }
    _emit(payload, args.json)
    return EXIT_PASS


def cmd_family(args) -> int:
    spec = PartitionSpec.from_parts(args.partition)
    fam = family_mod.family_system(spec)
    payload = {
        "partition": list(spec.parts),
        "n": spec.n,
        "mu": fam.mu,
        "beta": fam.beta,
        "system": serialize(fam.sys, "S"),
        "witness_quadric": str(fam.witness_quadric),
    }
    _emit(payload, args.json)
    return EXIT_PASS


def cmd_bound(args) -> int:
    rows = []
    for n in range(2, args.n_max + 1):
        bound = family_mod.generator_bound(n)
        for spec in family_mod.valid_partitions(n):
            mu = family_mod.mu_formula(spec)
            rows.append(
                {
                    "n": n,
                    "partition": list(spec.parts),
                    "mu": mu,
                    "beta": family_mod.beta_formula(spec),
                    "bound": bound,
                    "at_bound": mu == bound,
                }
            )
    if args.json:
        _emit(rows, True)
    else:
        print(f"{'n':>3} {'partition':<20} {'mu':>5} {'beta':>5} {'bound':>6} {'at_bound':>8}")
        for r in rows:
            parts = "+".join(map(str, r["partition"]))
            print(
                f"{r['n']:>3} {parts:<20} {r['mu']:>5} {r['beta']:>5} "
                f"{r['bound']:>6} {str(r['at_bound']):>8}"
            )
    return EXIT_PASS


def cmd_verify(args) -> int:
    report = classify.verify_theorem(args.n, budget=args.budget)
    _emit(report, args.json)
    if report["status"] == "pass":
        return EXIT_PASS
    if report["status"] == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="togliatti",
        description="Exact tools for monomial cubic systems failing the weak "
        "Lefschetz property and the classification of the minimal smooth ones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="full report on a system from a file")
    p.add_argument("file")
    p.add_argument("--n", type=_at_least(1), default=None, help="ambient P^n (inferred if omitted)")
    p.add_argument("--d", type=_at_least(1), default=3)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="search for minimal smooth systems")
    p.add_argument("--n", type=_at_least(2), required=True)
    p.add_argument("--budget", type=_at_least(0, float), default=None, help="time budget in seconds")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("family", help="construct a partition-family system")
    p.add_argument(
        "--partition", type=_partition, required=True, help="comma-separated parts, e.g. 2,1,1"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("bound", help="generator-count table over all partitions")
    p.add_argument("--n-max", dest="n_max", type=_at_least(2), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="machine-verify the classification at n")
    p.add_argument("--n", type=_at_least(2), required=True)
    p.add_argument("--budget", type=_at_least(0, float), default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        _sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except ParseError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except TogliattiError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_FAIL
    except BrokenPipeError:
        # stdout was closed early: drop it, or flushing it at exit prints to stderr
        _sys.stdout = None
        return EXIT_FAIL


if __name__ == "__main__":
    _sys.exit(main())
