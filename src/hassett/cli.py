"""Command-line surface with machine-readable output.

Contract shared by every subcommand:

* data goes to stdout, diagnostics to stderr;
* exit code 0 means every check passed, 1 means some check failed,
  2 means the invocation itself was invalid;
* identical argument vectors produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from ._version import __version__
from .constructions import Mode, build_generic, corollary20_certificate, generic_slots
from .criteria import MAX_D, conjecture_sweep, discriminant_report
from .verifier import Certificate, CertificateError


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _flag(value: bool) -> str:
    return "yes" if value else "no"


def _render_discriminant(report) -> None:
    factors = " * ".join(
        f"{p}^{e}" if e > 1 else str(p) for p, e in report.factorization
    ) or "1"
    witness = report.double_star_witness
    print(f"d = {report.d}")
    print(f"  star (*):        {_flag(report.star)}")
    print(
        f"  double star (**): {_flag(report.double_star)}"
        + (f" (m = {witness})" if witness is not None else "")
    )
    print(f"  associated K3:   {_flag(report.k3_admissible)}")
    print(f"  factorization:   {factors}")


def _render_report(report) -> None:
    print(f"verdict: {report.verdict}")
    if report.failure_reasons:
        print("reasons: " + ", ".join(report.failure_reasons))
    discs = ", ".join(str(l.realized_d) for l in report.labellings)
    print(f"labelling discriminants: {discs}")


def cmd_check_d(args) -> int:
    d = args.d
    if not 1 <= d <= MAX_D:
        return _fail_usage(f"d must lie in [1, {MAX_D}], got {d}")
    report = discriminant_report(d)
    if args.json:
        print(json.dumps(report.to_dict(), separators=(",", ":")))
    else:
        _render_discriminant(report)
    return 0 if report.star else 1


def cmd_intersect(args) -> int:
    targets = args.d
    for d in targets:
        if not 1 <= d <= MAX_D:
            return _fail_usage(f"d must lie in [1, {MAX_D}], got {d}")
    try:
        slots = generic_slots(targets)
    except ValueError as exc:
        return _fail_usage(str(exc))
    mode = Mode(args.mode)
    outcome = build_generic(targets, mode, slots=slots)
    cert = outcome.certificate
    report = cert.report
    if outcome.detail:
        print(f"note:    {outcome.detail}", file=sys.stderr)
    if args.json:
        print(cert.to_json())
    else:
        print(f"mode:    {mode.value}")
        print(f"status:  {outcome.status.value}")
        _render_report(report)
    return 0 if report.verdict == "PASS" else 1


def cmd_corollary20(args) -> int:
    cert = corollary20_certificate()
    witness = cert.report
    reports = [discriminant_report(d) for d in cert.targets]
    all_star = all(r.star for r in reports)
    if args.json:
        doc = {
            "discriminants": [r.to_dict() for r in reports],
            "certificate": cert.to_dict(),
        }
        print(json.dumps(doc, separators=(",", ":")))
    else:
        print(f"{'d':>6}  {'star':>4}  {'m':>4}  {'K3':>3}")
        for r in reports:
            m = "-" if r.double_star_witness is None else str(r.double_star_witness)
            print(f"{r.d:>6}  {_flag(r.star):>4}  {m:>4}  {_flag(r.k3_admissible):>3}")
        crit = witness.criterion
        print(f"witness rank:      {len(witness.labellings) + 1}")
        print(f"contains h2:       {_flag(crit.contains_h_squared)}")
        print(f"positive definite: {_flag(crit.positive_definite)}")
        print(f"saturated:         {_flag(crit.saturated)}")
        print(f"minimum norm:      {crit.minimum_norm}")
        print(f"verdict:           {witness.verdict}")
        if witness.failure_reasons:
            print("reasons:           " + ", ".join(witness.failure_reasons))
    passed = witness.verdict == "PASS" and all_star
    return 0 if passed else 1


def cmd_sweep_conjecture(args) -> int:
    limit = args.limit
    if not 1 <= limit <= MAX_D:
        return _fail_usage(f"limit must lie in [1, {MAX_D}], got {limit}")
    try:
        rows = conjecture_sweep(limit)
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = ["d,k,s,admissible"]
    lines += [f"{d},{k},{s},{'true' if ok else 'false'}" for d, k, s, ok in rows]
    text = "\n".join(lines) + "\n"
    if args.csv is not None:
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail_usage(f"cannot write CSV: {exc}")
        print(f"wrote {len(rows)} rows to {args.csv}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    bad = [d for d, _, _, ok in rows if not ok]
    if bad:
        print(f"counterexamples found: {bad}", file=sys.stderr)
        return 1
    return 0


def cmd_verify_file(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _fail_usage(f"cannot read certificate: {exc}")
    try:
        cert = Certificate.from_json(text)
    except CertificateError as exc:
        return _fail_usage(str(exc))
    report = cert.report
    if args.json:
        print(json.dumps(report.to_dict(), separators=(",", ":")))
    else:
        _render_report(report)
    return 0 if report.verdict == "PASS" else 1


@functools.lru_cache(maxsize=1)
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser, by command name."""
    parser = argparse.ArgumentParser(
        prog="hassett",
        description="Exact lattice certificates for intersections of Hassett divisors.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-d", help="classify one discriminant")
    p.add_argument("d", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_d)

    p = sub.add_parser("intersect", help="build and verify a witness for given discriminants")
    p.add_argument("d", type=int, nargs="+")
    p.add_argument("--mode", choices=("goal", "strict"), default="goal")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("corollary20", help="verify the bundled 20-divisor configuration")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_corollary20)

    p = sub.add_parser("sweep-conjecture", help="scan conjecture-shaped discriminants")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=cmd_sweep_conjecture)

    p = sub.add_parser("verify-file", help="re-verify a certificate JSON file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_file)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    """Run the command ``argv`` (default ``sys.argv[1:]``) names and return its exit code.

    A named subcommand parses the rest of ``argv`` with its own parser, and
    the top-level parser reports what it leaves, as a parse through it would.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        command = commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
