"""Command-line interface: sweeps, tables, and decision procedures.

``verify CHECK`` runs one of the checks fourier, gauss, iso, criterion-oracle
and naturality.  Its flags follow the check name: --p, --format and --output,
then the flags that check reads and no others.

Exit codes: 0 when the run succeeded and all checks passed (or a decision
was rendered), 1 when checks failed, 2 on usage errors (a flag out of range
or not read by the command, an unwritable ``--output``), 3 when a brute-force
budget was exceeded, 4 when an internal self-check failed or any other
``ValueError`` escaped (an arithmetic or construction bug, not a verdict), 141
(128 + SIGPIPE) when the reader closed stdout before the output was written.
All randomness flows from one seed: equal configurations give equal bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable
from io import TextIOBase

from .chargauss import _require_gauss_budget, check_gauss_identities, gauss_table_rows
from .diagonalize import (SplitVerificationError, _require_cyclotomic_budget,
                          decide_diag_cyclic, vandermonde_iso)
from .exactring import _is_prime, cyclotomic_polynomial
from .groupalgebra import fourier_inversion_report
from .isoverify import criterion_vs_determinant, natural_iso_sweep, naturality_sweep
from .report import DEFAULT_BUDGET, BudgetExceeded, VerifyReport, _render

DEFAULT_SEED = 1729

_DEFAULT_MAX_ORDER = {2: 32, 3: 27}
_DEFAULT_NATURAL_ORDER = {2: 16, 3: 27}


class UsageError(ValueError):
    """A flag, environment value or output path the CLI cannot use (exit code 2)."""


def _int_at_least(name: str, raw, low: int = 1) -> int:
    """raw as an int >= low (default 1); anything else is a usage error."""
    try:
        value = int(raw)
    except ValueError:
        value = low - 1
    if value < low:
        raise UsageError(f"{name} must be an integer >= {low}, got {raw!r}")
    return value


def _prime(name: str, value: int) -> int:
    """value if it is a proven prime; anything else is a usage error."""
    try:
        prime = _is_prime(value)
    except ValueError as exc:  # past the range where primality is proven
        raise UsageError(f"{name} must be a prime, got {value!r}: {exc}") from None
    if not prime:
        raise UsageError(f"{name} must be a prime, got {value!r}")
    return value


def _budget_from_env() -> int:
    """CYCLO_BUDGET, the one budget of every command; DEFAULT_BUDGET when it is unset."""
    raw = os.environ.get("CYCLO_BUDGET")
    return DEFAULT_BUDGET if raw is None else _int_at_least("CYCLO_BUDGET", raw)


def _emit(render: Callable[[TextIOBase], object], output: str | None, end: str = "\n") -> None:
    """render(stream) on the --output file, or on stdout, then end written after it.

    The file is opened only here, after the caller has computed all it
    renders, so a run that stops before (exit 2, 3 or 4) creates no file.
    """
    if not output:
        render(sys.stdout)
        sys.stdout.write(end)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            render(fh)
            fh.write(end)
    except OSError as exc:
        raise UsageError(f"cannot write --output {output}: {exc.strerror or exc}") from exc


def _emit_report(report: VerifyReport, fmt: str, output: str | None) -> int:
    """Write the report check by check; neither the checks' texts nor the whole is kept."""
    render = report.to_json if fmt == "json" else report.to_text
    _emit(lambda out: render(out.write), output)
    return 0 if report.failed == 0 else 1


def cmd_phi(args) -> int:
    n = _int_at_least("--n", args.n)
    _require_cyclotomic_budget(n, _budget_from_env())
    poly = cyclotomic_polynomial(n)
    if args.format == "json":
        text = json.dumps([str(c) for c in poly.coeffs])
    else:
        text = poly.pretty()
    _emit(lambda out: out.write(text), args.output)
    return 0


def _max_order(args, default: int) -> int:
    """--max-order, or the check's default for the prime when it is not given."""
    return default if args.max_order is None else _int_at_least("--max-order", args.max_order)


def cmd_verify(args) -> int:
    """One check: --p, CYCLO_BUDGET and the flags of that check alone are validated."""
    p = _prime("--p", args.p)
    if args.check == "gauss":
        max_r = _int_at_least("--max-r", args.max_r)
        _require_gauss_budget(p, max_r, _budget_from_env())
        report = VerifyReport("verify-gauss", {"p": p, "max_r": max_r})
        for level in range(1, max_r + 1):
            report.extend(check_gauss_identities(p, level).checks)
    elif args.check == "criterion-oracle":
        r = _int_at_least("--r", args.r)
        samples = _int_at_least("--samples", args.samples)
        budget = _budget_from_env()
        extra_groups = _int_at_least("--extra-groups", args.extra_groups, low=0)
        report = criterion_vs_determinant(p, r, samples, args.seed,
                                          extra_groups=extra_groups, limit=budget)
    elif args.check == "naturality":
        budget = _budget_from_env()
        max_order = _max_order(args, 16 if p in (2, 3) else 1)
        report = naturality_sweep(p, max_order, limit=budget)
    else:
        budget = _budget_from_env()
        max_order = _max_order(args, _DEFAULT_MAX_ORDER.get(p, p ** 3))
        if args.check == "fourier":
            report = fourier_inversion_report(p, max_order, limit=budget)
        else:
            natural = (min(max_order, _DEFAULT_NATURAL_ORDER.get(p, 1))
                       if args.natural_max_order is None
                       else _int_at_least("--natural-max-order", args.natural_max_order))
            report = natural_iso_sweep(p, max_order, hom_order_bound=natural,
                                       dump_matrix=args.dump_matrix, limit=budget)
    return _emit_report(report, args.format, args.output)


def cmd_diag(args) -> int:
    budget = _budget_from_env()
    m = _int_at_least("--modulus", args.modulus, low=2)
    if args.group is None:
        n = _int_at_least("--n", args.n)
    else:  # the exponent of the direct sum; math.lcm() of no orders is 1
        n = math.lcm(*[_int_at_least("--group", tok) for tok in args.group.split(",") if tok])
    verdict = decide_diag_cyclic(n, m, limit=budget)
    payload = verdict.to_json()
    if args.emit_iso and verdict.decision:
        split = vandermonde_iso(n, m, verdict.witness, limit=budget)
        payload["points"] = list(split.points)
        payload["matrix"] = split.matrix.to_json()
    text = json.dumps(payload)
    _emit(lambda out: out.write(text), args.output)
    return 0


_TABLE_FIELDS = ("N", "chi_exponents", "u", "sum_coeffs", "is_unit")


def cmd_gauss_table(args) -> int:
    """One row per (N, chi, u), with G(chi, eps_u) and whether it is a unit."""
    p = _prime("--p", args.p)
    max_r = _int_at_least("--max-r", args.max_r)
    rows = [(N, ";".join(map(str, chi.exponents)), u, ";".join(value.coeff_strings()), unit)
            for N, chi, u, value, unit in gauss_table_rows(p, max_r, limit=_budget_from_env())]
    if args.format == "json":
        def render(out: TextIOBase) -> None:
            opening, closing = "[\n  ", "[]"
            for row in rows:
                out.write(opening + _render(dict(zip(_TABLE_FIELDS, row)), "  "))
                opening, closing = ",\n  ", "\n]"
            out.write(closing)

        _emit(render, args.output)
    else:
        import csv  # only this command reads it, so other commands start without it

        def render(out: TextIOBase) -> None:
            writer = csv.writer(out)
            writer.writerow(_TABLE_FIELDS)
            writer.writerows(rows)

        _emit(render, args.output, end="")  # the writer ends each row with \r\n
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclofourier",
        description="Exact verification of Fourier inversion, Gauss-sum identities, "
                    "and group-algebra diagonalizability.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_phi = sub.add_parser("phi", help="print a cyclotomic polynomial")
    p_phi.add_argument("--n", type=int, required=True)
    p_phi.add_argument("--format", choices=["text", "json"], default="text")
    p_phi.add_argument("--output")
    p_phi.set_defaults(func=cmd_phi)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=2)
    common.add_argument("--format", choices=["text", "json"], default="json")
    common.add_argument("--output")
    p_verify = sub.add_parser("verify", help="run one verification check")
    checks = p_verify.add_subparsers(dest="check", required=True)
    p_fourier = checks.add_parser("fourier", parents=[common], help="Fourier inversion")
    p_fourier.add_argument("--max-order", type=int, default=None)
    p_gauss = checks.add_parser("gauss", parents=[common], help="Gauss-sum identities")
    p_gauss.add_argument("--max-r", type=int, default=3)
    p_iso = checks.add_parser("iso", parents=[common],
                              help="the natural isomorphism built from the spike")
    p_iso.add_argument("--max-order", type=int, default=None)
    p_iso.add_argument("--natural-max-order", type=int, default=None)
    p_iso.add_argument("--dump-matrix", action="store_true")
    p_criterion = checks.add_parser("criterion-oracle", parents=[common],
                                    help="invertibility criterion against determinants")
    p_criterion.add_argument("--r", type=int, default=2)
    p_criterion.add_argument("--samples", type=int, default=100)
    p_criterion.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_criterion.add_argument("--extra-groups", type=int, default=2)
    p_naturality = checks.add_parser("naturality", parents=[common], help="naturality squares")
    p_naturality.add_argument("--max-order", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_diag = sub.add_parser("diag", help="diagonalizability of a group algebra over Z/m")
    p_diag.add_argument("--modulus", type=int, required=True)
    group = p_diag.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--group", help="comma-separated cyclic orders, e.g. 2,2")
    p_diag.add_argument("--emit-iso", action="store_true")
    p_diag.add_argument("--output")
    p_diag.set_defaults(func=cmd_diag)

    p_table = sub.add_parser("gauss-table", help="tabulate Gauss sums")
    p_table.add_argument("--p", type=int, default=2)
    p_table.add_argument("--max-r", type=int, default=3)
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.add_argument("--output")
    p_table.set_defaults(func=cmd_gauss_table)

    return parser


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    try:
        if unread:
            raise UsageError("unrecognized arguments: " + " ".join(unread))
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, SplitVerificationError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    """main() as the exit code; 141 (128 + SIGPIPE) when the reader closed stdout."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # send the interpreter's last flush of stdout nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
