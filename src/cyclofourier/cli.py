"""Command-line interface: sweeps, tables, and decision procedures.

Exit codes: 0 when the run succeeded and all checks passed (or a decision
was rendered), 1 when checks failed, 2 on usage errors (a flag out of range,
an unwritable ``--output``), 3 when a brute-force budget was exceeded, 4 when
an internal self-check failed or any other ``ValueError`` escaped (an
arithmetic or construction bug, not a verdict), 141 (128 + SIGPIPE) when the
reader closed stdout before the output was written.  All randomness flows from
one seed, so identical configurations give byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from .chargauss import check_gauss_identities, enumerate_characters, gauss_sum, standard_ring
from .diagonalize import (SplitVerificationError, decide_diag_cyclic, decide_diag_group,
                          vandermonde_iso)
from .exactring import _is_prime, cyclotomic_polynomial, is_unit
from .groupalgebra import fourier_inversion_report
from .isoverify import (CircleFunction, criterion_vs_determinant, natural_iso_sweep,
                        naturality_sweep)
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
    """value if it is a prime; anything else is a usage error."""
    if not _is_prime(value):
        raise UsageError(f"{name} must be a prime, got {value!r}")
    return value


def _budget_from_env(default: int = DEFAULT_BUDGET) -> int:
    raw = os.environ.get("CYCLO_BUDGET")
    if raw is None:
        return _int_at_least("--budget", default)
    return _int_at_least("CYCLO_BUDGET", raw)


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.write("\n")
        except OSError as exc:
            raise UsageError(f"cannot write --output {output}: {exc.strerror or exc}") from exc
    else:
        print(text)


def _emit_report(report: VerifyReport, fmt: str, output: str | None) -> int:
    _emit(report.to_json() if fmt == "json" else report.to_text(), output)
    return 0 if report.failed == 0 else 1


def _alpha_from_name(name: str, p: int) -> CircleFunction:
    if name in ("tpzc", "spike"):
        return CircleFunction.spike(p)
    raise UsageError(f"unknown alpha function {name!r}")


def cmd_phi(args) -> int:
    poly = cyclotomic_polynomial(_int_at_least("--n", args.n))
    if args.format == "json":
        _emit(json.dumps([str(c) for c in poly.coeffs]), args.output)
    else:
        _emit(poly.pretty(), args.output)
    return 0


def cmd_verify(args) -> int:
    p = _prime("--p", args.p)
    max_r = _int_at_least("--max-r", args.max_r)
    r = _int_at_least("--r", args.r)
    samples = _int_at_least("--samples", args.samples)
    budget = _budget_from_env()
    extra_groups = _int_at_least("--extra-groups", args.extra_groups, low=0)
    max_order = (_DEFAULT_MAX_ORDER.get(p, p ** 3) if args.max_order is None
                 else _int_at_least("--max-order", args.max_order))
    if args.what == "fourier":
        report = fourier_inversion_report(p, max_order, limit=budget)
    elif args.what == "gauss":
        report = VerifyReport("verify-gauss", {"p": p, "max_r": max_r})
        for level in range(1, max_r + 1):
            report.extend(check_gauss_identities(p, level).checks)
    elif args.what == "iso":
        fn = _alpha_from_name(args.alpha, p)
        if args.natural_max_order is not None:
            natural = _int_at_least("--natural-max-order", args.natural_max_order)
        else:
            natural = min(max_order, _DEFAULT_NATURAL_ORDER.get(p, 1))
        report = natural_iso_sweep(p, max_order, hom_order_bound=natural, fn=fn,
                                   dump_matrix=args.dump_matrix, limit=budget)
    elif args.what == "criterion-oracle":
        report = criterion_vs_determinant(p, r, samples, args.seed,
                                          extra_groups=extra_groups, limit=budget)
    elif args.what == "naturality":
        if args.max_order is None:
            max_order = min(_DEFAULT_NATURAL_ORDER.get(p, 1), 16)
        report = naturality_sweep(p, max_order, _alpha_from_name(args.alpha, p), limit=budget)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.what)
    return _emit_report(report, args.format, args.output)


def cmd_diag(args) -> int:
    budget = _budget_from_env(args.budget)
    m = _int_at_least("--modulus", args.modulus, low=2)
    if args.group is not None:
        orders = [_int_at_least("--group", tok) for tok in args.group.split(",") if tok]
        verdict = decide_diag_group(orders, m, budget=budget)
        n = math.lcm(*orders) if orders else 1
    else:
        n = _int_at_least("--n", args.n)
        verdict = decide_diag_cyclic(n, m, budget=budget)
    payload = verdict.to_json()
    if args.emit_iso and verdict.decision:
        split = vandermonde_iso(n, m, verdict.witness, budget=budget)
        payload["points"] = list(split.points)
        payload["matrix"] = split.matrix.to_json()
    _emit(json.dumps(payload), args.output)
    return 0


def cmd_gauss_table(args) -> int:
    """One row per (N, chi, u), with G(chi, eps_u) and whether it is a unit.

    One norm per chi decides its coprime rows: for p not dividing u, t -> u^-1 t
    gives G(chi, eps_u) = chi(u^-1) G(chi, eps_1), whose norm is
    N(zeta^k) N(G(chi, eps_1)) = +-N(G(chi, eps_1)), so it is a unit exactly
    when the base sum is.  The identity is checked on each row; every other
    row (p | u, or an identity that fails) takes ``is_unit`` of its own value.
    """
    p = _prime("--p", args.p)
    _int_at_least("--max-r", args.max_r)
    rows = []
    for r in range(1, args.max_r + 1):
        N = p ** r
        ring = standard_ring(p, r)
        for chi in enumerate_characters(p, r, ring):
            base = gauss_sum(chi, u=1)
            base_unit = is_unit(base)
            for u in range(N):
                value = gauss_sum(chi, u=u)
                if u % p and value == chi.eval(pow(u, -1, N)) * base:
                    unit = base_unit
                else:
                    unit = is_unit(value)
                rows.append({
                    "N": N,
                    "chi_exponents": ";".join(map(str, chi.exponents)),
                    "u": u,
                    "sum_coeffs": ";".join(value.coeff_strings()),
                    "is_unit": unit,
                })
    if args.format == "json":
        _emit(_render(rows, ""), args.output)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["N", "chi_exponents", "u",
                                                 "sum_coeffs", "is_unit"])
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue().rstrip("\n"), args.output)
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

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument("what", choices=["fourier", "gauss", "iso",
                                           "criterion-oracle", "naturality"])
    p_verify.add_argument("--p", type=int, default=2)
    p_verify.add_argument("--max-order", type=int, default=None)
    p_verify.add_argument("--max-r", type=int, default=3)
    p_verify.add_argument("--r", type=int, default=2)
    p_verify.add_argument("--samples", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--extra-groups", type=int, default=2)
    p_verify.add_argument("--alpha", default="tpzc",
                          help="tpzc (alias spike): 2 at the points 1/p^s, 1 elsewhere")
    p_verify.add_argument("--natural-max-order", type=int, default=None)
    p_verify.add_argument("--dump-matrix", action="store_true")
    p_verify.add_argument("--format", choices=["text", "json"], default="json")
    p_verify.add_argument("--output")
    p_verify.set_defaults(func=cmd_verify)

    p_diag = sub.add_parser("diag", help="diagonalizability of a group algebra over Z/m")
    p_diag.add_argument("--modulus", type=int, required=True)
    group = p_diag.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--group", help="comma-separated cyclic orders, e.g. 2,2")
    p_diag.add_argument("--emit-iso", action="store_true")
    p_diag.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
