"""Command line front end.

Usage:
    spinplanar check    --input FILE [--tol R] [--format text|json]
    spinplanar convert  --input FILE [--tol R]
    spinplanar qdims    --input FILE [--max-level M] [--tol R] [--cap C]
                        [--closure] [--format text|json]
    spinplanar group    (--name Z2..Z6|S3 | --input FILE) [--max-level M]
                        [--tol R] [--cap C] [--format text|json]
    spinplanar selftest [--spins N] [--seed S] [--tol R] [--format text|json]

check validates an object file (Hadamard matrix, Latin square, quantum
Latin square, biunitary matrix, or unitary error basis), converts it to a
planar element, and runs the matching biunitarity certificate.  convert
dumps the element's coefficients as JSON.  qdims builds the subalgebra
kernel tower and prints the dimension table.  group cross-checks the
kernel tower of a group table against its closed-form predictions.
selftest runs the randomized relation suite of the algebra itself.

Exit codes: 0 success / verdict true; 1 verdict false or failed check;
2 input error; 3 resource refusal; 4 ambiguous spectrum (qdims and group
refuse a level whose gap is below numerics.MIN_GAP).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import groups, qit, selftest, subfactor
from .core import coeff_distance, mult, vectorize
from .groups import GroupValidationError
from .numerics import MIN_GAP, worst
from .qit import QitParseError, QitValidationError

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_AMBIGUOUS = 4

DEFAULT_CAP = 50_000


def _emit(payload: dict, fmt: str, text_lines: list[str]):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _residual_lines(residuals: dict[str, float]) -> list[str]:
    width = max(len(k) for k in residuals)
    return [f"  {k.ljust(width)}  {v:.3e}" for k, v in residuals.items()]


def cmd_check(args) -> int:
    obj = qit.load_qit(args.input)
    try:
        u = obj.to_element(args.tol)
    except QitValidationError as exc:
        print(f"kind: {obj.name}", file=sys.stderr)
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_FALSE
    cert = obj.certificate(u, args.tol)
    # a Latin square is certified through its quantum Latin square image
    name = qit.QuantumLatinSquare.name if obj.kind == "latin" else obj.name
    form = f"{cert.kind} certificate" if obj.ell is None else f"{cert.kind}-biunitary"
    report = f"{name}; {form} in P_({u.color.width},+)"
    payload = {
        "kind": obj.kind, "n": u.ctx.N, "report": report,
        "certificate": {"kind": cert.kind, "residuals": cert.residuals,
                        "verdict": cert.verdict, "tol": cert.tol},
    }
    lines = [f"report: {report}", "residuals:"]
    lines += _residual_lines(cert.residuals)
    lines.append(f"verdict: {'PASS' if cert.verdict else 'FAIL'} (tol {cert.tol:g})")
    _emit(payload, args.format, lines)
    return EXIT_OK if cert.verdict else EXIT_FALSE


def cmd_convert(args) -> int:
    u = qit.load_qit(args.input).to_element(args.tol)
    print(json.dumps(qit.element_to_json(u), indent=2, sort_keys=True))
    return EXIT_OK


def _check_cap(n: int, k: int, ell: int, max_level: int, cap: int) -> str | None:
    for m in range(max_level + 1):
        rows = n ** (m * ell + k - ell)
        if rows > cap:
            return (f"level {m} needs a {rows}-row operator "
                    f"(N^(m*l+k-l) = {n}^{m * ell + k - ell}), above the cap {cap}; "
                    f"lower --max-level or raise --cap")
    return None


def _ambiguous(rows) -> str | None:
    for r in rows:
        if r.gap < MIN_GAP:
            level = f"{r.level}-" if r.minus else str(r.level)
            return (f"level {level} has gap {r.gap:.2e}, below {MIN_GAP:g}: the singular "
                    f"values near the threshold do not separate, so its dimension "
                    f"{r.dim} is not determined")
    return None


def _dims_payload(tower, zero_minus) -> dict:
    def row(r):
        return {"m": r.level, "dim": r.dim, "residual": r.residual,
                "gap": None if np.isinf(r.gap) else r.gap}

    payload = {"levels": [row(r) for r in tower]}
    if zero_minus is not None:
        payload["zero_minus"] = row(zero_minus)
    return payload


def _dims_lines(tower, zero_minus) -> list[str]:
    lines = ["  m  dim      residual   gap", "  -  ------   --------   ---"]
    for r in tower:
        gap = "inf" if np.isinf(r.gap) else f"{r.gap:.2e}"
        lines.append(f"  {r.level}  {str(r.dim).ljust(6)}   {r.residual:.2e}   {gap}")
    if zero_minus is not None:
        gap = "inf" if np.isinf(zero_minus.gap) else f"{zero_minus.gap:.2e}"
        lines.append(f"  0- {str(zero_minus.dim).ljust(6)}   {zero_minus.residual:.2e}   {gap}"
                     "   (shaded level 0)")
    return lines


def cmd_qdims(args) -> int:
    obj = qit.load_qit(args.input)
    if obj.ell is None:
        print("qdims: unitary error bases are not accepted; no construction of a "
              "subfactor planar algebra from a unitary error basis is known, so the "
              "kernel tower is only defined for the {0,l}-biunitary families "
              "(hadamard, latin, qls, biunitary)", file=sys.stderr)
        return EXIT_INPUT
    u, ell = obj.to_element(args.tol), obj.ell
    refusal = _check_cap(u.ctx.N, u.color.width, ell, args.max_level, args.cap)
    if refusal:
        print(f"resource refusal: {refusal}", file=sys.stderr)
        return EXIT_RESOURCE
    stair = subfactor.build_staircase(u, ell, args.max_level, args.tol)
    tower = subfactor.q_tower(stair, args.max_level)
    zero_minus = subfactor.q_zero_minus(stair)
    refusal = _ambiguous(tower + [zero_minus])
    if refusal:
        print(f"ambiguous spectrum: {refusal}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    payload = _dims_payload(tower, zero_minus)
    payload.update({"kind": obj.kind, "n": u.ctx.N, "k": u.color.width, "ell": ell})
    lines = [f"kind: {obj.name} (n={u.ctx.N}, k={u.color.width}, l={ell})",
             "dimension table:"] + _dims_lines(tower, zero_minus)
    if args.closure:
        report = subfactor.verify_planar_closure(tower, args.tol)
        payload["closure"] = {"residuals": report.residuals, "ok": report.ok,
                              "tol": report.tol}
        lines.append("closure residuals:")
        lines += _residual_lines(report.residuals)
        lines.append(f"closure: {'PASS' if report.ok else 'FAIL'} (tol {report.tol:g})")
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_group(args) -> int:
    if args.name:
        table = groups.builtin_group(args.name)
        label = args.name.upper()
    else:
        data = qit.read_json(args.input)
        rows = data.get("rows", data) if isinstance(data, dict) else data
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise QitParseError("a group table file holds a JSON array of rows "
                                "(or {\"rows\": [...]})")
        table = rows
        label = "table"
    oracle = subfactor.group_oracle(table, args.max_level)
    n, u, ell = oracle.n, oracle.element, qit.LatinSquare.ell
    refusal = _check_cap(n, u.color.width, ell, args.max_level, args.cap)
    if refusal:
        print(f"resource refusal: {refusal}", file=sys.stderr)
        return EXIT_RESOURCE
    stair = subfactor.build_staircase(u, ell, args.max_level, args.tol)
    tower = subfactor.q_tower(stair, args.max_level)
    refusal = _ambiguous(tower)
    if refusal:
        print(f"ambiguous spectrum: {refusal}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    computed = [r.dim for r in tower]
    checks: dict[str, float] = {}
    # exact multiplicativity of the width-2 family
    checks["X_g X_h = X_gh"] = worst(
        coeff_distance(mult(oracle.x(g), oracle.x(h)), oracle.x(table[g - 1][h - 1]))
        for g in range(1, n + 1) for h in range(1, n + 1))
    for level in range(2, args.max_level + 1, 2):
        res = tower[level]
        sums = oracle.orbit_sums(level)
        checks[f"orbit sums in level-{level} kernel"] = worst(
            subfactor._projection_residual([vectorize(s) for s in sums], res))
        checks[f"orbit count = dim at level {level}"] = float(len(sums) != res.dim)
        if level == 2:
            checks["X_g in level-2 kernel"] = worst(
                subfactor._projection_residual(
                    [vectorize(oracle.x(g)) for g in range(1, n + 1)], res))
    dims_ok = computed == oracle.dims
    checks_ok = all(v <= args.tol for v in checks.values())
    verdict = dims_ok and checks_ok
    payload = _dims_payload(tower, None)
    payload.update({"group": label, "order": n, "predicted": oracle.dims,
                    "computed": computed, "checks": checks, "verdict": verdict})
    lines = [f"group: {label} (order {n})",
             f"predicted dims: {', '.join(map(str, oracle.dims))}",
             f"computed dims:  {', '.join(map(str, computed))}",
             "checks:"]
    lines += _residual_lines(checks)
    lines.append(f"verdict: {'PASS' if verdict else 'FAIL'}")
    _emit(payload, args.format, lines)
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_selftest(args) -> int:
    results = selftest.run_relation_suite(args.spins, seed=args.seed, tol=args.tol)
    ok = all(r.ok for r in results)
    payload = {"spins": args.spins, "seed": args.seed,
               "checks": [{"name": r.name, "residual": r.residual, "ok": r.ok}
                          for r in results],
               "verdict": ok}
    width = max(len(r.name) for r in results)
    lines = [f"relation suite: N={args.spins}, seed={args.seed}, "
             f"{results[0].samples} random elements"]
    lines += [f"  {r.name.ljust(width)}  {r.residual:.3e}  {'PASS' if r.ok else 'FAIL'}"
              for r in results]
    lines.append(f"verdict: {'PASS' if ok else 'FAIL'} (tol {args.tol:g})")
    _emit(payload, args.format, lines)
    return EXIT_OK if ok else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinplanar",
        description="biunitary elements of the spin planar algebra and their "
                    "subfactor dimension towers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True, levels=False):
        if needs_input:
            p.add_argument("--input", required=False, help="object file (JSON)")
        p.add_argument("--tol", type=float, default=1e-9, help="tolerance (default 1e-9)")
        if levels:
            p.add_argument("--max-level", type=int, default=2,
                           help="highest kernel level to compute")
            p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                           help=f"refuse operators with more than this many rows "
                                f"(default {DEFAULT_CAP})")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_check = sub.add_parser("check", help="validate an object and certify biunitarity")
    common(p_check)
    p_check.set_defaults(func=cmd_check, needs_input=True)

    p_convert = sub.add_parser("convert", help="dump the planar element as JSON")
    common(p_convert)
    p_convert.set_defaults(func=cmd_convert, needs_input=True)

    p_qdims = sub.add_parser("qdims", help="kernel dimension table of the subalgebra")
    common(p_qdims, levels=True)
    p_qdims.add_argument("--closure", action="store_true",
                         help="also verify closure under the generating operations")
    p_qdims.set_defaults(func=cmd_qdims, needs_input=True)

    p_group = sub.add_parser("group", help="group-table tower with closed-form cross-check")
    common(p_group, levels=True)
    p_group.add_argument("--name", help="builtin group (Z2..Z6, S3)")
    p_group.set_defaults(func=cmd_group, needs_input=False)
    p_group.set_defaults(**{"max_level": 3})

    p_self = sub.add_parser("selftest", help="randomized relation suite")
    common(p_self, needs_input=False)
    p_self.add_argument("--spins", type=int, default=2, help="number of spins N")
    p_self.add_argument("--seed", type=int, default=7, help="seed of the random elements")
    p_self.set_defaults(func=cmd_selftest, needs_input=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the input-error code
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "needs_input", False) and not args.input:
        print(f"{args.command}: --input is required", file=sys.stderr)
        return EXIT_INPUT
    if args.command == "group" and bool(args.name) == bool(args.input):
        print("group: pass one of --name (builtin) and --input (table file)", file=sys.stderr)
        return EXIT_INPUT
    if not 0.0 < args.tol < float("inf"):  # also refuses nan
        print("--tol must be positive and finite", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "max_level", 0) < 0:
        print("--max-level must be nonnegative", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "closure", False) and args.max_level < 1:
        print("--closure compares consecutive levels; it needs --max-level 1 or more",
              file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "cap", 1) < 1:
        print("--cap must be positive", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "spins", 1) < 1:
        print("--spins must be positive", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (QitParseError, GroupValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except QitValidationError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_FALSE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
