"""Command line interface.

Exit codes: 0 success, 1 mathematical failure (a check returned false or a
verification suite had failures), 2 usage or parse errors (including the
--max-terms guard), 3 anomaly (a solve outcome contradicting a proved
statement; the offending system is dumped as JSON for triage).

Output on stdout uses the canonical text format for elements and JSON for
structured data; diagnostics go to stderr.  Identical invocations produce
byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .algebra import (
    NEG_INF,
    TERM_BUDGET,
    AmbientMismatch,
    DomainError,
    Element,
    TermBudgetExceeded,
    element_from_json,
    element_to_json,
    homogeneous_components,
    lm_lc,
    membership,
    mul,
    pderiv_l,
    project_to_L,
    shift_lr,
    wdeg,
)
from .maps import (
    AnomalyError,
    UnverifiedMapError,
    ZeroAt,
    ad,
    apply_derivation,
    apply_endo,
    check_derivation,
    check_endomorphism,
    check_inverse_pair,
    compose,
    graded_parts,
    is_affine_U,
    lift_phi,
    map_from_json,
    map_to_json,
    probe_nilpotent,
    u1_closed_form,
    violations_to_json,
)
from .parser import ExprSyntaxError, format_element, parse_element
from .solver import (
    ad_preimage,
    derivation_space,
    lemma27_solutions,
    rfactor_decompose,
)
from .verify import SUITES, run_suite

USAGE_ERROR = 2
MATH_FAILURE = 1
ANOMALY = 3


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_weights(text: str, n: int):
    parts = text.split(",")
    if len(parts) != n:
        raise _CliFailure(USAGE_ERROR, f"expected {n} comma-separated weights")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise _CliFailure(USAGE_ERROR, f"bad weight vector: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliFailure(USAGE_ERROR, f"cannot read {path}: {exc}") from exc


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=False))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lsea",
        description="Exact computations in the enveloping algebra U_n "
        "(generators l1..ln, r1..rn; the l's commute and r_i*l_j = l_j*r_i + r_i*r_j).",
    )
    top.add_argument("-n", type=int, default=None, help="ambient number of generators")
    top.add_argument(
        "--max-terms",
        type=int,
        default=None,
        help="abort when an intermediate result exceeds this many terms "
        "(default: LSEA_MAX_TERMS or unlimited)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="normal form of an expression")
    p.add_argument("expr")

    p = sub.add_parser("mul", help="product of two expressions")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("comm", help="commutator a*b - b*a")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("ad", help="inner derivation of a; optionally applied to b")
    p.add_argument("a")
    p.add_argument("b", nargs="?")

    p = sub.add_parser("pderiv", help="partial derivative of a polynomial")
    p.add_argument("j", type=int)
    p.add_argument("expr")

    p = sub.add_parser("shift", help="substitute l_k - r_k into a polynomial")
    p.add_argument("expr")

    p = sub.add_parser("lm", help="leading L-monomial")
    p.add_argument("expr")

    p = sub.add_parser("lc", help="leading coefficient in R_n")
    p.add_argument("expr")

    p = sub.add_parser("wdeg", help="weighted degree")
    p.add_argument("--weights", required=True)
    p.add_argument("expr")

    p = sub.add_parser("parts", help="weighted homogeneous components")
    p.add_argument("--weights", required=True)
    p.add_argument("expr")

    p = sub.add_parser("member", help="membership flags in L_n / R_n / I_n")
    p.add_argument("expr")

    p = sub.add_parser("project", help="split into L_n part and ideal part")
    p.add_argument("expr")

    der = sub.add_parser("der", help="derivation operations").add_subparsers(
        dest="der_cmd", required=True
    )
    p = der.add_parser("check", help="check the defining relations")
    p.add_argument("file")
    p = der.add_parser("apply", help="apply a verified derivation")
    p.add_argument("file")
    p.add_argument("expr")
    p = der.add_parser("probe", help="bounded nilpotency probe")
    p.add_argument("file")
    p.add_argument("expr")
    p.add_argument("--bound", type=int, default=5)
    p = der.add_parser("grade", help="weighted homogeneous pieces")
    p.add_argument("file")
    p.add_argument("--weights", required=True)

    endo = sub.add_parser("endo", help="endomorphism operations").add_subparsers(
        dest="endo_cmd", required=True
    )
    p = endo.add_parser("check", help="check relation preservation")
    p.add_argument("file")
    p = endo.add_parser("apply", help="apply a verified endomorphism")
    p.add_argument("file")
    p.add_argument("expr")
    p = endo.add_parser("compose", help="compose two endomorphisms (first ∘ second)")
    p.add_argument("outer")
    p.add_argument("inner")
    p = endo.add_parser("lift", help="lift a polynomial tuple f1;...;fn")
    p.add_argument("tuple")
    p = endo.add_parser("affine", help="test whether all images have degree one")
    p.add_argument("file")

    u1 = sub.add_parser("u1", help="rank-one closed forms").add_subparsers(
        dest="u1_cmd", required=True
    )
    p = u1.add_parser("pair", help="the U_1 automorphism and its closed-form inverse")
    p.add_argument("--alpha", required=True)
    p.add_argument("--h", required=True)

    solve = sub.add_parser("solve", help="graded solver operations").add_subparsers(
        dest="solve_cmd", required=True
    )
    p = solve.add_parser("ad-preimage", help="solve ad_{l_i}(g) = u_i from a JSON file")
    p.add_argument("file")
    p = solve.add_parser("lemma27", help="solutions of -ad_{l_i}(g) = r_i g + g r_i")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p = solve.add_parser("rfactor", help="decompose r_i^k r_j h")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--h", required=True)
    p = solve.add_parser("derspace", help="basis of homogeneous derivations")
    p.add_argument("--wdeg", type=int, required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--into-i", action="store_true")

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)

    return top


def _need_n(args, fallback: int | None = None) -> int:
    n = args.n if args.n is not None else fallback
    if n is None:
        raise _CliFailure(USAGE_ERROR, "this command needs -n")
    if n < 1:
        raise _CliFailure(USAGE_ERROR, "-n must be >= 1")
    return n


def _expr(args, text: str, fallback_n: int | None = None) -> Element:
    return parse_element(text, _need_n(args, fallback_n))


def _run(args) -> int:
    cmd = args.command

    if cmd == "norm":
        print(format_element(_expr(args, args.expr)))
        return 0

    if cmd == "mul":
        print(format_element(mul(_expr(args, args.a), _expr(args, args.b))))
        return 0

    if cmd == "comm":
        a, b = _expr(args, args.a), _expr(args, args.b)
        print(format_element(mul(a, b) - mul(b, a)))
        return 0

    if cmd == "ad":
        d = ad(_expr(args, args.a))
        if args.b is None:
            _emit_json(map_to_json(d))
        else:
            print(format_element(apply_derivation(d, _expr(args, args.b))))
        return 0

    if cmd == "pderiv":
        print(format_element(pderiv_l(args.j, _expr(args, args.expr))))
        return 0

    if cmd == "shift":
        print(format_element(shift_lr(_expr(args, args.expr))))
        return 0

    if cmd == "lm":
        top, _ = lm_lc(_expr(args, args.expr))
        if top is None:
            print("0")
        elif not any(top):
            print("1")
        else:
            factors = [
                f"l{i + 1}" if e == 1 else f"l{i + 1}^{e}"
                for i, e in enumerate(top)
                if e
            ]
            print("*".join(factors))
        return 0

    if cmd == "lc":
        print(format_element(lm_lc(_expr(args, args.expr))[1]))
        return 0

    if cmd == "wdeg":
        n = _need_n(args)
        w = _parse_weights(args.weights, n)
        val = wdeg(parse_element(args.expr, n), w)
        print("-inf" if val is NEG_INF else str(val))
        return 0

    if cmd == "parts":
        n = _need_n(args)
        w = _parse_weights(args.weights, n)
        comps = homogeneous_components(parse_element(args.expr, n), w)
        _emit_json(
            {
                "parts": [
                    {"wdeg": d, "element": element_to_json(g)}
                    for d, g in comps.items()
                ]
            }
        )
        return 0

    if cmd == "member":
        flags = membership(_expr(args, args.expr))
        _emit_json({"in_L": flags.in_L, "in_R": flags.in_R, "in_I": flags.in_I})
        return 0

    if cmd == "project":
        lpart, ipart = project_to_L(_expr(args, args.expr))
        _emit_json(
            {"l_part": element_to_json(lpart), "ideal_part": element_to_json(ipart)}
        )
        return 0

    if cmd == "der":
        return _run_der(args)
    if cmd == "endo":
        return _run_endo(args)
    if cmd == "u1":
        return _run_u1(args)
    if cmd == "solve":
        return _run_solve(args)
    if cmd == "verify":
        return _run_verify(args)

    raise _CliFailure(USAGE_ERROR, f"unknown command {cmd!r}")


def _load_map(path: str, want: str):
    data = _load_json(path)
    try:
        m = map_from_json(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise _CliFailure(USAGE_ERROR, f"bad map file {path}: {exc}") from exc
    kind = data.get("kind")
    if kind != want:
        raise _CliFailure(USAGE_ERROR, f"{path} holds a {kind}, expected a {want}")
    return m


def _run_der(args) -> int:
    if args.der_cmd == "check":
        d, violations = check_derivation(_load_map(args.file, "derivation"))
        if violations:
            print("derivation: FAIL")
            _emit_json({"violations": violations_to_json(violations)})
            return MATH_FAILURE
        print("derivation: OK")
        return 0

    d = _load_map(args.file, "derivation")
    if args.der_cmd == "apply":
        print(format_element(apply_derivation(d, _expr(args, args.expr, d.n))))
        return 0
    if args.der_cmd == "probe":
        res = probe_nilpotent(d, _expr(args, args.expr, d.n), args.bound)
        if isinstance(res, ZeroAt):
            _emit_json({"zero_at": res.k})
        else:
            _emit_json(
                {"nonzero_through": res.bound, "degrees": list(res.degrees)}
            )
        return 0
    if args.der_cmd == "grade":
        w = _parse_weights(args.weights, d.n)
        parts = graded_parts(d, w)
        _emit_json(
            {
                "parts": [
                    {"wdeg": m, "map": map_to_json(dm)} for m, dm in parts.items()
                ]
            }
        )
        return 0
    raise _CliFailure(USAGE_ERROR, "unknown der subcommand")


def _run_endo(args) -> int:
    if args.endo_cmd == "check":
        e, violations = check_endomorphism(_load_map(args.file, "endomorphism"))
        if violations:
            print("endomorphism: FAIL")
            _emit_json({"violations": violations_to_json(violations)})
            return MATH_FAILURE
        print("endomorphism: OK")
        return 0

    if args.endo_cmd == "lift":
        n = _need_n(args)
        pieces = args.tuple.split(";")
        if len(pieces) != n:
            raise _CliFailure(USAGE_ERROR, f"expected {n} ';'-separated polynomials")
        fs = [parse_element(p, n) for p in pieces]
        _emit_json(map_to_json(lift_phi(n, fs)))
        return 0

    if args.endo_cmd == "compose":
        outer = _load_map(args.outer, "endomorphism")
        inner = _load_map(args.inner, "endomorphism")
        _emit_json(map_to_json(compose(outer, inner)))
        return 0

    e = _load_map(args.file, "endomorphism")
    if args.endo_cmd == "apply":
        print(format_element(apply_endo(e, _expr(args, args.expr, e.n))))
        return 0
    if args.endo_cmd == "affine":
        if is_affine_U(e):
            print("affine: yes")
            return 0
        print("affine: no")
        return MATH_FAILURE
    raise _CliFailure(USAGE_ERROR, "unknown endo subcommand")


def _run_u1(args) -> int:
    if args.u1_cmd != "pair":
        raise _CliFailure(USAGE_ERROR, "unknown u1 subcommand")
    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError) as exc:
        raise _CliFailure(USAGE_ERROR, f"bad --alpha: {exc}") from exc
    h = parse_element(args.h, 1)
    phi, psi = u1_closed_form(alpha, h)
    if not check_inverse_pair(phi, psi):
        return MATH_FAILURE
    _emit_json({"phi": map_to_json(phi), "psi": map_to_json(psi)})
    return 0


def _run_solve(args) -> int:
    if args.solve_cmd == "ad-preimage":
        data = _load_json(args.file)
        try:
            us = [element_from_json(d) for d in data["images"]]
        except (KeyError, ValueError, TypeError) as exc:
            raise _CliFailure(USAGE_ERROR, f"bad image file: {exc}") from exc
        g, kernel_dim = ad_preimage(us)
        _emit_json({"g": element_to_json(g), "kernel_dim": kernel_dim})
        return 0

    if args.solve_cmd == "lemma27":
        n = _need_n(args)
        sols = lemma27_solutions(n, args.i, args.degree)
        _emit_json({"dim": len(sols), "basis": [element_to_json(g) for g in sols]})
        return 0

    if args.solve_cmd == "rfactor":
        n = _need_n(args)
        h = parse_element(args.h, n)
        u, v = rfactor_decompose(args.k, args.i, args.j, h)
        _emit_json({"u": element_to_json(u), "v": element_to_json(v)})
        return 0

    if args.solve_cmd == "derspace":
        n = _need_n(args)
        w = _parse_weights(args.weights, n) if args.weights else None
        basis = derivation_space(n, args.wdeg, into_I=args.into_i, weights=w)
        _emit_json({"dim": len(basis), "basis": [map_to_json(d) for d in basis]})
        return 0

    raise _CliFailure(USAGE_ERROR, "unknown solve subcommand")


def _run_verify(args) -> int:
    try:
        report = run_suite(args.suite, seed=args.seed, cases=args.cases)
    except AnomalyError as exc:
        print(f"suite {args.suite}: anomaly", file=sys.stderr)
        _emit_json({"anomaly": str(exc), "payload": exc.payload})
        return ANOMALY
    print(report.line())
    for failure in report.failures:
        print(json.dumps({"failure": failure}))
    for anomaly in report.anomalies:
        print(json.dumps({"anomaly": anomaly}))
    if report.anomalies:
        return ANOMALY
    return 0 if report.ok else MATH_FAILURE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0

    budget = args.max_terms
    if budget is None:
        env = os.environ.get("LSEA_MAX_TERMS")
        if env:
            try:
                budget = int(env)
            except ValueError:
                print(f"lsea: bad LSEA_MAX_TERMS {env!r}", file=sys.stderr)
                return USAGE_ERROR
    token = TERM_BUDGET.set(budget)
    try:
        return _run(args)
    except TermBudgetExceeded as exc:
        print(f"lsea: term budget exceeded: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ExprSyntaxError as exc:
        print(f"lsea: syntax error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (DomainError, AmbientMismatch, UnverifiedMapError) as exc:
        print(f"lsea: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except _CliFailure as exc:
        print(f"lsea: {exc}", file=sys.stderr)
        return exc.code
    except AnomalyError as exc:
        print(f"lsea: anomaly: {exc}", file=sys.stderr)
        _emit_json({"anomaly": str(exc), "payload": exc.payload})
        return ANOMALY
    finally:
        TERM_BUDGET.reset(token)


if __name__ == "__main__":
    sys.exit(main())
