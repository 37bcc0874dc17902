"""Command line interface.

Exit codes: 0 success, 1 mathematical failure (a check returned false or a
verification suite had failures), 2 usage or parse errors (including the
--max-terms guard and running out of memory), 3 anomaly (a solve outcome
contradicting a proved statement; the offending system is dumped as JSON
for triage).

Output on stdout uses the canonical text format for elements and JSON for
structured data; diagnostics go to stderr.  Identical invocations produce
byte-identical stdout.  Each handler returns its answer and `main` writes
stdout once, after the whole answer is rendered, so an error leaves stdout
empty; a reader closing the pipe early ends the run quietly, with the
answer's exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from .algebra import (
    TERM_BUDGET,
    AmbientMismatch,
    DomainError,
    Element,
    TermBudgetExceeded,
    _json_int,
    as_fraction,
    as_int,
    canonical_walk,
    commutator,
    element_from_json,
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
    Derivation,
    Endomorphism,
    UnverifiedMapError,
    ZeroAt,
    ad,
    apply_derivation,
    apply_endo,
    checked_map_from_json,
    compose,
    graded_parts,
    is_affine_U,
    lift_phi,
    map_fields,
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

USAGE_ERROR = 2
MATH_FAILURE = 1
ANOMALY = 3

# Largest ambient n accepted from -n or from an input file; a larger n is a
# usage error, refused before any element of U_n is built.
MAX_N = 64

# Largest power accepted from `solve rfactor --k`.  The decomposition costs
# about k^3 (k = 300 takes about 3 s, k = 990 over a minute and 13 MB of
# output), so a larger k is a usage error, refused before anything is built.
MAX_K = 300

# Largest iteration count accepted from `der probe --bound`.  The k-th
# iterate may hold only k + 1 terms, so --max-terms need not trip, while the
# work grows about as k^4 (bound 100 takes about a second, 200 about ten);
# a larger bound is a usage error, refused before anything is built.
MAX_BOUND = 100

# Largest degrees accepted from `solve derspace --wdeg` and `solve lemma27
# --degree`.  Before the first --max-terms charge, a slice's word count
# takes two lists of wdeg + 1 ints and the Lemma 2.7 members are listed,
# about n * degree^(n-1) / (n-1)! of them; a degree of 10^8 ran out of memory
# either way.  At n = 1 the answers at the caps take well under a second
# (derspace 0.2 s, lemma27 0.1 s); at n >= 2 and standard weights a slice
# of degree m holds over 2^m words, so below the caps --max-terms bounds
# the work.  A larger degree is a usage error, refused before anything is
# built.
MAX_WDEG = 100
MAX_DEGREE = 100


class _UsageError(Exception):
    """Bad input found by the CLI itself: exit 2, with the message on stderr."""


def _int_arg(text: str) -> int:
    """The value of an int option, read by `as_int`'s ASCII grammar."""
    try:
        return as_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_weights(text: str):
    try:
        return tuple(as_int(p) for p in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad weight vector: {exc}") from exc


def _read_file(path: str, what: str, build):
    """build(data) of the JSON in the file at path, the one reader of an input
    file: a read error, or build's KeyError, ValueError or TypeError, names path."""
    # ValueError covers JSONDecodeError and bytes that are not UTF-8, and the
    # decoder recurses once per nesting level of arrays and objects
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return build(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise _UsageError(f"bad {what} file {path}: {exc}") from exc


def _indented_json(data) -> str:
    """The text of json.dumps(data, indent=2), byte for byte, by a loop.

    The stack holds text still to write (a str) and values still to write
    ((value, newline and indent) pairs), popped in output order.  An
    `Element` (`_element_text`) and a `Derivation` or `Endomorphism`
    (`_map_text`, tested before lists and tuples, as a map is a NamedTuple)
    are written whole, from texts kept in `heads` for this call.  A dict or
    a list takes the encoder's layout: keys in insertion order, "[]" and
    "{}" when empty.  Any other value, a str, int, bool, None or float, is
    `json.dumps(value)`, which also refuses what the encoder refuses.  Keys
    must be str (`_json_key`).
    """
    out: list[str] = []
    heads: dict[tuple, str] = {}
    stack: list = [(data, "\n")]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        obj, nl = item
        if isinstance(obj, Element):
            out.append(_element_text(obj, nl, heads))
        elif isinstance(obj, (Derivation, Endomorphism)):
            out.append(_map_text(obj, nl, heads))
        elif isinstance(obj, dict):
            if not obj:
                out.append("{}")
            else:
                inner = nl + "  "
                out.append("{")
                stack.append(nl + "}")
                sep = "," + inner
                for k, (key, value) in reversed(list(enumerate(obj.items()))):
                    stack.append((value, inner))
                    stack.append((sep if k else inner) + _json_key(key) + ": ")
        elif isinstance(obj, (list, tuple)):
            if not obj:
                out.append("[]")
            else:
                inner = nl + "  "
                out.append("[")
                stack.append(nl + "]")
                sep = "," + inner
                for k in range(len(obj) - 1, -1, -1):
                    stack.append((obj[k], inner))
                    stack.append(sep if k else inner)
        else:
            out.append(json.dumps(obj))
    return "".join(out)


def _element_text(g: Element, nl: str, heads: dict) -> str:
    """The indented text of element_to_json(g) at indent `nl`.

    `heads` keeps a zero element's text under (nl, n), and under (nl, lexp)
    a dict from r-word to the text of a term up to its coefficient's
    digits; the digits of `canonical_walk` need no escaping.
    """
    inner = nl + "  "
    if g.is_zero:
        text = heads.get((nl, g.n))
        if text is None:
            text = heads[nl, g.n] = f'{{{inner}"n": {g.n},{inner}"terms": []{nl}}}'
        return text
    close = '"' + inner + "  }"
    terms = []
    for lexp, rwords, texts in canonical_walk(g):
        group = heads.setdefault((nl, lexp), {})
        for rword, text in zip(rwords, texts):
            head = group.get(rword)
            if head is None:
                at = inner + "    "
                head = group[rword] = (
                    f'{inner}  {{{at}"l": {_ints_text(lexp, at)},'
                    f'{at}"r": {_ints_text(rword, at)},{at}"c": "'
                )
            terms.append(f"{head}{text}{close}")
    return f'{{{inner}"n": {g.n},{inner}"terms": [{",".join(terms)}{inner}]{nl}}}'


def _map_text(m, nl: str, heads: dict) -> str:
    """The indented text of map_to_json(m) at indent `nl`: the fields of
    `map_fields` in their order, each image by `_element_text`; `verified`
    is a bool, as every map `lsea` builds holds one."""
    inner, at = nl + "  ", nl + "    "
    fields = map_fields(m, lambda g: _element_text(g, at, heads))
    for key in ("l_images", "r_images"):
        images = fields[key]
        fields[key] = f"[{at}{(',' + at).join(images)}{inner}]" if images else "[]"
    fields["kind"] = _quote(fields["kind"])
    fields["verified"] = "true" if fields["verified"] else "false"
    return "{" + ",".join(f'{inner}"{k}": {text}' for k, text in fields.items()) + nl + "}"


def _ints_text(values: tuple, nl: str) -> str:
    """The indented text of a list of ints at indent `nl`."""
    if not values:
        return "[]"
    inner = nl + "  "
    return f"[{inner}{(',' + inner).join(map(str, values))}{nl}]"


def _json_key(key) -> str:
    """A dict key as json.dumps writes a str key; every key `lsea` writes
    is a str, so any other key is refused."""
    if isinstance(key, str):
        return _quote(key)
    raise TypeError(f"keys must be str, not {type(key).__name__}")


def _leaf(sub, name: str, run, help: str, *positionals: str, **defaults):
    p = sub.add_parser(name, help=help)
    for arg in positionals:
        p.add_argument(arg)
    p.set_defaults(run=run, **defaults)
    return p


def _group(sub, name: str, help: str):
    return sub.add_parser(name, help=help).add_subparsers(
        dest=f"{name}_cmd", required=True
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each leaf subcommand
    carries its handler as the `run` default."""
    top = argparse.ArgumentParser(
        prog="lsea",
        description="Exact computations in the enveloping algebra U_n "
        "(generators l1..ln, r1..rn; the l's commute and r_i*l_j = l_j*r_i + r_i*r_j).",
    )
    top.add_argument(
        "-n",
        type=_int_arg,
        default=None,
        help=f"ambient number of generators, 1 to {MAX_N}",
    )
    top.add_argument(
        "--max-terms",
        type=_int_arg,
        default=None,
        help="abort when an intermediate result exceeds this many terms, "
        "at least 1 (default: LSEA_MAX_TERMS or unlimited)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    _leaf(sub, "norm", _norm, "normal form of an expression", "expr")
    _leaf(sub, "mul", _mul, "product of two expressions", "a", "b")
    _leaf(sub, "comm", _comm, "commutator a*b - b*a", "a", "b")
    p = _leaf(sub, "ad", _ad, "inner derivation of a; optionally applied to b", "a")
    p.add_argument("b", nargs="?")
    p = _leaf(sub, "pderiv", _pderiv, "partial derivative of a polynomial")
    p.add_argument("j", type=_int_arg)
    p.add_argument("expr")
    _leaf(sub, "shift", _shift, "substitute l_k - r_k into a polynomial", "expr")
    _leaf(sub, "lm", _lm, "leading L-monomial", "expr")
    _leaf(sub, "lc", _lc, "leading coefficient in R_n", "expr")
    p = _leaf(sub, "wdeg", _wdeg, "weighted degree")
    p.add_argument("--weights", required=True)
    p.add_argument("expr")
    p = _leaf(sub, "parts", _parts, "weighted homogeneous components")
    p.add_argument("--weights", required=True)
    p.add_argument("expr")
    _leaf(sub, "member", _member, "membership flags in L_n / R_n / I_n", "expr")
    _leaf(sub, "project", _project, "split into L_n part and ideal part", "expr")

    der = _group(sub, "der", "derivation operations")
    _leaf(der, "check", _check_file, "check the defining relations", "file", kind="derivation")
    _leaf(der, "apply", _der_apply, "apply a verified derivation", "file", "expr")
    p = _leaf(der, "probe", _der_probe, "bounded nilpotency probe", "file", "expr")
    p.add_argument(
        "--bound", type=_int_arg, default=5, help=f"iterations, at most {MAX_BOUND}"
    )
    p = _leaf(der, "grade", _der_grade, "weighted homogeneous pieces", "file")
    p.add_argument("--weights", required=True)

    endo = _group(sub, "endo", "endomorphism operations")
    _leaf(endo, "check", _check_file, "check relation preservation", "file", kind="endomorphism")
    _leaf(endo, "apply", _endo_apply, "apply a verified endomorphism", "file", "expr")
    _leaf(
        endo,
        "compose",
        _endo_compose,
        "compose two endomorphisms (first ∘ second)",
        "outer",
        "inner",
    )
    _leaf(endo, "lift", _endo_lift, "lift a polynomial tuple f1;...;fn", "tuple")
    _leaf(
        endo, "affine", _endo_affine, "test whether all images have degree one", "file"
    )

    u1 = _group(sub, "u1", "rank-one closed forms")
    p = _leaf(u1, "pair", _u1_pair, "the U_1 automorphism and its closed-form inverse")
    p.add_argument("--alpha", required=True)
    p.add_argument("--h", required=True)

    solve = _group(sub, "solve", "graded solver operations")
    _leaf(
        solve,
        "ad-preimage",
        _solve_ad_preimage,
        "solve ad_{l_i}(g) = u_i from a JSON file",
        "file",
    )
    p = _leaf(
        solve, "lemma27", _solve_lemma27, "solutions of -ad_{l_i}(g) = r_i g + g r_i"
    )
    p.add_argument("--i", type=_int_arg, required=True)
    p.add_argument(
        "--degree", type=_int_arg, required=True, help=f"at most {MAX_DEGREE}"
    )
    p = _leaf(solve, "rfactor", _solve_rfactor, "decompose r_i^k r_j h")
    p.add_argument(
        "--k", type=_int_arg, required=True, help=f"the power k, at most {MAX_K}"
    )
    p.add_argument("--i", type=_int_arg, required=True)
    p.add_argument("--j", type=_int_arg, required=True)
    p.add_argument("--h", required=True)
    p = _leaf(solve, "derspace", _solve_derspace, "basis of homogeneous derivations")
    p.add_argument("--wdeg", type=_int_arg, required=True, help=f"at most {MAX_WDEG}")
    p.add_argument("--weights", default=None)
    p.add_argument("--into-i", action="store_true")

    p = _leaf(sub, "verify", _verify, "run a seeded verification suite")
    p.add_argument("suite")
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--cases", type=_int_arg, default=100)

    return top


def _need_n(args, fallback: int | None = None) -> int:
    n = args.n if args.n is not None else fallback
    if n is None:
        raise _UsageError("this command needs -n")
    return _cap(n, MAX_N, "n", "-n")


def _cap(value: int, limit: int, name: str, source: str) -> int:
    """value, or a usage error naming source and name when it exceeds limit."""
    if value > limit:
        raise _UsageError(f"{source}: {name} = {value} exceeds the limit {limit}")
    return value


def _expr(args, text: str, fallback_n: int | None = None) -> Element:
    return parse_element(text, _need_n(args, fallback_n))


# -- subcommand handlers ---------------------------------------------------------
#
# Each returns its answer: one piece, or (exit code, piece, ...) where the code
# may be other than 0.  `main` renders the pieces and writes them to stdout.
# Library functions are looked up as module globals when a handler runs, so
# rebinding them on this module (tests, tracing) takes effect even though the
# parser is built only once.  `lsea.verify` is imported by `_verify` alone,
# so its entry point `run_suite` is rebound on `lsea.verify` instead.


def _norm(args):
    return _expr(args, args.expr)


def _mul(args):
    return mul(_expr(args, args.a), _expr(args, args.b))


def _comm(args):
    return commutator(_expr(args, args.a), _expr(args, args.b))


def _ad(args):
    # ad_a(b) = a*b - b*a, read off the two products as `comm` reads it
    a = _expr(args, args.a)
    return ad(a) if args.b is None else commutator(a, _expr(args, args.b))


def _pderiv(args):
    return pderiv_l(args.j, _expr(args, args.expr))


def _shift(args):
    return shift_lr(_expr(args, args.expr))


def _lm(args):
    g = _expr(args, args.expr)
    top, _ = lm_lc(g)
    return Element.zero(g.n) if top is None else Element.from_word(g.n, top, ())


def _lc(args):
    return lm_lc(_expr(args, args.expr))[1]


def _wdeg(args):
    n = _need_n(args)
    w = _parse_weights(args.weights)
    return str(wdeg(parse_element(args.expr, n), w))


def _parts(args):
    n = _need_n(args)
    w = _parse_weights(args.weights)
    comps = homogeneous_components(parse_element(args.expr, n), w)
    return {"parts": [{"wdeg": d, "element": g} for d, g in comps.items()]}


def _member(args):
    in_l, in_r, in_i = membership(_expr(args, args.expr))
    return {"in_L": in_l, "in_R": in_r, "in_I": in_i}


def _project(args):
    lpart, ipart = project_to_L(_expr(args, args.expr))
    return {"l_part": lpart, "ideal_part": ipart}


def _load_map(path: str, want: str):
    """(map, violations) of the map in the file at path, from one re-check."""

    def build(data):
        kind = data["kind"]  # checked before the map is built
        if kind != want:
            raise _UsageError(f"{path} holds {_a(kind)}, expected {_a(want)}")
        _cap(_json_int(data["n"], "n"), MAX_N, "n", path)
        return checked_map_from_json(data)

    return _read_file(path, "map", build)


def _a(kind) -> str:
    return f"an {kind}" if str(kind).startswith(tuple("aeiou")) else f"a {kind}"


def _check_file(args):
    _, violations = _load_map(args.file, args.kind)
    if not violations:
        return f"{args.kind}: OK"
    return MATH_FAILURE, f"{args.kind}: FAIL", {"violations": violations_to_json(violations)}


def _der_apply(args):
    d, _ = _load_map(args.file, "derivation")
    return apply_derivation(d, _expr(args, args.expr, d.n))


def _der_probe(args):
    _cap(args.bound, MAX_BOUND, "bound", "--bound")
    d, _ = _load_map(args.file, "derivation")
    res = probe_nilpotent(d, _expr(args, args.expr, d.n), args.bound)
    if isinstance(res, ZeroAt):
        return {"zero_at": res.k}
    return {"nonzero_through": res.bound, "degrees": list(res.degrees)}


def _der_grade(args):
    d, _ = _load_map(args.file, "derivation")
    w = _parse_weights(args.weights)
    return {"parts": [{"wdeg": m, "map": dm} for m, dm in graded_parts(d, w).items()]}


def _endo_apply(args):
    e, _ = _load_map(args.file, "endomorphism")
    return apply_endo(e, _expr(args, args.expr, e.n))


def _endo_compose(args):
    outer, _ = _load_map(args.outer, "endomorphism")
    inner, _ = _load_map(args.inner, "endomorphism")
    return compose(outer, inner)


def _endo_lift(args):
    n = _need_n(args)
    pieces = args.tuple.split(";")
    return lift_phi(n, [parse_element(p, n) for p in pieces])


def _endo_affine(args):
    e, _ = _load_map(args.file, "endomorphism")
    return "affine: yes" if is_affine_U(e) else (MATH_FAILURE, "affine: no")


def _u1_pair(args):
    try:
        alpha = as_fraction(args.alpha)
    except ValueError as exc:
        raise _UsageError(f"bad --alpha: {exc}") from exc
    h = parse_element(args.h, 1)
    # u1_closed_form checks that the two maps invert each other
    phi, psi = u1_closed_form(alpha, h)
    return {"phi": phi, "psi": psi}


def _solve_ad_preimage(args):
    def build(data):
        for d in data["images"]:
            _cap(_json_int(d["n"], "n"), MAX_N, "n", args.file)
        return [element_from_json(d) for d in data["images"]]

    # the preimage is unique: ad_preimage's docstring proves the kernel is 0
    return {"g": ad_preimage(_read_file(args.file, "image", build)), "kernel_dim": 0}


def _solve_lemma27(args):
    n = _need_n(args)
    _cap(args.degree, MAX_DEGREE, "degree", "--degree")
    sols = lemma27_solutions(n, args.i, args.degree)
    return {"dim": len(sols), "basis": sols}


def _solve_rfactor(args):
    n = _need_n(args)
    _cap(args.k, MAX_K, "k", "--k")
    h = parse_element(args.h, n)
    u, v = rfactor_decompose(args.k, args.i, args.j, h)
    return {"u": u, "v": v}


def _solve_derspace(args):
    n = _need_n(args)
    _cap(args.wdeg, MAX_WDEG, "wdeg", "--wdeg")
    w = _parse_weights(args.weights) if args.weights else None
    basis = derivation_space(n, args.wdeg, into_I=args.into_i, weights=w)
    return {"dim": len(basis), "basis": basis}


def _verify(args):
    from .verify import run_suite

    try:
        report = run_suite(args.suite, seed=args.seed, cases=args.cases)
    except AnomalyError as exc:
        print(f"suite {args.suite}: anomaly", file=sys.stderr)
        return ANOMALY, {"anomaly": str(exc), "payload": exc.payload}
    records = [{"failure": f} for f in report.failures]
    records += [{"anomaly": a} for a in report.anomalies]
    code = ANOMALY if report.anomalies else 0 if report.ok else MATH_FAILURE
    return code, report.line(), *map(json.dumps, records)


def _rendered(answer) -> tuple[int, list[str]]:
    """(exit code, the text of each piece) of a handler's answer; only an
    exact tuple holds a code, since a map is a tuple too."""
    code, *pieces = answer if type(answer) is tuple else (0, answer)
    return code, [_render(piece) for piece in pieces]


def _render(piece) -> str:
    """An element as canonical text, a str as is, anything else as JSON."""
    if isinstance(piece, Element):
        return format_element(piece)
    return piece if isinstance(piece, str) else _indented_json(piece)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0

    budget, source = args.max_terms, "--max-terms"
    if budget is None:
        env = os.environ.get("LSEA_MAX_TERMS")
        if env:
            try:
                budget, source = as_int(env), "LSEA_MAX_TERMS"
            except ValueError:
                print(f"lsea: bad LSEA_MAX_TERMS {env!r}", file=sys.stderr)
                return USAGE_ERROR
    # every element holds at least one term, and one-term generators are
    # cached and never charged, so a bound below 1 cannot be kept exactly
    if budget is not None and budget < 1:
        print(f"lsea: {source} must be at least 1, got {budget}", file=sys.stderr)
        return USAGE_ERROR
    token = TERM_BUDGET.set(budget)
    # exact coefficients and integer literals may run to any number of digits
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    error, texts = None, []
    try:
        code, texts = _rendered(args.run(args))
    except MemoryError:
        # written below, once this block has dropped the traceback and with it
        # the frames that hold the partial result
        code, error = USAGE_ERROR, (
            "out of memory; --max-terms refuses large results before they are built"
        )
    except TermBudgetExceeded as exc:
        code, error = USAGE_ERROR, f"term budget exceeded: {exc}"
    except ExprSyntaxError as exc:
        code, error = USAGE_ERROR, f"syntax error: {exc}"
    except (DomainError, AmbientMismatch, UnverifiedMapError, _UsageError) as exc:
        code, error = USAGE_ERROR, str(exc)
    except AnomalyError as exc:
        code, error = ANOMALY, f"anomaly: {exc}"
        texts = [_render({"anomaly": str(exc), "payload": exc.payload})]
    finally:
        TERM_BUDGET.reset(token)
        sys.set_int_max_str_digits(digits)
    if error is not None:
        print(f"lsea: {error}", file=sys.stderr)
    # the one write to stdout, after the whole answer is rendered
    try:
        for text in texts:
            sys.stdout.write(text)
            sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; with fd 1 on devnull the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
