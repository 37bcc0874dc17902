"""Expression grammar, canonical formatting, and the CLI contract."""

import contextlib
import copy
import hashlib
import io
import json
import math
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsea import (
    Derivation,
    Element,
    Endomorphism,
    ad,
    ad_preimage,
    apply_derivation,
    check_derivation,
    derivation_space,
    element_from_json,
    element_to_json,
    gen_l,
    gen_r,
    lemma27_solutions,
    lift_phi,
    map_to_json,
    mul,
    rfactor_decompose,
    u1_closed_form,
)
from lsea.cli import (
    MAX_BOUND,
    MAX_DEGREE,
    MAX_K,
    MAX_N,
    MAX_WDEG,
    _indented_json,
    build_parser,
    main,
)
from lsea import algebra, parser
from lsea.maps import _letter_sum, _relation_table, _slots, map_from_json, violations_to_json
from lsea.parser import ExprSyntaxError, format_element, parse_element
from lsea.verify import (
    rand_element,
    rand_homogeneous_I,
    rand_lpoly,
    rand_rpoly,
    rand_verified_derivation,
)

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_generators_and_product(self):
        assert parse_element("r1*l2", 2) == mul(gen_r(2, 1), gen_l(2, 2))

    def test_rational_literal(self):
        g = parse_element("1/2*l1 - 3*r1", 1)
        assert g == Element.from_word(1, (1,), (), "1/2") + Element.from_word(
            1, (0,), (1,), -3
        )

    def test_power_binds_tightest(self):
        assert parse_element("(l1-r1)^2", 1) == (gen_l(1, 1) - gen_r(1, 1)) ** 2
        assert parse_element("r1^3", 1) == Element.from_word(1, (0,), (1, 1, 1))

    def test_unary_minus(self):
        assert parse_element("-l1 + l1", 1).is_zero
        assert parse_element("2*-3", 1) == -6 * Element.one(1)

    def test_whitespace_insignificant(self):
        assert parse_element(" l1 * r1 ", 1) == parse_element("l1*r1", 1)

    def test_index_is_part_of_token(self):
        # l12 is one generator, not l1*2
        g = parse_element("l12", 12)
        assert g == gen_l(12, 12)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_element("l1 + @", 1)
        assert err.value.pos == 5

    def test_index_out_of_range(self):
        with pytest.raises(ExprSyntaxError):
            parse_element("r3", 2)

    @pytest.mark.parametrize(
        "text, char, pos",
        [
            ("l\u0661*\u0662", "\u0661", 1),
            ("\u0662*l1", "\u0662", 0),
            ("l1 +\u00a0 l2", "\u00a0", 4),
            ("l+1", "l", 0),  # a letter without an index is the fault itself
            ("l*r1", "l", 0),
            ("r 1", "r", 0),
        ],
    )
    def test_ascii_only(self, text, char, pos):
        # Unicode digits and spaces are not tokens: "l\u0661*\u0662" is not 2*l1
        with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
            parse_element(text, 2)
        assert str(err.value).startswith(f"unexpected character {char!r}")
        assert err.value.pos == pos

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            parse_element("2 l1", 1)

    def test_sum_of_products_builds_one_element(self, monkeypatch):
        # factors are int maps multiplied by `_signed_products` and the terms
        # are added into one map, so only the answer is an Element
        def refuse(*args):
            raise AssertionError("an Element built per factor or per partial sum")

        built = []
        monkeypatch.setattr(Element, "_merge", refuse)
        monkeypatch.setattr(algebra, "mul", refuse)
        monkeypatch.setattr(
            parser, "_from_ints", lambda *args: built.append(args) or algebra._from_ints(*args)
        )
        g = parse_element("3*l1*r2 - 1/2*r1*l2*l2 + r2*r1*l1 + 5 - 2/3*r2*l1*l1", 2)
        assert len(built) == 1
        monkeypatch.undo()
        l1, l2, r1, r2 = gen_l(2, 1), gen_l(2, 2), gen_r(2, 1), gen_r(2, 2)
        assert g == (
            3 * mul(l1, r2) - Fraction(1, 2) * mul(mul(r1, l2), l2) + mul(mul(r2, r1), l1)
            + 5 * Element.one(2) - Fraction(2, 3) * mul(mul(r2, l1), l1)
        )

    @pytest.mark.parametrize(
        "text, terms",
        [("(3*l1 + l2 + 5*r1 + 6*r2)^10", 4083), ("(1/2*l1 - 2/3*r1 + 3/4*r2)^7", 255)],
    )
    def test_large_answer_round_trips(self, text, terms):
        # a sum of T terms is read back in time linear in T
        g = parse_element(text, 2)
        assert len(g) == terms
        assert parse_element(format_element(g), 2) == g


class TestFormat:
    def test_zero(self):
        assert format_element(Element.zero(2)) == "0"

    def test_canonical_order_and_signs(self):
        g = (gen_l(1, 1) - gen_r(1, 1)) ** 2
        assert format_element(g) == "l1^2 - 2*l1*r1"

    def test_r_letters_spelled_out(self):
        g = mul(gen_r(1, 1), gen_l(1, 1) ** 2)
        assert format_element(g) == "l1^2*r1 + 2*l1*r1*r1 + 2*r1*r1*r1"

    def test_fractions(self):
        g = Element.from_word(1, (0,), (), "-2/3")
        assert format_element(g) == "-2/3"

    def test_round_trip_random(self):
        rng = random.Random(211)
        for _ in range(80):
            n = rng.randint(1, 3)
            g = rand_element(rng, n, 4)
            assert parse_element(format_element(g), n) == g

    def test_coefficients_past_int_str_limit_in_process(self):
        # 1700! has 4756 digits; the rational coefficient has a numerator and
        # a denominator past the limit too
        g = mul(gen_r(1, 1), gen_l(1, 1) ** 1700)
        h = Element.from_word(1, (0,), (1,), Fraction(-(7**6000), 11**5000))
        limit = sys.get_int_max_str_digits()
        text, data = format_element(g), element_to_json(g)
        h_text, h_data = format_element(h), element_to_json(h)
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            big = str(math.factorial(1700))
            ratio = f"{7**6000}/{11**5000}"
        finally:
            sys.set_int_max_str_digits(limit)
        assert text.rsplit(" + ", 1)[1] == f"{big}*" + "*".join(["r1"] * 1701)
        assert data["terms"][-1] == {"l": [0], "r": [1] * 1701, "c": big}
        assert h_text == f"-{ratio}*r1"
        assert h_data["terms"] == [{"l": [0], "r": [1], "c": f"-{ratio}"}]

    def test_coefficients_past_int_str_limit_round_trip(self):
        # the readers take back what the writers give, with the limit untouched
        p, q = 10**4999 + 7, 2 * 10**4999 + 1  # 5000 digits each, coprime
        h = Element.from_word(2, (1, 0), (2, 1), Fraction(-p, q))
        limit = sys.get_int_max_str_digits()
        parsed = parse_element(format_element(h), 2)
        loaded = element_from_json(element_to_json(h))
        assert sys.get_int_max_str_digits() == limit
        assert parsed == loaded == h
        (c,) = [c for _, c in parsed.terms()]
        assert (c.numerator, c.denominator) == (-p, q)


# -- the command in a child process -----------------------------------------------
#
# What "never a traceback" means: one table of inputs, each run in a child by
# conftest's `run_lsea`, which checks the contract of every run.  A row is
# (id, argv as a shell splits it, exit code, text[, run_lsea keywords]); the
# text is stdout on exit 0 (stderr must then be empty) and stderr otherwise:
# exact, a re.Pattern to search for, or a predicate that must hold of it.  Each test named here is `run_case`:
# rows of earlier per-input tests keep their names and ids, and a new input is
# a row of test_case.

CAP, CAP_20 = {"cap": 1 << 30}, {"cap": 1 << 30, "timeout": 20}  # a 1 GB address space
BUDGET = re.compile("over the --max-terms bound 1000")
NOT_RATIONAL = re.compile(r": not a rational p or p/q: '1e10000000'\n\Z")
DERSPACE = "--max-terms 1000 solve derspace --wdeg"
LEMMA27 = "--max-terms 1000 solve lemma27 --i 1 --degree"
PROBE = "-n 2 --max-terms 1000 der probe {data}/example41.json r2 --bound"
AD_800_SHA256 = "9854afac916819955f2cc5eb048ed5af56ba75a5221457de0167372b08d2e3ee"
POWER_12_SHA256 = "f27d762d41439f29c30bc4bb9bb461b236a9fdb2a84e373c2ea2c4cded7315e4"
PROBED = json.dumps({"nonzero_through": 100, "degrees": list(range(2, 102))}, indent=2)
INFINITE_N = '{"n": Infinity, "kind": "derivation", "l_images": [], "r_images": []}'
EMPTY_MAP = '{{"n": {}, "kind": "{}", "l_images": [], "r_images": []}}'.format
AMBIENT_N = re.compile(r"\Alsea: bad map file \S+: ambient n must be >= 1\n\Z")
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
TOO_DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
WEIGHT_LENGTH = "lsea: weight vector length must equal the ambient n\n"


def dim(k):
    return lambda out: json.loads(out)["dim"] == k


def over(option, value, limit=100):
    return f"lsea: {option}: {option.lstrip('-')} = {value} exceeds the limit {limit}\n"


def syntax(message, pos):
    return f"lsea: syntax error: {message} (at position {pos})\n"


def unreadable(name, reason):
    return re.compile(f"\\Alsea: cannot read [^\\n]*/{re.escape(name)}: {re.escape(reason)}\n\\Z")


def not_int(option, value, prog="lsea"):
    return re.compile(f"\n{prog}: error: argument {option}: invalid int value: '{value}'\n\\Z")


def _example41_with(field, value):
    """example41.json with one value of its first l-image, or that image's
    one term ("term"), replaced."""
    data = json.loads((DATA / "example41.json").read_text())
    target = data if field == "map n" else data["l_images"][0]
    if field in ("map n", "n"):
        target["n"] = value
    elif field == "term":
        target["terms"] = [value]
    else:
        target["terms"][0][field] = value
    return data


def _images_with(field, value):
    """ad_images.json with one int of its first image replaced."""
    data = json.loads((DATA / "ad_images.json").read_text())
    target = data["images"][0]
    if field == "n":
        target["n"] = value
    else:
        target["terms"][0][field] = value
    return data


CLI_CASES = {
    "test_huge_n_exits_2_promptly": [(None, "-n 100000000 norm l1", 2, over("-n", 10**8, 64))],
    "test_exponent_cap": [
        ("9" * 20 + "-2", "-n 1 norm r1^" + "9" * 20, 2,
         f"lsea: exponent {'9' * 20} exceeds the limit 10000\n", CAP),
        ("10001-2", "-n 1 norm r1^10001", 2,
         "lsea: exponent 10001 exceeds the limit 10000\n", CAP),
        ("10000-0", "-n 1 norm r1^10000", 0, "*".join(["r1"] * 10000) + "\n", CAP),
    ],
    "test_probe_bound_cap": [  # an iterate has k + 1 terms; --max-terms cannot stop it
        ("100", f"{PROBE} 100", 0, PROBED + "\n"),
        ("101", f"{PROBE} 101", 2, over("--bound", 101)),
        ("1000000000", f"{PROBE} 1000000000", 2, over("--bound", 10**9)),
    ],
    "test_degree_caps": [  # refused before a slice is counted or a member listed
        ("2-argv0-2", f"-n 2 {DERSPACE} 100000000", 2, over("--wdeg", 10**8), CAP),
        ("2-argv1-2", f"-n 2 {DERSPACE} 101", 2, over("--wdeg", 101), CAP),
        ("1-argv2-0", f"-n 1 {DERSPACE} 100", 0, dim(102), CAP),
        ("3-argv3-2", f"-n 3 {LEMMA27} 100000", 2, over("--degree", 10**5), CAP),
        ("3-argv4-2", f"-n 3 {LEMMA27} 101", 2, over("--degree", 101), CAP),
        ("1-argv5-0", f"-n 1 {LEMMA27} 100", 0, dim(1), CAP),
    ],
    "test_max_terms_refuses_before_building": [  # charged layer by layer, members at once
        ("straightening-layers", "--max-terms 1000 -n 2 norm r1*l1^700*l2^700", 2, BUDGET,
         CAP_20),
        ("lemma27-members", "--max-terms 1000 -n 4 solve lemma27 --i 1 --degree 100", 2,
         BUDGET, CAP_20),
        # JSON exponents have no cap (ROADMAP item 4): without --max-terms this
        # file runs 7 s to `lsea: out of memory` under the same 1 GB cap
        ("json-exponent", "--max-terms 1000 der check {tmp}/der.json", 2, BUDGET,
         {**CAP_20, "files": {"der.json": json.dumps(
             _example41_with("term", {"l": [10**8, 0], "r": [1], "c": "1"}))}}),
    ],
    "test_out_of_memory_exits_2": [  # a small cap: 3 s to exit here, 10 s under 1 GB
        (None, "-n 2 norm r1*l1^700*l2^700", 2,
         re.compile(r"\Alsea: out of memory[^\n]*\n\Z"), {"cap": 1 << 28}),
    ],
    "test_exponent_notation_coefficient_exits_2_promptly": [  # Fraction would take > 10 s
        ("--alpha", "-n 1 --max-terms 1000 u1 pair --alpha 1e10000000 --h r1", 2,
         NOT_RATIONAL, {"timeout": 10}),
        ("map file", "der check {tmp}/der.json", 2, NOT_RATIONAL, {"timeout": 10, "files":
         {"der.json": json.dumps(_example41_with("c", "1e10000000"))}}),
    ],
    "test_large_degree_under_max_terms": [
        ("2-argv0-2", f"-n 2 {DERSPACE} 60", 2, BUDGET, {"timeout": 20}),
        ("2-argv1-2", f"-n 2 {LEMMA27} 40", 2, BUDGET, {"timeout": 20}),
        ("1-argv2-0", f"-n 1 {LEMMA27} 40", 0, dim(1), {"timeout": 20}),
        ("1-argv3-0", f"-n 1 {DERSPACE} 60", 0, dim(62), {"timeout": 20}),
    ],
    "test_cases_below_one_is_usage_error": [
        # refused by `run_suite`, which owns the count
        ("0", "verify cor23 --cases 0", 2, "lsea: cases must be at least 1, got 0\n"),
        ("-1", "verify cor23 --cases -1", 2, "lsea: cases must be at least 1, got -1\n"),
    ],
    # `lift_phi` owns the image count, `homogeneous_components` and
    # `weighted_slice` the weight length
    "test_count_refused_once": [
        ("endo-lift-pieces", "-n 2 endo lift 'l1;l2;l1'", 2,
         "lsea: expected 2 generator images, got 3\n"),
        ("wdeg-weights", "-n 2 wdeg --weights 1,2,3 l1", 2, WEIGHT_LENGTH),
        ("parts-weights", "-n 2 parts --weights 1 l1", 2, WEIGHT_LENGTH),
        ("der-grade-weights", "der grade {data}/example41.json --weights 1,1,1", 2,
         WEIGHT_LENGTH),
        ("derspace-weights", "-n 2 solve derspace --wdeg 1 --weights 1", 2, WEIGHT_LENGTH),
    ],
    "test_case": [
        # a map file's n, like -n, is refused by `algebra._ambient`
        ("der-check-n0", "der check {tmp}/d0.json", 2, AMBIENT_N,
         {"files": {"d0.json": EMPTY_MAP(0, "derivation")}}),
        ("der-grade-n0", "der grade {tmp}/d0.json --weights 1", 2, AMBIENT_N,
         {"files": {"d0.json": EMPTY_MAP(0, "derivation")}}),
        ("der-apply-n0", "der apply {tmp}/d0.json 1", 2, AMBIENT_N,
         {"files": {"d0.json": EMPTY_MAP(0, "derivation")}}),
        ("endo-check-n-3", "endo check {tmp}/e.json", 2, AMBIENT_N,
         {"files": {"e.json": EMPTY_MAP(-3, "endomorphism")}}),
        ("lemma27-n0", "-n 0 solve lemma27 --i 1 --degree 2", 2,
         "lsea: ambient n must be >= 1\n"),
        # an index, like -n, is refused by its library owner, `algebra._index`
        ("lemma27-index", "-n 2 solve lemma27 --i 3 --degree 2", 2,
         "lsea: index 3 out of range 1..2\n"),
        # `cli._read_file` reads every input file, so a refusal names the file
        ("ad-preimage-no-terms", "solve ad-preimage {tmp}/img.json", 2,
         re.compile(r"\Alsea: bad image file \S+/img\.json: 'terms'\n\Z"),
         {"files": {"img.json": '{"images": [{"n": 2}, {"n": 2}]}'}}),
        ("cube", "-n 1 norm '(l1+r1)^3'", 0, "l1^3 + 3*l1^2*r1 + 6*l1*r1*r1 + 6*r1*r1*r1\n"),
        ("der-apply", "-n 2 der apply {data}/example41.json 'l1^2*r2'", 0,
         "l1^2*r1*r2 - l1^2*r2*r1 + 2*l1*r1*r1*r2 + 2*r1*r1*r1*r2\n"),
        # a derivation-space basis, mostly zero images, from the map template
        ("derspace-json", "-n 3 solve derspace --wdeg 0", 0,
         lambda out: out == json.dumps(json.loads(out), indent=2) + "\n"),
        # without a budget a linear base's power is read off in closed form;
        # its 1025 terms sum_m 1024!/m! l1^m r1^(1024-m) are all positive
        ("power-1024", "-n 1 norm '(l1+r1)^1024'", 0,
         lambda out: len(out.split(" + ")) == 1025, CAP),
        # a linear base's power refuses only when it is itself over the bound
        # (372 terms fit, though `mul` builds them through 374), fast, and a
        # pure-L power is refused while A^m is built, long before m = 10000
        ("power-1024-budget", "-n 1 --max-terms 1000 norm '(l1+r1)^1024'", 2, BUDGET,
         {"timeout": 5}),
        ("power-within-budget", "-n 3 --max-terms 372 norm '(-l1+l2-l3+3*r1-2*r2+3*r3)^5'",
         0, lambda out: len(re.split(" [+-] ", out)) == 372),
        ("pure-l-power-budget", "-n 3 --max-terms 1000 norm '(l1+l2+l3)^10000'", 2, BUDGET,
         {"timeout": 5}),
        # a base of degree 2 is multiplied in on the left, x^3 = x (x x), and
        # the running product is charged after each of the three terms of x:
        # the refusal names 42 terms (right multiplication named 31)
        ("power-left-budget", "-n 2 --max-terms 30 norm '(l1^2+l2*r1+r2^2)^3'", 2,
         "lsea: term budget exceeded: intermediate result has 42 terms, over the "
         "--max-terms bound 30\n"),
        # a pure-L base has b = 0, so T^j(1) = 0 for j >= 1 and none is built;
        # the product ((j-1)ℓ + b) ... (1ℓ + b) alone has 3^(j-1) words here
        ("pure-l-power-40", "-n 3 norm '(2+l1-l2+l3)^40'", 0,
         lambda out: len(out.encode()) == 463796, {**CAP, "timeout": 5}),
        # T^j(1) as a product of linear forms: 16369 terms, each made once
        ("power-u2-12", "-n 2 norm '(l1+l2+r1+r2)^12'", 0, lambda out: hashlib.sha256(
            out.encode()).hexdigest() == POWER_12_SHA256, {**CAP, "timeout": 5}),
        ("shift", "-n 2 shift 'l1^2*l2 + 1/2*l2^3'", 0,
         "l1^2*l2 + 1/2*l2^3 - l1^2*r2 - 2*l1*l2*r1 - 3/2*l2^2*r2\n"),
        ("n-infinity", "der check {tmp}/inf.json", 2, re.compile(
            r"\Alsea: bad map file \S+: n must be an integer, got inf\n\Z"), {"files": {
            "inf.json": INFINITE_N}}),
        ("ad-long-words", "-n 2 --max-terms 1000 ad l1^5000*r1 l2^5000*r2", 2, BUDGET),
        # ad_a(b) is read off a*b - b*a, as `comm` does, not by Leibniz
        # application of ad(a), which took 9 s and 865 MB for the first and
        # ran out of memory after 46 s under a 3 GB cap for the second
        ("ad-800", "-n 2 ad l1^800*r1 l2^800*r2", 0, lambda out: hashlib.sha256(
            out.encode()).hexdigest() == AD_800_SHA256, {**CAP, "timeout": 5}),
        ("ad-u1-200", "-n 1 ad l1^200 r1^200", 0, lambda out: len(out) == 239355, CAP),
        # the running sum is charged after each term, so the sixth term trips it
        ("sum-budget", "-n 2 --max-terms 5 norm 'l1 + l2 + r1 + r2 + l1*r1 + l2*r2 + r1*r2'",
         2, "lsea: term budget exceeded: intermediate result has 6 terms, over the "
         "--max-terms bound 5\n"),
        ("zero-denominator", "-n 1 norm 1/0", 2, syntax("zero denominator", 2)),
        ("dangling-power", "-n 2 norm l1^", 2,
         syntax("exponent must be a non-negative integer", 3)),
        ("expr-unicode-digit", "-n 2 norm '٢*l1'", 2, syntax("unexpected character '٢'", 0)),
        # integers are ASCII [+-]?[0-9]+, like coefficients
        ("n-unicode-digit", "-n ٢ norm l1", 2, not_int("-n", "٢")),
        ("max-terms-underscore", "--max-terms 1_0 -n 1 norm l1", 2,
         not_int("--max-terms", "1_0")),
        ("wdeg-spaces", "-n 1 solve derspace --wdeg ' 1 '", 2,
         not_int("--wdeg", " 1 ", "lsea solve derspace")),
        ("env-unicode-digit", "-n 1 norm l1", 2, "lsea: bad LSEA_MAX_TERMS ' ٣ '\n",
         {"env": {"LSEA_MAX_TERMS": " ٣ "}}),
        ("weights-unicode-digit", "-n 2 wdeg --weights ١,2 l1", 2,
         "lsea: bad weight vector: invalid literal for int() with base 10: '١'\n"),
        # `run_suite` owns the suite name
        ("verify-unknown-suite", "verify nonsense", 2,
         "lsea: unknown suite 'nonsense'; known: cor23, cor25, equ5, example41, lemma22, "
         "lemma26, lemma27, lemma28, lemma31, lemma33, lemma41, lemma44, prop32, prop55, "
         "thm72pair\n"),
        # a map of the wrong kind is refused before it is built and checked
        ("wrong-kind-der", "der apply {data}/endo_phi.json l1", 2,
         f"lsea: {DATA / 'endo_phi.json'} holds an endomorphism, expected a derivation\n"),
        ("wrong-kind-endo", "-n 2 endo apply {data}/example41.json l1", 2,
         f"lsea: {DATA / 'example41.json'} holds a derivation, expected an endomorphism\n"),
        # a file that is not UTF-8, or nested deeper than the JSON decoder recurses
        ("json-not-utf8", "der check {tmp}/bom.json", 2, unreadable("bom.json", NOT_UTF8),
         {"files": {"bom.json": b"\xff\xfe{}"}}),
        ("json-not-utf8-ad-preimage", "solve ad-preimage {tmp}/bom.json", 2,
         unreadable("bom.json", NOT_UTF8), {"files": {"bom.json": b"\xff\xfe{}"}}),
        ("json-nested-200000", "der check {tmp}/deep.json", 2,
         unreadable("deep.json", TOO_DEEP), {"files": {"deep.json": "[" * 200000 + "]" * 200000}}),
        ("json-nested-5000-ad-preimage", "solve ad-preimage {tmp}/deep.json", 2,
         unreadable("deep.json", TOO_DEEP), {"files": {"deep.json": "[" * 5000 + "]" * 5000}}),
    ],
}


def pytest_generate_tests(metafunc):
    """A test taking `case` runs the rows CLI_CASES files under its name."""
    rows = CLI_CASES.get(metafunc.definition.name)
    if rows and rows[0][0] is not None:
        metafunc.parametrize("case", rows, ids=[row[0] for row in rows])


@pytest.fixture
def case(request):
    """The one row of a test that is not parametrized."""
    (row,) = CLI_CASES[request.node.name]
    return row


def run_case(self, run_lsea, case):
    """One row of CLI_CASES; a method of each test class under the names there."""
    _, argv, code, text, *keywords = case
    proc = run_lsea(shlex.split(argv), **(keywords[0] if keywords else {}))
    assert proc.returncode == code, proc.stderr
    got = proc.stderr if code else proc.stdout
    if isinstance(text, str):
        assert got == text
    else:
        assert (text.search if isinstance(text, re.Pattern) else text)(got), got
    assert code or proc.stderr == ""


class TestCliChildren:
    test_case = run_case

    def test_count_refused_once(self, run_lsea, case):
        # one refusal, with the message of the check's one owner, and no answer
        _, argv, code, text = case
        proc = run_lsea(shlex.split(argv))
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", text)

    def test_lift_then_check(self, run_lsea):
        lifted = run_lsea(["-n", "2", "endo", "lift", "l1+l2^2;l2"])
        assert lifted.returncode == 0
        checked = run_lsea(["endo", "check", "{tmp}/phi.json"], {"phi.json": lifted.stdout})
        assert (checked.returncode, checked.stdout) == (0, "endomorphism: OK\n")

    def test_large_answer_read_back(self, run_lsea):
        # 2,036 terms, one sum for the parser; the ^10 answer, 171,416
        # characters, is over Linux's limit on one argument
        first = run_lsea(["-n", "2", "norm", "(3*l1 + l2 + 5*r1 + 6*r2)^9"])
        again = run_lsea(["-n", "2", "norm", "--", first.stdout.rstrip("\n")])
        assert first.returncode == again.returncode == 0
        assert len(first.stdout) == 76658 and again.stdout == first.stdout

    def test_reader_closing_early(self, subprocess_env):
        # the answer, about 260 KB, outgrows the pipe buffer, so the child is
        # still writing when the reader leaves after one line; `run_lsea`
        # reads all of a child's output, so this child is started here
        argv = ["-n", "2", "solve", "derspace", "--wdeg", "4"]
        with subprocess.Popen(
            [sys.executable, "-m", "lsea.cli", *argv], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, encoding="utf-8", env=subprocess_env,
        ) as proc:
            assert proc.stdout.readline() == "{\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, "")


class TestCliBasics:
    def test_norm_straightens(self, capsys):
        code, out, _ = run_cli(capsys, "-n", "2", "norm", "r1*l2")
        assert code == 0
        assert out == "l2*r1 + r1*r2\n"

    def test_coefficient_past_int_str_limit(self, capsys):
        # r1*l1^k ends in k!*r1^(k+1); 1700! has 4756 digits, past the 4300
        # that int/str conversion allows by default
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "-n", "1", "norm", "r1*l1^1700")
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            last = f"{math.factorial(1700)}*" + "*".join(["r1"] * 1701) + "\n"
        finally:
            sys.set_int_max_str_digits(limit)
        assert out.rsplit(" + ", 1)[1] == last

    def test_literal_past_int_str_limit(self, capsys):
        literal = "7" * 5000
        code, out, err = run_cli(capsys, "-n", "1", "norm", f"{literal}*l1")
        assert code == 0 and err == ""
        assert out == f"{literal}*l1\n"

    def test_norm_cancellation(self, capsys):
        code, out, _ = run_cli(capsys, "-n", "1", "norm", "l1 - l1")
        assert code == 0 and out == "0\n"

    def test_mul_comm(self, capsys):
        code, out, _ = run_cli(capsys, "-n", "2", "mul", "r1", "l1")
        assert code == 0 and out == "l1*r1 + r1*r1\n"
        code, out, _ = run_cli(capsys, "-n", "2", "comm", "l1", "r2")
        assert code == 0 and out == "-r2*r1\n"

    def test_ad_applied_is_the_commutator(self, capsys):
        # `ad a b` prints a*b - b*a read off the products, as `comm` does;
        # applying the derivation ad(a) to b letter by letter (Leibniz) must
        # give the same bytes
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 3)
            a, b = rand_element(rng, n, 3), rand_element(rng, n, 3)
            texts = ["--", format_element(a), format_element(b)]  # "-l1" is no option
            code, out, err = run_cli(capsys, "-n", str(n), "ad", *texts)
            assert (code, err) == (0, "")
            assert run_cli(capsys, "-n", str(n), "comm", *texts) == (0, out, "")
            assert out == format_element(apply_derivation(ad(a), b)) + "\n"

    def test_lm_lc_wdeg(self, capsys):
        code, out, _ = run_cli(capsys, "-n", "2", "lm", "l1^2*r1 + l1*r2*r2")
        assert code == 0 and out == "l1^2\n"
        code, out, _ = run_cli(capsys, "-n", "2", "lc", "l1^2*r1 + l1*r2*r2")
        assert code == 0 and out == "r1\n"
        code, out, _ = run_cli(capsys, "-n", "2", "wdeg", "--weights", "1,0", "l1*r2")
        assert code == 0 and out == "1\n"
        code, out, _ = run_cli(capsys, "-n", "2", "wdeg", "--weights", "1,1", "0")
        assert code == 0 and out == "-inf\n"

    def test_shift_pderiv(self, capsys):
        code, out, _ = run_cli(capsys, "-n", "1", "shift", "l1^2")
        assert code == 0 and out == "l1^2 - 2*l1*r1\n"
        code, out, _ = run_cli(capsys, "-n", "1", "pderiv", "1", "l1^2")
        assert code == 0 and out == "2*l1\n"

    def test_parts_member_project(self, capsys):
        code, out, _ = run_cli(capsys, "-n", "1", "parts", "--weights", "1", "l1 + l1^2")
        assert code == 0
        data = json.loads(out)
        assert [p["wdeg"] for p in data["parts"]] == [1, 2]
        code, out, _ = run_cli(capsys, "-n", "2", "member", "l1*r1")
        assert json.loads(out) == {"in_L": False, "in_R": False, "in_I": True}
        code, out, _ = run_cli(capsys, "-n", "2", "project", "l1 + l1*r2")
        data = json.loads(out)
        assert data["l_part"]["terms"][0]["l"] == [1, 0]

    def test_syntax_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "-n", "1", "norm", "l1 +")
        assert code == 2
        assert "syntax error" in err

    def test_unicode_digits_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "-n", "2", "norm", "l\u0661*\u0662")
        assert (code, out) == (2, "")
        assert err == "lsea: syntax error: unexpected character '\u0661' (at position 1)\n"

    def test_index_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "-n", "2", "norm", "r3")
        assert code == 2

    @pytest.mark.parametrize("opener", ["(", "-"])
    def test_nesting_limit(self, capsys, opener):
        def nested(depth):
            closer = ")" * depth if opener == "(" else ""
            # the leading space keeps argparse from reading '-...' as an option
            return " " + opener * depth + "l1" + closer

        assert parse_element(nested(100), 1) == gen_l(1, 1)
        text = nested(10_000)
        with pytest.raises(ExprSyntaxError) as exc:
            parse_element(text, 1)
        assert exc.value.pos == 101  # the 101st opener
        code, out, err = run_cli(capsys, "-n", "1", "norm", text)
        assert code == 2 and out == ""
        assert "nesting deeper than 100 levels" in err

    def test_long_r_word(self, capsys):
        # straightening moves an r-word past a monomial one letter at a time,
        # so a word thousands of letters long costs no recursion depth
        code, out, _ = run_cli(capsys, "-n", "1", "norm", "r1^3000")
        assert code == 0
        assert out == "*".join(["r1"] * 3000) + "\n"

    def test_long_r_word_past_l(self, capsys):
        # r1 l1 = l1 r1 + r1 r1 gives r1^k l1 = l1 r1^k + k r1^(k+1)
        code, out, _ = run_cli(capsys, "-n", "1", "norm", "r1^1500*l1")
        assert code == 0
        r1500 = "*".join(["r1"] * 1500)
        assert out == f"l1*{r1500} + 1500*{r1500}*r1\n"

    def test_parser_built_once(self, capsys):
        run_cli(capsys, "-n", "1", "norm", "l1")
        misses = build_parser.cache_info().misses
        run_cli(capsys, "-n", "1", "norm", "r1")
        assert misses == 1 and build_parser.cache_info().misses == 1

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "norm", "l1")  # missing -n
        assert code == 2

    def test_max_terms_guard(self, capsys):
        code, _, err = run_cli(
            capsys, "-n", "2", "--max-terms", "3", "norm", "(l1+r1+l2+r2)^3"
        )
        assert code == 2
        assert "term budget exceeded" in err

    def test_max_terms_trips_at_fixed_count(self, capsys):
        # the closed form of a linear base's power is charged the running
        # size of its T-levels and of its output; this pins where the first
        # overrun is seen, 1536 of x^9's 2036 terms
        code, _, err = run_cli(
            capsys,
            "-n",
            "2",
            "--max-terms",
            "1500",
            "norm",
            "(1*l1+2*l2+3*r1+4*r2)^9",
        )
        assert code == 2
        assert "1536 terms" in err

    def test_max_terms_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LSEA_MAX_TERMS", "3")
        code, _, err = run_cli(capsys, "-n", "2", "norm", "(l1+r1+l2+r2)^3")
        assert code == 2 and "term budget" in err
        monkeypatch.setenv("LSEA_MAX_TERMS", "100000")
        code, _, _ = run_cli(capsys, "-n", "2", "norm", "(l1+r1+l2+r2)^3")
        assert code == 0

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_max_terms_below_one_is_usage_error(self, capsys, bound):
        code, out, err = run_cli(capsys, "-n", "2", "--max-terms", bound, "norm", "0")
        assert (code, out) == (2, "")
        assert err == f"lsea: --max-terms must be at least 1, got {bound}\n"

    def test_max_terms_env_below_one_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("LSEA_MAX_TERMS", "0")
        code, out, err = run_cli(capsys, "-n", "2", "norm", "l1")
        assert (code, out) == (2, "")
        assert err == "lsea: LSEA_MAX_TERMS must be at least 1, got 0\n"

    def test_max_terms_env_not_an_int_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("LSEA_MAX_TERMS", "abc")
        code, out, err = run_cli(capsys, "-n", "2", "norm", "l1")
        assert (code, out, err) == (2, "", "lsea: bad LSEA_MAX_TERMS 'abc'\n")

    def test_max_terms_flag_overrides_env(self, capsys, monkeypatch):
        power = ("-n", "2", "norm", "(l1+r1+l2+r2)^3")
        for env in ("3", "abc", "0"):
            monkeypatch.setenv("LSEA_MAX_TERMS", env)
            code, out, _ = run_cli(capsys, "--max-terms", "100000", *power)
            assert code == 0 and out, env
        monkeypatch.setenv("LSEA_MAX_TERMS", "100000")
        code, out, err = run_cli(capsys, "--max-terms", "3", *power)
        assert (code, out) == (2, "")
        assert "over the --max-terms bound 3" in err

    def test_max_terms_one_admits_generators(self, capsys):
        code, out, _ = run_cli(capsys, "-n", "2", "--max-terms", "1", "norm", "l1")
        assert (code, out) == (0, "l1\n")

    def test_max_terms_refuses_derspace(self, capsys):
        code, out, err = run_cli(
            capsys, "-n", "2", "--max-terms", "2", "solve", "derspace", "--wdeg", "3"
        )
        assert (code, out) == (2, "")
        assert "term budget exceeded" in err

    @pytest.mark.parametrize("n", [MAX_N + 1, 100_000_000, 10**30])
    def test_n_above_limit_exit_2(self, capsys, n):
        for argv in (
            ("norm", "l1"),
            ("lm", "l1"),
            ("solve", "derspace", "--wdeg", "1"),
            ("solve", "lemma27", "--i", "1", "--degree", "2"),
        ):
            code, out, err = run_cli(capsys, "-n", str(n), *argv)
            assert (code, out) == (2, ""), argv
            assert f"n = {n} exceeds the limit {MAX_N}" in err, argv

    def test_n_at_limit_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "-n", str(MAX_N), "norm", f"r{MAX_N}*l1")
        assert (code, out) == (0, f"l1*r{MAX_N} + r{MAX_N}*r1\n")
        assert f"1 to {MAX_N}" in build_parser().format_help()

    @pytest.mark.parametrize("k", [MAX_K + 1, 990, 10**30])
    def test_k_above_limit_exit_2(self, capsys, k):
        argv = ("-n", "2", "solve", "rfactor", "--k", str(k), "--i", "1", "--j", "2")
        code, out, err = run_cli(capsys, *argv, "--h", "1")
        assert (code, out) == (2, "")
        assert err == f"lsea: --k: k = {k} exceeds the limit {MAX_K}\n"

    def test_k_at_limit_accepted(self, capsys):
        argv = ("-n", "2", "solve", "rfactor", "--k", str(MAX_K), "--i", "1", "--j", "2")
        code, out, _ = run_cli(capsys, *argv, "--h", "0")
        assert code == 0
        assert json.loads(out) == {"u": {"n": 2, "terms": []}, "v": {"n": 2, "terms": []}}
        code, out, _ = run_cli(capsys, "solve", "rfactor", "--help")
        assert code == 0
        assert f"at most {MAX_K}" in out

    def test_r_past_high_power_needs_no_recursion(self, capsys):
        # r1 l1^b = sum_k b!/(b-k)! l1^(b-k) r1^(k+1): 1201 terms, one
        # straightening entry, more l-letters than the default recursion limit
        code, out, err = run_cli(capsys, "-n", "1", "norm", "r1*l1^1200")
        assert (code, err) == (0, "")
        terms = out.rstrip("\n").split(" + ")
        assert len(terms) == 1201
        assert terms[0] == "l1^1200*r1"
        assert terms[1] == "1200*l1^1199*r1*r1"

    test_huge_n_exits_2_promptly = run_case
    test_exponent_cap = run_case
    test_probe_bound_cap = run_case

    def test_probe_bound_in_help(self, capsys):
        code, out, _ = run_cli(capsys, "der", "probe", "--help")
        assert code == 0
        assert f"at most {MAX_BOUND}" in out

    test_degree_caps = run_case

    @pytest.mark.parametrize(
        "command, limit", [("derspace", MAX_WDEG), ("lemma27", MAX_DEGREE)]
    )
    def test_degree_caps_in_help(self, capsys, command, limit):
        code, out, _ = run_cli(capsys, "solve", command, "--help")
        assert code == 0
        assert f"at most {limit}" in out

    test_max_terms_refuses_before_building = run_case
    test_out_of_memory_exits_2 = run_case


class TestCliMaps:
    def test_der_check_ok(self, capsys):
        code, out, _ = run_cli(capsys, "der", "check", str(DATA / "example41.json"))
        assert code == 0
        assert out == "derivation: OK\n"

    def test_der_check_evaluates_each_relation_once(self, capsys, monkeypatch):
        # loading the file re-checks the map, and the answer, OK or FAIL,
        # reads that re-check: each nonzero image slot is summed once into
        # the relations its row of the table lists
        for name, code, first in (
            ("example41.json", 0, "derivation: OK"),
            ("der_fails_relations.json", 1, "derivation: FAIL"),
        ):
            calls = []

            def counted(items, entries, accs):
                calls.append(entries)
                return _letter_sum(items, entries, accs)

            monkeypatch.setattr("lsea.maps._letter_sum", counted)
            got, out, _ = run_cli(capsys, "der", "check", str(DATA / name))
            monkeypatch.undo()
            assert (got, out.splitlines()[0]) == (code, first)
            d = map_from_json(json.loads((DATA / name).read_text()))
            table = _relation_table(d.n)[1]
            assert calls == [table[slot] for slot, g in enumerate(_slots(d)) if not g.is_zero]

    def test_float_coefficient_exit_2(self, capsys, tmp_path):
        one_half = {"n": 1, "terms": [{"l": [0], "r": [], "c": 0.5}]}
        path = tmp_path / "float.json"
        path.write_text(json.dumps({
            "n": 1,
            "kind": "derivation",
            "l_images": [one_half],
            "r_images": [{"n": 1, "terms": []}],
        }))
        code, out, err = run_cli(capsys, "der", "check", str(path))
        assert (code, out) == (2, "")
        assert err == f"lsea: bad map file {path}: not an exact rational: 0.5\n"

    test_exponent_notation_coefficient_exits_2_promptly = run_case

    def test_der_check_fail_exit_1(self, capsys, tmp_path):
        bad = {
            "n": 2,
            "kind": "derivation",
            "l_images": [
                {"n": 2, "terms": [{"l": [0, 0], "r": [1], "c": "1"}]},
                {"n": 2, "terms": []},
            ],
            "r_images": [{"n": 2, "terms": []}, {"n": 2, "terms": []}],
            "verified": False,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run_cli(capsys, "der", "check", str(path))
        assert code == 1
        assert out.startswith("derivation: FAIL")

    def test_render_failure_leaves_stdout_empty(self, capsys, monkeypatch):
        # "derivation: FAIL" is rendered before the violations, and nothing is
        # written until both are
        def exhausted(data):
            raise MemoryError

        monkeypatch.setattr("lsea.cli._indented_json", exhausted)
        path = str(DATA / "der_fails_relations.json")
        code, out, err = run_cli(capsys, "der", "check", path)
        assert (code, out) == (2, "")
        assert err == (
            "lsea: out of memory; --max-terms refuses large results before they are built\n"
        )

    def test_der_apply_probe_grade(self, capsys):
        path = str(DATA / "example41.json")
        code, out, _ = run_cli(capsys, "-n", "2", "der", "apply", path, "l1*l2")
        assert code == 0
        assert out == "l1*r1*r2 + l2*r1*r1 + r1*r1*r2 + r1*r2*r1\n"
        code, out, _ = run_cli(
            capsys, "-n", "2", "der", "probe", path, "r2", "--bound", "5"
        )
        assert code == 0
        assert json.loads(out) == {"nonzero_through": 5, "degrees": [2, 3, 4, 5, 6]}
        code, out, _ = run_cli(capsys, "der", "grade", path, "--weights", "1,1")
        data = json.loads(out)
        assert [p["wdeg"] for p in data["parts"]] == [1]

    def test_map_application_under_max_terms(self, capsys, tmp_path):
        # l_i -> f_i, r_i -> 0 is an endomorphism whose relation checks stay
        # within 4 terms, while applying or composing it multiplies out
        # powers of the f_i; example 4.1 checks within 5 terms
        z = Element.zero(2)
        fs = (parse_element("l1^5+l2", 2), parse_element("l2^5+l1", 2))
        endo = tmp_path / "endo.json"
        endo.write_text(json.dumps(map_to_json(Endomorphism(2, fs, (z, z)))))
        endo, der = str(endo), str(DATA / "example41.json")
        for budget, kind, path, argv in (
            ("8", "der", der, ("-n", "2", "der", "apply", der, "l1^2*l2^2")),
            ("5", "endo", endo, ("-n", "2", "endo", "apply", endo, "l1^2*l2^2")),
            ("5", "endo", endo, ("endo", "compose", endo, endo)),
        ):
            # the budget holds while the map is loaded and checked
            code, _, _ = run_cli(capsys, "--max-terms", budget, kind, "check", path)
            assert code == 0, argv
            code, out, err = run_cli(capsys, "--max-terms", budget, *argv)
            assert (code, out) == (2, ""), argv
            assert "over the --max-terms bound" in err, argv
            assert "Traceback" not in err, argv
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0, argv

    def test_endo_lift_and_check(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "-n", "2", "endo", "lift", "l1+l2^2;l2")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "endomorphism"
        # r-image of the first slot is 2*l2*r2 + r1 in canonical order
        assert data["r_images"][0]["terms"][0]["c"] == "2"
        path = tmp_path / "phi.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "endo", "check", str(path))
        assert code == 0 and out == "endomorphism: OK\n"
        code, out, _ = run_cli(capsys, "-n", "2", "endo", "apply", str(path), "l1")
        assert out == "l2^2 + l1\n"
        code, out, _ = run_cli(capsys, "endo", "affine", str(path))
        assert code == 1 and out == "affine: no\n"

    def test_endo_compose_with_inverse(self, capsys, tmp_path):
        code, phi_json, _ = run_cli(capsys, "-n", "2", "endo", "lift", "l1+l2^2;l2")
        code, psi_json, _ = run_cli(capsys, "-n", "2", "endo", "lift", "l1-l2^2;l2")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(phi_json)
        b.write_text(psi_json)
        code, out, _ = run_cli(capsys, "endo", "compose", str(a), str(b))
        assert code == 0
        data = json.loads(out)
        assert data["l_images"][0]["terms"] == [{"l": [1, 0], "r": [], "c": "1"}]

    def test_stored_verified_flag_not_trusted(self, capsys, tmp_path):
        from lsea import element_to_json

        def tampered(name, slot):
            data = json.loads((DATA / name).read_text())
            assert data["verified"] is True
            data[slot][0] = element_to_json(gen_r(2, 1))
            path = tmp_path / name
            path.write_text(json.dumps(data))
            return str(path)

        der = tampered("example41.json", "r_images")
        endo = tampered("endo_phi.json", "l_images")
        good = str(DATA / "endo_psi.json")
        code, out, _ = run_cli(capsys, "der", "check", der)
        assert code == 1 and out.startswith("derivation: FAIL")
        for argv in (
            ("der", "apply", der, "l1"),
            ("endo", "apply", endo, "l1"),
            ("endo", "compose", endo, good),
            ("endo", "compose", good, endo),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "verified" in err, argv

    def test_zero_denominator_in_json_exit_2(self, capsys, tmp_path):
        zero_den = {"n": 2, "terms": [{"l": [0, 0], "r": [1], "c": "1/0"}]}
        images = tmp_path / "images.json"
        images.write_text(json.dumps({"images": [zero_den, {"n": 2, "terms": []}]}))
        data = json.loads((DATA / "example41.json").read_text())
        data["l_images"][1] = zero_den
        der = tmp_path / "der.json"
        der.write_text(json.dumps(data))
        for argv in (
            ("solve", "ad-preimage", str(images)),
            ("der", "check", str(der)),
            ("der", "apply", str(der), "l1"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "zero denominator" in err, argv

    def test_file_n_above_limit_exit_2(self, capsys, tmp_path):
        data = json.loads((DATA / "example41.json").read_text())
        data["n"] = 100_000_000
        der = tmp_path / "der.json"
        der.write_text(json.dumps(data))
        images = tmp_path / "images.json"
        images.write_text(
            json.dumps({"images": [{"n": 2, "terms": []}, {"n": MAX_N + 1, "terms": []}]})
        )
        for argv, path, n in (
            (("der", "check", str(der)), der, 100_000_000),
            (("der", "apply", str(der), "l1"), der, 100_000_000),
            (("solve", "ad-preimage", str(images)), images, MAX_N + 1),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert f"{path}: n = {n} exceeds the limit {MAX_N}" in err, argv

    def test_u1_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "-n", "1", "u1", "pair", "--alpha", "2", "--h", "r1^3"
        )
        assert code == 0
        data = json.loads(out)
        psi_l = data["psi"]["l_images"][0]["terms"]
        assert {"l": [1], "r": [], "c": "1/2"} in psi_l
        assert {"l": [0], "r": [1, 1, 1], "c": "-1/16"} in psi_l


class TestCliSolver:
    def test_ad_preimage(self, capsys, tmp_path):
        from lsea import ad, apply_derivation, element_to_json

        g = Element.from_word(2, (0, 0), (1, 2))
        us = [apply_derivation(ad(gen_l(2, i)), g) for i in (1, 2)]
        path = tmp_path / "images.json"
        path.write_text(json.dumps({"images": [element_to_json(u) for u in us]}))
        code, out, _ = run_cli(capsys, "solve", "ad-preimage", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["g"]["terms"] == [{"l": [0, 0], "r": [1, 2], "c": "1"}]

    def test_ad_preimage_incompatible_exit_2(self, capsys, tmp_path):
        from lsea import element_to_json

        us = [
            Element.from_word(2, (0, 0), (1, 1)),
            Element.from_word(2, (0, 0), (2, 2)),
        ]
        path = tmp_path / "images.json"
        path.write_text(json.dumps({"images": [element_to_json(u) for u in us]}))
        code, _, err = run_cli(capsys, "solve", "ad-preimage", str(path))
        assert code == 2
        assert "compatibility" in err

    @pytest.mark.parametrize(
        "g, code",
        [
            # degree 42: an elimination over its slice would have 10^13 unknowns
            (Element.from_word(2, (0, 40), (1,)), 0),
            # 256 terms; the re-check's products have at most 767, and the
            # compatibility commutators (1022) run only after a failure
            (mul(gen_r(2, 1), (gen_r(2, 1) + gen_r(2, 2)) ** 8), 0),
            # 384 terms and images of 766 and 894; the re-check's g * l1 has 1150
            (mul(gen_r(2, 1), (gen_r(2, 1) + gen_r(2, 2)) ** 8)
             + mul(gen_r(2, 2) * gen_r(2, 1), (gen_r(2, 1) + gen_r(2, 2)) ** 7), 2),
        ],
    )
    def test_ad_preimage_bounded(self, run_lsea, g, code):
        # a child capped at 1 GB of address space answers at once or exits 2
        us = [apply_derivation(ad(gen_l(2, i)), g) for i in (1, 2)]
        images = {"images.json": json.dumps({"images": [element_to_json(u) for u in us]})}
        argv = ["--max-terms", "1000", "solve", "ad-preimage", "{tmp}/images.json"]
        proc = run_lsea(argv, images, **CAP)
        assert proc.returncode == code
        if code == 0:
            assert element_from_json(json.loads(proc.stdout)["g"]) == g
        else:
            assert "over the --max-terms bound 1000" in proc.stderr

    def test_lemma27(self, capsys):
        code, out, _ = run_cli(
            capsys, "-n", "2", "solve", "lemma27", "--i", "1", "--degree", "2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 2

    def test_rfactor(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "-n",
            "2",
            "solve",
            "rfactor",
            "--k",
            "2",
            "--i",
            "1",
            "--j",
            "2",
            "--h",
            "1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["u"]["terms"] == [{"l": [0, 0], "r": [2], "c": "-1"}]
        assert data["v"]["terms"] == [{"l": [0, 0], "r": [1], "c": "-1"}]

    def test_derspace(self, capsys):
        code, out, _ = run_cli(
            capsys, "-n", "2", "solve", "derspace", "--wdeg", "1", "--into-i"
        )
        assert code == 0
        assert json.loads(out)["dim"] == 4

    def test_derspace_u1_degree_zero_pinned(self, capsys):
        # D(l_1) = r_1 and the lift of l_1 d/dl_1; the stdout digest was
        # recorded from the eliminated residual system
        code, out, _ = run_cli(capsys, "-n", "1", "solve", "derspace", "--wdeg", "0")
        assert code == 0
        members = [
            [format_element(element_from_json(g)) for g in (*d["l_images"], *d["r_images"])]
            for d in json.loads(out)["basis"]
        ]
        assert members == [["r1", "0"], ["l1", "r1"]]
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "fdeba9d9867a7c5d63df20b26dde879accfeb08e4584e896f8839ce462c6326e"

    test_large_degree_under_max_terms = run_case


class TestCliVerify:
    def test_verify_ok(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "cor25", "--seed", "7", "--cases", "25")
        assert code == 0
        assert out == "suite cor25: seed=7 cases=25 failures=0 anomalies=0\n"

    def test_verify_example41(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "example41", "--seed", "1")
        assert code == 0
        assert "cases=5 failures=0" in out

    def test_unknown_suite_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "nonsense")
        assert code == 2

    test_cases_below_one_is_usage_error = run_case

    def test_verify_failures_exit_1(self, capsys, monkeypatch):
        import lsea.verify
        from lsea.verify import RunReport

        def fake(name, seed=0, cases=100):
            return RunReport(name, seed, cases, failures=[{"case": "stub"}])

        monkeypatch.setattr(lsea.verify, "run_suite", fake)
        code, out, _ = run_cli(capsys, "verify", "cor25", "--seed", "1", "--cases", "5")
        assert code == 1
        assert "failures=1" in out

    def test_anomaly_exit_3(self, capsys, monkeypatch):
        import lsea.cli
        from lsea.solver import AnomalyError

        def explode(us):
            raise AnomalyError("forced", payload={"why": "test"})

        monkeypatch.setattr(lsea.cli, "ad_preimage", explode)
        import json as _json
        from lsea import element_to_json

        us = [
            Element.from_word(2, (0, 0), (1, 2)),
            Element.from_word(2, (0, 0), (1, 2)),
        ]
        import tempfile, os

        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            _json.dump({"images": [element_to_json(u) for u in us]}, fh)
            path = fh.name
        try:
            code, out, err = run_cli(capsys, "solve", "ad-preimage", path)
        finally:
            os.unlink(path)
        assert code == 3
        assert "anomaly" in err
        assert _json.loads(out)["payload"] == {"why": "test"}


class TestDeterminism:
    COMMANDS = [
        ("-n", "2", "norm", "(l1+r1+l2)^3"),
        ("-n", "2", "mul", "r1*r2", "l1*l2"),
        ("-n", "2", "comm", "l1^2", "r2*r1"),
        ("-n", "2", "ad", "l1+r2"),
        ("-n", "2", "ad", "l1", "r2"),
        ("-n", "3", "pderiv", "2", "l1*l2^2*l3"),
        ("-n", "2", "shift", "l1^2*l2"),
        ("-n", "2", "lm", "l1*r1 + l2*r2*r1"),
        ("-n", "2", "lc", "l1*r1 + l2*r2*r1"),
        ("-n", "2", "wdeg", "--weights", "1,-1", "l1*r2 + r1"),
        ("-n", "2", "parts", "--weights", "1,1", "l1 + r1*r2 + l2^3"),
        ("-n", "2", "member", "r1*r2"),
        ("-n", "2", "project", "l1 + r1"),
        ("der", "check", str(DATA / "example41.json")),
        ("-n", "2", "der", "apply", str(DATA / "example41.json"), "l1*r2"),
        ("-n", "2", "der", "probe", str(DATA / "example41.json"), "r2", "--bound", "4"),
        ("der", "grade", str(DATA / "example41.json"), "--weights", "1,1"),
        ("-n", "2", "endo", "lift", "l1+l2^2;l2"),
        ("-n", "1", "u1", "pair", "--alpha", "3", "--h", "r1^2 - r1"),
        ("-n", "2", "solve", "lemma27", "--i", "2", "--degree", "3"),
        ("-n", "2", "solve", "rfactor", "--k", "3", "--i", "2", "--j", "1", "--h", "r1"),
        ("-n", "2", "solve", "derspace", "--wdeg", "0"),
        ("verify", "lemma22", "--seed", "3", "--cases", "10"),
        ("verify", "thm72pair", "--seed", "5", "--cases", "5"),
    ]

    def test_identical_runs_identical_bytes(self, capsys):
        for argv in self.COMMANDS:
            code1, out1, _ = run_cli(capsys, *argv)
            code2, out2, _ = run_cli(capsys, *argv)
            assert code1 == code2, argv
            assert out1 == out2, argv
            assert code1 in (0, 1), argv


# -- the indented JSON writer ---------------------------------------------------

WRITER = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# any character, with quotes, backslashes, control and non-ASCII ones boosted
TEXT = st.text(st.characters() | st.sampled_from('"\\/\n\r\t\x00\x1f\x7f é€😀'))
SCALARS = st.none() | st.booleans() | st.integers() | TEXT
# plain dicts of the term shape {"l", "r", "c"} of element JSON and near
# misses of it: the writer sniffs no template, so both take the generic path
TERM = st.fixed_dictionaries(
    {
        "l": st.lists(st.integers(0, 3), max_size=3),
        "r": st.lists(st.integers(1, 3), max_size=4),
        "c": TEXT,
    }
)
NEAR_TERM = st.fixed_dictionaries(
    {
        "l": st.lists(st.integers(0, 3) | st.booleans(), max_size=3),
        "r": st.lists(st.integers(1, 3), max_size=4) | st.tuples(st.integers(1, 3)),
        "c": TEXT | st.integers(),
    }
)
# elements the writer prints from `canonical_walk`: zero, n up to 12, rational
# coefficients and coefficients of thousands of digits
COEFF = st.builds(
    Fraction,
    st.integers(-(10**6), 10**6) | st.sampled_from([-1, 7**6000, -(3**9100), 10**4400 - 1]),
    st.sampled_from([1, 1, 2, 3, 35, 10**9 + 7, 11**4200]),
)


@st.composite
def elements(draw, n=None):
    n = n or draw(st.integers(1, 12))
    word = st.tuples(
        st.tuples(*[st.integers(0, 3)] * n),
        st.lists(st.integers(1, n), max_size=4).map(tuple),
    )
    return Element(n, draw(st.lists(st.tuples(word, COEFF), max_size=5)))


@st.composite
def maps(draw):
    # two-digit n reaches the map template's images and zero-image texts;
    # zero images are as common as in a derivation-space basis
    n = draw(st.integers(1, 12))
    image = st.just(Element.zero(n)) | elements(n)
    images = st.lists(image, min_size=n, max_size=n).map(tuple)
    kind = draw(st.sampled_from([Derivation, Endomorphism]))
    return kind(n, draw(images), draw(images), draw(st.booleans()))


JSON_DATA = st.recursive(
    SCALARS | TERM | NEAR_TERM | elements() | maps(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30,
)


def _call_site_payloads(seed):
    """One payload of each shape `_emit_json` prints, built from seeded data:
    name -> (the objects `cli` passes, their JSON twin)."""
    rng = random.Random(seed)
    z = Element.zero(2)
    phi = lift_phi(2, [gen_l(2, 1) + rand_lpoly(rng, 2, 2), gen_l(2, 2)])
    pre = rand_homogeneous_I(rng, 2, 3)
    us = [apply_derivation(ad(gen_l(2, i)), pre) for i in (1, 2)]
    g_pre = ad_preimage(us)
    u, v = rfactor_decompose(3, 2, 1, rand_rpoly(rng, 2, 2))
    alpha = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    phi1, psi1 = u1_closed_form(alpha, rand_rpoly(rng, 1, 3))
    bad = check_derivation(Derivation(2, (gen_r(2, 1), z), (z, z)))[1]
    space = derivation_space(2, 1, into_I=True)
    space0 = derivation_space(3, 0)  # most images are zero
    sols = lemma27_solutions(2, 1, 2)
    g = rand_element(rng, 2, 4)
    d = rand_verified_derivation(rng, 2)
    trees = {
        "element": g,
        "zero element": Element.zero(3),
        "derivation": d,
        "endomorphism": phi,
        "parts": {"parts": [{"wdeg": 1, "element": g}, {"wdeg": 2, "element": z}]},
        "grade": {"parts": [{"wdeg": 0, "map": d}]},
        "derspace": {"dim": len(space), "basis": space},
        "derspace wdeg 0": {"dim": len(space0), "basis": space0},
        "ad-preimage": {"g": g_pre, "kernel_dim": 0},
        "lemma27": {"dim": len(sols), "basis": sols},
        "rfactor": {"u": u, "v": v},
        "u1 pair": {"phi": phi1, "psi": psi1},
        "violations": {"violations": violations_to_json(bad)},
        "member": {"in_L": False, "in_R": True, "in_I": True},
        "probe": {"nonzero_through": 3, "degrees": [2, 3, 4]},
    }
    return {name: (tree, _json_twin(tree)) for name, tree in trees.items()}


def _json_twin(data):
    """data with each `Element` and map replaced by its JSON form.  A map is
    a NamedTuple, which `json.dumps` writes as an array without asking its
    `default`, so the maps are replaced here, ahead of the lists and tuples."""
    if isinstance(data, Element):
        return element_to_json(data)
    if isinstance(data, (Derivation, Endomorphism)):
        return map_to_json(data)
    if isinstance(data, dict):
        return {key: _json_twin(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [_json_twin(value) for value in data]
    return data


class TestIndentedJson:
    @WRITER
    @given(JSON_DATA)
    def test_matches_json_dumps(self, data):
        assert _indented_json(data) == json.dumps(_json_twin(data), indent=2)

    @pytest.mark.parametrize(
        "data",
        [
            {},
            [],
            (),
            "",
            0,
            -(10**40),
            {"l": [], "r": [], "c": ""},
            {"l": [0, 2], "r": [1], "c": "-3/4"},
            {"r": [1], "l": [0], "c": "1"},
            {"l": [True], "r": [], "c": "1"},
            {"l": [0], "r": [], "c": 1},
            {"l": (0,), "r": [], "c": "1"},
            {"l": [0], "r": [], "c": "1", "x": None},
            {"\u00e9": "a", "": "b", '"\\': "c", "\n": "d"},
            [1.5, float("inf"), -0.0],
        ],
    )
    def test_edge_shapes(self, data):
        assert _indented_json(data) == json.dumps(data, indent=2)

    def test_refuses_what_json_refuses(self):
        for data in ({(1, 2): 3}, {"a": object()}, [{1, 2}]):
            with pytest.raises(TypeError):
                json.dumps(data, indent=2)
            with pytest.raises(TypeError):
                _indented_json(data)
        # every key lsea writes is a str; json.dumps would quote these
        for key in (1, None, True, 2.5):
            with pytest.raises(TypeError, match="keys must be str"):
                _indented_json({"a": 1, key: "b"})

    @pytest.mark.parametrize("seed", range(3))
    def test_every_call_site_shape(self, seed):
        for name, (objects, twin) in _call_site_payloads(seed).items():
            assert _indented_json(objects) == json.dumps(twin, indent=2), name
            assert _indented_json(twin) == json.dumps(twin, indent=2), name

    def test_anomaly_payload_with_system(self, monkeypatch, residual_system, system_json):
        # a leading-span anomaly payload with the dense view of the Lemma 2.7
        # reference system beside it: long rows of exact strings
        from lsea import solver
        from lsea.solver import AnomalyError, lemma27_solutions

        monkeypatch.setattr(solver, "lm_lc", lambda g: (None, gen_r(2, 1)))
        with pytest.raises(AnomalyError) as exc:
            lemma27_solutions(2, 1, 3)
        unknown, rows = residual_system.lemma27(2, 1, 3)
        payload = {**exc.value.payload, "system": system_json(rows, len(unknown))}
        data = {"anomaly": str(exc.value), "payload": payload}
        assert (payload["system"]["rows"], payload["system"]["cols"]) == (52, 22)
        assert _indented_json(data) == json.dumps(data, indent=2)


# -- strict JSON loaders ----------------------------------------------------------


class TestStrictJsonLoaders:
    @pytest.mark.parametrize(
        "argv, build",
        [
            (("-n", "2", "der", "apply", "{tmp}/input.json", "l1"), _example41_with),
            (("der", "grade", "{tmp}/input.json", "--weights", "1,1"), _example41_with),
            (("solve", "ad-preimage", "{tmp}/input.json"), _images_with),
        ],
        ids=["der-apply", "der-grade", "ad-preimage"],
    )
    @pytest.mark.parametrize(
        "field, value",
        [("n", 2.7), ("n", float("inf")), ("l", [0.0, False]), ("r", [1.0, True])],
        ids=["n", "n-infinity", "exponents", "r-letters"],
    )
    def test_non_int_exits_2_without_traceback(self, run_lsea, argv, build, field, value):
        proc = run_lsea(argv, {"input.json": json.dumps(build(field, value))})
        assert proc.returncode == 2
        assert re.fullmatch(r"lsea: bad [^\n]*must be an integer[^\n]*\n", proc.stderr)

    @pytest.mark.parametrize("field", ["map n", "n", "l", "r"])
    @pytest.mark.parametrize(
        "bad",
        [float, bool, str, lambda _: float("inf")],
        ids=["float", "bool", "str", "infinity"],
    )
    def test_every_non_int_is_usage_error(self, capsys, tmp_path, field, bad):
        if field in ("map n", "n"):
            value = bad(2)
        else:
            ints = json.loads((DATA / "example41.json").read_text())["l_images"][0]
            value = [bad(x) for x in ints["terms"][0][field]]
        path = tmp_path / "d.json"
        path.write_text(json.dumps(_example41_with(field, value)))
        for argv in (("der", "check", str(path)), ("der", "apply", str(path), "l1")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "must be an integer" in err, argv


# -- the same contract in process, on drawn argv ----------------------------------

FILE_INPUTS = {
    p.name: json.loads(p.read_text())
    for p in sorted(DATA.glob("*.json"))
    if not p.name.startswith("golden")
}
JSON_VALUES = st.sampled_from(
    [-1, 0, 1, 2, MAX_N + 1, 10**30, 2.5, float("inf"), True, None, "x", "1/0",
     "٢", "1e9", [], [0, 1], {}, {"n": 2, "terms": []}]
)
GENERATORS = st.builds("{}{}".format, st.sampled_from("lr"), st.integers(1, 3))
EXPRESSIONS = st.recursive(
    st.one_of(
        GENERATORS,
        GENERATORS,
        st.sampled_from(["0", "1", "2", "7", "1/2", "3/4"]),
        st.sampled_from(["1/0", "x", "", "l", "^", "(", "١", "l1_0", "r0", "l4"]),
    ),
    lambda inner: st.one_of(
        st.builds("({})".format, inner),
        st.builds("(-{})".format, inner),
        st.builds("{}{}{}".format, inner, st.sampled_from("+-*"), inner),
        st.builds("{}^{}".format, inner, st.integers(0, 12).map(str)),
    ),
    max_leaves=5,
)
INTS = st.one_of(st.integers(1, 3).map(str), st.sampled_from(["0", "-1", "1_0", " 1", "٢"]))


@st.composite
def mutated_file(draw):
    """(name, text) of a copy of a tests/data input with one value replaced
    or one key dropped."""
    name = draw(st.sampled_from(sorted(FILE_INPUTS)))
    data = copy.deepcopy(FILE_INPUTS[name])
    holders, todo = [], [data]
    while todo:
        node = todo.pop()
        keys = range(len(node)) if isinstance(node, list) else list(node)
        holders += [(node, k) for k in keys]
        todo += [node[k] for k in keys if isinstance(node[k], (list, dict))]
    node, key = draw(st.sampled_from(holders))
    if isinstance(node, dict) and draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(JSON_VALUES)
    return name, json.dumps(data)


@st.composite
def cli_inputs(draw):
    """(argv, input file text or None) over the element commands, --weights
    and mutated input files, with --max-terms 2000."""
    n = draw(st.sampled_from(["1", "2", "3", None, "0"]))
    argv = ["--max-terms", "2000"] + (["-n", n] if n else [])
    size = int(n) if n and draw(st.booleans()) else draw(st.integers(1, 3))
    weights = ",".join(draw(st.lists(INTS, min_size=size, max_size=size)))
    expr = draw(EXPRESSIONS)
    if draw(st.integers(0, 2)):  # a third of the draws read a mutated input file
        one = ["norm", "shift", "lm", "lc", "member", "project", "ad"]
        command = draw(st.sampled_from([*one, "mul", "comm", "pderiv", "wdeg", "parts"]))
        if command in one:
            return argv + [command, expr], None
        if command in ("mul", "comm"):
            return argv + [command, expr, draw(EXPRESSIONS)], None
        if command == "pderiv":
            return argv + [command, draw(INTS), expr], None
        return argv + [command, "--weights", weights, expr], None
    name, text = draw(mutated_file())
    kind = FILE_INPUTS[name].get("kind")
    if kind == "derivation":
        tail = draw(st.sampled_from([["check"], ["apply", expr], ["probe", expr, "--bound",
                                     draw(INTS)], ["grade", "--weights", weights]]))
        return argv + ["der", tail[0], "FILE", *tail[1:]], text
    if kind == "endomorphism":
        tail = draw(st.sampled_from([["check"], ["apply", expr], ["affine"],
                                     ["compose", "FILE"]]))
        return argv + ["endo", tail[0], "FILE", *tail[1:]], text
    return argv + ["solve", "ad-preimage", "FILE"], text


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(cli_inputs())
def test_drawn_argv_keeps_the_contract(fuzz_file, drawn):
    argv, text = drawn
    if text is not None:
        fuzz_file.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(fuzz_file) if a == "FILE" else a for a in argv])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
