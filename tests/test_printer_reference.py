"""The int-native canonical printer against the Fraction printer it replaced.

`reference_format` and `reference_json` are `parser.format_element` and
`algebra.element_to_json` as they were before both moved onto
`algebra.canonical_walk`: one Fraction per term, sorted by `word_key`.  The
text and the JSON bytes must agree exactly on seeded elements of every
shape the printer meets: n up to 12 (so `r10` and `l11^3` occur), integer
and rational coefficients, coefficients of thousands of digits, the unit
word, and zero.
"""

import json
import random
import sys
from fractions import Fraction

import pytest

from lsea import Element, element_to_json, gen_l, gen_r, mul
from lsea.algebra import exact_str, word_key
from lsea.cli import _indented_json
from lsea.parser import format_element, parse_element


def _reference_terms(g):
    return sorted(g.terms(), key=lambda t: word_key(t[0]), reverse=True)


def _word_str(word) -> str:
    factors = [
        f"l{i + 1}" if e == 1 else f"l{i + 1}^{e}"
        for i, e in enumerate(word.lexp)
        if e
    ]
    factors.extend(f"r{j}" for j in word.rword)
    return "*".join(factors)


def reference_format(g) -> str:
    if g.is_zero:
        return "0"
    pieces = []
    for word, c in _reference_terms(g):
        ws = _word_str(word)
        mag = abs(c)
        if not ws:
            body = exact_str(mag)
        elif mag == 1:
            body = ws
        else:
            body = f"{exact_str(mag)}*{ws}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def reference_json(g) -> dict:
    return {
        "n": g.n,
        "terms": [
            {"l": list(w.lexp), "r": list(w.rword), "c": exact_str(c)}
            for w, c in _reference_terms(g)
        ],
    }


def _coefficient(rng, den, big):
    num = rng.choice([1, 1, 2, 3, 12, 10**6 + 3, 7**40])
    if big:
        num = rng.choice([7**6000, 3**9100 + 1, 10**4400 - 1])
    num *= rng.choice([1, -1])
    return Fraction(num, den) if den != 1 else Fraction(num)


def _random_element(rng, n, *, den_choices, big_rate):
    terms = []
    for _ in range(rng.randint(1, 25)):
        # few exponents and short words, so that words share L-monomials and
        # r-words of one length compete in the tuple order
        lexp = tuple(rng.choice([0, 0, 0, 1, 3]) for _ in range(n))
        rword = tuple(rng.randint(1, n) for _ in range(rng.choice([0, 1, 2, 2, 3, 5])))
        den = rng.choice(den_choices)
        terms.append(((lexp, rword), _coefficient(rng, den, rng.random() < big_rate)))
    return Element(n, terms)


def _check(g):
    text = format_element(g)
    assert text == reference_format(g)
    data = element_to_json(g)
    assert data == reference_json(g)
    # the CLI's writer prints g itself from canonical_walk, and a plain dict
    # tree by the encoder's rules: the same bytes
    reference = json.dumps(reference_json(g), indent=2)
    assert _indented_json(g) == reference
    assert _indented_json(data) == reference
    return text


@pytest.mark.parametrize("seed", range(6))
def test_integer_coefficients(seed):
    rng = random.Random(3100 + seed)
    for _ in range(60):
        n = rng.randint(1, 12)
        _check(_random_element(rng, n, den_choices=[1], big_rate=0.0))


@pytest.mark.parametrize("seed", range(6))
def test_rational_coefficients(seed):
    # mixed denominators: after the lcm some numerators share the whole
    # denominator (integer coefficients), some part of it, some none
    rng = random.Random(3200 + seed)
    for _ in range(60):
        n = rng.randint(1, 12)
        dens = [1, 2, 3, 4, 9, 35, 10**9 + 7]
        _check(_random_element(rng, n, den_choices=dens, big_rate=0.0))


def test_coefficients_past_int_str_limit():
    rng = random.Random(3300)
    limit = sys.get_int_max_str_digits()
    for _ in range(12):
        n = rng.randint(1, 12)
        g = _random_element(rng, n, den_choices=[1, 11**4200], big_rate=0.5)
        _check(g)
    assert sys.get_int_max_str_digits() == limit


def test_large_indices_and_exponents():
    g = Element(12, [(((0,) * 10 + (3, 0), (10, 12, 1)), Fraction(-5, 3))])
    g = g + gen_r(12, 10) - gen_l(12, 11) ** 3 + Element.one(12) * Fraction(7, 2)
    text = _check(g)
    assert text == "-5/3*l11^3*r10*r12*r1 - l11^3 + r10 + 7/2"
    assert parse_element(text, 12) == g


@pytest.mark.parametrize(
    "g",
    [
        Element.zero(1),
        Element.zero(12),
        Element.one(3),
        -Element.one(2),
        Element.one(1) * Fraction(-3, 4),
        -gen_r(2, 2),
        mul(gen_r(2, 1), (gen_l(2, 1) - 2 * gen_l(2, 2)) ** 3) / 6,
    ],
    ids=["zero1", "zero12", "one", "minus_one", "constant", "minus_r2", "straightened"],
)
def test_edge_elements(g):
    _check(g)


def test_products_and_powers():
    rng = random.Random(3400)
    for n in (1, 2, 3):
        x = gen_r(n, rng.randint(1, n)) - Fraction(1, 2) * gen_r(n, 1)
        for i in range(1, n + 1):
            x = x + Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * gen_l(n, i)
        for k in range(6 if n < 3 else 4):
            _check(x**k)
