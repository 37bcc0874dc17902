"""Property tests of the product kernel against the rewriting oracle, and of
the integer storage of elements.

Elements are drawn as rational combinations of arbitrary generator words in
U_2 and U_3 and realized through `normal_form_oracle`, which shares no code
with `mul`.  The validating constructor is checked against a sum of
`Fraction`s word by word.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsea import (
    AmbientMismatch,
    BasisWord,
    DomainError,
    Element,
    ad,
    apply_derivation,
    apply_endo,
    commutator,
    element_from_json,
    element_to_json,
    format_element,
    gen_l,
    gen_r,
    homogeneous_components,
    lift_phi,
    lm_lc,
    mul,
    normal_form_oracle,
    parse_element,
    pderiv_l,
    project_to_L,
)

KERNEL = settings(max_examples=60, deadline=None, derandomize=True, database=None)

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)


@st.composite
def expansions(draw, n):
    """[(coefficient, word)] with words of up to three generators."""
    letter = st.tuples(st.sampled_from("lr"), st.integers(1, n))
    word = st.lists(letter, max_size=3).map(tuple)
    return draw(st.lists(st.tuples(COEFFS, word), min_size=1, max_size=3))


@st.composite
def operands(draw):
    n = draw(st.sampled_from([2, 3]))
    return n, draw(expansions(n)), draw(expansions(n))


def realize(n, expansion):
    out = Element.zero(n)
    for c, word in expansion:
        out = out + c * normal_form_oracle(n, word)
    return out


@KERNEL
@given(operands())
def test_mul_matches_oracle_on_expanded_words(ops):
    n, xa, xb = ops
    expected = Element.zero(n)
    for ca, wa in xa:
        for cb, wb in xb:
            expected = expected + (ca * cb) * normal_form_oracle(n, wa + wb)
    assert mul(realize(n, xa), realize(n, xb)) == expected


@KERNEL
@given(operands(), COEFFS)
def test_mul_invariant_under_moving_a_scalar(ops, q):
    n, xa, xb = ops
    a, b = realize(n, xa), realize(n, xb)
    assert mul(a * q, b / q) == mul(a, b)


@KERNEL
@given(operands())
def test_products_store_no_zero_coefficients(ops):
    n, xa, xb = ops
    a, b = realize(n, xa), realize(n, xb)
    product = mul(a, b)
    assert all(type(c) is Fraction and c for _, c in product.terms())
    assert mul(a, b - b) == Element.zero(n)
    assert mul(a, b) + mul(-a, b) == Element.zero(n)


@KERNEL
@given(operands())
def test_commuting_products_cancel_exactly(ops):
    # polynomials in the l's commute, so f*g - g*f cancels term by term
    n, xa, xb = ops

    def polynomial(x):
        return realize(n, [(c, tuple(g for g in w if g[0] == "l")) for c, w in x])

    f, g = polynomial(xa), polynomial(xb)
    assert mul(f, g) - mul(g, f) == Element.zero(n)


# -- the storage: one positive denominator over reduced int numerators ----------


def storage(g):
    return g.n, g._den, g._nums


def assert_canonical(g):
    assert g._den > 0
    assert gcd(g._den, *g._nums.values()) == 1
    assert all(type(c) is int and c for c in g._nums.values())
    # words are stored as plain (lexp, rword) pairs and handed out as BasisWord
    for key in g._nums:
        assert type(key) is tuple and len(key) == 2
        assert type(key[0]) is tuple and len(key[0]) == g.n
        assert type(key[1]) is tuple
    for word, c in g.terms():
        assert type(word) is BasisWord
        assert type(c) is Fraction and c
        assert type(g.coefficient(word.lexp, word.rword)) is Fraction
        assert g.coefficient(word.lexp, word.rword) == c
    assert type(g.coefficient((0,) * g.n, (1,) * 9)) is Fraction


STEPS = st.sampled_from(["add", "sub", "mul", "scale", "div"])


@st.composite
def programs(draw):
    """A start expansion and up to four arithmetic steps, each with an
    operand expansion and a rational scalar."""
    n = draw(st.sampled_from([2, 3]))
    steps = st.tuples(STEPS, expansions(n), COEFFS)
    return n, draw(expansions(n)), draw(st.lists(steps, min_size=1, max_size=4))


def apply_step(g, step, n):
    op, x, q = step
    h = realize(n, x)
    if op == "add":
        return g + h
    if op == "sub":
        return g - h
    if op == "mul":
        return mul(g, h)
    return g * q if op == "scale" else g / q


@KERNEL
@given(programs())
def test_storage_canonical_along_random_arithmetic(program):
    n, start, steps = program
    g = realize(n, start)
    assert_canonical(g)
    for step in steps:
        g = apply_step(g, step, n)
        assert_canonical(g)
        # rebuilt from its rational terms by the validating constructor
        assert storage(Element(n, list(g.terms()))) == storage(g)


@KERNEL
@given(operands(), COEFFS)
def test_two_construction_paths_store_identically(ops, q):
    n, xa, xb = ops
    a, b = realize(n, xa), realize(n, xb)
    for left, right in (
        ((a + b) - b, a),
        (a * q / q, a),
        (mul(a * q, b), q * mul(a, b)),
        (a - a, Element.zero(n)),
        (a + b + (-b), a),
        (a + a, 2 * a),
    ):
        assert_canonical(left)
        assert storage(left) == storage(right)


@KERNEL
@given(operands(), COEFFS)
def test_every_result_stores_plain_words(ops, q):
    """Every operation that builds an element stores plain (lexp, rword)
    keys: products, sums, scalings, powers, both constructors, both
    parsers, the leading data, projections, gradings and applied maps; and
    text and JSON give back an operand and a scaled product unchanged."""
    n, xa, xb = ops
    a, b = realize(n, xa), realize(n, xb)
    f = project_to_L(a)[0] + gen_l(n, 1)
    d = ad(a)
    for k in range(n):
        assert d.l_images[k] == commutator(a, gen_l(n, k + 1))
        assert d.r_images[k] == commutator(a, gen_r(n, k + 1))
    results = [
        a,
        mul(a, b),
        a + b,
        a - b,
        -a,
        a * q,
        q * a,
        a / q,
        a**2,
        b**0,
        Element(n, list(a.terms())),
        Element.from_word(n, (1,) * n, (n,), q),
        parse_element(format_element(a), n),
        element_from_json(element_to_json(a)),
        lm_lc(a)[1],
        *project_to_L(b),
        pderiv_l(1, f),
        *homogeneous_components(a, range(1, n + 1)).values(),
        *d.l_images,
        *d.r_images,
        apply_derivation(d, b),
        apply_endo(lift_phi(n, [f] * n), b),
    ]
    for g in results:
        assert_canonical(g)
    for g in (a, q * mul(a, b)):
        assert parse_element(format_element(g), n) == g
        assert element_from_json(element_to_json(g)) == g


# -- the validating constructor against a Fraction sum ----------------------------


@st.composite
def words(draw, n):
    """(lexp, rword) with exponents up to 2 and up to three r-letters."""
    lexp = draw(st.tuples(*[st.integers(0, 2)] * n))
    rword = draw(st.lists(st.integers(1, n), max_size=3).map(tuple))
    return lexp, rword


def spellings(word):
    """The same word as a plain pair, a BasisWord and a pair of lists."""
    lexp, rword = word
    return st.sampled_from([word, BasisWord(lexp, rword), [list(lexp), list(rword)]])


def coeff_forms(c: Fraction):
    """The same rational as an int (when it is one), a Fraction and a str."""
    forms = [c, str(c)]
    if c.denominator == 1:
        forms.append(int(c))
    return st.sampled_from(forms)


@st.composite
def term_lists(draw):
    """n and a list of (word, coefficient) pairs over a small pool of words,
    so words repeat, with some pairs followed later by their negation, so
    words cancel; each word and coefficient in one of its spellings."""
    n = draw(st.sampled_from([1, 2, 3]))
    pool = draw(st.lists(words(n), min_size=1, max_size=4))
    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    raw = draw(st.lists(st.tuples(st.sampled_from(pool), rationals), max_size=8))
    cancelled = draw(st.lists(st.sampled_from(raw), max_size=len(raw))) if raw else []
    raw += [(w, -c) for w, c in cancelled]
    raw = draw(st.permutations(raw))
    return n, [(draw(spellings(w)), draw(coeff_forms(c))) for w, c in raw]


def fraction_reference(terms) -> dict:
    ref: dict[BasisWord, Fraction] = {}
    for (lexp, rword), c in terms:
        word = BasisWord(tuple(lexp), tuple(rword))
        ref[word] = ref.get(word, Fraction(0)) + Fraction(c)
    return {w: c for w, c in ref.items() if c}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(term_lists())
def test_constructor_matches_fraction_sum(case):
    n, terms = case
    g = Element(n, terms)
    assert_canonical(g)
    assert dict(g.terms()) == fraction_reference(terms)
    assert g == Element(n, dict(g.terms()))


BAD_ENTRIES = [
    # (id, word at n, coefficient, error, message)
    ("short exponent vector", lambda n: ((0,) * (n - 1), ()), 1, AmbientMismatch, "not of length"),
    ("long exponent vector", lambda n: ((0,) * (n + 1), ()), 1, AmbientMismatch, "not of length"),
    ("negative exponent", lambda n: ((0,) * (n - 1) + (-1,), ()), 1, DomainError, "negative exponent"),
    ("letter 0", lambda n: ((0,) * n, (1, 0)), 1, DomainError, "r-letter out of range"),
    ("letter n + 1", lambda n: ((0,) * n, (n + 1,)), 1, DomainError, "r-letter out of range"),
    ("float coefficient", lambda n: ((0,) * n, ()), 0.5, TypeError, "not an exact rational"),
    ("bool coefficient", lambda n: ((0,) * n, ()), True, TypeError, "not an exact rational"),
]


@pytest.mark.parametrize(
    "make_word, coeff, error, message",
    [e[1:] for e in BAD_ENTRIES],
    ids=[e[0] for e in BAD_ENTRIES],
)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=term_lists(), where=st.integers(0, 8))
def test_constructor_rejects_a_bad_entry(make_word, coeff, error, message, case, where):
    """One bad word or coefficient anywhere among valid terms raises the
    constructor's error for it."""
    n, terms = case
    terms.insert(min(where, len(terms)), (make_word(n), coeff))
    with pytest.raises(error, match=message):
        Element(n, terms)
