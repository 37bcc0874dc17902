"""Property tests of the product kernel against the rewriting oracle, and of
the integer storage of elements.

Elements are drawn as rational combinations of arbitrary generator words in
U_2 and U_3 and realized through `normal_form_oracle`, which shares no code
with `mul`.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from lsea import Element, mul, normal_form_oracle

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
    for word, c in g.terms():
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
