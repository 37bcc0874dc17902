"""Property tests of the product kernel against the rewriting oracle.

Elements are drawn as rational combinations of arbitrary generator words in
U_2 and U_3 and realized through `normal_form_oracle`, which shares no code
with `mul`.
"""

from fractions import Fraction

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
