"""Exact arithmetic in the enveloping algebra U_n of a zero-multiplication algebra.

U_n is the unital associative algebra over the rationals on generators
l_1..l_n, r_1..r_n subject to

    l_i * l_j = l_j * l_i                 (the l's commute)
    r_i * l_j = l_j * r_i + r_i * r_j     (straightening rule)

It contains the polynomial algebra L_n = Q[l_1..l_n], the free associative
algebra R_n = Q<r_1..r_n>, and the ideal I_n generated by the r's, with
U_n = L_n (+) I_n as vector spaces.  Every element has a unique normal form
as a rational combination of basis words

    l_1^{s_1} ... l_n^{s_n} r_{j_1} ... r_{j_s}

and all operations in this module return that normal form.  Coefficients
never touch floating point; the one float is NEG_INF, the degree of zero.

An `Element` stores its coefficients as integers over one denominator: a
positive int `_den` and a map `_nums` from basis word to nonzero int
numerator, with no factor common to `_den` and every numerator, so equal
elements have identical storage.  A stored word is a plain `(lexp, rword)`
tuple pair; it hashes and compares like a `BasisWord`, and `terms()` wraps
it in one as it hands it out.  Products (`mul`) combine the
numerators with the integer structure constants of the straightening rule
over the product of the two denominators; sums, differences and scalings
are integer map merges over the lcm or product of the denominators, each
followed by one gcd reduction.  The validating constructor works in ints
as well: each coefficient becomes one numerator over its denominator, and
the terms are summed over the lcm of those denominators.
`fractions.Fraction` appears only at the boundary: the constructor accepts
rationals, and `terms()` and `coefficient()` hand them out.  The text and
JSON forms print from `canonical_walk`, which reads the ints directly.
"""

from __future__ import annotations

import re
from contextvars import ContextVar
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm
from operator import add as _add
from typing import Iterable, Iterator, NamedTuple

# Optional cap on the number of stored terms of any constructed element.
# None means unlimited.  The CLI sets this from --max-terms / LSEA_MAX_TERMS;
# library code only ever reads it.
TERM_BUDGET: ContextVar[int | None] = ContextVar("lsea_term_budget", default=None)


class AmbientMismatch(ValueError):
    """Operands live in U_n for different n."""


class DomainError(ValueError):
    """Argument lies outside the required subalgebra or index range."""


class TermBudgetExceeded(RuntimeError):
    """An intermediate result grew past the configured --max-terms guard."""


# Degree of the zero element; compares strictly below every integer.
NEG_INF = -inf

# Largest exponent `Element.__pow__` accepts; a larger one is a DomainError.  A
# base of degree 2 or more costs one product per unit of the exponent.  A
# linear base's T^j(1) is b ((j-1)ℓ + b) ... (1ℓ + b) (`_linear_power`: the
# histories of a word form a tree poset, counted by hook lengths), |supp b|
# prod_(i<j) |supp(iℓ + b)| words of j letters, so r1^k builds k words of up
# to k letters (k = 10000: about 0.35 s on a 2-vCPU machine), budget or not.
MAX_EXPONENT = 10000


# The one string form of a coefficient: ASCII digits, so its size is bounded
# by the length of the text (no exponents, decimals, underscores or spaces).
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?", re.ASCII)
# The one string form of an integer on the command line, by the same rule.
_INTEGER = re.compile(r"[+-]?[0-9]+", re.ASCII)


def as_int(text: str) -> int:
    """text of the form [+-]?[0-9]+ as an int; any other str (Unicode
    digits, underscores, spaces) raises the ValueError int() raises for a
    malformed literal."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _ratio(text: str) -> tuple[int, int]:
    """(p, q), q > 0 and not reduced, for text of the form [+-]?p or
    [+-]?p/q; any other str is a ValueError and q = 0 a DomainError."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational p or p/q: {text!r}")
    num, _, den = text.partition("/")
    q = _str_int(den) if den else 1
    if not q:
        raise DomainError(f"zero denominator in coefficient {text!r}")
    return _str_int(num), q


def as_fraction(x) -> Fraction:
    """x as an exact rational, by the one coefficient rule of every path: a
    Fraction as is, an int converted, a str [+-]?p or [+-]?p/q parsed; any
    other type (a float, a bool) is a TypeError, any other str a ValueError
    and a zero denominator a DomainError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(*_ratio(x))
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _int_str(k: int) -> str:
    # the int/str digit limit is never set below 640 digits (2126 bits)
    return str(k) if k.bit_length() <= 2000 else str(Decimal(k))


def _str_int(text: str) -> int:
    """int(text) for an ASCII [+-]?[0-9]+ run of any length, as `_int_str`
    writes one: a run past 600 characters is read through Decimal, which
    the int/str digit limit (never below 640 digits) does not cover."""
    return int(text) if len(text) <= 600 else int(Decimal(text))


def exact_str(c) -> str:
    """str(c) for an int or a Fraction, however many digits it has.

    Long ints are written through Decimal, which the interpreter's int/str
    digit limit does not cover, so the limit is neither read nor changed.
    """
    num, den = c.numerator, c.denominator
    return _int_str(num) if den == 1 else f"{_int_str(num)}/{_int_str(den)}"


class BasisWord(NamedTuple):
    """One basis word l^lexp * r_{j_1}..r_{j_s} (lexp exponents, rword letters)."""

    lexp: tuple[int, ...]
    rword: tuple[int, ...]


def _wdegree(word, weights) -> int:
    """Weighted degree of a `BasisWord` or a plain (lexp, rword) pair."""
    lexp, rword = word
    return sum(e * w for e, w in zip(lexp, weights)) + sum(weights[j - 1] for j in rword)


def pdeg_key(lexp: tuple[int, ...]):
    """Sort key realizing the degree-then-lex order on L-monomials; ties of
    total degree break lexicographically with index 1 most significant."""
    return (sum(lexp), lexp)


def rword_key(rword: tuple[int, ...]):
    """Sort key for the deg-lex order on r-words with r_1 > r_2 > ... > r_n."""
    return (len(rword), tuple(-j for j in rword))


def word_key(word):
    """Sort key for basis words, a `BasisWord` or a plain (lexp, rword) pair."""
    lexp, rword = word
    return (pdeg_key(lexp), rword_key(rword))


def _charge(count: int) -> None:
    limit = TERM_BUDGET.get()
    if limit is not None and count > limit:
        raise TermBudgetExceeded(
            f"intermediate result has {count} terms, over the --max-terms bound {limit}"
        )


class Element:
    """A canonical finite rational combination of basis words of U_n.

    The coefficient of a word is `_nums[word] / _den`; each word is stored
    as a plain `(lexp, rword)` pair of int tuples, no zero numerator is
    stored and gcd(_den, *_nums.values()) == 1, so equal elements have
    identical storage.  Instances are immutable; every operation returns a
    new element.
    """

    __slots__ = ("n", "_den", "_nums")

    def __init__(self, n: int, terms=()):
        """Validating constructor from (word, coefficient) pairs or a dict.

        n, exponents and r-letters must be plain ints (`_json_int`).
        Coefficients are Fractions, ints or strings; repeated words add up.
        Each coefficient becomes p over q (an int as p over 1, a str by
        `_ratio`, anything else by `as_fraction`), and the p * (den // q) are
        summed over den, the lcm of the q's, by `_add_into` (rescaled if den > 1).
        """
        n = _ambient(n)
        parts, qs = [], []
        items = terms.items() if isinstance(terms, dict) else terms
        for word, c in items:
            lexp, rword = tuple(word[0]), tuple(word[1])
            if not _ONLY_INTS(map(type, lexp + rword)):
                for x in lexp + rword:
                    _json_int(x, "an exponent or r-letter")
            if len(lexp) != n:
                raise AmbientMismatch(f"exponent vector {lexp} not of length {n}")
            if min(lexp) < 0:
                raise DomainError(f"negative exponent in {lexp}")
            if rword and not (min(rword) >= 1 and max(rword) <= n):
                raise DomainError(f"r-letter out of range 1..{n} in {rword}")
            if type(c) is int:
                p, q = c, 1
            elif type(c) is str:
                p, q = _ratio(c)
            else:
                p, q = as_fraction(c).as_integer_ratio()
            if p:
                parts.append(((lexp, rword), p))
                qs.append(q)
        den = lcm(*qs)
        if den != 1:
            parts = [(key, p * (den // q)) for (key, p), q in zip(parts, qs)]
        nums, den = _add_into({}, den, parts, den, 1)
        self.n = n
        self._nums, self._den = _reduced(nums, den)
        _charge(len(nums))

    # -- constructors ------------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=None, typed=True)
    def zero(n: int) -> "Element":
        """The zero element of U_n, cached like `generator`; the constructor
        checks n."""
        return Element(n)

    @staticmethod
    @lru_cache(maxsize=None, typed=True)
    def one(n: int) -> "Element":
        """The unit of U_n, cached like `generator`; `_ambient` checks n."""
        return Element(n, {((0,) * _ambient(n), ()): 1})

    @classmethod
    def from_word(cls, n, lexp, rword, coeff=1) -> "Element":
        return cls(n, [((lexp, rword), coeff)])

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def terms(self) -> Iterator[tuple[BasisWord, Fraction]]:
        den = self._den
        return ((BasisWord._make(w), Fraction(c, den)) for w, c in self._nums.items())

    def int_terms(self) -> tuple[int, Iterable[tuple[tuple, int]]]:
        """(den, ((lexp, rword), numerator) pairs) with
        self = sum(numerator / den * l^lexp r_rword)."""
        return self._den, self._nums.items()

    def coefficient(self, lexp, rword) -> Fraction:
        c = self._nums.get((tuple(lexp), tuple(rword)))
        return _ZERO if c is None else Fraction(c, self._den)

    def degree(self):
        """Total degree, NEG_INF for the zero element."""
        if not self._nums:
            return NEG_INF
        return max(sum(lexp) + len(rword) for lexp, rword in self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.n == other.n and self._den == other._den and self._nums == other._nums
        )

    __hash__ = None

    def __repr__(self):
        from .parser import format_element

        return f"<U_{self.n}: {format_element(self)}>"

    # -- linear structure ----------------------------------------------------

    def _require_same_ambient(self, other: "Element") -> None:
        if self.n != other.n:
            raise AmbientMismatch(f"ambient mismatch: U_{self.n} vs U_{other.n}")

    def _merge(self, other: "Element", sign: int) -> "Element":
        """self + sign * other by `_add_into`, into a copy of self's map unless rescaled."""
        self._require_same_ambient(other)
        nums = dict(self._nums) if self._den % other._den == 0 else self._nums
        nums, den = _add_into(nums, self._den, other._nums.items(), other._den, sign)
        return _from_ints(self.n, nums, den)

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self._merge(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self._merge(other, -1)

    def __neg__(self):
        negated = {w: -c for w, c in self._nums.items()}
        return _from_ints(self.n, negated, self._den)

    def __mul__(self, other):
        if isinstance(other, Element):
            return mul(self, other)
        p, q = as_fraction(other).as_integer_ratio()
        if not p:
            return Element.zero(self.n)
        scaled = {w: k * p for w, k in self._nums.items()}
        return _from_ints(self.n, scaled, self._den * q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = as_fraction(other)
        if not c:
            raise ZeroDivisionError("division of an element by zero")
        return self * (1 / c)

    def __pow__(self, k: int):
        """self^k; an exponent above MAX_EXPONENT is a DomainError.

        The base alone picks the path.  Of degree <= 1, x^k is read off in
        closed form by `_linear_power`, which refuses under --max-terms
        exactly when x^k itself has more terms than the bound.  Of higher
        degree, x^k is k left multiplications, out <- mul(x, out) from one:
        each step straightens only the few short r-words of x, past the
        l-monomials of out, so the straightening memo stays small.
        """
        _require_exponent(k)
        if self.degree() <= 1:
            return _linear_power(self, k)
        out = Element.one(self.n)
        for _ in range(k):
            out = mul(self, out)
        return out


_ZERO = Fraction(0)


def _require_exponent(k) -> None:
    """A DomainError unless k is a plain int (`_json_int`) from 0 to MAX_EXPONENT."""
    if _json_int(k, "exponent") < 0:
        raise DomainError("exponent must be a non-negative integer")
    if k > MAX_EXPONENT:
        raise DomainError(f"exponent {k} exceeds the limit {MAX_EXPONENT}")


def _reduced(nums: dict, den: int) -> tuple[dict, int]:
    """(nums, den) with the factor common to den and every numerator
    divided out."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {w: c // g for w, c in nums.items()}
    return nums, den


def _add_into(acc: dict, den: int, items, den_b: int, sign: int) -> tuple[dict, int]:
    """acc / den + sign * items / den_b over their lcm, as (int map, lcm): acc is
    added into in place, or rescaled into a new map first; a zero total drops its word."""
    common = lcm(den, den_b)
    if common != den:
        factor = common // den
        acc = {w: c * factor for w, c in acc.items()}
    factor, get = sign * (common // den_b), acc.get
    for word, c in items:
        total = get(word, 0) + c * factor
        if total:
            acc[word] = total
        else:
            del acc[word]
    return acc, common


def _from_ints(n: int, nums: dict, den: int = 1) -> Element:
    """The element sum(nums[word] / den * word) of U_n, from trusted parts.

    `nums` maps canonical (lexp, rword) pairs of U_n to nonzero ints and
    den > 0; their common factor is divided out here.  Charged to the term
    budget.
    """
    out = object.__new__(Element)
    out.n = n
    out._nums, out._den = _reduced(nums, den)
    _charge(len(nums))
    return out


# -- generators and straightening -------------------------------------------


@lru_cache(maxsize=None, typed=True)
def generator(n: int, kind: str, index: int) -> Element:
    """The canonical one-term element l_index or r_index of U_n.

    Cached: elements are immutable, so every caller may share one instance.
    n is read by `_ambient` and the index by `_index`; the typed cache keeps
    True off 1's entry.
    """
    n = _ambient(n)
    index = _index(index, n, "generator index")
    kind = kind.lower()
    if kind == "l":
        lexp = tuple(1 if i == index - 1 else 0 for i in range(n))
        return Element.from_word(n, lexp, ())
    if kind == "r":
        return Element.from_word(n, (0,) * n, (index,))
    raise DomainError(f"unknown generator kind {kind!r}")


def gen_l(n: int, i: int) -> Element:
    return generator(n, "l", i)


def gen_r(n: int, i: int) -> Element:
    return generator(n, "r", i)


def _insert_letter(word: tuple[int, ...], j: int, start: int) -> list:
    """r_j put into every place p >= start of the r-word `word` (before
    word[p], or at its end), as (word', multiplicity) pairs.

    The places around a run of letters r_j give one word, kept once with the
    number of those places from `start` on as its multiplicity.  From start
    0 this is the shuffle T_j(w) = w ⧢ r_j; from start 1 it is D_j(w), r_j
    inserted after each letter, and D_j(1) = 0.
    """
    out = []
    lo = start  # the first place not yet counted
    for p, x in enumerate(word):
        if x != j and p >= start:
            out.append((word[:p] + (j,) + word[p:], p + 1 - lo))
            lo = p + 1
    if lo <= len(word):
        out.append((word + (j,), len(word) + 1 - lo))
    return out


@lru_cache(maxsize=None)
def _rword_past_monomial(rword: tuple[int, ...], lexp: tuple[int, ...]):
    """Normal form of (r-word) * l^lexp as ((lexp', rword', int_coeff), ...).

    For an r-word w, w l_j = l_j w + D_j(w) (Cor. 2.3), D_j inserting r_j
    after each letter of w (`_insert_letter` from place 1).  The D_j
    commute, and so do the l's, so

        w l^s = sum_{e <= s} C(s, e) l^(s-e) D^e(w),

    C(s, e) = prod_j binom(s_j, e_j) and D^e = prod_j D_j^(e_j).  One int
    map D^e(w) is kept per layer e, together with l^(s-e) and C(s, e); the
    layers are raised one index j at a time, D^(e + delta_j) = D_j(D^e).
    Distinct layers carry distinct l^(s-e) and every multiplicity is
    positive, so nothing cancels and the structure constants are positive
    integers.  The --max-terms guard is charged on the running term count
    as each layer is added.
    """
    layers = [(lexp, 1, ((rword, 1),))]
    size = 1
    limit = TERM_BUDGET.get()
    for j, s in enumerate(lexp, 1):
        if not s:
            continue
        for lower, c, words in layers[:]:
            for k in range(1, s + 1):
                c = c * lower[j - 1] // k
                lower = lower[: j - 1] + (lower[j - 1] - 1,) + lower[j:]
                raised: dict[tuple, int] = {}
                get = raised.get
                for v, m in words:
                    for u, x in _insert_letter(v, j, 1):
                        raised[u] = get(u, 0) + m * x
                words = raised.items()
                layers.append((lower, c, words))
                size += len(raised)
                if limit is not None and size > limit:
                    _charge(size)
    return tuple([(lower, v, c * m) for lower, c, words in layers for v, m in words])


def _signed_products(products) -> dict[tuple, int]:
    """sum(k * left * right) as a map from (lexp, rword) to nonzero int.

    `products` holds (k, left, right): k an int and left, right the (word,
    int numerator) pairs of two elements of one U_n, as `int_terms` hands
    them out (any re-iterable pairs will do).  Every term pair is
    multiplied and added with the int straightening constants of
    `_rword_past_monomial` into one map, so a sum of products builds no
    Element per product; the caller puts the map over its denominator.
    Two term pairs need no straightening and make no lookup: a right term
    without l-letters only concatenates the r-words, so that the r-only
    steps of a power fill no cache entries, and a left term without
    r-letters only adds the l-exponents.  The --max-terms guard is charged
    after each term of each left factor.
    """
    acc: dict[tuple, int] = {}
    limit = TERM_BUDGET.get()
    for k, left, right in products:
        for (lexp1, rword1), c1 in left:
            c1 *= k
            # without l-letters on the left, the straightened l-part is the key's
            shift = any(lexp1)
            for (lexp2, rword2), c2 in right:
                c = c1 * c2
                if not any(lexp2):
                    key = (lexp1, rword1 + rword2)
                elif not rword1:
                    key = (tuple(map(_add, lexp1, lexp2)) if shift else lexp2, rword2)
                else:
                    for s, v, kk in _rword_past_monomial(rword1, lexp2):
                        key = (tuple(map(_add, lexp1, s)) if shift else s, v + rword2)
                        total = acc.get(key, 0) + c * kk
                        if total:
                            acc[key] = total
                        elif key in acc:
                            del acc[key]
                    continue
                total = acc.get(key, 0) + c
                if total:
                    acc[key] = total
                elif key in acc:
                    del acc[key]
            if limit is not None and len(acc) > limit:
                _charge(len(acc))
    return acc


def mul(a: Element, b: Element) -> Element:
    """Canonical normal form of the product a * b.

    One `_signed_products` call on the int numerators of a and b; the
    result lies over the product of the two denominators.  The --max-terms
    guard is charged after each term of a and at construction.
    """
    a._require_same_ambient(b)
    acc = _signed_products(((1, a._nums.items(), b._nums.items()),))
    return _from_ints(a.n, acc, a._den * b._den)


def _linear_power(x: Element, k: int) -> Element:
    """x^k for x = c_0 + sum_j a_j l_j + sum_j b_j r_j, with no product.

    For an r-word w, w l_j = l_j w + D_j(w) (Cor. 2.3), so right
    multiplication by x is L_A (x) 1 + 1 (x) T on U_n = L_n (x) R_n, with
    A = c_0 + sum_j a_j l_j and T(w) = sum_j a_j D_j(w) + w b.  The two
    commute, so x^k = sum_m C(k, m) A^m (x) T^(k-m)(1), and with the linear
    forms ℓ = sum_j a_j r_j and b = sum_j b_j r_j of R_n

        T^j(1) = b ((j-1)ℓ + b) ((j-2)ℓ + b) ... (1ℓ + b).

    The b-appends and ℓ-insertions that make a word form a rooted-tree
    poset in time, so the hook-length formula counts their orders, and the
    sum over them factors letter by letter.  So S_1 = 1, S_(i+1) =
    (iℓ + b) S_i one letter prepended per word, and T^j(1) = b S_j (none
    if b = 0): each word is made once from nonzero factors, so |T^j(1)| =
    |supp b| prod_(i<j) |supp(iℓ + b)|; no two products A^m T^(k-m)(1)
    share a word and A^m has no zero coefficient: one map, no merge.

    --max-terms is charged the running size of the kept T-levels (only
    T^k(1), the one built, if A = 0) before each is built, each A^m and the
    output after each monomial of A^m; none exceeds |x^k| = sum_m |A^m|
    |T^(k-m)(1)|, so no answer that fits is refused and none over is kept.
    The one uncharged intermediate, S_(j+1), has |S_(j+1)| <= |T^(j+1)(1)|.
    """
    zero, items = (0,) * x.n, x._nums.items()
    a = {lexp: c for (lexp, rword), c in items if not rword}  # A, numerators
    ell = {lexp.index(1) + 1: c for lexp, c in a.items() if any(lexp)}  # j: a_j
    b = {rword[0]: c for (_, rword), c in items if rword}  # j: b_j
    levels = [{(): 1}]  # T^j(1) for j = 0..k; only T^k(1) when A = 0
    size = 1  # terms in the kept levels
    limit = TERM_BUDGET.get()
    tail = {(): 1} if b else {}  # S_j, T^j(1) less each word's first letter
    for j in range(1, k + 1):
        # T^j(1) = b S_j has |supp b| |S_j| words, charged before it is built
        size = (size if a else 0) + len(b) * len(tail)
        if limit is not None and size > limit:
            _charge(size)
        if a or j == k:  # only where it is kept
            if not a:
                levels = []
            levels.append({(i,) + w: bi * c for i, bi in b.items() for w, c in tail.items()})
        if tail and j < k:  # S_(j+1) = (jℓ + b) S_j
            factor = [(i, j * ell.get(i, 0) + b.get(i, 0)) for i in range(1, x.n + 1)]
            tail = {(i,) + w: f * c for i, f in factor if f for w, c in tail.items()}
    out: dict[tuple, int] = {}
    am, binom = {zero: 1}, 1  # A^m and C(k, m)
    for m, level in enumerate(reversed(levels)):
        for s, c in am.items():
            c *= binom
            for w, t in level.items():
                out[(s, w)] = c * t
            if limit is not None and len(out) > limit:
                _charge(len(out))
        if m == k:
            break
        binom = binom * (k - m) // (m + 1)
        power: dict[tuple, int] = {}
        for s, c in am.items():
            for e, ae in a.items():
                u = tuple(map(_add, s, e))
                power[u] = power.get(u, 0) + c * ae
        am = power
        if limit is not None and len(am) > limit:
            _charge(len(am))
    return _from_ints(x.n, out, x._den**k)


def commutator(a: Element, b: Element) -> Element:
    """a*b - b*a."""
    return mul(a, b) - mul(b, a)


def normal_form_oracle(n: int, word: Iterable[tuple[str, int]]) -> Element:
    """Normal form of a product of generators by one-step leftmost rewriting.

    Each letter is ('l', i) or ('r', i).  Repeatedly rewrites the leftmost
    adjacency r_i l_j into l_j r_i + r_i r_j, then sorts the l-prefix.  Kept
    deliberately independent of `mul` so the two can cross-check each other.
    """
    letters = []
    for kind, i in word:
        kind = kind.lower()
        if kind not in ("l", "r"):
            raise DomainError(f"unknown generator kind {kind!r}")
        if not 1 <= i <= n:
            raise DomainError(f"generator index {i} out of range 1..{n}")
        letters.append((kind, i))

    def leftmost_rl(w):
        for k in range(len(w) - 1):
            if w[k][0] == "r" and w[k + 1][0] == "l":
                return k
        return None

    terms: dict[tuple, Fraction] = {tuple(letters): Fraction(1)}
    while True:
        found = None
        for w in terms:
            k = leftmost_rl(w)
            if k is not None:
                found = (w, k)
                break
        if found is None:
            break
        w, k = found
        c = terms.pop(w)
        (_, i), (_, j) = w[k], w[k + 1]
        for ww in (
            w[:k] + (("l", j), ("r", i)) + w[k + 2 :],
            w[:k] + (("r", i), ("r", j)) + w[k + 2 :],
        ):
            acc = terms.get(ww, _ZERO) + c
            if acc:
                terms[ww] = acc
            elif ww in terms:
                del terms[ww]

    out: dict[BasisWord, Fraction] = {}
    for w, c in terms.items():
        lpart = sorted(i for kind, i in w if kind == "l")
        rpart = tuple(i for kind, i in w if kind == "r")
        lexp = [0] * n
        for i in lpart:
            lexp[i - 1] += 1
        key = BasisWord(tuple(lexp), rpart)
        acc = out.get(key, _ZERO) + c
        if acc:
            out[key] = acc
        elif key in out:
            del out[key]
    return Element(n, out)


# -- leading data, gradings ---------------------------------------------------


def lm_lc(g: Element) -> tuple[tuple[int, ...] | None, Element]:
    """Greatest L-monomial of g and its coefficient in R_n.

    Writing g as a sum of distinct L-monomials times R_n coefficients, returns
    (exponent vector of the greatest monomial, that coefficient).  For g = 0
    returns (None, 0); both leading data of zero are zero by convention.
    """
    if g.is_zero:
        return None, Element.zero(g.n)
    top = max((lexp for lexp, _ in g._nums), key=pdeg_key)
    zero_exp = (0,) * g.n
    coeff = {
        (zero_exp, rword): c for (lexp, rword), c in g._nums.items() if lexp == top
    }
    return top, _from_ints(g.n, coeff, g._den)


def wdeg(g: Element, weights):
    """Maximal weighted degree of the terms of g; NEG_INF for g = 0."""
    weights = _weight_vector(weights, g.n)
    return max((_wdegree(w, weights) for w in g._nums), default=NEG_INF)


def homogeneous_components(g: Element, weights) -> dict[int, Element]:
    """Partition of the terms of g by weighted degree; empty for g = 0."""
    weights = _weight_vector(weights, g.n)
    buckets: dict[int, dict[tuple, int]] = {}
    for w, c in g._nums.items():
        buckets.setdefault(_wdegree(w, weights), {})[w] = c
    return {d: _from_ints(g.n, t, g._den) for d, t in sorted(buckets.items())}


def is_homogeneous(g: Element) -> bool:
    """All terms of g have one total degree; true for g = 0."""
    return len({sum(lexp) + len(rword) for lexp, rword in g._nums}) <= 1


# -- the polynomial subalgebra ------------------------------------------------


def in_L(g: Element) -> bool:
    return all(not rword for _, rword in g._nums)


def in_R(g: Element) -> bool:
    return all(not any(lexp) for lexp, _ in g._nums)


def in_I(g: Element) -> bool:
    return all(rword for _, rword in g._nums)


def membership(g: Element) -> tuple[bool, bool, bool]:
    return in_L(g), in_R(g), in_I(g)


def project_to_L(g: Element) -> tuple[Element, Element]:
    """Split g = (part in L_n) + (part in I_n); the splitting is unique."""
    lpart = {w: c for w, c in g._nums.items() if not w[1]}
    ipart = {w: c for w, c in g._nums.items() if w[1]}
    return _from_ints(g.n, lpart, g._den), _from_ints(g.n, ipart, g._den)


def pderiv_l(j: int, f: Element) -> Element:
    """Partial derivative of a polynomial f in L_n with respect to l_j."""
    j = _index(j, f.n, "variable index")
    if not in_L(f):
        raise DomainError("partial derivative only defined on L_n")
    # lowering l_j is injective on the words that hold it, so nothing collides
    out: dict[tuple, int] = {}
    for (lexp, _), c in f._nums.items():
        e = lexp[j - 1]
        if e:
            out[(lexp[: j - 1] + (e - 1,) + lexp[j:], ())] = e * c
    return _from_ints(f.n, out, f._den)


def _r_gradient(f: Element) -> Element:
    """sum_j (df/dl_j) r_j for f in L_n, read off f's terms as one map.

    The term c l^s gives s_j c l^(s - delta_j) r_j for each j with s_j > 0.
    Each is a basis word, and distinct (s, j) give distinct words, so no
    product is formed and nothing merges.  The caller checks f in L_n.
    """
    out: dict[tuple, int] = {}
    for (lexp, _), c in f._nums.items():
        for j, e in enumerate(lexp):
            if e:
                out[(lexp[:j] + (e - 1,) + lexp[j + 1 :], (j + 1,))] = e * c
    return _from_ints(f.n, out, f._den)


def shift_lr(f: Element) -> Element:
    """f(l_1 - r_1, ..., l_n - r_n) for f in L_n, via the closed formula

        f(l - r) = f(l) - sum_j (df/dl_j) r_j.

    The substituted generators l_i - r_i commute, and the expansion is exact
    at first order, with no higher correction terms.
    """
    if not in_L(f):
        raise DomainError("shift_lr only defined on L_n")
    return f - _r_gradient(f)


# -- serialization ------------------------------------------------------------


def canonical_walk(g: Element) -> Iterator[tuple[tuple, list, list]]:
    """The terms of g in descending order, one L-monomial group at a time.

    For each L-monomial of g, greatest first, yields (lexp, rwords, texts):
    the r-words that carry it in descending order, and each one's
    coefficient as signed `exact_str` text, reduced with one gcd.  The
    order is `word_key` descending, read off the ints by C sorts: the
    L-monomials by `pdeg_key`, and within one the r-words longest first,
    ties in ascending tuple order (letter 1 is the largest).  This is the
    one place that orders an element's terms or writes their digits.
    """
    groups: dict[tuple, dict] = {}
    for (lexp, rword), c in g._nums.items():
        groups.setdefault(lexp, {})[rword] = c
    den = g._den
    for lexp in sorted(groups, key=pdeg_key, reverse=True):
        group = groups[lexp]
        if len(group) == 1:  # most groups of a small element: nothing to sort
            rwords, nums = list(group), group.values()
        else:
            rwords = sorted(group)
            rwords.sort(key=len, reverse=True)
            nums = map(group.__getitem__, rwords)
        if den == 1:
            yield lexp, rwords, list(map(_int_str, nums))
            continue
        texts = []
        for c in nums:
            d = gcd(c, den)
            text = _int_str(c // d)
            texts.append(text if d == den else f"{text}/{_int_str(den // d)}")
        yield lexp, rwords, texts


def element_to_json(g: Element) -> dict:
    """JSON form {n, terms: [{l, r, c}]} with terms in canonical order."""
    return {
        "n": g.n,
        "terms": [
            {"l": list(lexp), "r": list(rword), "c": text}
            for lexp, rwords, texts in canonical_walk(g)
            for rword, text in zip(rwords, texts)
        ],
    }


def _json_int(x, what: str) -> int:
    """x if it is a plain int, the one test of every int input field and
    int argument (n, an exponent, an r-letter, an index, a weight, a degree,
    a power, a bound); anything else, a bool too, is a DomainError."""
    if type(x) is not int:
        raise DomainError(f"{what} must be an integer, got {x!r}")
    return x


def _index(i, n: int, what: str) -> int:
    """i if it is a plain int (`_json_int`) from 1 to n, the one check of an
    index of U_n but `normal_form_oracle`'s own; else a DomainError."""
    i = _json_int(i, what)
    if not 1 <= i <= n:
        raise DomainError(f"{what} {i} out of range 1..{n}")
    return i


def _ambient(n) -> int:
    """n if it is a plain int >= 1 (`_json_int`), else a DomainError."""
    n = _json_int(n, "ambient n")
    if n < 1:
        raise DomainError("ambient n must be >= 1")
    return n


def _weight_vector(weights, n: int) -> tuple[int, ...]:
    """weights as a tuple of n plain ints (`_json_int`), else a DomainError."""
    weights = tuple(_json_int(w, "a weight") for w in weights)
    if len(weights) != n:
        raise DomainError("weight vector length must equal the ambient n")
    return weights


_ONLY_INTS = frozenset((int,)).issuperset


def element_from_json(data: dict) -> Element:
    """The element stored in `data` by `element_to_json`, from n, the words
    and the coefficients as they are, so the constructor refuses them: a
    non-int n, exponent or r-letter is a DomainError, and a coefficient of
    another type a TypeError, a malformed str a ValueError and a zero
    denominator a DomainError, as in `as_fraction`."""
    return Element(data["n"], [((t["l"], t["r"]), t["c"]) for t in data["terms"]])
