"""Derivations and endomorphisms of U_n as first-class data.

A derivation or endomorphism is stored by its images on the 2n generators.
Such data only extends consistently to all of U_n when it annihilates (for
derivations) or preserves (for endomorphisms) the two defining relation
families; `check_derivation` / `check_endomorphism` test exactly that and set
the `verified` flag.  Applying an unverified map is an error rather than a
silent best effort, because the Leibniz/substitution extension is ill-defined
off the relation variety.  Maps loaded from JSON are re-checked the same
way; a stored `verified` field is ignored.

Also here: inner derivations ad_a, the Lie bracket on derivations,
derivations of the free algebra R_n, graded pieces, bounded nilpotency
probes, the lift of polynomial endomorphisms of L_n to U_n, and
constructors for elementary and affine polynomial automorphisms with
closed-form inverses.  Every map and probe outcome is a `NamedTuple`.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from operator import add as _add
from typing import NamedTuple, Sequence

from . import linalg
from .algebra import (
    TERM_BUDGET,
    AmbientMismatch,
    DomainError,
    Element,
    _ambient,
    _add_into,
    _charge,
    _from_ints,
    _index,
    _insert_letter,
    _json_int,
    _require_exponent,
    _r_gradient,
    _rword_past_monomial,
    _signed_products,
    as_fraction,
    element_from_json,
    element_to_json,
    exact_str,
    gen_l,
    gen_r,
    homogeneous_components,
    in_L,
    in_R,
)


class UnverifiedMapError(RuntimeError):
    """A map was applied before its defining relations were checked."""


class AnomalyError(RuntimeError):
    """A computed outcome that contradicts a proved statement about U_n."""

    def __init__(self, message: str, payload: dict | None = None):
        super().__init__(message)
        self.payload = payload or {}


def _as_images(n: int, images) -> tuple[Element, ...]:
    """images as a tuple of n elements of U_n (n read by `algebra._ambient`): the
    one reader of a map's, a substitution's or `solver.ad_preimage`'s images."""
    n = _ambient(n)
    images = tuple(images)
    if len(images) != n:
        raise DomainError(f"expected {n} generator images, got {len(images)}")
    for g in images:
        if g.n != n:
            raise AmbientMismatch("image ambient differs from map ambient")
    return images


def _slots(m) -> tuple[Element, ...]:
    """m's images in generator-slot order: l_1..l_n, then r_1..r_n."""
    return (*m.l_images, *m.r_images)


def _from_slots(cls, n: int, images, **flags):
    """The map of class cls with these images in generator-slot order."""
    images = tuple(images)
    return cls(n, images[:n], images[n:], **flags)


class Derivation(NamedTuple):
    """Images D(l_i), D(r_i); `verified` means the relation checks vanish."""

    n: int
    l_images: tuple[Element, ...]
    r_images: tuple[Element, ...]
    verified: bool = False

    def __call__(self, g: Element) -> Element:
        return apply_derivation(self, g)


class Endomorphism(NamedTuple):
    """Images phi(l_i), phi(r_i); `verified` means the relations are preserved."""

    n: int
    l_images: tuple[Element, ...]
    r_images: tuple[Element, ...]
    verified: bool = False

    def __call__(self, g: Element) -> Element:
        return apply_endo(self, g)


# -- relation residuals -------------------------------------------------------
#
# Each relation instance is written once, as signed two-letter words over the
# generator slots (`relation_words`).  An endomorphism's residual applies phi
# letter by letter: one `algebra._signed_products` sum over the square of the
# lcm of the images' denominators (`check_endomorphism`).  A derivation's
# residual is read off the images in closed form.  With A_k = D(l_k) and
# B_k = D(r_k),
#
#     s1(i, j) = [A_i, l_j] - [A_j, l_i],
#     s2(i, j) = [B_i, l_j] + r_i A_j - A_j r_i - B_i r_j - r_i B_j,
#
# by D(ab) = D(a) b + a D(b) on each word, the terms D(x) l_j and -l_j D(x)
# of two words pairing into [D(x), l_j].  Each piece is a letter operator
# on an image term c l^s w, w an r-word:
# - [., l_j] gives c l^s D_j(w), D_j inserting r_j after each letter of w
#   (`algebra._insert_letter` from place 1), as r_a l_j = l_j r_a + r_a r_j
#   and l^s commutes with l_j;
# - . r_j appends r_j to w;
# - r_i . prepends the cached normal form of r_i l^s, the one-letter word
#   r_i straightened past l^s (`_rword_past_monomial((i,), s)`).
# So `check_derivation` reads each image's terms once, over one lcm of the
# images' denominators, and adds each slot once into the int map of every
# relation that its row in `_relation_table(n)` lists (`_letter_sum`).  No
# word is straightened past an l: the re-check of every member of a solver's
# derivation space reads only the map's images and shares no product with
# how the solver built them.  Applying a map is one accumulation as well:
# `_leibniz` sums every Leibniz split of a call in one map, and `_substitute`
# the last product of every word, so no Element is built per product
# anywhere in checking or applying a map.


def relations(n: int):
    """The defining relation instances of U_n, in check order.

    ("s1", i, j) for l_i l_j = l_j l_i with i < j, then ("s2", i, j) for
    r_i l_j = l_j r_i + r_i r_j over all i, j.
    """
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield "s1", i, j
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            yield "s2", i, j


def relation_words(n: int, kind: str, i: int, j: int):
    """Relation instance (kind, i, j) as signed words (sign, a, b) over the
    generator slots (l_1..l_n, then r_1..r_n, from 0): l_i l_j - l_j l_i for
    "s1" and r_i l_j - l_j r_i - r_i r_j for "s2"."""
    if kind == "s1":
        return ((1, i - 1, j - 1), (-1, j - 1, i - 1))
    lj, ri, rj = j - 1, n + i - 1, n + j - 1
    return ((1, ri, lj), (-1, lj, ri), (-1, ri, rj))


# The operators of the closed form on an image x, for a letter index k:
# x -> [x, l_k], x -> x r_k and x -> r_k x.
_BRACKET, _APPEND, _PREPEND = range(3)


def _letter_operators(n: int, kind: str, i: int, j: int) -> dict:
    """The closed form of D on relation instance (kind, i, j), grouped by
    image slot: slot -> ((sign, operator, k), ...)."""
    if kind == "s1":
        return {i - 1: ((1, _BRACKET, j),), j - 1: ((-1, _BRACKET, i),)}
    ops = {
        j - 1: ((1, _PREPEND, i), (-1, _APPEND, i)),
        n + i - 1: ((1, _BRACKET, j), (-1, _APPEND, j)),
    }
    ops[n + j - 1] = ops.get(n + j - 1, ()) + ((-1, _PREPEND, i),)
    return ops


@lru_cache(maxsize=None)
def _r_word_part(ops: tuple, rword: tuple) -> tuple:
    """sum(sign * op_k(w)) over the operators of ops that keep the l-part
    (all but _PREPEND), on the r-word w = rword: (r-word, nonzero int) pairs.

    [w, l_k] is D_k(w), r_k inserted after each letter of w with the
    insertions inside a run of r_k's merged (`_insert_letter` from place
    1), and w r_k appends it.  Equal words merge: in [B_i, l_j] - B_i r_j
    the insertion after the last letter cancels the append."""
    acc: dict[tuple, int] = {}
    for sign, op, k in ops:
        if op == _BRACKET:
            words = _insert_letter(rword, k, 1)
        elif op == _APPEND:
            words = [(rword + (k,), 1)]
        else:
            continue
        acc, _ = _add_into(acc, 1, words, 1, sign)
    return tuple(acc.items())


@lru_cache(maxsize=None)
def _relation_table(n: int) -> tuple:
    """(`relations(n)` as a tuple, rows): per image slot, (index in that
    tuple, ops, the (sign, (k,)) of ops' _PREPENDs, (k,) the word r_k) for
    each relation instance whose `_letter_operators` reach the slot."""
    rels = tuple(relations(n))
    table = [[] for _ in range(2 * n)]
    for rel, (kind, i, j) in enumerate(rels):
        for slot, ops in _letter_operators(n, kind, i, j).items():
            prepends = tuple((sign, (k,)) for sign, op, k in ops if op == _PREPEND)
            table[slot].append((rel, ops, prepends))
    return rels, tuple(map(tuple, table))


def _letter_sum(items, entries, accs) -> None:
    """Add sum(sign * op_k(g)) into accs[rel] for each (rel, ops, prepends)
    in entries, as int maps (lexp, rword) -> nonzero int: items are g's
    terms, ints over one denominator that the caller keeps for every entry.
    The --max-terms guard is charged after each image term."""
    limit = TERM_BUDGET.get()
    # every added value is nonzero, so a zero total means the key was there
    for rel, ops, prepends in entries:
        acc = accs[rel]
        get = acc.get
        for (lexp, rword), c in items:
            for v, m in _r_word_part(ops, rword):
                key = (lexp, v)
                total = get(key, 0) + c * m
                if total:
                    acc[key] = total
                else:
                    del acc[key]
            for sign, rk in prepends:
                ck = sign * c
                for s, v, m in _rword_past_monomial(rk, lexp):
                    key = (s, v + rword)
                    total = get(key, 0) + ck * m
                    if total:
                        acc[key] = total
                    else:
                        del acc[key]
            if limit is not None and len(acc) > limit:
                _charge(len(acc))


def _scaled_slots(m) -> tuple[int, list]:
    """(den, slots): den the lcm of m's image denominators, and each image's
    (word, int) pairs over den in slot order; each half must hold n images."""
    _as_images(m.n, m.l_images), _as_images(m.n, m.r_images)
    terms = [g.int_terms() for g in _slots(m)]
    den = lcm(*(dg for dg, _ in terms))
    return den, [
        items if dg == den else [(w, c * (den // dg)) for w, c in items]
        for dg, items in terms
    ]


def check_derivation(d: Derivation) -> tuple[Derivation, list]:
    """Re-check the relation families; returns (flagged copy, violations).

    A violation is (kind, i, j, residual) for each relation instance whose
    residual is nonzero, in `relations(n)` order; the images are checked
    and read by `_scaled_slots` before any relation is evaluated.  Each
    nonzero slot is one `_letter_sum` into the relation accumulators its
    `_relation_table` row lists, each put over den.
    """
    n, (den, slots) = d.n, _scaled_slots(d)
    rels, table = _relation_table(n)
    accs = [{} for _ in rels]
    for items, entries in zip(slots, table):
        if items:
            _letter_sum(items, entries, accs)
    violations = [(*rel, _from_ints(n, acc, den)) for rel, acc in zip(rels, accs) if acc]
    return d._replace(verified=not violations), violations


def check_endomorphism(e: Endomorphism) -> tuple[Endomorphism, list]:
    """As `check_derivation`: each relation instance is phi applied letter
    by letter to its signed words (`relation_words`), sum(sign * phi(a) *
    phi(b)) as one `_signed_products` map over den^2."""
    n, (den, slots) = e.n, _scaled_slots(e)
    violations = []
    for kind, i, j in relations(n):
        words = relation_words(n, kind, i, j)
        acc = _signed_products((sign, slots[a], slots[b]) for sign, a, b in words)
        if acc:
            violations.append((kind, i, j, _from_ints(n, acc, den * den)))
    return e._replace(verified=not violations), violations


def violations_to_json(violations) -> list[dict]:
    return [
        {"relation": kind, "i": i, "j": j, "residual": element_to_json(res)}
        for kind, i, j, res in violations
    ]


def require_verified(m, message: str, **context):
    """The verified copy of a map that a proved statement says is one.

    A violated relation is bug evidence, so it raises AnomalyError whose
    payload holds `context`, the map and its violations.
    """
    check = check_derivation if isinstance(m, Derivation) else check_endomorphism
    m, violations = check(m)
    if violations:
        raise AnomalyError(
            message,
            payload={
                **context,
                "map": map_to_json(m),
                "violations": violations_to_json(violations),
            },
        )
    return m


# -- applying maps --------------------------------------------------------------


def _leibniz(g: Element, l_images, r_images) -> Element:
    """The derivation with these generator images, extended to g by linearity
    and the Leibniz law.

    Each basis word l^s w is split at each of its letters: the l-letters in
    nondecreasing index order, then the r-letters, so every prefix and suffix
    is itself a basis word.  Every split is one product prefix * image *
    suffix, and all of them go into one `_signed_products` map over g's
    denominator times the lcm of the images' denominators.  For an l-split
    the prefix is a pure l-monomial, so prefix * image only adds exponents;
    for an r-split the suffix is a pure r-word, so image * suffix only
    concatenates.  Either way the three factors are two, and no Element is
    built per product.
    """
    n = g.n
    den, items = g.int_terms()
    l_terms = [img.int_terms() for img in l_images]
    r_terms = [img.int_terms() for img in r_images]
    img_den = lcm(*(d for d, _ in l_terms + r_terms))

    def products():
        for (lexp, rword), c in items:
            for i, (s, (d, img)) in enumerate(zip(lexp, l_terms)):
                if not (s and img):
                    continue
                k = c * (img_den // d)
                before, after = lexp[:i], lexp[i + 1 :]
                for a in range(s):
                    shift = before + (a,) + (0,) * (n - i - 1)
                    left = [((tuple(map(_add, shift, u)), v), x) for (u, v), x in img]
                    yield k, left, ((((0,) * i + (s - 1 - a,) + after, rword), 1),)
            for p, j in enumerate(rword):
                d, img = r_terms[j - 1]
                if img:
                    tail = rword[p + 1 :]
                    right = [((u, v + tail), x) for (u, v), x in img] if tail else img
                    yield c * (img_den // d), (((lexp, rword[:p]), 1),), right

    return _from_ints(n, _signed_products(products()), den * img_den)


def _substitute(g: Element, l_images, r_images) -> Element:
    """g with each generator replaced by its image, multiplied out along
    each basis word: the l-part first, then the r-letters in order.

    A power of an l-image is built, as an int map, the first time a word
    needs it, by left multiplications up a ladder kept for the call, so a
    step straightens only the image's own r-words.  A word's factors are
    folded from the last one, the running map the right operand; its first
    factor (the unit for a constant word) and that fold go into one
    `_signed_products` map over g's denominator times the lcm of the
    words' denominators, so one Element is built for the whole image.
    """
    n = g.n
    den, items = g.int_terms()
    unit = ((((0,) * n, ()), 1),)
    ladders = {}  # slot -> [(den, terms) of l_images[slot] ** s for s = 1, 2, ...]
    words, words_den = [], 1
    for (lexp, rword), c in items:
        factors = []
        for i, s in enumerate(lexp):
            if s:
                _require_exponent(s)
                ladder = ladders.get(i)
                if ladder is None:
                    ladder = ladders[i] = [l_images[i].int_terms()]
                d, f = ladder[0]
                while len(ladder) < s:
                    dp, power = ladder[-1]
                    ladder.append((d * dp, _signed_products(((1, f, power),)).items()))
                factors.append(ladder[s - 1])
        if rword:
            factors += [r_images[j - 1].int_terms() for j in rword]
        word_den, right = factors.pop() if factors else (1, unit)
        while len(factors) > 1:
            d, left = factors.pop()
            word_den *= d
            right = _signed_products(((1, left, right),)).items()
        d, left = factors.pop() if factors else (1, unit)
        word_den *= d
        if word_den != 1:
            words_den = lcm(words_den, word_den)
        words.append((c, word_den, left, right))
    acc = _signed_products(
        (c * (words_den // d), left, right) for c, d, left, right in words
    )
    return _from_ints(n, acc, den * words_den)


def apply_derivation(d: Derivation, g: Element) -> Element:
    """Extend D linearly and by the Leibniz law to all of U_n."""
    if not d.verified:
        raise UnverifiedMapError("refusing to apply an unverified derivation")
    if d.n != g.n:
        raise AmbientMismatch("derivation and element ambients differ")
    return _leibniz(g, d.l_images, d.r_images)


def apply_endo(e: Endomorphism, g: Element) -> Element:
    """Substitute generator images along each basis word, multiplying in U_n."""
    if not e.verified:
        raise UnverifiedMapError("refusing to apply an unverified endomorphism")
    if e.n != g.n:
        raise AmbientMismatch("endomorphism and element ambients differ")
    return _substitute(g, e.l_images, e.r_images)


# -- inner derivations and the Lie structure -----------------------------------


def ad(a: Element) -> Derivation:
    """Inner derivation x -> a*x - x*a; always satisfies the relations.

    Its images are the letter operators of the closed form above, all in
    one `_letter_sum` on a with one entry per image: [a, l_k] is the
    bracket, and [a, r_k] = a r_k - r_k a an append minus a prepend, so no
    commutator product is built.
    """
    n = a.n
    ks = range(1, n + 1)
    entries = [(k - 1, ((1, _BRACKET, k),), ()) for k in ks]
    entries += [(n + k - 1, ((1, _APPEND, k), (-1, _PREPEND, k)), ((-1, (k,)),)) for k in ks]
    den, items = a.int_terms()
    accs = [{} for _ in entries]
    _letter_sum(items, entries, accs)
    images = (_from_ints(n, acc, den) for acc in accs)
    return _from_slots(Derivation, n, images, verified=True)


def der_bracket(d: Derivation, e: Derivation) -> Derivation:
    """The commutator D∘E - E∘D of verified derivations of one U_n, itself one."""
    images = (d(x) - e(y) for x, y in zip(_slots(e), _slots(d)))
    return _from_slots(Derivation, d.n, images, verified=True)


# -- derivations of the free algebra R_n ------------------------------------------


class RDerivation(NamedTuple):
    """A derivation of the free algebra R_n given by images of the r_i.

    Always well defined (R_n is free), so no verified flag.
    """

    n: int
    images: tuple[Element, ...]

    def __call__(self, g: Element) -> Element:
        if g.n != self.n:
            raise AmbientMismatch("ambient mismatch")
        if not in_R(g):
            raise DomainError("R_n derivation applied outside R_n")
        # an R_n word has no l-letters, so only r-splits reach the images
        return _leibniz(g, (), _as_images(self.n, self.images))


# -- grading ----------------------------------------------------------------------


def graded_parts(d: Derivation, weights) -> dict[int, Derivation]:
    """Split a verified derivation into its weighted-homogeneous pieces.

    A piece of degree m sends each weight-w_i generator into degree m + w_i;
    since the defining relations are weight-homogeneous each piece is again a
    derivation, which is re-checked here.
    """
    if not d.verified:
        raise UnverifiedMapError("graded_parts requires a verified derivation")
    weights = tuple(weights)
    # r_i has the weight of l_i, so the slots weigh weights * 2
    split = [
        {deg - w: g for deg, g in homogeneous_components(img, weights).items()}
        for img, w in zip(_slots(d), weights * 2)
    ]
    out: dict[int, Derivation] = {}
    for m in sorted({deg for parts in split for deg in parts}):
        part = _from_slots(Derivation, d.n, (p.get(m, Element.zero(d.n)) for p in split))
        out[m] = require_verified(
            part,
            "homogeneous piece of a derivation fails the relations",
            weights=list(weights),
            wdeg=m,
        )
    return out


# -- nilpotency probes -------------------------------------------------------------


class ZeroAt(NamedTuple):
    """D^k(x) = 0 with k minimal."""

    k: int


class NonzeroThrough(NamedTuple):
    """All iterates D(x), ..., D^bound(x) nonzero; their total degrees.

    Evidence only: monotone degree growth suggests, but never proves, that D
    is not locally nilpotent at x.
    """

    bound: int
    degrees: tuple[int, ...]


def probe_nilpotent(d: Derivation, x: Element, bound: int):
    """Iterate D on x up to `bound` times, reporting the first zero if any."""
    if not d.verified:
        raise UnverifiedMapError("probe requires a verified derivation")
    if _json_int(bound, "bound") < 1:
        raise DomainError("bound must be >= 1")
    if x.is_zero:
        return ZeroAt(0)
    cur = x
    degrees = []
    for k in range(1, bound + 1):
        cur = d(cur)
        if cur.is_zero:
            return ZeroAt(k)
        degrees.append(cur.degree())
    return NonzeroThrough(bound, tuple(degrees))


# -- the univariate-coefficient locally nilpotent extension -------------------------


def extend_lnd_prop55(n: int, g: Element) -> Derivation:
    """The derivation l_1 -> g(l_n), r_1 -> g'(l_n) r_n, all else -> 0.

    Extends the L_n derivation g(l_n) d/dl_1 to U_n; it kills l_1 and r_1 in
    two steps, hence is locally nilpotent.
    """
    if _ambient(n) < 2:
        raise DomainError("requires ambient n >= 2")
    if g.n != n:
        raise AmbientMismatch("ambient mismatch")
    if not in_L(g):
        raise DomainError("coefficient must be a polynomial")
    if any(any(lexp[: n - 1]) for (lexp, _), _ in g.int_terms()[1]):
        raise DomainError("coefficient must be univariate in the last variable")
    images = [Element.zero(n)] * (2 * n)
    images[0], images[n] = g, _r_gradient(g)  # g'(l_n) r_n, g being univariate in l_n
    return require_verified(
        _from_slots(Derivation, n, images),
        "univariate extension fails the relations",
        g=element_to_json(g),
    )


# -- lifting polynomial endomorphisms of L_n -----------------------------------------


def lift_phi(n: int, fs: Sequence[Element]) -> Endomorphism:
    """Lift a polynomial tuple (f_1..f_n) of L_n to an endomorphism of U_n.

    l_i goes to f_i and r_i to sum_s (df_i/dl_s) r_s, read off f_i by
    `algebra._r_gradient`.  Preserving the straightening relation reduces
    to the substitution rule for moving an r past a polynomial, so the lift
    of any polynomial tuple is an endomorphism; it is marked verified on
    construction and the suite re-checks it.
    """
    fs = _as_images(n, fs)
    for f in fs:
        if not in_L(f):
            raise DomainError("lift requires polynomial images")
    return Endomorphism(n, fs, tuple(_r_gradient(f) for f in fs), verified=True)


def compose(phi: Endomorphism, psi: Endomorphism) -> Endomorphism:
    """(phi ∘ psi)(x) = phi(psi(x)); composition of verified maps is verified."""
    if not (phi.verified and psi.verified):
        raise UnverifiedMapError("compose requires verified endomorphisms")
    images = (apply_endo(phi, g) for g in _slots(psi))
    return _from_slots(Endomorphism, phi.n, images, verified=True)


def is_identity(e: Endomorphism) -> bool:
    n = e.n
    return _slots(e) == tuple(gen(n, i) for gen in (gen_l, gen_r) for i in range(1, n + 1))


def check_inverse_pair(phi: Endomorphism, psi: Endomorphism) -> bool:
    """True iff the two maps compose to the identity both ways."""
    return is_identity(compose(phi, psi)) and is_identity(compose(psi, phi))


def is_affine_U(e: Endomorphism) -> bool:
    """True iff every generator image has total degree exactly 1."""
    if not e.verified:
        raise UnverifiedMapError("affinity test requires a verified endomorphism")
    return all(g.degree() == 1 for g in _slots(e))


# -- the rank-one case ------------------------------------------------------------


def u1_closed_form(alpha, h: Element) -> tuple[Endomorphism, Endomorphism]:
    """The U_1 automorphism l1 -> a*l1 + h(r1), r1 -> a*r1, and its inverse.

    The inverse sends l1 to a^{-1} l1 - a^{-1} h(a^{-1} r1) and r1 to
    a^{-1} r1; both directions are checked and composed to the identity.
    """
    alpha = as_fraction(alpha)
    if not alpha:
        raise DomainError("scale factor must be nonzero")
    if h.n != 1:
        raise AmbientMismatch("closed form lives in U_1")
    if not in_R(h):
        raise DomainError("shift term must be a polynomial in r_1")
    inv = 1 / alpha
    phi = Endomorphism(
        1,
        (alpha * gen_l(1, 1) + h,),
        (alpha * gen_r(1, 1),),
    )
    psi = Endomorphism(
        1,
        (inv * gen_l(1, 1) - inv * _substitute(h, (), (inv * gen_r(1, 1),)),),
        (inv * gen_r(1, 1),),
    )
    context = {"alpha": exact_str(alpha), "h": element_to_json(h)}
    phi = require_verified(phi, "closed-form U_1 map fails the relations", **context)
    psi = require_verified(psi, "closed-form U_1 inverse fails the relations", **context)
    if not check_inverse_pair(phi, psi):
        raise AnomalyError(
            "closed-form U_1 maps are not mutually inverse",
            payload={**context, "phi": map_to_json(phi), "psi": map_to_json(psi)},
        )
    return phi, psi


# -- polynomial tuples on the L_n side -----------------------------------------------
#
# Aut(L_n) elements are handled as plain n-tuples of polynomials.  Inverses
# of general polynomial automorphisms are deliberately not computed; instead
# the elementary and affine constructors below return closed-form inverse
# tuples.


def poly_subst(f: Element, images: Sequence[Element]) -> Element:
    """Substitute images[i-1] for l_i in a polynomial f."""
    if not in_L(f):
        raise DomainError("substitution source must be a polynomial")
    return _substitute(f, _as_images(f.n, images), ())


def compose_tuples(
    outer: Sequence[Element], inner: Sequence[Element]
) -> tuple[Element, ...]:
    """Tuple of the composition x -> outer(inner(x)) on generators.

    With outer the tuple of phi and inner the tuple of psi this is the tuple
    of phi ∘ psi, i.e. each inner polynomial evaluated on the outer images.
    """
    return tuple(poly_subst(g, outer) for g in inner)


def identity_tuple(n: int) -> tuple[Element, ...]:
    return tuple(gen_l(n, i) for i in range(1, _ambient(n) + 1))


def elementary_tuple(n: int, i: int, alpha, f: Element):
    """l_i -> alpha*l_i + f with f free of l_i; returns (tuple, inverse tuple)."""
    alpha = as_fraction(alpha)
    if not alpha:
        raise DomainError("elementary scale must be nonzero")
    i = _index(i, _ambient(n), "variable index")
    if not in_L(f) or f.n != n:
        raise DomainError("added term must be a polynomial of the same ambient")
    if any(lexp[i - 1] for (lexp, _), _ in f.int_terms()[1]):
        raise DomainError("added term must not involve the moved variable")
    fwd = list(identity_tuple(n))
    inv = list(identity_tuple(n))
    fwd[i - 1] = alpha * gen_l(n, i) + f
    inv[i - 1] = (gen_l(n, i) - f) / alpha
    return tuple(fwd), tuple(inv)


def affine_tuple(n: int, matrix, shift=None):
    """l_i -> sum_j A[i][j] l_j + c_i for invertible A; returns both tuples.

    Row i of [A | c] is scaled to ints by the lcm of its denominators, and
    one `linalg.RowReduction` takes the int rows of [A | -c | I] to
    [I | -A^-1 c | A^-1], whose right half holds the inverse's images
    sum_j (A^-1)_ij l_j - (A^-1 c)_i.  Each image is put together by
    `_from_ints` from one int row over its scale; a singular A is a
    ValueError.
    """
    a = [[as_fraction(x) for x in row] for row in matrix]
    c = [as_fraction(x) for x in (shift or [0] * len(a))]
    if len(a) != _ambient(n) or any(len(row) != n for row in a) or len(c) != n:
        raise DomainError("affine data has wrong shape")
    # column j < n holds l_(j+1) and column n the unit word
    words = [(tuple(int(k == j) for k in range(n)), ()) for j in range(n)] + [((0,) * n, ())]
    fwd, rows = [], []
    for i, row in enumerate(a):
        row = [*row, c[i]]
        den = lcm(*(x.denominator for x in row))
        ints = {j: x.numerator * (den // x.denominator) for j, x in enumerate(row) if x}
        fwd.append(_from_ints(n, {words[j]: v for j, v in ints.items()}, den))
        rows.append({j: -v if j == n else v for j, v in ints.items()} | {n + 1 + i: den})
    red = linalg.RowReduction(n, 2 * n + 1, rows)
    if red.pivot_cols != list(range(n)):
        raise ValueError("matrix is singular")
    inv_words = words[n:] + words[:n]  # columns n..2n
    inv = [_from_ints(n, {inv_words[j - n]: v for j, v in r.items() if j >= n}, den)
           for den, r in red.echelon_rows()]
    return tuple(fwd), tuple(inv)


# -- serialization ---------------------------------------------------------------


def map_fields(m, image) -> dict:
    """The fields of m's JSON form in their order, each image as image(g)."""
    return {
        "n": m.n,
        "kind": "derivation" if isinstance(m, Derivation) else "endomorphism",
        "l_images": list(map(image, m.l_images)),
        "r_images": list(map(image, m.r_images)),
        "verified": m.verified,
    }


def map_to_json(m) -> dict:
    return map_fields(m, element_to_json)


def map_from_json(data: dict):
    """The map stored in `data`, flagged by re-checking its relations."""
    return checked_map_from_json(data)[0]


def checked_map_from_json(data: dict) -> tuple:
    """(flagged map, violations) of the map stored in `data`, from one re-check
    of its relations: a stored "verified" field is ignored, as data is no proof.
    n is passed as it is, so the re-check's `_as_images` refuses a bad one."""
    l_images = tuple(element_from_json(d) for d in data["l_images"])
    r_images = tuple(element_from_json(d) for d in data["r_images"])
    cls, check = {
        "derivation": (Derivation, check_derivation),
        "endomorphism": (Endomorphism, check_endomorphism),
    }[data["kind"]]
    return check(cls(data["n"], l_images, r_images))
