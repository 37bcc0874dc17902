"""Exact linear algebra on finite-dimensional graded slices of U_n.

Makes the existence statements about the algebra constructive at desk scale:
basis enumeration of homogeneous components, preimages under the inner
derivations ad_{l_i} (in closed form, see `ad_preimage`), enumeration of
solutions of the -ad_{l_i}(g) = r_i g + g r_i condition, the r_i^k
factorization, and bases of homogeneous derivation spaces.

The two solver systems (the Lemma 2.7 condition and the relation residuals
of derivation spaces) are assembled column by column: each column's image
is a signed sum of products of one basis word with one generator, computed
by `algebra._signed_products`, the accumulator `mul` runs on, so the rows
hold ints and no Element is built.  Both share the (sign, left, right) form
of the one residual table in `maps`: derivation spaces pass its entries as
they are, and `check_derivation` evaluates the same table on the images of
every solution when it re-checks it, never on the rows or the kernel.

Whenever a solve contradicts one of the proved existence statements the
failure is raised as `AnomalyError` carrying the full offending data;
those cases are bug evidence and must never be swallowed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, factorial

from .algebra import (
    BasisWord,
    DomainError,
    Element,
    _basis_word,
    _charge,
    _from_ints,
    _signed_products,
    commutator,
    element_to_json,
    gen_l,
    gen_r,
    in_I,
    in_R,
    is_homogeneous,
    lm_lc,
    mul,
    word_key,
)
from .linalg import RowReduction, system_json
from .maps import (
    AnomalyError,
    Derivation,
    derivation_residual_terms,
    relations,
    require_verified,
)


@dataclass(frozen=True)
class GradedSlice:
    """Ordered basis of the homogeneous component of one (weighted) degree."""

    n: int
    degree: int
    weights: tuple[int, ...]
    basis: tuple[BasisWord, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def index(self) -> dict[BasisWord, int]:
        """Word -> basis position, built on first use; not a dataclass field,
        so equality and hashing still look at the basis only."""
        return {w: i for i, w in enumerate(self.basis)}


def graded_slice(n: int, m: int, restrict_to_I: bool = False) -> GradedSlice:
    """Basis of all degree-m basis words (standard weights), canonical order."""
    return weighted_slice(n, m, (1,) * n, restrict_to_I)


def dim(n: int, m: int) -> int:
    """Closed-form dimension of the degree-m component of U_n."""
    if m < 0:
        return 0
    return sum(comb(a + n - 1, n - 1) * n ** (m - a) for a in range(m + 1))


def _rwords_of_weight(n: int, budget: int, weights: tuple[int, ...]):
    """All r-words of total weight `budget`, grown a letter at a time from an
    explicit stack of (word, weight left)."""
    stack = [((), budget)]
    while stack:
        word, left = stack.pop()
        if not left:
            yield word
            continue
        for j in range(1, n + 1):
            if weights[j - 1] <= left:
                stack.append((word + (j,), left - weights[j - 1]))


@lru_cache(maxsize=None)
def weighted_slice(
    n: int, m: int, weights: tuple[int, ...], restrict_to_I: bool = False
) -> GradedSlice:
    """Basis of the w-degree-m component for strictly positive weights."""
    if len(weights) != n:
        raise DomainError("weight vector length must equal the ambient n")
    if any(w < 1 for w in weights):
        raise DomainError("weighted slices are finite only for positive weights")
    if m < 0:
        return GradedSlice(n, m, weights, ())
    words = []
    max_exp = [m // w for w in weights]
    for lexp in itertools.product(*(range(e + 1) for e in max_exp)):
        lw = sum(e * w for e, w in zip(lexp, weights))
        if lw > m:
            continue
        for rword in _rwords_of_weight(n, m - lw, weights):
            if restrict_to_I and not rword:
                continue
            words.append(BasisWord(tuple(lexp), rword))
    words.sort(key=word_key, reverse=True)
    return GradedSlice(n, m, weights, tuple(words))


def _position(w, s: GradedSlice) -> int:
    pos = s.index.get(w)
    if pos is None:
        raise DomainError(
            f"term {w} is not in the degree-{s.degree} slice (inhomogeneous input?)"
        )
    return pos


# -- systems assembled from the straightening constants ----------------------


def _generator_word(n: int, slot: int) -> BasisWord:
    """Basis word of the generator in `slot` (l_1..l_n, then r_1..r_n, from 0)."""
    if slot < n:
        return BasisWord(tuple(int(k == slot) for k in range(n)), ())
    return BasisWord((0,) * n, (slot - n + 1,))


def _assemble(rows, row_base, target, col_base, source, products) -> None:
    """Write into `rows` the integer matrix of w -> sum(sign * left * right).

    `products` holds (sign, left, right) in the form of the residual table in
    `maps`: one factor is None, standing for the unit basis word w of
    `source`, and the other a generator slot (l_1..l_n, then r_1..r_n, from
    0), read here as its basis word.  The image of the k-th word fills
    column col_base + k of rows row_base + position in `target`.  The
    generators left of w add up to one int combination a, those right of it
    to one combination b, and each image a w + w b is one `_signed_products`
    map, read off the straightening constants and charged to the term
    budget as `mul` would charge it.
    """
    n = source.n
    a = [(_generator_word(n, x), sign) for sign, x, _ in products if x is not None]
    b = [(_generator_word(n, x), sign) for sign, _, x in products if x is not None]
    for col, w in enumerate(source.basis, col_base):
        unit = ((w, 1),)
        image = _signed_products(((1, a, unit), (1, unit, b)))
        for key, c in image.items():
            rows[row_base + _position(key, target)][col] = c


# -- preimages under the inner derivations ad_{l_i} ------------------------------


def _shuffle_letter(pairs, i: int, out: dict) -> dict[tuple, int]:
    """Add T_i = (. ⧢ r_i) of ((head, r-word), int) pairs into `out`; return it.

    r_i goes into each of the len + 1 places of every r-word; the m + 1 places
    around a run of m letters r_i make one word, added once with weight m + 1.
    The head is carried along.  Charged to the term budget.
    """
    for (head, v), c in pairs:
        run = 0
        for p, x in enumerate((*v, 0)):  # 0 is no letter: it ends the last run
            if x == i:
                run += 1
                continue
            key = (head, v[:p] + (i,) + v[p:])
            total = out.get(key, 0) + c * (run + 1)
            if total:
                out[key] = total
            elif key in out:
                del out[key]
            run = 0
    _charge(len(out))
    return out


def ad_preimage(us) -> Element:
    """The g in I_n with ad_{l_i}(g) = u_i for all i, in closed form.

    The u_i must be homogeneous of one degree t, lie in I_n and satisfy the
    compatibility ad_{l_j}(u_i) = ad_{l_i}(u_j); g then exists (a theorem).
    It is computed from the first nonzero u_i and re-checked against every
    u_k.  A passing re-check implies compatibility, since the ad_{l_i}
    commute, so compatibility is checked only after a failed one: incompatible
    images raise DomainError, and a failure on compatible ones AnomalyError.

    Why g is unique and of this form.  For an r-word w, w l_i = l_i w +
    D_i(w), D_i the derivation of R_n inserting r_i after each letter, so
    ad_{l_i}(l^s r_a v) = -l^s r_a T_i(v) with T_i(v) = v ⧢ r_i: ad_{l_i} is
    block diagonal in (s, a), and -T_i on each block.  The left residual d_i
    (d_i(r_i v) = v, d_i(r_b v) = 0 for b != i) is a shuffle derivation with
    d_i(r_i) = 1, so d_i^(k+1) T_i = T_i d_i^(k+1) + (k+1) d_i^k.  With
    L = sum_k (-1)^k T_i^k d_i^(k+1) / (k+1)! and a_k = (-1)^k T_i^k d_i^k / k!,
    L T_i = sum_k (a_k - a_(k+1)) = a_0 = 1, all sums finite.  So T_i and
    every ad_{l_i} on I_n are injective, the stacked system has kernel 0 at
    every degree, and for u_i = -sum l^s r_a h_(s,a), g = sum l^s r_a L(h_(s,a)).

    L runs as acc <- T_i(acc) + (-1)^k d_i^(k+1) h / (k+1)! for k = p-1 .. 0,
    in ints over p! times u_i's denominator, p the longest leading run of r_i
    in the h.  For h = T_i(x) the commutation above makes acc after step k
    (-1)^k d_i^k(x) / k!, so no partial sum has more terms than g.
    """
    us = list(us)
    if not us:
        raise DomainError("empty image tuple")
    n = us[0].n
    if len(us) != n:
        raise DomainError(f"expected {n} images for ambient n={n}")
    if n < 2:
        raise DomainError("preimages need ambient n >= 2")
    for u in us:
        if u.n != n:
            raise DomainError("ambient mismatch among images")
        if not in_I(u):
            raise DomainError("images must lie in the ideal generated by the r's")
        if not is_homogeneous(u):
            raise DomainError("images must be homogeneous")
    degrees = {u.degree() for u in us if not u.is_zero}
    if len(degrees) > 1:
        raise DomainError("images must share one degree")
    if not degrees:
        return Element.zero(n)

    i = next(k for k, u in enumerate(us, 1) if not u.is_zero)
    den, terms = us[i - 1].int_terms()
    # the nonzero d_i^(k+1) h, keyed by ((s, a), tail), from k = 0
    residuals = []
    h = {((w.lexp, w.rword[0]), w.rword[1:]): -c for w, c in terms}
    while h := {(head, v[1:]): c for (head, v), c in h.items() if v[:1] == (i,)}:
        residuals.append(h)
    scale = factorial(len(residuals))
    acc: dict[tuple, int] = {}
    for k in reversed(range(len(residuals))):
        f = (-1) ** k * (scale // factorial(k + 1))
        scaled = {w: f * c for w, c in residuals[k].items()}
        acc = _shuffle_letter(acc.items(), i, scaled)
    nums = {BasisWord(s, (a,) + v): c for ((s, a), v), c in acc.items()}
    g = _from_ints(n, nums, den * scale)

    for k in range(n):
        residual = commutator(gen_l(n, k + 1), g) - us[k]
        if not residual.is_zero:
            _require_compatible(us)
            raise AnomalyError(
                "ad-preimage re-check failed despite compatible homogeneous input",
                payload={
                    "n": n,
                    "degree": us[i - 1].degree(),
                    "images": [element_to_json(u) for u in us],
                    "g": element_to_json(g),
                    "k": k + 1,
                    "residual": element_to_json(residual),
                },
            )
    return g


def _require_compatible(us) -> None:
    """DomainError unless ad_{l_j}(u_i) = ad_{l_i}(u_j) for all i < j."""
    n = len(us)
    for i in range(n):
        for j in range(i + 1, n):
            if commutator(gen_l(n, j + 1), us[i]) != commutator(gen_l(n, i + 1), us[j]):
                raise DomainError(
                    f"compatibility fails: ad_l{j+1}(u_{i+1}) != ad_l{i+1}(u_{j+1})"
                )


# -- the quadratic leading-coefficient condition ---------------------------------


def lemma27_solutions(n: int, i: int, d: int) -> list[Element]:
    """Basis of homogeneous g in I_n of degree d with -ad_{l_i}(g) = r_i g + g r_i.

    Every solution's leading coefficient must lie in span{r_i r_1, .., r_i r_n};
    a solution violating that contradicts the proved statement and raises
    AnomalyError.
    """
    if not 1 <= i <= n:
        raise DomainError("index out of range")
    if d < 2:
        raise DomainError("degree must be >= 2")
    unknown = graded_slice(n, d, restrict_to_I=True)
    target = graded_slice(n, d + 1, restrict_to_I=True)
    li, ri = i - 1, n + i - 1
    # -(l_i g - g l_i) - r_i g - g r_i
    condition = ((-1, li, None), (1, None, li), (-1, ri, None), (-1, None, ri))
    rows = [{} for _ in range(target.dim)]
    _assemble(rows, 0, target, 0, unknown, condition)
    red = RowReduction(target.dim, unknown.dim, rows)
    out = []
    for den, vec in red.kernel_vectors():
        g = _from_ints(n, {unknown.basis[c]: v for c, v in vec.items()}, den)
        lc = lm_lc(g)[1]
        ok = all(
            len(w.rword) == 2 and w.rword[0] == i for w, _ in lc.int_terms()[1]
        )
        if not ok:
            raise AnomalyError(
                "solution with leading coefficient outside the predicted span",
                payload={
                    "n": n,
                    "i": i,
                    "degree": d,
                    "solution": element_to_json(g),
                    "system": system_json(rows, unknown.dim),
                },
            )
        out.append(g)
    return out


# -- the r_i^k factorization -------------------------------------------------------


def rfactor_decompose(k: int, i: int, j: int, h: Element) -> tuple[Element, Element]:
    """Write r_i^k r_j h = ad_{l_i}(r_i u) + r_i r_j v with u, v in R_n.

    Unrolls the degree-reducing recursion on k into a loop (base case u=0,
    v=h); the identity is re-verified by multiplication before returning.
    """
    n = h.n
    if i == j:
        raise DomainError("indices must differ")
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError("index out of range")
    if k < 1:
        raise DomainError("power must be >= 1")
    if not in_R(h):
        raise DomainError("cofactor must lie in R_n")
    li, ri, rj = gen_l(n, i), gen_r(n, i), gen_r(n, j)
    # r_i^k r_j h = -1/(k-1) ad_{l_i}(r_i^{k-1} r_j h) + r_i^{k-1} r_j h' with
    # h' = (ad_{l_i}(h) - r_i h) / (k-1) = -T_i(h) / (k-1); repeat on the
    # second piece down to k = 1, where u gains nothing and v = h.
    u, v = Element.zero(n), h
    for kk in range(k, 1, -1):
        if v.is_zero:
            break
        u = u - mul(mul(ri ** (kk - 2), rj), v) / (kk - 1)
        den, terms = v.int_terms()
        shuffled = _shuffle_letter(terms, i, {}).items()
        v = _from_ints(n, {_basis_word(w): -c for w, c in shuffled}, den * (kk - 1))
    lhs = mul(mul(ri**k, rj), h)
    rhs = commutator(li, mul(ri, u)) + mul(mul(ri, rj), v)
    if lhs != rhs:
        raise AnomalyError(
            "factorization identity failed",
            payload={"k": k, "i": i, "j": j, "h": element_to_json(h)},
        )
    return u, v


# -- homogeneous derivation spaces ----------------------------------------------------


def derivation_space(
    n: int, m: int, into_I: bool = False, weights=None
) -> list[Derivation]:
    """Exact basis of the w-homogeneous derivations of w-degree m.

    Unknowns are the images of the 2n generators, each confined to the slice
    of w-degree m + w_i (optionally inside I_n); the constraints are the
    relation residuals of `maps.derivation_residual_terms`, which are linear
    in the images: each slot's products are evaluated on the unit words of
    that slot's slice, and images of other slots do not enter.  Every basis
    member is re-checked with check_derivation before being returned.
    """
    weights = tuple(weights) if weights is not None else (1,) * n
    if len(weights) != n:
        raise DomainError("weight vector length must equal the ambient n")

    # slots l_1..l_n, then r_1..r_n
    slot_slices = [weighted_slice(n, m + w, weights, into_I) for w in weights] * 2
    offsets = [0, *itertools.accumulate(s.dim for s in slot_slices)]
    total_unknowns = offsets[-1]
    if total_unknowns == 0:
        return []

    rels = list(relations(n))
    residual_slices = [
        weighted_slice(n, m + weights[i - 1] + weights[j - 1], weights)
        for _, i, j in rels
    ]
    row_offsets = [0, *itertools.accumulate(s.dim for s in residual_slices)]
    total_rows = row_offsets[-1]

    sparse_rows = [dict() for _ in range(total_rows)]
    for rel, base, target in zip(rels, row_offsets, residual_slices):
        for slot, products in derivation_residual_terms(n, *rel).items():
            _assemble(
                sparse_rows, base, target, offsets[slot], slot_slices[slot], products
            )

    red = RowReduction(total_rows, total_unknowns, sparse_rows)
    slot_words = [(slot, w) for slot, s in enumerate(slot_slices) for w in s.basis]
    out = []
    for den, vec in red.kernel_vectors():
        chunks = [{} for _ in slot_slices]
        for col, v in vec.items():
            slot, w = slot_words[col]
            chunks[slot][w] = v
        imgs = tuple(_from_ints(n, chunk, den) for chunk in chunks)
        out.append(
            require_verified(
                Derivation(n, imgs[:n], imgs[n:]),
                "kernel member failed the relation re-check",
                wdeg=m,
                weights=list(weights),
                into_I=into_I,
            )
        )
    return out


def derivation_coords(d: Derivation, space: list[Derivation]):
    """Coordinates of d in the span of a derivation-space basis, or None.

    Flattens every derivation over the union of basis words appearing in the
    space and in d, then solves exactly.
    """
    if not space:
        return None
    n = d.n
    slots = 2 * n

    def images(dd):
        return list(dd.l_images) + list(dd.r_images)

    keys = []
    seen = set()
    for dd in space + [d]:
        for slot, img in enumerate(images(dd)):
            for w, _ in img.terms():
                if (slot, w) not in seen:
                    seen.add((slot, w))
                    keys.append((slot, w))
    rows = len(keys)
    sparse_rows = [dict() for _ in range(rows)]
    for col, dd in enumerate(space):
        imgs = images(dd)
        for rix, (slot, w) in enumerate(keys):
            c = imgs[slot].coefficient(w.lexp, w.rword)
            if c:
                sparse_rows[rix][col] = c
    red = RowReduction(rows, len(space), sparse_rows)
    target = images(d)
    b = [target[slot].coefficient(w.lexp, w.rword) for slot, w in keys]
    x, cert = red.solve(b)
    return x if cert is None else None
