"""Exact linear algebra on finite-dimensional graded slices of U_n.

Makes the existence statements about the algebra constructive at desk scale:
basis enumeration of homogeneous components, matrices of linear operators
between slices, exact solving, preimages under the stacked inner derivations
ad_{l_i}, enumeration of solutions of the -ad_{l_i}(g) = r_i g + g r_i
condition, the r_i^k factorization, and bases of homogeneous derivation
spaces.

Whenever a solve contradicts one of the proved existence statements the
failure is raised as `AnomalyError` carrying the full offending system;
those cases are bug evidence and must never be swallowed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb

from .algebra import (
    BasisWord,
    DomainError,
    Element,
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
    DERIVATION_RESIDUALS,
    AnomalyError,
    Derivation,
    derivation_residual_slots,
    relations,
    require_verified,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


@lru_cache(maxsize=None)
def _slice_index(s: GradedSlice) -> dict[BasisWord, int]:
    return {w: i for i, w in enumerate(s.basis)}


def _lexps_of_total(n: int, total: int):
    """All exponent vectors of length n with the given sum."""
    if n == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _lexps_of_total(n - 1, total - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def graded_slice(n: int, m: int, restrict_to_I: bool = False) -> GradedSlice:
    """Basis of all degree-m basis words (standard weights), canonical order."""
    if m < 0:
        return GradedSlice(n, m, (1,) * n, ())
    words = []
    for a in range(m + 1):
        b = m - a
        for lexp in _lexps_of_total(n, a):
            for rword in itertools.product(range(1, n + 1), repeat=b):
                if restrict_to_I and not rword:
                    continue
                words.append(BasisWord(lexp, rword))
    words.sort(key=word_key, reverse=True)
    return GradedSlice(n, m, (1,) * n, tuple(words))


def dim(n: int, m: int) -> int:
    """Closed-form dimension of the degree-m component of U_n."""
    if m < 0:
        return 0
    return sum(comb(a + n - 1, n - 1) * n ** (m - a) for a in range(m + 1))


def _rwords_of_weight(n: int, budget: int, weights: tuple[int, ...]):
    if budget == 0:
        yield ()
        return
    for j in range(1, n + 1):
        w = weights[j - 1]
        if w <= budget:
            for rest in _rwords_of_weight(n, budget - w, weights):
                yield (j,) + rest


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


def _positions(g: Element, s: GradedSlice, index: dict[BasisWord, int]):
    """(basis position, coefficient) for each term of g, by the index of s.

    The caller looks the index up: hashing a slice hashes its whole basis.
    """
    if g.n != s.n:
        raise DomainError("ambient mismatch between element and slice")
    for w, c in g.terms():
        pos = index.get(w)
        if pos is None:
            raise DomainError(
                f"term {w} is not in the degree-{s.degree} slice (inhomogeneous input?)"
            )
        yield pos, c


def coords(g: Element, s: GradedSlice) -> list[Fraction]:
    """Coordinate column of a homogeneous element in the slice basis."""
    col = [_ZERO] * s.dim
    for pos, c in _positions(g, s, _slice_index(s)):
        col[pos] = c
    return col


def uncoords(col, s: GradedSlice) -> Element:
    if len(col) != s.dim:
        raise DomainError("coordinate length does not match slice dimension")
    return Element(
        s.n,
        {w: Fraction(c) for w, c in zip(s.basis, col) if c},
        _trusted=True,
    )


def operator_matrix(op, source: GradedSlice, target: GradedSlice) -> list[dict]:
    """Sparse rows of a linear operator, one per target basis word.

    Raises DomainError when some basis image fails to land in the target
    slice (checked per basis vector).
    """
    rows = [{} for _ in range(target.dim)]
    index = _slice_index(target)
    for col, w in enumerate(source.basis):
        img = op(Element(source.n, {w: _ONE}, _trusted=True))
        for pos, c in _positions(img, target, index):
            rows[pos][col] = c
    return rows


# -- preimages under the stacked ad_{l_i} ---------------------------------------


@lru_cache(maxsize=None)
def _ad_stack(n: int, t: int):
    """Cached reduction of the stacked system ad_{l_i}(g) = u_i.

    The unknown g runs over the degree-(t-1) part of I_n; the images live in
    the degree-t part of I_n.  Returns (unknown slice, image slice, sparse
    system rows, reduction).  ad_{l_i} is applied as the commutator with l_i.
    """
    unknown = graded_slice(n, t - 1, restrict_to_I=True)
    image = graded_slice(n, t, restrict_to_I=True)
    sparse_rows = []
    for i in range(1, n + 1):
        sparse_rows += operator_matrix(partial(commutator, gen_l(n, i)), unknown, image)
    red = RowReduction(len(sparse_rows), unknown.dim, sparse_rows)
    return unknown, image, sparse_rows, red


def ad_preimage(us) -> tuple[Element, int]:
    """Solve ad_{l_i}(g) = u_i for all i simultaneously.

    The u_i must be homogeneous of one common degree, lie in I_n, and satisfy
    the compatibility ad_{l_j}(u_i) = ad_{l_i}(u_j); existence of g is then a
    theorem, so an inconsistent system raises AnomalyError with the offending
    data.  Free coordinates are pinned to zero, making the returned g the
    deterministic representative supported on pivot columns of the canonical
    slice order.  Also returns the kernel dimension at this degree, which is
    reported rather than asserted.
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
        return Element.zero(n), 0
    t = degrees.pop()

    ls = [gen_l(n, i) for i in range(1, n + 1)]
    for i in range(n):
        for j in range(i + 1, n):
            if commutator(ls[j], us[i]) != commutator(ls[i], us[j]):
                raise DomainError(
                    f"compatibility fails: ad_l{j+1}(u_{i+1}) != ad_l{i+1}(u_{j+1})"
                )

    unknown, image, sparse_rows, red = _ad_stack(n, t)
    b = []
    for u in us:
        b.extend(coords(u, image))
    x, cert = red.solve(b)
    if x is None:
        raise AnomalyError(
            "stacked ad-system inconsistent despite compatible homogeneous input",
            payload={
                "n": n,
                "degree": t,
                "images": [element_to_json(u) for u in us],
                "certificate": [str(c) for c in cert],
                "system": system_json(sparse_rows, unknown.dim),
                "rhs": [str(c) for c in b],
            },
        )
    return uncoords(x, unknown), len(red.free_cols)


def ad_kernel_dim(n: int, t: int) -> int:
    """Dimension of {g in I_n degree t-1 : all ad_{l_i}(g) = 0} (reported, not asserted)."""
    return len(_ad_stack(n, t)[3].free_cols)


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
    li, ri = gen_l(n, i), gen_r(n, i)

    def condition(g: Element) -> Element:
        return -commutator(li, g) - mul(ri, g) - mul(g, ri)

    rows = operator_matrix(condition, unknown, target)
    red = RowReduction(target.dim, unknown.dim, rows)
    out = []
    for vec in red.kernel_basis():
        g = uncoords(vec, unknown)
        lc = lm_lc(g)[1]
        ok = all(
            len(w.rword) == 2 and w.rword[0] == i for w, _ in lc.terms()
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

    Follows the degree-reducing recursion on k (base case u=0, v=h); the
    identity is re-verified by multiplication before returning.
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
    u, v = _rfactor_rec(k, i, j, h, n, li, ri, rj)
    lhs = mul(mul(ri**k, rj), h)
    rhs = commutator(li, mul(ri, u)) + mul(mul(ri, rj), v)
    if lhs != rhs:
        raise AnomalyError(
            "factorization identity failed",
            payload={"k": k, "i": i, "j": j, "h": element_to_json(h)},
        )
    return u, v


def _rfactor_rec(k, i, j, h, n, li, ri, rj):
    if h.is_zero:
        return Element.zero(n), Element.zero(n)
    if k == 1:
        return Element.zero(n), h
    # r_i^k r_j h = -1/(k-1) ad_{l_i}(r_i^{k-1} r_j h) + r_i^{k-1} r_j h'
    # with h' = (-r_i h + ad_{l_i}(h)) / (k-1); recurse on the second piece.
    c = Fraction(1, k - 1)
    h2 = c * (commutator(li, h) - mul(ri, h))
    u_rec, v = _rfactor_rec(k - 1, i, j, h2, n, li, ri, rj)
    u = u_rec - c * mul(mul(ri ** (k - 2), rj), h)
    return u, v


# -- homogeneous derivation spaces ----------------------------------------------------


def derivation_space(
    n: int, m: int, into_I: bool = False, weights=None
) -> list[Derivation]:
    """Exact basis of the w-homogeneous derivations of w-degree m.

    Unknowns are the images of the 2n generators, each confined to the slice
    of w-degree m + w_i (optionally inside I_n); the constraints are the same
    relation residuals used by check_derivation, which are linear in the
    images.  Every basis member is re-checked before being returned.
    """
    weights = tuple(weights) if weights is not None else (1,) * n
    if len(weights) != n:
        raise DomainError("weight vector length must equal the ambient n")
    if any(w < 1 for w in weights):
        raise DomainError("weighted slices are finite only for positive weights")

    # slots l_1..l_n, then r_1..r_n
    slot_slices = [weighted_slice(n, m + w, weights, into_I) for w in weights] * 2
    offsets = [0, *itertools.accumulate(s.dim for s in slot_slices)]
    total_unknowns = offsets[-1]
    if total_unknowns == 0:
        return []

    zero = Element.zero(n)

    def images_from_vector(vec):
        imgs = []
        for slot, s in enumerate(slot_slices):
            chunk = vec[offsets[slot] : offsets[slot + 1]]
            imgs.append(uncoords(chunk, s))
        return tuple(imgs[:n]), tuple(imgs[n:])

    rels = list(relations(n))
    residual_slices = {
        rel: weighted_slice(n, m + weights[rel[1] - 1] + weights[rel[2] - 1], weights)
        for rel in rels
    }
    row_offsets = [0, *itertools.accumulate(residual_slices[rel].dim for rel in rels)]
    total_rows = row_offsets[-1]

    sparse_rows = [dict() for _ in range(total_rows)]
    for slot, s in enumerate(slot_slices):
        # a unit image in this slot leaves every other residual zero
        touching = [
            (rel, row_offsets[ridx], _slice_index(residual_slices[rel]))
            for ridx, rel in enumerate(rels)
            if slot in derivation_residual_slots(n, *rel)
        ]
        for local, w in enumerate(s.basis):
            col = offsets[slot] + local
            imgs = [zero] * (2 * n)
            imgs[slot] = Element(n, {w: _ONE}, _trusted=True)
            probe = Derivation(n, tuple(imgs[:n]), tuple(imgs[n:]))
            for (kind, i, j), base, index in touching:
                res = DERIVATION_RESIDUALS[kind](probe, i, j)
                for word, c in res.terms():
                    sparse_rows[base + index[word]][col] = c

    red = RowReduction(total_rows, total_unknowns, sparse_rows)
    out = []
    for vec in red.kernel_basis():
        l_imgs, r_imgs = images_from_vector(vec)
        out.append(
            require_verified(
                Derivation(n, l_imgs, r_imgs),
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
