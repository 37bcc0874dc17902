"""Exact linear algebra on finite-dimensional graded slices of U_n.

Makes the existence statements about the algebra constructive at desk scale:
graded slices (their sizes charged to the term budget before enumeration),
ad_{l_i}-preimages, the solutions of -ad_{l_i}(g) = r_i g + g r_i, the
r_i^k factorization and bases of homogeneous derivation spaces, each from
a closed form or an explicit spanning family, with its proof in its
docstring; no residual system is assembled.  Every answer is re-checked
against its defining condition, and a result contradicting a proved
statement raises `AnomalyError` carrying the full offending data; those
cases are bug evidence and must never be swallowed.
"""

from __future__ import annotations

import itertools
from math import comb, factorial, prod

from .algebra import (
    BasisWord,
    DomainError,
    Element,
    _ambient,
    _charge,
    _from_ints,
    _insert_letter,
    _r_gradient,
    _signed_products,
    _weight_vector,
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
from .linalg import RowReduction
from .maps import AnomalyError, Derivation, _from_slots, _slots, ad, require_verified


def graded_slice(n: int, m: int, restrict_to_I: bool = False) -> tuple[BasisWord, ...]:
    """The degree-m basis words (standard weights), in canonical order."""
    return weighted_slice(n, m, (1,) * n, restrict_to_I)


def dim(n: int, m: int) -> int:
    """Dimension of the degree-m component of U_n, by `_slice_size`."""
    return _slice_size(m, (1,) * n, False) if m >= 0 else 0


def _slice_size(m: int, weights: tuple[int, ...], restrict_to_I: bool) -> int:
    """Number of basis words of w-degree m >= 0, counted as l-monomials
    (lmon[k]) times r-words (rwords[m - k]) of w-degrees adding up to m."""
    lmon = [1] + [0] * m
    for w in weights:
        for k in range(w, m + 1):
            lmon[k] += lmon[k - w]
    rwords = [1] + [0] * m
    for k in range(1, m + 1):
        rwords[k] = sum(rwords[k - w] for w in weights if w <= k)
    total = sum(map(int.__mul__, lmon, reversed(rwords)))
    return total - lmon[m] if restrict_to_I else total


def _lmonomials(m: int, weights: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Exponent vectors of the l-monomials of w-degree m, in lex order."""
    if m < 0:
        return []
    vecs = [((), m)]
    for w in weights[:-1]:
        vecs = [(e + (k,), left - k * w) for e, left in vecs for k in range(left // w + 1)]
    last = weights[-1]
    return [e + (left // last,) for e, left in vecs if left % last == 0]


def weighted_slice(
    n: int, m: int, weights: tuple[int, ...], restrict_to_I: bool = False
) -> tuple[BasisWord, ...]:
    """The basis words of w-degree m for strictly positive weights, sorted
    by `word_key`, greatest first; their number is charged to the term
    budget before they are listed."""
    weights = _weight_vector(weights, _ambient(n))
    if any(w < 1 for w in weights):
        raise DomainError("weighted slices are finite only for positive weights")
    if m >= 0:
        _charge(_slice_size(m, weights, restrict_to_I))
    rwords = [[()]]  # rwords[k]: the r-words of w-degree k
    for k in range(1, m + 1):
        rwords.append([v + (j,) for j, w in enumerate(weights, 1) if w <= k for v in rwords[k - w]])
    words = [
        BasisWord(lexp, v)
        for k in range(m + 1)
        for lexp in _lmonomials(k, weights)
        for v in rwords[m - k]
        if v or not restrict_to_I
    ]
    words.sort(key=word_key, reverse=True)
    return tuple(words)


# -- preimages under the inner derivations ad_{l_i} ------------------------------


def _shuffle_letter(pairs, i: int, out: dict) -> dict[tuple, int]:
    """Add T_i = (. ⧢ r_i) of ((head, r-word), int) pairs into `out`; return it.

    T_i puts r_i into every place of each r-word (`_insert_letter` from
    place 0, runs merged); the head is carried along.  Charged to the term
    budget.
    """
    for (head, v), c in pairs:
        for w, m in _insert_letter(v, i, 0):
            key = (head, w)
            total = out.get(key, 0) + c * m
            if total:
                out[key] = total
            elif key in out:
                del out[key]
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
    h = {((lexp, rword[0]), rword[1:]): -c for (lexp, rword), c in terms}
    while h := {(head, v[1:]): c for (head, v), c in h.items() if v[:1] == (i,)}:
        residuals.append(h)
    scale = factorial(len(residuals))
    acc: dict[tuple, int] = {}
    for k in reversed(range(len(residuals))):
        f = (-1) ** k * (scale // factorial(k + 1))
        scaled = {w: f * c for w, c in residuals[k].items()}
        acc = _shuffle_letter(acc.items(), i, scaled)
    nums = {(s, (a,) + v): c for ((s, a), v), c in acc.items()}
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
    """Basis of the homogeneous g of degree d with -ad_{l_i}(g) = r_i g + g r_i.

    The basis is g_{j,t} = r_i (l^t / t!) r_j, j = 1..n, |t| = d - 2, t! =
    prod_k t_k!, ordered by each member's least word (`word_key`), greatest
    first.  The member count n C(d + n - 3, n - 1) is charged to the term
    budget before the members are listed, and each member's size before it
    is built; a member failing its re-check against the condition, or with a
    leading coefficient outside span{r_i r_j}, raises AnomalyError.

    Proof.  ad_{l_i} kills L_n and ad_{l_i}(r_k) = -r_k r_i, so every
    r_i h r_j with h in L_n solves.  Conversely, with g = sum_u l^u g_u and
    g_u in R_n, Cor. 2.3 makes the l^u part of the condition T(g_u) =
    sum_{e != 0} (u+e)!/u! r_i V_e g_{u+e}, V_e the r-words of content e,
    T(x) = D_i(x) - x r_i - r_i x and D_i inserting r_i after each letter.
    So g_u is fixed by the g_{u'} with |u'| > |u| up to ker T, which is
    span{r_i r_b} at length 2 and 0 elsewhere: there are at most n dim
    L_{d-2} independent solutions, and the g_{j,t} are that many (the
    length-2 part of g_{j,t} at l^t is r_i r_j / t!).  The least word of
    g_{j,t}, an r_i V_t r_j with coefficient 1, is in no other member, so
    they are the kernel basis an elimination of the condition reads off.
    ker T: with r_i the greatest letter, inserting r_i at the first of
    several places gives the lex-greatest word, one-to-one and monotone, so
    S (insertion at every place but the last) is injective from length 1
    and E (at every inner place) from length 2.  T(1) = -2 r_i and
    T(r_b y) = r_b S(y) - r_i r_b y, so x = sum_b r_b y_b in ker T has
    S(y_b) = 0 for b != i and S(y_i) = x: at length 1, y_i is a scalar and
    x = S(y_i) = 0; beyond, x = r_i y_i and E(y_i) = x - r_i y_i = 0, so
    |y_i| = 1.
    """
    n = _ambient(n)
    if not 1 <= i <= n:
        raise DomainError("index out of range")
    if d < 2:
        raise DomainError("degree must be >= 2")

    def least_word(member):
        j, t = member
        middle = [k for k in range(n, 0, -1) for _ in range(t[k - 1])]
        return word_key(((0,) * n, (i, *middle, j)))

    _charge(n * comb(d + n - 3, n - 1))
    members = [(j, t) for t in _lmonomials(d - 2, (1,) * n) for j in range(1, n + 1)]
    ri = gen_r(n, i)
    l_num, r_num = gen_l(n, i).int_terms()[1], ri.int_terms()[1]  # over denominator 1
    out = []
    for j, t in sorted(members, key=least_word, reverse=True):
        boxes = itertools.product(*(range(k + 1) for k in t))
        _charge(sum(factorial(sum(e)) // prod(map(factorial, e)) for e in boxes))
        lt = _from_ints(n, {(t, ()): 1}, prod(map(factorial, t)))
        g = mul(mul(ri, lt), gen_r(n, j))
        payload = {"n": n, "i": i, "degree": d}
        # [g, l_i] - r_i g - g r_i, one map over g's denominator
        den, x = g.int_terms()
        acc = _signed_products(((1, x, l_num), (-1, l_num, x), (-1, r_num, x), (-1, x, r_num)))
        if acc:
            residual = _from_ints(n, acc, den)
            payload.update(solution=element_to_json(g), residual=element_to_json(residual))
            raise AnomalyError("Lemma 2.7 solution failed its re-check", payload)
        if not all(len(v) == 2 and v[0] == i for (_, v), _ in lm_lc(g)[1].int_terms()[1]):
            payload["solution"] = element_to_json(g)
            raise AnomalyError("leading coefficient outside the predicted span", payload)
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
        v = _from_ints(n, {w: -c for w, c in shuffled}, den * (kk - 1))
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

    For positive weights these derivations are spanned by the families
    - inner: ad_w for every basis word w of w-degree m in I_n (for w in
      L_n, ad_w lies in the next family: ad_w(r_k) = -r_k sum_j (dw/dl_j) r_j);
    - vanishing on L_n: D(l_k) = 0, D(r_k) = r_k f r_j for all k, for each
      j and each l-monomial f of w-degree m - w_j;
    - lifted, unless into_I: for each slot k and l-monomial g of w-degree
      m + w_k, D(l_k) = g, D(r_k) = sum_j (dg/dl_j) r_j, other images 0;
    - for n = 1 and m = 0 only: D(l_1) = r_1, D(r_1) = 0.
    The members are laid out over the (slot, basis word) columns they touch,
    in slice order, and one elimination over the columns in reverse order
    (`_column_key`) gives the reduced echelon form read from the right:
    its rows over their pivots, in pivot column order, are the kernel basis
    an elimination of the relation residuals would give.  Each is
    re-checked with check_derivation before being returned.

    Proof.  The members are derivations: ad_w plainly, the lifts by Cor.
    2.3, D(l_1) = r_1 by relation s2(1,1), the second family by the steps
    below.  Let D have w-degree m.  Subtract the lift of the L-parts of the
    D(l_k).  For n >= 2 the l-images left lie in I_n and are compatible
    (relation s1), so `ad_preimage`'s theorem gives h in I_n with D - lift
    - ad_h zero on L_n.  Then relation s2(i,i) is the Lemma 2.7 condition
    on D(r_i), so D(r_i) = r_i F_i, F_i = sum_k f_{ik} r_k with f_{ik} in
    L_n (`lemma27_solutions`).  As ad_{l_j}(f r_k) = -f r_k r_j, relation
    s2(i,j) reduces to r_i r_j F_i = r_i r_j F_j, and left multiplication
    by r_k is injective (it prepends r_k to the R_n-coefficient of the
    greatest L-monomial), so all F_i are one F.  For n = 1, ad_{l_1}(I_1)
    misses the words l^s r_1, which leaves D(l_1) = a l^s r_1, s w_1 = m:
    for s >= 1 the l^(s+1), l^s r_1^2 and l^(s-1) r_1^3 coefficients of
    relation s2(1,1) give a s = 0; for s = 0 it is a times the last member.
    """
    weights = tuple(weights) if weights is not None else (1,) * n
    zero = Element.zero(n)
    gens = [gen_l(n, k) for k in range(1, n + 1)] + [gen_r(n, k) for k in range(1, n + 1)]
    words_in_I = weighted_slice(n, m, weights, restrict_to_I=True)
    inner = [ad(_from_ints(n, {tuple(w): 1})) for w in words_in_I]
    members = [_slots(d) for d in inner]
    for j, wj in enumerate(weights, 1):
        for f in _lmonomials(m - wj, weights):
            lf = _from_ints(n, {(f, ()): 1})
            members.append([zero] * n + [mul(mul(r, lf), gens[n + j - 1]) for r in gens[n:]])
    if not into_I:
        for k, wk in enumerate(weights):
            for g in _lmonomials(m + wk, weights):
                lg = _from_ints(n, {(g, ()): 1})
                images = [zero] * (2 * n)
                images[k], images[n + k] = lg, _r_gradient(lg)
                members.append(images)
    if n == 1 and m == 0:
        members.append([gens[1], zero])

    # the family images are integral, so their numerators are their coefficients
    rows = [
        {(slot, w): c for slot, g in enumerate(images) for w, c in g.int_terms()[1]}
        for images in members
    ]
    columns = sorted({key for row in rows for key in row}, key=_column_key)
    col_of = {key: col for col, key in enumerate(columns)}
    sparse_rows = [{col_of[key]: c for key, c in row.items()} for row in rows]
    red = RowReduction(len(rows), len(columns), sparse_rows)
    out = []
    for den, row in reversed(red.echelon_rows()):
        chunks = [{} for _ in range(2 * n)]
        for col, c in row.items():
            slot, w = columns[col]
            chunks[slot][w] = c
        imgs = (_from_ints(n, chunk, den) for chunk in chunks)
        out.append(
            require_verified(
                _from_slots(Derivation, n, imgs),
                "basis member failed the relation re-check",
                wdeg=m,
                weights=list(weights),
                into_I=into_I,
            )
        )
    return out


def _column_key(column):
    """Order of the (slot, basis word) columns `derivation_space` eliminates
    in: the last slot first, and within a slot the words by `word_key`."""
    slot, word = column
    return (-slot, word_key(word))


def derivation_coords(d: Derivation, space: list[Derivation]):
    """Coordinates of d in the span of a `derivation_space` basis, or None.

    Such a basis is in reduced echelon form: each member's pivot, its least
    column in `_column_key` order, holds 1 in that member and 0 in every
    other.  So each coordinate is d's coefficient at that member's pivot,
    and d lies in the span iff it equals that combination, checked exactly.
    A list that is not reduced at its pivots, or of another ambient than
    d, is a DomainError.
    """
    if not space:
        return None
    n = d.n
    if any(member.n != n for member in space):
        raise DomainError("derivation_coords needs a basis of d's ambient")
    members = [_slots(member) for member in space]
    pivots = []
    for images in members:
        columns = [(slot, w) for slot, g in enumerate(images) for w, _ in g.int_terms()[1]]
        if not columns:
            raise DomainError("a zero member has no pivot")
        pivots.append(min(columns, key=_column_key))
    for k, images in enumerate(members):
        for kk, (slot, w) in enumerate(pivots):
            if images[slot].coefficient(*w) != int(k == kk):
                raise DomainError("derivation_coords needs a basis reduced at its pivots")
    target = _slots(d)
    x = [target[slot].coefficient(*w) for slot, w in pivots]
    # one constructor call per slot; the members' equal words add up
    for slot, g in enumerate(target):
        terms = [
            (w, xk * c) for images, xk in zip(members, x) if xk for w, c in images[slot].terms()
        ]
        if Element(n, terms) != g:
            return None
    return x
