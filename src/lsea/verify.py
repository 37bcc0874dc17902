"""Seeded randomized verification suites.

Each suite replays one of the proved identities of U_n on randomly sampled
inputs and reports exact pass/fail counts.  Reports are deterministic
functions of (suite, seed, parameters); counterexamples are serialized JSON
fragments.  The suites ship with the CLI (`lsea verify <suite>`) so the
identities can be re-run by end users with one command.

Most suites check one random case at a time: `_per_case(name)` registers
such a case body in `SUITES` and runs it `cases` times on one
`random.Random(seed)` and one `RunReport`.  The body draws its inputs,
appends failures and caught `AnomalyError` payloads to the report, and any
other anomaly ends the run.  The other suites register a whole run with
`_suite(name)`: `lemma27` and `example41` draw nothing, `prop32` checks the
identity lift before its loop, and `equ5` builds and checks d/dl_1 once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    Element,
    _from_ints,
    element_to_json,
    exact_str,
    gen_l,
    gen_r,
    homogeneous_components,
    in_I,
    lm_lc,
    mul,
    pderiv_l,
    shift_lr,
    wdeg,
)
from .maps import (
    AnomalyError,
    Derivation,
    NonzeroThrough,
    ZeroAt,
    _from_slots,
    _slots,
    ad,
    affine_tuple,
    apply_derivation,
    apply_endo,
    check_derivation,
    check_endomorphism,
    check_inverse_pair,
    compose,
    compose_tuples,
    der_bracket,
    elementary_tuple,
    extend_lnd_prop55,
    graded_parts,
    identity_tuple,
    is_affine_U,
    is_identity,
    lift_phi,
    poly_subst,
    probe_nilpotent,
    require_verified,
    u1_closed_form,
)
from .solver import ad_preimage, lemma27_solutions, rfactor_decompose


@dataclass
class RunReport:
    """Outcome of one suite run; deterministic given (suite, seed, cases)."""

    suite: str
    seed: int
    cases: int
    failures: list[dict] = field(default_factory=list)
    anomalies: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.anomalies

    def line(self) -> str:
        return (
            f"suite {self.suite}: seed={self.seed} cases={self.cases} "
            f"failures={len(self.failures)} anomalies={len(self.anomalies)}"
        )


# -- random sampling helpers ----------------------------------------------------


# A coefficient num/den draws num from _NUMS, then den from _DENS; the
# samplers keep it as the int numerator num * (_SCALE // den) over _SCALE.
_NUMS = (-3, -2, -1, 1, 2, 3)
_DENS = (1, 1, 1, 2, 3)
_SCALE = 6  # lcm(*_DENS)


def rand_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_NUMS), rng.choice(_DENS))


def rand_words(rng: random.Random, n: int, terms: int, degree, l_part) -> Element:
    """Sum of `terms` random basis words with random coefficients.

    For each word `degree(rng)` draws its total degree and `l_part(rng, deg)`
    how many of its letters are l's; those fall on random indices and the
    remaining letters form a random r-word.  Repeated words add up; each
    coefficient is drawn as an int numerator over one common denominator.
    """
    nums: dict[tuple, int] = {}
    for _ in range(terms):
        deg = degree(rng)
        a = l_part(rng, deg)
        lexp = [0] * n
        for _ in range(a):
            lexp[rng.randrange(n)] += 1
        key = (tuple(lexp), tuple(rng.randint(1, n) for _ in range(deg - a)))
        total = nums.get(key, 0) + rng.choice(_NUMS) * (_SCALE // rng.choice(_DENS))
        if total:
            nums[key] = total
        else:
            del nums[key]
    return _from_ints(n, nums, _SCALE)


def _until_nonzero(draw) -> Element:
    while True:
        g = draw()
        if not g.is_zero:
            return g


def _up_to(max_deg: int):
    return lambda rng: rng.randint(0, max_deg)


def _any_split(rng: random.Random, deg: int) -> int:
    return rng.randint(0, deg)


def rand_element(rng: random.Random, n: int, max_deg: int, terms: int = 4) -> Element:
    return rand_words(rng, n, terms, _up_to(max_deg), _any_split)


def rand_nonzero(rng: random.Random, n: int, max_deg: int, terms: int = 4) -> Element:
    return _until_nonzero(lambda: rand_element(rng, n, max_deg, terms))


def rand_lpoly(rng: random.Random, n: int, max_deg: int, terms: int = 4) -> Element:
    return rand_words(rng, n, terms, _up_to(max_deg), lambda rng, deg: deg)


def rand_rpoly(rng: random.Random, n: int, max_deg: int, terms: int = 3) -> Element:
    return rand_words(rng, n, terms, _up_to(max_deg), lambda rng, deg: 0)


def rand_homogeneous_I(rng: random.Random, n: int, deg: int, terms: int = 3) -> Element:
    """Nonzero homogeneous element of I_n of the exact degree."""
    return _until_nonzero(
        lambda: rand_words(
            rng, n, terms, lambda rng: deg, lambda rng, d: d - rng.randint(1, d)
        )
    )


def rand_homogeneous(rng: random.Random, n: int, deg: int, terms: int = 3) -> Element:
    return _until_nonzero(
        lambda: rand_words(rng, n, terms, lambda rng: deg, _any_split)
    )


def rand_univariate_last(rng: random.Random, n: int, max_deg: int) -> Element:
    """Random nonzero polynomial in the last variable l_n."""
    while True:
        nums: dict[tuple, int] = {}
        for k in range(max_deg + 1):
            if rng.random() < 0.5:
                word = ((0,) * (n - 1) + (k,), ())
                nums[word] = rng.choice(_NUMS) * (_SCALE // rng.choice(_DENS))
        if nums:
            return _from_ints(n, nums, _SCALE)


def rand_weights(rng: random.Random, n: int, lo: int = -2, hi: int = 3):
    return tuple(rng.randint(lo, hi) for _ in range(n))


def rand_tame_tuple(rng: random.Random, n: int, factors: int, deg_cap: int):
    """Random tame automorphism tuple of L_n with its closed-form inverse.

    Composes up to `factors` elementary/affine building blocks, resampling
    whenever an intermediate composition exceeds deg_cap so all downstream
    products stay desk-scale.  The inverse is composed only for a kept
    step; composing draws nothing, so the draws do not depend on it.
    """
    fwd = identity_tuple(n)
    inv = identity_tuple(n)
    made = 0
    attempts = 0
    while made < factors and attempts < 60:
        attempts += 1
        if rng.random() < 0.5:
            step_f, step_i = _rand_affine(rng, n)
        else:
            step_f, step_i = _rand_elementary(rng, n)
        cand_f = compose_tuples(fwd, step_f)
        if max(g.degree() for g in cand_f) > deg_cap:
            continue
        fwd, inv = cand_f, compose_tuples(step_i, inv)
        made += 1
    return fwd, inv


def _rand_affine(rng: random.Random, n: int):
    while True:
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        c = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        try:
            return affine_tuple(n, a, c)
        except ValueError:
            continue


def _rand_elementary(rng: random.Random, n: int):
    i = rng.randint(1, n)
    alpha = rng.choice((-2, -1, 1, 2))
    nums: dict[tuple, int] = {}
    for _ in range(rng.randint(1, 2)):
        deg = rng.randint(0, 2)
        lexp = [0] * n
        for _ in range(deg if n > 1 else 0):
            j = rng.randrange(n)
            while j == i - 1:
                j = rng.randrange(n)
            lexp[j] += 1
        key = (tuple(lexp), ())
        total = nums.get(key, 0) + rng.choice(_NUMS) * (_SCALE // rng.choice(_DENS))
        if total:
            nums[key] = total
        else:
            del nums[key]
    return elementary_tuple(n, i, alpha, _from_ints(n, nums, _SCALE))


def rand_verified_derivation(rng: random.Random, n: int) -> Derivation:
    """Random verified derivation: a bracket/sum mix of inner and univariate ones."""
    d = ad(rand_element(rng, n, 2, terms=3))
    if n >= 2 and rng.random() < 0.6:
        e = extend_lnd_prop55(n, rand_univariate_last(rng, n, 2))
        images = (a + b for a, b in zip(_slots(d), _slots(e)))
        d = _from_slots(Derivation, n, images, verified=True)
    if rng.random() < 0.3:
        d = der_bracket(d, ad(rand_element(rng, n, 1, terms=2)))
    return d


def _example41() -> Derivation:
    r1r1 = Element.from_word(2, (0, 0), (1, 1))
    r1r2 = Element.from_word(2, (0, 0), (1, 2))
    r2r1 = Element.from_word(2, (0, 0), (2, 1))
    zero = Element.zero(2)
    return Derivation(2, (r1r1, r1r2), (zero, r1r2 - r2r1))


def example41_derivation() -> Derivation:
    """The standard nonzero derivation of U_2 that kills both l-projections."""
    return require_verified(_example41(), "example 4.1 fails the relations")


# -- suite implementations --------------------------------------------------------


def _counterexample(**kv) -> dict:
    out = {}
    for k, v in kv.items():
        if isinstance(v, Element):
            out[k] = element_to_json(v)
        else:
            out[k] = v
    return out


# suite name -> run(seed, cases) -> RunReport
SUITES: dict = {}


def _suite(name: str):
    """Register `run(seed, cases) -> RunReport` as the suite `name`."""

    def register(run):
        SUITES[name] = run
        return run

    return register


def _per_case(name: str):
    """Register the one-case body `case(rng, rep)` as the suite `name`."""

    def register(case):
        @_suite(name)
        def run(seed: int, cases: int) -> RunReport:
            rng = random.Random(seed)
            rep = RunReport(name, seed, cases)
            for _ in range(cases):
                case(rng, rep)
            return rep

        return case

    return register


@_per_case("lemma22")
def _case_lemma22(rng: random.Random, rep: RunReport) -> None:
    """f(l)r_i = r_i f(l-r); the closed shift formula; shifted generators commute."""
    n = rng.randint(1, 3)
    f = rand_lpoly(rng, n, 5)
    i = rng.randint(1, n)
    shifted = shift_lr(f)
    # direct substitution of l_k - r_k, multiplied out
    direct = poly_subst(f, [gen_l(n, k) - gen_r(n, k) for k in range(1, n + 1)])
    a, b = gen_l(n, 1) - gen_r(n, 1), gen_l(n, n) - gen_r(n, n)
    ok = (
        mul(f, gen_r(n, i)) == mul(gen_r(n, i), shifted)
        and shifted == direct
        and mul(a, b) == mul(b, a)
    )
    if not ok:
        rep.failures.append(_counterexample(n=n, f=f, i=i))


@_per_case("cor23")
def _case_cor23(rng: random.Random, rep: RunReport) -> None:
    """r_i f = f r_i + r_i sum_j (df/dl_j) r_j."""
    n = rng.randint(1, 3)
    f = rand_lpoly(rng, n, 5)
    i = rng.randint(1, n)
    ri = gen_r(n, i)
    tail = Element.zero(n)
    for j in range(1, n + 1):
        tail = tail + mul(pderiv_l(j, f), gen_r(n, j))
    if mul(ri, f) != mul(f, ri) + mul(ri, tail):
        rep.failures.append(_counterexample(n=n, f=f, i=i))


@_per_case("cor25")
def _case_cor25(rng: random.Random, rep: RunReport) -> None:
    """Leading-monomial multiplicativity, degree additivity, no zero divisors."""
    n = rng.randint(1, 3)
    g = rand_nonzero(rng, n, 3)
    h = rand_nonzero(rng, n, 3)
    p = mul(g, h)
    lm_g, lm_h, lm_p = lm_lc(g)[0], lm_lc(h)[0], lm_lc(p)[0]
    ok = not p.is_zero and lm_p == tuple(
        x + y for x, y in zip(lm_g, lm_h)
    )
    dg = rng.randint(0, 3)
    dh = rng.randint(0, 3)
    hg = rand_homogeneous(rng, n, dg)
    hh = rand_homogeneous(rng, n, dh)
    w = (1,) * n
    ok = ok and wdeg(mul(hg, hh), w) == wdeg(hg, w) + wdeg(hh, w)
    if not ok:
        rep.failures.append(_counterexample(n=n, g=g, h=h))


@_per_case("lemma26")
def _case_lemma26(rng: random.Random, rep: RunReport) -> None:
    """Forward-apply the stacked inner derivations, then recover a preimage."""
    n = rng.choice([2, 2, 3])
    deg = rng.randint(1, 4)
    g = rand_homogeneous_I(rng, n, deg)
    us = [apply_derivation(ad(gen_l(n, i)), g) for i in range(1, n + 1)]
    try:
        g2 = ad_preimage(us)
    except AnomalyError as exc:
        rep.anomalies.append({"input": element_to_json(g), "payload": exc.payload})
        return
    ok = all(
        apply_derivation(ad(gen_l(n, i)), g2) == us[i - 1] for i in range(1, n + 1)
    )
    if not ok:
        rep.failures.append(_counterexample(n=n, g=g, recovered=g2))


@_suite("lemma27")
def _suite_lemma27(seed: int, cases: int) -> RunReport:
    """Solutions of -ad_{l_i}(g) = r_i g + g r_i have the predicted leading span."""
    rep = RunReport("lemma27", seed, 0)
    for i in (1, 2):
        for d in (2, 3):
            try:
                sols = lemma27_solutions(2, i, d)
            except AnomalyError as exc:
                rep.anomalies.append({"i": i, "degree": d, "payload": exc.payload})
                continue
            for g in sols:
                rep.cases += 1
                di = ad(gen_l(2, i))
                ri = gen_r(2, i)
                if -apply_derivation(di, g) != mul(ri, g) + mul(g, ri):
                    rep.failures.append(_counterexample(i=i, degree=d, g=g))
    return rep


@_per_case("lemma28")
def _case_lemma28(rng: random.Random, rep: RunReport) -> None:
    """r_i^k r_j h = ad_{l_i}(r_i u) + r_i r_j v, recursion output re-multiplied."""
    n = rng.randint(2, 3)
    i = rng.randint(1, n)
    j = rng.randint(1, n)
    while j == i:
        j = rng.randint(1, n)
    k = rng.randint(1, 4)
    h = rand_rpoly(rng, n, 3)
    try:
        u, v = rfactor_decompose(k, i, j, h)
    except AnomalyError as exc:
        rep.anomalies.append({"k": k, "i": i, "j": j, "payload": exc.payload})
        return
    lhs = mul(mul(gen_r(n, i) ** k, gen_r(n, j)), h)
    rhs = apply_derivation(ad(gen_l(n, i)), mul(gen_r(n, i), u)) + mul(
        mul(gen_r(n, i), gen_r(n, j)), v
    )
    if lhs != rhs:
        rep.failures.append(_counterexample(n=n, k=k, i=i, j=j, h=h))


@_per_case("lemma31")
def _case_lemma31(rng: random.Random, rep: RunReport) -> None:
    """Endomorphisms keep the ideal generated by the r's inside itself."""
    n = rng.randint(2, 3)
    fwd, _ = rand_tame_tuple(rng, n, rng.randint(1, 3), 4 if n == 2 else 3)
    phi = lift_phi(n, fwd)
    g = rand_homogeneous_I(rng, n, rng.randint(1, 3))
    if not in_I(apply_endo(phi, g)):
        rep.failures.append(_counterexample(n=n, g=g))


@_suite("prop32")
def _suite_prop32(seed: int, cases: int) -> RunReport:
    """Lifting is a group embedding: lifts verify, compose, and separate points."""
    rng = random.Random(seed)
    rep = RunReport("prop32", seed, cases)
    if not is_identity(lift_phi(2, identity_tuple(2))):
        rep.failures.append({"case": "identity lift"})
    for _ in range(cases):
        n = rng.randint(2, 3)
        cap = 5 if n == 2 else 3
        f_fwd, _ = rand_tame_tuple(rng, n, 2, cap)
        g_fwd, _ = rand_tame_tuple(rng, n, 2, cap)
        fg = compose_tuples(f_fwd, g_fwd)
        while max(h.degree() for h in fg) > cap:
            g_fwd, _ = rand_tame_tuple(rng, n, 2, cap)
            fg = compose_tuples(f_fwd, g_fwd)
        phi = lift_phi(n, f_fwd)
        psi = lift_phi(n, g_fwd)
        _, bad = check_endomorphism(phi)
        ok = not bad
        lifted = lift_phi(n, fg)
        composed = compose(phi, psi)
        ok = ok and _slots(lifted) == _slots(composed)
        # injectivity on this sample: equal lifts force equal tuples
        if phi.l_images == psi.l_images and f_fwd != g_fwd:
            ok = False
        if not ok:
            rep.failures.append({"n": n, "f": [element_to_json(x) for x in f_fwd]})
    return rep


@_per_case("lemma33")
def _case_lemma33(rng: random.Random, rep: RunReport) -> None:
    """Affine tuples lift to degree-one automorphisms of U_n."""
    n = rng.randint(2, 3)
    fwd, inv = _rand_affine(rng, n)
    phi = lift_phi(n, fwd)
    psi = lift_phi(n, inv)
    ok = is_affine_U(phi) and check_inverse_pair(phi, psi)
    if not ok:
        rep.failures.append({"n": n, "f": [element_to_json(x) for x in fwd]})


@_per_case("lemma41")
def _case_lemma41(rng: random.Random, rep: RunReport) -> None:
    """Verified derivations keep the ideal generated by the r's inside itself."""
    n = rng.randint(2, 3)
    d = rand_verified_derivation(rng, n)
    g = rand_homogeneous_I(rng, n, rng.randint(1, 3))
    if not in_I(apply_derivation(d, g)):
        rep.failures.append(_counterexample(n=n, g=g))


@_suite("example41")
def _suite_example41(seed: int, cases: int) -> RunReport:
    """The five relation instances of the standard U_2 example all vanish."""
    rep = RunReport("example41", seed, 5)
    _, violations = check_derivation(_example41())
    for v in violations:
        rep.failures.append({"relation": v[0], "i": v[1], "j": v[2]})
    d = example41_derivation()
    probe = probe_nilpotent(d, gen_r(2, 2), 5)
    if not isinstance(probe, NonzeroThrough):
        rep.failures.append({"case": "iterates vanished unexpectedly"})
    return rep


@_per_case("lemma44")
def _case_lemma44(rng: random.Random, rep: RunReport) -> None:
    """Graded pieces of degree m send degree-k elements into degree m+k."""
    n = rng.randint(2, 3)
    d = rand_verified_derivation(rng, n)
    w = rand_weights(rng, n)
    parts = graded_parts(d, w)
    pool = homogeneous_components(rand_nonzero(rng, n, 3), w)
    k, g = rng.choice(sorted(pool.items()))
    ok = True
    for m, dm in parts.items():
        img = apply_derivation(dm, g)
        if img.is_zero:
            continue
        comps = homogeneous_components(img, w)
        if list(comps) != [m + k]:
            ok = False
    if not ok:
        rep.failures.append(_counterexample(n=n, g=g, w=list(w)))


@_per_case("prop55")
def _case_prop55(rng: random.Random, rep: RunReport) -> None:
    """The univariate extension verifies and kills l_1, r_1 in two steps."""
    n = rng.randint(2, 3)
    g = rand_univariate_last(rng, n, 5)
    d = extend_lnd_prop55(n, g)
    ok = d.verified
    for x in (gen_l(n, 1), gen_r(n, 1)):
        probe = probe_nilpotent(d, x, 3)
        ok = ok and isinstance(probe, ZeroAt) and probe.k <= 2
    if not ok:
        rep.failures.append(_counterexample(n=n, g=g))


@_suite("equ5")
def _suite_equ5(seed: int, cases: int) -> RunReport:
    """r_1 w = w r_1 + r_1 d(w)/dl_1 r_1 in U_1."""
    rng = random.Random(seed)
    rep = RunReport("equ5", seed, cases)
    zero = Element.zero(1)
    d1 = require_verified(
        Derivation(1, (Element.one(1),), (zero,)), "d/dl_1 fails the relations"
    )
    r1 = gen_r(1, 1)
    for _ in range(cases):
        w = rand_element(rng, 1, 5)
        lhs = mul(r1, w)
        rhs = mul(w, r1) + mul(mul(r1, apply_derivation(d1, w)), r1)
        if lhs != rhs:
            rep.failures.append(_counterexample(w=w))
    return rep


@_per_case("thm72pair")
def _case_thm72pair(rng: random.Random, rep: RunReport) -> None:
    """Closed-form U_1 automorphism pairs verify and invert exactly."""
    alpha = rand_coeff(rng)
    h = rand_rpoly(rng, 1, 5)
    phi, psi = u1_closed_form(alpha, h)
    ok = phi.verified and psi.verified and check_inverse_pair(phi, psi)
    if not ok:
        rep.failures.append(_counterexample(alpha=exact_str(alpha), h=h))


def run_suite(name: str, seed: int = 0, cases: int = 100) -> RunReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    if cases < 1:
        raise ValueError("cases must be >= 1")
    return SUITES[name](seed, cases)
