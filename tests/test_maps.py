"""Derivations, endomorphisms, lifting, gradings of maps, nilpotency probes."""

import random
import traceback
from fractions import Fraction
from functools import reduce

import pytest
from conftest import fraction_inverse, violated_residuals

from lsea import (
    AmbientMismatch,
    Derivation,
    DomainError,
    Element,
    Endomorphism,
    NonzeroThrough,
    UnverifiedMapError,
    ZeroAt,
    ad,
    affine_tuple,
    apply_derivation,
    apply_endo,
    check_derivation,
    check_endomorphism,
    check_inverse_pair,
    commutator,
    compose,
    compose_tuples,
    der_bracket,
    derivation_space,
    elementary_tuple,
    extend_lnd_prop55,
    gen_l,
    gen_r,
    graded_parts,
    homogeneous_components,
    in_I,
    is_affine_U,
    lift_phi,
    map_from_json,
    map_to_json,
    mul,
    probe_nilpotent,
    u1_closed_form,
)
from lsea.algebra import TERM_BUDGET, TermBudgetExceeded
from lsea import maps
from lsea.algebra import MAX_EXPONENT
from lsea.maps import (
    RDerivation,
    _leibniz,
    _slots,
    _substitute,
    identity_tuple,
    is_identity,
    poly_subst,
)
from lsea.verify import (
    example41_derivation,
    rand_element,
    rand_homogeneous_I,
    rand_lpoly,
    rand_rpoly,
    rand_tame_tuple,
    rand_verified_derivation,
)


def word(n, lexp, rword, c=1):
    return Element.from_word(n, lexp, rword, c)


def identity_endo(n):
    return lift_phi(n, identity_tuple(n))


class TestCheckDerivation:
    def test_example41_passes_all_five(self):
        d = example41_derivation()
        assert d.verified
        _, violations = check_derivation(d)
        assert violations == []

    def test_zero_derivation(self):
        z = Element.zero(2)
        d, violations = check_derivation(Derivation(2, (z, z), (z, z)))
        assert d.verified and not violations

    def test_single_r_image_fails(self):
        z = Element.zero(2)
        d, violations = check_derivation(Derivation(2, (gen_r(2, 1), z), (z, z)))
        assert not d.verified
        # expanding by hand: the commuting relation (1,2) and the
        # straightening relation (2,1) pick up nonzero residuals
        kinds = {(k, i, j) for k, i, j, _ in violations}
        assert ("s1", 1, 2) in kinds
        assert ("s2", 2, 1) in kinds


@pytest.mark.parametrize(
    "check, cls, l_images, r_images",
    [
        (check_derivation, Derivation, 1, 2),
        (check_derivation, Derivation, 2, 1),
        (check_endomorphism, Endomorphism, 1, 2),
        (check_endomorphism, Endomorphism, 2, 3),
    ],
)
def test_check_refuses_a_wrong_image_count(monkeypatch, check, cls, l_images, r_images):
    # a usage error raised before any relation is evaluated, not an IndexError
    z = Element.zero(2)

    def unreachable(n):
        raise AssertionError("relation evaluated before the image count check")

    monkeypatch.setattr(maps, "relations", unreachable)
    bad = l_images if l_images != 2 else r_images
    with pytest.raises(DomainError, match=f"expected 2 generator images, got {bad}"):
        check(cls(2, (z,) * l_images, (z,) * r_images))


class TestApply:
    def test_apply_requires_verified(self):
        z = Element.zero(2)
        d = Derivation(2, (gen_r(2, 1), z), (z, z))
        with pytest.raises(UnverifiedMapError):
            apply_derivation(d, gen_l(2, 1))

    def test_example41_on_l1l2(self):
        d = example41_derivation()
        got = apply_derivation(d, mul(gen_l(2, 1), gen_l(2, 2)))
        # normalize r1*r1*l2 + l1*r1*r2 by hand
        expect = (
            word(2, (0, 1), (1, 1))
            + word(2, (1, 0), (1, 2))
            + word(2, (0, 0), (1, 2, 1))
            + word(2, (0, 0), (1, 1, 2))
        )
        assert got == expect
        # the antisymmetrized relation value is zero
        assert apply_derivation(d, commutator(gen_l(2, 1), gen_l(2, 2))).is_zero

    def test_kills_unit(self):
        d = example41_derivation()
        assert apply_derivation(d, Element.one(2)).is_zero

    def test_ad_l1_on_r2(self):
        assert apply_derivation(ad(gen_l(2, 1)), gen_r(2, 2)) == word(2, (0, 0), (2, 1), -1)

    def test_leibniz_random(self):
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randint(1, 3)
            d = rand_verified_derivation(rng, n)
            a, b = rand_element(rng, n, 2), rand_element(rng, n, 2)
            assert apply_derivation(d, mul(a, b)) == mul(
                apply_derivation(d, a), b
            ) + mul(a, apply_derivation(d, b))


class TestInnerDerivations:
    def test_ad_r1_on_r1(self):
        assert apply_derivation(ad(gen_l(1, 1)), gen_r(1, 1)) == word(1, (0,), (1, 1), -1)

    def test_ad_of_unit_is_zero(self):
        d = ad(Element.one(2))
        assert all(g.is_zero for g in d.l_images + d.r_images)

    def test_ad_free_commutator(self):
        got = apply_derivation(ad(gen_r(2, 1)), gen_r(2, 2))
        assert got == word(2, (0, 0), (1, 2)) - word(2, (0, 0), (2, 1))

    def test_ad_always_checks(self):
        rng = random.Random(67)
        for _ in range(20):
            a = rand_element(rng, rng.randint(1, 3), 2)
            _, violations = check_derivation(ad(a))
            assert not violations

    def test_bracket_of_inner_is_inner_of_commutator(self):
        rng = random.Random(71)
        for _ in range(15):
            n = rng.randint(1, 3)
            a, b = rand_element(rng, n, 2), rand_element(rng, n, 2)
            lhs = der_bracket(ad(a), ad(b))
            rhs = ad(commutator(a, b))
            assert lhs.l_images == rhs.l_images
            assert lhs.r_images == rhs.r_images

    def test_bracket_self_zero(self):
        d = example41_derivation()
        b = der_bracket(d, d)
        assert all(g.is_zero for g in b.l_images + b.r_images)

    def test_bracket_with_example41_is_derivation(self):
        b = der_bracket(example41_derivation(), ad(gen_r(2, 1)))
        _, violations = check_derivation(b)
        assert not violations


class TestRestrictedRDerivation:
    def test_example41_restriction(self):
        dr = RDerivation(2, example41_derivation().r_images)
        got = dr(gen_r(2, 2))
        assert got == word(2, (0, 0), (1, 2)) - word(2, (0, 0), (2, 1))

    def test_zero(self):
        z = Element.zero(2)
        dr = RDerivation(2, (z, z))
        assert dr(gen_r(2, 1)).is_zero

    def test_slot_substitution(self):
        n = 2
        c = gen_r(n, 1) + gen_r(n, 2)
        dr = RDerivation(n, tuple(mul(gen_r(n, i), c) for i in (1, 2)))
        got = dr(gen_r(n, 1))
        assert got == word(n, (0, 0), (1, 1)) + word(n, (0, 0), (1, 2))

    def test_domain(self):
        dr = RDerivation(2, example41_derivation().r_images)
        with pytest.raises(DomainError):
            dr(gen_l(2, 1))


class TestGradedParts:
    def test_example41_single_part(self):
        parts = graded_parts(example41_derivation(), (1, 1))
        assert list(parts) == [1]
        assert parts[1].l_images == example41_derivation().l_images

    def test_constant_images_have_degree_minus_one(self):
        z = Element.zero(2)
        d, _ = check_derivation(Derivation(2, (Element.one(2), z), (z, z)))
        assert d.verified
        parts = graded_parts(d, (1, 1))
        assert list(parts) == [-1]

    def test_zero_derivation_empty(self):
        z = Element.zero(2)
        d, _ = check_derivation(Derivation(2, (z, z), (z, z)))
        assert graded_parts(d, (1, 1)) == {}

    def test_parts_sum_to_whole(self):
        rng = random.Random(73)
        for _ in range(15):
            n = rng.randint(2, 3)
            d = rand_verified_derivation(rng, n)
            parts = graded_parts(d, (1,) * n)
            for slot in range(n):
                assert (
                    sum((p.l_images[slot] for p in parts.values()), Element.zero(n))
                    == d.l_images[slot]
                )
                assert (
                    sum((p.r_images[slot] for p in parts.values()), Element.zero(n))
                    == d.r_images[slot]
                )

    def test_highest_parts_compose(self):
        def top(g):  # the homogeneous component of greatest degree, zero for 0
            parts = homogeneous_components(g, (1,) * g.n)
            return parts[max(parts)] if parts else Element.zero(g.n)

        rng = random.Random(79)
        checked = 0
        while checked < 25:
            n = rng.randint(2, 3)
            d = rand_verified_derivation(rng, n)
            parts = graded_parts(d, (1,) * n)
            if not parts:
                continue
            dtop = parts[max(parts)]
            g = rand_element(rng, n, 3)
            if g.is_zero:
                continue
            rhs = apply_derivation(dtop, top(g))
            if rhs.is_zero:
                continue
            assert top(apply_derivation(d, g)) == rhs
            checked += 1


class TestProbe:
    def test_prop55_statement(self):
        d = extend_lnd_prop55(2, gen_l(2, 2) ** 2)
        assert d.l_images[0] == gen_l(2, 2) ** 2
        assert d.r_images[0] == 2 * mul(gen_l(2, 2), gen_r(2, 2))
        assert d.l_images[1].is_zero and d.r_images[1].is_zero
        assert probe_nilpotent(d, gen_l(2, 1), 5) == ZeroAt(2)
        assert probe_nilpotent(d, gen_r(2, 1), 5) == ZeroAt(2)

    def test_prop55_constant(self):
        d = extend_lnd_prop55(2, Element.one(2))
        assert d.l_images[0] == Element.one(2)
        assert d.r_images[0].is_zero

    def test_prop55_cubic_derivative(self):
        d = extend_lnd_prop55(2, gen_l(2, 2) ** 3)
        assert d.r_images[0] == 3 * mul(gen_l(2, 2) ** 2, gen_r(2, 2))

    def test_prop55_domain(self):
        with pytest.raises(DomainError):
            extend_lnd_prop55(2, gen_l(2, 1))
        with pytest.raises(DomainError):
            extend_lnd_prop55(1, gen_l(1, 1))

    def test_example41_not_nilpotent_on_r2(self):
        res = probe_nilpotent(example41_derivation(), gen_r(2, 2), 5)
        assert isinstance(res, NonzeroThrough)
        assert res.degrees == (2, 3, 4, 5, 6)

    def test_unit_dies_immediately(self):
        assert probe_nilpotent(example41_derivation(), Element.one(2), 5) == ZeroAt(1)


class TestEndomorphisms:
    def test_identity_checks(self):
        e, violations = check_endomorphism(identity_endo(2))
        assert e.verified and not violations

    def test_lift_verifies(self):
        phi = lift_phi(2, (gen_l(2, 1) + gen_l(2, 2) ** 2, gen_l(2, 2)))
        _, violations = check_endomorphism(phi)
        assert not violations
        assert phi.r_images[0] == gen_r(2, 1) + 2 * mul(gen_l(2, 2), gen_r(2, 2))
        assert phi.r_images[1] == gen_r(2, 2)

    def test_bad_endo(self):
        e, violations = check_endomorphism(
            Endomorphism(1, (gen_l(1, 1),), (gen_l(1, 1),))
        )
        assert not e.verified and violations

    def test_apply_identity(self):
        rng = random.Random(83)
        g = rand_element(rng, 2, 3)
        assert apply_endo(identity_endo(2), g) == g

    def test_apply_lift_on_generator(self):
        f = (gen_l(2, 1) + gen_l(2, 2) ** 2, gen_l(2, 2))
        phi = lift_phi(2, f)
        assert apply_endo(phi, gen_l(2, 1)) == f[0]

    def test_homomorphism_property(self):
        phi = lift_phi(2, (gen_l(2, 1) + gen_l(2, 2) ** 2, gen_l(2, 2)))
        x = mul(gen_r(2, 1), gen_l(2, 1))
        assert apply_endo(phi, x) == mul(
            apply_endo(phi, gen_r(2, 1)), apply_endo(phi, gen_l(2, 1))
        )

    def test_compose_with_identity(self):
        phi = lift_phi(2, (gen_l(2, 1) + gen_l(2, 2) ** 2, gen_l(2, 2)))
        assert compose(phi, identity_endo(2)).l_images == phi.l_images
        assert compose(identity_endo(2), phi).r_images == phi.r_images

    def test_lift_is_functorial(self):
        rng = random.Random(89)
        for _ in range(15):
            n = rng.randint(2, 3)
            cap = 5 if n == 2 else 3
            f, _ = rand_tame_tuple(rng, n, 2, cap)
            g, _ = rand_tame_tuple(rng, n, 2, cap)
            if max(x.degree() for x in compose_tuples(f, g)) > cap:
                continue
            lhs = lift_phi(n, compose_tuples(f, g))
            rhs = compose(lift_phi(n, f), lift_phi(n, g))
            assert lhs.l_images == rhs.l_images
            assert lhs.r_images == rhs.r_images

    def test_lift_identity(self):
        assert is_identity(lift_phi(3, identity_tuple(3)))

    def test_lift_linear_case(self):
        phi = lift_phi(2, (2 * gen_l(2, 1), gen_l(2, 2)))
        assert phi.r_images == (2 * gen_r(2, 1), gen_r(2, 2))

    def test_inverse_pair_negative(self):
        phi = lift_phi(2, (gen_l(2, 1) + gen_l(2, 2) ** 2, gen_l(2, 2)))
        assert not check_inverse_pair(phi, phi)

    def test_ideal_stability(self):
        rng = random.Random(97)
        for _ in range(30):
            n = rng.randint(2, 3)
            f, _ = rand_tame_tuple(rng, n, 2, 4 if n == 2 else 3)
            phi = lift_phi(n, f)
            g = rand_homogeneous_I(rng, n, rng.randint(1, 3))
            assert in_I(apply_endo(phi, g))


class TestAffine:
    def test_affine_lift_is_affine(self):
        fwd, inv = affine_tuple(2, [[1, 1], [0, 1]], [2, 0])
        phi = lift_phi(2, fwd)
        assert is_affine_U(phi)
        assert check_inverse_pair(phi, lift_phi(2, inv))

    def test_nonaffine_lift(self):
        phi = lift_phi(2, (gen_l(2, 1) + gen_l(2, 2) ** 2, gen_l(2, 2)))
        assert not is_affine_U(phi)

    def test_identity_affine(self):
        assert is_affine_U(identity_endo(3))

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            affine_tuple(2, [[1, 1], [1, 1]])

    def test_matches_merge_built_images(self):
        # each image built by scalings and merges of generators, from a
        # Fraction Gauss-Jordan inverse apart from `lsea.linalg`; A and c
        # rational, and a singular A refused exactly when that inverse fails
        rng = random.Random(41)
        checked = singular = 0
        while checked < 60:
            n = rng.randint(1, 4)
            entry = lambda: rng.choice([0, 0, *range(-3, 4), Fraction(rng.randint(-7, 7), 6)])
            a = [[entry() for _ in range(n)] for _ in range(n)]
            c = [rng.choice([0, Fraction(rng.randint(-5, 5), 3)]) for _ in range(n)]
            try:
                a_inv = fraction_inverse(a)
            except ValueError:
                with pytest.raises(ValueError, match="matrix is singular"):
                    affine_tuple(n, a, c)
                singular += 1
                continue
            consts = [Element.from_word(n, (0,) * n, (), x) for x in c]
            fwd, inv = [], []
            for i in range(n):
                img = consts[i]
                for j in range(n):
                    img = img + a[i][j] * gen_l(n, j + 1)
                fwd.append(img)
                img = Element.zero(n)
                for j in range(n):
                    img = img + a_inv[i][j] * (gen_l(n, j + 1) - consts[j])
                inv.append(img)
            assert affine_tuple(n, a, c) == (tuple(fwd), tuple(inv)), (a, c)
            checked += 1
        assert singular >= 10


class TestTupleConstructors:
    def test_elementary_inverse(self):
        fwd, inv = elementary_tuple(2, 1, 2, gen_l(2, 2) ** 3)
        assert compose_tuples(fwd, inv) == identity_tuple(2)
        assert compose_tuples(inv, fwd) == identity_tuple(2)

    def test_elementary_rejects_self_reference(self):
        with pytest.raises(DomainError):
            elementary_tuple(2, 1, 1, gen_l(2, 1))

    def test_poly_subst_is_evaluation(self):
        f = gen_l(2, 1) ** 2 + gen_l(2, 2)
        images = (gen_l(2, 2), gen_l(2, 1))
        assert poly_subst(f, images) == gen_l(2, 2) ** 2 + gen_l(2, 1)


# each maps constructor, and the Element ones, with one coefficient left open
_CONSTRUCTORS = {
    "Element.from_word": lambda x: Element.from_word(2, (0, 0), (), x),
    "Element.__mul__": lambda x: gen_r(2, 1) * x,
    "u1_closed_form": lambda x: u1_closed_form(x, gen_r(1, 1)),
    "elementary_tuple": lambda x: elementary_tuple(2, 1, x, Element.zero(2)),
    "affine_tuple_matrix": lambda x: affine_tuple(2, [[x, 1], [0, 1]]),
    "affine_tuple_shift": lambda x: affine_tuple(2, [[1, 0], [0, 1]], [x, 0]),
}


class TestExactCoefficients:
    @pytest.mark.parametrize("name", sorted(_CONSTRUCTORS))
    def test_float_refused(self, name):
        # a bool is an int to Python, but no coefficient the user meant
        for bad in (0.1, True):
            with pytest.raises(TypeError):
                _CONSTRUCTORS[name](bad)

    @pytest.mark.parametrize("name", sorted(_CONSTRUCTORS))
    def test_exact_forms_accepted(self, name):
        build = _CONSTRUCTORS[name]
        assert build(3) == build(Fraction(3))
        assert build("3/2") == build(Fraction(3, 2))


class TestU1ClosedForm:
    def test_documented_inverse(self):
        phi, psi = u1_closed_form(2, gen_r(1, 1) ** 3)
        assert psi.l_images[0] == Fraction(1, 2) * gen_l(1, 1) - Fraction(
            1, 16
        ) * gen_r(1, 1) ** 3
        assert psi.r_images[0] == Fraction(1, 2) * gen_r(1, 1)

    def test_trivial_pair(self):
        phi, psi = u1_closed_form(1, Element.zero(1))
        assert is_identity(phi) and is_identity(psi)

    def test_linear_shift(self):
        phi, psi = u1_closed_form(1, gen_r(1, 1))
        assert psi.l_images[0] == gen_l(1, 1) - gen_r(1, 1)

    def test_alpha_zero_rejected(self):
        with pytest.raises(DomainError):
            u1_closed_form(0, Element.zero(1))

    def test_random_pairs(self):
        rng = random.Random(101)
        for _ in range(20):
            alpha = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
            h = Element.zero(1)
            for k in range(rng.randint(0, 5) + 1):
                if rng.random() < 0.6:
                    h = h + Element.from_word(1, (0,), (1,) * k, rng.randint(-2, 2))
            phi, psi = u1_closed_form(alpha, h)
            assert check_inverse_pair(phi, psi)


class TestIdealStabilityDerivations:
    def test_random_derivations_preserve_ideal(self):
        rng = random.Random(103)
        for _ in range(40):
            n = rng.randint(2, 3)
            d = rand_verified_derivation(rng, n)
            g = rand_homogeneous_I(rng, n, rng.randint(1, 3))
            assert in_I(apply_derivation(d, g))


class TestEqu5:
    def test_identity_on_u1(self):
        z = Element.zero(1)
        d1, violations = check_derivation(Derivation(1, (Element.one(1),), (z,)))
        assert not violations
        rng = random.Random(107)
        r1 = gen_r(1, 1)
        for _ in range(40):
            w = rand_element(rng, 1, 5)
            assert mul(r1, w) == mul(w, r1) + mul(
                mul(r1, apply_derivation(d1, w)), r1
            )


class TestMapSerialization:
    def test_round_trip(self):
        d = example41_derivation()
        data = map_to_json(d)
        assert data["kind"] == "derivation"
        d2 = map_from_json(data)
        assert d2.l_images == d.l_images
        assert d2.r_images == d.r_images
        assert d2.verified

    def test_endo_round_trip(self):
        phi = lift_phi(2, (gen_l(2, 1) + gen_l(2, 2) ** 2, gen_l(2, 2)))
        e2 = map_from_json(map_to_json(phi))
        assert isinstance(e2, Endomorphism)
        assert e2.l_images == phi.l_images

    def test_stored_verified_flag_ignored(self):
        z = Element.zero(2)
        data = map_to_json(Derivation(2, (gen_r(2, 1), z), (z, z)))
        data["verified"] = True
        assert not map_from_json(data).verified
        data = map_to_json(example41_derivation())
        del data["verified"]
        assert map_from_json(data).verified
        data = map_to_json(Endomorphism(2, (gen_r(2, 1), gen_r(2, 2)), (z, z)))
        data["verified"] = True
        e = map_from_json(data)
        assert isinstance(e, Endomorphism) and not e.verified
        with pytest.raises(UnverifiedMapError):
            apply_endo(e, gen_l(2, 1))


@pytest.mark.parametrize("n", [2.0, True, "2"])
def test_map_from_json_non_int_n_refused(n):
    data = map_to_json(example41_derivation())
    data["n"] = n
    with pytest.raises(DomainError, match="n must be an integer"):
        map_from_json(data)


def _unverified_ad():
    d = ad(gen_l(2, 1))
    return Derivation(d.n, d.l_images, d.r_images)


def _foreign_image_endo():
    # l_1 goes to a generator of U_3 in an endomorphism of U_2
    return Endomorphism(2, (gen_l(3, 1), gen_l(2, 2)), (gen_r(2, 1), gen_r(2, 2)))


# (call, exception type, message) of each refusal of the maps built from
# generator images; the exception type is matched exactly
MAP_REFUSALS = {
    # a bracket or a composite applies its maps, and the application refuses
    "der_bracket-unverified": (
        lambda: der_bracket(_unverified_ad(), ad(gen_l(2, 2))),
        UnverifiedMapError, "refusing to apply an unverified derivation"),
    "der_bracket-unverified-second": (
        lambda: der_bracket(ad(gen_l(2, 2)), _unverified_ad()),
        UnverifiedMapError, "refusing to apply an unverified derivation"),
    "der_bracket-ambients": (
        lambda: der_bracket(ad(gen_l(2, 1)), ad(gen_l(3, 1))),
        AmbientMismatch, "derivation and element ambients differ"),
    "compose-ambients": (
        lambda: compose(identity_endo(2), identity_endo(3)),
        AmbientMismatch, "endomorphism and element ambients differ"),
    "check_endomorphism-foreign-image": (
        lambda: check_endomorphism(_foreign_image_endo()),
        AmbientMismatch, "image ambient differs from map ambient"),
    "check_derivation-foreign-image": (
        lambda: check_derivation(Derivation(2, (Element.zero(2),) * 2, (gen_r(3, 1),) * 2)),
        AmbientMismatch, "image ambient differs from map ambient"),
    "map_from_json-foreign-image": (
        lambda: map_from_json(map_to_json(_foreign_image_endo())),
        AmbientMismatch, "image ambient differs from map ambient"),
    "map_from_json-short-images": (
        lambda: map_from_json({**map_to_json(example41_derivation()), "r_images": []}),
        DomainError, "expected 2 generator images, got 0"),
    "map_from_json-short-endo-images": (
        lambda: map_from_json({**map_to_json(_foreign_image_endo()), "l_images": []}),
        DomainError, "expected 2 generator images, got 0"),
    "graded_parts-unverified": (
        lambda: graded_parts(_unverified_ad(), (1, 1)),
        UnverifiedMapError, "graded_parts requires a verified derivation"),
    "graded_parts-weight-length": (
        lambda: graded_parts(ad(gen_l(2, 1)), (1, 1, 1)),
        DomainError, "weight vector length must equal the ambient n"),
    "graded_parts-weight-type": (
        lambda: graded_parts(ad(gen_l(2, 1)), (0.5, 1)),
        DomainError, "a weight must be an integer, got 0.5"),
    "RDerivation-ambients": (
        lambda: RDerivation(2, (gen_r(2, 1), gen_r(2, 2)))(gen_r(3, 1)),
        AmbientMismatch, "ambient mismatch"),
    "RDerivation-image-count": (
        lambda: RDerivation(2, (gen_r(2, 1),))(gen_r(2, 2)),
        DomainError, "expected 2 generator images, got 1"),
    "RDerivation-image-ambient": (
        lambda: RDerivation(2, (gen_l(3, 3), gen_r(3, 1)))(gen_r(2, 1)),
        AmbientMismatch, "image ambient differs from map ambient"),
    "extend_lnd_prop55-ambients": (
        lambda: extend_lnd_prop55(2, gen_l(3, 3)),
        AmbientMismatch, "ambient mismatch"),
    "extend_lnd_prop55-not-polynomial": (
        lambda: extend_lnd_prop55(2, gen_r(2, 2)),
        DomainError, "coefficient must be a polynomial"),
}


@pytest.mark.parametrize("name", sorted(MAP_REFUSALS))
def test_map_refusals(name):
    call, exc_type, message = MAP_REFUSALS[name]
    with pytest.raises(exc_type) as exc:
        call()
    assert type(exc.value) is exc_type
    assert str(exc.value) == message


def _signed_mul_sum(n, products):
    """Reference: sum(sign * mul(a, b)), one Element per product."""
    out = Element.zero(n)
    for sign, a, b in products:
        out = out + sign * mul(a, b)
    return out


def _reference_derivation_residual(d, kind, i, j):
    """D(l_i l_j - l_j l_i) or D(r_i l_j - l_j r_i - r_i r_j), written out by
    the Leibniz rule D(ab) = D(a) b + a D(b)."""
    n = d.n
    li, lj, ri, rj = gen_l(n, i), gen_l(n, j), gen_r(n, i), gen_r(n, j)
    dli, dlj = d.l_images[i - 1], d.l_images[j - 1]
    dri, drj = d.r_images[i - 1], d.r_images[j - 1]
    if kind == "s1":
        products = [(1, dli, lj), (1, li, dlj), (-1, dlj, li), (-1, lj, dli)]
    else:
        products = [
            (1, dri, lj), (1, ri, dlj),
            (-1, dlj, ri), (-1, lj, dri),
            (-1, dri, rj), (-1, ri, drj),
        ]
    return _signed_mul_sum(n, products)


def _reference_leibniz(g, l_images, r_images):
    """Reference: the Leibniz extension over each word's letters, l-letters
    in nondecreasing index order and then the r-letters, with prefix and
    suffix built as products of generators and one Element per split
    product, summed word by word and divided by g's denominator at the end."""
    n = g.n
    den, items = g.int_terms()
    out = Element.zero(n)
    for (lexp, rword), c in items:
        letters = [(l_images[i], gen_l(n, i + 1)) for i in range(n) for _ in range(lexp[i])]
        letters += [(r_images[j - 1], gen_r(n, j)) for j in rword]
        acc = Element.zero(n)
        for k, (img, _) in enumerate(letters):
            if img.is_zero:
                continue
            prefix = reduce(mul, (x for _, x in letters[:k]), Element.one(n))
            suffix = reduce(mul, (x for _, x in letters[k + 1 :]), Element.one(n))
            acc = acc + mul(mul(prefix, img), suffix)
        out = out + acc * c
    return out if den == 1 else out / den


def _reference_substitute(g, l_images, r_images):
    """Reference: each word's image as a chain of Element products, with
    l_images[i] ** s computed afresh for every word."""
    den, items = g.int_terms()
    out = Element.zero(g.n)
    for (lexp, rword), c in items:
        acc = Element.one(g.n)
        for i, s in enumerate(lexp):
            if s:
                acc = mul(acc, l_images[i] ** s)
        for j in rword:
            acc = mul(acc, r_images[j - 1])
        out = out + acc * c
    return out if den == 1 else out / den


def _reference_endo_residual(e, kind, i, j):
    """phi(l_i) phi(l_j) - phi(l_j) phi(l_i) or
    phi(r_i) phi(l_j) - phi(l_j) phi(r_i) - phi(r_i) phi(r_j)."""
    li, lj = e.l_images[i - 1], e.l_images[j - 1]
    ri, rj = e.r_images[i - 1], e.r_images[j - 1]
    if kind == "s1":
        products = [(1, li, lj), (-1, lj, li)]
    else:
        products = [(1, ri, lj), (-1, lj, ri), (-1, ri, rj)]
    return _signed_mul_sum(e.n, products)


def _perturbed(m, slot, extra):
    images = list(m.l_images + m.r_images)
    images[slot] = images[slot] + extra
    return type(m)(m.n, tuple(images[: m.n]), tuple(images[m.n :]))


class TestRelationRecheck:
    """The re-check accumulates each relation instance in one int map over
    the lcm of the images' denominators; every residual it reports must equal
    the sum of Element products written out here."""

    @staticmethod
    def _assert_flags_like_reference(m, check, reference):
        ns = range(1, m.n + 1)
        relations = [("s1", i, j) for i in ns for j in ns if i < j]
        relations += [("s2", i, j) for i in ns for j in ns]
        expected = {}
        for kind, i, j in relations:
            res = reference(m, kind, i, j)
            if not res.is_zero:
                expected[kind, i, j] = res
        flagged, violations = check(m)
        assert {(k, i, j): res for k, i, j, res in violations} == expected
        assert flagged.verified == (not expected)
        return {kind for kind, _, _ in expected}

    @pytest.mark.parametrize("n", [2, 3])
    def test_perturbed_derivation(self, n):
        a = (
            Fraction(1, 2) * mul(gen_l(n, 1), gen_r(n, n))
            + Fraction(1, 3) * gen_r(n, 1)
            + Fraction(2, 5) * mul(gen_l(n, n), gen_l(n, 1))
        )
        d = ad(a)
        dens = {g.int_terms()[0] for g in d.l_images + d.r_images if not g.is_zero}
        assert len(dens) > 1
        assert not check_derivation(d)[1]
        extra = Fraction(1, 7) * mul(gen_l(n, 1), gen_r(n, 2))
        kinds = set()
        for slot in range(2 * n):
            perturbed = _perturbed(d, slot, extra)
            kinds |= self._assert_flags_like_reference(
                perturbed, check_derivation, _reference_derivation_residual
            )
        assert kinds == {"s1", "s2"}

    @pytest.mark.parametrize("n", [2, 3])
    def test_perturbed_endomorphism(self, n):
        fs = [gen_l(n, i) for i in range(1, n + 1)]
        fs[0] = Fraction(3, 2) * fs[0] + Fraction(1, 3) * mul(gen_l(n, n), gen_l(n, n))
        fs[-1] = fs[-1] + Fraction(5, 4) * Element.one(n)
        e = lift_phi(n, fs)
        dens = {g.int_terms()[0] for g in e.l_images + e.r_images}
        assert len(dens) > 1
        assert not check_endomorphism(e)[1]
        extra = Fraction(1, 7) * mul(gen_l(n, 2), gen_r(n, 1))
        kinds = set()
        for slot in range(2 * n):
            perturbed = _perturbed(e, slot, extra)
            kinds |= self._assert_flags_like_reference(
                perturbed, check_endomorphism, _reference_endo_residual
            )
        assert kinds == {"s1", "s2"}

    @pytest.mark.parametrize("seed", range(3))
    def test_random_images(self, seed):
        # arbitrary images with mixed denominators, mostly not maps at all
        rng = random.Random(seed)
        n = 2
        images = [rand_element(rng, n, 2) for _ in range(2 * n)]
        d = Derivation(n, tuple(images[:n]), tuple(images[n:]))
        e = Endomorphism(n, tuple(images[:n]), tuple(images[n:]))
        check = self._assert_flags_like_reference
        check(d, check_derivation, _reference_derivation_residual)
        check(e, check_endomorphism, _reference_endo_residual)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_closed_form_matches_the_leibniz_products(self, n, seed):
        # images drawn from every shape the closed form reads differently:
        # zero, the unit word, pure-L, pure-R, r-words with runs of one
        # letter and mixed words, over denominators 1 to 7
        rng = random.Random(f"closed-form/{n}/{seed}")
        violated = runs = 0
        dens = set()
        for _ in range(12):
            images = tuple(_closed_form_image(rng, n) for _ in range(2 * n))
            dens.update(g.int_terms()[0] for g in images)
            runs += any(
                v[k] == v[k + 1] for g in images for (_, v), _ in g.int_terms()[1]
                for k in range(len(v) - 1)
            )
            d = Derivation(n, images[:n], images[n:])
            kinds = self._assert_flags_like_reference(
                d, check_derivation, _reference_derivation_residual
            )
            violated += bool(kinds)
        assert violated and runs and len(dens - {1}) > 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_on_unit_images(self, n):
        # one unit word c*1 in one slot at a time: [c, l_j] = 0, so only the
        # products by r's are left, e.g. s2(i, i) = -2c r_i for B_i = c
        c = Fraction(-3, 2)
        for slot in range(2 * n):
            images = [Element.zero(n)] * (2 * n)
            images[slot] = c * Element.one(n)
            d = Derivation(n, tuple(images[:n]), tuple(images[n:]))
            self._assert_flags_like_reference(d, check_derivation, _reference_derivation_residual)
            if slot >= n:
                i = slot - n + 1
                assert violated_residuals(d)["s2", i, i] == -2 * c * gen_r(n, i)

    def test_closed_form_on_runs(self):
        # B_1 = r1 r1 r2, other images 0: [B_1, l_j] inserts r_j after each
        # letter, twice into the run when j = 1, and -B_1 r_j - r_1 B_j
        # takes away the append and, for j = 1, the prepend
        n = 2
        r1, r2 = gen_r(n, 1), gen_r(n, 2)
        zero = Element.zero(n)
        d = Derivation(n, (zero, zero), (r1 * r1 * r2, zero))
        assert violated_residuals(d) == {
            ("s2", 1, 1): r1 * r1 * r1 * r2,
            ("s2", 1, 2): r1 * r2 * r1 * r2 + r1 * r1 * r2 * r2,
            ("s2", 2, 1): -(r2 * r1 * r1 * r2),
        }
        assert commutator(r1 * r1 * r2, gen_l(n, 1)) == 2 * r1 * r1 * r1 * r2 + r1 * r1 * r2 * r1
        d = Derivation(1, (Element.zero(1),), (gen_r(1, 1) ** 3,))
        assert violated_residuals(d) == {("s2", 1, 1): gen_r(1, 1) ** 4}

    def test_each_image_is_read_once(self, monkeypatch):
        # one check reads each image's terms once, however many relation
        # instances its slot enters, and puts them over one denominator
        n = 3
        images = tuple(
            Fraction(k, k + 1) * mul(gen_l(n, k % n + 1), gen_r(n, 1)) + gen_r(n, k % n + 1)
            for k in range(2 * n)
        )
        d = Derivation(n, images[:n], images[n:])
        reads = {id(g): 0 for g in images}
        int_terms = Element.int_terms

        def counted(g):
            if id(g) in reads:
                reads[id(g)] += 1
            return int_terms(g)

        monkeypatch.setattr(Element, "int_terms", counted)
        flagged, violations = check_derivation(d)
        monkeypatch.undo()
        assert not flagged.verified and violations
        assert list(reads.values()) == [1] * (2 * n)
        self._assert_flags_like_reference(d, check_derivation, _reference_derivation_residual)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_relation_table_lists_each_operator_once(self, n):
        # one row per image slot; each (relation, slot, ops) of
        # `_letter_operators` sits in exactly one row, with the prepends of
        # s2(i, j): r_i . on A_j and -r_i . on B_j
        rels, table = maps._relation_table(n)
        assert rels == tuple(maps.relations(n))
        assert len(table) == 2 * n
        listed = [(rel, slot, ops) for slot, row in enumerate(table) for rel, ops, _ in row]
        expected = [
            (rel, slot, ops)
            for rel, (kind, i, j) in enumerate(rels)
            for slot, ops in maps._letter_operators(n, kind, i, j).items()
        ]
        assert len(set(listed)) == len(listed) == len(expected)
        assert set(listed) == set(expected)
        for slot, row in enumerate(table):
            for rel, _, prepends in row:
                kind, i, j = rels[rel]
                want = {j - 1: ((1, (i,)),), n + j - 1: ((-1, (i,)),)} if kind == "s2" else {}
                assert prepends == want.get(slot, ())

    @pytest.mark.parametrize("n", [3, 4])
    def test_perturbed_space_members(self, n):
        # members of a solver's space with one rational term added to one
        # slot at a time: every relation accumulator that the slot enters
        # against the Leibniz products written out
        space = derivation_space(n, 1)
        kinds = set()
        for member in space:
            assert not check_derivation(member)[1]
            for slot in range(2 * n):
                extra = Fraction(slot + 1, 7) * mul(gen_l(n, slot % n + 1), gen_r(n, n - slot % n))
                kinds |= self._assert_flags_like_reference(
                    _perturbed(member, slot, extra), check_derivation, _reference_derivation_residual
                )
        assert kinds == {"s1", "s2"}

    def test_image_of_other_ambient_refused(self):
        z = Element.zero(2)
        with pytest.raises(AmbientMismatch):
            check_derivation(Derivation(2, (gen_l(3, 1), z), (z, z)))

    @pytest.mark.parametrize("kind", ["derivation", "endomorphism"])
    def test_max_terms_trips_in_the_accumulator(self, kind):
        n = 2
        big = (gen_l(n, 1) + 2 * gen_l(n, 2) + 3 * gen_r(n, 1) + 5 * gen_r(n, 2)) ** 4
        images = [big, gen_l(n, 2), gen_r(n, 1), gen_r(n, 2)]
        cls, check, accumulator = {
            "derivation": (Derivation, check_derivation, "_letter_sum"),
            "endomorphism": (Endomorphism, check_endomorphism, "_signed_products"),
        }[kind]
        m = cls(n, tuple(images[:n]), tuple(images[n:]))
        token = TERM_BUDGET.set(len(big))
        try:
            with pytest.raises(TermBudgetExceeded) as exc:
                check(m)
        finally:
            TERM_BUDGET.reset(token)
        frames = [f.name for f in traceback.extract_tb(exc.value.__traceback__)]
        assert frames[-2:] == [accumulator, "_charge"]
        assert "mul" not in frames


def _closed_form_image(rng, n):
    """A random image for the closed-form tests: zero, a multiple of the
    unit word, pure-L, pure-R or mixed, its r-words built from runs of one
    letter; coefficients over denominators 1, 2, 3, 5 and 7."""
    shape = rng.choice(["zero", "unit", "L", "R", "mixed", "mixed"])
    if shape == "zero":
        return Element.zero(n)
    terms = []
    for _ in range(1 if shape == "unit" else rng.randint(1, 3)):
        lexp = [0] * n
        if shape in ("L", "mixed"):
            for _ in range(rng.randint(1 if shape == "L" else 0, 3)):
                lexp[rng.randrange(n)] += 1
        rword = ()
        if shape in ("R", "mixed"):
            while len(rword) < rng.randint(1, 4):
                rword += (rng.randint(1, n),) * rng.randint(1, 3)
        c = Fraction(rng.choice([-5, -2, -1, 1, 3, 4]), rng.choice([1, 2, 3, 5, 7]))
        terms.append(((tuple(lexp), rword), c))
    return Element(n, terms)


def _rand_images(rng, n, k):
    """k random images in U_n, a quarter of them zero; coefficients have
    denominators 1, 2 and 3."""
    return tuple(
        Element.zero(n) if rng.random() < 0.25 else rand_element(rng, n, 2, terms=3)
        for _ in range(k)
    )


def _with_unit(rng, g):
    """g, half the time plus a rational multiple of the unit word."""
    if rng.random() < 0.5:
        return g
    c = Fraction(rng.choice([-3, 1, 5]), rng.choice([1, 2, 7]))
    return g + c * Element.one(g.n)


class TestApplicationReference:
    """Leibniz application and substitution accumulate each call in one int
    map; every result must equal the chain of Element products written out
    in `_reference_leibniz` and `_reference_substitute`."""

    @pytest.mark.parametrize("seed", range(4))
    def test_leibniz(self, seed):
        rng = random.Random(seed)
        dens = set()
        for _ in range(25):
            n = rng.randint(1, 3)
            images = _rand_images(rng, n, 2 * n)
            dens.update(g.int_terms()[0] for g in images)
            g = _with_unit(rng, rand_element(rng, n, 3))
            got = _leibniz(g, images[:n], images[n:])
            assert got == _reference_leibniz(g, images[:n], images[n:])
        assert max(dens) > 1

    @pytest.mark.parametrize("seed", range(2))
    def test_apply_derivation(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(10):
            n = rng.randint(1, 3)
            d = rand_verified_derivation(rng, n)
            g = _with_unit(rng, rand_element(rng, n, 3))
            assert apply_derivation(d, g) == _reference_leibniz(
                g, d.l_images, d.r_images
            )

    def test_r_derivation(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 3)
            images = tuple(
                Element.zero(n) if rng.random() < 0.25 else rand_rpoly(rng, n, 2)
                for _ in range(n)
            )
            g = _with_unit(rng, rand_rpoly(rng, n, 4))
            assert RDerivation(n, images)(g) == _reference_leibniz(g, (), images)

    @pytest.mark.parametrize("seed", range(4))
    def test_substitute(self, seed):
        rng = random.Random(200 + seed)
        for _ in range(25):
            n = rng.randint(1, 3)
            images = _rand_images(rng, n, 2 * n)
            g = _with_unit(rng, rand_element(rng, n, 3))
            got = _substitute(g, images[:n], images[n:])
            assert got == _reference_substitute(g, images[:n], images[n:])

    @pytest.mark.parametrize("seed", range(3))
    def test_substitute_word_shapes(self, seed):
        # constant words and one-factor words skip the per-word fold, and one
        # l-image is reached at several exponents, the highest first, so the
        # lower ones are read off the powers built on the way up; the images
        # are scaled by rationals, so words carry distinct denominators
        rng = random.Random(300 + seed)
        dens = set()
        for _ in range(20):
            n = rng.randint(1, 3)
            images = tuple(
                Fraction(rng.choice([1, -2, 5]), rng.choice([1, 3, 4])) * g
                for g in _rand_images(rng, n, 2 * n)
            )
            dens.update(g.int_terms()[0] for g in images)
            i = rng.randrange(n)
            exponents = (4, 1, 3, 0, 2)
            words = [
                ((tuple(s if k == i else 0 for k in range(n)), ()), Fraction(t + 1, 2))
                for t, s in enumerate(exponents)
            ]
            words += [(((0,) * n, (j,)), -3) for j in range(1, n + 1)]
            g = Element(n, words)
            assert [lexp[i] for (lexp, _), _ in g.int_terms()[1]][:5] == list(exponents)
            got = _substitute(g, images[:n], images[n:])
            assert got == _reference_substitute(g, images[:n], images[n:])
        assert max(dens) > 3

    def test_compose(self):
        rng = random.Random(23)
        for _ in range(8):
            n = rng.randint(1, 3)
            phi, psi = (lift_phi(n, rand_tame_tuple(rng, n, 2, 3)[0]) for _ in range(2))
            expect = [_reference_substitute(g, phi.l_images, phi.r_images) for g in _slots(psi)]
            assert list(_slots(compose(phi, psi))) == expect

    def test_compose_tuples(self):
        rng = random.Random(29)
        for _ in range(15):
            n = rng.randint(1, 3)
            outer, inner = (rand_tame_tuple(rng, n, 2, 3)[0] for _ in range(2))
            expect = tuple(_reference_substitute(g, outer, ()) for g in inner)
            assert compose_tuples(outer, inner) == expect

    def test_apply_lifted_endo(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(2, 3)
            fwd, _ = rand_tame_tuple(rng, n, 2, 3)
            phi = lift_phi(n, fwd)
            g = _with_unit(rng, rand_element(rng, n, 3))
            assert apply_endo(phi, g) == _reference_substitute(
                g, phi.l_images, phi.r_images
            )

    def test_poly_subst(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(1, 3)
            images = tuple(rand_lpoly(rng, n, 2, terms=3) for _ in range(n))
            f = _with_unit(rng, rand_lpoly(rng, n, 4))
            assert poly_subst(f, images) == _reference_substitute(f, images, ())

    def test_u1_shift_substitution(self):
        # the h(a^{-1} r1) term of the closed-form U_1 inverse
        rng = random.Random(17)
        for _ in range(25):
            inv = Fraction(1, rng.choice([-3, -2, 2, 3]))
            h = _with_unit(rng, rand_rpoly(rng, 1, 5))
            images = (inv * gen_r(1, 1),)
            assert _substitute(h, (), images) == _reference_substitute(h, (), images)
            _, psi = u1_closed_form(1 / inv, h)
            expect = inv * gen_l(1, 1) - inv * _reference_substitute(h, (), images)
            assert psi.l_images[0] == expect

    def test_zero_and_unit(self):
        n = 2
        z = Element.zero(n)
        images = (gen_r(n, 1), z, z, Fraction(1, 3) * gen_l(n, 2))
        for g in (z, Element.one(n), Fraction(2, 5) * Element.one(n)):
            assert _leibniz(g, images[:n], images[n:]) == z
            assert _substitute(g, images[:n], images[n:]) == g

    def test_exponent_cap(self):
        g = Element.from_word(1, (MAX_EXPONENT + 1,), ())
        for substitute in (_substitute, _reference_substitute):
            with pytest.raises(DomainError, match="exceeds the limit"):
                substitute(g, (gen_l(1, 1),), (gen_r(1, 1),))

    @pytest.mark.parametrize("kind", ["derivation", "endomorphism"])
    def test_max_terms_trips_in_the_accumulator(self, kind):
        n = 2
        l1, l2 = gen_l(n, 1), gen_l(n, 2)
        if kind == "derivation":
            # example 4.1 on l1^2 l2^2 has 18 terms
            apply, m, budget = apply_derivation, example41_derivation(), 8
            g = mul(l1**2, l2**2)
        else:
            # (l1^5 + l2)(l2^5 + l1) has 4 terms; no power is built
            z = Element.zero(n)
            m = Endomorphism(n, (l1**5 + l2, l2**5 + l1), (z, z), verified=True)
            apply, g, budget = apply_endo, mul(l1, l2), 3
        # warm the straightening cache, whose per-layer charge would trip
        # first when the test runs with it cold
        apply(m, g)
        token = TERM_BUDGET.set(budget)
        try:
            with pytest.raises(TermBudgetExceeded) as exc:
                apply(m, g)
        finally:
            TERM_BUDGET.reset(token)
        frames = [f.name for f in traceback.extract_tb(exc.value.__traceback__)]
        assert frames[-2:] == ["_signed_products", "_charge"]
        assert "mul" not in frames
