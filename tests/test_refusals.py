"""The exception type and message of library refusals of bad input.

The rows are the refusals no other in-process test reaches.  `lsea.cli`
prints the message of a `DomainError`, `AmbientMismatch` or
`UnverifiedMapError` on stderr and exits 2, so the text is the user's too.
"""

import pytest

from lsea import (
    AmbientMismatch,
    Derivation,
    DomainError,
    Element,
    Endomorphism,
    UnverifiedMapError,
    ad,
    ad_preimage,
    affine_tuple,
    apply_derivation,
    apply_endo,
    check_derivation,
    check_endomorphism,
    derivation_coords,
    derivation_space,
    dim,
    elementary_tuple,
    extend_lnd_prop55,
    gen_l,
    gen_r,
    generator,
    lemma27_solutions,
    lift_phi,
    mul,
    pderiv_l,
    probe_nilpotent,
    rfactor_decompose,
    u1_closed_form,
)
from lsea.maps import identity_tuple, poly_subst
from lsea.parser import parse_element
from lsea.verify import run_suite


def _unverified_ad():
    d = ad(gen_l(2, 1))
    return Derivation(d.n, d.l_images, d.r_images)


def _zero_derivation():
    return Derivation(2, (Element.zero(2),) * 2, (Element.zero(2),) * 2)


def _identity_lift():
    return lift_phi(2, [gen_l(2, 1), gen_l(2, 2)])


# name -> (call, exception type, message); the type is matched exactly
REFUSALS = {
    "ad_preimage-empty": (lambda: ad_preimage([]), DomainError, "empty image tuple"),
    # the u_i are read by `maps._as_images`, as a map's images are
    "ad_preimage-count": (
        lambda: ad_preimage([gen_r(2, 1)]), DomainError, "expected 2 generator images, got 1"),
    "ad_preimage-u1": (
        lambda: ad_preimage([gen_r(1, 1)]), DomainError, "preimages need ambient n >= 2"),
    "ad_preimage-ambients": (
        lambda: ad_preimage([gen_r(2, 1), gen_r(3, 1)]), AmbientMismatch,
        "image ambient differs from map ambient"),
    "ad_preimage-outside-I": (
        lambda: ad_preimage([gen_l(2, 1), gen_r(2, 1)]), DomainError,
        "images must lie in the ideal generated by the r's"),
    "ad_preimage-inhomogeneous": (
        lambda: ad_preimage([gen_r(2, 1) + mul(gen_r(2, 1), gen_r(2, 2)), gen_r(2, 2)]),
        DomainError, "images must be homogeneous"),
    "ad_preimage-degrees": (
        lambda: ad_preimage([gen_r(2, 1), mul(gen_r(2, 1), gen_r(2, 2))]), DomainError,
        "images must share one degree"),
    # an index is read by `algebra._index`, a plain int from 1 to n
    "rfactor_decompose-index": (
        lambda: rfactor_decompose(1, 1, 3, gen_r(2, 1)), DomainError,
        "index 3 out of range 1..2"),
    "rfactor_decompose-index-str": (
        lambda: rfactor_decompose(2, "1", 2, gen_r(2, 1)), DomainError,
        "index must be an integer, got '1'"),
    "rfactor_decompose-power": (
        lambda: rfactor_decompose(0, 1, 2, gen_r(2, 1)), DomainError, "power must be >= 1"),
    "rfactor_decompose-outside-R": (
        lambda: rfactor_decompose(1, 1, 2, gen_l(2, 1)), DomainError,
        "cofactor must lie in R_n"),
    "lemma27_solutions-index": (
        lambda: lemma27_solutions(2, 3, 4), DomainError, "index 3 out of range 1..2"),
    "pderiv_l-index-float": (
        lambda: pderiv_l(1.0, gen_l(2, 2)), DomainError,
        "variable index must be an integer, got 1.0"),
    "pderiv_l-index-bool": (
        lambda: pderiv_l(True, gen_l(2, 2)), DomainError,
        "variable index must be an integer, got True"),
    "elementary_tuple-index-float": (
        lambda: elementary_tuple(2, 1.0, 1, gen_l(2, 2)), DomainError,
        "variable index must be an integer, got 1.0"),
    # a degree, a power or a bound is read by `algebra._json_int`
    "derivation_space-degree-float": (
        lambda: derivation_space(2, 1.5), DomainError, "degree must be an integer, got 1.5"),
    "derivation_space-degree-bool": (
        lambda: derivation_space(2, True), DomainError, "degree must be an integer, got True"),
    "lemma27_solutions-degree-float": (
        lambda: lemma27_solutions(2, 1, 2.5), DomainError,
        "degree must be an integer, got 2.5"),
    "rfactor_decompose-power-float": (
        lambda: rfactor_decompose(2.0, 1, 2, gen_r(2, 1)), DomainError,
        "power must be an integer, got 2.0"),
    "rfactor_decompose-power-bool": (
        lambda: rfactor_decompose(True, 1, 2, gen_r(2, 1)), DomainError,
        "power must be an integer, got True"),
    "probe_nilpotent-bound-float": (
        lambda: probe_nilpotent(ad(gen_l(2, 1)), gen_r(2, 1), 2.5), DomainError,
        "bound must be an integer, got 2.5"),
    "probe_nilpotent-bound-bool": (
        lambda: probe_nilpotent(ad(gen_l(2, 1)), gen_r(2, 1), True), DomainError,
        "bound must be an integer, got True"),
    # a map's ambient n is read by `maps._as_images`, and the Lemma 2.7 basis
    # reads its n, through `algebra._ambient` like every other ambient
    "lemma27_solutions-n": (
        lambda: lemma27_solutions(0, 1, 2), DomainError, "ambient n must be >= 1"),
    "check_derivation-n": (
        lambda: check_derivation(Derivation(0, (), ())), DomainError, "ambient n must be >= 1"),
    "check_endomorphism-n": (
        lambda: check_endomorphism(Endomorphism(-3, (), ())), DomainError,
        "ambient n must be >= 1"),
    "lift_phi-n": (lambda: lift_phi(0, []), DomainError, "ambient n must be >= 1"),
    "dim-n": (lambda: dim(0, 2), DomainError, "ambient n must be >= 1"),
    "dim-degree-float": (lambda: dim(2, 1.5), DomainError, "degree must be an integer, got 1.5"),
    "identity_tuple-n": (lambda: identity_tuple(0), DomainError, "ambient n must be >= 1"),
    "affine_tuple-n": (lambda: affine_tuple(0, [], []), DomainError, "ambient n must be >= 1"),
    "extend_lnd_prop55-n": (
        lambda: extend_lnd_prop55(2.0, gen_l(2, 2)), DomainError,
        "ambient n must be an integer, got 2.0"),
    "derivation_space-n": (
        lambda: derivation_space(2.0, 1), DomainError, "ambient n must be an integer, got 2.0"),
    "probe_nilpotent-unverified": (
        lambda: probe_nilpotent(_unverified_ad(), gen_r(2, 1), 3), UnverifiedMapError,
        "probe requires a verified derivation"),
    "probe_nilpotent-bound": (
        lambda: probe_nilpotent(ad(gen_l(2, 1)), gen_r(2, 1), 0), DomainError,
        "bound must be >= 1"),
    "u1_closed_form-ambient": (
        lambda: u1_closed_form(1, gen_r(2, 1)), AmbientMismatch, "closed form lives in U_1"),
    "u1_closed_form-outside-R": (
        lambda: u1_closed_form(1, gen_l(1, 1)), DomainError,
        "shift term must be a polynomial in r_1"),
    "elementary_tuple-scale": (
        lambda: elementary_tuple(2, 1, 0, gen_l(2, 2)), DomainError,
        "elementary scale must be nonzero"),
    "elementary_tuple-index": (
        lambda: elementary_tuple(2, 3, 1, gen_l(2, 2)), DomainError,
        "variable index 3 out of range 1..2"),
    "elementary_tuple-term": (
        lambda: elementary_tuple(2, 1, 1, gen_r(2, 2)), DomainError,
        "added term must be a polynomial of the same ambient"),
    "affine_tuple-shape": (
        lambda: affine_tuple(2, [[1, 0]]), DomainError, "affine data has wrong shape"),
    "poly_subst-outside-L": (
        lambda: poly_subst(gen_r(2, 1), [gen_l(2, 1), gen_l(2, 2)]), DomainError,
        "substitution source must be a polynomial"),
    "lift_phi-outside-L": (
        lambda: lift_phi(2, [gen_r(2, 1), gen_l(2, 2)]), DomainError,
        "lift requires polynomial images"),
    "apply_derivation-ambients": (
        lambda: apply_derivation(ad(gen_l(2, 1)), gen_l(3, 1)), AmbientMismatch,
        "derivation and element ambients differ"),
    "apply_endo-ambients": (
        lambda: apply_endo(_identity_lift(), gen_l(3, 1)), AmbientMismatch,
        "endomorphism and element ambients differ"),
    "derivation_coords-zero-member": (
        lambda: derivation_coords(ad(gen_l(2, 1)), [_zero_derivation()]), DomainError,
        "a zero member has no pivot"),
    "generator-kind": (
        lambda: generator(2, "x", 1), DomainError, "unknown generator kind 'x'"),
    "generator-n": (lambda: generator(0, "l", 1), DomainError, "ambient n must be >= 1"),
    "Element-divided-by-zero": (
        lambda: gen_l(1, 1) / 0, ZeroDivisionError, "division of an element by zero"),
    # a bad ambient n is refused before the text is read, whatever comes first
    "parse_element-n-literal": (
        lambda: parse_element("2", 0), DomainError, "ambient n must be >= 1"),
    "parse_element-n-generator": (
        lambda: parse_element("l1", 0), DomainError, "ambient n must be >= 1"),
    "parse_element-n-bool": (
        lambda: parse_element("l1", True), DomainError, "ambient n must be an integer, got True"),
    "parse_element-n-before-text": (
        lambda: parse_element("l1 +", 0), DomainError, "ambient n must be >= 1"),
    "run_suite-cases": (
        lambda: run_suite("cor23", cases=0), DomainError, "cases must be at least 1, got 0"),
    # a suite's cases and seed, and an exponent, are read by `algebra._json_int`
    "run_suite-cases-bool": (
        lambda: run_suite("cor23", cases=True), DomainError,
        "cases must be an integer, got True"),
    "run_suite-cases-float": (
        lambda: run_suite("cor23", cases=1.5), DomainError,
        "cases must be an integer, got 1.5"),
    "run_suite-seed-float": (
        lambda: run_suite("cor23", seed=1.5), DomainError, "seed must be an integer, got 1.5"),
    "Element-power-bool": (
        lambda: gen_l(1, 1) ** True, DomainError, "exponent must be an integer, got True"),
    "run_suite-unknown": (
        lambda: run_suite("nope"), DomainError,
        "unknown suite 'nope'; known: cor23, cor25, equ5, example41, lemma22, lemma26, "
        "lemma27, lemma28, lemma31, lemma33, lemma41, lemma44, prop32, prop55, thm72pair"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_type_and_message(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message
