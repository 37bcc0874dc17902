"""Acceptance criteria, one test per criterion.

Every criterion is exact (rational arithmetic end to end): the tolerance is
equality, and the required failure count is zero.  Each test prints one
pass/fail line; run `pytest tests/test_acceptance.py -s` to watch them live.
The whole module is sized for desk scale (n <= 3, degrees <= 6) and targets
well under a minute in total.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from lsea import (
    Element,
    NonzeroThrough,
    ZeroAt,
    ad,
    ad_preimage,
    apply_derivation,
    apply_endo,
    check_derivation,
    check_endomorphism,
    check_inverse_pair,
    compose,
    compose_tuples,
    derivation_coords,
    derivation_space,
    dim,
    element_from_json,
    element_to_json,
    extend_lnd_prop55,
    gen_l,
    gen_r,
    generator,
    graded_slice,
    in_I,
    is_affine_U,
    lemma27_solutions,
    lift_phi,
    lm_lc,
    mul,
    normal_form_oracle,
    pderiv_l,
    probe_nilpotent,
    rfactor_decompose,
    shift_lr,
    u1_closed_form,
    wdeg,
)
from lsea.cli import main as cli_main
from lsea.maps import Derivation, identity_tuple, is_identity
from lsea.parser import format_element, parse_element
from lsea.verify import (
    _rand_affine,
    example41_derivation,
    rand_element,
    rand_homogeneous,
    rand_homogeneous_I,
    rand_lpoly,
    rand_nonzero,
    rand_rpoly,
    rand_tame_tuple,
    rand_univariate_last,
)

from conftest import rand_word

DATA = Path(__file__).parent / "data"


def report(num, name, passed, total, failed=0):
    status = "PASS" if failed == 0 else "FAIL"
    print(f"criterion {num:02d} {name}: {status} ({passed}/{total} exact, {failed} failures)")
    assert failed == 0, f"criterion {num} had {failed} failures"
    assert passed == total


def test_criterion_01_oracle_equivalence():
    rng = random.Random(1001)
    total, passed = 500, 0
    for _ in range(total):
        n = rng.randint(1, 3)
        word = rand_word(rng, n, rng.randint(0, 6))
        via_mul = Element.one(n)
        for kind, i in word:
            via_mul = mul(via_mul, generator(n, kind, i))
        if via_mul == normal_form_oracle(n, word):
            passed += 1
    report(1, "oracle equivalence", passed, total, total - passed)


def test_criterion_02_ring_laws():
    rng = random.Random(1002)
    total, passed = 200, 0
    for _ in range(total):
        n = rng.randint(1, 3)
        a, b, c = (rand_element(rng, n, 3) for _ in range(3))
        one = Element.one(n)
        ok = mul(mul(a, b), c) == mul(a, mul(b, c))
        ok = ok and mul(one, a) == a == mul(a, one)
        passed += ok
    report(2, "ring laws", passed, total, total - passed)


def test_criterion_03_structure_identities():
    rng = random.Random(1003)
    total, passed = 200, 0
    for _ in range(total):
        n = rng.randint(1, 3)
        f = rand_lpoly(rng, n, 5)
        i = rng.randint(1, n)
        ri = gen_r(n, i)
        shifted = shift_lr(f)
        # commutation through r_i
        ok = mul(f, ri) == mul(ri, shifted)
        # closed shift formula against direct substitution
        direct = Element.zero(n)
        for w, coeff in f.terms():
            acc = Element.one(n)
            for k, e in enumerate(w.lexp):
                if e:
                    acc = mul(acc, (gen_l(n, k + 1) - gen_r(n, k + 1)) ** e)
            direct = direct + coeff * acc
        ok = ok and shifted == direct
        # straightening of r_i past a general polynomial
        tail = Element.zero(n)
        for j in range(1, n + 1):
            tail = tail + mul(pderiv_l(j, f), gen_r(n, j))
        ok = ok and mul(ri, f) == mul(f, ri) + mul(ri, tail)
        passed += ok
    failed = total - passed

    # the rank-one commutation identity, 100 cases
    z = Element.zero(1)
    d1, violations = check_derivation(Derivation(1, (Element.one(1),), (z,)))
    assert not violations
    r1 = gen_r(1, 1)
    sub_total, sub_passed = 100, 0
    for _ in range(sub_total):
        w = rand_element(rng, 1, 5)
        lhs = mul(r1, w)
        rhs = mul(w, r1) + mul(mul(r1, apply_derivation(d1, w)), r1)
        sub_passed += lhs == rhs
    failed += sub_total - sub_passed
    report(3, "structure identities", passed + sub_passed, total + sub_total, failed)


def test_criterion_04_leading_term_laws():
    rng = random.Random(1004)
    total, passed = 200, 0
    for _ in range(total):
        n = rng.randint(1, 3)
        g, h = rand_nonzero(rng, n, 3), rand_nonzero(rng, n, 3)
        p = mul(g, h)
        ok = not p.is_zero
        ok = ok and lm_lc(p)[0] == tuple(
            x + y for x, y in zip(lm_lc(g)[0], lm_lc(h)[0])
        )
        hg = rand_homogeneous(rng, n, rng.randint(0, 3))
        hh = rand_homogeneous(rng, n, rng.randint(0, 3))
        w = (1,) * n
        ok = ok and wdeg(mul(hg, hh), w) == wdeg(hg, w) + wdeg(hh, w)
        passed += ok
    report(4, "leading term laws", passed, total, total - passed)


def test_criterion_05_worked_derivation_example():
    d, violations = check_derivation(example41_derivation())
    checks = 5  # one commuting relation, four straightening relations for n=2
    failed = len(violations)
    probe = probe_nilpotent(d, gen_r(2, 2), 5)
    ok = isinstance(probe, NonzeroThrough) and probe.bound == 5
    ok = ok and all(a <= b for a, b in zip(probe.degrees, probe.degrees[1:]))
    if not ok:
        failed += 1
    report(5, "worked derivation example", checks - len(violations), checks, failed)


def test_criterion_06_univariate_extension():
    rng = random.Random(1006)
    total, passed = 50, 0
    for _ in range(total):
        n = rng.randint(2, 3)
        g = rand_univariate_last(rng, n, 5)
        d = extend_lnd_prop55(n, g)
        ok = d.verified
        for x in (gen_l(n, 1), gen_r(n, 1)):
            res = probe_nilpotent(d, x, 3)
            ok = ok and isinstance(res, ZeroAt) and res.k <= 2
        passed += ok
    failed = total - passed

    # span membership at n=2: every graded piece of the extension lies in the
    # derivation space of its degree
    from lsea import graded_parts

    span_total, span_passed = 0, 0
    for degg in (1, 2, 3):
        g = rand_univariate_last(rng, 2, degg)
        while g.degree() != degg:
            g = rand_univariate_last(rng, 2, degg)
        d = extend_lnd_prop55(2, g)
        for m, part in graded_parts(d, (1, 1)).items():
            span_total += 1
            span_passed += derivation_coords(part, derivation_space(2, m)) is not None
    failed += span_total - span_passed
    report(6, "univariate extension", passed + span_passed, total + span_total, failed)


def test_criterion_07_lifting_group_embedding():
    rng = random.Random(1007)
    total, passed = 50, 0
    assert is_identity(lift_phi(2, identity_tuple(2)))
    for _ in range(total):
        n = rng.randint(2, 3)
        cap = 5 if n == 2 else 3
        f, f_inv = rand_tame_tuple(rng, n, 4, cap)
        phi = lift_phi(n, f)
        _, bad = check_endomorphism(phi)
        ok = not bad
        g, _ = rand_tame_tuple(rng, n, 2, cap)
        if max(x.degree() for x in compose_tuples(f, g)) <= cap:
            lifted = lift_phi(n, compose_tuples(f, g))
            composed = compose(phi, lift_phi(n, g))
            ok = ok and lifted.l_images == composed.l_images
            ok = ok and lifted.r_images == composed.r_images
        aff, aff_inv = _rand_affine(rng, n)
        ok = ok and is_affine_U(lift_phi(n, aff))
        ok = ok and check_inverse_pair(lift_phi(n, aff), lift_phi(n, aff_inv))
        passed += ok
    report(7, "lifting group embedding", passed, total, total - passed)


def test_criterion_08_ad_preimage_recovery():
    rng = random.Random(1008)
    total, passed, anomalies = 100, 0, 0
    for _ in range(total):
        n = rng.choice([2, 2, 3])
        deg = rng.randint(1, 4)
        g = rand_homogeneous_I(rng, n, deg)
        us = [apply_derivation(ad(gen_l(n, i)), g) for i in range(1, n + 1)]
        try:
            rec = ad_preimage(us)
        except Exception:
            anomalies += 1
            continue
        ok = in_I(rec)
        for i in range(1, n + 1):
            ok = ok and apply_derivation(ad(gen_l(n, i)), rec) == us[i - 1]
        passed += ok
    report(8, "ad-preimage recovery", passed, total, (total - passed) + anomalies)


def test_criterion_09_leading_coefficient_span():
    total = 0
    violations = 0
    for i in (1, 2):
        for d in (2, 3):
            for g in lemma27_solutions(2, i, d):
                total += 1
                _, lc = lm_lc(g)
                if not all(
                    len(w.rword) == 2 and w.rword[0] == i for w, _ in lc.terms()
                ):
                    violations += 1
    report(9, "leading coefficient span", total - violations, total, violations)


def test_criterion_10_power_factorization():
    rng = random.Random(1010)
    total, passed = 0, 0
    for n in (2, 3):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for k in (1, 2, 3, 4):
                    for _ in range(2):
                        h = rand_rpoly(rng, n, 3)
                        u, v = rfactor_decompose(k, i, j, h)
                        ri, rj = gen_r(n, i), gen_r(n, j)
                        lhs = mul(mul(ri**k, rj), h)
                        rhs = apply_derivation(ad(gen_l(n, i)), mul(ri, u)) + mul(
                            mul(ri, rj), v
                        )
                        total += 1
                        passed += lhs == rhs
    assert total >= 50
    report(10, "power factorization", passed, total, total - passed)


def test_criterion_11_structure_constants():
    total, passed = 0, 0
    assert dim(2, 2) == 11
    for n in (1, 2, 3):
        for m in range(6):
            total += 1
            passed += graded_slice(n, m).dim == dim(n, m)
    report(11, "structure constants", passed, total, total - passed)


def test_criterion_12_rank_one_pairs():
    rng = random.Random(1012)
    total, passed = 50, 0
    for _ in range(total):
        alpha = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
        h = rand_rpoly(rng, 1, 5)
        phi, psi = u1_closed_form(alpha, h)
        ok = phi.verified and psi.verified
        ok = ok and check_inverse_pair(phi, psi)
        passed += ok
    report(12, "rank one pairs", passed, total, total - passed)


def test_criterion_13_ideal_stability():
    rng = random.Random(1013)
    total, passed = 200, 0
    from lsea.verify import rand_verified_derivation

    for case in range(total):
        n = rng.randint(2, 3)
        g = rand_homogeneous_I(rng, n, rng.randint(1, 3))
        if case % 2:
            d = rand_verified_derivation(rng, n)
            passed += in_I(apply_derivation(d, g))
        else:
            f, _ = rand_tame_tuple(rng, n, 2, 4 if n == 2 else 3)
            passed += in_I(apply_endo(lift_phi(n, f), g))
    report(13, "ideal stability", passed, total, total - passed)


def test_criterion_14_cli_contract(capsys, tmp_path):
    checks = []

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        return code, out

    # golden outputs
    code, out = run("-n", "2", "norm", "r1*l2")
    checks.append(code == 0 and out == "l2*r1 + r1*r2\n")
    code, out = run("-n", "1", "norm", "(l1-r1)^2")
    checks.append(code == 0 and out == "l1^2 - 2*l1*r1\n")
    code, out = run("der", "check", str(DATA / "example41.json"))
    checks.append(code == 0 and out == "derivation: OK\n")
    code, out = run("-n", "1", "u1", "pair", "--alpha", "2", "--h", "r1^3")
    data = json.loads(out)
    checks.append(
        code == 0
        and {"l": [0], "r": [1, 1, 1], "c": "-1/16"} in data["psi"]["l_images"][0]["terms"]
    )

    # determinism: byte-identical reruns
    for argv in (
        ("-n", "2", "norm", "(l1+r1+l2)^3"),
        ("-n", "2", "endo", "lift", "l1+l2^2;l2"),
        ("verify", "cor25", "--seed", "7", "--cases", "20"),
        ("-n", "2", "solve", "lemma27", "--i", "1", "--degree", "2"),
    ):
        _, out1 = run(*argv)
        _, out2 = run(*argv)
        checks.append(out1 == out2)

    # parse/format and JSON round trips
    rng = random.Random(1014)
    ok = True
    for _ in range(50):
        n = rng.randint(1, 3)
        g = rand_element(rng, n, 4)
        ok = ok and parse_element(format_element(g), n) == g
        ok = ok and element_from_json(json.loads(json.dumps(element_to_json(g)))) == g
    checks.append(ok)

    # exit codes: 0 ok, 1 math failure, 2 usage, 3 anomaly is untriggerable here
    code, _ = run("-n", "2", "norm", "l1")
    checks.append(code == 0)
    bad = {
        "n": 2,
        "kind": "derivation",
        "l_images": [
            {"n": 2, "terms": [{"l": [0, 0], "r": [1], "c": "1"}]},
            {"n": 2, "terms": []},
        ],
        "r_images": [{"n": 2, "terms": []}, {"n": 2, "terms": []}],
        "verified": False,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _ = run("der", "check", str(path))
    checks.append(code == 1)
    code, _ = run("-n", "1", "norm", "l1 +")
    checks.append(code == 2)
    code, _ = run("-n", "2", "--max-terms", "2", "norm", "(l1+l2+r1)^2")
    checks.append(code == 2)

    failed = sum(1 for c in checks if not c)
    # report through stdout after capsys is drained
    capsys.readouterr()
    with capsys.disabled():
        report(14, "cli contract", len(checks) - failed, len(checks), failed)
