"""The seeded suite runner itself: every suite passes, reports are stable."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from lsea import DomainError, Element, gen_r, verify
from lsea.cli import main
from lsea.maps import AnomalyError, NonzeroThrough, ZeroAt, compose_tuples, identity_tuple
from lsea.parser import format_element
from lsea.verify import SUITES, run_suite

EXPECTED_SUITES = {
    "lemma22",
    "cor23",
    "cor25",
    "lemma26",
    "lemma27",
    "lemma28",
    "lemma31",
    "prop32",
    "lemma33",
    "lemma41",
    "example41",
    "lemma44",
    "prop55",
    "equ5",
    "thm72pair",
}


def test_suite_inventory():
    assert set(SUITES) == EXPECTED_SUITES


@pytest.mark.parametrize("suite", sorted(EXPECTED_SUITES))
def test_every_suite_passes(suite):
    report = run_suite(suite, seed=42, cases=30)
    assert report.ok, report.failures or report.anomalies


def test_reports_are_deterministic():
    a = run_suite("cor25", seed=9, cases=40)
    b = run_suite("cor25", seed=9, cases=40)
    assert a.line() == b.line()
    assert a.failures == b.failures


def test_unknown_suite():
    with pytest.raises(DomainError):
        run_suite("nope")
    with pytest.raises(DomainError):
        run_suite("cor25", cases=0)


def test_cross_process_determinism(run_lsea):
    """Stdout bytes must not depend on hash seeds or process state."""
    argv = ["-n", "2", "solve", "derspace", "--wdeg", "1", "--into-i"]
    outs = set()
    for hashseed in ("1", "7"):
        proc = run_lsea(argv, env={"PYTHONHASHSEED": hashseed})
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


# SHA-256 of the formatted first draws of each sampler at seeds 0..5 (five
# draws per seed over n = 1, 2, 3, 1, 2), each seed followed by the next
# rng.random(); recorded from the separate per-sampler loops that preceded
# the shared word sampler, so a refactor must keep both draws and RNG state.
SAMPLER_PINS = {
    "rand_element": (
        lambda rng, n: verify.rand_element(rng, n, 3),
        "2b657ed3ba13d34f14ec660ce01577cd3c00c017693e3474cc3eb67ea41e0640",
    ),
    "rand_nonzero": (
        lambda rng, n: verify.rand_nonzero(rng, n, 2, terms=2),
        "7b88c225946e0cb9cb8c8d170f748423de70cde6473a2896f459453aeda90869",
    ),
    "rand_lpoly": (
        lambda rng, n: verify.rand_lpoly(rng, n, 5),
        "1267b7f9e95ef6c20aa571c212fadd648028143f74438711428bd53f04928014",
    ),
    "rand_rpoly": (
        lambda rng, n: verify.rand_rpoly(rng, n, 3),
        "2fcc377c2e27fc577f742933dced4f718ef86d7e84bdf52e5aba820175b7bb85",
    ),
    "rand_homogeneous_I": (
        lambda rng, n: verify.rand_homogeneous_I(rng, n, 3),
        "b4ca0bf951b1234b7c56ef936234ebcd5af370520c3bae9c27e6b88c1f0c542b",
    ),
    "rand_homogeneous": (
        lambda rng, n: verify.rand_homogeneous(rng, n, 2),
        "2ccc18b6bd07c81cb0d65975c6ea56b78e1fbd634c3b936cfa4e64c1fcbfe2fa",
    ),
    # these three were recorded while the samplers still added one term at a
    # time; a tuple draw is formatted as its images joined by "; "
    "rand_univariate_last": (
        lambda rng, n: verify.rand_univariate_last(rng, n, 4),
        "09ead47981b6d78d9c26a7a8e75649db96fb3632d7922276d529f10ec100d57e",
    ),
    "_rand_elementary": (
        lambda rng, n: verify._rand_elementary(rng, n + 1),
        "c0b4b0c0b7bea2575be99ca0518e7d1d90195108d083168da43fef3cdbf55b96",
    ),
    "rand_tame_tuple": (
        lambda rng, n: verify.rand_tame_tuple(rng, n + 1, 3, 3),
        "8a32aba473ffedeb012642581b4a29c501a48012c615376e86a48747aa6c7d11",
    ),
}


def _formatted(draw) -> str:
    if isinstance(draw, Element):
        return format_element(draw)
    return "; ".join(map(_formatted, draw))


@pytest.mark.parametrize("name", sorted(SAMPLER_PINS))
def test_sampler_draws_pinned(name):
    draw, digest = SAMPLER_PINS[name]
    lines = []
    for seed in range(6):
        rng = random.Random(seed)
        for k in range(5):
            lines.append(_formatted(draw(rng, 1 + k % 3)))
        lines.append(repr(rng.random()))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def _reference_rand_words(rng, n, terms, degree, l_part):
    # the sampler as it was, with one Fraction per term and the validating
    # constructor
    pairs = []
    for _ in range(terms):
        deg = degree(rng)
        a = l_part(rng, deg)
        lexp = [0] * n
        for _ in range(a):
            lexp[rng.randrange(n)] += 1
        rword = tuple(rng.randint(1, n) for _ in range(deg - a))
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.choice([1, 1, 1, 2, 3])
        pairs.append(((tuple(lexp), rword), Fraction(num, den)))
    return Element(n, pairs)


def test_rand_words_matches_fraction_reference():
    # same element, same stored term order and same RNG state after every
    # draw; many terms of low degree make repeated words add up and cancel
    shapes = [
        (lambda rng: rng.randint(0, 3), lambda rng, d: rng.randint(0, d)),
        (lambda rng: rng.randint(0, 1), lambda rng, d: d),
        (lambda rng: 2, lambda rng, d: 0),
    ]
    cancelled = 0
    for seed in range(40):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in (1, 2, 3):
            for terms in (1, 4, 12):
                for degree, l_part in shapes:
                    got = verify.rand_words(ours, n, terms, degree, l_part)
                    want = _reference_rand_words(theirs, n, terms, degree, l_part)
                    assert got == want
                    assert list(got.int_terms()[1]) == list(want.int_terms()[1])
                    assert ours.getstate() == theirs.getstate()
                    cancelled += len(got) < terms
    assert cancelled > 100
    rng = random.Random(5)
    coeffs = {verify.rand_coeff(rng) for _ in range(300)}
    assert coeffs == {Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3)}


def _recording(monkeypatch, name, calls):
    # replace verify.<name> by a wrapper that appends (args, result) to calls
    inner = getattr(verify, name)

    def wrapper(*args):
        out = inner(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(verify, name, wrapper)


def test_tame_tuple_composes_inverse_only_for_kept_steps(monkeypatch):
    steps, compositions = [], []
    _recording(monkeypatch, "_rand_affine", steps)
    _recording(monkeypatch, "_rand_elementary", steps)
    _recording(monkeypatch, "compose_tuples", compositions)
    rejected = 0
    for seed in range(20):
        rng = random.Random(seed)
        for n in (2, 3):
            del steps[:], compositions[:]
            fwd, inv = verify.rand_tame_tuple(rng, n, 3, 1)
            # one forward candidate per attempt; a kept one also composes
            # the inverse
            drawn = [step_f for _, (step_f, _) in steps]
            forward = [
                out for (_, step), out in compositions if any(step is f for f in drawn)
            ]
            kept = sum(max(g.degree() for g in out) <= 1 for out in forward)
            assert len(forward) == len(steps)
            assert len(compositions) == len(steps) + kept
            rejected += len(steps) - kept
            assert compose_tuples(fwd, inv) == identity_tuple(n)
            assert compose_tuples(inv, fwd) == identity_tuple(n)
    assert rejected > 20


def test_tame_tuple_in_one_variable():
    # with n = 1 an elementary step adds a constant, as no other l_j exists
    for seed in range(100):
        fwd, inv = verify.rand_tame_tuple(random.Random(seed), 1, 3, 3)
        assert compose_tuples(fwd, inv) == identity_tuple(1)
        assert compose_tuples(inv, fwd) == identity_tuple(1)
    rng = random.Random(0)
    for _ in range(50):
        (image,), _ = verify._rand_elementary(rng, 1)
        assert image.degree() == 1


def test_prop32_composes_f_and_g_once_per_draw_of_g(monkeypatch):
    # compositions made by rand_tame_tuple itself are not counted
    tame = verify.rand_tame_tuple
    draws, compositions, depth = [], [], [0]

    def counted_tame(*args):
        depth[0] += 1
        try:
            out = tame(*args)
        finally:
            depth[0] -= 1
        draws.append(out)
        return out

    def counted_compose(outer, inner):
        if not depth[0]:
            compositions.append((outer, inner))
        return compose_tuples(outer, inner)

    monkeypatch.setattr(verify, "rand_tame_tuple", counted_tame)
    monkeypatch.setattr(verify, "compose_tuples", counted_compose)
    redrawn = 0
    for seed in range(4):
        del draws[:], compositions[:]
        assert run_suite("prop32", seed=seed, cases=6).ok
        # each case draws f once and g until f∘g is within the cap
        assert len(compositions) == len(draws) - 6
        g_draws = [fwd for fwd, _ in draws]
        assert all(any(g is h for h in g_draws) for _, g in compositions)
        redrawn += len(draws) - 2 * 6
    assert redrawn


def _forced_anomaly(*args, **kwargs):
    raise AnomalyError("forced", payload={"why": "test"})


# SHA-256 of the sorted-key JSON of the anomalies list at seed 3, 4 cases
ANOMALY_PINS = {
    "lemma26": (
        "ad_preimage",
        {"input", "payload"},
        "f04bbbf200dcfac68546e0be1ec502d3859f2727db5842c53cdef915816e3ea0",
    ),
    "lemma28": (
        "rfactor_decompose",
        {"k", "i", "j", "payload"},
        "57eb46bea705301d87d4d022436ef3d9dec4d7d672111747f8c6ac59278eeb90",
    ),
}


@pytest.mark.parametrize("suite", sorted(ANOMALY_PINS))
def test_anomalies_recorded_per_case(monkeypatch, suite):
    solver_fn, keys, digest = ANOMALY_PINS[suite]
    monkeypatch.setattr(verify, solver_fn, _forced_anomaly)
    report = run_suite(suite, seed=3, cases=4)
    assert report.line() == f"suite {suite}: seed=3 cases=4 failures=0 anomalies=4"
    assert not report.failures and not report.ok
    assert all(set(a) == keys and a["payload"] == {"why": "test"} for a in report.anomalies)
    text = json.dumps(report.anomalies, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_lemma27_anomalies_recorded_per_degree(monkeypatch):
    monkeypatch.setattr(verify, "lemma27_solutions", _forced_anomaly)
    report = run_suite("lemma27", seed=3, cases=4)
    assert report.line() == "suite lemma27: seed=3 cases=0 failures=0 anomalies=4"
    assert report.anomalies == [
        {"i": i, "degree": d, "payload": {"why": "test"}} for i in (1, 2) for d in (2, 3)
    ]


def test_uncaught_anomaly_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(verify, "graded_parts", _forced_anomaly)
    code = main(["verify", "lemma44", "--seed", "0", "--cases", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "suite lemma44: anomaly\n"
    assert json.loads(captured.out) == {"anomaly": "forced", "payload": {"why": "test"}}


# suite -> (verify global, stand-in that makes the suite's identity fail,
# keys of each recorded failure); a second row of a suite has a "-" suffix
FAILURE_PATHS = {
    "lemma22": ("shift_lr", lambda f: f + Element.one(f.n), {"n", "f", "i"}),
    "cor23": ("pderiv_l", lambda j, f: Element.one(f.n), {"n", "f", "i"}),
    "cor25": ("wdeg", lambda g, w: 1, {"n", "g", "h"}),
    "lemma26": ("ad_preimage", lambda us: Element.zero(us[0].n), {"n", "g", "recovered"}),
    "lemma27": ("lemma27_solutions", lambda n, i, d: [Element.one(n)], {"i", "degree", "g"}),
    "lemma28": (
        "rfactor_decompose",
        lambda k, i, j, h: (Element.zero(h.n), Element.zero(h.n)),
        {"n", "k", "i", "j", "h"},
    ),
    "lemma31": ("in_I", lambda g: False, {"n", "g"}),
    "prop32": (
        "check_endomorphism",
        lambda e: (e, [("s1", 1, 2, gen_r(e.n, 1))]),
        {"n", "f"},
    ),
    "prop32-identity": ("is_identity", lambda e: False, {"case"}),
    "lemma33": ("check_inverse_pair", lambda phi, psi: False, {"n", "f"}),
    "lemma41": ("in_I", lambda g: False, {"n", "g"}),
    "example41": ("probe_nilpotent", lambda d, x, bound: ZeroAt(1), {"case"}),
    "example41-relations": (
        "check_derivation",
        lambda d: (d, [("s2", 1, 1, gen_r(2, 1))]),
        {"relation", "i", "j"},
    ),
    "lemma44": ("graded_parts", lambda d, w: {0: d, 1: d}, {"n", "g", "w"}),
    "prop55": (
        "probe_nilpotent",
        lambda d, x, bound: NonzeroThrough(bound, ()),
        {"n", "g"},
    ),
    "equ5": ("apply_derivation", lambda d, w: Element.zero(w.n), {"w"}),
    "thm72pair": ("check_inverse_pair", lambda phi, psi: False, {"alpha", "h"}),
}


def test_failure_paths_cover_every_suite():
    assert {row.partition("-")[0] for row in FAILURE_PATHS} == EXPECTED_SUITES


@pytest.mark.parametrize("row", sorted(FAILURE_PATHS))
def test_failures_recorded_and_reported(monkeypatch, capsys, row):
    suite = row.partition("-")[0]
    name, stand_in, keys = FAILURE_PATHS[row]
    monkeypatch.setattr(verify, name, stand_in)
    report = run_suite(suite, seed=0, cases=3)
    assert report.failures and not report.anomalies and not report.ok
    assert all(set(failure) == keys for failure in report.failures)
    code = main(["verify", suite, "--seed", "0", "--cases", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[0] == report.line()
    assert out[1:] == [json.dumps({"failure": f}) for f in report.failures]
