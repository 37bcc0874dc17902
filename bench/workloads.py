"""Seeded op lists for the benchmark workloads.

An op is one `lsea` command line, run in process as `lsea.cli.main(argv)`.
Each op carries the exit code it must return and, where an independent
check applies, what that check needs.  Input files travel inside the op
list, so the list alone fixes everything the program sees: the same seed
gives byte-identical lists (`oplist_bytes`).

Each workload keeps its shape fixed and lets the seed choose the content:
the classes of ops, their sizes and counts do not depend on the seed; the
coefficients, words, image tuples, suite seeds and the order within a class
do.  That keeps the work per run nearly equal across seeds, which the
benchmark needs to be steady.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("expand", "derspace", "verify")


def oplist_bytes(oplist: dict) -> bytes:
    return json.dumps(oplist, sort_keys=True, separators=(",", ":")).encode()


def make_oplist(workload: str, seed: int, part: int) -> dict:
    """Op list `part` of the run with this seed; a run has several parts."""
    rng = random.Random(f"lsea-bench/{workload}/{seed}/{part}")
    ops, files = _GENERATORS[workload](rng)
    for k, op in enumerate(ops):
        op["id"] = k
    return {"workload": workload, "seed": seed, "part": part, "ops": ops, "files": files}


# -- expand ---------------------------------------------------------------------


def _coeff(rng: random.Random, rational: bool) -> str:
    if rational:
        den = rng.choice([2, 3, 4, 5])
        num = rng.choice([k for k in range(-7, 8) if k % den])
        return f"{num}/{den}"
    return str(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]))


def _poly(rng, n, terms, max_deg, rational, min_deg=0):
    """A list of (coefficient text, letters) with letters in any order."""
    out = []
    for _ in range(terms):
        deg = rng.randint(min_deg, max_deg)
        letters = [[rng.choice("lr"), rng.randint(1, n)] for _ in range(deg)]
        out.append([_coeff(rng, rational), letters])
    return out


def poly_text(poly) -> str:
    pieces = []
    for c, letters in poly:
        word = "*".join(f"{k}{i}" for k, i in letters)
        pieces.append(f"{c}*{word}" if word else c)
    return " + ".join(pieces)


# Distinct positive coefficients keep a power's support generic: some sign
# patterns cancel half of the terms of (sum c_g g)^k, which would make the
# size of the large ops, and so the run's cost, depend on the seed.
_GENERIC_INT = ["1", "2", "3", "4", "5", "6", "7"]
_GENERIC_RATIONAL = ["1/2", "2/3", "3/4", "4/5", "5/6", "6/7", "7/8", "3/2", "5/3"]


def _linear_form(rng, n, rational) -> str:
    gens = [f"l{i}" for i in range(1, n + 1)] + [f"r{i}" for i in range(1, n + 1)]
    coeffs = rng.sample(_GENERIC_RATIONAL if rational else _GENERIC_INT, 2 * n)
    return " + ".join(f"{c}*{g}" for c, g in zip(coeffs, gens))


def _expand_small(rng, k):
    """Tiny and medium ops; k fixes the shape, the seed the words and coefficients."""
    n = 2 + k % 2
    rational = k % 4 == 3
    form = k % 6
    # every op but the medium-sized powers is checked against the oracle
    if form in (0, 1):  # a sum of unordered words
        poly = _poly(rng, n, 2 + k % 3, 3, rational, min_deg=3)
        return {"argv": ["-n", str(n), "norm", "--", poly_text(poly)], "exit": 0,
                "oracle": {"n": n, "factors": [poly]}}
    if form in (2, 3):  # a small product
        a = _poly(rng, n, 2, 3, rational, min_deg=3)
        b = _poly(rng, n, 2, 2, rational, min_deg=2)
        return {"argv": ["-n", str(n), "mul", "--", poly_text(a), poly_text(b)], "exit": 0,
                "oracle": {"n": n, "factors": [a, b]}}
    if form == 4:  # a medium product
        a = _poly(rng, n, 5, 4, rational, min_deg=4)
        b = _poly(rng, n, 5, 4, rational, min_deg=4)
        return {"argv": ["-n", str(n), "mul", "--", poly_text(a), poly_text(b)], "exit": 0,
                "oracle": {"n": n, "factors": [a, b]}}
    base = _poly(rng, n, 3, 2, rational, min_deg=2)  # a medium power
    power = 3 if n == 2 else 2
    return {"argv": ["-n", str(n), "norm", "--", f"({poly_text(base)})^{power}"], "exit": 0,
            "oracle": {"n": n, "factors": [base] * power}}


def _expand_mid(rng, k):
    """Powers of generic linear forms of fixed shape, a few tens of ms each."""
    n, power, rational = [(2, 6, False), (3, 4, False), (2, 6, True), (3, 4, True)][k % 4]
    return {"argv": ["-n", str(n), "norm", "--",
                     f"({_linear_form(rng, n, rational)})^{power}"], "exit": 0}


def _expand_large(rng, k):
    """Few-thousand-term results and --max-terms refusals, fixed shapes."""
    shapes = [
        (2, 9, False, None),
        (3, 6, False, None),
        (2, 10, False, None),
        (2, 9, True, None),
        (3, 5, True, None),
        (2, 9, False, 1500),
        (3, 6, False, 1000),
        (2, 8, True, None),
    ]
    n, power, rational, max_terms = shapes[k]
    argv = ["-n", str(n)]
    if max_terms is not None:
        argv += ["--max-terms", str(max_terms)]
    argv += ["norm", "--", f"({_linear_form(rng, n, rational)})^{power}"]
    return {"argv": argv, "exit": 0 if max_terms is None else 2}


def _build_expand(rng):
    ops = []
    for k in range(104):
        if k % 13 == 6:
            ops.append(_expand_large(rng, k // 13))
        elif k % 13 == 0:
            ops.append(_expand_mid(rng, k // 13))
        else:
            ops.append(_expand_small(rng, k))
    return ops, {}


# -- derspace ---------------------------------------------------------------------


def _homogeneous_in_I(rng, n, deg, terms):
    """Terms of one total degree, each with at least one r-letter."""
    from lsea.algebra import BasisWord, Element

    out = []
    for _ in range(terms):
        a = rng.randint(0, deg - 1)
        lexp = [0] * n
        for _ in range(a):
            lexp[rng.randrange(n)] += 1
        rword = tuple(rng.randint(1, n) for _ in range(deg - a))
        out.append((BasisWord(tuple(lexp), rword), rng.choice([-3, -2, -1, 1, 2, 3])))
    return Element(n, out)


def _ad_images(rng, n, t, terms):
    from lsea.algebra import commutator, element_to_json, gen_l

    while True:
        g = _homogeneous_in_I(rng, n, t - 1, terms)
        if not g.is_zero:
            break
    return {"images": [element_to_json(commutator(gen_l(n, i), g)) for i in range(1, n + 1)]}


def _rpoly_text(rng, n, terms, max_deg):
    pieces = []
    for _ in range(terms):
        deg = rng.randint(0, max_deg)
        word = "*".join(f"r{rng.randint(1, n)}" for _ in range(deg))
        c = _coeff(rng, False)
        pieces.append(f"{c}*{word}" if word else c)
    return " + ".join(pieces)


def _build_derspace(rng):
    heavy = [  # (n, weighted degree, weights, into I)
        (2, 3, None, False), (2, 4, None, False), (2, 3, None, True), (2, 4, None, True),
        (2, 5, "1,2", True), (2, 6, "1,2", True),
        (3, 0, None, False), (3, 1, None, False), (3, 1, None, True),
    ]
    heavy_ops = []
    for n, m, weights, into_i in heavy:
        argv = ["-n", str(n), "solve", "derspace", "--wdeg", str(m)]
        if weights:
            argv.append(f"--weights={weights}")
        if into_i:
            argv.append("--into-i")
        heavy_ops.append({"argv": argv, "exit": 0, "check": "derspace"})
    for n, degree in ((2, 2), (2, 3), (2, 5), (3, 3), (3, 4)):
        i = rng.randint(1, n)
        heavy_ops.append({"argv": ["-n", str(n), "solve", "lemma27", "--i", str(i),
                                   "--degree", str(degree)], "exit": 0,
                          "check": "lemma27"})
    rng.shuffle(heavy_ops)

    light_ops = []
    files = {}
    stacks = [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 3), (3, 4), (3, 5)]
    for k in range(80):
        n, t = stacks[k % len(stacks)]
        name = f"images-{k:03d}.json"
        files[name] = _ad_images(rng, n, t, 2 + k // len(stacks) % 4)
        light_ops.append({"argv": ["solve", "ad-preimage", name], "exit": 0,
                          "check": "ad-preimage"})
    for k in range(10):
        n = 2 + k % 2
        i, j = rng.sample(range(1, n + 1), 2)
        power = 1 + k % 4
        h = _rpoly_text(rng, n, 1 + k % 3, 3)
        light_ops.append({"argv": ["-n", str(n), "solve", "rfactor", "--k", str(power),
                                   "--i", str(i), "--j", str(j), f"--h={h}"], "exit": 0,
                          "check": "rfactor"})
    rng.shuffle(light_ops)

    # one heavy op after every six light ones, so the order of classes is fixed
    ops = []
    for k, op in enumerate(light_ops):
        ops.append(op)
        if k % 6 == 5 and heavy_ops:
            ops.append(heavy_ops.pop())
    ops.extend(heavy_ops)
    return ops, files


# -- verify ------------------------------------------------------------------------

_VERIFY_SEEDS_PER_SUITE = 10
# cases per op, sized so that each op takes a few tens of ms
_VERIFY_CASES = {
    "cor23": 16, "cor25": 16, "equ5": 16, "example41": 16, "lemma22": 10,
    "lemma26": 4, "lemma27": 1, "lemma28": 5, "lemma31": 5, "lemma33": 7,
    "lemma41": 8, "lemma44": 4, "prop32": 3, "prop55": 10, "thm72pair": 10,
}


def _build_verify(rng):
    from lsea.verify import SUITES

    ops = []
    for round_ in range(_VERIFY_SEEDS_PER_SUITE):
        suites = sorted(SUITES)
        rng.shuffle(suites)
        for suite in suites:
            seed = rng.randrange(10**6)
            ops.append({"argv": ["verify", suite, "--seed", str(seed),
                                 "--cases", str(_VERIFY_CASES[suite])], "exit": 0,
                        "check": "verify"})
    return ops, {}


_GENERATORS = {"expand": _build_expand, "derspace": _build_derspace, "verify": _build_verify}
