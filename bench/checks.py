"""Independent checks of op outputs, run untimed after the measured passes.

Each check reads an op's stdout back and tests it by a route other than the
one that produced it:
- every element printed by `norm` or `mul` survives parse(format(g)) == g,
  and the small and medium ones agree with `normal_form_oracle`;
- every `solve derspace` basis member passes `check_derivation`;
- every `solve ad-preimage` result g gives ad_{l_i}(g) = u_i;
- `solve lemma27` solutions satisfy -ad_{l_i}(g) = r_i g + g r_i and
  `solve rfactor` results satisfy r_i^k r_j h = ad_{l_i}(r_i u) + r_i r_j v;
- `verify` reports zero failures and zero anomalies.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

from lsea.algebra import (
    Element,
    commutator,
    element_from_json,
    gen_l,
    gen_r,
    mul,
    normal_form_oracle,
)
from lsea.maps import check_derivation, map_from_json
from lsea.parser import format_element, parse_element

SHALLOW_TERM_PAIRS = 16
_VERIFY_OK = re.compile(r"suite \S+: seed=\d+ cases=\d+ failures=0 anomalies=0\n\Z")


def _oracle(spec) -> Element:
    """Product of the factor polynomials, each term pair through the oracle."""
    n = spec["n"]
    out = Element.zero(n)
    pairs = [([], Fraction(1))]
    for poly in spec["factors"]:
        pairs = [
            (letters + [tuple(x) for x in word], c * Fraction(text))
            for letters, c in pairs
            for text, word in poly
        ]
    for letters, c in pairs:
        out = out + c * normal_form_oracle(n, letters)
    return out


def _n_of(argv) -> int:
    return int(argv[argv.index("-n") + 1])


def _term_pairs(spec) -> int:
    pairs = 1
    for poly in spec["factors"]:
        pairs *= len(poly)
    return pairs


def check_op(op, stdout: str, inputs_dir: str, deep: bool) -> str | None:
    """None when the output passes its independent check, else why not.

    The oracle is slow on medium products; unless `deep`, it only checks
    products of at most SHALLOW_TERM_PAIRS term pairs.
    """
    argv = op["argv"]
    if op["exit"] != 0:
        return None if stdout == "" else "refused op printed output"
    if "norm" in argv or "mul" in argv:
        g = parse_element(stdout, _n_of(argv))
        if format_element(g) + "\n" != stdout:  # so parse(format(g)) == g
            return "parse(format(g)) != g"
        spec = op.get("oracle")
        if spec and (deep or _term_pairs(spec) <= SHALLOW_TERM_PAIRS):
            if g != _oracle(spec):
                return "differs from normal_form_oracle"
        return None
    check = op.get("check")
    if check == "verify":
        return None if _VERIFY_OK.match(stdout) else "verify reported failures"
    data = json.loads(stdout)
    if check == "derspace":
        basis = data["basis"]
        if data["dim"] != len(basis):
            return "dim differs from basis length"
        for member in basis:
            member = dict(member, verified=False)
            if check_derivation(map_from_json(member))[1]:
                return "basis member fails check_derivation"
        return None
    if check == "ad-preimage":
        with open(os.path.join(inputs_dir, argv[-1]), "r", encoding="utf-8") as fh:
            us = [element_from_json(u) for u in json.load(fh)["images"]]
        g = element_from_json(data["g"])
        if any(commutator(gen_l(g.n, i), g) != u for i, u in enumerate(us, start=1)):
            return "ad_{l_i}(g) != u_i"
        return None
    if check == "lemma27":
        n, i = _n_of(argv), int(argv[argv.index("--i") + 1])
        li, ri = gen_l(n, i), gen_r(n, i)
        for gj in data["basis"]:
            g = element_from_json(gj)
            if -commutator(li, g) != mul(ri, g) + mul(g, ri):
                return "lemma27 solution fails its condition"
        return None if data["dim"] == len(data["basis"]) else "dim differs from basis length"
    if check == "rfactor":
        n = _n_of(argv)
        k, i, j = (int(argv[argv.index(f) + 1]) for f in ("--k", "--i", "--j"))
        h = parse_element(next(a[4:] for a in argv if a.startswith("--h=")), n)
        u, v = element_from_json(data["u"]), element_from_json(data["v"])
        ri, rj = gen_r(n, i), gen_r(n, j)
        lhs = mul(mul(ri**k, rj), h)
        rhs = commutator(gen_l(n, i), mul(ri, u)) + mul(mul(ri, rj), v)
        return None if lhs == rhs else "rfactor identity fails"
    return f"no check for {argv}"
