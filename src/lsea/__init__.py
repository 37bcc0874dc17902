"""Exact kernel for the enveloping algebra U_n of a zero-multiplication algebra.

The algebra has generators l_1..l_n, r_1..r_n with the l's commuting and
r_i l_j = l_j r_i + r_i r_j; see `lsea.algebra` for the normal form,
`lsea.maps` for derivations and endomorphisms, `lsea.solver` for exact
linear algebra on graded slices, and `lsea.cli` for the command line.
The seeded verification suites live in `lsea.verify`, which is not
imported here.
"""

from .algebra import (
    NEG_INF,
    AmbientMismatch,
    BasisWord,
    DomainError,
    Element,
    TermBudgetExceeded,
    commutator,
    element_from_json,
    element_to_json,
    gen_l,
    gen_r,
    generator,
    homogeneous_components,
    in_I,
    in_L,
    in_R,
    is_homogeneous,
    lm_lc,
    membership,
    mul,
    normal_form_oracle,
    pderiv_l,
    project_to_L,
    shift_lr,
    wdeg,
)
from .linalg import solve
from .maps import (
    AnomalyError,
    Derivation,
    Endomorphism,
    NonzeroThrough,
    RDerivation,
    UnverifiedMapError,
    ZeroAt,
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
    is_affine_U,
    lift_phi,
    map_from_json,
    map_to_json,
    probe_nilpotent,
    u1_closed_form,
)
from .parser import ExprSyntaxError, format_element, parse_element
from .solver import (
    ad_preimage,
    derivation_coords,
    derivation_space,
    dim,
    graded_slice,
    lemma27_solutions,
    rfactor_decompose,
    weighted_slice,
)

__version__ = "0.1.0"
