"""End-to-end witness construction and certificate verification.

Given a quasi-homogeneous polynomial f with an isolated singularity at the
origin, the pipeline finds a linear slice y_1, builds the Hessian-cofactor
candidate tuple in the new coordinates, symmetrizes it and lifts it to an
explicit second-order operator P.  It certifies that P is an operator on
A = Q[y]/(g) whose extracted diagonal value d_1(y_1) lies outside
S = (y_1, g_2, ..., g_n)^2 + (g), the ideal that every sum of compositions
of derivations of A lands in.  Every claim is recorded in a self-contained
JSON certificate that the verifier checks by re-multiplication (modulo a
prime for the isolation records), dot products and one determinant: it
never divides by a Groebner basis, never computes one and never searches.

Homogeneous input is the case W = (1, ..., 1) of what follows.  The
weights W (coprime positive integers) and the weighted degree D are the
unique solution of <e, W> = D over the exponents e of f
(poly.quasi_homogeneous_weights); the verifier recomputes them from the
input and only compares the recorded ones with them.  The weighted Euler
derivation E_W = sum W_i x_i d/dx_i satisfies E_W(f) = D f term by term,
since E_W(x^e) = <e, W> x^e, so the verifier need not check it; f lies in
its Jacobian ideal (Saito 1971: for an isolated singularity this happens
iff f is quasi-homogeneous).  Soundness rests on points 0, 2, 3 and 4, and
the certificate records what they read and nothing else.  Point 1 says
why the builder always finds P; no certified step uses it.

0. Isolation of f.  The certificate records a prime p that divides no
   denominator of f and, for each variable x_i, a row c_i1, ..., c_in of
   polynomials with integer coefficients in [0, p).  The verifier forms
   h_i = sum_j c_ij f_j modulo p and checks that it is nonzero and leads,
   under grevlex, with a power x_i^(N_i).  Let J_p be the ideal of the
   partials f_1, ..., f_n reduced modulo p.  h_i need not be homogeneous,
   but J_p is weighted homogeneous, so the weighted homogeneous component
   of h_i that contains x_i^(N_i) lies in J_p; made of terms of h_i, it
   leads with x_i^(N_i) too.  So every variable has a pure power in
   LT(J_p), F_p[x]/J_p is finite, and J_p, being weighted homogeneous, is
   primary to the maximal ideal: it contains every monomial of weighted
   degree t, for every large t.  Take the Macaulay matrix of the partials
   in degree t (a row per product m f_j, a column per monomial of degree
   t).  Its entries are rationals with denominators prime to p, and it
   has full column rank modulo p.  A minor that is nonzero modulo p is
   nonzero over Q: reduction modulo p cannot raise a rank.  So the matrix
   has full column rank over Q as well, J(f) contains every monomial of
   degree t, and J(f) is zero-dimensional.  The implication goes one way
   only: an unlucky prime can make the check fail, never pass falsely.
   The builder takes for h_i the element of the reduced basis of J(f) over
   Q that leads with x_i^(N_i), and forms its row over the partials modulo
   p from the recipes of that basis (groebner.GroebnerBasis.lift with a
   modulus).  The element is monic, so its image modulo p keeps that
   leading monomial.  It takes the largest prime below 2^31 that divides
   no denominator of f or of a multiplier its rows read.  The
   Milnor number is then prod(D / W_i - 1) (Milnor and Orlik 1970).
   Isolation of g = f(x(y)) follows through the invertible change.
1. The weighted cofactor identity (builder only).  Differentiating
   E_W(f) = D f gives sum_j W_j x_j f_kj = (D - W_k) f_k.  The 2x2
   alternation of the maximal minors of the Hessian with row 1 deleted
   then puts A_1i W_j x_j - A_1j W_i x_i in (f_2, ..., f_n)
   (minors.verify_cofactor_identity).  So d_i = A_1i E_W has its defects
   in the Jacobian ideal, and d_i(f) = D A_1i f preserves (f);
   derivations.symmetrize (the closed form of identity 2 of that module)
   and derivations.lift_to_diff2 turn this tuple into P.  Every defect
   cofactor vector has a_1 = 0, so symmetrization never moves the entry
   (1, 1), and the witness is d_1(y_1) = W_1 y_1 A_11 for the Hessian of g.
   The certificate records none of these intermediate tuples (the
   symmetrize CLI subcommand prints them).
2. P descends to A.  The certificate records the divided-power
   coefficients c_alpha of P and polynomials q_j.  The verifier extracts
   the tuple d_j(y_i) = c_(e_i + e_j) (derivations.theta2_extract) and
   checks P(g) = 0 and d_j(g) = q_j g for every j.  The Leibniz rule gives
   P(g h) = h P(g) + g (P(h) - c_0 h) + sum_j d_j(g) dh/dy_j, so P maps (g)
   into (g) and each d_j is a derivation of A.
   Der(A) for A = Q[x]/(f), f isolated quasi-homogeneous with n >= 3, is
   generated by E_W and the Hamiltonians D_kl = f_k d/dx_l - f_l d/dx_k.
   If delta(f) = q f then delta - (q/D) E_W annihilates f, so its images
   form a syzygy of f_1, ..., f_n.  These form a regular sequence
   (zero-dimensional Jacobian), so the syzygy is Koszul: a combination of
   Hamiltonians.
3. Every generator maps the slice coordinate y_1 into I = (y_1, g_2, ..., g_n):
   D_kl(y_1) is 0 or +-g_m with m >= 2, and E_W(y_1) = W_1 y_1 holds because
   the slice y_1 = sum a_i x_i mixes only variables of weight W_1.  (A slice
   that mixes weights has E_W(y_1) outside (y_1) in general.)  So every
   composition of two derivations has its d_1(y_1) entry in I^2.
   Derivations and operators on A are defined only modulo (g), so the
   obstruction must hold modulo (g): d_1(y_1) = c_(2 e_1) of P must lie
   outside S = I^2 + (g).  Let h = g(0, y_2, ..., y_n), in the variables
   y_2..y_n with weights W_2..W_n, and Hess(h) its Hessian determinant.
   The certificate records, in the format of point 0, a prime and rows
   over the partials of h whose combinations modulo the prime lead with a
   power of each of y_2, ..., y_n; so J(h) is zero-dimensional and h is
   isolated.  The verifier checks that every term of
   d_1(y_1) - W_1 y_1 Hess(h) has y_1-degree at least 2.  That
   difference lies in (y_1^2), inside I^2, so d_1(y_1) is outside S by the
   socle lemma.  If h is isolated, then W_1 y_1 Hess(h) is not in S.
   Proof.  Write R = Q[y] and a bar for images in R/I.  For i >= 2, g_i is
   dh/dy_i modulo y_1, so R/I = Q[y_2, ..., y_n]/J(h) = M_h, the Milnor
   algebra of h, which is finite.  So the n weighted homogeneous generators
   of I form a regular sequence, and I/I^2 is free over M_h with basis
   [y_1], [g_2], ..., [g_n].  Let k = dg/dy_1 at y_1 = 0; g has no term of
   degree below 2, so k-bar lies in the maximal ideal m of M_h.  The Euler
   relation D g = sum W_i y_i g_i puts g in I and gives
   [g] = (W_1/D) k-bar [y_1] + sum_(i >= 2) (W_i/D) y_i-bar [g_i].
   Suppose W_1 y_1 Hess(h) = q + r g with q in I^2.  In I/I^2 this reads
   W_1 Hess(h)-bar [y_1] = r-bar [g].  The [g_i] coordinates give
   r-bar y_i-bar = 0 for every i >= 2, so r-bar lies in the socle (0 : m)
   of M_h, and r-bar k-bar = 0.  The [y_1] coordinate then gives
   W_1 Hess(h)-bar = (W_1/D) r-bar k-bar = 0.  But Hess(h) spans the socle
   of M_h (Scheja and Storch 1975; Eisenbud and Levine 1977), so it is not
   zero there: a contradiction.
   The builder's witness W_1 y_1 A_11 (point 1) passes the check, since
   A_11, the Hessian minor of g without row and column 1, is Hess(h)
   modulo y_1; the slice search keeps the first slice with h isolated.
4. Rejections not_isolated and no_isolating_slice claim that a Jacobian
   ideal J = (h_1, ..., h_m) is positive-dimensional: that of f (m = n), or
   that of the restriction of f to x_1 = 0 (m = n - 1, weights W_2..W_n).
   Each h_i is zero or weighted homogeneous of degree D - W_i.  Were J
   zero-dimensional, h_1, ..., h_m would be a regular sequence (m
   generators in m variables), so the Hilbert series of Q[x]/J would be
   prod (1 - T^(D - W_i)) / (1 - T^(W_i)) (Stanley 1978): a polynomial of
   degree s = sum (D - 2 W_i), the sum over the m variables, and J would
   contain every monomial of weighted degree t > s.  The certificate
   records a nonzero functional lambda on the monomials of one weighted
   degree t > s; the verifier checks lambda(m h_i) = 0 for every i and
   every monomial m of the complementary degree (these m h_i span the
   degree-t part of J; lambda(m h_i) is trivially 0 unless m times a term
   of h_i lies in the support of lambda, so only those m are tried).  So J
   misses part of degree t and is positive-dimensional.  The builder takes
   the first variable x_i with no pure power among the leading monomials
   of the reduced basis of J and the least t = k W_i >= 0 above s; mu = x_i^k
   is then standard, and lambda(m) = coefficient of mu in NF(m).

The slice search.  Point 3 needs some slice y_1 = sum a_i x_i, mixing only
variables of weight W_1, whose h is isolated; which one does not matter.
Setting y_1 = 0 gives x_1 = -(a_2 y_2 + ... + a_n y_n) / a_1, so h depends
only on a / a_1, and a_1 = 1 loses nothing.  The search tries the no-op
slice a = (1, 0, ..., 0) first, then a = (1, v) with v an integer vector
on the m other variables of weight W_1, shell by shell of max-norm
b = 1, 2, ...; it keeps the first slice whose h is isolated.  The
coefficients of h are polynomials in v, and h fails to be isolated exactly
where its partials share a zero other than the origin, a Zariski-closed
condition on v.  So if some slice isolates, a nonzero polynomial R in v
vanishes wherever h is not isolated.  R cannot vanish on all of the grid
{-b, ..., b}^m once 2b + 1 exceeds its degree (Schwartz 1980; Zippel 1979),
and the shells up to b cover that grid, so the search reaches an isolating
slice; MAX_SLICE_ATTEMPTS is its only limit.  When the no-op slice fails and
no other variable shares the weight of x_1, no admissible slice exists and
the input is rejected with the reason no_isolating_slice.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub
from typing import Sequence

from .derivations import (
    Derivation1,
    DiffOp2,
    build_candidate_tuple,
    candidate_defect_cofactors,
    lift_to_diff2,
    symmetrize,
    theta2_extract,
)
from .exprio import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    CertificateError,
    _power_too_large,
    format_fraction,
    format_poly,
    parse_fraction,
    parse_poly,
)
from .groebner import (
    GREVLEX,
    GroebnerBasis,
    Ideal,
    InternalInconsistencyError,
    MonomialOrder,
    ResourceLimitExceeded,
    buchberger,
    jacobian_ideal,
)
from .minors import MAX_DETERMINANT_DIM, PolyMatrix, algebraic_cofactor, determinant, hessian
from .poly import Exponent, LinearChange, Polynomial, is_prime, monomials_of_degree, quasi_homogeneous_weights

logger = logging.getLogger(__name__)

WITNESS_FOUND = "WITNESS_FOUND"
INPUT_REJECTED = "INPUT_REJECTED"
RESOURCE_EXHAUSTED = "RESOURCE_EXHAUSTED"


# slices the search tries, the no-op slice included, before it gives up
MAX_SLICE_ATTEMPTS = 200

@dataclass(frozen=True)
class PipelineConfig:
    """The S-pair cap of the Groebner basis computations; their term cap is
    groebner.DEFAULT_MAX_TERMS."""

    max_pairs: int = 100_000

    def caps(self) -> dict:
        return {"max_pairs": self.max_pairs}


@dataclass(frozen=True)
class WitnessCertificate:
    """A replayable record of one pipeline run; wraps the JSON document."""

    document: dict

    @property
    def verdict(self) -> str:
        return self.document["verdict"]


@dataclass(frozen=True)
class SliceChoice:
    coefficients: tuple[Fraction, ...]
    change: LinearChange
    g: Polynomial  # f(x(y))
    gb: GroebnerBasis  # basis of J(h), h = g restricted to y_1 = 0; its records lift from it
    attempts: int


@dataclass(frozen=True)
class SaitoReport:
    """Jacobian determinant of a zero-dimensional system and its (non-)membership."""

    jac_det: Polynomial
    member: bool
    normal_form: Polynomial
    gb: GroebnerBasis


def slice_change(coefficients: Sequence[Fraction], n: int) -> LinearChange:
    """The substitution for y1 = a1 x1 + ... + an xn, y_i = x_i otherwise.

    Inverting gives x1 = (y1 - a2 y2 - ... - an yn) / a1, so the matrix row
    for x1 is (1/a1, -a2/a1, ..., -an/a1) and the other rows are identity.
    """
    a = [Fraction(c) for c in coefficients]
    if len(a) != n:
        raise ValueError(f"{len(a)} slice coefficients for {n} variables")
    if a[0] == 0:
        raise ValueError("the first slice coefficient must be nonzero")
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[0][0] = Fraction(1) / a[0]
    for j in range(1, n):
        rows[0][j] = -a[j] / a[0]
        rows[j][j] = Fraction(1)
    return LinearChange(tuple(tuple(r) for r in rows))


def substitute_slice(change: LinearChange, f: Polynomial) -> Polynomial:
    """g = f(x(y)) for a slice change; raises ResourceLimitExceeded, before
    expanding anything, when a row of two or more terms is raised to a power
    that the parser would refuse to expand (exprio._power_too_large)."""
    for i, row in enumerate(change.matrix):
        k = max((e[i] for e in f.terms), default=0)
        if _power_too_large(sum(1 for c in row if c), k):
            raise ResourceLimitExceeded(f"power {k} of slice row {i + 1} is too large to expand")
    return change.apply(f)


def restrict_to_hyperplane(p: Polynomial) -> Polynomial:
    """p with the first variable set to zero, re-read in the remaining n-1."""
    out = {}
    for exp, coeff in p.terms.items():
        if exp[0] == 0:
            out[exp[1:]] = coeff
    return Polynomial(p.n - 1, out)


class NoIsolatingSlice(Exception):
    """The no-op slice fails and no other variable shares the weight of x_1,
    so no admissible slice exists; ``gb`` is the failed restriction's
    Jacobian basis."""

    def __init__(self, gb: GroebnerBasis):
        super().__init__("no admissible slice isolates the singularity")
        self.gb = gb


def _slice_candidates(weights: Sequence[int]):
    """The slice coefficients the search tries, in order (see the module
    docstring): the no-op slice, then a = (1, v) with v on the variables of
    the weight of x_1, shell by shell of max-norm b = 1, 2, ..., each shell
    by growing sum of |v_i|, then lexicographically."""
    n = len(weights)
    same = [i for i in range(1, n) if weights[i] == weights[0]]
    yield (Fraction(1),) + (Fraction(0),) * (n - 1)
    if not same:
        return
    for b in itertools.count(1):
        shell = [v for v in itertools.product(range(-b, b + 1), repeat=len(same)) if max(map(abs, v)) == b]
        for v in sorted(shell, key=lambda v: sum(map(abs, v))):
            a = [Fraction(1)] + [Fraction(0)] * (n - 1)
            for i, c in zip(same, v):
                a[i] = Fraction(c)
            yield tuple(a)


def generic_slice_search(f: Polynomial, cfg: PipelineConfig | None = None) -> SliceChoice:
    """Find slice coefficients making the restriction an isolated singularity.

    Tries the candidates of _slice_candidates in order and keeps the first
    whose restriction h = g(0, y_2, ..., y_n) has a zero-dimensional
    Jacobian ideal.  Reaching MAX_SLICE_ATTEMPTS, or a slice too large to
    substitute (substitute_slice), raises ResourceLimitExceeded, whose
    ``attempts`` is the number of slices tried; a failed no-op slice with no
    variable sharing the weight of x_1 raises NoIsolatingSlice.
    """
    cfg = cfg or PipelineConfig()
    n = f.n
    if n < 3:
        raise ValueError("slice search requires at least three variables")
    found = quasi_homogeneous_weights(f)
    if found is None:
        raise ValueError("slice search requires a quasi-homogeneous polynomial")
    attempts = 0
    try:
        for coeffs in _slice_candidates(found[0]):
            if attempts >= MAX_SLICE_ATTEMPTS:
                raise ResourceLimitExceeded(f"no isolating slice found within {MAX_SLICE_ATTEMPTS} attempts")
            attempts += 1
            change = slice_change(coeffs, n)
            g = substitute_slice(change, f)
            gb = buchberger(jacobian_ideal(restrict_to_hyperplane(g)), GREVLEX, **cfg.caps())
            if gb.is_zero_dimensional():
                logger.info("slice found after %d attempts: %s", attempts, coeffs)
                return SliceChoice(coeffs, change, g, gb, attempts)
    except ResourceLimitExceeded as exc:
        exc.attempts = attempts  # the slices tried, the one that hit the limit included
        raise
    raise NoIsolatingSlice(gb)


def jacobian_matrix(gens: Sequence[Polynomial]) -> PolyMatrix:
    n = gens[0].n
    if len(gens) != n:
        raise ValueError(f"need {n} polynomials in {n} variables, got {len(gens)}")
    return PolyMatrix([[g.partial(j) for j in range(1, n + 1)] for g in gens], nvars=n)


def saito_check(
    gens: Sequence[Polynomial],
    order: MonomialOrder = GREVLEX,
    gb: GroebnerBasis | None = None,
    **caps,
) -> SaitoReport:
    """Determinant of the Jacobian of a zero-dimensional system is never a member.

    The precondition (Artinian quotient) is checked; a membership verdict of
    True is a theorem violation and raises InternalInconsistencyError.
    """
    gens = tuple(gens)
    if gb is None:
        gb = buchberger(Ideal(gens), order, **caps)
    if not gb.is_zero_dimensional():
        raise ValueError("the system is not zero-dimensional; the criterion does not apply")
    det = determinant(jacobian_matrix(gens))
    nf = gb.normal_form(det)
    member = nf.is_zero()
    if member:
        raise InternalInconsistencyError(
            "Jacobian determinant of an Artinian system reduced to zero; engine bug"
        )
    return SaitoReport(det, member, nf, gb)


def milnor_number(weights: Sequence[int], degree: int) -> Fraction:
    """prod(D / W_i - 1), the Milnor number of an isolated quasi-homogeneous
    singularity (Milnor and Orlik 1970)."""
    return math.prod(Fraction(degree, w) - 1 for w in weights)


def _top_degree(weights: Sequence[int], degree: int) -> int:
    """s = sum(D - 2 W_i): the degree of the Hilbert series of the quotient
    by a zero-dimensional Jacobian ideal (point 4 of the module docstring)."""
    return sum(degree - 2 * w for w in weights)


# -- certificate assembly -------------------------------------------------


def _new_variables(n: int) -> list[str]:
    return [f"y{i}" for i in range(1, n + 1)]


def _isolation_record(f: Polynomial, gb: GroebnerBasis, variables: Sequence[str]) -> dict:
    """Point 0 of the module docstring for gb, the reduced basis of J(f):
    for each variable x_i, the row over the partials of f of the basis
    element that leads with a power of x_i (its lift, since it divides by
    the monic basis with quotient e_k and remainder 0), formed modulo the
    largest prime below 2^31 that divides no denominator of f or of a
    multiplier the rows read."""
    leading = gb.leading_monomials()
    elements = [gb.basis[next(k for k, lm in enumerate(leading) if sum(lm) == lm[i] > 0)] for i in range(gb.n)]
    p = (1 << 31) - 1
    while True:
        try:
            f.mod(p)
            rows = [gb.lift(b, p) for b in elements]
            break
        except ZeroDivisionError:
            # the next prime down; only finitely many divide a denominator
            p -= 2
            while not is_prime(p):
                p -= 2
    return {"prime": p, "cofactors": [[format_poly(c, variables, gb.order) for c in row] for row in rows]}


def dual_functional(gb: GroebnerBasis, mu: Exponent, monomials: Sequence[Exponent]) -> dict[Exponent, Fraction]:
    """lambda(m) = coefficient of the standard monomial mu in NF(m), for each
    given monomial m; zero values are left out.  The normal form is linear
    and vanishes on the ideal, so lambda does too.

    The monomials must be all those of one weighted degree, and the basis
    weighted homogeneous.  One pass in ascending order: a standard m has
    lambda(m) = 1 if m = mu, else 0.  Otherwise take the first basis element
    b whose leading term c_lm x^lm divides m; NF(m) = NF(m - x^(m-lm) b / c_lm),
    so lambda(m) = -(1/c_lm) sum c_t lambda(x^t x^(m-lm)) over the other terms
    c_t x^t of b, each at a smaller monomial of the same degree.
    """
    order = gb.order
    leading = [order.leading_term(b) for b in gb.basis]
    values: dict[Exponent, Fraction] = {}
    for m in sorted(monomials, key=order.key):
        k = next((k for k, (lm, _) in enumerate(leading) if all(map(le, lm, m))), None)
        if k is None:
            values[m] = Fraction(m == mu)
            continue
        lm, lc = leading[k]
        shift = tuple(map(sub, m, lm))
        total = Fraction(0)
        for t, c in gb.basis[k].terms.items():
            if t != lm:
                v = values[tuple(map(add, t, shift))]
                if v:
                    total += c * v
        values[m] = -total / lc
    return {m: v for m, v in values.items() if v}


def _functional_entries(functional: dict[Exponent, Fraction], order: MonomialOrder) -> list[dict]:
    return [
        {"monomial": list(m), "value": format_fraction(c)}
        for m, c in sorted(functional.items(), key=lambda t: order.key(t[0]), reverse=True)
    ]


def _positive_dimension_record(gb: GroebnerBasis, weights: Sequence[int], degree: int) -> dict:
    """Point 4 of the module docstring: the functional of the standard
    monomial mu = x_i^k, x_i the first variable with no pure power among the
    leading monomials of gb, on the least weighted degree k W_i above s."""
    leading = gb.leading_monomials()
    i = next(i for i in range(gb.n) if all(sum(lm) != lm[i] for lm in leading))
    # s can be negative (x*w + y*w + z*w + w^10 has s = -16): then t = 0, mu = 1
    k = max(_top_degree(weights, degree) // weights[i] + 1, 0)
    mu = tuple(k if j == i else 0 for j in range(gb.n))
    functional = dual_functional(gb, mu, monomials_of_degree(gb.n, k * weights[i], weights))
    return {"degree": k * weights[i], "functional": _functional_entries(functional, gb.order)}


def _empty_document(f_text: str, variables: Sequence[str]) -> dict:
    return {
        "schema": {"name": SCHEMA_NAME, "version": SCHEMA_VERSION},
        "input": {"polynomial": f_text, "variables": list(variables)},
        "change_of_coordinates": None,
        "lifted_operator": None,
        "membership_tests": {},
        "verdict": None,
    }


def build_witness(
    f: Polynomial,
    variables: Sequence[str],
    cfg: PipelineConfig | None = None,
) -> WitnessCertificate:
    """Run the full construction and return a replayable certificate."""
    cfg = cfg or PipelineConfig()
    doc = _empty_document(format_poly(f, variables), variables)
    info = doc["input"]
    section = doc["membership_tests"]

    def rejected(reason: str, message: str) -> WitnessCertificate:
        info["rejection"] = {"reason": reason, "message": message}
        doc["verdict"] = INPUT_REJECTED
        logger.info("input rejected (%s): %s", reason, message)
        return WitnessCertificate(doc)

    if f.is_zero():
        return rejected("zero_polynomial", "the zero polynomial does not define a hypersurface")
    found = quasi_homogeneous_weights(f)
    info["homogeneous"] = f.is_homogeneous()
    if found is None:
        return rejected(
            "not_homogeneous",
            "input polynomial is not quasi-homogeneous: no unique positive weight vector",
        )
    weights, degree = found
    info["weights"] = list(weights)
    info["degree"] = degree
    info["variable_count"] = f.n
    if f.min_degree() < 2:
        return rejected(
            "degree_too_small", f"a degree-{f.min_degree()} term makes the input smooth at the origin"
        )
    if f.n < 3:
        return rejected(
            "too_few_variables",
            f"{f.n}-variable input is outside this construction; two variables are settled classically",
        )
    if f.n > MAX_DETERMINANT_DIM:
        return rejected(
            "dimension_cap",
            f"{f.n} variables exceed the configured determinant dimension cap of {MAX_DETERMINANT_DIM}",
        )

    gb_input = buchberger(jacobian_ideal(f), GREVLEX, **cfg.caps())
    if not gb_input.is_zero_dimensional():
        info["isolated"] = False
        section["positive_dimension"] = {"input_jacobian": _positive_dimension_record(gb_input, weights, degree)}
        return rejected("not_isolated", "the Jacobian ideal is not zero-dimensional")
    info["isolated"] = True
    info["milnor_number"] = int(milnor_number(weights, degree))

    try:
        chosen = generic_slice_search(f, cfg)
    except NoIsolatingSlice as exc:
        section["positive_dimension"] = {
            "slice_jacobian": _positive_dimension_record(exc.gb, weights[1:], degree)
        }
        return rejected(
            "no_isolating_slice",
            f"the restriction to {variables[0]} = 0 is not an isolated singularity and no other "
            f"variable has the weight {weights[0]} of {variables[0]}, so no admissible slice exists",
        )
    except ResourceLimitExceeded as exc:
        doc["change_of_coordinates"] = {"attempts": exc.attempts, "exhausted": True}
        doc["verdict"] = RESOURCE_EXHAUSTED
        info["resource_error"] = str(exc)
        return WitnessCertificate(doc)
    section["isolation"] = _isolation_record(f, gb_input, variables)

    n = f.n
    yvars = _new_variables(n)
    g = chosen.g
    doc["change_of_coordinates"] = {
        "slice_coefficients": [format_fraction(c) for c in chosen.coefficients],
        "new_variables": yvars,
        "transformed_polynomial": format_poly(g, yvars),
        "attempts": chosen.attempts,
    }

    # point 1 of the module docstring: the candidate, its closed-form defect
    # cofactors and symmetrize only construct P; none of them is recorded
    candidate = build_candidate_tuple(g, check_isolated=False, weights=weights)
    symmetric, _ = symmetrize(candidate, candidate_defect_cofactors(g, weights))
    lifted = lift_to_diff2(symmetric)
    # E_W scales g by D and Hamiltonians annihilate it, so each symmetric
    # d_i scales g by D * A_1i
    hess = hessian(g)
    doc["lifted_operator"] = {
        "coefficients": [
            {"index": list(alpha), "value": format_poly(c, yvars)}
            for alpha, c in sorted(lifted.coeffs.items())
        ],
        "scales_f_by": [format_poly(algebraic_cofactor(hess, 1, i).scale(degree), yvars) for i in range(1, n + 1)],
    }

    # point 3: h = g(0, y_2, ..., y_n) is isolated, which puts the witness
    # d_1(y_1) = W_1 y_1 A_11 outside S
    section["obstruction"] = {
        "restriction_isolation": _isolation_record(restrict_to_hyperplane(g), chosen.gb, yvars[1:])
    }
    doc["verdict"] = WITNESS_FOUND
    return WitnessCertificate(doc)


# -- certificate verification ---------------------------------------------


def verify_certificate(cert: WitnessCertificate | dict) -> bool:
    """Recompute every certificate claim from its own data; no search, no
    basis computation.  Returns True iff everything replays."""
    failures = certificate_failures(cert)
    for failure in failures:
        logger.info("certificate verification failure: %s", failure)
    return not failures


def certificate_failures(cert: WitnessCertificate | dict) -> list[str]:
    """All verification failures (empty list means the certificate is valid).

    A document without the top-level keys raises CertificateError; data
    of any other wrong shape, type or size is a failure, never a crash.
    """
    doc = cert.document if isinstance(cert, WitnessCertificate) else cert
    missing = [k for k in ("schema", "input", "verdict") if k not in doc]
    if missing:
        raise CertificateError(f"certificate missing required keys: {missing}")
    verdict = doc["verdict"]
    try:
        if verdict == RESOURCE_EXHAUSTED:
            return _verify_exhausted(doc)
        if verdict == INPUT_REJECTED:
            return _verify_rejected(doc)
        if verdict == WITNESS_FOUND:
            return _verify_witness(doc)
    except CertificateError:
        raise
    except (ValueError, LookupError, TypeError, AttributeError, ArithmeticError, RuntimeError) as exc:
        # corrupted data (RuntimeError covers a runaway replay hitting a
        # resource cap and recursion on deep nesting): invalid, not a crash
        return [f"certificate data does not replay: {exc}"]
    return [f"unknown verdict {verdict!r}"]


def _verify_exhausted(doc: dict) -> list[str]:
    failures: list[str] = []
    change = doc.get("change_of_coordinates") or {}
    if not change.get("exhausted"):
        failures.append("RESOURCE_EXHAUSTED certificate without an exhaustion record")
    return failures


def _check_positive_dimension(doc: dict, key: str, partials: list[Polynomial], weights, degree: int) -> list[str]:
    """Point 4 of the module docstring: a nonzero functional on a weighted
    degree t > s that vanishes on every multiple of every partial."""
    record = doc["membership_tests"].get("positive_dimension", {}).get(key)
    if record is None:
        return [f"rejection without the positive-dimension record {key!r}"]
    s = _top_degree(weights, degree)
    t = record["degree"]
    if type(t) is not int or t <= s:
        return [f"{key}: recorded degree {t!r} is not an integer above s = {s}"]
    functional = _parse_functional(record["functional"], len(weights), t, weights)
    failures = [] if any(functional.values()) else [f"{key}: the functional is zero"]
    return failures + [f"{key}: {msg}" for msg in _vanishing_failures(functional, partials)]


def _verify_rejected(doc: dict) -> list[str]:
    failures: list[str] = []
    info = doc["input"]
    rejection = info.get("rejection") or {}
    reason = rejection.get("reason")
    variables = info["variables"]
    try:
        f = parse_poly(info["polynomial"], variables)
    except ValueError as exc:
        return [f"input polynomial does not parse: {exc}"]
    if reason == "zero_polynomial":
        if not f.is_zero():
            failures.append("rejection says zero polynomial but the input is nonzero")
        return failures
    if f.is_zero():
        return ["input is zero but the rejection reason disagrees"]
    found = quasi_homogeneous_weights(f)
    if reason == "not_homogeneous":
        if found is not None:
            failures.append("rejection says no unique positive weight vector but the input has one")
        return failures
    if found is None:
        return ["input has no unique positive weight vector but the rejection reason disagrees"]
    weights, degree = found
    if reason == "degree_too_small":
        if f.min_degree() >= 2:
            failures.append("rejection says degree too small but every term has degree at least 2")
        return failures
    if reason == "too_few_variables":
        if f.n >= 3:
            failures.append("rejection says too few variables but there are at least 3")
        return failures
    if reason == "dimension_cap":
        if f.n <= MAX_DETERMINANT_DIM:
            failures.append("rejection cites the dimension cap but the input fits it")
        return failures
    if reason == "not_isolated":
        return _check_positive_dimension(
            doc, "input_jacobian", [f.partial(i) for i in range(1, f.n + 1)], weights, degree
        )
    if reason == "no_isolating_slice":
        if any(w == weights[0] for w in weights[1:]):
            failures.append("another variable shares the weight of the first; other slices are admissible")
        restriction = restrict_to_hyperplane(f)
        return failures + _check_positive_dimension(
            doc, "slice_jacobian", [restriction.partial(i) for i in range(1, f.n)], weights[1:], degree
        )
    return [f"unknown rejection reason {reason!r}"]


def _check_isolation(record: dict, f: Polynomial, variables, label: str, failures: list[str]) -> None:
    """Point 0 of the module docstring: a prime p that divides no
    denominator of f, and for each variable x_i a row c_i over the partials
    of f, with integer coefficients in [0, p), such that
    h_i = sum_j c_ij df/dx_j mod p leads with a power of x_i."""
    p = record["prime"]
    if type(p) is not int or not 2 < p < 1 << 64 or not is_prime(p):
        failures.append(f"{label}: {p!r} is not a prime between 2 and 2^64")
        return
    try:
        f_p = f.mod(p)
    except ZeroDivisionError:
        failures.append(f"{label}: the prime {p} divides a denominator of the polynomial")
        return
    rows = record["cofactors"]
    if not isinstance(rows, list) or len(rows) != f.n:
        failures.append(f"{label}: the record does not hold one row for each of the {f.n} variables")
        return
    for i, row in enumerate(rows):
        entries = [parse_poly(s, variables) for s in row] if isinstance(row, list) else []
        if len(entries) != f.n or any(
            d != 1 or not 0 <= a < p for e in entries for a, d in map(Fraction.as_integer_ratio, e.terms.values())
        ):
            failures.append(f"{label}: row {i + 1} is not {f.n} entries with integer coefficients in [0, {p})")
            continue
        # h_i has integer coefficients; its leading monomial modulo p is the
        # largest one whose coefficient p does not divide
        h = Derivation1(tuple(entries)).apply(f_p)
        lm = min((e for e, c in h.terms.items() if c.numerator % p), key=GREVLEX.descending_key, default=None)
        if lm is None or not sum(lm) == lm[i] > 0:
            failures.append(f"{label}: row {i + 1} does not lead with a power of {variables[i]} modulo {p}")


def _parse_functional(entries, n: int, delta: int, weights) -> dict[Exponent, Fraction]:
    """The recorded dual vector as a map; every key is an exponent vector
    of length n, no negative entry and weighted degree delta."""
    out: dict[Exponent, Fraction] = {}
    for entry in entries:
        exp = entry["monomial"]
        if (
            not isinstance(exp, list) or len(exp) != n
            or any(type(e) is not int or e < 0 for e in exp)
            or sum(w * e for w, e in zip(weights, exp)) != delta
        ):
            raise ValueError(f"functional monomial {exp!r} is not an exponent vector of weighted degree {delta}")
        if tuple(exp) in out:
            raise ValueError(f"functional monomial {exp!r} is repeated")
        out[tuple(exp)] = parse_fraction(entry["value"])
    return out


def _apply(functional: dict[Exponent, Fraction], p: Polynomial, shift: Exponent | None = None) -> Fraction:
    """lambda(x^shift * p): one dot product over the terms of p."""
    total = Fraction(0)
    for e, c in p.terms.items():
        if shift is not None:
            e = tuple(map(add, e, shift))
        v = functional.get(e)
        if v:
            total += c * v
    return total


def _vanishing_failures(functional: dict[Exponent, Fraction], gens: Sequence[Polynomial]) -> list[str]:
    """lambda(m s) = 0 for every generator s and every monomial m of the
    complementary weighted degree; at most one failure per generator.

    lambda(m s) is 0 unless some m t, t a term of s, is in the support of
    lambda: only those m need a dot product, and there are at most
    len(functional) * len(s) of them, whatever the degree is.
    """
    failures = []
    for k, s in enumerate(gens):
        shifts = {tuple(map(sub, e, t)) for e in functional for t in s.terms}
        for m in sorted(shifts):
            if min(m) >= 0 and _apply(functional, s, m):
                failures.append(f"the functional does not vanish on monomial {list(m)} times generator {k}")
                break
    return failures


def _check_obstruction(record: dict, g: Polynomial, witness: Polynomial, w1: int, yvars,
                       failures: list[str]) -> None:
    """Point 3 of the module docstring: h = g(0, y_2, ..., y_n) is isolated,
    and the witness is W_1 y_1 Hess(h) modulo y_1^2."""
    if "restriction_isolation" not in record:
        failures.append("obstruction: no restriction_isolation record for g(0, y2, ..., yn)")
        return
    h = restrict_to_hyperplane(g)
    _check_isolation(record["restriction_isolation"], h, yvars[1:], "restriction isolation", failures)
    hess = determinant(jacobian_matrix([h.partial(i) for i in range(1, h.n + 1)]))
    # W_1 y_1 Hess(h), read in the n variables y_1..y_n
    target = Polynomial(g.n, {(1,) + e: w1 * c for e, c in hess.terms.items()})
    if any(e[0] < 2 for e in (witness - target).terms):
        failures.append("obstruction: d1(y1) is not W_1 y1 Hess(h) modulo y1^2")


def _verify_witness(doc: dict) -> list[str]:
    failures: list[str] = []
    missing = [k for k in ("change_of_coordinates", "lifted_operator", "membership_tests") if not doc.get(k)]
    if missing:
        return [f"witness verdict without the supporting sections: {missing}"]
    info = doc["input"]
    variables = info["variables"]
    f = parse_poly(info["polynomial"], variables)
    found = None if f.is_zero() else quasi_homogeneous_weights(f)
    if found is None or f.min_degree() < 2 or f.n < 3:
        failures.append("input gates (quasi-homogeneous, no term of degree below 2, n >= 3) do not hold")
        return failures
    weights, degree = found
    n = f.n
    if info.get("degree") != degree or info.get("variable_count") != n:
        failures.append("recorded degree or variable count is wrong")
    if info.get("weights") != list(weights):
        failures.append("recorded weights are not the unique weights of the input")
    section = doc["membership_tests"]
    _check_isolation(section["isolation"], f, variables, "isolation", failures)
    if info.get("homogeneous") is not f.is_homogeneous() or info.get("isolated") is not True:
        failures.append("input flags must record the homogeneity of an isolated singularity")
    if info.get("milnor_number") != milnor_number(weights, degree):
        failures.append("recorded Milnor number is not prod(D / W_i - 1)")

    change_doc = doc["change_of_coordinates"]
    yvars = change_doc["new_variables"]
    coeffs = [parse_fraction(s) for s in change_doc["slice_coefficients"]]
    try:
        change = slice_change(coeffs, n)
    except ValueError as exc:
        return failures + [f"slice coefficients invalid: {exc}"]
    if any(a and w != weights[0] for a, w in zip(coeffs, weights)):
        failures.append("slice mixes variables of different weight")
    g = substitute_slice(change, f)
    if parse_poly(change_doc["transformed_polynomial"], yvars) != g:
        failures.append("transformed polynomial does not match the substitution")

    # point 2 of the module docstring: P(g) = 0 and d_j(g) = q_j g for the
    # tuple extracted from P
    op_doc = doc["lifted_operator"]
    op = DiffOp2(n, {
        tuple(entry["index"]): parse_poly(entry["value"], yvars)
        for entry in op_doc["coefficients"]
    })
    extracted = theta2_extract(op, g)
    scales = [parse_poly(q, yvars) for q in op_doc["scales_f_by"]]
    if len(scales) != n:
        failures.append(f"lifted operator records {len(scales)} scales for {n} derivations")
    for j, (d, q) in enumerate(zip(extracted.ders, scales), 1):
        if d.apply(g) != q * g:
            failures.append(f"extracted derivation {j} does not scale g by the recorded factor")
    if not op.apply(g).is_zero():
        failures.append("lifted operator does not annihilate the transformed polynomial")

    _check_obstruction(section["obstruction"], g, extracted.entry(1, 1), weights[0], yvars, failures)
    return failures
