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

The gate.  Every certificate begins with input_gate, the one place that
decides the five input reasons: f is nonzero, has unique weights, has no
term of degree below 2 (so it is singular at the origin) and has
3 <= n <= MAX_DETERMINANT_DIM variables.  The builder records its input
facts (homogeneous, weights, degree, variable_count) and rejects with the
first gate f fails.  The verifier recomputes it for every verdict: it
compares each recorded fact with the recomputed one, accepts a rejection
for a gate reason only if that is the first gate f fails, and requires
every other verdict to pass every gate.  Once it accepts a verdict, the
recorded isolated flag and Milnor number (neither for a gate rejection)
and a rejection's message must be the ones the builder writes.  Every
certificate that records isolated true (a witness, a no_isolating_slice
rejection, RESOURCE_EXHAUSTED) holds the isolation record of point 0,
written once the builder knows f is isolated and checked once by the
verifier for each of them.

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
   The builder decides isolation modulo a prime first
   (groebner.decide_isolation, the one decision of the package).  It takes
   the largest prime p below 2^31 that divides no denominator of f and
   computes the reduced basis of J_p (groebner.buchberger with a
   modulus).  If every variable has a pure power among its leading
   monomials, h_i is the element that leads with x_i^(N_i), and its row
   over the partials is formed modulo p from the recipes of that basis
   (groebner.GroebnerBasis.lift).  Otherwise point 4 decides; when J(f)
   is zero-dimensional over Q after all, p was unlucky and the next prime
   down is tried.  Only finitely many primes are unlucky: those that
   divide a nonzero Macaulay minor.  The Milnor number is then
   prod(D / W_i - 1) (Milnor and Orlik 1970).
   Isolation of g = f(x(y)) follows through the invertible change.  The
   certificate records neither g nor the names y_1, ..., y_n of the new
   variables: the verifier recomputes g from f and the slice coefficients
   (substitute_slice) and names the variables itself (_new_variables).
1. The weighted cofactor identity (builder only).  Differentiating
   E_W(f) = D f gives sum_j W_j x_j f_kj = (D - W_k) f_k.  The 2x2
   alternation of the maximal minors of the Hessian with row 1 deleted
   then puts A_1i W_j x_j - A_1j W_i x_i in (f_2, ..., f_n)
   (minors.verify_cofactor_identity).  So d_i = A_1i E_W has its defects
   in the Jacobian ideal, and d_i(f) = D A_1i f preserves (f);
   derivations.symmetrize (the closed form of identity 2 of that module)
   and derivations.lift_to_diff2 turn this tuple into P.  The builder
   reads the candidate, its defect cofactors -(D - W_l) A_[l,i,1,k] and
   its scales q_i = D A_1i from one Hessian of g and its one table of
   minors (derivations.build_candidate_tuple), and hands the q_i to the
   lift, which checks them by multiplication.  Every defect
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
   of the reduced basis of J_p, for the prime p of point 0, and the least
   t = k W_i >= 0 above s; mu = x_i^k is then standard, and lambda(m) =
   coefficient of mu in NF(m), modulo p (groebner.decide_isolation).  It
   rationally reconstructs each value (Wang 1981) and records the result
   only if it is nonzero and vanishes as the verifier checks, over Q
   (poly._vanishing_failures).  A functional modulo p alone
   proves only that J_p is positive-dimensional, and the rank of a
   Macaulay matrix can rise from F_p to Q.  If the check fails, the same
   construction on the reduced basis of J over Q decides.

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
the input is rejected with the reason no_isolating_slice.  A certificate
records how many slices the search tried (attempts, at most
MAX_SLICE_ATTEMPTS); in a witness the recorded slice must be that
candidate of the enumeration.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .derivations import (
    Derivation1,
    DiffOp2,
    build_candidate_tuple,
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
    ResourceLimitExceeded,
    buchberger,
    decide_isolation,
)
from .minors import MAX_DETERMINANT_DIM, PolyMatrix, determinant
from .poly import (
    Exponent,
    Polynomial,
    _top_degree,
    _vanishing_failures,
    is_prime,
    quasi_homogeneous_weights,
)

logger = logging.getLogger(__name__)

WITNESS_FOUND = "WITNESS_FOUND"
INPUT_REJECTED = "INPUT_REJECTED"
RESOURCE_EXHAUSTED = "RESOURCE_EXHAUSTED"


# slices the search tries, the no-op slice included, before it gives up
MAX_SLICE_ATTEMPTS = 200


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
    g: Polynomial  # f(x(y))
    gb: GroebnerBasis  # J(h) mod a prime (groebner.decide_isolation), h = g at y_1 = 0; its record lifts from it
    attempts: int


@dataclass(frozen=True)
class SaitoReport:
    """Jacobian determinant of a zero-dimensional system and its (non-)membership."""

    jac_det: Polynomial
    member: bool
    normal_form: Polynomial
    gb: GroebnerBasis


def slice_images(coefficients: Sequence[Fraction], n: int) -> list[Polynomial]:
    """The images of x_1, ..., x_n for the slice y1 = a1 x1 + ... + an xn,
    y_i = x_i otherwise: inverting gives x1 = (y1 - a2 y2 - ... - an yn) / a1."""
    a = [Fraction(c) for c in coefficients]
    if len(a) != n:
        raise ValueError(f"{len(a)} slice coefficients for {n} variables")
    if a[0] == 0:
        raise ValueError("the first slice coefficient must be nonzero")
    eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    first = Polynomial(n, {e: (1 if j == 0 else -a[j]) / a[0] for j, e in enumerate(eye)})
    return [first] + [Polynomial.monomial(n, e) for e in eye[1:]]


def substitute_slice(images: Sequence[Polynomial], f: Polynomial) -> Polynomial:
    """g = f(x(y)) for slice images; raises ResourceLimitExceeded, before
    expanding anything, when an image of two or more terms is raised to a
    power that the parser would refuse to expand (exprio._power_too_large)."""
    for i, image in enumerate(images):
        k = max((e[i] for e in f.terms), default=0)
        if _power_too_large(len(image.terms), k):
            raise ResourceLimitExceeded(f"power {k} of slice row {i + 1} is too large to expand")
    return f.substitute_variables(images)


def restrict_to_hyperplane(p: Polynomial) -> Polynomial:
    """p with the first variable set to zero, re-read in the remaining n-1."""
    out = {}
    for exp, coeff in p.terms.items():
        if exp[0] == 0:
            out[exp[1:]] = coeff
    return Polynomial(p.n - 1, out)


class NoIsolatingSlice(Exception):
    """The no-op slice fails and no other variable shares the weight of x_1,
    so no admissible slice exists; ``record`` is the positive-dimension
    record of the failed restriction's Jacobian ideal (groebner.decide_isolation)."""

    def __init__(self, record: dict):
        super().__init__("no admissible slice isolates the singularity")
        self.record = record


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


def generic_slice_search(f: Polynomial) -> SliceChoice:
    """Find slice coefficients making the restriction an isolated singularity.

    Tries the candidates of _slice_candidates in order and keeps the first
    whose restriction h = g(0, y_2, ..., y_n) has a zero-dimensional
    Jacobian ideal.  Reaching MAX_SLICE_ATTEMPTS, or a slice too large to
    substitute (substitute_slice), raises ResourceLimitExceeded, whose
    ``attempts`` is the number of slices tried; a failed no-op slice with no
    variable sharing the weight of x_1 raises NoIsolatingSlice.
    """
    n = f.n
    if n < 3:
        raise ValueError("slice search requires at least three variables")
    found = quasi_homogeneous_weights(f)
    if found is None:
        raise ValueError("slice search requires a quasi-homogeneous polynomial")
    weights, degree = found
    attempts = 0
    try:
        for coeffs in _slice_candidates(weights):
            if attempts >= MAX_SLICE_ATTEMPTS:
                raise ResourceLimitExceeded(f"no isolating slice found within {MAX_SLICE_ATTEMPTS} attempts")
            attempts += 1
            g = substitute_slice(slice_images(coeffs, n), f)
            gb, rejection = decide_isolation(restrict_to_hyperplane(g), weights[1:], degree)
            if rejection is None:
                logger.info("slice found after %d attempts: %s", attempts, coeffs)
                return SliceChoice(coeffs, g, gb, attempts)
    except ResourceLimitExceeded as exc:
        exc.attempts = attempts  # the slices tried, the one that hit the limit included
        raise
    raise NoIsolatingSlice(_positive_dimension_record(*rejection))


def jacobian_matrix(gens: Sequence[Polynomial]) -> PolyMatrix:
    n = gens[0].n
    if len(gens) != n:
        raise ValueError(f"need {n} polynomials in {n} variables, got {len(gens)}")
    return PolyMatrix([[g.partial(j) for j in range(1, n + 1)] for g in gens], nvars=n)


def saito_check(gens: Sequence[Polynomial]) -> SaitoReport:
    """Determinant of the Jacobian of a zero-dimensional system is never a member.

    The precondition (Artinian quotient) is checked; a membership verdict of
    True is a theorem violation and raises InternalInconsistencyError.
    """
    gens = tuple(gens)
    gb = buchberger(Ideal(gens))
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


# -- certificate assembly -------------------------------------------------


def _new_variables(n: int) -> list[str]:
    return [f"y{i}" for i in range(1, n + 1)]


def _isolation_record(gb: GroebnerBasis, variables: Sequence[str]) -> dict:
    """Point 0 of the module docstring for gb, the reduced basis of J(f)
    modulo its prime (groebner.decide_isolation): for each variable x_i, the row
    over the partials of f of the basis element that leads with a power of
    x_i (its lift, since it divides by the monic basis with quotient e_k
    and remainder 0)."""
    leading = gb.leading_monomials()
    elements = [gb.basis[next(k for k, lm in enumerate(leading) if sum(lm) == lm[i] > 0)] for i in range(gb.n)]
    rows = [gb.lift(b) for b in elements]
    return {"prime": gb.modulus, "cofactors": [[format_poly(c, variables) for c in row] for row in rows]}


def _positive_dimension_record(t: int, functional: dict[Exponent, Fraction]) -> dict:
    """Point 4 of the module docstring: the degree and the functional of a
    rejection (groebner.decide_isolation), monomials in descending grevlex."""
    entries = sorted(functional.items(), key=lambda item: GREVLEX.key(item[0]), reverse=True)
    return {"degree": t, "functional": [{"monomial": list(m), "value": format_fraction(c)} for m, c in entries]}


def _empty_document(f_text: str, variables: Sequence[str]) -> dict:
    return {
        "schema": {"name": SCHEMA_NAME, "version": SCHEMA_VERSION},
        "input": {"polynomial": f_text, "variables": list(variables)},
        "change_of_coordinates": None,
        "lifted_operator": None,
        "membership_tests": {},
        "verdict": None,
    }


# what failing each gate of input_gate means, in the order it tests them
_GATE_CLAIMS = {
    "zero_polynomial": "the input is zero",
    "not_homogeneous": "the input has no unique positive weight vector",
    "degree_too_small": "the input has a term of degree below 2",
    "too_few_variables": "the input has fewer than 3 variables",
    "dimension_cap": f"the input has more than {MAX_DETERMINANT_DIM} variables",
}
# the failure for each input fact that a certificate records wrongly
_FACT_FAILURES = {
    "homogeneous": "recorded homogeneity flag is wrong",
    "weights": "recorded weights are not the unique weights of the input",
    "degree": "recorded degree is not the weighted degree of the input",
    "variable_count": "recorded variable count is wrong",
}
# the failure for each isolation fact that a certificate records wrongly
# for its verdict
_ISOLATION_FAILURES = {
    "isolated": "recorded isolated flag does not match the verdict",
    "milnor_number": "recorded Milnor number is not prod(D / W_i - 1)",
}


def input_gate(f: Polynomial) -> tuple[dict, tuple[str, str] | None]:
    """The gate every certificate begins with, and what it records.

    ``facts`` is what a certificate records about f before isolation is
    decided: ``homogeneous`` for nonzero f, and ``weights``, ``degree`` and
    ``variable_count`` once f has unique positive weights.  ``failed`` is
    the first gate f fails, as (reason, message), or None: f must be nonzero
    (zero_polynomial), have unique positive weights (not_homogeneous), be
    singular at the origin (degree_too_small) and have 3 <= n <=
    MAX_DETERMINANT_DIM variables (too_few_variables, dimension_cap).  The
    builder records both; the verifier recomputes both for every verdict.
    """
    if f.is_zero():
        return {}, ("zero_polynomial", "the zero polynomial does not define a hypersurface")
    facts = {"homogeneous": f.is_homogeneous()}
    found = quasi_homogeneous_weights(f)
    if found is None:
        return facts, (
            "not_homogeneous", "input polynomial is not quasi-homogeneous: no unique positive weight vector"
        )
    facts.update(weights=list(found[0]), degree=found[1], variable_count=f.n)
    gates = (
        (f.min_degree() < 2, "degree_too_small",
         f"a degree-{f.min_degree()} term makes the input smooth at the origin"),
        (f.n < 3, "too_few_variables",
         f"{f.n}-variable input is outside this construction; two variables are settled classically"),
        (f.n > MAX_DETERMINANT_DIM, "dimension_cap",
         f"{f.n} variables exceed the configured determinant dimension cap of {MAX_DETERMINANT_DIM}"),
    )
    return facts, next(((reason, message) for fails, reason, message in gates if fails), None)


def rejection_message(reason: str, failed: tuple[str, str] | None, variables: Sequence[str], weights) -> str:
    """The message a rejection for ``reason`` records: the message of the
    gate f fails (``failed``, from input_gate), or else that of one of the
    two positive-dimension reasons, which follows from the variable names
    and the weights of f.  The builder writes it and the verifier compares
    it."""
    if failed is not None:
        return failed[1]
    if reason == "not_isolated":
        return "the Jacobian ideal is not zero-dimensional"
    return (
        f"the restriction to {variables[0]} = 0 is not an isolated singularity and no other "
        f"variable has the weight {weights[0]} of {variables[0]}, so no admissible slice exists"
    )


def _isolation_facts(isolated: bool, weights, degree: int) -> dict:
    """What a certificate whose input passes input_gate records about
    isolation: isolated false and no Milnor number for a not_isolated
    rejection, else isolated true and prod(D / W_i - 1)."""
    if not isolated:
        return {"isolated": False}
    return {"isolated": True, "milnor_number": int(milnor_number(weights, degree))}


def build_witness(f: Polynomial, variables: Sequence[str]) -> WitnessCertificate:
    """Run the full construction and return a replayable certificate."""
    doc = _empty_document(format_poly(f, variables), variables)
    info = doc["input"]
    section = doc["membership_tests"]
    facts, failed = input_gate(f)
    info.update(facts)

    def rejected(reason: str) -> WitnessCertificate:
        message = rejection_message(reason, failed, variables, facts.get("weights"))
        info["rejection"] = {"reason": reason, "message": message}
        doc["verdict"] = INPUT_REJECTED
        logger.info("input rejected (%s): %s", reason, message)
        return WitnessCertificate(doc)

    if failed is not None:
        return rejected(failed[0])
    weights, degree = facts["weights"], facts["degree"]

    gb_input, rejection = decide_isolation(f, weights, degree)
    info.update(_isolation_facts(rejection is None, weights, degree))
    if rejection is not None:
        section["positive_dimension"] = {"input_jacobian": _positive_dimension_record(*rejection)}
        return rejected("not_isolated")
    # point 0: every certificate that records isolated true backs it
    section["isolation"] = _isolation_record(gb_input, variables)

    try:
        chosen = generic_slice_search(f)
    except NoIsolatingSlice as exc:
        section["positive_dimension"] = {"slice_jacobian": exc.record}
        return rejected("no_isolating_slice")
    except ResourceLimitExceeded as exc:
        doc["change_of_coordinates"] = {"attempts": exc.attempts, "exhausted": True}
        doc["verdict"] = RESOURCE_EXHAUSTED
        info["resource_error"] = str(exc)
        return WitnessCertificate(doc)

    yvars = _new_variables(f.n)
    g = chosen.g
    doc["change_of_coordinates"] = {
        "slice_coefficients": [format_fraction(c) for c in chosen.coefficients],
        "attempts": chosen.attempts,
    }

    # point 1 of the module docstring: the candidate, its closed-form defect
    # cofactors and symmetrize only construct P; none of them is recorded.
    # E_W scales g by D and Hamiltonians annihilate it, so each symmetric
    # d_i scales g by the candidate's q_i = D * A_1i
    candidate, cofactors, scales = build_candidate_tuple(g)
    symmetric, _ = symmetrize(candidate, cofactors)
    lifted = lift_to_diff2(symmetric, scales)
    doc["lifted_operator"] = {
        "coefficients": [
            {"index": list(alpha), "value": format_poly(c, yvars)}
            for alpha, c in sorted(lifted.coeffs.items())
        ],
        "scales_f_by": [format_poly(q, yvars) for q in scales],
    }

    # point 3: h = g(0, y_2, ..., y_n) is isolated, which puts the witness
    # d_1(y_1) = W_1 y_1 A_11 outside S
    section["obstruction"] = {
        "restriction_isolation": _isolation_record(chosen.gb, yvars[1:])
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

    Every verdict starts from the input: the verifier parses it, recomputes
    input_gate and compares the recorded input facts with the recomputed
    ones.  A rejection for one of the gate reasons is valid exactly when it
    names the first gate the input fails; every other verdict needs an input
    that passes every gate.  Once a verdict and its reason are accepted, the
    recorded isolation facts (_isolation_facts; none for a gate rejection)
    and a rejection's message (rejection_message) must be the ones the
    builder writes.  A document without the top-level keys raises
    CertificateError; data of any other wrong shape, type or size is a
    failure, never a crash.
    """
    doc = cert.document if isinstance(cert, WitnessCertificate) else cert
    missing = [k for k in ("schema", "input", "verdict") if k not in doc]
    if missing:
        raise CertificateError(f"certificate missing required keys: {missing}")
    verdict = doc["verdict"]
    if verdict not in (RESOURCE_EXHAUSTED, INPUT_REJECTED, WITNESS_FOUND):
        return [f"unknown verdict {verdict!r}"]
    try:
        info = doc["input"]
        f = parse_poly(info["polynomial"], info["variables"])
        facts, failed = input_gate(f)
        failures = [text for key, text in _FACT_FAILURES.items() if _as_written(info, key) != _as_written(facts, key)]
        reason = (info.get("rejection") or {}).get("reason") if verdict == INPUT_REJECTED else None
        if failed is not None:
            # only a rejection that names the first failed gate is valid
            if reason != failed[0]:
                return failures + [f"the input fails the gate {failed[0]!r} first: {failed[1]}"]
            isolation = {}
        elif reason in _GATE_CLAIMS:
            return failures + [f"rejection says {_GATE_CLAIMS[reason]}, but the input passes every gate"]
        elif verdict == INPUT_REJECTED and reason not in ("not_isolated", "no_isolating_slice"):
            return failures + [f"unknown rejection reason {reason!r}"]
        else:
            weights, degree = facts["weights"], facts["degree"]
            isolation = _isolation_facts(reason != "not_isolated", weights, degree)
            if isolation["isolated"]:
                # point 0 backs every isolated true
                record = doc["membership_tests"].get("isolation")
                if record is None:
                    failures.append("isolated true without the isolation record")
                else:
                    _check_isolation(record, f, info["variables"], "isolation", failures)
            if verdict == RESOURCE_EXHAUSTED:
                change = doc.get("change_of_coordinates") or {}
                if not change.get("exhausted"):
                    failures.append("RESOURCE_EXHAUSTED certificate without an exhaustion record")
                failures += _attempts_failures(change.get("attempts"))
            elif verdict == INPUT_REJECTED:
                failures += _verify_rejected(doc, reason, f, weights, degree)
            else:
                failures += _verify_witness(doc, f, weights, degree)
        failures += [
            text for key, text in _ISOLATION_FAILURES.items() if _as_written(info, key) != _as_written(isolation, key)
        ]
        if reason is not None and info["rejection"].get("message") != rejection_message(
            reason, failed, info["variables"], facts.get("weights")
        ):
            failures.append(f"the rejection message is not the one the reason {reason!r} gives")
        return failures
    except CertificateError:
        raise
    except (ValueError, LookupError, TypeError, AttributeError, ArithmeticError, RuntimeError) as exc:
        # corrupted data (RuntimeError covers a runaway replay hitting a
        # resource cap and recursion on deep nesting): invalid, not a crash
        return [f"certificate data does not replay: {exc}"]


def _as_written(record: dict, key: str) -> str | None:
    """A recorded value as written, so that 1 does not pass for true, nor
    null for a value the builder leaves out."""
    return repr(record[key]) if key in record else None


def _attempts_failures(attempts) -> list[str]:
    """The recorded number of slices tried is an int in 1..MAX_SLICE_ATTEMPTS."""
    if type(attempts) is int and 1 <= attempts <= MAX_SLICE_ATTEMPTS:
        return []
    return [f"recorded attempts {attempts!r} is not an integer in 1..{MAX_SLICE_ATTEMPTS}"]


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


def _verify_rejected(doc: dict, reason, f: Polynomial, weights, degree: int) -> list[str]:
    """Point 4 of the module docstring for the two rejections that claim a
    positive-dimensional Jacobian ideal; input_gate has passed."""
    if reason == "not_isolated":
        return _check_positive_dimension(
            doc, "input_jacobian", [f.partial(i) for i in range(1, f.n + 1)], weights, degree
        )
    failures = []
    if any(w == weights[0] for w in weights[1:]):
        failures.append("another variable shares the weight of the first; other slices are admissible")
    restriction = restrict_to_hyperplane(f)
    return failures + _check_positive_dimension(
        doc, "slice_jacobian", [restriction.partial(i) for i in range(1, f.n)], weights[1:], degree
    )


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


def _verify_witness(doc: dict, f: Polynomial, weights, degree: int) -> list[str]:
    """Points 2 and 3 of the module docstring; input_gate has passed, and
    certificate_failures checks point 0."""
    failures: list[str] = []
    missing = [k for k in ("change_of_coordinates", "lifted_operator", "membership_tests") if not doc.get(k)]
    if missing:
        return [f"witness verdict without the supporting sections: {missing}"]
    n = f.n
    yvars = _new_variables(n)
    change = doc["change_of_coordinates"]
    coeffs = change["slice_coefficients"]
    if not isinstance(coeffs, list):
        return [f"slice coefficients invalid: {coeffs!r} is not a list"]
    coeffs = [parse_fraction(s) for s in coeffs]
    try:
        images = slice_images(coeffs, n)
    except ValueError as exc:
        return [f"slice coefficients invalid: {exc}"]
    if any(a and w != weights[0] for a, w in zip(coeffs, weights)):
        failures.append("slice mixes variables of different weight")
    # the range check first, so that a huge count enumerates nothing
    attempts = change.get("attempts")
    wrong = _attempts_failures(attempts)
    if not wrong and next(itertools.islice(_slice_candidates(weights), attempts - 1, None), None) != tuple(coeffs):
        wrong.append(f"the slice is not candidate {attempts} of the slice search")
    failures += wrong
    g = substitute_slice(images, f)

    # point 2 of the module docstring: P(g) = 0 and d_j(g) = q_j g for the
    # tuple extracted from P
    op_doc = doc["lifted_operator"]
    if any(type(a) is not int for entry in op_doc["coefficients"] for a in entry["index"]):
        return failures + ["lifted operator has a multi-index entry that is not an integer"]
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

    _check_obstruction(doc["membership_tests"]["obstruction"], g, extracted.entry(1, 1), weights[0], yvars, failures)
    return failures
