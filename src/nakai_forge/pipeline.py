"""End-to-end witness construction and certificate verification.

Given a quasi-homogeneous polynomial f with an isolated singularity at the
origin, the pipeline finds a linear slice y_1 and builds, from Hessian
cofactors in the new coordinates, a symmetric tuple of derivations: the
second-order part of an operator P whose first-order part follows from it
in closed form.  It certifies that P is an operator on
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
decides the five input reasons, in this order: f is nonzero, has at most
MAX_DETERMINANT_DIM variables, has unique weights, has no term of degree
below 2 (so it is singular at the origin) and has at least 3 variables.
The cap comes before the weights, whose elimination grows as n^3, so a
certificate of many variables is checked quickly.  The builder rejects
with the first gate f fails.  A claim (a verdict, a rejection's reason and
the number of slices tried) fixes every field of a certificate but its
proof values: the input facts (homogeneous, weights, degree, variable_count),
the isolated flag and Milnor number, a rejection's message, the slice, and
which sections and records it holds.  One writer (_document) lays out the
certificate of every claim, and the builder and the verifier both write
through it.  The verifier checks a certificate in three steps.  It decides
the claim: a rejection for a gate reason is valid only if that is the
first gate f fails, every other claim needs an f that passes every gate,
and a witness's slice search must have the recorded candidate.  It
rewrites the certificate from the input, the claim and the recorded proof
values, and requires the recorded document to equal the rewritten one,
leaf types included: each difference is a failure that names its path.
Only a document that matches has its proofs checked.  Every certificate
that records isolated true (a witness or a no_isolating_slice rejection)
holds the isolation record of point 0, written once the builder knows f is
isolated and checked once by the verifier for each of them.

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
   variables: the verifier recomputes g from f and the slice it
   regenerates (see the slice search; substitute_slice) and names the
   variables itself (_new_variables).
1. The weighted cofactor identity (builder only).  Differentiating
   E_W(f) = D f gives sum_j W_j x_j f_kj = (D - W_k) f_k.  The 2x2
   alternation of the maximal minors of the Hessian with row 1 deleted
   then puts A_1i W_j x_j - A_1j W_i x_i in (f_2, ..., f_n)
   (minors.verify_cofactor_identity).  So d_i = A_1i E_W has its defects
   in the Jacobian ideal, and d_i(f) = D A_1i f preserves (f);
   derivations.symmetrize (the closed form of identity 2 of that module)
   makes this tuple symmetric, and the symmetric tuple is the second-order
   part of P.  The builder reads the candidate, its defect cofactors
   -(D - W_l) A_[l,i,1,k] and its scales q_i = D A_1i from one Hessian of
   g and its one table of minors (derivations.build_candidate_tuple).
   Homogeneous g skips the candidate and symmetrize: identity 4 of that
   module gives the same tuple from the cofactors of the Hessian
   (derivations.symmetric_tuple).  Either tuple scales g by the q_i
   ("Scales." in that module), so identity 3 makes P(g) = 0; the builder
   writes the tuple and the q_i as they come and forms no operator, and
   point 2 checks both identities.  An engine bug here gives a
   certificate that does not verify.  Every defect cofactor vector has
   a_1 = 0, so symmetrization never moves the entry (1, 1), and the
   witness is d_1(y_1) = W_1 y_1 A_11 for the Hessian of g.  The
   certificate records neither the candidate nor the moves (the
   symmetrize CLI subcommand prints them, ledger and all).
2. P descends to A.  The certificate records the divided-power
   coefficients c_alpha of P of order |alpha| = 2, each nonzero one once,
   and polynomials q_j.  The verifier extracts the tuple
   d_j(y_i) = c_(e_i + e_j) (derivations.theta2_extract), forms the
   first-order coefficients b_k of P from it and the q_j by the closed
   form of identity 3 of that module (derivations.closed_form_lift; the
   builder forms no b_k), and checks P(g) = 0 and d_j(g) = q_j g for every
   j (derivations.scale_mismatches tests each as one sum of products that
   must be zero).  Both checks are exact, so a wrong closed form could
   only make a sound certificate fail.  It reads these polynomials, the
   input and the isolation rows only in the canonical text the builder
   writes (exprio.read_poly).  The Leibniz rule gives
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
the input is rejected with the reason no_isolating_slice.  A witness
records how many slices the search tried (attempts, at most
MAX_SLICE_ATTEMPTS).  The verifier regenerates that candidate and
rewrites slice_coefficients as its text (format_fraction); it never
parses them, and it substitutes only the candidate, which is admissible by
construction: a_1 = 1, and only variables of the weight of x_1 enter it.
A search that fails MAX_SLICE_ATTEMPTS candidates, or reaches one too
large to substitute, raises ResourceLimitExceeded, as a cap of the
Groebner engine does, and the build writes no certificate: that no earlier
slice isolates is not something the verifier could check without a basis.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .derivations import (
    DiffOp2,
    closed_form_lift,
    scale_mismatches,
    second_order_part,
    symmetric_tuple,
    theta2_extract,
)
from .exprio import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    CertificateError,
    _names,
    _power_too_large,
    format_fraction,
    format_poly,
    parse_fraction,
    read_poly,
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
from .minors import MAX_DETERMINANT_DIM, determinant, jacobian_matrix
from .poly import (
    Exponent,
    Polynomial,
    _accumulate,
    _top_degree,
    _vanishing_failures,
    _weights_and_degree,
    is_prime,
    quasi_homogeneous_weights,
)

logger = logging.getLogger(__name__)

WITNESS_FOUND = "WITNESS_FOUND"
INPUT_REJECTED = "INPUT_REJECTED"


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
    """g = f(x(y)) for slice images.  Raises ResourceLimitExceeded, before
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
    substitute (substitute_slice), raises ResourceLimitExceeded; a failed
    no-op slice with no variable sharing the weight of x_1 raises
    NoIsolatingSlice.
    """
    n = f.n
    if n < 3:
        raise ValueError("slice search requires at least three variables")
    weights, degree = _weights_and_degree(f)
    attempts = 0
    for coeffs in _slice_candidates(weights):
        if attempts >= MAX_SLICE_ATTEMPTS:
            raise ResourceLimitExceeded(f"no isolating slice found within {MAX_SLICE_ATTEMPTS} attempts")
        attempts += 1
        g = substitute_slice(slice_images(coeffs, n), f)
        gb, rejection = decide_isolation(restrict_to_hyperplane(g), weights[1:], degree)
        if rejection is None:
            logger.info("slice found after %d attempts: %s", attempts, coeffs)
            return SliceChoice(coeffs, g, gb, attempts)
    raise NoIsolatingSlice(_positive_dimension_record(*rejection))


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


def _isolation_rows(gb: GroebnerBasis, variables: Sequence[str]) -> list[list[str]]:
    """Point 0 of the module docstring for gb, the reduced basis of J(f)
    modulo its prime (groebner.decide_isolation): for each variable x_i, the
    row over the partials of f of the basis element that leads with a power
    of x_i, gb.basis[gb.pure_powers[i]] (its lift, since it divides by the
    monic basis with quotient e_k and remainder 0)."""
    return [[format_poly(c, variables) for c in gb.lift(gb.basis[gb.pure_powers[i]])] for i in range(gb.n)]


def _isolation_record(prime, rows) -> dict:
    """Point 0 of the module docstring: the prime and the rows, one for each
    variable, of polynomial texts."""
    return {"prime": prime, "cofactors": rows}


def _positive_dimension_record(t, functional: dict[Exponent, Fraction]) -> dict:
    """Point 4 of the module docstring: the degree and the functional of a
    rejection (groebner.decide_isolation), monomials in descending grevlex."""
    entries = sorted(functional.items(), key=lambda item: GREVLEX.descending_key(item[0]))
    return {"degree": t, "functional": [{"monomial": list(m), "value": format_fraction(c)} for m, c in entries]}


def _operator_record(second_order: dict[Exponent, str], scales: list[str]) -> dict:
    """Point 2 of the module docstring: the text of each nonzero coefficient
    of P of order 2, once and in the order of its multi-index, and the
    texts of the q_j."""
    entries = sorted((alpha, text) for alpha, text in second_order.items() if sum(alpha) == 2 and text != "0")
    return {"coefficients": [{"index": list(alpha), "value": text} for alpha, text in entries], "scales_f_by": scales}


# what failing each gate of input_gate means, in the order it tests them:
# the dimension cap before the weights
_GATE_CLAIMS = {
    "zero_polynomial": "the input is zero",
    "dimension_cap": f"the input has more than {MAX_DETERMINANT_DIM} variables",
    "not_homogeneous": "the input has no unique positive weight vector",
    "degree_too_small": "the input has a term of degree below 2",
    "too_few_variables": "the input has fewer than 3 variables",
}
# the positive-dimension record (point 4) of each rejection that claims one
_POSITIVE_DIMENSION_KEYS = {"not_isolated": "input_jacobian", "no_isolating_slice": "slice_jacobian"}


def input_gate(f: Polynomial) -> tuple[dict, tuple[str, str] | None]:
    """The gate every certificate begins with, and what it records.

    ``facts`` is what a certificate records about f before isolation is
    decided: ``homogeneous`` for nonzero f, and ``weights``, ``degree`` and
    ``variable_count`` once f passes the cap and has unique positive
    weights.  ``failed`` is the first gate f fails, as (reason, message), or
    None: f must be nonzero (zero_polynomial), have at most
    MAX_DETERMINANT_DIM variables (dimension_cap), have unique positive
    weights (not_homogeneous), be singular at the origin (degree_too_small)
    and have at least 3 variables (too_few_variables).  The builder records
    both; the verifier recomputes both for every verdict.
    """
    if f.is_zero():
        return {}, ("zero_polynomial", "the zero polynomial does not define a hypersurface")
    facts = {"homogeneous": f.is_homogeneous()}
    if f.n > MAX_DETERMINANT_DIM:
        # before the weights, whose elimination grows as n^3
        return facts, ("dimension_cap",
                       f"{f.n} variables exceed the configured determinant dimension cap of {MAX_DETERMINANT_DIM}")
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
    )
    return facts, next(((reason, message) for fails, reason, message in gates if fails), None)


def rejection_message(reason: str, failed: tuple[str, str] | None, variables: Sequence[str], weights) -> str:
    """The message a rejection for ``reason`` records: the message of the
    gate f fails (``failed``, from input_gate), or else that of one of the
    two positive-dimension reasons, which follows from the variable names
    and the weights of f."""
    if failed is not None:
        return failed[1]
    if reason == "not_isolated":
        return "the Jacobian ideal is not zero-dimensional"
    return (
        f"the restriction to {variables[0]} = 0 is not an isolated singularity and no other "
        f"variable has the weight {weights[0]} of {variables[0]}, so no admissible slice exists"
    )


def _document(f_text: str, variables: Sequence[str], facts: dict, failed: tuple[str, str] | None, verdict: str,
              reason: str | None = None, *, attempts=None, slice_coefficients=(), isolation=None,
              functional=None, operator=None, restriction=None) -> dict:
    """The certificate of a claim about f: its text and variable names, what
    input_gate gives (``facts``, ``failed``), the verdict, a rejection's
    reason and the slices tried fix every field but the proof values, and
    the records (written by _isolation_record, _positive_dimension_record
    and _operator_record) carry those.  A record goes where the claim puts
    it, and one the claim has no place for is left out.  Past the gate, a
    not_isolated rejection records isolated false, and every other claim
    isolated true, the Milnor number prod(D / W_i - 1) and the isolation
    record of point 0.  The builder writes every certificate with it, and
    the verifier rewrites every one."""
    info = {"polynomial": f_text, "variables": list(variables), **facts}
    tests = {}
    if failed is None:
        info["isolated"] = reason != "not_isolated"
        if info["isolated"]:
            info["milnor_number"] = int(milnor_number(facts["weights"], facts["degree"]))
            tests["isolation"] = isolation
    change = None
    if verdict == INPUT_REJECTED:
        info["rejection"] = {
            "reason": reason, "message": rejection_message(reason, failed, variables, facts.get("weights"))
        }
        if reason in _POSITIVE_DIMENSION_KEYS:
            tests["positive_dimension"] = {_POSITIVE_DIMENSION_KEYS[reason]: functional}
    else:
        change = {"slice_coefficients": [format_fraction(a) for a in slice_coefficients], "attempts": attempts}
        tests["obstruction"] = {"restriction_isolation": restriction}
    return {
        "schema": {"name": SCHEMA_NAME, "version": SCHEMA_VERSION},
        "input": info,
        "change_of_coordinates": change,
        "lifted_operator": operator,
        "membership_tests": tests,
        "verdict": verdict,
    }


def build_witness(f: Polynomial, variables: Sequence[str]) -> WitnessCertificate:
    """Run the full construction and return a replayable certificate;
    ValueError for variable names the certificate cannot carry (exprio._names)."""
    variables = _names(variables)
    facts, failed = input_gate(f)

    def certificate(verdict: str, reason: str | None = None, **proofs) -> WitnessCertificate:
        doc = _document(format_poly(f, variables), variables, facts, failed, verdict, reason, **proofs)
        if reason is not None:
            logger.info("input rejected (%s): %s", reason, doc["input"]["rejection"]["message"])
        return WitnessCertificate(doc)

    if failed is not None:
        return certificate(INPUT_REJECTED, failed[0])
    weights, degree = facts["weights"], facts["degree"]

    gb_input, rejection = decide_isolation(f, weights, degree)
    if rejection is not None:
        return certificate(INPUT_REJECTED, "not_isolated", functional=_positive_dimension_record(*rejection))
    # point 0: every certificate that records isolated true backs it
    isolation = _isolation_record(gb_input.modulus, _isolation_rows(gb_input, variables))

    try:
        chosen = generic_slice_search(f)
    except NoIsolatingSlice as exc:
        return certificate(INPUT_REJECTED, "no_isolating_slice", isolation=isolation, functional=exc.record)

    yvars = _new_variables(f.n)
    # point 1 of the module docstring: the symmetric tuple is the
    # second-order part of P, recorded with its scales q_i = D * A_1i; only
    # the verifier forms P's first-order part and checks point 2
    symmetric, scales = symmetric_tuple(chosen.g)
    operator = _operator_record(
        {alpha: format_poly(c, yvars) for alpha, c in second_order_part(symmetric).items()},
        [format_poly(q, yvars) for q in scales],
    )
    # point 3: h = g(0, y_2, ..., y_n) is isolated, which puts the witness
    # d_1(y_1) = W_1 y_1 A_11 outside S
    restriction = _isolation_record(chosen.gb.modulus, _isolation_rows(chosen.gb, yvars[1:]))
    return certificate(WITNESS_FOUND, attempts=chosen.attempts, slice_coefficients=chosen.coefficients,
                       isolation=isolation, operator=operator, restriction=restriction)


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

    The three steps of "The gate" in the module docstring.  1. The claim:
    the verifier reads the input, recomputes input_gate, and decides the
    verdict, its reason and the recorded attempts (_search_claim).  2. It
    rewrites the certificate with _document from the input, the claim and
    the recorded proof values (_recorded_proofs), and each place where the
    two differ is a failure (_differences).  3. Only a certificate equal to
    its rewrite has its proofs checked: points 0, 2, 3 and 4.  A document
    that is not a JSON object or lacks the top-level keys raises
    CertificateError; data of any other wrong shape, type or size is a
    failure, never a crash.
    """
    doc = cert.document if isinstance(cert, WitnessCertificate) else cert
    if not isinstance(doc, dict):
        raise CertificateError("certificate document must be a JSON object")
    missing = [k for k in ("schema", "input", "verdict") if k not in doc]
    if missing:
        raise CertificateError(f"certificate missing required keys: {missing}")
    verdict = doc["verdict"]
    if verdict not in (INPUT_REJECTED, WITNESS_FOUND):
        return [f"unknown verdict {verdict!r}"]
    try:
        info = doc["input"]
        variables = info["variables"]
        f = read_poly(info["polynomial"], variables)
        facts, failed = input_gate(f)
        reason = (info.get("rejection") or {}).get("reason") if verdict == INPUT_REJECTED else None
        if failed is not None:
            # only a rejection that names the first failed gate is valid
            if reason != failed[0]:
                return [f"the input fails the gate {failed[0]!r} first: {failed[1]}"]
        elif reason in _GATE_CLAIMS:
            return [f"rejection says {_GATE_CLAIMS[reason]}, but the input passes every gate"]
        elif verdict == INPUT_REJECTED and reason not in _POSITIVE_DIMENSION_KEYS:
            return [f"unknown rejection reason {reason!r}"]
        failures, search = ([], {}) if verdict == INPUT_REJECTED else _search_claim(doc, facts)
        if failures:
            return failures
        proofs, rejection = _recorded_proofs(doc, verdict, reason, facts.get("weights"))
        rewritten = _document(info["polynomial"], variables, facts, failed, verdict, reason, **search, **proofs)
        failures = _differences(doc, rewritten, "")
        if failures or failed is not None:
            return failures
        if reason != "not_isolated":
            # point 0 backs every isolated true
            _check_isolation(doc["membership_tests"]["isolation"], f, variables, "isolation", failures)
        if verdict == INPUT_REJECTED:
            failures += _verify_rejected(reason, f, facts["weights"], facts["degree"], *rejection)
        else:
            failures += _verify_witness(doc, f, search["slice_coefficients"], facts["weights"], facts["degree"])
        return failures
    except CertificateError:
        raise
    except (ValueError, LookupError, TypeError, AttributeError, ArithmeticError, RuntimeError) as exc:
        # corrupted data (RuntimeError covers a runaway replay hitting a
        # resource cap and recursion on deep nesting): invalid, not a crash
        return [f"certificate data does not replay: {exc}"]


def _recorded(doc, *path):
    """The recorded value at a path of keys, or None where there is none."""
    for key in path:
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc


def _search_claim(doc: dict, facts: dict) -> tuple[list[str], dict]:
    """The slice a witness claims, found without a basis: the recorded
    ``attempts`` is an int in 1..MAX_SLICE_ATTEMPTS and the search has
    candidate ``attempts``.  Returns the failures, and what _document takes
    for the claim: attempts and that candidate."""
    attempts = _recorded(doc, "change_of_coordinates", "attempts")
    if not (type(attempts) is int and 1 <= attempts <= MAX_SLICE_ATTEMPTS):
        return [f"recorded attempts {attempts!r} is not an integer in 1..{MAX_SLICE_ATTEMPTS}"], {}
    coeffs = next(itertools.islice(_slice_candidates(facts["weights"]), attempts - 1, None), None)
    if coeffs is None:
        return [f"the slice search has no candidate {attempts}"], {}
    return [], {"attempts": attempts, "slice_coefficients": coeffs}


def _recorded_proofs(doc: dict, verdict: str, reason, weights) -> tuple[dict, tuple | None]:
    """The records of a claim's proof values, read from the recorded
    document and written back with the builder's record writers: the
    functional and the operator's multi-indices are parsed, and every other
    value (primes, rows, the texts of polynomials, which read_poly reads
    only in canonical form) passes as recorded.  Also returns a
    positive-dimension rejection's recorded degree and parsed functional,
    for _verify_rejected."""
    tests = doc.get("membership_tests")

    def isolation(*path):
        record = _recorded(tests, *path)
        return _isolation_record(_recorded(record, "prime"), _recorded(record, "cofactors"))

    proofs, rejection = {"isolation": isolation("isolation")}, None
    if reason in _POSITIVE_DIMENSION_KEYS:
        record = _recorded(tests, "positive_dimension", _POSITIVE_DIMENSION_KEYS[reason])
        t, ideal_weights = _recorded(record, "degree"), weights if reason == "not_isolated" else weights[1:]
        rejection = t, _parse_functional(_recorded(record, "functional"), t, ideal_weights)
        proofs["functional"] = _positive_dimension_record(*rejection)
    if verdict == WITNESS_FOUND:
        entries = _recorded(doc, "lifted_operator", "coefficients")
        scales = _recorded(doc, "lifted_operator", "scales_f_by")
        proofs["operator"] = _operator_record(
            {tuple(map(int, e["index"])): e["value"] for e in entries} if isinstance(entries, list) else {},
            scales if isinstance(scales, list) else [],
        )
        proofs["restriction"] = isolation("obstruction", "restriction_isolation")
    return proofs, rejection


def _differences(recorded, expected, path: str) -> list[str]:
    """Each place where a recorded document differs from its rewrite, by
    path: a key either of them lacks, or a list or other value that is not
    the rewritten one.  Values must match in type as well, so that 1 does
    not pass for true, nor 1.0 for 1."""
    if recorded is expected:
        return []
    if type(recorded) is dict and type(expected) is dict:
        def where(key):
            return f"{path}.{key}" if path else str(key)

        failures = [f"{where(key)} is missing" for key in expected if key not in recorded]
        for key, value in expected.items():
            if key in recorded:
                failures += _differences(recorded[key], value, where(key))
        return failures + [f"{where(key)} is not written for this claim" for key in recorded if key not in expected]
    if type(recorded) is list and type(expected) is list and len(recorded) == len(expected):
        if not any(_differences(*pair, path) for pair in zip(recorded, expected)):
            return []
    elif type(recorded) is type(expected) and recorded == expected:
        return []
    return [f"{path} is not what the builder writes"]


def _verify_rejected(reason, f: Polynomial, weights, degree: int, t, functional) -> list[str]:
    """Point 4 of the module docstring for the two rejections that claim a
    positive-dimensional Jacobian ideal, of f or of its restriction to
    x_1 = 0: a nonzero functional on a weighted degree t > s that vanishes
    on every multiple of every partial; input_gate has passed, and
    _recorded_proofs has parsed the recorded t and functional."""
    key = _POSITIVE_DIMENSION_KEYS[reason]
    failures = []
    if reason == "no_isolating_slice":
        if any(w == weights[0] for w in weights[1:]):
            failures.append("another variable shares the weight of the first; other slices are admissible")
        f, weights = restrict_to_hyperplane(f), weights[1:]
    s = _top_degree(weights, degree)
    if type(t) is not int or t <= s:
        return failures + [f"{key}: recorded degree {t!r} is not an integer above s = {s}"]
    if not any(functional.values()):
        failures.append(f"{key}: the functional is zero")
    elif not all(functional.values()):
        failures.append(f"{key}: the functional records a zero value")
    partials = [f.partial(i) for i in range(1, f.n + 1)]
    return failures + [f"{key}: {msg}" for msg in _vanishing_failures(functional, partials)]


def _check_isolation(record: dict, f: Polynomial, variables, label: str, failures: list[str]) -> None:
    """Point 0 of the module docstring: a prime p that divides no
    denominator of f, and for each variable x_i a row c_i over the partials
    of f, with integer coefficients in [0, p), such that
    h_i = sum_j c_ij df/dx_j mod p leads with a power of x_i.

    Every value is an int: the row entries hold canonical coefficients (an
    int when integral, so a Fraction is never in [0, p)), the n partials of
    f mod p are taken once, and each h_i is one integer sum of products
    (poly._accumulate) whose coefficients are reduced modulo p."""
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
    partials = [f_p.partial(j).terms.items() for j in range(1, f.n + 1)]
    for i, row in enumerate(rows):
        try:
            entries = [read_poly(s, variables) for s in row] if isinstance(row, list) else []
        except ValueError:
            entries = []  # a row it cannot read is a row of the wrong shape
        if len(entries) != f.n or any(type(a) is not int or not 0 <= a < p for e in entries for a in e.terms.values()):
            failures.append(f"{label}: row {i + 1} is not {f.n} entries with integer coefficients in [0, {p})")
            continue
        # the leading monomial of h_i modulo p is the largest one whose
        # coefficient p does not divide
        h = _accumulate((e.terms.items(), partial, 1) for e, partial in zip(entries, partials))
        lm = min((e for e, c in h.items() if c % p), key=GREVLEX.descending_key, default=None)
        if lm is None or not sum(lm) == lm[i] > 0:
            failures.append(f"{label}: row {i + 1} does not lead with a power of {variables[i]} modulo {p}")


def _parse_functional(entries, delta, weights) -> dict[Exponent, Fraction]:
    """The recorded dual vector as a map (none for entries that are not a
    list); every key is an exponent vector of length len(weights), no
    negative entry and weighted degree delta."""
    out: dict[Exponent, Fraction] = {}
    for entry in entries if isinstance(entries, list) else ():
        exp = entry["monomial"]
        if (
            not isinstance(exp, list) or len(exp) != len(weights)
            or any(type(e) is not int or e < 0 for e in exp)
            or sum(w * e for w, e in zip(weights, exp)) != delta
        ):
            raise ValueError(f"functional monomial {exp!r} is not an exponent vector of weighted degree {delta}")
        out[tuple(exp)] = parse_fraction(entry["value"])
    return out


def _verify_witness(doc: dict, f: Polynomial, coeffs, weights, degree: int) -> list[str]:
    """Points 2 and 3 of the module docstring for a witness whose slice is
    the candidate ``coeffs``; certificate_failures checks point 0."""
    n = f.n
    yvars = _new_variables(n)
    g = substitute_slice(slice_images(coeffs, n), f)
    # point 2 of the module docstring: P(g) = 0 and d_j(g) = q_j g for the
    # tuple extracted from P
    op_doc = doc["lifted_operator"]
    second_order = {tuple(e["index"]): read_poly(e["value"], yvars) for e in op_doc["coefficients"]}
    extracted = theta2_extract(DiffOp2(n, second_order), g)
    scales = [read_poly(q, yvars) for q in op_doc["scales_f_by"]]
    if len(scales) != n:
        return [f"lifted operator records {len(scales)} scales for {n} derivations"]
    failures = [f"extracted derivation {j} does not scale g by the recorded factor"
                for j in scale_mismatches(extracted, scales)]
    # the first-order part is not recorded: identity 3 of derivations gives
    # it from c and the q_j, and P(g) = 0 is checked on the nose
    if not closed_form_lift(extracted, scales, weights, degree).apply(g).is_zero():
        failures.append("lifted operator does not annihilate the transformed polynomial")

    # point 3: h = g(0, y_2, ..., y_n) is isolated, and the witness d_1(y_1)
    # is W_1 y_1 Hess(h) modulo y_1^2
    h = restrict_to_hyperplane(g)
    record = doc["membership_tests"]["obstruction"]["restriction_isolation"]
    _check_isolation(record, h, yvars[1:], "restriction isolation", failures)
    hess = determinant(jacobian_matrix([h.partial(i) for i in range(1, n)]))
    # W_1 y_1 Hess(h), read in the n variables y_1..y_n
    target = Polynomial(n, {(1,) + e: weights[0] * c for e, c in hess.terms.items()})
    if any(e[0] < 2 for e in (extracted.entry(1, 1) - target).terms):
        failures.append("obstruction: d1(y1) is not W_1 y1 Hess(h) modulo y1^2")
    return failures
