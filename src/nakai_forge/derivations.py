"""First- and second-order derivation calculus on A = Q[x1..xn]/(f).

A first-order derivation is stored as the tuple of images of the
variables and extends to everything by the Leibniz rule.  A second-order
operator is a coefficient map over divided-power multi-indices
(c_{2e_i} multiplies (1/2) d^2/dx_i^2), so the tuple extracted from an
operator D satisfies d_j(x_i) = c_{e_i + e_j}(D) with no factor anywhere.

symmetrize adjusts a tuple whose pairwise defects lie in the Jacobian
ideal into an exactly symmetric one by adding polynomial multiples of the
Hamiltonian derivations, recording every move in a replayable ledger.

Every cofactor the witness construction needs has a closed form, so
symmetrize and the lift compute no Groebner basis.  Let f be
quasi-homogeneous with weights W and weighted degree D, A_1i the cofactors
of the first row of its Hessian and A_[l,i,1,k] the minor without rows
(l, 1) and columns (i, k), signed by (-1)^(l + i + k) for l >= 2 and
i < k (minors.signed_minor), and write f_l = df/dx_l.

1. Defect cofactors.  The candidate d_i = A_1i E_W has the defect
   d_i(x_k) - d_k(x_i) = A_1i W_k x_k - A_1k W_i x_i
                       = sum_{l >= 2} a_l f_l,  a_l = -(D - W_l) A_[l,i,1,k],
   and a_1 = 0: the weighted cofactor identity with row 1 deleted
   (minors.verify_cofactor_identity, minors.cofactor_identity_terms).
2. Symmetrization.  Write a^(i,k) for the vector of pair i < k, with
   sum_l a^(i,k)_l f_l = d_i(x_k) - d_k(x_i), and extend it by
   a^(k,i) = -a^(i,k) and a^(i,i) = 0.  Adding c D_lk to d_t changes
   d_t(x_k) by c f_l and d_t(x_l) by -c f_k.  So adding tau_t,lk D_lk to
   d_t for every t and l < k, with tau antisymmetric in (l, k), leaves
   pair (i, k) the vector a^(i,k)_l + tau_i,lk - tau_k,li, and
     tau_t,lk = 1/2 (a^(t,l)_k - a^(t,k)_l - a^(l,k)_t)
   makes every entry of it zero, since for any vectors so extended
   tau_i,lk - tau_k,li = -a^(i,k)_l.  No other tau does: the difference of
   two solutions has tau_i,lk = tau_k,li, so it is symmetric in its outer
   indices and antisymmetric in its inner pair, and
   tau_a,bc = tau_c,ba = -tau_c,ab = -tau_b,ac = tau_b,ca = tau_a,cb = -tau_a,bc.
   That difference is linear algebra, true whether or not the vectors
   recombine, so the moves change the defect of pair (i, k) by exactly
   -sum_l a^(i,k)_l f_l.  The result is symmetric at (i, k) exactly when
   that vector recombines to the input's defect, and symmetrize checks
   only its result.
   Only tau_1,1k moves d_1(x_1), and for the candidate it is
   -a^(1,k)_1 = 0, so the symmetric tuple keeps d_1(x_1) = W_1 x_1 A_11.
3. The first-order lift.  Let c_ij = d_i(x_j) for a symmetric tuple with
   d_i(f) = q_i f.  Differentiating sum_j c_ij f_j = q_i f by x_i, summing
   over i and substituting f = (1/D) sum_k W_k x_k f_k gives
   sum_ij c_ij f_ij = -2 sum_k b_k f_k with
   b_k = -1/2 [(sum_i d q_i/dx_i) W_k x_k / D + q_k - sum_i d c_ik/dx_i],
   so the operator with second-order part c and first-order part b
   annihilates f.  b is a function of c and q alone, so a certificate
   records only c and q, and the witness builder forms no b: only the
   verifier (and a library call of lift_to_diff2) forms it, by
   closed_form_lift.  The verifier checks d_i(f) = q_i f and P(f) = 0
   exactly, so a wrong closed form could only refuse a certificate, never
   accept a false one.
4. The homogeneous tuple.  For W = (1, ..., 1), with A_ij the cofactors of
   the Hessian H, d_t(x_m) = A_1t x_m + A_1m x_t - x_1 A_tm is symmetric and
   scales f by d A_1t: A is symmetric; A H = det(H) I; and H x = (d - 1)
   grad f, so sum_m A_tm f_m = det(H) x_t / (d - 1) and the last two terms
   cancel in d_t(f).  It is the tuple symmetrize makes from the candidate
   (checked entry for entry in the tests), with d_1(x_1) = x_1 A_11.

Scales.  d_i = A_1i E_W scales f by q_i = D A_1i, and Hamiltonians
annihilate f, so the tuple symmetrize makes from it scales f by the same
D A_1i, as does the tuple of identity 4.  symmetric_tuple reads the tuple
and these q_i from one Hessian.  Since both hold as theorems, the witness
builder records them unchecked; the verifier checks d_i(f) = q_i f by
multiplication and never divides (scale_mismatches), and so does
lift_to_diff2, which is given the q_i.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Mapping, Sequence

from .groebner import Ideal, InternalInconsistencyError, buchberger
from .minors import algebraic_cofactor, cofactor_identity_terms, hessian
from .poly import Exponent, Polynomial, _packed_products, _weights_and_degree, sum_of_products

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Derivation1:
    """A first-order derivation, given by the images of x1..xn."""

    images: tuple[Polynomial, ...]

    def __post_init__(self):
        images = tuple(self.images)
        if not images:
            raise ValueError("a derivation needs at least one variable")
        n = len(images)
        if any(p.n != n for p in images):
            raise ValueError("derivation images must live in the ambient ring")
        object.__setattr__(self, "images", images)

    @property
    def n(self) -> int:
        return len(self.images)

    def image(self, i: int) -> Polynomial:
        """The image of x_i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"variable index {i} out of range 1..{self.n}")
        return self.images[i - 1]

    def apply(self, p: Polynomial) -> Polynomial:
        """Leibniz extension: sum_i dp/dx_i * image(i)."""
        if p.n != self.n:
            raise ValueError(f"variable-count mismatch: {p.n} vs {self.n}")
        return sum_of_products(self.n, ((p.partial(i), q) for i, q in enumerate(self.images, 1) if q))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.images)


def euler_derivation(n: int, weights: Sequence[int] | None = None) -> Derivation1:
    """E = sum x_i d/dx_i; multiplies homogeneous degree-d input by d.

    With weights W this is E_W = sum W_i x_i d/dx_i, which multiplies input
    of weighted degree D by D.
    """
    weights = (1,) * n if weights is None else weights
    if len(weights) != n:
        raise ValueError(f"{len(weights)} weights for {n} variables")
    return Derivation1(tuple(Polynomial.variable(n, i).scale(w) for i, w in enumerate(weights, 1)))


def hamiltonian(f: Polynomial, i: int, j: int) -> Derivation1:
    """D_ij = f_i d/dx_j - f_j d/dx_i; annihilates f identically."""
    n = f.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"indices ({i},{j}) out of range 1..{n}")
    if i == j:
        raise ValueError("hamiltonian derivation needs two distinct indices")
    images = [Polynomial.zero(n) for _ in range(n)]
    images[i - 1] = -f.partial(j)
    images[j - 1] = f.partial(i)
    return Derivation1(tuple(images))


def principal_cofactor(delta: Derivation1, f: Polynomial) -> Polynomial | None:
    """q with delta(f) = q * f, or None when delta does not preserve (f).

    The basis of a principal ideal is its generator made monic, so this is
    one division by f.
    """
    lifted = buchberger(Ideal((f,))).lift(delta.apply(f))
    return None if lifted is None else lifted[0]


@dataclass(frozen=True)
class DerivationTuple:
    """An n-tuple (d_1,...,d_n) of first-order derivations on A = P/(f)."""

    ders: tuple[Derivation1, ...]
    f: Polynomial

    def __post_init__(self):
        ders = tuple(self.ders)
        if len(ders) != self.f.n:
            raise ValueError(f"{len(ders)} derivations for {self.f.n} variables")
        if any(d.n != self.f.n for d in ders):
            raise ValueError("derivations live in a different ring than f")
        object.__setattr__(self, "ders", ders)

    @property
    def n(self) -> int:
        return self.f.n

    def entry(self, i: int, j: int) -> Polynomial:
        """d_i(x_j)."""
        return self.ders[i - 1].image(j)

    def defect(self, i: int, j: int) -> Polynomial:
        """d_i(x_j) - d_j(x_i); zero for all pairs iff the tuple is symmetric."""
        return self.entry(i, j) - self.entry(j, i)

    def is_symmetric(self) -> bool:
        return all(
            self.defect(i, j).is_zero()
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
        )


@dataclass(frozen=True)
class Adjustment:
    """One ledger entry: add coeff * D_(k,l) to derivation number target."""

    target: int
    k: int
    l: int
    coeff: Polynomial


def replay_ledger(tuple_in: DerivationTuple, ledger: Sequence[Adjustment]) -> DerivationTuple:
    """Apply the recorded moves; symmetrize's output is the replay of its
    ledger.  Each image d_t(x_m) becomes d_t(x_m) + sum coeff * D_kl(x_m)
    over the moves on d_t, summed in one sum_of_products."""
    f, n = tuple_in.f, tuple_in.n
    one = Polynomial.constant(n, 1)
    sums = [[[(one, image)] for image in d.images] for d in tuple_in.ders]
    for move in ledger:
        if not 1 <= move.target <= n:
            raise IndexError(f"move target {move.target} out of range 1..{n}")
        for pairs, image in zip(sums[move.target - 1], hamiltonian(f, move.k, move.l).images):
            if image:
                pairs.append((move.coeff, image))
    ders = (Derivation1(tuple(sum_of_products(n, pairs) for pairs in d)) for d in sums)
    return DerivationTuple(tuple(ders), f)


class DiffOp2:
    """An operator sum c_alpha * divided-power-partial_alpha with |alpha| <= 2."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[Exponent, Polynomial] | None = None):
        clean: dict[Exponent, Polynomial] = {}
        if coeffs:
            for alpha, c in coeffs.items():
                alpha = tuple(alpha)
                if len(alpha) != n or any(a < 0 for a in alpha):
                    raise ValueError(f"bad multi-index {alpha} for {n} variables")
                if sum(alpha) > 2:
                    raise ValueError(f"multi-index {alpha} exceeds order 2")
                if c.n != n:
                    raise ValueError("coefficient lives in a different ring")
                if not c.is_zero():
                    clean[alpha] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("DiffOp2 is immutable")

    def coefficient(self, alpha: Sequence[int]) -> Polynomial:
        return self.coeffs.get(tuple(alpha), Polynomial.zero(self.n))

    def apply(self, p: Polynomial) -> Polynomial:
        if p.n != self.n:
            raise ValueError(f"variable-count mismatch: {p.n} vs {self.n}")
        return sum_of_products(self.n, ((c, p.higher_partial(alpha)) for alpha, c in self.coeffs.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp2):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    __hash__ = None


def _unit(n: int, i: int) -> Exponent:
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def _pair_index(n: int, i: int, j: int) -> Exponent:
    e = [0] * n
    e[i - 1] += 1
    e[j - 1] += 1
    return tuple(e)


def theta2_extract(op: DiffOp2, f: Polynomial) -> DerivationTuple:
    """The tuple (d_1,...,d_n) with d_j(x_i) = c_(e_i + e_j)(op).

    The extracted tuple is symmetric by construction since the coefficient
    map is indexed by the unordered sum e_i + e_j.
    """
    if f.n != op.n:
        raise ValueError("operator and f live in different rings")
    n = op.n
    ders = []
    for j in range(1, n + 1):
        images = tuple(op.coefficient(_pair_index(n, i, j)) for i in range(1, n + 1))
        ders.append(Derivation1(images))
    return DerivationTuple(tuple(ders), f)


def build_candidate_tuple(
    f: Polynomial,
) -> tuple[DerivationTuple, dict[tuple[int, int], tuple[Polynomial, ...]], tuple[Polynomial, ...]]:
    """The candidate d_i = A_1i * E_W, its defect cofactors and its scales,
    all read from one Hessian of f.

    E_W = sum W_i x_i d/dx_i is the weighted Euler derivation of the
    quasi-homogeneous f (W = (1, ..., 1) and E_W = E for homogeneous f),
    with the weights of quasi_homogeneous_weights(f).  For each pair i < k
    the cofactors a_l with sum_l a_l f_l = d_i(x_k) - d_k(x_i) are a_1 = 0
    and a_l = -(D - W_l) A_[l,i,1,k] (identity 1 of the module docstring),
    and d_i scales f by q_i = D * A_1i, where D is the weighted degree.
    None of this needs f to be isolated.
    """
    if f.is_zero():
        raise ValueError("candidate tuple requires a nonzero polynomial")
    weights, degree = _weights_and_degree(f)
    if f.min_degree() < 2:
        raise ValueError("candidate tuple requires a polynomial singular at the origin")
    n = f.n
    hess = hessian(f)
    first_row = [algebraic_cofactor(hess, 1, i) for i in range(1, n + 1)]
    euler = euler_derivation(n, weights).images
    candidate = DerivationTuple(tuple(Derivation1(tuple(a * img for img in euler)) for a in first_row), f)
    cofactors = {
        (i, k): tuple(-c for c in cofactor_identity_terms(hess, weights, degree, i, 1, k))
        for i, k in combinations(range(1, n + 1), 2)
    }
    return candidate, cofactors, tuple(a.scale(degree) for a in first_row)


def symmetrize(
    tuple_in: DerivationTuple,
    cofactors: Mapping[tuple[int, int], Sequence[Polynomial]],
) -> tuple[DerivationTuple, tuple[Adjustment, ...]]:
    """Adjust the tuple by Hamiltonian moves until d_i(x_j) = d_j(x_i) exactly.

    ``cofactors`` maps a pair (i, j), i < j, to a vector a of n entries
    with sum_l a_l f_l = d_i(x_j) - d_j(x_i) for the input tuple; a missing
    pair stands for the zero vector.  The ledger adds tau_t,lk D_lk to d_t
    for every t and l < k with tau_t,lk nonzero, in that order, where tau
    is the unique solution of identity 2 of the module docstring, and the
    returned tuple is its replay.  The recombination is checked once, on
    that result: by identity 2 the moves leave pair (i, j) exactly its
    input defect minus sum_l a_l f_l, so a pair left asymmetric is one
    whose vector does not recombine to its defect, and ValueError names the
    first such pair.
    """
    n = tuple_in.n
    zero = Polynomial.zero(n)
    a = {(i, i): [zero] * n for i in range(1, n + 1)}
    for i, k in combinations(range(1, n + 1), 2):
        vector = list(cofactors.get((i, k)) or [zero] * n)
        if len(vector) != n:
            raise ValueError(f"the cofactor vector of pair ({i},{k}) has {len(vector)} entries, not {n}")
        a[i, k] = vector
        a[k, i] = [-c for c in vector]
    half = Fraction(1, 2)
    ledger = []
    for t in range(1, n + 1):
        for l, k in combinations(range(1, n + 1), 2):
            tau = (a[t, l][k - 1] - a[t, k][l - 1] - a[l, k][t - 1]).scale(half)
            if not tau.is_zero():
                ledger.append(Adjustment(t, l, k, tau))
    result = replay_ledger(tuple_in, ledger)
    for i, k in combinations(range(1, n + 1), 2):
        if result.defect(i, k):
            raise ValueError(
                f"defect of pair ({i},{k}) is not in the Jacobian ideal by the supplied "
                "cofactors; the input tuple is not a valid candidate"
            )
    logger.debug("symmetrize: %d adjustments over %d pairs", len(ledger), n * (n - 1) // 2)
    return result, tuple(ledger)


def symmetric_tuple(f: Polynomial) -> tuple[DerivationTuple, tuple[Polynomial, ...]]:
    """The symmetric tuple the witness lifts, and its scales q_i = D A_1i.

    Homogeneous f takes identity 4 of the module docstring from the n(n+1)/2
    cofactors of one Hessian, all expanded in the matrix's memo.  Each entry
    for m >= t is summed on the memo's packed keys, as three shifted copies
    of cofactors, A_1t x_m + A_1m x_t - x_1 A_tm, in one
    poly._packed_products, and unpacked once; only the n cofactors A_1t of
    the first row are read as Polynomials, through algebraic_cofactor, for
    the scales.  Weighted f symmetrizes the candidate of
    build_candidate_tuple.  Either way d_1(x_1) = W_1 x_1 A_11.
    """
    weights, degree = _weights_and_degree(f)
    if any(w != 1 for w in weights):
        candidate, cofactors, scales = build_candidate_tuple(f)
        return symmetrize(candidate, cofactors)[0], scales
    if f.min_degree() < 2:
        raise ValueError("symmetric tuple requires a polynomial singular at the origin")
    n = f.n
    hess = hessian(f)
    pairs = list(combinations_with_replacement(range(1, n + 1), 2))
    first_row = [algebraic_cofactor(hess, 1, t) for t in range(1, n + 1)]

    def without(i: int) -> tuple[int, ...]:
        return tuple(k for k in range(n) if k != i - 1)

    # M_tm, the minor without row t and column m, times the matrix's
    # denominator ** (n - 1); A_tm = (-1)^(t+m) M_tm
    packed = {(t, m): hess.packed_minor(without(t), without(m)).items() for t, m in pairs}
    x = [((hess.packing.pack(tuple(int(k == i) for k in range(n))), 1),) for i in range(n)]
    entry = {}
    for t, m in pairs:
        products = ((x[m - 1], packed[1, t], (-1) ** (1 + t)), (x[t - 1], packed[1, m], (-1) ** (1 + m)),
                    (x[0], packed[t, m], -(-1) ** (t + m)))
        entry[t, m] = entry[m, t] = hess.unpack(_packed_products(products), n - 1)
    ders = tuple(Derivation1(tuple(entry[t, m] for m in range(1, n + 1))) for t in range(1, n + 1))
    return DerivationTuple(ders, f), tuple(a.scale(degree) for a in first_row)


def scale_mismatches(tuple_in: DerivationTuple, scales: Sequence[Polynomial]) -> list[int]:
    """The j, from 1, with d_j(f) != q_j f for the tuple's derivations d_j
    and the n scales q_j.

    Each identity is tested exactly, as one sum_of_products that must be
    zero: sum_i f_i d_j(x_i) - q_j f, with the partials f_i taken once.
    """
    f, n = tuple_in.f, tuple_in.n
    partials = [f.partial(i) for i in range(1, n + 1)]
    minus_f = -f
    return [
        j for j, (d, q) in enumerate(zip(tuple_in.ders, scales), 1)
        if sum_of_products(n, [*((p, image) for p, image in zip(partials, d.images) if image), (q, minus_f)])
    ]


def second_order_part(tuple_in: DerivationTuple) -> dict[Exponent, Polynomial]:
    """c_(e_i + e_j) = d_i(x_j) for i <= j: the second-order coefficients of
    an operator whose extracted tuple (theta2_extract) is the symmetric
    tuple given."""
    n = tuple_in.n
    return {_pair_index(n, i, j): tuple_in.entry(i, j) for i, j in combinations_with_replacement(range(1, n + 1), 2)}


def closed_form_lift(
    tuple_in: DerivationTuple, scales: Sequence[Polynomial], weights: Sequence[int], degree: int
) -> DiffOp2:
    """The operator with second-order part the tuple, c_(e_i+e_j) = d_i(x_j),
    and first-order part the b_k of identity 3 of the module docstring, one
    sum_of_products for each k.

    Nothing is checked: the operator annihilates f when the tuple is
    symmetric, d_i(f) = q_i f for the given scales q_i, and f has the
    weights W and the weighted degree D given.
    """
    n = tuple_in.n
    coeffs = second_order_part(tuple_in)
    divergence = [q.partial(i) for i, q in enumerate(scales, 1)]
    half, minus_half = Polynomial.constant(n, Fraction(1, 2)), Polynomial.constant(n, Fraction(-1, 2))
    for k in range(1, n + 1):
        euler_part = Polynomial.variable(n, k).scale(Fraction(-weights[k - 1], 2 * degree))
        pairs = [(d, euler_part) for d in divergence]
        pairs.append((scales[k - 1], minus_half))
        pairs += [(tuple_in.entry(i, k).partial(i), half) for i in range(1, n + 1)]
        coeffs[_unit(n, k)] = sum_of_products(n, ((a, b) for a, b in pairs if a))
    return DiffOp2(n, coeffs)


def lift_to_diff2(tuple_in: DerivationTuple, scales: Sequence[Polynomial]) -> DiffOp2:
    """A second-order operator D with theta2_extract(D) equal to the tuple
    and D(f) = 0 on the nose: closed_form_lift with the given scales q_i
    and the weights of f, checked.

    f must be quasi-homogeneous and d_i(f) = q_i f must hold for every i
    (checked by multiplication), else ValueError; an operator that then
    fails to annihilate f is an engine bug, not an input error.  The
    witness builder does not call it: it records the tuple and the q_i,
    and the verifier forms D and checks both identities.
    """
    if not tuple_in.is_symmetric():
        raise ValueError("lifting requires a symmetric tuple")
    f = tuple_in.f
    weights, degree = _weights_and_degree(f)
    scales = tuple(scales)
    if len(scales) != tuple_in.n or scale_mismatches(tuple_in, scales):
        raise ValueError("lifting requires derivations that preserve (f) by the given scales")
    op = closed_form_lift(tuple_in, scales, weights, degree)
    if not op.apply(f).is_zero():
        raise InternalInconsistencyError("lifted operator does not annihilate f")
    return op
