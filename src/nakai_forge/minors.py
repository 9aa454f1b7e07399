"""Polynomial matrices: Jacobian matrices and Hessians, exact
determinants, signed minors.

The signed generalized minor deletes the rows r_1, ..., r_k and the
columns c_1, ..., c_k, in the order listed, and is the minor on the
remaining rows and columns times
(-1)^(inv(r) + inv(c) + r_1 + ... + r_k + c_1 + ... + c_k), where inv
counts the inverted pairs of a list.  This is the sign
(-1)^(tau(row permutation) + tau(column permutation)) of the deletion
lists completed to full permutations by the remaining indices in
increasing order: the completion adds sum(r) - k - k(k-1)/2 inversions to
inv(r), and the same terms in k to inv(c); any other completion order
gives the same value.  The value is antisymmetric in the deleted row (or
column) lists; for k = 1 it is the classical algebraic cofactor
(-1)^(i+j) M_ij.

Every determinant and minor of a matrix is read from one memo that the
matrix keeps (PolyMatrix.minor): a minor is keyed by its remaining rows and
columns and expanded along its first remaining row into minors that the
memo already holds, so each is expanded once per matrix.  The memo holds
packed integer terms (poly._Packing; Monagan and Pearce 2007) under one
packing per matrix, whose fields hold m times the largest entry degree
(a constant matrix counting as degree 1, so that symmetric_tuple's
minors times a variable fit as well).
The expansion is fraction-free: it runs on the entries times the lcm D of
their denominators, each Laplace step one poly._packed_products, so a
minor of k rows is held times D^k.  A read (PolyMatrix.minor) unpacks
the minor once and divides it by D^k.

All indices are 1-based.  jacobian_matrix is the one builder of a matrix
of partials: the Hessian of f is the Jacobian matrix of its gradient, so
its entries are the plain second partials d^2 f / dx_i dx_j, with no
divided-power factor.  It builds the witness builder's Hessian, the
verifier's Hess(h) and the matrix of ``pipeline.saito_check``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .poly import GREVLEX, Polynomial, _packed_products, _Packing, _weights_and_degree, sum_of_products

# Laplace expansion over row and column subsets is exponential in the size
# of the minor expanded; the cap bounds that size.
MAX_DETERMINANT_DIM = 6


class PolyMatrix:
    """Immutable square matrix of polynomials sharing one variable count.

    Its minors are expanded on packed integer keys (the module docstring):
    ``packing`` is one grevlex _Packing whose fields hold m times the
    largest entry degree, at least 1, so every minor fits, and so does a
    minor of fewer than m rows times a variable; ``denominator`` is the lcm
    of the entry denominators.
    """

    __slots__ = ("entries", "m", "nvars", "packing", "denominator", "_packed", "_minors")

    def __init__(self, entries: Sequence[Sequence[Polynomial]], nvars: int | None = None):
        rows = tuple(tuple(row) for row in entries)
        m = len(rows)
        if any(len(row) != m for row in rows):
            raise ValueError("matrix must be square")
        seen = {p.n for row in rows for p in row}
        if len(seen) > 1:
            raise ValueError(f"matrix entries have mixed variable counts {sorted(seen)}")
        if nvars is None:
            if not seen:
                raise ValueError("variable count required for an empty matrix")
            nvars = seen.pop()
        elif seen and seen.pop() != nvars:
            raise ValueError("entries disagree with the stated variable count")
        split = [[p.integer_terms() for p in row] for row in rows]
        denominator = math.lcm(*(d for row in split for d, _ in row))
        degree = max((sum(e) for row in rows for p in row for e in p.terms), default=0)
        packing = _Packing(GREVLEX, nvars, m * max(degree, 1))
        packed = tuple(tuple([(packing.pack(e), c * (denominator // d)) for e, c in terms] for d, terms in row)
                       for row in split)
        for name, value in (("entries", rows), ("m", m), ("nvars", nvars), ("packing", packing),
                            ("denominator", denominator), ("_packed", packed), ("_minors", {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def entry(self, i: int, j: int) -> Polynomial:
        """Entry in row i, column j (1-based)."""
        if not (1 <= i <= self.m and 1 <= j <= self.m):
            raise IndexError(f"entry ({i},{j}) out of range 1..{self.m}")
        return self.entries[i - 1][j - 1]

    def packed_minor(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> dict[int, int]:
        """The memo's value for the sub-matrix on the given rows and columns
        (0-based, increasing): the packed integer terms of its determinant
        times ``denominator`` ** len(rows), expanded on first use."""
        value = self._minors.get((rows, cols))
        if value is None:
            value = self._minors[rows, cols] = _expand(self, rows, cols)
        return value

    def unpack(self, terms: dict[int, int], size: int) -> Polynomial:
        """The Polynomial of packed integer terms over ``denominator`` ** size,
        with canonical coefficients; zero sums are dropped."""
        unpack, d = self.packing.unpack, self.denominator ** size
        if d == 1:
            return Polynomial._raw(self.nvars, {unpack(k): c for k, c in terms.items() if c})
        return Polynomial._raw(self.nvars, {unpack(k): Fraction(c, d) if c % d else c // d
                                            for k, c in terms.items() if c})

    def minor(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
        """Determinant of the sub-matrix on the given rows and columns
        (0-based, increasing), read from the memo and unpacked."""
        return self.unpack(self.packed_minor(rows, cols), len(rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries and self.nvars == other.nvars

    __hash__ = None


def jacobian_matrix(gens: Sequence[Polynomial]) -> PolyMatrix:
    """The matrix of partials d g_i / dx_j of n polynomials in n variables;
    the empty matrix for none."""
    n = len(gens)
    if any(g.n != n for g in gens):
        raise ValueError(f"need {n} polynomials in {n} variables")
    return PolyMatrix([[g.partial(j) for j in range(1, n + 1)] for g in gens], nvars=n)


def hessian(f: Polynomial) -> PolyMatrix:
    """The symmetric matrix of plain second partials of f: the Jacobian
    matrix of its gradient."""
    return jacobian_matrix([f.partial(i) for i in range(1, f.n + 1)])


def _expand(matrix: PolyMatrix, rows: tuple[int, ...], cols: tuple[int, ...]) -> dict[int, int]:
    """Laplace step along the first remaining row, on the packed integer
    entries: the sum of (-1)^pos a_(row, col) times the minor without that
    row and column, with no zero sum kept."""
    if len(rows) > MAX_DETERMINANT_DIM:
        raise ValueError(f"determinant dimension {len(rows)} exceeds the supported cap {MAX_DETERMINANT_DIM}")
    if not rows:
        return {0: 1}  # the key of the monomial 1
    row, rest = matrix._packed[rows[0]], rows[1:]
    acc = _packed_products(
        (row[col], matrix.packed_minor(rest, cols[:pos] + cols[pos + 1:]).items(), -1 if pos % 2 else 1)
        for pos, col in enumerate(cols) if row[col]
    )
    return {k: c for k, c in acc.items() if c}


def determinant(matrix: PolyMatrix) -> Polynomial:
    """Exact determinant, the memoized minor on every row and column."""
    full = tuple(range(matrix.m))
    return matrix.minor(full, full)


def signed_minor(matrix: PolyMatrix, rows: Sequence[int], cols: Sequence[int]) -> Polynomial:
    """Signed generalized complementary minor for equally long deletion
    lists, each of distinct indices (see the module docstring)."""
    if len(rows) != len(cols):
        raise ValueError("must delete as many rows as columns")
    parity = 0
    for kind, deleted in (("row", rows), ("column", cols)):
        if len(set(deleted)) != len(deleted):
            raise ValueError(f"repeated {kind} index in {tuple(deleted)}")
        if not all(1 <= idx <= matrix.m for idx in deleted):
            raise IndexError(f"{kind} indices {tuple(deleted)} out of range 1..{matrix.m}")
        parity += sum(deleted) + sum(a > b for a, b in itertools.combinations(deleted, 2))
    det = matrix.minor(*(tuple(r for r in range(matrix.m) if r + 1 not in deleted) for deleted in (rows, cols)))
    return -det if parity % 2 else det


def algebraic_cofactor(matrix: PolyMatrix, i: int, j: int) -> Polynomial:
    """Classical cofactor (-1)^(i+j) * complementary minor of entry (i, j)."""
    return signed_minor(matrix, (i,), (j,))


def cofactor_identity_terms(
    hess: PolyMatrix, weights: Sequence[int], degree: int, i: int, j: int, k: int
) -> list[Polynomial]:
    """The coefficients c_l of the right-hand side sum_l c_l f_l of the
    weighted cofactor identity (see verify_cofactor_identity):
    c_l = (D - W_l) A_[l,i,j,k] for l != j, and c_j = 0; all are zero for
    i = k, where A_[l,i,j,i] deletes column i twice."""
    zero = Polynomial.zero(hess.nvars)
    return [
        zero if l == j or i == k else signed_minor(hess, (l, j), (i, k)).scale(degree - weights[l - 1])
        for l in range(1, hess.m + 1)
    ]


def verify_cofactor_identity(f: Polynomial, i: int, j: int, k: int) -> tuple[bool, Polynomial]:
    """Check the weighted cofactor identity for quasi-homogeneous f:

        W_i x_i A_jk - W_k x_k A_ji = sum_{l != j} (D - W_l) f_l A_[l,i,j,k]

    with W, D from quasi_homogeneous_weights(f), and ValueError without
    unique weights; for homogeneous f of degree d this reads
    x_i A_jk - x_k A_ji = (d-1) * sum_{l != j} f_l A_[l,i,j,k].
    A_[l,i,j,k] deletes rows (l, j) and columns (i, k) of the Hessian.

    Why it holds: differentiating E_W(f) = D f by x_l gives
    sum_m W_m x_m f_lm = (D - W_l) f_l, so the vector v = (W_m x_m) solves
    H' v = r, where H' is the Hessian without row j and r_l = (D - W_l) f_l.
    Cramer's rule on the columns of H' other than i, with column k replaced
    by r - v_i H'_i, gives the identity; expanding along the replaced column
    yields the right-hand side.  So A_ji W_k x_k - A_jk W_i x_i lies in
    (f_l : l != j), the 2x2 alternation of the maximal minors of H'.

    Returns (holds, residual); the residual is LHS - RHS and must be zero.
    """
    weights, degree = _weights_and_degree(f)
    n = f.n
    for idx in (i, j, k):
        if not 1 <= idx <= n:
            raise IndexError(f"index {idx} out of range 1..{n}")
    if i == k:
        return True, Polynomial.zero(n)
    hess = hessian(f)
    terms = cofactor_identity_terms(hess, weights, degree, i, j, k)
    residual = sum_of_products(n, [
        (Polynomial.variable(n, i).scale(weights[i - 1]), algebraic_cofactor(hess, j, k)),
        (Polynomial.variable(n, k).scale(-weights[k - 1]), algebraic_cofactor(hess, j, i)),
        *((-f.partial(l), c) for l, c in enumerate(terms, 1) if c),
    ])
    return residual.is_zero(), residual
