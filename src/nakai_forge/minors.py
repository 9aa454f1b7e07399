"""Polynomial matrices: Hessians, exact determinants, signed minors.

The signed generalized minor deletes k rows and k columns and carries the
sign (-1)^(tau(row permutation) + tau(column permutation)), where each
deletion list is completed to a full permutation by appending the
remaining indices in increasing order.  The value is independent of the
completion and antisymmetric in the deleted row (or column) lists; for
k = 1 it is the classical algebraic cofactor (-1)^(i+j) M_ij.

Every determinant and minor of a matrix is read from one memo that the
matrix keeps (PolyMatrix.minor): a minor is keyed by its remaining rows and
columns and expanded along its first remaining row into minors that the
memo already holds, so each is expanded once per matrix.

All indices are 1-based.  Hessian entries are the plain second partials
d^2 f / dx_i dx_j, with no divided-power factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .poly import Polynomial, quasi_homogeneous_weights, sum_of_products

# Laplace expansion over row and column subsets is exponential in the size
# of the minor expanded; the cap bounds that size.
MAX_DETERMINANT_DIM = 6


class PolyMatrix:
    """Immutable square matrix of polynomials sharing one variable count."""

    __slots__ = ("entries", "m", "nvars", "_minors")

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
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_minors", {})

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def entry(self, i: int, j: int) -> Polynomial:
        """Entry in row i, column j (1-based)."""
        if not (1 <= i <= self.m and 1 <= j <= self.m):
            raise IndexError(f"entry ({i},{j}) out of range 1..{self.m}")
        return self.entries[i - 1][j - 1]

    def minor(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
        """Determinant of the sub-matrix on the given rows and columns
        (0-based, increasing), expanded on first use and kept in the memo."""
        value = self._minors.get((rows, cols))
        if value is None:
            value = self._minors[rows, cols] = _expand(self, rows, cols)
        return value

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries and self.nvars == other.nvars

    __hash__ = None


@dataclass(frozen=True)
class MinorSpec:
    """Rows and columns to delete (1-based, distinct within each list)."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        if len(self.rows) != len(self.cols):
            raise ValueError("must delete as many rows as columns")
        if len(set(self.rows)) != len(self.rows):
            raise ValueError(f"repeated row index in {self.rows}")
        if len(set(self.cols)) != len(self.cols):
            raise ValueError(f"repeated column index in {self.cols}")


def hessian(f: Polynomial) -> PolyMatrix:
    """The symmetric matrix of plain second partials of f."""
    firsts = [f.partial(i) for i in range(1, f.n + 1)]
    return PolyMatrix(
        [[firsts[i].partial(j + 1) for j in range(f.n)] for i in range(f.n)],
        nvars=f.n,
    )


def _expand(matrix: PolyMatrix, rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
    """Laplace step along the first remaining row: the sum of
    (-1)^pos a_(row, col) times the minor without that row and column."""
    if len(rows) > MAX_DETERMINANT_DIM:
        raise ValueError(f"determinant dimension {len(rows)} exceeds the supported cap {MAX_DETERMINANT_DIM}")
    if not rows:
        return Polynomial.constant(matrix.nvars, 1)
    row, rest = matrix.entries[rows[0]], rows[1:]
    return sum_of_products(matrix.nvars, (
        (row[col] if pos % 2 == 0 else -row[col], matrix.minor(rest, cols[:pos] + cols[pos + 1:]))
        for pos, col in enumerate(cols) if row[col]
    ))


def determinant(matrix: PolyMatrix) -> Polynomial:
    """Exact determinant, the memoized minor on every row and column."""
    full = tuple(range(matrix.m))
    return matrix.minor(full, full)


def inversion_number(perm: Sequence[int]) -> int:
    """Number of inverted pairs of a permutation of 1..n."""
    p = list(perm)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"{p} is not a permutation of 1..{len(p)}")
    return sum(1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b])


def signed_minor(matrix: PolyMatrix, spec: MinorSpec) -> Polynomial:
    """Signed generalized complementary minor for the given deletions."""
    m = matrix.m
    for idx in spec.rows + spec.cols:
        if not 1 <= idx <= m:
            raise IndexError(f"index {idx} out of range 1..{m}")
    row_rest = sorted(set(range(1, m + 1)) - set(spec.rows))
    col_rest = sorted(set(range(1, m + 1)) - set(spec.cols))
    sign = (-1) ** (
        inversion_number(list(spec.rows) + row_rest)
        + inversion_number(list(spec.cols) + col_rest)
    )
    det = matrix.minor(tuple(r - 1 for r in row_rest), tuple(c - 1 for c in col_rest))
    return det if sign > 0 else -det


def algebraic_cofactor(matrix: PolyMatrix, i: int, j: int) -> Polynomial:
    """Classical cofactor (-1)^(i+j) * complementary minor of entry (i, j);
    agrees with signed_minor on ((i,),(j,))."""
    m = matrix.m
    if not (1 <= i <= m and 1 <= j <= m):
        raise IndexError(f"cofactor index ({i},{j}) out of range 1..{m}")
    det = matrix.minor(tuple(r for r in range(m) if r != i - 1), tuple(c for c in range(m) if c != j - 1))
    return det if (i + j) % 2 == 0 else -det


def _minor_or_zero(matrix: PolyMatrix, rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
    # repeated deletion indices make the minor zero by antisymmetry
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        return Polynomial.zero(matrix.nvars)
    return signed_minor(matrix, MinorSpec(rows, cols))


def cofactor_identity_terms(
    hess: PolyMatrix, weights: Sequence[int], degree: int, i: int, j: int, k: int
) -> list[Polynomial]:
    """The coefficients c_l of the right-hand side sum_l c_l f_l of the
    weighted cofactor identity (see verify_cofactor_identity):
    c_l = (D - W_l) A_[l,i,j,k] for l != j, and c_j = 0."""
    return [
        Polynomial.zero(hess.nvars) if l == j
        else _minor_or_zero(hess, (l, j), (i, k)).scale(degree - weights[l - 1])
        for l in range(1, hess.m + 1)
    ]


def verify_cofactor_identity(f: Polynomial, i: int, j: int, k: int) -> tuple[bool, Polynomial]:
    """Check the weighted cofactor identity for quasi-homogeneous f:

        W_i x_i A_jk - W_k x_k A_ji = sum_{l != j} (D - W_l) f_l A_[l,i,j,k]

    with W, D from quasi_homogeneous_weights(f); for homogeneous f of degree
    d this reads x_i A_jk - x_k A_ji = (d-1) * sum_{l != j} f_l A_[l,i,j,k].
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
    found = quasi_homogeneous_weights(f)
    if found is None:
        raise ValueError("identity is stated for quasi-homogeneous polynomials with unique weights only")
    weights, degree = found
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
