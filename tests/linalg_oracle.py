"""Independent ideal-membership oracle for homogeneous generators.

Decides p in (g_1,...,g_m) degree slice by degree slice: each homogeneous
component of p of degree D must be a rational combination of the monomial
multiples of the generators of degree D.  Uses only polynomial arithmetic
and its own Gaussian elimination; shares no code with the basis engine it
cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from nakai_forge.poly import Polynomial, monomials_of_degree


def membership_oracle(p: Polynomial, gens: Sequence[Polynomial]) -> bool:
    gens = [g for g in gens if not g.is_zero()]
    for g in gens:
        if g.homogeneous_degree() is None:
            raise ValueError("oracle requires homogeneous generators")
    if p.is_zero():
        return True
    for degree in sorted({sum(e) for e in p.terms}):
        component = Polynomial(p.n, {e: c for e, c in p.terms.items() if sum(e) == degree})
        if not _slice_member(component, gens, degree):
            return False
    return True


def _slice_member(component: Polynomial, gens: Sequence[Polynomial], degree: int) -> bool:
    n = component.n
    columns = []
    for g in gens:
        dg = g.homogeneous_degree()
        if dg > degree:
            continue
        for mono in monomials_of_degree(n, degree - dg):
            columns.append(g.mul_monomial(mono))
    basis = monomials_of_degree(n, degree)
    index = {m: r for r, m in enumerate(basis)}
    matrix = [[Fraction(0)] * len(columns) for _ in basis]
    for c, col in enumerate(columns):
        for exp, coeff in col.terms.items():
            matrix[index[exp]][c] = coeff
    target = [component.coefficient(m) for m in basis]
    return _consistent(matrix, target)


def _consistent(matrix: list[list[Fraction]], target: list[Fraction]) -> bool:
    """Whether matrix * x = target has a solution, by Gaussian elimination."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [row[:] + [target[r]] for r, row in enumerate(matrix)]
    pivot_row = 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, rows) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[pivot_row], aug[pivot] = aug[pivot], aug[pivot_row]
        pv = aug[pivot_row][col]
        for r in range(rows):
            if r != pivot_row and aug[r][col]:
                factor = Fraction(aug[r][col]) / pv  # ints would divide to a float
                for c in range(col, cols + 1):
                    aug[r][c] -= factor * aug[pivot_row][c]
        pivot_row += 1
        if pivot_row == rows:
            break
    return not any(
        all(aug[r][c] == 0 for c in range(cols)) and aug[r][cols] != 0
        for r in range(rows)
    )


def monomial_ideal_member(p: Polynomial, monomial_exponents) -> bool:
    """Membership in a monomial ideal is termwise divisibility."""
    return all(
        any(all(g <= e for g, e in zip(gen, exp)) for gen in monomial_exponents)
        for exp in p.terms
    )
