"""Second-order operator constructions that the tests check the witness
against.

The witness construction never composes derivations, shifts an operator
or forms these ideals; the tests do, to check what it builds from the
outside.  ``compose2`` gives the compositions whose d_1(x_1) entries lie
in the square ideal (point 3 of the ``pipeline`` docstring),
``add_scaled`` and ``scale_operator`` form the expected combinations of
derivations and operators, ``shift`` cross-checks ``theta2_extract``,
``verify_order2_identity`` checks the defining identity of an operator
of order 2 on a lift, the square ideal is the membership target that the
socle lemma replaced, and the modified Jacobian ideals are the
zero-dimensional systems of the Saito criterion tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

from nakai_forge.derivations import Derivation1, DiffOp2
from nakai_forge.groebner import Ideal
from nakai_forge.poly import Exponent, Polynomial, sum_of_products


def _index(n: int, *variables: int) -> Exponent:
    """The multi-index e_i + e_j + ... of the given 0-based variables."""
    e = [0] * n
    for i in variables:
        e[i] += 1
    return tuple(e)


def compose2(first: Derivation1, second: Derivation1) -> DiffOp2:
    """The coefficient map of the composition (first after second) as an order-2 operator.

    With a_i = first(x_i), b_i = second(x_i):
      c_(e_j)       = first(b_j)
      c_(e_i + e_j) = a_i b_j + a_j b_i   (i < j)
      c_(2 e_i)     = 2 a_i b_i
    """
    if first.n != second.n:
        raise ValueError("variable-count mismatch")
    n = first.n
    a, b = first.images, second.images
    coeffs = {_index(n, j): first.apply(b[j]) for j in range(n)}
    for i, j in combinations_with_replacement(range(n), 2):
        coeffs[_index(n, i, j)] = sum_of_products(n, ((a[i], b[j]), (a[j], b[i])))
    return DiffOp2(n, coeffs)  # drops the zero coefficients


def add_scaled(d: Derivation1, coeff: Polynomial, other: Derivation1) -> Derivation1:
    """d + coeff * other, componentwise."""
    if other.n != d.n:
        raise ValueError("variable-count mismatch between derivations")
    return Derivation1(tuple(a + coeff * b for a, b in zip(d.images, other.images)))


def scale_operator(op: DiffOp2, s: Fraction | int) -> DiffOp2:
    """The operator with every coefficient multiplied by s."""
    return DiffOp2(op.n, {a: c.scale(s) for a, c in op.coeffs.items()})


def shift(op: DiffOp2, beta: Sequence[int]) -> DiffOp2:
    """The operator with coefficient map alpha -> c_(alpha + beta).

    Drops the order by |beta|; the order-zero slot of the result picks up
    c_beta itself.
    """
    beta = tuple(beta)
    if len(beta) != op.n or any(b < 0 for b in beta):
        raise ValueError(f"bad shift index {beta}")
    if sum(beta) > 2:
        raise ValueError("shift index exceeds the operator order bound")
    out: dict[Exponent, Polynomial] = {}
    for alpha, c in op.coeffs.items():
        if all(a >= b for a, b in zip(alpha, beta)):
            out[tuple(a - b for a, b in zip(alpha, beta))] = c
    return DiffOp2(op.n, out)


def verify_order2_identity(
    op: DiffOp2,
    triples: Iterable[tuple[Polynomial, Polynomial, Polynomial]],
) -> bool:
    """Check the defining second-order identity on each sampled triple:

    D(p q r) = p D(q r) + q D(p r) + r D(p q)
             - (q r D(p) + p r D(q) + p q D(r)).
    """
    for p, q, r in triples:
        rhs = sum_of_products(op.n, (
            (p, op.apply(q * r)), (q, op.apply(p * r)), (r, op.apply(p * q)),
            (-(q * r), op.apply(p)), (-(p * r), op.apply(q)), (-(p * q), op.apply(r)),
        ))
        if op.apply(p * q * r) != rhs:
            return False
    return True


def modified_jacobian_ideal(f: Polynomial, i: int) -> Ideal:
    """(f_1, ..., f_{i-1}, x_i^2, f_{i+1}, ..., f_n)."""
    gens = [f.partial(k) for k in range(1, f.n + 1)]
    gens[i - 1] = Polynomial.variable(f.n, i) ** 2
    return Ideal(tuple(gens))


def square_obstruction_ideal(f: Polynomial, i: int) -> Ideal:
    """(f_1, ..., x_i, ..., f_n)^2, expanded into pairwise products."""
    base = [f.partial(k) for k in range(1, f.n + 1)]
    base[i - 1] = Polynomial.variable(f.n, i)
    products = [base[a] * base[b] for a in range(f.n) for b in range(a, f.n)]
    return Ideal(tuple(products))
