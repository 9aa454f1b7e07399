"""Shared test helpers: seeded random polynomial generators, and the new
coordinates of a witness certificate."""

from __future__ import annotations

import random
from fractions import Fraction

from nakai_forge.derivations import (
    Derivation1,
    DerivationTuple,
    euler_derivation,
    hamiltonian,
)
from nakai_forge.exprio import parse_fraction, parse_poly
from nakai_forge.groebner import is_isolated_singularity
from nakai_forge.minors import PolyMatrix, algebraic_cofactor, determinant, hessian
from nakai_forge.pipeline import _new_variables, slice_images, substitute_slice
from nakai_forge.poly import Polynomial, monomials_of_degree
from operator_reference import add_scaled


def random_polynomial(rng: random.Random, n: int, max_degree: int,
                      max_terms: int = 6, coeff_bound: int = 5) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_degree) for _ in range(n))
        if sum(exp) > max_degree:
            continue
        terms[exp] = terms.get(exp, Fraction(0)) + Fraction(
            rng.randint(-coeff_bound, coeff_bound), rng.randint(1, 3)
        )
    return Polynomial(n, terms)


def random_nonzero(rng: random.Random, n: int, max_degree: int, **kw) -> Polynomial:
    while True:
        p = random_polynomial(rng, n, max_degree, **kw)
        if not p.is_zero():
            return p


def random_homogeneous(rng: random.Random, n: int, degree: int,
                       coeff_bound: int = 3) -> Polynomial:
    while True:
        terms = {
            e: Fraction(rng.randint(-coeff_bound, coeff_bound))
            for e in monomials_of_degree(n, degree)
        }
        p = Polynomial(n, terms)
        if not p.is_zero():
            return p


def random_linear_images(rng: random.Random, n: int, bound: int) -> list[Polynomial]:
    """The images x_i -> sum_j c_ij y_j of a random invertible linear change
    of coordinates, with integer entries c_ij in [-bound, bound]."""
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if not determinant(PolyMatrix([[Polynomial.constant(n, c) for c in row] for row in rows])).is_zero():
            return [sum((Polynomial.variable(n, j).scale(c) for j, c in enumerate(row, 1)), Polynomial.zero(n))
                    for row in rows]


def random_isolated(rng: random.Random, n: int, degree: int,
                    coeff_bound: int = 3) -> Polynomial:
    """A random homogeneous polynomial with an isolated singularity."""
    while True:
        p = random_homogeneous(rng, n, degree, coeff_bound)
        if is_isolated_singularity(p):
            return p


def random_isolated_quasi_homogeneous(rng: random.Random, weights, degree: int,
                                      coeff_bound: int = 3) -> Polynomial:
    """A random isolated singularity of the given weights and weighted degree.

    Each weight must divide the degree; the pure powers x_i^(D/W_i) get
    nonzero coefficients, which fixes the weights uniquely.
    """
    n = len(weights)
    pure = {
        tuple(degree // w if k == i else 0 for k in range(n))
        for i, w in enumerate(weights)
    }
    while True:
        terms = {}
        for e in monomials_of_degree(n, degree, weights):
            c = rng.randint(-coeff_bound, coeff_bound)
            if e in pure and c == 0:
                c = rng.choice((-1, 1))
            terms[e] = Fraction(c)
        p = Polynomial(n, terms)
        if is_isolated_singularity(p):
            return p


def random_compatible_tuple(rng: random.Random, f: Polynomial) -> DerivationTuple:
    """A random tuple whose pairwise defects lie in the Jacobian ideal and
    whose members all preserve (f).

    Built as d_i = p_i * E + (Hamiltonian combinations) + (multiples of f),
    where the Euler coefficients p_i = h*x_i + q*A_1i come from the two
    families with defects provably inside the Jacobian ideal.
    """
    n = f.n
    euler = euler_derivation(n)
    h = random_polynomial(rng, n, 1, max_terms=3, coeff_bound=2)
    q = random_polynomial(rng, n, 1, max_terms=2, coeff_bound=2)
    hess = hessian(f)
    ders = []
    for i in range(1, n + 1):
        p_i = h * Polynomial.variable(n, i) + q * algebraic_cofactor(hess, 1, i)
        d = Derivation1(tuple(p_i * img for img in euler.images))
        for _ in range(rng.randint(0, 2)):
            k = rng.randint(1, n)
            l = rng.randint(1, n)
            if k == l:
                continue
            d = add_scaled(
                d, random_polynomial(rng, n, 1, max_terms=2, coeff_bound=2),
                hamiltonian(f, k, l),
            )
        if rng.random() < 0.5:
            images = list(d.images)
            j = rng.randrange(n)
            images[j] = images[j] + random_polynomial(rng, n, 1, max_terms=2, coeff_bound=2) * f
            d = Derivation1(tuple(images))
        ders.append(d)
    return DerivationTuple(tuple(ders), f)


def lifted_defect_cofactors(t: DerivationTuple, gb) -> dict:
    """For each pair i < j, gb.lift of the tuple's defect d_i(x_j) - d_j(x_i)
    over the Jacobian basis gb: the generic cofactors symmetrize takes."""
    return {
        (i, j): gb.lift(t.defect(i, j))
        for i in range(1, t.n + 1)
        for j in range(i + 1, t.n + 1)
    }


def slice_coordinates(document: dict) -> tuple[Polynomial, list[str]]:
    """g = f(x(y)) and the names y1..yn of a witness certificate, derived as
    the verifier derives them: the certificate records neither."""
    info = document["input"]
    f = parse_poly(info["polynomial"], info["variables"])
    coefficients = [parse_fraction(c) for c in document["change_of_coordinates"]["slice_coefficients"]]
    return substitute_slice(slice_images(coefficients, f.n), f), _new_variables(f.n)
