"""Plain-Fraction reference versions of the exact kernels.

These are the term-by-term loops that the exact kernels replaced:
the ascending sort key of a ``MonomialOrder`` (a nested tuple under
grevlex) that ``MonomialOrder.descending_key`` replaced,
``Polynomial.__mul__`` with one Fraction operation per term,
``Polynomial.substitute_variables`` term by term, the binomial formula for
``Polynomial.higher_partial``,
``groebner._divide_tracked`` with a scan for the largest term and a
division by the leading coefficient at every step (the kernel divides by
monic divisors, on packed monomials), the same division modulo a prime on
exponent tuples, the Leibniz sum for ``minors.determinant``, a plain
Laplace expansion on exponent tuples for every minor of the packed memo
of ``minors.PolyMatrix``, the move-by-move fold for ``derivations.replay_ledger``, the
character-by-character tokenizer of ``exprio``, and the recursive walk of
the standard monomials that ``GroebnerBasis.standard_monomials`` (a filter
of the box below its ``pure_powers``) replaced.  They share no arithmetic
with the kernels they check; ``tests/test_kernels.py`` requires exactly
equal results.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from nakai_forge.derivations import Derivation1, DerivationTuple, hamiltonian
from nakai_forge.exprio import ParseError
from nakai_forge.groebner import ResourceLimitExceeded
from nakai_forge.minors import PolyMatrix
from nakai_forge.poly import Exponent, MonomialOrder, Polynomial


def reference_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    out: dict[Exponent, Fraction] = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            c = out.get(exp, Fraction(0)) + c1 * c2
            if c:
                out[exp] = c
            else:
                out.pop(exp, None)
    return Polynomial(a.n, out)


def reference_order_key(order: MonomialOrder, e: Exponent):
    """Sort key: larger for the larger monomial of the order."""
    if order.kind == "lex":
        return e
    # grevlex: smaller exponent on the least significant variable wins ties
    return (sum(e), tuple(-a for a in reversed(e)))


def reference_substitute(f: Polynomial, images: Sequence[Polynomial]) -> Polynomial:
    """f(images) term by term: each term's coefficient times its images,
    one reference_mul per factor x_i, with no power formed twice or by
    squaring, and the terms summed one by one."""
    m = images[0].n
    total = Polynomial.zero(m)
    for exp, coeff in f.terms.items():
        term = Polynomial.constant(m, coeff)
        for image, e in zip(images, exp):
            for _ in range(e):
                term = reference_mul(term, image)
        total = total + term
    return total


def reference_higher_partial(p: Polynomial, alpha: Sequence[int]) -> Polynomial:
    """The divided-power derivative term by term: x^g goes to
    prod(binomial(g_i, alpha_i)) * x^(g - alpha), and a term with some
    g_i < alpha_i vanishes."""
    out: dict[Exponent, Fraction] = {}
    for exp, coeff in p.terms.items():
        if any(e < a for e, a in zip(exp, alpha)):
            continue
        binom = 1
        for e, a in zip(exp, alpha):
            binom *= math.comb(e, a)
        key = tuple(e - a for e, a in zip(exp, alpha))
        c = out.get(key, Fraction(0)) + coeff * binom
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return Polynomial(p.n, out)


def reference_determinant(matrix: PolyMatrix) -> Polynomial:
    """Leibniz sum of sign(perm) * prod_r a_(r, perm(r)) over all permutations."""
    total = Polynomial.zero(matrix.nvars)
    for perm in permutations(range(matrix.m)):
        inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b])
        term = Polynomial.constant(matrix.nvars, (-1) ** inversions)
        for r, c in enumerate(perm):
            term = reference_mul(term, matrix.entries[r][c])
        total = total + term
    return total


def reference_minor(matrix: PolyMatrix, rows: Sequence[int], cols: Sequence[int]) -> Polynomial:
    """The determinant of the sub-matrix on the rows and columns (0-based,
    increasing) by Laplace expansion along its first row, term by term on
    exponent tuples with Fraction coefficients."""
    if not rows:
        return Polynomial.constant(matrix.nvars, 1)
    total = Polynomial.zero(matrix.nvars)
    for pos, col in enumerate(cols):
        term = reference_mul(matrix.entries[rows[0]][col], reference_minor(matrix, rows[1:], cols[:pos] + cols[pos + 1:]))
        total = total - term if pos % 2 else total + term
    return total


def reference_replay(tuple_in: DerivationTuple, ledger) -> DerivationTuple:
    """The moves folded in order: d_target += coeff * D_kl, image by image."""
    ders = [list(d.images) for d in tuple_in.ders]
    for move in ledger:
        images = ders[move.target - 1]
        for m, h in enumerate(hamiltonian(tuple_in.f, move.k, move.l).images):
            images[m] = images[m] + reference_mul(move.coeff, h)
    return DerivationTuple(tuple(Derivation1(tuple(d)) for d in ders), tuple_in.f)


def reference_divide(
    p: Polynomial,
    divisors: Sequence[Polynomial],
    leading: Sequence[tuple[Exponent, Fraction]],
    order: MonomialOrder,
    max_terms: int,
) -> tuple[list[Polynomial], Polynomial]:
    """Division taking the largest working term by a scan on every step."""
    n = p.n
    work = dict(p.terms)
    quotients = [dict() for _ in divisors]
    remainder: dict[Exponent, Fraction] = {}
    while work:
        exp = min(work, key=order.descending_key)
        coeff = work.pop(exp)
        for k, (lm, lc) in enumerate(leading):
            if all(x <= y for x, y in zip(lm, exp)):
                shift = tuple(x - y for x, y in zip(exp, lm))
                factor = Fraction(coeff) / lc  # ints would divide to a float
                q = quotients[k]
                q[shift] = q.get(shift, Fraction(0)) + factor
                if not q[shift]:
                    del q[shift]
                for dexp, dcoeff in divisors[k].terms.items():
                    if dexp == lm:
                        continue
                    key = tuple(a + b for a, b in zip(dexp, shift))
                    c = work.get(key, Fraction(0)) - factor * dcoeff
                    if c:
                        work[key] = c
                    else:
                        work.pop(key, None)
                if len(work) > max_terms:
                    raise ResourceLimitExceeded(
                        f"intermediate polynomial exceeded {max_terms} terms during division"
                    )
                break
        else:
            remainder[exp] = coeff
    return [Polynomial(n, q) for q in quotients], Polynomial(n, remainder)


def reference_divide_mod(
    p: dict[Exponent, int],
    divisors: Sequence[dict[Exponent, int]],
    order: MonomialOrder,
    modulus: int,
) -> tuple[list[dict[Exponent, int]], dict[Exponent, int]]:
    """Division of integer terms modulo a prime by monic divisors, taking
    the largest working term by a scan on every step; every coefficient
    kept is reduced to [1, p)."""
    work = {e: c % modulus for e, c in p.items() if c % modulus}
    leading = [min(g, key=order.descending_key) for g in divisors]
    quotients: list[dict[Exponent, int]] = [dict() for _ in divisors]
    remainder: dict[Exponent, int] = {}
    while work:
        exp = min(work, key=order.descending_key)
        coeff = work.pop(exp)
        for k, lm in enumerate(leading):
            if all(x <= y for x, y in zip(lm, exp)):
                shift = tuple(x - y for x, y in zip(exp, lm))
                q = quotients[k]
                q[shift] = (q.get(shift, 0) + coeff) % modulus
                if not q[shift]:
                    del q[shift]
                for dexp, dcoeff in divisors[k].items():
                    if dexp == lm:
                        continue
                    key = tuple(a + b for a, b in zip(dexp, shift))
                    c = (work.get(key, 0) - coeff * dcoeff) % modulus
                    if c:
                        work[key] = c
                    else:
                        work.pop(key, None)
                break
        else:
            remainder[exp] = coeff
    return quotients, remainder


def reference_standard_monomials(lms: Sequence[Exponent], n: int) -> list[Exponent]:
    """The monomials outside the ideal of the leading monomials ``lms``: a
    recursive walk of the box below each variable's least pure power
    (ValueError if a variable has none)."""
    bounds = []
    for i in range(n):
        pure = [lm[i] for lm in lms if all(e == 0 for k, e in enumerate(lm) if k != i)]
        if not pure:
            raise ValueError("ideal is not zero-dimensional; standard monomials are infinite")
        bounds.append(min(pure))
    out: list[Exponent] = []

    def walk(prefix: tuple[int, ...]):
        if len(prefix) == n:
            if not any(all(a <= b for a, b in zip(lm, prefix)) for lm in lms):
                out.append(prefix)
            return
        for e in range(bounds[len(prefix)]):
            walk(prefix + (e,))

    walk(())
    return out


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) triples, ending with ("END", "", len(text))."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            if i < len(text) and text[i] == "/":
                j = i + 1
                if j < len(text) and text[j].isdigit():
                    i = j
                    while i < len(text) and text[i].isdigit():
                        i += 1
                else:
                    raise ParseError("expected digits after '/' in rational literal", j)
            tokens.append(("NUMBER", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("IDENT", text[start:i], start))
            continue
        if ch in "+-*^()":
            tokens.append(("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", len(text)))
    return tokens
