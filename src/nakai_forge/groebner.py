"""Exact Groebner-basis engine over the rationals or modulo a prime.

Buchberger's algorithm with the normal selection strategy, the coprime
and chain criteria, and every element made monic when it is formed.  Every
basis element can be lifted to its expression in terms of the source
generators, so ideal memberships come with replayable witnesses
(p = sum q_i * g_i, checkable by re-multiplication).

One engine serves both fields, with one division loop.  Every element is
made monic with the inverse of its leading coefficient: over Q the
coefficients are exact rationals, and with a prime ``modulus``
(``buchberger``, ``_divide_tracked`` and ``_reduce_basis`` take it) the
generators are reduced modulo the prime and the engine works on plain
integers end to end, reduced to [1, p) wherever they are stored.  The
S-polynomial of two monic elements is x^a tail_i - x^b tail_j, formed from
their divisors.  A divisor is split once into its leading term and its
tail over the leading coefficient, so a division takes the working term
itself as the quotient term and no inverse is taken per step; modulo the
prime the one extra step reduces each working term when it is taken.  The
``GroebnerBasis`` records its modulus, and its division, normal forms,
lifts and rows all work over its own field.

Inside the engine a monomial is one int (packed exponent vectors: Monagan
and Pearce 2007).  A ``_Packing`` of n fields of B bits (it lives in
``poly``, whose large sums of products are packed with it too) maps x^e to
K(e) = sum_i e_i w_i with w_i = 2^(B i) - t_i 2^(nB): the low nB bits hold
e_i in field i, and the bits above hold -T(e), T(e) = sum_i t_i e_i.  For
grevlex t_i = 1, so T is the degree; for lex t_i = 2^(B(n-1-i)), so T
reads the fields with x_1 most significant.  K is linear: a term product
is k1 + k2 and a division's shift is k - K(lm).  While every field is
below 2^B, K is a descending key.  A larger T gives a smaller K.  At equal
T, lex exponents are equal, and grevlex compares the low bits with e_n
most significant: a smaller e_n gives a smaller K and a larger
monomial.  So the division heap holds bare ints, and its least one is the
largest term.  The top bit of each field is a guard, and while every field
is at most limit = 2^(B-1) - 1, lm divides e exactly when
((K(e) & LOW) | G) - (K(lm) & LOW) keeps every guard bit of G: a field
with e_i < lm_i borrows its guard bit, and no borrow crosses a field.

The width rule keeps every field that the engine reads within the limit;
no overflow goes unseen.  Under grevlex (degree-compatible), every
working term of a division is at most the dividend's largest term,
so its degree, and each of its exponents, is at most the dividend's
degree; the terms of the S-polynomial of a pair have degree at most that
of the pair's lcm.  So the width holds the degrees of the dividend and of
the divisors, and ``buchberger`` repacks its divisors wider
(``_Divisors.fit``, to twice the degree) when a pair's lcm degree passes
it.  Under lex, exponents can grow past the dividend's during a division.
A new term is a shift plus a tail term, each with fields within the limit,
so its fields stay below 2^B: no field carries into the next, and K still
orders it.  But a field can pass the limit, so the division checks the
guard bits of every term it takes, and one that is set (_Narrow) makes
``_Divisors.divide`` repack one bit wider and redo the division.  The
check runs under both orders; the degree rule keeps it from firing under
grevlex.

Tuples come back only for kept elements: the leading monomial of each
raw element (the pair order and the criteria read it), the recipe
multipliers of an S-pair remainder (the quotients of a pair that reduces
to zero are never unpacked), the final basis, and the results of
``lift``, ``normal_form`` and ``contains``.  These pack their argument,
divide by a packed copy of the basis that the ``GroebnerBasis`` keeps
(widened when an argument needs it), and unpack the quotients and
remainder.  Unpacked, the engine holds every value in one representation
in both fields, a ``TermMap`` from exponent tuple to coefficient: an
exact rational over Q (an int or a Fraction, which may be integral inside
the engine), an int in [0, p) modulo a prime.  Every quotient of
coefficients over Q is taken as a Fraction, so no float enters.
Recipes, quotients and the basis before hand-out are term maps, and
``dual_functional`` and ``leading_monomials`` read tuples; rows stay
packed (below).  Polynomials are built only where values leave the
engine: in ``_polynomial``, for ``GroebnerBasis.basis``, ``normal_form``
and ``reduce_by_basis``, and in ``GroebnerBasis._export``, which reads
each row entry of ``lift`` and ``cofactors`` in both fields with
``poly._Packing.polynomial``, the reader of ``minors.PolyMatrix`` too.
Their coefficients are those of every Polynomial: in canonical form (the
``poly`` docstring), so ints in [1, p) modulo a prime.

``decide_isolation`` is the one decision of whether the Jacobian ideal of
a weighted homogeneous polynomial is zero-dimensional, for the witness
gate and slice search of ``pipeline``, for ``is_isolated_singularity`` and
for the CLI ``check``, ``milnor`` and ``symmetrize``.  It decides with a
basis modulo a prime, whose rows are the ``pipeline`` isolation records; a
basis over Q decides only where that fails.  Bases over Q also serve the
library ``lift``, the CLI ``member`` and the Milnor number of input
without unique weights, where the argument modulo a prime does not apply.

Every reading of the finiteness criterion (Cox, Little and O'Shea,
*Ideals, Varieties, and Algorithms*, ch. 5 section 3) goes through one map,
``GroebnerBasis.pure_powers``: variable i to the basis element whose
leading monomial is a power of x_i.  The basis is zero-dimensional iff
every variable has one; its standard monomials lie in the box below those
powers; ``pipeline``'s isolation rows lift those elements; and the
functional of a positive-dimensional basis is taken at the first variable
without one.

The algorithm records how each element was formed, not its row (the
Groebner trace of Traverso 1988).  The nodes are the source generators,
the raw elements of the S-pair loop and the final auto-reduced elements,
in that order, and each raw or final node keeps its recipe: the nonzero
(multiplier, parent node) pairs of its combination.  A raw element is a
nonzero generator or r = m_i g_i + m_j g_j - sum_k q_k g_k, the remainder
of an S-polynomial, and a final element is one kept raw element minus its tail quotients
over the others; the leading coefficient that the element is divided by
is divided out of each multiplier.  Rows (cofactors over
the generators) are formed only when a caller reads them, through
``GroebnerBasis.lift`` or ``GroebnerBasis.cofactors``: the row of a node
is sum_k c_k * row_k over its recipe (_combine_rows).  In both fields a
row stays packed and fraction-free from the first product to the last
(``_Rows``; Bareiss 1968, as in ``poly.sum_of_products``): one positive
denominator, always 1 modulo the basis's prime, and one map of integer
terms per entry, under one grevlex packing per basis whose fields hold a
degree bound computed once over the recipe DAG: 0 for a generator, else
the largest deg q + bound(parent) over the node's recipe.  Each
multiplier is packed once, with its recipe, as integer terms over the
lcm of its denominators.  Each entry is one sum of packed products
(poly._packed_products), each pair scaled to the lcm of the denominators
of the products.  Modulo the prime every denominator is 1, so neither lcm
is taken and each coefficient is reduced once; over Q the gcd of the lcm
and the sums is divided out.  A row is unpacked only where it leaves
(``GroebnerBasis._export``).  A lift whose quotients need wider fields
first repacks the rows formed so far.  A read forms the rows of the node
and of its ancestors only, in increasing node order, and keeps them.

A division takes the largest working term first, from the heap of
packed keys, and tries the divisors in list order.  Cancelled terms leave
the working dict at once, so the term cap counts live terms, and a heap
entry whose monomial is no longer live is skipped.

Resource limits are hard errors, never silent wrong answers.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import product
from operator import add, le, sub
from typing import Iterable, Sequence

from .poly import DEFAULT_MAX_TERMS, GREVLEX, Exponent, MonomialOrder, Polynomial
from .poly import _weights_and_degree, rational_reconstruction
from .poly import _canonical, _packed_products, _Packing, _top_degree
from .poly import _vanishing_failures, is_prime, monomials_of_degree

logger = logging.getLogger(__name__)

DEFAULT_MAX_PAIRS = 100_000


class ResourceLimitExceeded(RuntimeError):
    """A pair or term cap was hit before the computation finished."""


class InternalInconsistencyError(RuntimeError):
    """A fact guaranteed by a theorem failed to hold; signals an engine bug."""


@dataclass(frozen=True)
class Ideal:
    """A finitely generated ideal of Q[x1..xn]."""

    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("an ideal needs at least one generator")
        counts = {g.n for g in gens}
        if len(counts) != 1:
            raise ValueError(f"generators have mixed variable counts {sorted(counts)}")
        object.__setattr__(self, "generators", gens)

    @property
    def n(self) -> int:
        return self.generators[0].n


def jacobian_ideal(f: Polynomial) -> Ideal:
    """The ideal of all first partials of f."""
    return Ideal(tuple(f.partial(i) for i in range(1, f.n + 1)))


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(map(le, a, b))


def _exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(sub, a, b))


def _exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


# A divisor split once: (lm, lc, tail) with g = lc (x^lm + sum of the tail
# terms c x^e), so the tail is that of g made monic.
Divisor = tuple[Exponent, Fraction | int, list[tuple[Exponent, Fraction | int]]]

# A polynomial as the engine holds it in either field: its terms, with
# exact rational coefficients over Q (ints or Fractions), or integer ones
# modulo a prime (residues in [1, p) once reduced).  The constant 1 of unit
# rows and recipes is the int 1 in both fields.
TermMap = dict[Exponent, Fraction | int]
# a node's recipe: the (q, parent) pairs, the node being sum q * node[parent]
Recipe = tuple[tuple[TermMap, int], ...]
# a row as the engine forms it (``_Rows``): a positive denominator d, 1
# modulo a prime, and one entry per source generator, each the packed
# integer terms of d times the entry
Row = tuple[int, tuple[dict[int, int], ...]]


def _residues(p: Polynomial, modulus: int | None) -> TermMap:
    """p's terms over the field: as they are over Q (``modulus`` None), or
    reduced modulo the prime ``modulus``, with integer coefficients."""
    return p.terms if modulus is None else p.mod(modulus).terms


def _polynomial(n: int, terms: TermMap) -> Polynomial:
    """The Polynomial of a reduced term map, where the engine hands values
    out, with canonical coefficients: an integral Fraction formed over Q
    becomes an int, and the ints modulo a prime stay as they are."""
    return Polynomial._raw(n, {e: _canonical(c) for e, c in terms.items()})


def _split_divisor(g: Polynomial, order: MonomialOrder) -> Divisor:
    """g as the engine's divisors take it: leading monomial, leading
    coefficient and the tail over it, in canonical form (so a monic g
    modulo a prime divides on ints alone)."""
    lm, lc = order.leading_term(g)
    return lm, lc, [(e, c if lc == 1 else _canonical(Fraction(c, lc))) for e, c in g.terms.items() if e != lm]


def _extent(order: MonomialOrder, exponents: Iterable[Exponent]) -> int:
    """What a packing's fields must hold for these exponents: their largest
    degree under grevlex, their largest entry under lex."""
    measure = (lambda e: max(e, default=0)) if order.kind == "lex" else sum
    return max(map(measure, exponents), default=0)


class _Narrow(Exception):
    """A term the division takes has a field past the packing's limit (its
    guard bit is set): the division must be redone with wider fields."""


class _Divisors:
    """Divisors in list order, split as ``Divisor`` with packed monomials:
    (K(lm), lc, packed tail).  Their width only grows."""

    def __init__(self, splits: Iterable[Divisor], order: MonomialOrder, n: int, bound: int = 0):
        splits = list(splits)
        exponents = (e for lm, _, tail in splits for e in (lm, *(t for t, _ in tail)))
        self.packing = _Packing(order, n, max(bound, _extent(order, exponents)))
        pack = self.packing.pack
        self.items = [(pack(lm), lc, [(pack(e), c) for e, c in tail]) for lm, lc, tail in splits]

    def fit(self, bound: int) -> None:
        """Repack the divisors, if need be, so that their fields hold
        ``bound``."""
        old = self.packing
        if bound > old.limit:
            new = self.packing = _Packing(old.order, old.n, bound)
            self.items = [(new.pack(old.unpack(lm)), lc, [(new.pack(old.unpack(e)), c) for e, c in tail])
                          for lm, lc, tail in self.items]

    def divide(self, work: dict, modulus: int | None, keep: Sequence[int] | None = None) -> tuple[list[dict], dict]:
        """_divide_tracked of the packed terms ``work`` by the divisors (those
        at the indices ``keep``), repacked one bit wider and redone while a
        field overflows."""
        while True:
            divisors = self.items if keep is None else [self.items[k] for k in keep]
            try:
                return _divide_tracked(work, divisors, self.packing, modulus)
            except _Narrow:
                old = self.packing
                self.fit(old.field)
                work = {self.packing.pack(old.unpack(k)): c for k, c in work.items()}


def _divide(terms: TermMap, divisors: _Divisors, modulus: int | None = None) -> tuple[list[TermMap], TermMap]:
    """terms = sum quotients[k] * divisors[k] + remainder, on tuples: the
    argument, the quotients and the remainder are term maps over Q, or
    modulo the prime ``modulus`` (the argument's need not be reduced yet,
    and every divisor is monic).  The divisors are first widened to hold
    the argument (_extent).  The division runs on the monic divisors; the
    quotient by a divisor over Q with leading coefficient lc != 1 is then
    divided by lc."""
    divisors.fit(_extent(divisors.packing.order, terms))
    pack = divisors.packing.pack
    quotients, remainder = divisors.divide({pack(e): c for e, c in terms.items()}, modulus)
    unpack = divisors.packing.unpack_terms  # the width the division ended with
    quotients = [unpack(q) if lc == 1 else _scale(unpack(q), Fraction(1, lc), modulus)
                 for q, (_, lc, _) in zip(quotients, divisors.items)]
    return quotients, unpack(remainder)


def _divide_tracked(
    work: dict,
    divisors: Sequence[tuple],
    packing: _Packing,
    modulus: int | None = None,
) -> tuple[list[dict], dict]:
    """Full multivariate division on packed keys (_Packing) by monic
    divisors: the terms ``work`` equal
    sum quotients[k] * (x^lm_k + tail_k) + remainder.

    A quotient term is the working term itself.  Over Q the coefficients
    are exact rationals, ints or Fractions.  Modulo the prime ``modulus``
    they are integers in [1, p): working terms are reduced when taken (so a
    term that cancels only modulo the prime stays in the working dict until
    then).

    No remainder term is divisible by any divisor's leading monomial.
    Divisors (_Divisors items) are tried in list order, which keeps the
    result deterministic.  A taken term with a guard bit set raises _Narrow;
    more than DEFAULT_MAX_TERMS working terms raise ResourceLimitExceeded.
    """
    max_terms = DEFAULT_MAX_TERMS
    low, guard = packing.low, packing.guard
    lows = [d[0] & low for d in divisors]
    work = dict(work)
    heap = list(work)
    heapify(heap)
    quotients: list[dict] = [{} for _ in divisors]
    remainder: dict = {}
    while heap:
        exp = heappop(heap)
        w = work.pop(exp, 0)
        if modulus:
            w %= modulus
        if not w:
            continue  # cancelled, or a second heap entry of a monomial already taken
        if exp & guard:
            raise _Narrow
        fields = exp & low | guard
        for k, lm in enumerate(lows):
            if fields - lm & guard == guard:  # lm divides exp: no field borrows its guard bit
                break
        else:
            remainder[exp] = w
            continue
        plm, _, tail = divisors[k]
        shift = exp - plm
        quotients[k][shift] = w
        get = work.get
        for dexp, dc in tail:
            e = dexp + shift
            v = w * dc
            c = get(e)
            if c is None:
                work[e] = -v
                heappush(heap, e)
            elif c == v:
                del work[e]
            else:
                work[e] = c - v
        if len(work) > max_terms:
            raise ResourceLimitExceeded(
                f"intermediate polynomial exceeded {max_terms} terms during division"
            )
    return quotients, remainder


def _scale(terms: dict, c, modulus: int | None) -> dict:
    """c * terms for a nonzero c of the field: over Q, or modulo the prime
    ``modulus`` for an integer c not divisible by it (reduced terms).  The
    keys may be exponent tuples or packed."""
    if modulus is None:
        return {e: a * c for e, a in terms.items()}
    return {e: a * c % modulus for e, a in terms.items()}


def _combine_rows(combination: Sequence[tuple[tuple[int, dict], Row]], width: int, modulus: int | None) -> Row:
    """The row sum q * row over the (q, row) pairs of ``combination``, entry
    by entry.  A multiplier (``_Rows.multiplier``) and the entries of a row
    are integer terms over a positive denominator, on the packed keys of
    one _Packing whose fields hold every product's degree (``_Rows``).
    Each pair is scaled to the lcm D of the denominators of the products,
    and each of the ``width`` entries is one sum of packed products
    (poly._packed_products).  Modulo the prime ``modulus`` every
    denominator is 1, so D is not taken, and each coefficient of a sum is
    reduced once; over Q (``modulus`` None) the gcd of D and the sums is
    divided out, so the row's denominator is the least common denominator
    of its coefficients."""
    d = 1 if modulus else math.lcm(*(dq * dr for (dq, _), (dr, _) in combination))
    scaled = [(q.items(), row, d // (dq * dr)) for (dq, q), (dr, row) in combination]
    entries = [_packed_products((q, row[j].items(), s) for q, row, s in scaled) for j in range(width)]
    if modulus:
        return 1, tuple({k: r for k, c in entry.items() if (r := c % modulus)} for entry in entries)
    g = math.gcd(d, *(c for entry in entries for c in entry.values()))  # zero sums leave the gcd as it is
    return d // g, tuple({k: c // g for k, c in entry.items() if c} for entry in entries)


class _Rows:
    """The rows of a basis formed so far (node -> row), from the unit rows
    of its generators.  In both fields a row is one positive denominator
    (always 1 modulo a prime) and one map of integer terms per entry, on
    the packed keys of one grevlex _Packing per basis whose fields hold
    the degree bound of every node: 0 for a generator, else the largest
    deg q + bound(parent) over the (q, parent) pairs of its recipe.  Each
    product of a row sum is then within its node's bound.  The width only
    grows (``fit``)."""

    def __init__(self, basis: GroebnerBasis):
        n, width = basis.n, len(basis.source.generators)
        self.modulus = basis.modulus
        self.bounds = dict.fromkeys(range(-width, 0), 0)
        for k, recipe in enumerate(basis.recipes):
            self.bounds[k] = max(_extent(GREVLEX, q) + self.bounds[parent] for q, parent in recipe)
        self.packing = _Packing(GREVLEX, n, max(self.bounds.values()))
        self.formed = {j - width: (1, tuple({0: 1} if i == j else {} for i in range(width))) for j in range(width)}

    def multiplier(self, q: TermMap) -> tuple[int, dict[int, int]]:
        """A recipe or lift multiplier as the row sums take it: the lcm d of
        the denominators of q and the packed integer terms of d * q
        (Polynomial.integer_terms); modulo a prime d is 1, and q is taken
        as it is."""
        d, terms = (1, q.items()) if self.modulus else Polynomial._raw(self.packing.n, q).integer_terms()
        return d, {self.packing.pack(e): c for e, c in terms}

    def fit(self, terms: Iterable[tuple[TermMap, int]]) -> None:
        """Repack the rows formed so far, if need be, so that the fields hold
        deg q + bound(node) for the (q, node) pairs of a lift."""
        old = self.packing
        bound = max((_extent(GREVLEX, q) + self.bounds[node] for q, node in terms), default=0)
        if bound > old.limit:
            new = self.packing = _Packing(GREVLEX, old.n, bound)
            self.formed = {node: (d, tuple({new.pack(old.unpack(k)): c for k, c in entry.items()} for entry in row))
                           for node, (d, row) in self.formed.items()}


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis, with the recipes of its elements over its
    source generators.

    Generator j is node j - len(source.generators) (negative), node k >= 0
    has recipe ``recipes[k]``, and the last len(basis) nodes are the basis
    elements in order.  basis[i] == sum_j cofactors[i][j] * source.generators[j]
    holds exactly over Q, or, when ``modulus`` is a prime, modulo it: the
    basis is then that of the source generators reduced modulo the prime,
    with integer coefficients in [0, p), and division, normal forms, lifts
    and rows all work modulo it.  Inside, recipes are term maps over the
    basis's field, and formed rows are packed integer terms over a
    denominator (``_Rows``); the methods take and return Polynomials.
    Divisions run on a packed copy of the basis (``_packed``), kept and
    widened as arguments need.  The basis is auto-reduced with monic
    leading coefficients.  ``pure_powers``, formed once in one pass over
    the leading monomials, maps each variable that has one to its
    pure-power element (the module docstring).
    """

    basis: tuple[Polynomial, ...]
    order: MonomialOrder
    source: Ideal
    recipes: tuple[Recipe, ...]
    modulus: int | None = None

    @property
    def n(self) -> int:
        return self.source.n

    def leading_monomials(self) -> list[Exponent]:
        return [d[0] for d in self._divisors]

    @cached_property
    def _divisors(self) -> list[Divisor]:
        return [_split_divisor(g, self.order) for g in self.basis]

    @cached_property
    def _rows(self) -> _Rows:
        return _Rows(self)

    def _export(self, row: Row) -> tuple[Polynomial, ...]:
        """A row as the methods return it: Polynomials, each entry read once
        over the row's denominator (poly._Packing.polynomial)."""
        return tuple(self._rows.packing.polynomial(entry, row[0]) for entry in row[1])

    def _row(self, node: int) -> Row:
        """The row of a node over the basis's field, formed with the rows of
        its unformed ancestors in increasing node order (parents precede
        their children)."""
        rows = self._rows
        formed, todo, stack = rows.formed, set(), [node]
        while stack:
            k = stack.pop()
            if k not in formed and k not in todo:
                todo.add(k)
                stack.extend(parent for _, parent in self.recipes[k])
        for k in sorted(todo):
            combination = [(rows.multiplier(q), formed[parent]) for q, parent in self.recipes[k]]
            formed[k] = _combine_rows(combination, len(self.source.generators), self.modulus)
        return formed[node]

    @property
    def cofactors(self) -> tuple[tuple[Polynomial, ...], ...]:
        """The row of every basis element over the source generators."""
        first = len(self.recipes) - len(self.basis)
        return tuple(self._export(self._row(first + i)) for i in range(len(self.basis)))

    @cached_property
    def _packed(self) -> _Divisors:
        return _Divisors(self._divisors, self.order, self.n)

    def _divide(self, p: Polynomial) -> tuple[list[TermMap], TermMap]:
        if p.n != self.n:
            raise ValueError(f"variable-count mismatch: {p.n} vs {self.n}")
        return _divide(_residues(p, self.modulus), self._packed, self.modulus)

    def normal_form(self, p: Polynomial) -> Polynomial:
        """The unique fully reduced remainder of p (of p reduced modulo the
        basis's prime, if it has one); zero iff p is a member."""
        return _polynomial(self.n, self._divide(p)[1])

    def contains(self, p: Polynomial) -> bool:
        return not self._divide(p)[1]

    def lift(self, p: Polynomial) -> tuple[Polynomial, ...] | None:
        """Cofactors of p over the source generators, or None if not a member.

        On success p == sum lift[j] * source.generators[j] over the basis's
        field: exactly over Q, or modulo its prime.  Only the rows of basis
        elements with a nonzero quotient are formed.
        """
        quotients, remainder = self._divide(p)
        if remainder:
            return None
        first = len(self.recipes) - len(self.basis)
        terms = [(q, first + i) for i, q in enumerate(quotients) if q]
        rows = self._rows
        rows.fit(terms)
        combination = [(rows.multiplier(q), self._row(node)) for q, node in terms]
        return self._export(_combine_rows(combination, len(self.source.generators), self.modulus))

    @cached_property
    def pure_powers(self) -> dict[int, int]:
        """Variable index i -> index of the basis element whose leading
        monomial is a power of x_i; the 1 of the unit ideal counts for every
        variable.  A reduced basis has at most one such element per variable."""
        return {i: k for k, lm in enumerate(self.leading_monomials()) for i in range(self.n) if sum(lm) == lm[i]}

    def is_zero_dimensional(self) -> bool:
        """True iff every variable has a pure power among the leading monomials."""
        return len(self.pure_powers) == self.n

    def standard_monomials(self) -> list[Exponent]:
        """Monomials outside the leading-term ideal (finite iff zero-dimensional),
        in the box below the pure powers, in lexicographic order."""
        if not self.is_zero_dimensional():
            raise ValueError("ideal is not zero-dimensional; standard monomials are infinite")
        leading = self.leading_monomials()
        box = product(*(range(leading[self.pure_powers[i]][i]) for i in range(self.n)))
        return [e for e in box if not any(_divides(lm, e) for lm in leading)]

    def quotient_dimension(self) -> int:
        """Vector-space dimension of the quotient ring (the Milnor number for J(f))."""
        return len(self.standard_monomials())


def buchberger(
    ideal: Ideal,
    order: MonomialOrder = GREVLEX,
    modulus: int | None = None,
) -> GroebnerBasis:
    """Compute the reduced Groebner basis with the recipe of every element;
    no cofactor row is formed here (see the module docstring).  With a
    prime ``modulus`` it is the basis of the generators reduced modulo it
    (ZeroDivisionError if the prime divides a denominator).

    Deterministic: pairs are processed by (lcm degree, lcm, i, j) and the
    final basis is sorted by descending leading monomial.
    """
    n = ideal.n
    gens = [_residues(g, modulus) for g in ideal.generators]
    lms: list[Exponent] = []  # leading monomials of the raw elements
    recipes: list[Recipe] = []
    divisors = _Divisors((), order, n, _extent(order, (e for g in gens for e in g)))

    def append(p: dict, plus, minus=()) -> None:
        # p (packed, nonzero) = sum q * node over the (q, node) pairs of plus,
        # minus those of minus; p and its multipliers are divided by the
        # leading coefficient of p, and p is kept as a monic divisor
        lead = min(p)
        inv = Fraction(1, p[lead]) if modulus is None else pow(p[lead], -1, modulus)
        p = _scale(p, inv, modulus)
        recipes.append(tuple((_scale(q, inv, modulus), node) for q, node in plus)
                       + tuple((_scale(q, -inv, modulus), node) for q, node in minus))
        lms.append(divisors.packing.unpack(lead))
        lc = p.pop(lead)  # 1 in the field's type
        divisors.items.append((lead, lc, list(p.items())))

    for j, g in enumerate(gens):
        if g:
            append({divisors.packing.pack(e): c for e, c in g.items()}, [({(0,) * n: 1}, j - len(gens))])

    pending: set[tuple[int, int]] = set()
    heap: list[tuple[int, Exponent, int, int]] = []

    def push_pairs(new_index: int):
        lm_new = lms[new_index]
        for i in range(new_index):
            lcm = _exp_lcm(lms[i], lm_new)
            heappush(heap, (sum(lcm), lcm, i, new_index))
            pending.add((i, new_index))

    for idx in range(len(lms)):
        push_pairs(idx)

    processed = 0
    while heap:
        _, lcm, i, j = heappop(heap)
        pending.discard((i, j))
        processed += 1
        if processed > DEFAULT_MAX_PAIRS:
            raise ResourceLimitExceeded(f"S-pair cap {DEFAULT_MAX_PAIRS} exceeded")
        lm_i, lm_j = lms[i], lms[j]
        # coprime leading monomials: the S-polynomial reduces to zero
        if lcm == tuple(map(add, lm_i, lm_j)):
            continue
        # the width holds the lcm, and under grevlex every term of the
        # S-polynomial and of its division too (under lex, _Narrow
        # widens when it must)
        extent = _extent(order, (lcm,))
        divisors.fit(2 * extent if extent > divisors.packing.limit else 0)
        low, guard = divisors.packing.low, divisors.packing.guard
        k_lcm = divisors.packing.pack(lcm)
        fields = k_lcm & low | guard
        # chain criterion: some k divides the lcm and both flanking pairs are done
        if any(fields - (d[0] & low) & guard == guard and k != i and k != j and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending for k, d in enumerate(divisors.items)):
            continue
        # the S-polynomial x^a tail_i - x^b tail_j of two monic elements
        (lm_i_key, _, tail_i), (lm_j_key, _, tail_j) = divisors.items[i], divisors.items[j]
        s_poly = {k_lcm - lm_i_key + e: c for e, c in tail_i}
        for e, c in tail_j:
            e += k_lcm - lm_j_key
            s_poly[e] = s_poly.get(e, 0) - c
        quotients, remainder = divisors.divide(s_poly, modulus)
        if not remainder:
            continue
        # the S-polynomial is x^a basis[i] - x^b basis[j]
        a, b = _exp_sub(lcm, lm_i), _exp_sub(lcm, lm_j)
        unpack = divisors.packing.unpack_terms
        append(remainder, [({a: 1}, i), ({b: -1}, j)], [(unpack(q), k) for k, q in enumerate(quotients) if q])
        push_pairs(len(lms) - 1)

    logger.debug("buchberger: %d generators -> %d raw basis elements, %d pairs", len(gens), len(lms), processed)
    return _reduce_basis(lms, recipes, divisors, ideal, order, modulus)


def _reduce_basis(
    lms: list[Exponent],
    recipes: list[Recipe],
    divisors: _Divisors,
    ideal: Ideal,
    order: MonomialOrder,
    modulus: int | None,
) -> GroebnerBasis:
    """Minimalize and auto-reduce the monic raw elements, appending the
    recipe of each final element; raw element k is node k, with leading
    monomial lms[k] and packed as divisors.items[k]."""
    # Minimal: drop any element whose leading monomial another one divides.
    indices = sorted(range(len(lms)), key=lambda k: order.descending_key(lms[k]), reverse=True)
    kept: list[int] = []
    for k in indices:
        if not any(_divides(lms[m], lms[k]) for m in kept):
            kept.append(k)
    # Reduced: each element's tail is in normal form w.r.t. the others.
    # Reducedness only depends on the others' leading monomials, which tail
    # reduction never changes, so a single pass is enough.
    n = ideal.n
    final: list[tuple[Exponent, TermMap, Recipe]] = []
    for idx, node in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        lm, one, tail = divisors.items[node]
        quotients, p = divisors.divide({lm: one, **dict(tail)}, modulus, others)
        # p = basis[node] - sum q * other is monic: its leading term is that
        # of basis[node], which no other leading monomial divides
        unpack = divisors.packing.unpack_terms
        recipe = (
            ({(0,) * n: 1}, node),
            *((_scale(unpack(q), -1, modulus), other) for q, other in zip(quotients, others) if q),
        )
        final.append((lms[node], unpack(p), recipe))
    final.sort(key=lambda t: order.descending_key(t[0]))
    return GroebnerBasis(
        tuple(_polynomial(n, p) for _, p, _ in final),
        order,
        ideal,
        tuple(recipes) + tuple(r for _, _, r in final),
        modulus,
    )


def reduce_by_basis(
    p: Polynomial,
    basis: Sequence[Polynomial],
    order: MonomialOrder,
) -> Polynomial:
    """Fully reduce p against an explicit polynomial list."""
    if not basis:
        return p
    _, remainder = _divide(p.terms, _Divisors([_split_divisor(b, order) for b in basis], order, p.n))
    return _polynomial(p.n, remainder)


def s_polynomial(a: Polynomial, b: Polynomial, order: MonomialOrder) -> Polynomial:
    """The S-polynomial of two nonzero polynomials under the given order."""
    lm_a, lc_a = order.leading_term(a)
    lm_b, lc_b = order.leading_term(b)
    lcm = _exp_lcm(lm_a, lm_b)
    return a.mul_monomial(_exp_sub(lcm, lm_a), Fraction(1) / lc_a) - \
        b.mul_monomial(_exp_sub(lcm, lm_b), Fraction(1) / lc_b)


def decide_isolation(
    h: Polynomial, weights: Sequence[int], degree: int
) -> tuple[GroebnerBasis, tuple[int, dict[Exponent, Fraction]] | None]:
    """Whether J(h) is zero-dimensional, for h weighted homogeneous of
    degree ``degree`` in the ``weights``, decided modulo a prime first.

    Returns the basis that decides it, and None if J(h) is zero-dimensional
    (the basis is then one modulo a prime, whose rows form the isolation
    record of point 0 of the ``pipeline`` docstring), else the degree t and
    the functional of the positive-dimension record of point 4.  Takes p,
    the largest prime below 2^31 that divides no denominator of h, and the
    basis of J(h) modulo p.  If that is zero-dimensional, point 0 shows
    that J(h) is.  Otherwise the functional of point 4 is computed modulo p
    and rationally reconstructed; it is kept only if it is nonzero and
    vanishes over Q where the verifier checks it (poly._vanishing_failures).
    A functional modulo p proves nothing over Q: the rank of the Macaulay
    matrix can rise from F_p to Q.  If the check fails, the basis over Q
    decides; when it is zero-dimensional, p was unlucky and the next prime
    down is tried.  Only finitely many primes are unlucky: those dividing a
    nonzero Macaulay minor (lucky primes: Pauer 1992; Arnold 2003).
    """
    ideal = jacobian_ideal(h)
    p = (1 << 31) + 1
    while True:
        p -= 2
        if not is_prime(p) or any(c.denominator % p == 0 for c in h.terms.values()):
            continue
        gb = buchberger(ideal, GREVLEX, modulus=p)
        if gb.is_zero_dimensional():
            return gb, None
        t, functional = _positive_dimension_functional(gb, weights, degree)
        if not (functional and all(functional.values()) and not _vanishing_failures(functional, ideal.generators)):
            gb = buchberger(ideal, GREVLEX)
            if gb.is_zero_dimensional():
                logger.info("J(h) is zero-dimensional over Q but not modulo the unlucky prime %d", p)
                continue
            t, functional = _positive_dimension_functional(gb, weights, degree)
        return gb, (t, functional)


def dual_functional(gb: GroebnerBasis, mu: Exponent, monomials: Sequence[Exponent]) -> dict:
    """lambda(m) = coefficient of the standard monomial mu in NF(m), for each
    given monomial m; zero values are left out.  The normal form is linear
    and vanishes on the ideal, so lambda does too.  Over the basis's field:
    rationals over Q, and for a basis modulo a prime integer residues in
    [1, p).

    The monomials must hold all m >= mu of one weighted degree (others are
    ignored), and the basis must be weighted homogeneous.  NF(m) holds only
    monomials <= m, so lambda(m) = 0 for every m < mu, and only the m >= mu
    are evaluated.  One pass in ascending order: a standard m has
    lambda(m) = 1 if m = mu, else 0.  Otherwise take the first basis element
    b whose leading monomial x^lm divides m (b is monic, split as the
    divisor (lm, 1, tail));
    NF(m) = NF(m - x^(m-lm) b), so lambda(m) = -sum c lambda(x^t x^(m-lm))
    over the tail terms c x^t, each at a smaller monomial of the same degree
    (0 below mu).
    """
    key = gb.order.descending_key
    floor = key(mu)
    divisors = gb._divisors
    values: dict[Exponent, Fraction | int] = {}
    for m in sorted((m for m in monomials if key(m) <= floor), key=key, reverse=True):
        k = next((k for k, (lm, *_) in enumerate(divisors) if all(map(le, lm, m))), None)
        if k is None:
            values[m] = int(m == mu)
            continue
        lm, _, tail = divisors[k]
        shift = tuple(map(sub, m, lm))
        total = sum(c * values.get(tuple(map(add, t, shift)), 0) for t, c in tail)
        values[m] = -total % gb.modulus if gb.modulus else -total
    return {m: v for m, v in values.items() if v}


def _positive_dimension_functional(gb: GroebnerBasis, weights: Sequence[int], degree: int) -> tuple[int, dict]:
    """Point 4 of the ``pipeline`` docstring: the degree t and the
    functional of the standard monomial mu = x_i^k, x_i the first variable
    with no pure power among the leading monomials of gb, on the least
    weighted degree t = k W_i above s.  For a basis modulo a prime each
    value is rationally reconstructed (None where that fails)."""
    i = next(i for i in range(gb.n) if i not in gb.pure_powers)
    # s can be negative (x*w + y*w + z*w + w^10 has s = -16): then t = 0, mu = 1
    k = max(_top_degree(weights, degree) // weights[i] + 1, 0)
    mu = tuple(k if j == i else 0 for j in range(gb.n))
    if len(set(weights)) == 1:
        # the monomials of degree k that are >= x_i^k in grevlex: those in x_1..x_i
        monomials = [e + (0,) * (gb.n - i - 1) for e in monomials_of_degree(i + 1, k)]
    else:
        monomials = monomials_of_degree(gb.n, k * weights[i], weights)
    functional = dual_functional(gb, mu, monomials)
    if gb.modulus is not None:
        functional = {m: rational_reconstruction(v, gb.modulus) for m, v in functional.items()}
    return k * weights[i], functional


def quotient_dimension(ideal: Ideal) -> int:
    return buchberger(ideal).quotient_dimension()


def is_isolated_singularity(f: Polynomial) -> bool:
    """True iff quasi-homogeneous f with no term of degree below 2 has a
    zero-dimensional Jacobian ideal, decided as the witness gate decides it
    (decide_isolation).

    The weights must be unique (see quasi_homogeneous_weights), else
    ValueError; homogeneous input always qualifies.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial does not define a hypersurface")
    found = _weights_and_degree(f)
    if f.min_degree() < 2:
        return False  # smooth at the origin, no singularity at all
    return decide_isolation(f, *found)[1] is None
