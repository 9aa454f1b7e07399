"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in n variables is stored as a map from exponent tuples to
nonzero exact rationals in canonical form: an int when the coefficient is
integral, else a Fraction with denominator above 1 (``_canonical``).  An
int and the equal Fraction compare and hash equal, so equal polynomials
always have equal term maps, and every operation is exact.  Every
operation returns canonical coefficients, every quotient of coefficients
is taken as a Fraction (two ints never divide to a float), and a float
coefficient raises TypeError.  Variable indices are 1-based in the public
API (x1, ..., xn); exponent tuples are indexed positionally.

``partial`` is the one derivative routine: the divided-power derivative
``higher_partial`` of the second-order operators (``derivations.DiffOp2``)
is repeated ``partial`` calls and one ``scale``.

Multiplication, and a sum of products (``sum_of_products``), is
fraction-free (Bareiss 1968): each operand is written once as integer
numerators over one common denominator (``integer_terms``), the term
products are summed as integers, and each output coefficient is that
integer over the common denominator, in canonical form: an int when the
denominator is 1.  Exact rationals are canonical, so the result is the
same term map the term-by-term Fraction loop gives; it only skips the gcd
that every Fraction product and sum would pay.  Every sum of products of
Polynomials in the package goes through it: ``Polynomial.__mul__``,
``Polynomial.substitute_variables``, the cofactor rows and lifts of
``groebner`` over Q, the cofactor-identity check of ``minors``,
``Derivation1.apply``, ``DiffOp2.apply``, ``derivations.replay_ledger``,
``derivations.closed_form_lift`` and the zero-sum check of
``derivations.scale_mismatches``.

Its integer loop (``_accumulate``) sums on exponent tuples a call of fewer
than PACK_PRODUCTS term products, which is most calls: packing and
unpacking would cost them more than they save.  A larger call sums on
packed exponent vectors (Monagan and Pearce 2007): ``_Packing`` makes each
monomial one int, so a term product is one integer addition, and only the
output is unpacked.  The packed product loop (``_packed_products``) exists
once.  Three computations hold their values on packed keys from the first
product to the last, under one ``_Packing`` each, and call it directly:
the rows and lifts of ``groebner`` modulo a prime, the minors of
``minors.PolyMatrix`` and the entries of ``derivations.symmetric_tuple``.
The same ``_Packing`` serves ``groebner``'s S-pair loop and divisions,
which form their S-polynomials on those keys (see the ``groebner``
docstring).

``Polynomial.mod`` (reduction modulo a prime), ``is_prime`` and
``rational_reconstruction`` serve the Groebner engine modulo a prime and
its isolation decision (``groebner.decide_isolation``): the isolation
records hold rows modulo a prime (point 0 of the ``pipeline`` docstring),
and a rejection's functional is computed modulo one and reconstructed
(point 4).  That decision and the verifier check a functional the same
way, by ``_vanishing_failures`` over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, neg, sub
from typing import Iterable, Iterator, Mapping, Sequence

Exponent = tuple[int, ...]
Terms = Iterable[tuple[Exponent, int]]  # integer terms (exponent, coefficient)

Scalar = (int, Fraction)

# the term cap of the Groebner engine's divisions (groebner._divide_tracked)
# and of the parser's expansions (exprio), which must not import the engine
DEFAULT_MAX_TERMS = 500_000


def _canonical(c: int | Fraction) -> int | Fraction:
    """An exact rational as a Polynomial holds it: an int when integral."""
    return c.numerator if c.denominator == 1 else c


def _coefficient(c) -> int | Fraction:
    """A coefficient given to the public API, in canonical form; a float
    raises TypeError rather than entering as its binary expansion."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"a coefficient must be an exact rational, not the float {c!r}")
    return _canonical(Fraction(c))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients, each
    nonzero and canonical: an int when integral, else a Fraction with
    denominator above 1 (see the module docstring).

    The variable count ``n`` is fixed per value; binary operations with a
    mismatched variable count raise ``ValueError`` rather than embedding
    one ring into the other.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Exponent, Fraction | int] | None = None):
        if n < 0:
            raise ValueError(f"variable count must be non-negative, got {n}")
        clean: dict[Exponent, Fraction | int] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != n:
                    raise ValueError(f"exponent {exp} has length {len(exp)}, expected {n}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                c = _coefficient(coeff)
                if c:
                    clean[exp] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n)

    @staticmethod
    def constant(n: int, value: Fraction | int) -> "Polynomial":
        return Polynomial(n, {(0,) * n: value})

    @staticmethod
    def variable(n: int, i: int) -> "Polynomial":
        """The polynomial x_i (1-based index)."""
        if not 1 <= i <= n:
            raise IndexError(f"variable index {i} out of range 1..{n}")
        exp = [0] * n
        exp[i - 1] = 1
        return Polynomial(n, {tuple(exp): 1})

    @staticmethod
    def monomial(n: int, exp: Sequence[int], coeff: Fraction | int = 1) -> "Polynomial":
        return Polynomial(n, {tuple(exp): coeff})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[Exponent, Fraction | int]]:
        return iter(self.terms.items())

    def coefficient(self, exp: Sequence[int]) -> Fraction | int:
        return self.terms.get(tuple(exp), 0)

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None if mixed.

        Raises ValueError on the zero polynomial, whose degree is not defined.
        """
        if not self.terms:
            raise ValueError("homogeneous degree of the zero polynomial is undefined")
        degrees = {sum(e) for e in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def min_degree(self) -> int:
        """Smallest total degree of a term; below 2 the polynomial is smooth
        (or nonzero) at the origin.  -1 for the zero polynomial."""
        return min((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return bool(self.terms) and self.homogeneous_degree() is not None

    def _check_same_ring(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"variable-count mismatch: {self.n} vs {other.n}")

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_ring(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            c = out.get(exp, 0) + coeff
            if c:
                out[exp] = _canonical(c)
            else:
                out.pop(exp, None)
        return Polynomial._raw(self.n, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_ring(other)
        return sum_of_products(self.n, ((self, other),))

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def integer_terms(self) -> tuple[int, list[tuple[Exponent, int]]]:
        """The lcm d of the coefficient denominators and the terms of d * self,
        whose coefficients are integers.  The term maps of ``groebner`` over
        Q, wrapped as Polynomials, may hold integral Fractions: they are
        written as ints too."""
        d, integral = 1, True
        for c in self.terms.values():
            if type(c) is not int:
                integral, q = False, c.denominator
                if d % q:
                    d = d // math.gcd(d, q) * q
        if integral:
            return 1, list(self.terms.items())
        return d, [(e, c * d if type(c) is int else c.numerator * (d // c.denominator))
                   for e, c in self.terms.items()]

    def mod(self, p: int) -> "Polynomial":
        """The reduction modulo the prime p: each coefficient a/b becomes
        the integer a * b^-1 mod p in [0, p), and the terms that vanish are
        dropped.  One inverse is taken per distinct denominator other than
        1.  Raises ZeroDivisionError when p divides a denominator."""
        inverses: dict[int, int] = {}
        out: dict[Exponent, int] = {}
        for exp, c in self.terms.items():
            if type(c) is int:
                r = c % p
            else:
                a, d = c.numerator, c.denominator
                inv = inverses.get(d)
                if inv is None:
                    if d % p == 0:
                        raise ZeroDivisionError(f"{p} divides the denominator {d}")
                    inv = inverses[d] = pow(d, -1, p)
                r = a * inv % p
            if r:
                out[exp] = r
        return Polynomial._raw(self.n, out)

    def scale(self, c: Fraction | int) -> "Polynomial":
        c = _coefficient(c)
        if not c:
            return Polynomial(self.n)
        return Polynomial._raw(self.n, {e: _canonical(coeff * c) for e, coeff in self.terms.items()})

    def mul_monomial(self, exp: Sequence[int], coeff: Fraction | int = 1) -> "Polynomial":
        """Multiply by coeff * x^exp without building an intermediate Polynomial."""
        exp = tuple(exp)
        c = _coefficient(coeff)
        if not c:
            return Polynomial(self.n)
        return Polynomial._raw(
            self.n,
            {tuple(map(add, e, exp)): _canonical(cf * c) for e, cf in self.terms.items()},
        )

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None  # mutable-looking container; identity-free equality only

    def __repr__(self) -> str:
        if not self.terms:
            return f"Polynomial({self.n}, 0)"
        parts = [f"{c}*x^{e}" for e, c in sorted(self.terms.items())]
        return f"Polynomial({self.n}, {' + '.join(parts)})"

    @staticmethod
    def _raw(n: int, terms: dict[Exponent, Fraction]) -> "Polynomial":
        """Internal: wrap an already-clean term dict without re-validation."""
        p = object.__new__(Polynomial)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "terms", terms)
        return p

    # -- calculus -------------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"variable index {i} out of range 1..{self.n}")
        k = i - 1
        # x^e -> e_k x^(e - e_k) is one-to-one on the terms with e_k > 0, so
        # no two terms meet and no coefficient becomes zero
        out: dict[Exponent, Fraction | int] = {}
        for exp, coeff in self.terms.items():
            if exp[k]:
                new = list(exp)
                new[k] -= 1
                out[tuple(new)] = _canonical(coeff * exp[k])
        return Polynomial._raw(self.n, out)

    def higher_partial(self, alpha: Sequence[int]) -> "Polynomial":
        """Divided-power derivative (1/alpha!) d^|alpha| / dx^alpha.

        On a monomial x^g this gives prod(binomial(g_i, alpha_i)) * x^(g-alpha),
        so higher_partial(x^a, a) == 1.  It is ``partial(i)`` taken alpha_i
        times for each i, then one ``scale`` by 1/alpha!.  The un-divided
        derivative is never exposed; all higher-order coefficients in this
        package use this normalization.
        """
        alpha = tuple(alpha)
        if len(alpha) != self.n:
            raise ValueError(f"multi-index length {len(alpha)} != {self.n}")
        if any(a < 0 for a in alpha):
            raise ValueError(f"negative entry in multi-index {alpha}")
        out = self
        for i, a in enumerate(alpha, 1):
            for _ in range(a):
                out = out.partial(i)
        return out.scale(Fraction(1, math.prod(map(math.factorial, alpha))))

    def substitute_variables(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute x_i -> images[i-1]; images live in an arbitrary ring.

        The moved variables are those whose image is not the variable
        itself (all of them when the images live in a ring of another
        size).  The terms are grouped by their exponents a on the moved
        variables, as sum_a x^a f_a with f_a free of them, and the result
        sum_a prod_i images[i]^(a_i) f_a is one sum_of_products.  Only the
        powers the terms use are formed, each once and by squaring
        (``**``), so the number of products an exponent costs follows its
        digits, not its value."""
        if len(images) != self.n:
            raise ValueError(f"{len(images)} images for {self.n} variables")
        if not images:
            raise ValueError("cannot substitute in a ring with no variables")
        m = images[0].n
        if any(q.n != m for q in images):
            raise ValueError("substitution images have mixed variable counts")
        fixed = [i for i, q in enumerate(images) if m == self.n and q == Polynomial.variable(m, i + 1)]
        moved = [i for i in range(self.n) if i not in fixed]
        groups: dict[Exponent, dict[Exponent, Fraction | int]] = {}
        for exp, coeff in self.terms.items():
            rest = [0] * m
            for i in fixed:
                rest[i] = exp[i]
            groups.setdefault(tuple(exp[i] for i in moved), {})[tuple(rest)] = coeff
        powers: dict[tuple[int, int], Polynomial] = {}
        pairs = []
        for a, rest in groups.items():
            image = Polynomial.constant(m, 1)  # prod_i images[i]^(a_i)
            for i, e in zip(moved, a):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = images[i] ** e
                    image = image * powers[i, e]
            pairs.append((image, Polynomial._raw(m, rest)))
        return sum_of_products(m, pairs)


def sum_of_products(n: int, pairs: Iterable[tuple[Polynomial, Polynomial]]) -> Polynomial:
    """sum a * b over the pairs (a, b) of n-variable polynomials, in one
    fraction-free accumulation.

    Every operand is split once into integer terms (``integer_terms``); d is
    the lcm of the products of the two denominators of each pair, and each
    pair's term products, scaled to the denominator d, are summed in one
    integer map.  Each output coefficient is its sum over d in canonical
    form: the sum itself when d is 1.  Exact rationals are canonical, so the
    result is the term map of the repeated out = out + a * b.
    """
    split = []
    for a, b in pairs:
        if a.n != n or b.n != n:
            raise ValueError(f"variable-count mismatch: {a.n} and {b.n} vs {n}")
        split.append((a.integer_terms(), b.integer_terms()))
    return _sum_of_split_products(n, split)


def _sum_of_split_products(n: int, split: list[tuple[tuple[int, list], tuple[int, list]]]) -> Polynomial:
    """sum_of_products of operands already split by ``integer_terms``."""
    d = math.lcm(*(d1 * d2 for (d1, _), (d2, _) in split))
    acc = _accumulate([(terms1, terms2, d // (d1 * d2)) for (d1, terms1), (d2, terms2) in split])
    if d == 1:
        return Polynomial._raw(n, {e: c for e, c in acc.items() if c})
    return Polynomial._raw(n, {e: Fraction(c, d) if c % d else c // d for e, c in acc.items() if c})


# a call of _accumulate with at least this many term products sums them on
# packed monomials; below it, packing and unpacking cost more than they save
# (the crossover of a micro-benchmark of both loops, in CHANGES.md)
PACK_PRODUCTS = 128


def _accumulate(products: Iterable[tuple[Terms, Terms, int]]) -> dict[Exponent, int]:
    """sum scale * a * b over the (a, b, scale) of ``products``, a and b
    integer terms (lists or dict items), in one integer map whose zero sums
    may stay in it: the loop of ``sum_of_products`` and of the verifier's
    isolation check (``pipeline``).  A call of PACK_PRODUCTS or more term
    products sums on packed monomials (_accumulate_packed)."""
    products = list(products)
    if sum(len(terms1) * len(terms2) for terms1, terms2, _ in products) >= PACK_PRODUCTS:
        return _accumulate_packed(products)
    acc: dict[Exponent, int] = {}
    get = acc.get
    for terms1, terms2, scale in products:
        for e1, c1 in terms1:
            c1 *= scale
            for e2, c2 in terms2:
                exp = tuple(map(add, e1, e2))
                acc[exp] = get(exp, 0) + c1 * c2
    return acc


def _accumulate_packed(products: list[tuple[Terms, Terms, int]]) -> dict[Exponent, int]:
    """The loop of _accumulate on packed monomials (_packed_products): each
    distinct exponent is packed once, and only the nonzero sums are
    unpacked.  The packing is _Packing under grevlex with fields that hold
    the largest left degree plus the largest right degree, and every field
    of a product is at most its degree, so none overflows.  The map takes
    its keys in the order the tuple loop does."""
    lefts = dict.fromkeys(e for terms1, _, _ in products for e, _ in terms1)
    rights = dict.fromkeys(e for _, terms2, _ in products for e, _ in terms2)
    packing = _Packing(GREVLEX, len(next(iter(lefts))), max(map(sum, lefts)) + max(map(sum, rights)))
    key = {e: packing.pack(e) for e in (*lefts, *rights)}
    acc = _packed_products(([(key[e1], c1) for e1, c1 in terms1], [(key[e2], c2) for e2, c2 in terms2], scale)
                           for terms1, terms2, scale in products)
    unpack = packing.unpack
    return {unpack(k): c for k, c in acc.items() if c}


def _packed_products(products: Iterable[tuple[Terms, Terms, int]]) -> dict[int, int]:
    """sum scale * a * b over the (a, b, scale) of ``products``, a and b
    integer terms on packed keys of one _Packing (lists or dict items), in
    one map whose zero sums may stay in it: a term product is k1 + k2.  The
    one packed product loop, of _accumulate_packed, of ``groebner``'s rows
    modulo a prime, of the Laplace steps of ``minors`` and of the entries of
    ``derivations.symmetric_tuple``; each caller's packing holds the degree
    of every product it sums."""
    acc: dict[int, int] = {}
    get = acc.get
    for terms1, terms2, scale in products:
        for k1, c1 in terms1:
            c1 *= scale
            for k2, c2 in terms2:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    return acc


# the first 12 primes: as Miller-Rabin bases they decide primality of every
# n below 3.18 * 10^23, so of every n below 2^64 (Sorenson and Webster 2017);
# the first 4 of them decide every n below 3215031751 (Pomerance, Selfridge
# and Wagstaff 1980), so every n below 2^31
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Whether the integer n is prime, by deterministic Miller-Rabin with
    the first 12 prime bases (the first 4 below 3215031751); exact for
    n < 2^64, and n >= 2^64 raises ValueError."""
    if n >= 1 << 64:
        raise ValueError(f"primality is decided below 2^64 only, got {n}")
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MILLER_RABIN_BASES[:4] if n < 3215031751 else _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rational_reconstruction(a: int, m: int) -> Fraction | None:
    """The fraction r/s with |r|, s <= sqrt(m/2) and r = s a modulo m, or
    None if there is none (Wang 1981; Collins and Encarnacion 1995).

    Two such fractions congruent modulo m are equal, so the answer is
    unique.  The extended Euclidean remainder sequence of (m, a) is cut at
    the first remainder r <= sqrt(m/2), and the cofactor s of that step is
    the only candidate for the denominator.
    """
    bound = math.isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


@dataclass(frozen=True)
class MonomialOrder:
    """A global monomial order with x1 > x2 > ... > xn: grevlex or lex."""

    kind: str

    KINDS = ("grevlex", "lex")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown monomial order {self.kind!r}; expected one of {self.KINDS}")

    def descending_key(self, e: Exponent) -> tuple[int, ...]:
        """Flat int tuple, smaller for the larger monomial: a min-heap keyed
        by it pops monomials from the largest down, and a sort on it with
        reverse=True lists them from the smallest up (stable on ties)."""
        if self.kind == "lex":
            return tuple(map(neg, e))
        return (-sum(e), *reversed(e))

    def leading_term(self, p: Polynomial) -> tuple[Exponent, Fraction]:
        if p.is_zero():
            raise ValueError("leading term of the zero polynomial")
        exp = min(p.terms, key=self.descending_key)
        return exp, p.terms[exp]


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


class _Packing:
    """Exponent vectors of n variables as single ints, for one order and
    one field width (the ``groebner`` docstring): K(e) = sum e_i w_i, with
    e_i in field i of the low n*bits bits and the guard bit of each field
    clear while e_i <= limit.  K is linear, so K(e1) + K(e2) = K(e1 + e2)
    while every field of e1 + e2 is at most the limit."""

    def __init__(self, order: MonomialOrder, n: int, bound: int):
        bits = bound.bit_length() + 1  # limit = 2^(bits-1) - 1 >= bound
        top = n * bits
        tops = [1 << bits * (n - 1 - i) for i in range(n)] if order.kind == "lex" else [1] * n
        self.n, self.order = n, order
        self.weights = tuple((1 << bits * i) - (t << top) for i, t in enumerate(tops))
        self.shifts = tuple(bits * i for i in range(n))
        self.field = (1 << bits) - 1
        self.limit = self.field >> 1
        self.low = (1 << top) - 1
        self.guard = sum(self.limit + 1 << s for s in self.shifts)

    def pack(self, e: Exponent) -> int:
        return sum(map(mul, e, self.weights))

    def unpack(self, k: int) -> Exponent:
        field = self.field
        return tuple([k >> s & field for s in self.shifts])

    def unpack_terms(self, terms: dict) -> dict:
        """Packed terms as a term map on exponent tuples, with the same
        coefficients (Fractions or ints alike)."""
        return {self.unpack(k): c for k, c in terms.items()}


def quasi_homogeneous_weights(p: Polynomial) -> tuple[tuple[int, ...], int] | None:
    """Weights W and weighted degree D with <e, W> = D for every exponent e of p.

    The weights come from the unique rational solution w of <e, w> = 1 over
    the exponents of p, found by exact elimination and scaled to coprime
    positive integers W = D * w.  So the weighted Euler derivation
    E_W = sum W_i x_i d/dx_i satisfies E_W(p) = D * p.

    Homogeneous p of degree d takes a fast path to W = (1, ..., 1), D = d,
    which does not ask whether the solution is unique: x^3 + y^3 + z^3 read
    in x, y, z, w gets (1, 1, 1, 1), and its missing variable is left to
    the isolation decision (its partial in w is zero).  Any other p gives
    None when the system has no solution, more than one (some variable is
    missing, or the exponents are too few to fix the weights), or a
    solution with an entry that is not positive.  Raises ValueError on the
    zero polynomial.
    """
    degree = p.homogeneous_degree()
    if degree is not None:
        return (1,) * p.n, degree
    n = p.n
    rows = [[Fraction(a) for a in e] + [Fraction(1)] for e in sorted(p.terms)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return None  # a free weight: no unique solution
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    if any(row[n] for row in rows[n:]):
        return None  # inconsistent: terms of different weighted degree
    w = [rows[i][n] for i in range(n)]
    if any(v <= 0 for v in w):
        return None
    scale = math.lcm(*(v.denominator for v in w))
    ints = [int(v * scale) for v in w]
    common = math.gcd(*ints)
    return tuple(v // common for v in ints), scale // common


def _weights_and_degree(f: Polynomial) -> tuple[tuple[int, ...], int]:
    """quasi_homogeneous_weights(f); ValueError when f has no unique weights."""
    found = quasi_homogeneous_weights(f)
    if found is None:
        raise ValueError("polynomial is not quasi-homogeneous: no unique positive weight vector")
    return found


def monomials_of_degree(n: int, degree: int, weights: Sequence[int] | None = None) -> list[Exponent]:
    """All exponent tuples in n variables of the given degree, the first
    exponent descending; with ``weights`` (positive) the degree of x^e is
    the weighted sum <e, weights>."""
    if n == 0:
        return [()] if degree == 0 else []
    w = 1 if weights is None else weights[0]
    if n == 1:
        return [(degree // w,)] if degree % w == 0 and degree >= 0 else []
    rest_weights = None if weights is None else weights[1:]
    out = []
    for first in range(degree // w, -1, -1):
        for rest in monomials_of_degree(n - 1, degree - first * w, rest_weights):
            out.append((first,) + rest)
    return out


def _top_degree(weights: Sequence[int], degree: int) -> int:
    """s = sum(D - 2 W_i): the degree of the Hilbert series of the quotient
    by a zero-dimensional Jacobian ideal (point 4 of the ``pipeline``
    docstring)."""
    return sum(degree - 2 * w for w in weights)


def _apply(functional: Mapping[Exponent, Fraction], p: Polynomial, shift: Exponent) -> Fraction | int:
    """lambda(x^shift * p): one dot product over the terms of p."""
    total = 0
    for e, c in p.terms.items():
        v = functional.get(tuple(map(add, e, shift)))
        if v:
            total += c * v
    return total


def _vanishing_failures(functional: Mapping[Exponent, Fraction], gens: Sequence[Polynomial]) -> list[str]:
    """lambda(m s) = 0 for every generator s and every monomial m of the
    complementary weighted degree; at most one failure per generator.

    lambda(m s) is 0 unless some m t, t a term of s, is in the support of
    lambda: only those m need a dot product, and there are at most
    len(functional) * len(s) of them, whatever the degree is.
    """
    failures = []
    for k, s in enumerate(gens):
        shifts = {tuple(map(sub, e, t)) for e in functional for t in s.terms}
        for m in sorted(shifts):
            if min(m) >= 0 and _apply(functional, s, m):
                failures.append(f"the functional does not vanish on monomial {list(m)} times generator {k}")
                break
    return failures
