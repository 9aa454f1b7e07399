"""The exact kernels against their plain-Fraction references.

Multiplication and sums of products, determinants and ledger replay work
on integer numerators; tracked division works on packed monomials and
divisors made monic, over Q or modulo a prime.  These, the divided-power
derivative, tokenizing and the standard monomials of a basis must give
exactly what the loops in kernel_reference.py give: the same term maps
(canonical values: an int when integral), the same quotients and
remainders, the same tokens and the same ParseError messages and
positions, the same monomial lists.
"""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import is_canonical
from kernel_reference import (
    reference_determinant,
    reference_divide,
    reference_divide_mod,
    reference_higher_partial,
    reference_minor,
    reference_mul,
    reference_order_key,
    reference_replay,
    reference_standard_monomials,
    reference_substitute,
    reference_tokenize,
)
import nakai_forge.groebner as groebner
import nakai_forge.poly as poly
from nakai_forge.derivations import Adjustment, Derivation1, DerivationTuple, replay_ledger
from nakai_forge.exprio import ParseError, _tokenize, parse_poly
from nakai_forge.groebner import (
    Ideal, ResourceLimitExceeded, _divide, _Divisors, _split_divisor, buchberger, jacobian_ideal, reduce_by_basis,
)
from nakai_forge.minors import MAX_DETERMINANT_DIM, PolyMatrix, determinant, signed_minor
from nakai_forge.pipeline import slice_images
from nakai_forge.poly import GREVLEX, LEX, Polynomial, monomials_of_degree, sum_of_products


def _random_rational_poly(rng: random.Random, n: int, max_degree: int, max_terms: int) -> Polynomial:
    """Sparse random polynomial with signed rational coefficients, some large."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_degree) for _ in range(n))
        num = rng.choice((rng.randint(-3, 3), rng.randint(-10**30, 10**30)))
        terms[exp] = Fraction(num, rng.choice((1, 1, 2, 3, 4, 6, 7, 12, 10**20 + 39)))
    return Polynomial(n, terms)


def _assert_same(new: Polynomial, ref: Polynomial):
    assert new.n == ref.n
    assert new.terms == ref.terms
    assert all(map(is_canonical, new.terms.values()))


ORDERS = (GREVLEX, LEX)


class TestMultiply:
    def test_random_against_reference(self):
        rng = random.Random(5150)
        for _ in range(300):
            n = rng.randint(1, 4)
            a = _random_rational_poly(rng, n, 3, 6)
            b = _random_rational_poly(rng, n, 3, 6)
            _assert_same(a * b, reference_mul(a, b))

    def test_cancelling_terms(self):
        # coefficients in {-1, 0, 1} over few monomials cancel often
        rng = random.Random(77)
        cancelled = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            a = Polynomial(n, {e: Fraction(rng.choice((-1, 1)), rng.choice((1, 2)))
                               for e in monomials_of_degree(n, 1) if rng.random() < 0.8})
            b = Polynomial(n, {e: Fraction(rng.choice((-1, 1)), rng.choice((1, 2)))
                               for e in monomials_of_degree(n, 1) if rng.random() < 0.8})
            product = a * b
            _assert_same(product, reference_mul(a, b))
            cancelled += len(product) < len({tuple(x + y for x, y in zip(e1, e2))
                                             for e1 in a.terms for e2 in b.terms})
        assert cancelled > 0
        x, y = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        assert (x - y) * (x + y) == reference_mul(x - y, x + y) == x * x - y * y

    def test_zero_operands(self):
        for n in range(1, 5):
            zero = Polynomial.zero(n)
            p = Polynomial(n, {(1,) * n: Fraction(-5, 3)})
            for a, b in ((zero, p), (p, zero), (zero, zero)):
                _assert_same(a * b, reference_mul(a, b))
                assert (a * b).is_zero()

    def test_sum_of_products_against_reference(self):
        # pairs with unlike denominators, and pairs that cancel one another
        rng = random.Random(4242)
        for _ in range(200):
            n = rng.randint(1, 4)
            pairs = [(_random_rational_poly(rng, n, 2, 4), _random_rational_poly(rng, n, 2, 4))
                     for _ in range(rng.randint(0, 4))]
            if pairs and rng.random() < 0.3:
                a, b = pairs[0]
                pairs.append((-a, b))
            expected = Polynomial.zero(n)
            for a, b in pairs:
                expected = expected + reference_mul(a, b)
            _assert_same(sum_of_products(n, pairs), expected)
        with pytest.raises(ValueError):
            sum_of_products(2, [(Polynomial.variable(2, 1), Polynomial.variable(3, 1))])

    def test_power_and_substitution(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(1, 3)
            p = _random_rational_poly(rng, n, 2, 4)
            expected = Polynomial.constant(n, 1)
            for _ in range(3):
                expected = reference_mul(expected, p)
            _assert_same(p ** 3, expected)


class TestHigherPartial:
    def test_random_against_reference(self):
        # every multi-index of order at most 3, over 3 variables, on random
        # rational polynomials; orders past a polynomial's degrees give zero
        rng = random.Random(4141)
        alphas = [a for a in itertools.product(range(4), repeat=3) if sum(a) <= 3]
        zeros = 0
        for _ in range(25):
            p = _random_rational_poly(rng, 3, 3, 8)
            for alpha in alphas:
                new = p.higher_partial(alpha)
                _assert_same(new, reference_higher_partial(p, alpha))
                zeros += new.is_zero()
        assert zeros > 0

    def test_built_from_partial_and_one_scale(self, monkeypatch):
        calls = []
        for name in ("partial", "scale"):
            method = getattr(Polynomial, name)
            monkeypatch.setattr(Polynomial, name,
                                lambda self, arg, _m=method, _n=name: calls.append(_n) or _m(self, arg))
        p = parse_poly("x^3*y^2*z + 1/2*x*y", ["x", "y", "z"])
        assert p.higher_partial((2, 1, 0)) == parse_poly("6*x*y*z", ["x", "y", "z"])
        assert calls == ["partial", "partial", "partial", "scale"]


class TestSubstitute:
    def test_slices_against_reference(self):
        # x_1 alone moves, to (y_1 - a_2 y_2 - ... - a_n y_n) / a_1 with
        # rational a_i; the other variables stay
        rng = random.Random(1928)
        for _ in range(60):
            n = rng.randint(2, 4)
            f = _random_rational_poly(rng, n, 3, 6)
            first = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3)))
            rest = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 7))) for _ in range(n - 1)]
            images = slice_images([first, *rest], n)
            _assert_same(f.substitute_variables(images), reference_substitute(f, images))

    def test_noop_slice_gives_the_polynomial(self):
        rng = random.Random(1929)
        for _ in range(20):
            n = rng.randint(1, 4)
            f = _random_rational_poly(rng, n, 4, 8)
            images = slice_images([1] + [0] * (n - 1), n)
            _assert_same(f.substitute_variables(images), f)

    def test_images_against_reference(self):
        # images in a ring of another size, and in the same ring with some
        # variables left in place and the others moved
        rng = random.Random(1930)
        for _ in range(60):
            n = rng.randint(1, 3)
            m = rng.randint(1, 4)
            f = _random_rational_poly(rng, n, 3, 5)
            images = [Polynomial.variable(m, i) if m == n and rng.random() < 0.5
                      else _random_rational_poly(rng, m, 2, 3) for i in range(1, n + 1)]
            _assert_same(f.substitute_variables(images), reference_substitute(f, images))


class TestDeterminant:
    def test_random_against_reference(self):
        # sizes 0-5, about a third of the entries zero
        rng = random.Random(1968)
        for m in range(6):
            for _ in range(10 if m < 5 else 3):
                n = rng.randint(1, 3)
                matrix = PolyMatrix([[_random_rational_poly(rng, n, 2, 3) if rng.random() < 0.7 else Polynomial.zero(n)
                                      for _ in range(m)] for _ in range(m)], nvars=n)
                _assert_same(determinant(matrix), reference_determinant(matrix))

    def test_cancelling_entries(self):
        # the last row is c * row_1 + row_2 (or c * row_1), so every term
        # cancels; entries +-x_i / (1 or 2) make terms of a nonzero
        # determinant cancel too
        rng = random.Random(1969)
        for m in range(1, 6):
            for _ in range(4):
                n = rng.randint(1, 3)
                rows = [[_random_rational_poly(rng, n, 1, 3) for _ in range(m)] for _ in range(m - 1)]
                if rows:
                    c = _random_rational_poly(rng, n, 1, 2)
                    rows.append([c * a + (rows[1][k] if m > 2 else Polynomial.zero(n)) for k, a in enumerate(rows[0])])
                    rng.shuffle(rows)
                    matrix = PolyMatrix(rows, nvars=n)
                    _assert_same(determinant(matrix), reference_determinant(matrix))
                    assert determinant(matrix).is_zero()
                signs = PolyMatrix([[Polynomial.variable(n, rng.randint(1, n)).scale(Fraction(rng.choice((-1, 1)),
                                                                                               rng.choice((1, 2))))
                                     for _ in range(m)] for _ in range(m)], nvars=n)
                _assert_same(determinant(signs), reference_determinant(signs))


def _random_matrix(rng: random.Random, m: int, n: int, constant: bool) -> PolyMatrix:
    """An m x m matrix of rational entries, about a third of them zero:
    constants, or sparse entries of mixed degrees (up to 2 in each
    variable, fewer terms as m grows)."""
    def entry():
        if rng.random() < 0.35:
            return Polynomial.zero(n)
        if constant:
            return Polynomial.constant(n, Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 10**20 + 39))))
        return _random_rational_poly(rng, n, 2, 3 if m < 5 else 2)
    return PolyMatrix([[entry() for _ in range(m)] for _ in range(m)], nvars=n)


class TestMinors:
    """Every minor the packed memo expands, and determinant and signed_minor
    read from it, against the plain Laplace expansion on exponent tuples."""

    @pytest.mark.parametrize("constant", [False, True], ids=["polynomial", "constant"])
    def test_random_against_reference(self, constant):
        rng = random.Random(1985 + constant)
        for m in range(MAX_DETERMINANT_DIM + 1):
            n = rng.randint(1, 3)
            matrix = _random_matrix(rng, m, n, constant)
            full = tuple(range(m))
            for k in range(m + 1):
                for rows in itertools.combinations(full, k):
                    for cols in itertools.combinations(full, k):
                        _assert_same(matrix.minor(rows, cols), reference_minor(matrix, rows, cols))
            _assert_same(determinant(matrix), reference_minor(matrix, full, full))
            for _ in range(10):
                k = rng.randint(0, m)
                deleted = [rng.sample(range(1, m + 1), k) for _ in range(2)]
                parity = sum(sum(d) + sum(a > b for a, b in itertools.combinations(d, 2)) for d in deleted)
                rest = [tuple(i for i in full if i + 1 not in d) for d in deleted]
                expected = reference_minor(matrix, *rest)
                _assert_same(signed_minor(matrix, *deleted), -expected if parity % 2 else expected)

    def test_minors_at_the_packing_bound(self):
        # the fields hold m times the largest entry degree, here exactly
        # their limit: diagonal powers x_1^5 in a 3 x 3 matrix, and a
        # constant 3 x 3 matrix, whose entries count as degree 1
        n = 2
        power = Polynomial.monomial(n, (5, 0), Fraction(2, 3))
        zero = Polynomial.zero(n)
        diagonal = PolyMatrix([[power if i == j else zero for j in range(3)] for i in range(3)], nvars=n)
        assert diagonal.packing.limit == 15
        _assert_same(determinant(diagonal), Polynomial.monomial(n, (15, 0), Fraction(8, 27)))
        _assert_same(diagonal.minor((0, 1), (0, 1)), reference_minor(diagonal, (0, 1), (0, 1)))
        constants = PolyMatrix([[Polynomial.constant(n, (i + 1) ** j) for j in range(3)] for i in range(3)], nvars=n)
        assert constants.packing.limit == 3
        _assert_same(determinant(constants), Polynomial.constant(n, 2))


class TestReplayLedger:
    def test_random_ledgers_against_reference(self):
        # repeated (target, k, l) moves, and moves undone by -coeff or by
        # the swapped pair D_lk = -D_kl; every coefficient is nonzero
        rng = random.Random(1971)

        def coefficient(n):
            while True:
                c = _random_rational_poly(rng, n, 2, 3)
                if c:
                    return c

        undone = 0
        for _ in range(80):
            n = rng.randint(2, 4)
            f = _random_rational_poly(rng, n, 3, 5)
            while not all(f.partial(i) for i in range(1, n + 1)):  # no move is the identity
                f = f + _random_rational_poly(rng, n, 3, 5)
            tuple_in = DerivationTuple(tuple(
                Derivation1(tuple(_random_rational_poly(rng, n, 2, 3) for _ in range(n))) for _ in range(n)
            ), f)
            ledger = []
            for _ in range(rng.randint(0, 6)):
                t = rng.randint(1, n)
                k, l = rng.sample(range(1, n + 1), 2)
                coeff = coefficient(n)
                ledger.append(Adjustment(t, k, l, coeff))
                if rng.random() < 0.4:
                    ledger.append(Adjustment(t, k, l, coefficient(n)))
                if rng.random() < 0.3:
                    ledger.append(rng.choice((Adjustment(t, k, l, -coeff), Adjustment(t, l, k, coeff))))
            rng.shuffle(ledger)
            replayed = replay_ledger(tuple_in, ledger)
            expected = reference_replay(tuple_in, ledger)
            for new, ref in zip(replayed.ders, expected.ders):
                for a, b in zip(new.images, ref.images):
                    _assert_same(a, b)
            undone += bool(ledger) and replayed.ders == tuple_in.ders
        assert undone > 0, undone

    def test_target_out_of_range(self):
        x = Polynomial.variable(2, 1)
        tuple_in = DerivationTuple((Derivation1((x, x)), Derivation1((x, x))), x * x)
        for target in (0, 3):
            with pytest.raises(IndexError):
                replay_ledger(tuple_in, [Adjustment(target, 1, 2, x)])


def _divide_q(p: Polynomial, divisors: _Divisors):
    """_divide over Q of p's terms, its term maps handed out as the engine
    hands out values (groebner._polynomial), so _assert_same checks that
    their coefficients leave the engine canonical; inside, a term map over
    Q may hold integral Fractions."""
    quotients, remainder = _divide(p.terms, divisors)
    return [groebner._polynomial(p.n, q) for q in quotients], groebner._polynomial(p.n, remainder)


def _divide_both(p, divisors, order):
    leading = [order.leading_term(g) for g in divisors]
    return (
        _divide_q(p, _Divisors([_split_divisor(g, order) for g in divisors], order, p.n)),
        reference_divide(p, divisors, leading, order, groebner.DEFAULT_MAX_TERMS),
    )


def _assert_same_division(new, ref):
    (new_q, new_r), (ref_q, ref_r) = new, ref
    assert len(new_q) == len(ref_q)
    for a, b in zip(new_q, ref_q):
        _assert_same(a, b)
    _assert_same(new_r, ref_r)


class TestDivide:
    def test_random_divisors_against_reference(self):
        rng = random.Random(2718)
        for _ in range(200):
            n = rng.randint(1, 4)
            p = _random_rational_poly(rng, n, 4, 8)
            divisors = []
            while len(divisors) < rng.randint(1, 4):
                g = _random_rational_poly(rng, n, 2, 4)
                if not g.is_zero():
                    divisors.append(g)
            for order in ORDERS:
                _assert_same_division(*_divide_both(p, divisors, order))

    def test_negative_leading_coefficients(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 4)
            p = _random_rational_poly(rng, n, 4, 8)
            divisors = []
            for _ in range(rng.randint(1, 3)):
                g = _random_rational_poly(rng, n, 2, 4)
                if g.is_zero():
                    continue
                _, lc = GREVLEX.leading_term(g)
                divisors.append(g if lc < 0 else -g)
            if divisors:
                _assert_same_division(*_divide_both(p, divisors, GREVLEX))

    def test_reduced_bases_against_reference(self):
        # the reduced basis over Q: monic divisors with rational tails, as
        # buchberger holds them
        rng = random.Random(404)
        for _ in range(12):
            n = rng.randint(2, 3)
            gens = tuple(
                Polynomial(n, {e: Fraction(rng.randint(-3, 3)) for e in monomials_of_degree(n, 2)})
                for _ in range(n)
            )
            if any(g.is_zero() for g in gens):
                continue
            gb = buchberger(Ideal(gens))
            for _ in range(5):
                p = _random_rational_poly(rng, n, 4, 8)
                _assert_same_division(*_divide_both(p, list(gb.basis), GREVLEX))
                product = p * gens[0]
                (quotients, remainder), _ = _divide_both(product, list(gb.basis), GREVLEX)
                assert remainder.is_zero()

    def test_reduce_by_basis_against_reference(self):
        # reduce_by_basis splits each divisor monic; its remainder is the
        # plain loop's for leading coefficients negative, rational or both
        rng = random.Random(1618)
        leading_coefficients = (Fraction(-2, 3), Fraction(-7, 12), Fraction(5, 4), Fraction(-1), Fraction(3))
        negative_rational = 0
        for _ in range(100):
            n = rng.randint(1, 4)
            p = _random_rational_poly(rng, n, 4, 8)
            divisors = [g for g in (_random_rational_poly(rng, n, 2, 4) for _ in range(rng.randint(1, 3)))
                        if not g.is_zero()]
            for order in ORDERS:
                basis = [g.scale(rng.choice(leading_coefficients) / order.leading_term(g)[1]) for g in divisors]
                leading = [order.leading_term(g) for g in basis]
                negative_rational += sum(lc < 0 and lc.denominator > 1 for _, lc in leading)
                _, expected = reference_divide(p, basis, leading, order, groebner.DEFAULT_MAX_TERMS)
                _assert_same(reduce_by_basis(p, basis, order), expected)
        assert negative_rational > 50

    def test_zero_dividend(self):
        for n in range(1, 5):
            divisors = [Polynomial(n, {(1,) + (0,) * (n - 1): Fraction(-2, 3)})]
            (quotients, remainder), ref = _divide_both(Polynomial.zero(n), divisors, GREVLEX)
            _assert_same_division((quotients, remainder), ref)
            assert remainder.is_zero() and all(q.is_zero() for q in quotients)

    def test_cap_agrees_with_reference(self, monkeypatch):
        rng = random.Random(99)
        checked = 0
        for _ in range(60):
            n = rng.randint(2, 4)
            p = _random_rational_poly(rng, n, 4, 8)
            g = _random_rational_poly(rng, n, 2, 4)
            if len(g) < 2:
                continue
            leading = [GREVLEX.leading_term(g)]
            for cap in range(0, 40):
                monkeypatch.setattr(groebner, "DEFAULT_MAX_TERMS", cap)
                try:
                    reference_divide(p, [g], leading, GREVLEX, cap)
                except ResourceLimitExceeded:
                    with pytest.raises(ResourceLimitExceeded):
                        _divide_q(p, _Divisors([_split_divisor(g, GREVLEX)], GREVLEX, p.n))
                    continue
                _divide_q(p, _Divisors([_split_divisor(g, GREVLEX)], GREVLEX, p.n))
                checked += cap > 0
                break
        assert checked > 10


P31 = 2**31 - 1


def _random_monic_residues(rng: random.Random, n: int, max_degree: int, max_terms: int, order, modulus: int):
    """Random nonzero integer terms modulo a prime, made monic under the order."""
    terms = {tuple(rng.randint(0, max_degree) for _ in range(n)): rng.randrange(1, modulus)
             for _ in range(rng.randint(1, max_terms))}
    inverse = pow(terms[min(terms, key=order.descending_key)], -1, modulus)
    return {e: c * inverse % modulus for e, c in terms.items()}


class TestDivideModular:
    """The packed division modulo a prime against the plain loop on tuples
    (kernel_reference.reference_divide_mod)."""

    @pytest.mark.parametrize("modulus", [7, P31])
    def test_random_against_reference(self, modulus):
        # a small prime makes terms cancel modulo it; some lex divisions
        # outgrow the width that holds the dividend, and are redone wider
        rng = random.Random(8128 + modulus)
        for _ in range(150):
            n = rng.randint(1, 4)
            for order in ORDERS:
                p = {tuple(rng.randint(0, 9) for _ in range(n)): rng.randint(-10**12, 10**12)
                     for _ in range(rng.randint(0, 8))}
                divisors = [_random_monic_residues(rng, n, 3, 4, order, modulus) for _ in range(rng.randint(1, 4))]
                packed = _Divisors([_split_divisor(groebner._polynomial(n, g), order) for g in divisors], order, n)
                quotients, remainder = _divide(p, packed, modulus)
                expected = reference_divide_mod(p, divisors, order, modulus)
                assert (quotients, remainder) == expected, (order, p, divisors)


class TestWidening:
    """The packing never overflows silently: a lex division whose exponents
    outgrow the first width is redone wider, and buchberger repacks its
    divisors when a pair's lcm degree passes the width."""

    @staticmethod
    def _count_widenings(monkeypatch) -> list[int]:
        """The bound of every fit that repacks the divisors wider."""
        bounds = []
        fit = groebner._Divisors.fit

        def counting(self, bound):
            before = self.packing
            fit(self, bound)
            if self.packing is not before:
                bounds.append(bound)

        monkeypatch.setattr(groebner._Divisors, "fit", counting)
        return bounds

    @pytest.mark.parametrize("modulus", [None, P31])
    def test_lex_division(self, modulus, monkeypatch):
        names = ["x", "y"]
        g = parse_poly("x - y^100", names)
        split = [_split_divisor(g if modulus is None else g.mod(modulus), LEX)]

        def divide(text):
            p = parse_poly(text, names)
            return _divide(groebner._residues(p, modulus), _Divisors(split, LEX, 2), modulus)

        def expect(text):
            return groebner._residues(parse_poly(text, names), modulus)

        bounds = self._count_widenings(monkeypatch)
        # the first width holds 100, so y^100 needs no second
        assert divide("x") == ([expect("1")], expect("y^100"))
        assert bounds == []
        # x^2 = (x + y^100)(x - y^100) + y^200: 200 passes the first width
        # (fields up to 127), and the division is redone one bit wider
        assert divide("x^2") == ([expect("x + y^100")], expect("y^200"))
        assert bounds == [255]

    def test_lex_buchberger(self, monkeypatch):
        # x^2 (x - y^2) - (x^3 - z) reduces through x*y^4 to z - y^6, past
        # the fields (up to 3) that the generators' exponents need
        names = ["x", "y", "z"]
        bounds = self._count_widenings(monkeypatch)
        ideal = Ideal((parse_poly("x - y^2", names), parse_poly("x^3 - z", names)))
        expected = [parse_poly("x - y^2", names), parse_poly("y^6 - z", names)]
        assert list(buchberger(ideal, LEX).basis) == expected
        assert bounds
        bounds.clear()
        assert list(buchberger(ideal, LEX, modulus=P31).basis) == [g.mod(P31) for g in expected]
        assert bounds

    def test_buchberger_past_the_first_width(self, monkeypatch):
        # quadrics: the first width holds degree 3, and the basis has pairs
        # of higher lcm degree; the basis modulo p is that over Q reduced
        rng = random.Random(1729)
        bounds = self._count_widenings(monkeypatch)
        gens = tuple(Polynomial(3, {e: Fraction(rng.randint(-3, 3)) for e in monomials_of_degree(3, 2)})
                     for _ in range(3))
        over_q = buchberger(Ideal(gens))
        bounds.clear()
        gb = buchberger(Ideal(gens), modulus=P31)
        # each widening is the degree rule's, to twice an lcm degree past
        # the width; none redoes a division, which widens to a field mask
        # 2^B - 1
        assert bounds and min(bounds) > 3 and all(bound % 2 == 0 for bound in bounds)
        assert list(gb.basis) == [g.mod(P31) for g in over_q.basis]
        for b, row in zip(gb.basis, gb.cofactors):
            assert sum_of_products(3, zip(row, gens)).mod(P31) == b


class TestMaxTermsCap:
    def test_raises_once_live_terms_exceed_cap(self, monkeypatch):
        # x^2 by x - y - z under grevlex: after x^2 the live terms are
        # {xy, xz}, after xy {xz, y^2, yz}, after xz {y^2, 2yz, z^2};
        # the most live terms at once is 3
        V = Polynomial.variable
        p = V(3, 1) * V(3, 1)
        g = V(3, 1) - V(3, 2) - V(3, 3)
        monkeypatch.setattr(groebner, "DEFAULT_MAX_TERMS", 2)
        with pytest.raises(ResourceLimitExceeded, match="exceeded 2 terms"):
            _divide_q(p, _Divisors([_split_divisor(g, GREVLEX)], GREVLEX, p.n))
        monkeypatch.setattr(groebner, "DEFAULT_MAX_TERMS", 3)
        quotients, remainder = _divide_q(p, _Divisors([_split_divisor(g, GREVLEX)], GREVLEX, p.n))
        assert quotients[0] == V(3, 1) + V(3, 2) + V(3, 3)
        assert remainder == (V(3, 2) + V(3, 3)) * (V(3, 2) + V(3, 3))

    def test_cancelled_terms_are_not_counted(self, monkeypatch):
        # x^2 - x*y + z^2 by x - y: taking x^2 adds x*y, which cancels the
        # -x*y already there, so one live term (z^2) remains and a cap of 1
        # holds; a zero kept in the working map would count as a second
        p = parse_poly("x^2 - x*y + z^2", ["x", "y", "z"])
        g = parse_poly("x - y", ["x", "y", "z"])
        monkeypatch.setattr(groebner, "DEFAULT_MAX_TERMS", 1)
        quotients, remainder = _divide_q(p, _Divisors([_split_divisor(g, GREVLEX)], GREVLEX, p.n))
        assert quotients[0] == parse_poly("x", ["x", "y", "z"])
        assert remainder == parse_poly("z^2", ["x", "y", "z"])


def _pairs_of_products(rng: random.Random, n: int, count: int) -> list[tuple[Polynomial, Polynomial]]:
    """Pairs whose term products number exactly ``count``: random pairs with
    coefficients +-1 or +-1/2 on few monomials (so sums cancel), each
    followed by its negation now and then, and a last pair of a monomial
    and as many terms as the count lacks; one exponent is 2^70."""
    pairs: list[tuple[Polynomial, Polynomial]] = []

    def small(terms):
        exponents = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(terms)]
        return Polynomial(n, {e: Fraction(rng.choice((-1, 1)), rng.choice((1, 2))) for e in exponents})

    while True:
        a, b = small(rng.randint(1, 4)), small(rng.randint(1, 6))
        pending = [(a, b), (-a, b)] if rng.random() < 0.3 else [(a, b)]
        if sum(len(x) * len(y) for x, y in pairs + pending) >= count:
            break
        pairs += pending
    missing = count - sum(len(x) * len(y) for x, y in pairs)
    tail = {(2**70,) + (0,) * (n - 1): Fraction(-5, 3)}
    tail.update({(k,) + (1,) * (n - 1): Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for k in range(missing - 1)})
    pairs.append((Polynomial.monomial(n, (1,) * n, 3), Polynomial(n, tail)))
    return pairs


class TestPackedSums:
    """Sums of at least poly.PACK_PRODUCTS term products run on packed
    monomials, smaller ones on tuples; both give the reference results."""

    @staticmethod
    def _packed_calls(monkeypatch) -> list[int]:
        calls = []
        packed = poly._accumulate_packed

        def counting(products):
            calls.append(len(products))
            return packed(products)

        monkeypatch.setattr(poly, "_accumulate_packed", counting)
        return calls

    @pytest.mark.parametrize("count", [poly.PACK_PRODUCTS - 1, poly.PACK_PRODUCTS], ids=["below", "at"])
    def test_sum_of_products(self, count, monkeypatch):
        calls = self._packed_calls(monkeypatch)
        rng = random.Random(count)
        for n in (1, 3, 5):
            pairs = _pairs_of_products(rng, n, count)
            expected = Polynomial.zero(n)
            for a, b in pairs:
                expected = expected + reference_mul(a, b)
            _assert_same(sum_of_products(n, pairs), expected)
        assert len(calls) == (3 if count >= poly.PACK_PRODUCTS else 0)

    @pytest.mark.parametrize("count", [poly.PACK_PRODUCTS - 1, poly.PACK_PRODUCTS], ids=["below", "at"])
    @pytest.mark.parametrize("modulus", [7, P31])
    def test_combine_rows_modulo_a_prime(self, count, modulus, monkeypatch):
        # rows of width 1: the multipliers q and rows of each pair as term
        # maps on the keys of one packing that holds every product's degree,
        # summed modulo the prime against the reference products; the terms
        # arrive packed, so no call packs them again
        calls = self._packed_calls(monkeypatch)
        rng = random.Random(count + modulus)
        for n in (2, 4):
            pairs = _pairs_of_products(rng, n, count)
            packing = poly._Packing(GREVLEX, n, max(_degree(a) + _degree(b) for a, b in pairs))
            combination = [(_packed_residues(a, packing, modulus), (_packed_residues(b, packing, modulus),))
                           for a, b in pairs]
            expected = Polynomial.zero(n)
            for a, b in pairs:
                expected = expected + reference_mul(a.mod(modulus), b.mod(modulus))
            assert sum(len(q) * len(row[0]) for q, row in combination) == count
            (entry,) = groebner._combine_rows(n, combination, 1, modulus)
            assert packing.unpack_terms(entry) == groebner._residues(expected, modulus)
        assert calls == []


def _degree(p: Polynomial) -> int:
    return max(map(sum, p.terms))


def _packed_residues(p: Polynomial, packing, modulus: int) -> dict[int, int]:
    return {packing.pack(e): c for e, c in groebner._residues(p, modulus).items()}


def _integer_poly(rng: random.Random, n: int, degree: int, terms: int) -> Polynomial:
    """Integer coefficients of either sign, exponents up to ``degree`` in
    each variable and in total, some of the coefficients multiples of 7."""
    out = {}
    for _ in range(terms):
        e = [0] * n
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(n)] += 1
        out[tuple(e)] = rng.choice((rng.randint(-9, 9), 7 * rng.randint(-3, 3), rng.randint(-10**12, 10**12)))
    return Polynomial(n, out)


class TestRows:
    """The rows of a basis modulo a prime, on packed keys under one packing
    whose fields hold the degree bound of every node."""

    @pytest.mark.parametrize("modulus", [7, P31])
    def test_combine_rows_at_the_packing_bound(self, modulus):
        # rows of width 2 whose products have degree at most 7, the limit of
        # the packing; one product is x_n^3 * x_n^4, the last field at it
        rng = random.Random(modulus)
        for n in (2, 3):
            packing = poly._Packing(GREVLEX, n, 7)
            assert packing.limit == 7
            top = tuple(int(i == n - 1) for i in range(n))
            pairs = [(_integer_poly(rng, n, 3, 4), [_integer_poly(rng, n, 4, 5) for _ in range(2)]) for _ in range(6)]
            pairs.append((Polynomial.monomial(n, [3 * e for e in top], 2),
                          [Polynomial.monomial(n, [4 * e for e in top], -3), _integer_poly(rng, n, 4, 5)]))
            combination = [(_packed_residues(q, packing, modulus), tuple(_packed_residues(r, packing, modulus) for r in row))
                           for q, row in pairs]
            entries = groebner._combine_rows(n, combination, 2, modulus)
            for j, entry in enumerate(entries):
                expected = Polynomial.zero(n)
                for q, row in pairs:
                    expected = expected + reference_mul(q, row[j])
                assert packing.unpack_terms(entry) == groebner._residues(expected, modulus)
            assert any(k == packing.pack(tuple(7 * e for e in top)) for k in entries[0])

    def test_node_bounds_hold_every_row(self):
        # each formed row entry has degree at most its node's bound, and the
        # rows give back the basis modulo the prime
        gens = jacobian_ideal(parse_poly("x^3 + 2*y^3 + z^3 - x*y*z + x^2*z", ["x", "y", "z"])).generators
        gb = buchberger(Ideal(gens), modulus=P31)
        for row, b in zip(gb.cofactors, gb.basis):
            assert sum_of_products(3, zip(row, gens)).mod(P31) == b
        rows = gb._rows
        assert rows.packing.limit >= max(rows.bounds.values())
        for node, row in rows.formed.items():
            for entry in row:
                assert all(sum(rows.packing.unpack(k)) <= rows.bounds[node] for k in entry)

    def test_lift_widens_the_row_packing(self):
        # a member whose quotients have a degree above every node bound: the
        # lift repacks the rows formed so far and gives the lift over Q
        # reduced modulo the prime
        names = ["x", "y", "z"]
        gens = jacobian_ideal(parse_poly("x^3 + 2*y^3 + z^3 - x*y*z + x^2*z", names)).generators
        gb, over_q = buchberger(Ideal(gens), modulus=P31), buchberger(Ideal(gens))
        rows = gb.cofactors  # forms every row under the first packing
        limit = gb._rows.packing.limit
        high = Polynomial.monomial(3, (2 * limit + 2, 2, 0), 5)  # past every unpackable field
        member = sum_of_products(3, [(high, gens[0]), (parse_poly("y^2 - 3*x*z", names), gens[2])])
        lifted = gb.lift(member)
        assert gb._rows.packing.limit > limit
        assert lifted == tuple(c.mod(P31) for c in over_q.lift(member))
        assert sum_of_products(3, zip(lifted, gens)).mod(P31) == member.mod(P31)
        assert gb.cofactors == rows


class TestDescendingKey:
    def test_sorts_like_reversed_key(self):
        rng = random.Random(3)
        for n in range(1, 5):
            exps = list({tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(60)})
            for order in ORDERS:
                expected = sorted(exps, key=lambda e: reference_order_key(order, e), reverse=True)
                assert sorted(exps, key=order.descending_key) == expected
                assert all(type(v) is int for v in order.descending_key(exps[0]))


# Inputs of tests/test_exprio.py plus malformed and Unicode cases.
TOKEN_CASES = [
    "x^2*y + y^2*z + z^2*x", "0", "(x + y)^3", "1/2*x - 3/4", "-x + y", "y - x", "x1*x2^2",
    "x + t", "x^-2", "2 x", "x y", "2(x + y)", "x + * y", "x + y)", "(x + y", "x^1/2", "",
    "   ", "5/3*x^2 - 1/2", "x - y + 1", "-x^2 - y", "x^3 + y^3 + z^3",
    "1/", "1/x", "3/ 4", "12/34/5", "1//2", "x $ y", "a.b", "x + y\n", "\tx\r\n*\x0by",
    "é*x", "_a1 + __", "½*x", "x½", "x²", "٣*x + ١/٢",
    "123456789012345678901234567890/987654321", "((x))^0", "x^", "^x", "*", ")(", "y1^2 - 3/7*y2*y3",
]


def _outcome(tokenize, text):
    try:
        return [tuple(t) for t in tokenize(text)]
    except ParseError as exc:
        return ("error", str(exc), exc.position)


class TestTokenizer:
    @pytest.mark.parametrize("text", TOKEN_CASES)
    def test_listed_cases(self, text):
        assert _outcome(_tokenize, text) == _outcome(reference_tokenize, text)

    def test_random_strings(self):
        # every character class the tokenizer distinguishes, except
        # non-decimal digits such as '²' (see the test below)
        alphabet = "xyz_a019/+-*^()  \t\n.,#$é½  ٣ß"
        rng = random.Random(1234)
        for _ in range(3000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            assert _outcome(_tokenize, text) == _outcome(reference_tokenize, text), text

    def test_non_decimal_digits_are_unexpected(self):
        # '²' is a digit to str.isdigit but not a decimal: the reference
        # made it a NUMBER that Fraction then refused with a bare ValueError
        for text, position in (("x + ²", 4), ("2²*x", 1), ("1/²", 2)):
            with pytest.raises(ParseError) as info:
                parse_poly(text, ["x"])
            assert info.value.position == position


def _random_zero_dimensional(rng: random.Random, n: int) -> Ideal:
    """For each variable a pure power x_i^a, with terms of lower degree
    added, or in half the draws alone and with up to three sparse random
    forms: under grevlex the leading-term ideal holds every x_i^a, so the
    ideal is zero-dimensional."""
    homogeneous = rng.random() < 0.5
    gens = []
    for i in range(n):
        a = rng.randint(1, 4)
        power = Polynomial.monomial(n, tuple(a if k == i else 0 for k in range(n)))
        lower = {e: c for e, c in _random_rational_poly(rng, n, a - 1, 3).terms.items() if sum(e) < a}
        gens.append(power if homogeneous else power + Polynomial(n, lower))
    for _ in range(rng.randint(1, 3) if homogeneous else 0):
        monomials = monomials_of_degree(n, rng.randint(1, 3))
        picked = rng.sample(monomials, rng.randint(1, min(3, len(monomials))))
        gens.append(Polynomial(n, {e: Fraction(rng.choice((-3, -1, 1, 2, 5))) for e in picked}))
    return Ideal(tuple(gens))


class TestStandardMonomials:
    @pytest.mark.parametrize("modulus", [None, 2147483647])
    def test_random_bases_against_reference(self, modulus):
        rng = random.Random(2 if modulus is None else modulus)
        for _ in range(60):
            order = rng.choice((GREVLEX, LEX))
            gb = buchberger(_random_zero_dimensional(rng, rng.randint(1, 4)), order, modulus)
            assert gb.is_zero_dimensional()
            assert gb.standard_monomials() == reference_standard_monomials(gb.leading_monomials(), gb.n)
