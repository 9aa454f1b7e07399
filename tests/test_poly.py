import math
import random
from fractions import Fraction

import pytest

from nakai_forge.derivations import build_candidate_tuple, euler_derivation, symmetric_tuple
from nakai_forge.exprio import parse_poly
from nakai_forge.groebner import is_isolated_singularity
from nakai_forge.minors import verify_cofactor_identity
from nakai_forge.pipeline import generic_slice_search
from nakai_forge.poly import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    is_prime,
    monomials_of_degree,
    quasi_homogeneous_weights,
    rational_reconstruction,
)

V3 = ["x", "y", "z"]


def P(text, variables=V3):
    return parse_poly(text, variables)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert P("(x + y)*(x - y)") == P("x^2 - y^2")

    def test_additive_identity(self):
        p = P("x^2*y - 3*z")
        assert p + Polynomial.zero(3) == p
        assert P("0") == Polynomial.zero(3)

    def test_monomial_product(self):
        # hand expansion: (2xy + z^2) * x = 2x^2y + xz^2
        assert P("(2*x*y + z^2)*x") == P("2*x^2*y + x*z^2")

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 1) + Polynomial.variable(3, 1)

    def test_ring_axioms_random(self):
        rng = random.Random(101)
        from conftest import random_polynomial

        for _ in range(40):
            n = rng.randint(1, 4)
            p = random_polynomial(rng, n, 3)
            q = random_polynomial(rng, n, 3)
            r = random_polynomial(rng, n, 3)
            assert (p + q) + r == p + (q + r)
            assert p * (q + r) == p * q + p * r
            assert (p - p).is_zero()
            assert p * q == q * p

    def test_power(self):
        assert P("x + y") ** 3 == P("x^3 + 3*x^2*y + 3*x*y^2 + y^3")
        assert P("x") ** 0 == Polynomial.constant(3, 1)
        with pytest.raises(ValueError):
            P("x") ** -1


class TestCalculus:
    def test_partial_paper_example(self):
        f = P("x^2*y + y^2*z + z^2*x")
        assert f.partial(1) == P("2*x*y + z^2")
        assert f.partial(2) == P("2*y*z + x^2")
        assert f.partial(3) == P("2*z*x + y^2")

    def test_partial_constant_and_power_rule(self):
        assert Polynomial.constant(3, 7).partial(2).is_zero()
        assert P("x^3 + y^3 + z^3").partial(2) == P("3*y^2")

    def test_partial_index_range(self):
        with pytest.raises(IndexError):
            P("x").partial(4)
        with pytest.raises(IndexError):
            P("x").partial(0)

    def test_partial_leibniz_random(self):
        rng = random.Random(7)
        from conftest import random_polynomial

        for _ in range(25):
            n = rng.randint(1, 4)
            p = random_polynomial(rng, n, 3)
            q = random_polynomial(rng, n, 3)
            i = rng.randint(1, n)
            assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)

    def test_higher_partial_divided_power(self):
        # d_alpha(x^alpha) = 1 under the divided-power convention
        assert Polynomial.monomial(1, (2,)).higher_partial((2,)) == Polynomial.constant(1, 1)

    def test_higher_partial_zero_index(self):
        p = P("x^2*y - 3*z")
        assert p.higher_partial((0, 0, 0)) == p

    def test_higher_partial_mixed(self):
        # (1/1!1!) d^2(x^2 y)/dx dy = 2x
        assert parse_poly("x^2*y", ["x", "y"]).higher_partial((1, 1)) == parse_poly("2*x", ["x", "y"])

    def test_higher_partial_composition_random(self):
        # d_alpha d_beta = prod(binom(a_i+b_i, a_i)) d_(alpha+beta)
        rng = random.Random(11)
        from conftest import random_polynomial

        for _ in range(30):
            n = rng.randint(1, 3)
            p = random_polynomial(rng, n, 5)
            alpha = tuple(rng.randint(0, 2) for _ in range(n))
            beta = tuple(rng.randint(0, 2) for _ in range(n))
            constant = 1
            for a, b in zip(alpha, beta):
                constant *= math.comb(a + b, a)
            combined = tuple(a + b for a, b in zip(alpha, beta))
            assert p.higher_partial(beta).higher_partial(alpha) == \
                p.higher_partial(combined).scale(constant)

    def test_euler_paper_example(self):
        f = P("x^2*y + y^2*z + z^2*x")
        assert euler_derivation(3).apply(f) == f.scale(3)

    def test_euler_constant_and_mixed(self):
        assert euler_derivation(2).apply(Polynomial.constant(2, 5)).is_zero()
        mixed = parse_poly("x^2 + y^3", ["x", "y"])
        assert euler_derivation(2).apply(mixed) == parse_poly("2*x^2 + 3*y^3", ["x", "y"])

    def test_euler_identity_random_homogeneous(self):
        rng = random.Random(19)
        from conftest import random_homogeneous

        for _ in range(20):
            n = rng.randint(1, 5)
            d = rng.randint(1, 6)
            p = random_homogeneous(rng, n, d)
            assert euler_derivation(n).apply(p) == p.scale(d)


class TestDegrees:
    def test_homogeneous_degree_paper(self):
        assert P("x^2*y + y^2*z + z^2*x").homogeneous_degree() == 3

    def test_not_homogeneous(self):
        assert parse_poly("x^2 + y^3", ["x", "y"]).homogeneous_degree() is None

    def test_fermat(self):
        assert P("x^3 + y^3 + z^3").homogeneous_degree() == 3

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.zero(2).homogeneous_degree()

    def test_monomials_of_weighted_degree(self):
        assert monomials_of_degree(3, 12, (6, 4, 3)) == [(2, 0, 0), (1, 0, 2), (0, 3, 0), (0, 0, 4)]
        assert monomials_of_degree(2, 7, (2, 4)) == []
        assert monomials_of_degree(3, 2, (1, 1, 1)) == monomials_of_degree(3, 2)
        for e in monomials_of_degree(4, 11, (3, 2, 2, 1)):
            assert 3 * e[0] + 2 * e[1] + 2 * e[2] + e[3] == 11
        assert len(monomials_of_degree(4, 11, (3, 2, 2, 1))) == len(set(monomials_of_degree(4, 11, (3, 2, 2, 1))))

    def test_min_degree(self):
        assert P("x^2 + y^3 + z^4").min_degree() == 2
        assert P("x + y^2").min_degree() == 1
        assert Polynomial.zero(3).min_degree() == -1


class TestQuasiHomogeneousWeights:
    def test_brieskorn(self):
        assert quasi_homogeneous_weights(P("x^2 + y^3 + z^4")) == ((6, 4, 3), 12)
        assert quasi_homogeneous_weights(P("x^3 + y^3 + z^4")) == ((4, 4, 3), 12)

    def test_mixed_terms(self):
        assert quasi_homogeneous_weights(P("x^2*y + y^3 + z^5")) == ((5, 5, 3), 15)
        assert quasi_homogeneous_weights(P("x^3 + x*y^3 + z^2")) == ((6, 4, 9), 18)

    def test_homogeneous_fast_path(self):
        assert quasi_homogeneous_weights(P("x^2*y + y^2*z + z^2*x")) == ((1, 1, 1), 3)
        # a missing variable still gets weight 1 on the homogeneous path
        f = parse_poly("x^3 + y^3 + z^3", ["x", "y", "z", "w"])
        assert quasi_homogeneous_weights(f) == ((1, 1, 1, 1), 3)

    def test_no_unique_positive_solution(self):
        assert quasi_homogeneous_weights(P("x^2 + y^3")) is None  # z is free
        assert quasi_homogeneous_weights(P("x*y + z^3")) is None  # only w1 + w2 fixed
        assert quasi_homogeneous_weights(P("x^2 + y^3 + z^4 + 1")) is None  # inconsistent
        assert quasi_homogeneous_weights(P("x*y^2 + y + z^2")) is None  # w1 = -1

    @pytest.mark.parametrize("call", [
        build_candidate_tuple,
        symmetric_tuple,
        generic_slice_search,
        is_isolated_singularity,
        lambda f: verify_cofactor_identity(f, 1, 1, 2),
    ], ids=["build_candidate_tuple", "symmetric_tuple", "generic_slice_search", "is_isolated_singularity",
            "verify_cofactor_identity"])
    def test_one_check_for_every_caller_that_raises(self, call):
        # x^2 + y^3 read in x, y, z leaves the weight of z free
        with pytest.raises(ValueError, match="^polynomial is not quasi-homogeneous: no unique positive weight vector$"):
            call(P("x^2 + y^3"))

    def test_weighted_euler_multiplies_by_degree(self):
        rng = random.Random(29)
        for text in ("x^2 + y^3 + z^4", "x^2*y + y^3 + z^5", "x + y^2 + z^3"):
            f = P(text)
            weights, degree = quasi_homogeneous_weights(f)
            assert math.gcd(*weights) == 1
            image = Polynomial.zero(3)
            for i, w in enumerate(weights, 1):
                image = image + Polynomial.variable(3, i).scale(w) * f.partial(i)
            assert image == f.scale(degree)
            scaled = f.scale(rng.randint(2, 9))
            assert quasi_homogeneous_weights(scaled) == (weights, degree)


class TestModular:
    def test_mod(self):
        p = P("7/3*x^2 - 5*y + 1/2*z - 1/3 + 11*x*y*z")
        # modulo 7: 1/3 = 5 and 1/2 = 4, so 7/3 vanishes and -1/3 is 2
        assert p.mod(7) == P("4*x*y*z + 2*y + 4*z + 2")
        # modulo 2147483647: 1/3 = 1431655765 and 1/2 = 1073741824
        assert p.mod(2147483647) == P("11*x*y*z + 1431655767*x^2 + 2147483642*y + 1073741824*z + 715827882")
        assert all(type(c.numerator) is int and c.denominator == 1 for c in p.mod(13).terms.values())
        assert Polynomial.zero(3).mod(5) == Polynomial.zero(3)

    def test_mod_refuses_a_denominator_the_prime_divides(self):
        with pytest.raises(ZeroDivisionError, match="3 divides the denominator 6"):
            P("x + 1/6*y").mod(3)

    def test_is_prime_small(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert [n for n in range(-5, 5000) if is_prime(n)] == [n for n in range(-5, 5000) if trial(n)]

    def test_is_prime_large(self):
        assert is_prime(2**31 - 1) and is_prime(2**61 - 1) and is_prime(2**64 - 59)
        # 2147483649 = 3 * 715827883; 1373653, 25326001, 3215031751 and
        # 3825123056546413051 are strong pseudoprimes to the bases 2..3,
        # 2..5, 2..7 and 2..23, 2^64 - 1 is not prime
        for n in (2147483649, 1373653, 25326001, 3215031751, 3825123056546413051, 2**64 - 1):
            assert not is_prime(n), n
        # below 3215031751 four bases decide: the primes just below 2^31
        assert [n for n in range(2**31 - 1, 2147483496, -1) if is_prime(n)] == [
            2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549, 2147483543, 2147483497,
        ]
        with pytest.raises(ValueError, match="below 2\\^64"):
            is_prime(2**64 + 13)

    def test_rational_reconstruction_small_moduli(self):
        # a residue reconstructs iff some r/s with |r|, s <= sqrt(m/2) has it,
        # and then to that fraction, the only one
        for m in (3, 5, 101, 1009, 8191):
            bound = math.isqrt(m // 2)
            small = {}
            for s in range(1, bound + 1):
                for r in range(-bound, bound + 1):
                    if math.gcd(r, s) == 1:
                        small.setdefault(r * pow(s, -1, m) % m, set()).add(Fraction(r, s))
            for a in range(m):
                expected = small.get(a)
                assert rational_reconstruction(a, m) == (None if expected is None else expected.pop()), (a, m)
                assert not expected

    def test_rational_reconstruction_near_2_31(self):
        p = 2**31 - 1
        bound = math.isqrt(p // 2)
        assert bound == 32767

        def residue(x):
            return x.numerator * pow(x.denominator, -1, p) % p

        for x in (Fraction(0), Fraction(-16, 27), Fraction(bound, bound - 1), Fraction(-bound, bound), Fraction(7)):
            assert rational_reconstruction(residue(x), p) == x
        # beyond the bound the answer is None: no fraction within it shares
        # the residue of these
        for x in (Fraction(1, bound + 1), Fraction(-bound - 2, 5), Fraction(bound + 1, bound + 2)):
            assert rational_reconstruction(residue(x), p) is None, x
        # or another fraction within it, which only a check over Q refuses
        tall = Fraction(-1, 2700000000)
        assert rational_reconstruction(residue(tall), p) == Fraction(21035, 12209)


class TestCoefficients:
    def test_integral_coefficients_are_ints(self):
        p = Polynomial(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2), (0, 0): True})
        assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 2), (0, 0): 1}
        assert [type(c) for c in p.terms.values()] == [int, Fraction, int]
        assert type((p + p).coefficient((0, 1))) is int
        assert type(p.partial(2).coefficient((0, 0))) is Fraction
        assert type(p.scale(Fraction(2)).coefficient((0, 1))) is int
        assert p == Polynomial(2, {(1, 0): Fraction(2), (0, 1): Fraction(1, 2), (0, 0): Fraction(1)})

    def test_a_float_coefficient_raises(self):
        # Fraction(0.1) would enter as 3602879701896397/36028797018963968
        with pytest.raises(TypeError):
            Polynomial(1, {(1,): 0.1})
        with pytest.raises(TypeError):
            Polynomial.constant(1, 0.5)
        with pytest.raises(TypeError):
            Polynomial.variable(1, 1).scale(0.5)
        with pytest.raises(TypeError):
            Polynomial.variable(1, 1) * 0.5


class TestSubstituteVariables:
    def test_identity(self):
        f = P("x^2*y - z^3")
        assert f.substitute_variables([Polynomial.variable(3, i) for i in (1, 2, 3)]) == f

    def test_degree_preserved_random(self):
        rng = random.Random(23)
        from conftest import random_homogeneous, random_linear_images

        for _ in range(10):
            n = rng.randint(2, 4)
            d = rng.randint(1, 4)
            p = random_homogeneous(rng, n, d)
            images = random_linear_images(rng, n, 3)
            assert p.substitute_variables(images).homogeneous_degree() == d

    def test_multiplicativity_random(self):
        rng = random.Random(29)
        from conftest import random_linear_images, random_polynomial

        for _ in range(10):
            n = rng.randint(2, 3)
            p = random_polynomial(rng, n, 2)
            q = random_polynomial(rng, n, 2)
            images = random_linear_images(rng, n, 3)
            product = p.substitute_variables(images) * q.substitute_variables(images)
            assert (p * q).substitute_variables(images) == product


class TestMonomialOrder:
    def test_grevlex_degree_two(self):
        # x^2 > xy > y^2 > xz > yz > z^2 in grevlex(x > y > z)
        ordering = sorted(monomials_of_degree(3, 2), key=GREVLEX.descending_key)
        assert ordering == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]

    def test_lex(self):
        assert LEX.descending_key((1, 0, 0)) < LEX.descending_key((0, 5, 5))

    def test_multiplicative_random(self):
        rng = random.Random(31)
        for order in (GREVLEX, LEX):
            for _ in range(50):
                n = rng.randint(1, 4)
                a = tuple(rng.randint(0, 4) for _ in range(n))
                b = tuple(rng.randint(0, 4) for _ in range(n))
                c = tuple(rng.randint(0, 4) for _ in range(n))
                if order.descending_key(a) < order.descending_key(b):
                    assert order.descending_key(tuple(x + y for x, y in zip(a, c))) < \
                        order.descending_key(tuple(x + y for x, y in zip(b, c)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MonomialOrder("weird")

    def test_leading_term(self):
        p = P("x*y + z^3")
        assert GREVLEX.leading_term(p) == ((0, 0, 3), Fraction(1))
        assert LEX.leading_term(p) == ((1, 1, 0), Fraction(1))
