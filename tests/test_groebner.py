import itertools
import random
from fractions import Fraction

import pytest

import nakai_forge.groebner as groebner
from nakai_forge.exprio import parse_poly
from nakai_forge.groebner import (
    GREVLEX,
    GroebnerBasis,
    Ideal,
    ResourceLimitExceeded,
    buchberger,
    is_isolated_singularity,
    jacobian_ideal,
    quotient_dimension,
)
from nakai_forge.poly import LEX, Polynomial, monomials_of_degree, sum_of_products
from linalg_oracle import membership_oracle, monomial_ideal_member
from conftest import is_canonical

V3 = ["x", "y", "z"]


def P(text, variables=V3):
    return parse_poly(text, variables)


def ideal(*texts, variables=V3):
    return Ideal(tuple(parse_poly(t, variables) for t in texts))


def check_cofactors(gb: GroebnerBasis):
    """Every basis element must be the recorded combination of the generators."""
    for b, row in zip(gb.basis, gb.cofactors):
        total = Polynomial.zero(gb.n)
        for q, g in zip(row, gb.source.generators):
            total = total + q * g
        assert total == b


class TestBuchberger:
    def test_monomial_ideal_is_its_own_basis(self):
        gb = buchberger(ideal("x^2", "y^2"))
        assert [sorted(g.terms) for g in gb.basis] == [[(2, 0, 0)], [(0, 2, 0)]]
        check_cofactors(gb)

    def test_lex_pair_reduces_to_zero(self):
        gb = buchberger(ideal("x - y", "y^2", variables=["x", "y"]), LEX)
        assert len(gb.basis) == 2
        assert gb.basis[0] == parse_poly("x - y", ["x", "y"])
        assert gb.basis[1] == parse_poly("y^2", ["x", "y"])
        check_cofactors(gb)

    def test_fermat_jacobian_normalized(self):
        gb = buchberger(jacobian_ideal(P("x^3 + y^3 + z^3")))
        assert list(gb.basis) == [P("x^2"), P("y^2"), P("z^2")]
        check_cofactors(gb)

    def test_idempotence(self):
        gb = buchberger(ideal("x^2 + y*z", "x*z - y^2", "z^3 - x*y"))
        again = buchberger(Ideal(gb.basis))
        assert again.basis == gb.basis
        check_cofactors(gb)
        check_cofactors(again)

    def test_zero_generators_dropped(self):
        gb = buchberger(Ideal((Polynomial.zero(2), parse_poly("x", ["x", "y"]))))
        assert len(gb.basis) == 1
        check_cofactors(gb)

    def test_pair_cap(self, monkeypatch):
        monkeypatch.setattr(groebner, "DEFAULT_MAX_PAIRS", 1)
        gens = ideal("x^3 - 2*x*y", "x^2*y - 2*y^2 + x")
        with pytest.raises(ResourceLimitExceeded):
            buchberger(gens)

    def test_buchberger_criterion_random(self):
        # every S-polynomial of the finished basis reduces to zero; catches
        # any unsound pair skipping
        rng = random.Random(79)
        from conftest import random_homogeneous
        from nakai_forge.groebner import _exp_lcm, _exp_sub
        from fractions import Fraction

        for _ in range(8):
            n = rng.randint(2, 3)
            gens = tuple(random_homogeneous(rng, n, rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
            gb = buchberger(Ideal(gens))
            check_cofactors(gb)
            for i in range(len(gb.basis)):
                for j in range(i + 1, len(gb.basis)):
                    lm_i, lc_i = gb.order.leading_term(gb.basis[i])
                    lm_j, lc_j = gb.order.leading_term(gb.basis[j])
                    lcm = _exp_lcm(lm_i, lm_j)
                    s = gb.basis[i].mul_monomial(_exp_sub(lcm, lm_i), Fraction(1) / lc_i) \
                        - gb.basis[j].mul_monomial(_exp_sub(lcm, lm_j), Fraction(1) / lc_j)
                    assert gb.normal_form(s).is_zero()


class TestNormalForm:
    def test_monomial_divisibility(self):
        gb = buchberger(ideal("x^2", "y^2", "z^2"))
        p = P("36*x*y*z")
        assert gb.normal_form(p) == p
        assert not monomial_ideal_member(p, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])

    def test_generators_reduce_to_zero(self):
        gens = ideal("x^2 + y*z", "x*z - y^2")
        gb = buchberger(gens)
        for g in gens.generators:
            assert gb.normal_form(g).is_zero()

    def test_paper_cofactor_membership(self):
        # A_11 = 4(xz - y^2) lies in (x, 2yz + x^2, 2zx + y^2)
        gb = buchberger(ideal("x", "2*y*z + x^2", "2*z*x + y^2"))
        assert gb.normal_form(P("4*(x*z - y^2)")).is_zero()

    def test_paper_diagonal_cofactors_all_members(self):
        # the no-change slice fails for this f exactly because every A_ii
        # falls inside the corresponding (x_i, other partials) ideal
        from nakai_forge.minors import algebraic_cofactor, hessian

        f = P("x^2*y + y^2*z + z^2*x")
        h = hessian(f)
        for i in range(1, 4):
            gens = [f.partial(k) for k in range(1, 4)]
            gens[i - 1] = Polynomial.variable(3, i)
            gb = buchberger(Ideal(tuple(gens)))
            assert gb.normal_form(algebraic_cofactor(h, i, i)).is_zero()


class TestLift:
    def test_generator_lift(self):
        gens = ideal("x^2 + y*z", "x*z - y^2")
        gb = buchberger(gens)
        cofs = gb.lift(gens.generators[0])
        total = Polynomial.zero(3)
        for q, g in zip(cofs, gens.generators):
            total = total + q * g
        assert total == gens.generators[0]

    def test_non_member(self):
        gb = buchberger(ideal("x^2", "y^2"))
        assert gb.lift(P("x*y*z")) is None

    def test_rows_are_the_same_in_any_read_order(self):
        rng = random.Random(84)
        from conftest import random_homogeneous

        cases = [(Ideal(tuple(random_homogeneous(rng, 3, rng.randint(2, 3)) for _ in range(3))), GREVLEX)
                 for _ in range(10)]
        # inhomogeneous generators with signed rational coefficients (about
        # half of the leading coefficients are negative) under each order
        monomials = monomials_of_degree(3, 1) + monomials_of_degree(3, 2)
        for order in (GREVLEX, LEX):
            for _ in range(4):
                gens = tuple(
                    Polynomial(3, {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
                                   for e in rng.sample(monomials, rng.randint(2, 4))})
                    for _ in range(rng.randint(2, 3))
                )
                cases.append((Ideal(gens), order))
        for gens, order in cases:
            # rows read through a lift first, then all of them, and the reverse
            lift_first = buchberger(gens, order)
            lifted = lift_first.lift(gens.generators[0])
            rows_first = buchberger(gens, order)
            rows = rows_first.cofactors
            assert rows_first.basis == lift_first.basis
            assert lift_first.cofactors == rows
            assert rows_first.lift(gens.generators[0]) == lifted
            # each basis element lifts to its own row
            assert [lift_first.lift(b) for b in lift_first.basis] == list(rows)
            check_cofactors(lift_first)
            # the basis modulo a prime is the basis over Q reduced modulo it,
            # and each of its rows recombines to its element modulo the prime
            p = 2147483647
            modular = buchberger(gens, order, modulus=p)
            assert modular.modulus == p and modular.source == gens
            assert list(modular.basis) == [b.mod(p) for b in lift_first.basis]
            for b, row in zip(modular.basis, modular.cofactors):
                assert sum_of_products(gens.n, zip(row, gens.generators)).mod(p) == b
                assert all(0 < c < p for entry in row for c in entry.terms.values())
            # this prime takes the path of the basis over Q, so the rows are
            # the rows over Q reduced modulo it
            assert [modular.lift(b) for b in modular.basis] == [tuple(c.mod(p) for c in row) for row in rows]

    def test_lift_modulo_a_prime(self):
        # the generator 3x is divided by its content, so the row of x is 1/3
        gens = ideal("3*x", "y^2")
        assert buchberger(gens).lift(P("x")) == (P("1/3"), P("0"))
        # modulo 5 and 7 the generator is made monic with the inverse of 3
        mod5 = buchberger(gens, modulus=5)
        assert mod5.basis == (P("y^2"), P("x"))
        assert mod5.lift(P("x")) == (P("2"), P("0"))
        assert mod5.lift(P("z")) is None
        assert mod5.normal_form(P("x + 7*z")) == P("2*z")
        assert buchberger(gens, modulus=7).lift(P("x*y + y^2")) == (P("5*y"), P("1"))
        # 3x vanishes modulo 3, and x is not a member of (y^2)
        mod3 = buchberger(gens, modulus=3)
        assert mod3.basis == (P("y^2"),)
        assert mod3.lift(P("x")) is None
        with pytest.raises(ZeroDivisionError, match="3 divides the denominator 3"):
            buchberger(ideal("1/3*x", "y^2"), modulus=3)

    @pytest.mark.parametrize("modulus", [None, 2**31 - 1])
    def test_values_leave_the_engine_as_canonical_polynomials(self, modulus):
        # inside, the engine holds ints modulo a prime and may hold integral
        # Fractions over Q; every Polynomial it hands out has canonical
        # coefficients in both fields, an int when integral and never a
        # float (Polynomial equality alone would not tell 2 from Fraction(2))
        gens = jacobian_ideal(P("x^3 + 1/2*y^3 + z^3 + x*y*z"))
        gb = buchberger(gens, modulus=modulus)
        member = P("x") * gens.generators[0] + P("1/3*y^2") * gens.generators[1]
        lifted = gb.lift(member)
        remainder = gb.normal_form(P("x*y*z + 1/3*x^2 + y"))
        assert lifted is not None and not remainder.is_zero()
        values = [*gb.basis, *lifted, *(c for row in gb.cofactors for c in row), remainder]
        assert all(isinstance(p, Polynomial) for p in values)
        coefficients = [c for p in values for c in p.terms.values()]
        assert len(coefficients) > 20
        assert all(map(is_canonical, coefficients))

    def test_lift_rejects_a_variable_count_mismatch(self):
        # x^2 in two variables divides to remainder 0 by the zip of exponents
        gb = buchberger(ideal("x^2", "y^2", "z^2"))
        with pytest.raises(ValueError, match="variable-count mismatch: 2 vs 3"):
            gb.lift(parse_poly("x^2", ["x", "y"]))
        with pytest.raises(ValueError, match="variable-count mismatch: 2 vs 3"):
            gb.normal_form(parse_poly("x^2", ["x", "y"]))

    def test_soundness_random(self):
        rng = random.Random(83)
        from conftest import random_homogeneous, random_polynomial

        for _ in range(15):
            n = rng.randint(2, 3)
            gens = tuple(random_homogeneous(rng, n, rng.randint(1, 3)) for _ in range(2))
            gb = buchberger(Ideal(gens))
            # members by construction
            p = sum(
                (random_polynomial(rng, n, 2) * g for g in gens),
                Polynomial.zero(n),
            )
            cofs = gb.lift(p)
            assert cofs is not None
            total = Polynomial.zero(n)
            for q, g in zip(cofs, gens):
                total = total + q * g
            assert total == p


class TestZeroDimensional:
    def test_pure_powers(self):
        assert buchberger(ideal("x^2", "y^2", "z^2")).is_zero_dimensional()

    def test_line_is_not(self):
        assert not buchberger(ideal("x", variables=["x", "y"])).is_zero_dimensional()

    def test_paper_example_jacobian(self):
        assert buchberger(jacobian_ideal(P("x^2*y + y^2*z + z^2*x"))).is_zero_dimensional()

    def test_unit_ideal(self):
        # the 1 of the unit ideal is a pure power of every variable
        gb = buchberger(ideal("x", "x - 1", variables=["x", "y"]))
        assert gb.is_zero_dimensional()
        assert list(gb.basis) == [parse_poly("1", ["x", "y"])]
        assert gb.pure_powers == {0: 0, 1: 0}
        assert gb.quotient_dimension() == 0


class TestPurePowers:
    def test_fermat_cubic_jacobian(self):
        gb = buchberger(jacobian_ideal(P("x^3 + y^3 + z^3")))
        assert [gb.basis[gb.pure_powers[i]] for i in range(3)] == [P("x^2"), P("y^2"), P("z^2")]

    def test_missing_variable(self):
        gb = buchberger(ideal("x*y", "y^2", variables=["x", "y"]))
        assert 0 not in gb.pure_powers
        assert gb.basis[gb.pure_powers[1]] == parse_poly("y^2", ["x", "y"])
        assert not gb.is_zero_dimensional()


class TestQuotientDimension:
    def test_fermat_cubic(self):
        # standard monomials of (x^2, y^2, z^2): products of distinct variables
        assert quotient_dimension(jacobian_ideal(P("x^3 + y^3 + z^3"))) == 8

    def test_quadric(self):
        assert quotient_dimension(jacobian_ideal(P("x^2 + y^2 + z^2"))) == 1

    def test_two_variable_brieskorn(self):
        for a in range(2, 5):
            for b in range(2, 5):
                f = parse_poly(f"x^{a} + y^{b}", ["x", "y"])
                assert quotient_dimension(jacobian_ideal(f)) == (a - 1) * (b - 1)

    def test_not_zero_dimensional(self):
        with pytest.raises(ValueError):
            quotient_dimension(ideal("x", variables=["x", "y"]))

    def test_standard_monomials_fermat(self):
        gb = buchberger(jacobian_ideal(P("x^3 + y^3 + z^3")))
        assert sorted(gb.standard_monomials()) == sorted([
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1),
        ])


class TestIsolated:
    def test_fermat(self):
        assert is_isolated_singularity(P("x^3 + y^3 + z^3"))

    def test_whole_line_of_singularities(self):
        assert not is_isolated_singularity(parse_poly("x^2*y", ["x", "y"]))

    def test_paper_example(self):
        assert is_isolated_singularity(P("x^2*y + y^2*z + z^2*x"))

    def test_smooth_linear(self):
        assert not is_isolated_singularity(P("x"))

    def test_invariance_under_linear_change(self):
        rng = random.Random(89)
        from conftest import random_homogeneous, random_linear_images

        for _ in range(6):
            n = rng.randint(2, 3)
            f = random_homogeneous(rng, n, 3)
            images = random_linear_images(rng, n, 2)
            assert is_isolated_singularity(f) == is_isolated_singularity(f.substitute_variables(images))


class TestRegularSequence:
    """n homogeneous polynomials in n variables form a regular sequence iff
    they generate a zero-dimensional ideal."""

    def test_paper_slice_sequence(self):
        y = ["y1", "y2", "y3"]
        g = parse_poly("(y1 - y3)^2*y2 + y2^2*y3 + y3^2*(y1 - y3)", y)
        y1 = parse_poly("y1", y)
        seq = (y1, g.partial(2), g.partial(3))
        assert buchberger(Ideal(seq)).is_zero_dimensional()
        squared = (parse_poly("y1^2", y), g.partial(2), g.partial(3))
        assert buchberger(Ideal(squared)).is_zero_dimensional()

    def test_dependent_pair(self):
        pair = (parse_poly("x", ["x", "y"]), parse_poly("x^2", ["x", "y"]))
        assert not buchberger(Ideal(pair)).is_zero_dimensional()


class TestOracleAgreement:
    def test_membership_matches_linear_algebra(self):
        rng = random.Random(97)
        from conftest import random_homogeneous, random_polynomial

        agree = 0
        for _ in range(25):
            n = rng.randint(2, 4)
            gens = tuple(random_homogeneous(rng, n, rng.randint(1, 3))
                         for _ in range(rng.randint(1, 3)))
            if rng.random() < 0.5:
                p = sum((random_polynomial(rng, n, 2) * g for g in gens), Polynomial.zero(n))
            else:
                p = random_homogeneous(rng, n, rng.randint(1, 4))
            gb = buchberger(Ideal(gens))
            engine = gb.normal_form(p).is_zero()
            oracle = membership_oracle(p, gens)
            assert engine == oracle
            agree += 1
        assert agree == 25

    def test_order_independence(self):
        rng = random.Random(101)
        from conftest import random_homogeneous

        for _ in range(10):
            n = rng.randint(2, 3)
            gens = tuple(random_homogeneous(rng, n, rng.randint(1, 3)) for _ in range(2))
            p = random_homogeneous(rng, n, rng.randint(1, 4))
            gb_grevlex = buchberger(Ideal(gens), GREVLEX)
            gb_lex = buchberger(Ideal(gens), LEX)
            assert gb_grevlex.contains(p) == gb_lex.contains(p)
            if gb_grevlex.is_zero_dimensional():
                assert gb_lex.is_zero_dimensional()
                assert gb_grevlex.quotient_dimension() == gb_lex.quotient_dimension()


class TestNormalFormProperties:
    def test_invariant_under_ideal_shifts(self):
        # NF(p + q*gen) == NF(p) for any generator multiple
        rng = random.Random(211)
        from conftest import random_homogeneous, random_polynomial

        for _ in range(12):
            n = rng.randint(2, 3)
            gens = tuple(random_homogeneous(rng, n, rng.randint(1, 3)) for _ in range(2))
            gb = buchberger(Ideal(gens))
            p = random_polynomial(rng, n, 3)
            q = random_polynomial(rng, n, 2)
            gen = gens[rng.randrange(len(gens))]
            assert gb.normal_form(p + q * gen) == gb.normal_form(p)

    def test_remainder_terms_irreducible(self):
        rng = random.Random(223)
        from conftest import random_homogeneous, random_polynomial

        for _ in range(8):
            n = rng.randint(2, 3)
            gens = tuple(random_homogeneous(rng, n, rng.randint(1, 3)) for _ in range(2))
            gb = buchberger(Ideal(gens))
            nf = gb.normal_form(random_polynomial(rng, n, 4))
            for lm in gb.leading_monomials():
                for exp in nf.terms:
                    assert not all(a <= b for a, b in zip(lm, exp))


class TestQuotientDimensionOracle:
    def test_random_monomial_ideals(self):
        # brute-force box count agrees with the engine on monomial ideals
        import itertools

        rng = random.Random(227)
        for _ in range(10):
            n = rng.randint(2, 3)
            exps = [tuple(0 if k != i else rng.randint(1, 3) for k in range(n))
                    for i in range(n)]
            exps += [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(0, 2))]
            exps = [e for e in exps if any(e)]
            gens = tuple(Polynomial.monomial(n, e) for e in exps)
            computed = quotient_dimension(Ideal(gens))
            bound = max(max(e) for e in exps) + 1
            expected = sum(
                1 for point in itertools.product(range(bound), repeat=n)
                if not any(all(a <= b for a, b in zip(e, point)) for e in exps)
            )
            assert computed == expected


def _reduce_mod(terms: dict, basis, leading, order, p: int) -> dict:
    """The textbook reduction of integer terms by the monic basis elements
    (leading monomials ``leading``) modulo p: cancel the largest reducible
    term until none is left; the irreducible terms are the remainder."""
    work = {e: c % p for e, c in terms.items() if c % p}
    remainder = {}
    while work:
        e = min(work, key=order.descending_key)
        c = work.pop(e)
        k = next((k for k, lm in enumerate(leading) if all(x <= y for x, y in zip(lm, e))), None)
        if k is None:
            remainder[e] = c
            continue
        shift = tuple(x - y for x, y in zip(e, leading[k]))
        for t, d in basis[k].terms.items():
            t = tuple(x + y for x, y in zip(t, shift))
            if t != e:
                v = (work.get(t, 0) - c * int(d)) % p
                work[t] = v
                if not v:
                    del work[t]
    return remainder


class TestModularBasisOracle:
    """Bases modulo a prime checked by definition, with nothing of the
    engine but the basis and its rows: small primes make leading
    coefficients of the generators and S-polynomials vanish."""

    @pytest.mark.parametrize("p", [3, 5, 7, 2147483647])
    def test_random_ideals(self, p):
        rng = random.Random(p)
        monomials = [e for d in (1, 2, 3) for e in monomials_of_degree(3, d)]
        for order in (GREVLEX, LEX):
            for _ in range(6):
                gens = Ideal(tuple(
                    Polynomial(3, {e: Fraction(rng.randint(-9, 9), rng.choice((1, 1, 11, 13)))
                                   for e in rng.sample(monomials, rng.randint(2, 5))})
                    for _ in range(rng.randint(2, 4))
                ))
                gb = buchberger(gens, order, modulus=p)
                residues = [{e: int(c) for e, c in g.mod(p).terms.items()} for g in gens.generators]
                leading = [order.leading_term(b)[0] for b in gb.basis]
                # every generator reduces to 0
                assert all(_reduce_mod(g, gb.basis, leading, order, p) == {} for g in residues)
                # reduced and monic, with coefficients in [0, p)
                for k, b in enumerate(gb.basis):
                    assert b.terms[leading[k]] == 1
                    assert all(c.denominator == 1 and 0 < c < p for c in b.terms.values())
                    assert not any(all(x <= y for x, y in zip(lm, e))
                                   for m, lm in enumerate(leading) if m != k for e in b.terms)
                # every S-polynomial reduces to 0
                for i, j in itertools.combinations(range(len(gb.basis)), 2):
                    lcm = tuple(map(max, leading[i], leading[j]))
                    s = {}
                    for b, lm, sign in ((gb.basis[i], leading[i], 1), (gb.basis[j], leading[j], -1)):
                        for e, c in b.terms.items():
                            e = tuple(x + y - z for x, y, z in zip(e, lcm, lm))
                            s[e] = s.get(e, 0) + sign * int(c)
                    assert _reduce_mod(s, gb.basis, leading, order, p) == {}
                # each row recombines to its element
                for b, row in zip(gb.basis, gb.cofactors):
                    assert sum_of_products(3, zip(row, gens.generators)).mod(p) == b
