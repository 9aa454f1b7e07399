import itertools
import random
from fractions import Fraction

import pytest

import nakai_forge.derivations as derivations
from nakai_forge.derivations import (
    Adjustment,
    Derivation1,
    DerivationTuple,
    DiffOp2,
    build_candidate_tuple,
    euler_derivation,
    hamiltonian,
    lift_to_diff2,
    principal_cofactor,
    replay_ledger,
    scale_mismatches,
    symmetric_tuple,
    symmetrize,
    theta2_extract,
)
from nakai_forge.exprio import parse_poly
from nakai_forge.groebner import Ideal, buchberger, jacobian_ideal
from nakai_forge.minors import algebraic_cofactor, hessian
from nakai_forge.poly import Polynomial, quasi_homogeneous_weights
from operator_reference import (
    add_scaled,
    compose2,
    modified_jacobian_ideal,
    scale_operator,
    shift,
    square_obstruction_ideal,
    verify_order2_identity,
)

V3 = ["x", "y", "z"]


def P(text, variables=V3):
    return parse_poly(text, variables)


PAPER_F = "x^2*y + y^2*z + z^2*x"
FERMAT = "x^3 + y^3 + z^3"
V4 = ["x", "y", "z", "w"]
HOMOGENEOUS = [
    (FERMAT, V3), (PAPER_F, V3), ("x^4 + y^4 + z^4 + w^4", V4), ("x^3 + y^3 + z^3 + w^3 + x*y*z + y*z*w", V4),
    ("x^3 + y^3 + z^3 + w^3 + v^3 + x*y*z + z*w*v", [*V4, "v"]),
]
WEIGHTED_N4 = "x^3 + y^4 + z^4 + w^6 + x*y*z*w"  # weights (4, 3, 3, 2), D = 12


def monomial_triples(rng, n, count, max_degree=2):
    exps = [e for e in itertools.product(range(max_degree + 1), repeat=n) if sum(e) <= max_degree]
    monos = [Polynomial.monomial(n, e) for e in exps]
    return [tuple(rng.choice(monos) for _ in range(3)) for _ in range(count)]


class TestBasicDerivations:
    def test_euler_images(self):
        e = euler_derivation(3)
        assert e.images == tuple(Polynomial.variable(3, i) for i in (1, 2, 3))

    def test_euler_scales_by_degree(self):
        f = P(PAPER_F)
        assert euler_derivation(3).apply(f) == f.scale(3)
        assert euler_derivation(2).apply(parse_poly("x*y", ["x", "y"])) == parse_poly("2*x*y", ["x", "y"])

    def test_hamiltonian_paper_images(self):
        d12 = hamiltonian(P(PAPER_F), 1, 2)
        assert d12.image(1) == -P("2*y*z + x^2")
        assert d12.image(2) == P("2*x*y + z^2")
        assert d12.image(3).is_zero()

    def test_hamiltonian_annihilates(self):
        rng = random.Random(103)
        from conftest import random_nonzero

        for _ in range(10):
            n = rng.randint(2, 4)
            f = random_nonzero(rng, n, 3)
            i, j = rng.sample(range(1, n + 1), 2)
            assert hamiltonian(f, i, j).apply(f).is_zero()

    def test_hamiltonian_antisymmetric(self):
        f = P(PAPER_F)
        d = hamiltonian(f, 1, 3)
        opposite = hamiltonian(f, 3, 1)
        assert tuple(-p for p in d.images) == opposite.images

    def test_hamiltonian_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            hamiltonian(P(PAPER_F), 2, 2)

    def test_apply_constant(self):
        assert euler_derivation(3).apply(Polynomial.constant(3, 9)).is_zero()

    def test_apply_hamiltonian_to_product(self):
        # Leibniz by hand: D_12(x1 x2) = x1 f_1 - x2 f_2
        f = P(PAPER_F)
        value = hamiltonian(f, 1, 2).apply(P("x*y"))
        assert value == P("x") * f.partial(1) - P("y") * f.partial(2)

    def test_scale_and_add(self):
        f = P(PAPER_F)
        d1 = euler_derivation(3)
        assert add_scaled(d1, Polynomial.zero(3), hamiltonian(f, 1, 2)).images == d1.images
        # the two-variable sweep step: d1' = d1 - a1 D_12
        a1 = P("x + z")
        adjusted = add_scaled(d1, -a1, hamiltonian(f, 1, 2))
        assert adjusted.image(2) == d1.image(2) - a1 * f.partial(1)
        assert adjusted.image(1) == d1.image(1) + a1 * f.partial(2)


class TestDiffOp2:
    def test_shift_zero(self):
        op = compose2(euler_derivation(3), euler_derivation(3))
        assert shift(op, (0, 0, 0)) == op

    def test_shift_moves_coefficients(self):
        x = P("x")
        op = DiffOp2(3, {(2, 0, 0): x})
        assert shift(op, (1, 0, 0)) == DiffOp2(3, {(1, 0, 0): x})

    def test_shift_top_degree(self):
        c = P("y*z")
        op = DiffOp2(3, {(1, 1, 0): c})
        assert shift(op, (1, 1, 0)) == DiffOp2(3, {(0, 0, 0): c})

    def test_order_cap(self):
        with pytest.raises(ValueError):
            DiffOp2(2, {(2, 1): Polynomial.constant(2, 1)})

    def test_apply_divided_powers(self):
        # c_(2e1) multiplies (1/2) d^2/dx^2
        op = DiffOp2(1, {(2,): Polynomial.constant(1, 1)})
        assert op.apply(Polynomial.monomial(1, (2,))) == Polynomial.constant(1, 1)


class TestTheta2:
    def test_first_order_only_gives_zero_tuple(self):
        f = P(PAPER_F)
        op = DiffOp2(3, {(1, 0, 0): P("y^2"), (0, 0, 1): P("x")})
        t = theta2_extract(op, f)
        assert all(d.is_zero() for d in t.ders)

    def test_half_euler_squared(self):
        f = P(PAPER_F)
        op = scale_operator(compose2(euler_derivation(3), euler_derivation(3)), Fraction(1, 2))
        t = theta2_extract(op, f)
        for i in range(1, 4):
            x_i = Polynomial.variable(3, i)
            assert t.ders[i - 1].images == tuple(x_i * img for img in euler_derivation(3).images)
        assert t.entry(1, 1) == P("x^2")

    def test_hamiltonian_times_euler(self):
        # D = D_1j E gives d_1 = -f_j E + x_1 D_1j
        f = P(PAPER_F)
        for j in (2, 3):
            op = compose2(hamiltonian(f, 1, j), euler_derivation(3))
            t = theta2_extract(op, f)
            expected = add_scaled(
                Derivation1(tuple(-f.partial(j) * img for img in euler_derivation(3).images)),
                P("x"), hamiltonian(f, 1, j),
            )
            assert t.ders[0].images == expected.images
            assert t.entry(1, 1) == (P("x") * f.partial(j)).scale(-2)

    def test_symmetry_of_composition_images(self):
        rng = random.Random(107)
        from conftest import random_isolated

        f = random_isolated(rng, 3, 3)
        e = euler_derivation(3)
        parts = [e] + [hamiltonian(f, i, j) for i, j in ((1, 2), (1, 3), (2, 3))]
        for a in parts:
            for b in parts:
                t = theta2_extract(compose2(a, b), f)
                assert t.is_symmetric()

    def test_agrees_with_shift_construction(self):
        # d_j is the shifted operator with its constant part dropped, so
        # d_j(x_i) is exactly the shifted coefficient at e_i
        f = P(PAPER_F)
        op = compose2(euler_derivation(3), hamiltonian(f, 1, 2))
        t = theta2_extract(op, f)
        for j in range(1, 4):
            e_j = tuple(1 if k == j - 1 else 0 for k in range(3))
            shifted = shift(op, e_j)
            for i in range(1, 4):
                e_i = tuple(1 if k == i - 1 else 0 for k in range(3))
                assert shifted.coefficient(e_i) == t.entry(j, i)

    def test_commutator_vanishes_under_theta2(self):
        f = P(PAPER_F)
        e = euler_derivation(3)
        d23 = hamiltonian(f, 2, 3)
        t1 = theta2_extract(compose2(e, d23), f)
        t2 = theta2_extract(compose2(d23, e), f)
        assert all(a.images == b.images for a, b in zip(t1.ders, t2.ders))


class TestCompose2:
    def test_euler_squared_coefficients(self):
        op = compose2(euler_derivation(3), euler_derivation(3))
        assert op.coefficient((1, 1, 0)) == P("2*x*y")
        assert op.coefficient((2, 0, 0)) == P("2*x^2")
        assert op.coefficient((1, 0, 0)) == P("x")

    def test_hamiltonian_square_annihilates(self):
        f = P(PAPER_F)
        d12 = hamiltonian(f, 1, 2)
        assert compose2(d12, d12).apply(f).is_zero()

    def test_composition_agrees_with_sequential_application(self):
        rng = random.Random(109)
        from conftest import random_polynomial

        f = P(PAPER_F)
        first = hamiltonian(f, 1, 3)
        second = euler_derivation(3)
        op = compose2(first, second)
        for _ in range(15):
            p = random_polynomial(rng, 3, 3)
            assert op.apply(p) == first.apply(second.apply(p))


class TestOrder2Identity:
    def test_first_order_satisfies_it(self):
        rng = random.Random(113)
        f = P(PAPER_F)
        op = DiffOp2(3, {(1, 0, 0): P("y^2"), (0, 1, 0): P("x*z")})
        assert verify_order2_identity(op, monomial_triples(rng, 3, 20))

    def test_pure_second_partial(self):
        rng = random.Random(127)
        op = DiffOp2(3, {(1, 1, 0): Polynomial.constant(3, 1)})
        triples = [(P("x"), P("y"), P("z"))] + monomial_triples(rng, 3, 20)
        assert verify_order2_identity(op, triples)

    def test_compositions_random(self):
        rng = random.Random(131)
        f = P(PAPER_F)
        ops = [
            compose2(euler_derivation(3), hamiltonian(f, 1, 2)),
            compose2(hamiltonian(f, 2, 3), hamiltonian(f, 1, 3)),
        ]
        triples = monomial_triples(rng, 3, 25)
        for op in ops:
            assert verify_order2_identity(op, triples)


class TestCandidateTuple:
    def test_fermat_first_component(self):
        cand, _, _ = build_candidate_tuple(P(FERMAT))
        expected = tuple(P("36*y*z") * Polynomial.variable(3, i) for i in (1, 2, 3))
        assert cand.ders[0].images == expected

    def test_paper_cofactor(self):
        cand, _, _ = build_candidate_tuple(P(PAPER_F))
        assert cand.ders[0].images[0] == P("4*(x*z - y^2)") * P("x")

    def test_defects_in_jacobian_ideal(self):
        f = P(PAPER_F)
        cand, _, _ = build_candidate_tuple(f)
        gb = buchberger(jacobian_ideal(f))
        for i in range(1, 4):
            for j in range(1, 4):
                assert gb.contains(cand.defect(i, j))

    def test_cofactor_row_tuples_for_any_fixed_row(self):
        # d_i = A_ji * E has defects inside the Jacobian ideal for every
        # fixed row j, not just the first
        rng = random.Random(151)
        from conftest import random_isolated
        from nakai_forge.derivations import Derivation1, DerivationTuple
        from nakai_forge.minors import algebraic_cofactor, hessian

        f = random_isolated(rng, 3, 3)
        gb = buchberger(jacobian_ideal(f))
        hess = hessian(f)
        e = euler_derivation(3)
        for row in (1, 2, 3):
            ders = tuple(
                Derivation1(tuple(algebraic_cofactor(hess, row, i) * img for img in e.images))
                for i in (1, 2, 3)
            )
            t = DerivationTuple(ders, f)
            for i in range(1, 4):
                for j in range(1, 4):
                    assert gb.contains(t.defect(i, j))

    def test_preserves_principal_ideal(self):
        f = P(PAPER_F)
        cand, _, scales = build_candidate_tuple(f)
        for d, scale in zip(cand.ders, scales):
            q = principal_cofactor(d, f)
            assert q == scale
            assert d.apply(f) == q * f

    def test_needs_no_isolation(self):
        # x^2*y is singular along the z-axis; the cofactor identity and the
        # scales need only quasi-homogeneity, so the triple still holds
        f = P("x^2*y")
        cand, cofactors, scales = build_candidate_tuple(f)
        partials = [f.partial(l) for l in range(1, 4)]
        for (i, k), vector in cofactors.items():
            assert sum((a * g for a, g in zip(vector, partials)), Polynomial.zero(3)) == cand.defect(i, k)
        for d, q in zip(cand.ders, scales):
            assert d.apply(f) == q * f

    def test_weighted_euler_for_quasi_homogeneous(self):
        # weights (5, 5, 3), weighted degree 15: d_i = A_1i * E_W
        f = P("x^2*y + y^3 + z^5")
        cand, _, scales = build_candidate_tuple(f)
        hess = hessian(f)
        e_w = euler_derivation(3, (5, 5, 3))
        assert e_w.apply(f) == f.scale(15)
        rest = buchberger(Ideal((f.partial(2), f.partial(3))))
        for i in range(1, 4):
            a_1i = algebraic_cofactor(hess, 1, i)
            assert cand.ders[i - 1].images == tuple(a_1i * img for img in e_w.images)
            assert principal_cofactor(cand.ders[i - 1], f) == a_1i.scale(15) == scales[i - 1]
            for j in range(1, 4):
                assert rest.contains(cand.defect(i, j))


class TestSymmetrize:
    def test_already_symmetric_unchanged(self):
        f = P(FERMAT)
        e = euler_derivation(3)
        t = DerivationTuple(
            tuple(Derivation1(tuple(Polynomial.variable(3, i) * img for img in e.images))
                  for i in (1, 2, 3)),
            f,
        )
        assert t.is_symmetric()
        result, ledger = symmetrize(t, {})
        assert ledger == ()
        assert all(a.images == b.images for a, b in zip(result.ders, t.ders))

    def test_two_variable_sweep(self):
        # d1(x2) - d2(x1) = a1 f1 + a2 f2 resolves with two opposite moves
        f = parse_poly("x^3 + y^3", ["x", "y"])
        a1, a2 = parse_poly("x", ["x", "y"]), parse_poly("2*y", ["x", "y"])
        d1 = Derivation1((Polynomial.zero(2), a1 * f.partial(1) + a2 * f.partial(2)))
        d2 = Derivation1((Polynomial.zero(2), Polynomial.zero(2)))
        t = DerivationTuple((d1, d2), f)
        result, ledger = symmetrize(t, {(1, 2): (a1, a2)})
        assert result.is_symmetric()
        assert [(m.target, m.k, m.l) for m in ledger] == [(1, 1, 2), (2, 1, 2)]
        expected_d1 = add_scaled(d1, -a1, hamiltonian(f, 1, 2))
        expected_d2 = add_scaled(d2, -a2, hamiltonian(f, 1, 2))
        assert result.ders[0].images == expected_d1.images
        assert result.ders[1].images == expected_d2.images

    def test_unique_solution(self):
        # moving a symmetric tuple by known tau_t,lk D_lk gives pair (i, k)
        # the vector a_l = tau_i,lk - tau_k,li; symmetrize undoes exactly
        # those moves, with coefficients -tau, whatever tau was
        from conftest import random_polynomial

        rng = random.Random(1010)
        for text in (FERMAT, PAPER_F):
            f = P(text)
            n = f.n
            zero = Polynomial.zero(n)
            symmetric, _ = symmetrize(*build_candidate_tuple(f)[:2])
            tau = {}
            for t in range(1, n + 1):
                for l, k in itertools.combinations(range(1, n + 1), 2):
                    c = random_polynomial(rng, n, 2, max_terms=3, coeff_bound=3)
                    if not c.is_zero():
                        tau[t, l, k] = c
            moved = replay_ledger(symmetric, [Adjustment(*key, c) for key, c in tau.items()])

            def at(t, l, k):  # tau extended antisymmetrically in (l, k)
                return tau.get((t, l, k), zero) if l <= k else -tau.get((t, k, l), zero)

            cofactors = {
                (i, k): tuple(at(i, l, k) - at(k, l, i) for l in range(1, n + 1))
                for i, k in itertools.combinations(range(1, n + 1), 2)
            }
            result, ledger = symmetrize(moved, cofactors)
            assert all(a.images == b.images for a, b in zip(result.ders, symmetric.ders))
            assert [(m.target, m.k, m.l) for m in ledger] == sorted(tau)
            assert all(m.coeff == -tau[m.target, m.k, m.l] for m in ledger)

    def test_candidate_postconditions(self):
        for text in (FERMAT, PAPER_F):
            f = P(text)
            cand, cofactors, _ = build_candidate_tuple(f)
            result, ledger = symmetrize(cand, cofactors)
            assert result.is_symmetric()
            replayed = replay_ledger(cand, ledger)
            assert all(a.images == b.images for a, b in zip(replayed.ders, result.ders))
            for d in result.ders:
                assert principal_cofactor(d, f) is not None

    def test_random_compatible_tuples(self):
        rng = random.Random(137)
        from conftest import lifted_defect_cofactors, random_compatible_tuple, random_isolated

        for _ in range(4):
            n = rng.choice([2, 3])
            f = random_isolated(rng, n, 3)
            gb = buchberger(jacobian_ideal(f))
            for _ in range(3):
                t = random_compatible_tuple(rng, f)
                result, ledger = symmetrize(t, lifted_defect_cofactors(t, gb))
                assert result.is_symmetric()
                replayed = replay_ledger(t, ledger)
                assert all(a.images == b.images for a, b in zip(replayed.ders, result.ders))
                for d in result.ders:
                    assert principal_cofactor(d, f) is not None

    def test_incompatible_tuple_rejected(self):
        f = P(FERMAT)
        bad = DerivationTuple(
            (
                Derivation1((Polynomial.zero(3), P("x"), Polynomial.zero(3))),
                Derivation1((Polynomial.zero(3),) * 3),
                Derivation1((Polynomial.zero(3),) * 3),
            ),
            f,
        )
        with pytest.raises(ValueError, match="not in the Jacobian ideal"):
            symmetrize(bad, {})


class TestClosedFormCofactors:
    def test_defect_cofactors_exhaustive(self):
        # every pair of every small case: the closed-form vector and gb.lift's
        # vector both recombine to the candidate defect (they need not agree)
        from conftest import random_isolated, random_isolated_quasi_homogeneous

        rng = random.Random(161)
        cases = [random_isolated(rng, 3, d) for d in (2, 3, 3, 4)]
        cases += [random_isolated(rng, 4, d) for d in (2, 3)]
        cases += [random_isolated_quasi_homogeneous(rng, w, 12)
                  for w in ((6, 4, 3), (4, 4, 3), (4, 3, 3, 2), (6, 4, 3, 2))]
        for f in cases:
            n = f.n
            cand, cofactors, _ = build_candidate_tuple(f)
            gb = buchberger(jacobian_ideal(f))
            partials = [f.partial(l) for l in range(1, n + 1)]
            assert sorted(cofactors) == [(i, k) for i in range(1, n + 1) for k in range(i + 1, n + 1)]
            for (i, k), closed in cofactors.items():
                defect = cand.defect(i, k)
                assert closed[0].is_zero()
                for vector in (closed, gb.lift(defect)):
                    total = Polynomial.zero(n)
                    for a, g in zip(vector, partials):
                        total = total + a * g
                    assert total == defect, (f, i, k)

    @pytest.mark.parametrize("text, variables, pair", [
        *((PAPER_F, V3, pair) for pair in itertools.combinations(range(1, 4), 2)),
        *((WEIGHTED_N4, V4, pair) for pair in itertools.combinations(range(1, 5), 2)),
    ])
    def test_symmetrize_rejects_vector_that_does_not_recombine(self, text, variables, pair):
        # x added to a_2 of one pair's vector: that pair, and no other, is
        # named
        f = P(text, variables)
        cand, cofactors, _ = build_candidate_tuple(f)
        a1, a2, *rest = cofactors[pair]
        cofactors[pair] = (a1, a2 + P("x", variables), *rest)
        with pytest.raises(ValueError, match=rf"defect of pair \({pair[0]},{pair[1]}\) is not in the Jacobian ideal"):
            symmetrize(cand, cofactors)

    def test_symmetrize_rejects_vector_of_wrong_length(self):
        f = P(PAPER_F)
        cand, cofactors, _ = build_candidate_tuple(f)
        cofactors[1, 2] = cofactors[1, 2][:-1]
        with pytest.raises(ValueError, match=r"pair \(1,2\)"):
            symmetrize(cand, cofactors)

    @pytest.mark.parametrize("text", [FERMAT, PAPER_F, "x^2 + y^3 + z^4", "x^3 + y^3 + z^4"])
    def test_witness_closed_form(self, text):
        # every candidate vector has a_1 = 0, so symmetrize never moves the
        # entry (1, 1): d_1(x_1) = W_1 x_1 A_11
        f = P(text)
        (w1, *_), _ = quasi_homogeneous_weights(f)
        symmetric, _ = symmetrize(*build_candidate_tuple(f)[:2])
        expected = (P("x") * algebraic_cofactor(hessian(f), 1, 1)).scale(w1)
        assert symmetric.entry(1, 1) == expected

    @pytest.mark.parametrize("text, variables", HOMOGENEOUS)
    def test_homogeneous_symmetric_tuple_closed_form(self, text, variables):
        # for homogeneous f, with A_ij = algebraic_cofactor(H, i, j), the tuple
        # d_t(x_m) = A_1t x_m + A_1m x_t - x_1 A_tm is symmetric (A is), scales
        # f by D A_1t (A H = det(H) I and H x = (D - 1) grad f) and has
        # d_1(x_1) = x_1 A_11, and it is the tuple symmetrize returns.  It is
        # not symmetrize's tuple for weighted input.
        f = P(text, variables)
        n = f.n
        hess = hessian(f)
        cofactor = {(i, j): algebraic_cofactor(hess, i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
        x = [Polynomial.variable(n, i) for i in range(1, n + 1)]
        symmetric, _ = symmetrize(*build_candidate_tuple(f)[:2])
        for t, m in itertools.product(range(1, n + 1), repeat=2):
            expected = cofactor[1, t] * x[m - 1] + cofactor[1, m] * x[t - 1] - x[0] * cofactor[t, m]
            assert symmetric.entry(t, m) == expected, (t, m)

    @pytest.mark.parametrize("text, variables", HOMOGENEOUS)
    def test_symmetric_tuple_matches_symmetrize_on_homogeneous_input(self, text, variables):
        # identity 4 gives the tuple and the scales of the candidate route,
        # and the lift accepts them with all three of its checks
        f = P(text, variables)
        candidate, cofactors, scales = build_candidate_tuple(f)
        symmetric, closed_scales = symmetric_tuple(f)
        assert symmetric.ders == symmetrize(candidate, cofactors)[0].ders
        assert closed_scales == scales
        assert lift_to_diff2(symmetric, closed_scales).apply(f).is_zero()

    @pytest.mark.parametrize("text, variables", [
        (FERMAT, V3), ("x^3 + y^3 + z^3 + w^3", V4), ("x^3 + y^3 + z^3 + w^3 + v^3 + x*y*z + z*w*v", [*V4, "v"]),
    ])
    def test_symmetric_tuple_reads_only_the_first_row_as_polynomials(self, text, variables, monkeypatch):
        # the scales need the n cofactors A_1t as Polynomials; the entries
        # read every A_tm packed from the Hessian's memo
        calls = []
        read = derivations.algebraic_cofactor
        monkeypatch.setattr(derivations, "algebraic_cofactor",
                            lambda hess, i, j: calls.append((i, j)) or read(hess, i, j))
        f = P(text, variables)
        symmetric, scales = symmetric_tuple(f)
        assert calls == [(1, t) for t in range(1, f.n + 1)]
        assert scale_mismatches(symmetric, scales) == []

    @pytest.mark.parametrize("text", ["x^2 + y^3 + z^4", "x^3 + y^3 + z^4"])
    def test_lift_brieskorn(self, text):
        f = P(text)
        cand, cofactors, scales = build_candidate_tuple(f)
        symmetric, _ = symmetrize(cand, cofactors)
        op = lift_to_diff2(symmetric, scales)
        assert op.apply(f).is_zero()
        extracted = theta2_extract(op, f)
        assert all(a.images == b.images for a, b in zip(extracted.ders, symmetric.ders))


class TestLiftToDiff2:
    def test_section_property(self):
        f = P(PAPER_F)
        cand, cofactors, scales = build_candidate_tuple(f)
        symmetric, _ = symmetrize(cand, cofactors)
        op = lift_to_diff2(symmetric, scales)
        extracted = theta2_extract(op, f)
        assert all(a.images == b.images for a, b in zip(extracted.ders, symmetric.ders))
        assert op.apply(f).is_zero()

    def test_known_fiber(self):
        f = P(FERMAT)
        start = scale_operator(compose2(euler_derivation(3), euler_derivation(3)), Fraction(1, 2))
        t = theta2_extract(start, f)
        op = lift_to_diff2(t, [principal_cofactor(d, f) for d in t.ders])
        assert all(
            a.images == b.images
            for a, b in zip(theta2_extract(op, f).ders, t.ders)
        )

    def test_zero_tuple(self):
        f = P(FERMAT)
        zero = DerivationTuple(
            tuple(Derivation1((Polynomial.zero(3),) * 3) for _ in range(3)), f
        )
        op = lift_to_diff2(zero, [principal_cofactor(d, f) for d in zero.ders])
        assert op.coeffs == {}

    def test_asymmetric_rejected(self):
        f = P(FERMAT)
        t = DerivationTuple(
            (
                Derivation1((Polynomial.zero(3), P("x^2"), Polynomial.zero(3))),
                Derivation1((Polynomial.zero(3),) * 3),
                Derivation1((Polynomial.zero(3),) * 3),
            ),
            f,
        )
        with pytest.raises(ValueError, match="symmetric"):
            lift_to_diff2(t, [Polynomial.zero(3)] * 3)

    def test_non_preserving_rejected(self):
        # d_1 = 2 d/dx, the rest zero: symmetric, but d_1(f) = 6x^2 is no
        # multiple of f
        f = P(FERMAT)
        t = DerivationTuple(
            (
                Derivation1((P("2"), Polynomial.zero(3), Polynomial.zero(3))),
                Derivation1((Polynomial.zero(3),) * 3),
                Derivation1((Polynomial.zero(3),) * 3),
            ),
            f,
        )
        with pytest.raises(ValueError, match="preserve"):
            lift_to_diff2(t, [Polynomial.zero(3)] * 3)

    def test_order2_identity_on_lifts(self):
        rng = random.Random(139)
        f = P(PAPER_F)
        cand, cofactors, scales = build_candidate_tuple(f)
        symmetric, _ = symmetrize(cand, cofactors)
        op = lift_to_diff2(symmetric, scales)
        assert verify_order2_identity(op, monomial_triples(rng, 3, 50))


class TestNecessaryCondition:
    def test_proof_table_closure(self):
        # d1(x1) for each generator family, plus square-ideal membership
        rng = random.Random(149)
        from conftest import random_isolated

        f = random_isolated(rng, 3, 3)
        e = euler_derivation(3)
        x1 = Polynomial.variable(3, 1)
        f2, f3 = f.partial(2), f.partial(3)
        cases = [
            (scale_operator(compose2(e, e), Fraction(1, 2)), x1 * x1),
            (compose2(hamiltonian(f, 1, 2), e), (x1 * f2).scale(-2)),
            (compose2(hamiltonian(f, 1, 3), e), (x1 * f3).scale(-2)),
            (compose2(hamiltonian(f, 2, 3), e), Polynomial.zero(3)),
            (compose2(hamiltonian(f, 1, 2), hamiltonian(f, 1, 3)), (f2 * f3).scale(2)),
            (compose2(hamiltonian(f, 1, 2), hamiltonian(f, 2, 3)), Polynomial.zero(3)),
        ]
        gb_square = buchberger(square_obstruction_ideal(f, 1))
        for op, expected in cases:
            t = theta2_extract(op, f)
            assert t.entry(1, 1) == expected
            assert gb_square.contains(expected)

    def test_ideal_builders(self):
        f = P(FERMAT)
        modified = modified_jacobian_ideal(f, 2)
        assert modified.generators[1] == P("y^2")
        assert modified.generators[0] == P("3*x^2")
        square = square_obstruction_ideal(f, 1)
        assert len(square.generators) == 6
        assert square.generators[0] == P("x^2")
