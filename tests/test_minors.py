import itertools
import random

import pytest

from nakai_forge.exprio import parse_poly
from nakai_forge.minors import (
    PolyMatrix,
    algebraic_cofactor,
    cofactor_identity_terms,
    determinant,
    hessian,
    jacobian_matrix,
    signed_minor,
    verify_cofactor_identity,
)
from nakai_forge.poly import Polynomial, sum_of_products

V3 = ["x", "y", "z"]
V4 = ["x", "y", "z", "w"]


def P(text, variables=V3):
    return parse_poly(text, variables)


def symbol_matrix(m):
    """An m x m matrix whose entries are m^2 distinct variables; minors of it
    are distinct monomials, which pins every sign unambiguously."""
    n = m * m
    return PolyMatrix(
        [[Polynomial.variable(n, i * m + j + 1) for j in range(m)] for i in range(m)],
        nvars=n,
    )


class TestHessian:
    def test_jacobian_matrix_of_the_gradient(self):
        f = P("x^2*y + y^2*z + z^2*x + x^4")
        assert hessian(f) == jacobian_matrix([f.partial(i) for i in range(1, 4)])

    def test_no_variables(self):
        h = hessian(Polynomial.constant(0, 5))
        assert h.m == 0 and h.nvars == 0
        assert determinant(h) == Polynomial.constant(0, 1)

    def test_jacobian_matrix_needs_as_many_polynomials_as_variables(self):
        with pytest.raises(ValueError, match="need 2 polynomials in 2 variables"):
            jacobian_matrix([P("x"), P("y")])

    def test_paper_example(self):
        f = P("x^2*y + y^2*z + z^2*x")
        h = hessian(f)
        expected = [
            ["2*y", "2*x", "2*z"],
            ["2*x", "2*z", "2*y"],
            ["2*z", "2*y", "2*x"],
        ]
        for i in range(3):
            for j in range(3):
                assert h.entry(i + 1, j + 1) == P(expected[i][j])

    def test_fermat_diagonal(self):
        h = hessian(P("x^3 + y^3 + z^3"))
        for i in range(1, 4):
            for j in range(1, 4):
                expected = P(f"6*{V3[i - 1]}") if i == j else Polynomial.zero(3)
                assert h.entry(i, j) == expected

    def test_transformed_paper_example(self):
        y = ["y1", "y2", "y3"]
        g = parse_poly("(y1 - y3)^2*y2 + y2^2*y3 + y3^2*(y1 - y3)", y)
        h = hessian(g)
        expected = [
            ["2*y2", "2*y1 - 2*y3", "2*y3 - 2*y2"],
            ["2*y1 - 2*y3", "2*y3", "2*y2 + 2*y3 - 2*y1"],
            ["2*y3 - 2*y2", "2*y2 + 2*y3 - 2*y1", "2*y2 + 2*y1 - 6*y3"],
        ]
        for i in range(3):
            for j in range(3):
                assert h.entry(i + 1, j + 1) == parse_poly(expected[i][j], y)

    def test_symmetry_random(self):
        rng = random.Random(41)
        from conftest import random_polynomial

        for _ in range(10):
            n = rng.randint(1, 4)
            h = hessian(random_polynomial(rng, n, 4))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert h.entry(i, j) == h.entry(j, i)


class TestDeterminant:
    def test_one_by_one(self):
        p = P("x^2 - y")
        assert determinant(PolyMatrix([[p]])) == p

    def test_equal_columns_vanish(self):
        a, b = P("x + y"), P("z^2")
        m = PolyMatrix([[a, a], [b, b]])
        assert determinant(m).is_zero()

    def test_fermat_hessian_determinant(self):
        # product of the diagonal: 6x * 6y * 6z
        assert determinant(hessian(P("x^3 + y^3 + z^3"))) == P("216*x*y*z")

    def test_empty_matrix(self):
        assert determinant(PolyMatrix([], nvars=3)) == Polynomial.constant(3, 1)

    def test_dimension_cap(self):
        m = PolyMatrix([[Polynomial.constant(1, 1)] * 7 for _ in range(7)], nvars=1)
        with pytest.raises(ValueError, match="cap"):
            determinant(m)

    def test_alternating_rows_random(self):
        rng = random.Random(43)
        from conftest import random_polynomial

        for _ in range(5):
            m = 3
            rows = [[random_polynomial(rng, 2, 2) for _ in range(m)] for _ in range(m)]
            swapped = [rows[1], rows[0], rows[2]]
            assert determinant(PolyMatrix(rows)) == -determinant(PolyMatrix(swapped))


class TestMinorMemo:
    @pytest.mark.parametrize("m, seed", [(4, 71), (5, 72)])
    def test_every_minor_matches_the_reference(self, m, seed):
        # one memo serves every minor of a matrix, whichever order they are
        # read in: each equals the sign times the Leibniz sum of the
        # explicitly built sub-matrix
        from conftest import random_polynomial
        from kernel_reference import reference_determinant

        rng = random.Random(seed)
        entries = [[random_polynomial(rng, 2, 2, max_terms=3) for _ in range(m)] for _ in range(m)]
        indices = range(1, m + 1)

        def parity(perm):
            return sum(1 for a, b in itertools.combinations(perm, 2) if a > b) % 2

        def expected(rows, cols):
            rest_r = [r for r in indices if r not in rows]
            rest_c = [c for c in indices if c not in cols]
            det = reference_determinant(PolyMatrix(
                [[entries[r - 1][c - 1] for c in rest_c] for r in rest_r], nvars=2
            ))
            return det if parity(list(rows) + rest_r) == parity(list(cols) + rest_c) else -det

        deletions = [(rows, cols) for k in range(m + 1)
                     for rows in itertools.combinations(indices, k)
                     for cols in itertools.combinations(indices, k)]
        cofactors = list(itertools.product(indices, repeat=2))
        first, second = PolyMatrix(entries, nvars=2), PolyMatrix(entries, nvars=2)
        for i, j in cofactors:
            assert algebraic_cofactor(first, i, j) == expected((i,), (j,)), (i, j)
        for rows, cols in deletions:
            assert signed_minor(first, rows, cols) == expected(rows, cols), (rows, cols)
        for rows, cols in reversed(deletions):
            rows, cols = rows[::-1], cols[::-1]
            assert signed_minor(second, rows, cols) == expected(rows, cols), (rows, cols)
        for i, j in reversed(cofactors):
            assert algebraic_cofactor(second, i, j) == expected((i,), (j,)), (i, j)


class TestSignedMinor:
    def test_sign_convention_example(self):
        # deleting rows (1,2) and columns (2,4) of a 4x4 equals minus the raw
        # complementary determinant; re-listing the rows as (2,1) flips it back
        m = symbol_matrix(4)
        raw = determinant(PolyMatrix(
            [[m.entry(3, 1), m.entry(3, 3)], [m.entry(4, 1), m.entry(4, 3)]],
            nvars=m.nvars,
        ))
        assert signed_minor(m, (1, 2), (2, 4)) == -raw
        assert signed_minor(m, (2, 1), (2, 4)) == raw

    def test_empty_deletion_is_determinant(self):
        m = symbol_matrix(3)
        assert signed_minor(m, (), ()) == determinant(m)

    def test_full_deletion(self):
        m = symbol_matrix(2)
        # all rows and columns deleted in natural order: sign +, empty determinant
        assert signed_minor(m, (1, 2), (1, 2)) == Polynomial.constant(4, 1)

    def test_single_deletion_matches_cofactor(self):
        # (-1)^(i+j) times the determinant of the explicitly built sub-matrix
        m = symbol_matrix(4)
        for i in range(1, 5):
            for j in range(1, 5):
                sub = determinant(PolyMatrix(
                    [[m.entry(r, c) for c in range(1, 5) if c != j] for r in range(1, 5) if r != i],
                    nvars=m.nvars,
                ))
                assert signed_minor(m, (i,), (j,)) == algebraic_cofactor(m, i, j) == sub.scale((-1) ** (i + j))

    def test_antisymmetry(self):
        m = symbol_matrix(4)
        assert signed_minor(m, (1, 3), (2, 4)) == \
            -signed_minor(m, (3, 1), (2, 4))
        assert signed_minor(m, (1, 3), (2, 4)) == \
            -signed_minor(m, (1, 3), (4, 2))

    def test_completion_independence(self):
        rng = random.Random(47)
        m = symbol_matrix(4)
        for _ in range(20):
            k = rng.randint(0, 3)
            rows = tuple(rng.sample(range(1, 5), k))
            cols = tuple(rng.sample(range(1, 5), k))
            expected = signed_minor(m, rows, cols)
            assert _minor_with_random_completion(rng, m, rows, cols) == expected

    def test_repeated_index_rejected(self):
        with pytest.raises(ValueError, match="repeated row"):
            signed_minor(symbol_matrix(3), (1, 1), (2, 3))
        with pytest.raises(ValueError, match="repeated column"):
            signed_minor(symbol_matrix(3), (1, 2), (3, 3))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            signed_minor(symbol_matrix(3), (4,), (1,))

    def test_hessian_block_example(self):
        # rows (2,1), columns (1,2) deleted: minus the lower-right block of a
        # symmetric 4x4 Hessian
        rng = random.Random(53)
        from conftest import random_homogeneous

        f = random_homogeneous(rng, 4, 3)
        h = hessian(f)
        block = PolyMatrix(
            [[h.entry(3, 3), h.entry(3, 4)], [h.entry(4, 3), h.entry(4, 4)]],
            nvars=4,
        )
        assert signed_minor(h, (2, 1), (1, 2)) == -determinant(block)

    def test_laplace_expansion_rows(self):
        m = symbol_matrix(4)
        det = determinant(m)
        for row in range(1, 5):
            acc = Polynomial.zero(m.nvars)
            for col in range(1, 5):
                acc = acc + m.entry(row, col) * algebraic_cofactor(m, row, col)
            assert acc == det


def _minor_with_random_completion(rng, matrix, rows, cols):
    """Test-local signed minor using an arbitrary completion order."""
    m = matrix.m
    row_rest = [r for r in range(1, m + 1) if r not in rows]
    col_rest = [c for c in range(1, m + 1) if c not in cols]
    rng.shuffle(row_rest)
    rng.shuffle(col_rest)
    sign = (-1) ** sum(
        a > b for perm in (list(rows) + row_rest, list(cols) + col_rest) for a, b in itertools.combinations(perm, 2)
    )
    sub = PolyMatrix(
        [[matrix.entry(r, c) for c in col_rest] for r in row_rest],
        nvars=matrix.nvars,
    )
    det = determinant(sub)
    return det if sign > 0 else -det


class TestCofactorIdentity:
    def test_paper_first_display(self):
        rng = random.Random(59)
        from conftest import random_homogeneous

        for _ in range(3):
            f = random_homogeneous(rng, 4, 3)
            holds, residual = verify_cofactor_identity(f, 1, 1, 2)
            assert holds and residual.is_zero()

    def test_paper_second_display(self):
        rng = random.Random(61)
        from conftest import random_homogeneous

        for _ in range(3):
            f = random_homogeneous(rng, 4, 3)
            holds, _ = verify_cofactor_identity(f, 3, 1, 2)
            assert holds

    def test_equal_outer_indices_trivial(self):
        f = P("x^3 + y^3 + z^3")
        holds, residual = verify_cofactor_identity(f, 2, 1, 2)
        assert holds and residual.is_zero()

    def test_exhaustive_small(self):
        rng = random.Random(67)
        from conftest import random_homogeneous

        f = random_homogeneous(rng, 3, 3)
        for i in range(1, 4):
            for j in range(1, 4):
                for k in range(1, 4):
                    holds, _ = verify_cofactor_identity(f, i, j, k)
                    assert holds, (i, j, k)

    def test_requires_homogeneous(self):
        with pytest.raises(ValueError):
            verify_cofactor_identity(P("x^2 + y^3"), 1, 1, 2)

    def test_euler_row_identity(self):
        # sum_i x_i f_li = (d-1) f_l for homogeneous f
        rng = random.Random(71)
        from conftest import random_homogeneous

        for _ in range(5):
            n = rng.randint(2, 4)
            d = rng.randint(2, 4)
            f = random_homogeneous(rng, n, d)
            h = hessian(f)
            for l in range(1, n + 1):
                acc = Polynomial.zero(n)
                for i in range(1, n + 1):
                    acc = acc + Polynomial.variable(n, i) * h.entry(l, i)
                assert acc == f.partial(l).scale(d - 1)


def _replaced_column_vanishes(f, i, j, k, t):
    """sum_{l != j} f_lt (d - 1) A_[l,i,j,k] = 0 for homogeneous f of degree
    d and t outside {i, k}, with the minors of cofactor_identity_terms: the
    sum is (d - 1) times the complementary minor of entry (j, k) with its
    column i replaced by column t, which has two equal columns."""
    hess = hessian(f)
    degree = f.homogeneous_degree()
    terms = cofactor_identity_terms(hess, (1,) * f.n, degree, i, j, k)
    return sum_of_products(f.n, ((hess.entry(l, t), c) for l, c in enumerate(terms, 1))).is_zero()


class TestReplacedColumn:
    def test_random_quartic_all_indices(self):
        rng = random.Random(73)
        from conftest import random_homogeneous

        f = random_homogeneous(rng, 4, 3)
        for i in range(1, 5):
            for j in range(1, 5):
                for k in range(1, 5):
                    for t in range(1, 5):
                        if t in (i, k):
                            continue
                        assert _replaced_column_vanishes(f, i, j, k, t)

    def test_fermat(self):
        f = parse_poly("x^4 + y^4 + z^4 + w^4", V4)
        assert _replaced_column_vanishes(f, 1, 2, 3, 4)
