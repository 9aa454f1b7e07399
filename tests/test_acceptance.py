"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact rational arithmetic; "tolerance" always means
exact equality.  Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion report lines.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from nakai_forge.cli import main as cli_main
from nakai_forge.derivations import (
    euler_derivation,
    hamiltonian,
    principal_cofactor,
    replay_ledger,
    symmetrize,
    theta2_extract,
)
from nakai_forge.exprio import format_poly, parse_poly, read_certificate, write_certificate
from nakai_forge.groebner import (
    GREVLEX,
    Ideal,
    buchberger,
    jacobian_ideal,
    quotient_dimension,
)
from nakai_forge.minors import algebraic_cofactor, hessian, verify_cofactor_identity
from nakai_forge.pipeline import (
    WITNESS_FOUND,
    build_witness,
    saito_check,
    slice_images,
    substitute_slice,
    verify_certificate,
)
from nakai_forge.poly import LEX, Polynomial, quasi_homogeneous_weights

from conftest import (
    lifted_defect_cofactors,
    random_compatible_tuple,
    random_homogeneous,
    random_isolated,
    random_isolated_quasi_homogeneous,
    random_polynomial,
    slice_coordinates,
)
from linalg_oracle import membership_oracle
from operator_reference import compose2, modified_jacobian_ideal, scale_operator, square_obstruction_ideal

V3 = ["x", "y", "z"]
V4 = ["x", "y", "z", "w"]
Y3 = ["y1", "y2", "y3"]


def P(text, variables=V3):
    return parse_poly(text, variables)


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_paper_example_original_coordinates():
    start = time.perf_counter()
    f = P("x^2*y + y^2*z + z^2*x")
    assert f.partial(1) == P("2*x*y + z^2")
    assert f.partial(2) == P("2*y*z + x^2")
    assert f.partial(3) == P("2*z*x + y^2")
    h = hessian(f)
    expected = [["2*y", "2*x", "2*z"], ["2*x", "2*z", "2*y"], ["2*z", "2*y", "2*x"]]
    for i in range(3):
        for j in range(3):
            assert h.entry(i + 1, j + 1) == P(expected[i][j])
    a11 = algebraic_cofactor(h, 1, 1)
    assert a11 == P("4*(x*z - y^2)")
    ideal_1 = Ideal((P("x"), P("2*y*z + x^2"), P("2*z*x + y^2")))
    gb = buchberger(ideal_1)
    cofactors = gb.lift(a11)
    assert cofactors is not None
    recombined = Polynomial.zero(3)
    for q, g in zip(cofactors, ideal_1.generators):
        recombined = recombined + q * g
    assert recombined == a11
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("criterion 1", f"original-coordinate example exact in {elapsed:.3f}s")


def test_criterion_2_paper_example_transformed_coordinates():
    start = time.perf_counter()
    f = P("x^2*y + y^2*z + z^2*x")
    g = substitute_slice(slice_images((1, 0, 1), 3), f)
    assert g == parse_poly("(y1 - y3)^2*y2 + y2^2*y3 + y3^2*(y1 - y3)", Y3)
    g2, g3 = g.partial(2), g.partial(3)
    assert g2 == parse_poly("(y1 - y3)^2 + 2*y2*y3", Y3)
    assert g3 == parse_poly("-2*y2*(y1 - y3) + y2^2 + 2*y1*y3 - 3*y3^2", Y3)
    witness = algebraic_cofactor(hessian(g), 1, 1) * parse_poly("y1", Y3)
    assert witness == parse_poly(
        "4*y1*(y3*(y2 + y1 - 3*y3) - (y2 + y3 - y1)^2)", Y3
    )
    modified = Ideal((parse_poly("y1^2", Y3), g2, g3))
    gb = buchberger(modified)
    nf = gb.normal_form(witness)
    assert not nf.is_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("criterion 2", f"witness outside (y1^2, g2, g3), normal form {format_poly(nf, Y3)} in {elapsed:.3f}s")


def test_criterion_3_cofactor_identity_exhaustive():
    start = time.perf_counter()
    rng = random.Random(30301)
    for _ in range(10):
        f = random_homogeneous(rng, 4, 3)
        for (i, j, k) in ((1, 1, 2), (3, 1, 2)):
            holds, residual = verify_cofactor_identity(f, i, j, k)
            assert holds and residual.is_zero()
    checked = 20
    for n in (3, 4):
        for _ in range(5):
            f = random_homogeneous(rng, n, rng.randint(2, 4))
            for i, j, k in itertools.product(range(1, n + 1), repeat=3):
                holds, residual = verify_cofactor_identity(f, i, j, k)
                assert holds and residual.is_zero(), (n, i, j, k)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("criterion 3", f"{checked} identities with zero residual in {elapsed:.1f}s")


def test_criterion_3_weighted_cofactor_identity_exhaustive():
    # the identity behind d_i = A_1i * E_W on quasi-homogeneous input:
    # W_i x_i A_jk - W_k x_k A_ji = sum_{l != j} (D - W_l) f_l A_[l,i,j,k]
    start = time.perf_counter()
    rng = random.Random(30302)
    systems = {
        3: [((6, 4, 3), 12), ((4, 4, 3), 12)],
        4: [((4, 3, 3, 2), 12), ((6, 4, 3, 2), 12)],
    }
    checked = 0
    for n, weight_systems in systems.items():
        for weights, degree in weight_systems:
            for _ in range(3):
                f = random_isolated_quasi_homogeneous(rng, weights, degree)
                assert quasi_homogeneous_weights(f) == (weights, degree)
                for i, j, k in itertools.product(range(1, n + 1), repeat=3):
                    holds, residual = verify_cofactor_identity(f, i, j, k)
                    assert holds and residual.is_zero(), (weights, i, j, k)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("criterion 3 (weighted)", f"{checked} identities with zero residual in {elapsed:.1f}s")


def test_criterion_4_composition_diagonal_table():
    start = time.perf_counter()
    rng = random.Random(40404)
    for _ in range(3):
        f = random_isolated(rng, 3, 3)
        e = euler_derivation(3)
        x1 = Polynomial.variable(3, 1)
        partials = {i: f.partial(i) for i in (1, 2, 3)}
        ops, expected = [scale_operator(compose2(e, e), Fraction(1, 2))], [x1 * x1]
        for j in (2, 3):
            ops.append(compose2(hamiltonian(f, 1, j), e))
            expected.append((x1 * partials[j]).scale(-2))
        ops.append(compose2(hamiltonian(f, 2, 3), e))
        expected.append(Polynomial.zero(3))
        for j, l in itertools.product((2, 3), repeat=2):
            if j == l:
                continue
            ops.append(compose2(hamiltonian(f, 1, j), hamiltonian(f, 1, l)))
            expected.append((partials[j] * partials[l]).scale(2))
        for j in (2, 3):
            for k, l in ((2, 3), (3, 2)):
                ops.append(compose2(hamiltonian(f, 1, j), hamiltonian(f, k, l)))
                expected.append(Polynomial.zero(3))
        gb_square = buchberger(square_obstruction_ideal(f, 1))
        for op, value in zip(ops, expected):
            extracted = theta2_extract(op, f)
            assert extracted.entry(1, 1) == value
            assert gb_square.contains(value)
    elapsed = time.perf_counter() - start
    report("criterion 4", f"diagonal table and square-ideal membership exact in {elapsed:.1f}s")


def test_criterion_5_symmetrization_contract():
    start = time.perf_counter()
    rng = random.Random(50505)
    count = 0
    for n, degree, how_many_f in ((2, 3, 4), (3, 3, 3), (4, 3, 3)):
        for _ in range(how_many_f):
            f = random_isolated(rng, n, degree)
            gb = buchberger(jacobian_ideal(f))
            for _ in range(10):
                tuple_in = random_compatible_tuple(rng, f)
                symmetric, ledger = symmetrize(tuple_in, lifted_defect_cofactors(tuple_in, gb))
                assert symmetric.is_symmetric()
                replayed = replay_ledger(tuple_in, ledger)
                assert all(
                    a.images == b.images for a, b in zip(replayed.ders, symmetric.ders)
                )
                for d in symmetric.ders:
                    q = principal_cofactor(d, f)
                    assert q is not None and d.apply(f) == q * f
                count += 1
    elapsed = time.perf_counter() - start
    assert count == 100
    assert elapsed < 300.0
    report("criterion 5", f"{count} random tuples symmetrized, replayed, and ideal-preserving in {elapsed:.1f}s")


def _random_corpus():
    rng = random.Random(60606)
    shapes = [(3, 3)] * 8 + [(3, 4)] * 5 + [(4, 2)] * 3 + [(4, 3)] * 3 + [(4, 4)]
    corpus = []
    for idx, (n, d) in enumerate(shapes):
        f = random_isolated(rng, n, d)
        names = V4[:n]
        corpus.append((f"random-{idx}-n{n}d{d}", format_poly(f, names), names))
    return corpus


NAMED_CORPUS = [
    ("fermat-cubic", "x^3 + y^3 + z^3", V3),
    ("fermat-quartic", "x^4 + y^4 + z^4", V3),
    ("fermat-cubic-4", "x^3 + y^3 + z^3 + w^3", V4),
    ("cyclic-cubic", "x^2*y + y^2*z + z^2*x", V3),
]

BRIESKORN_ENTRIES = [
    ("brieskorn-2-3-4", "x^2 + y^3 + z^4", V3),
    ("brieskorn-3-3-4", "x^3 + y^3 + z^4", V3),
]


@pytest.fixture(scope="module")
def corpus_certificates(tmp_path_factory):
    """Run `witness` + `verify` through the CLI for the sound corpus once."""
    out_dir = tmp_path_factory.mktemp("corpus")
    results = []
    start = time.perf_counter()
    for name, text, variables in NAMED_CORPUS + _random_corpus():
        cert_path = out_dir / f"{name}.json"
        code = cli_main([
            "witness", text, "--vars", ",".join(variables), "--out", str(cert_path),
        ])
        verify_code = cli_main(["verify", str(cert_path)])
        document = read_certificate(cert_path.read_bytes())
        results.append((name, code, verify_code, document))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_6_main_theorem_corpus(corpus_certificates, capsys):
    results, elapsed = corpus_certificates
    with capsys.disabled():
        for name, code, verify_code, document in results:
            status = "ok" if code == 0 and verify_code == 0 else "FAIL"
            print(f"  corpus {name}: witness exit {code}, verify exit {verify_code} [{status}]")
    for name, code, verify_code, document in results:
        assert code == 0, f"{name}: witness exit {code}"
        assert document["verdict"] == WITNESS_FOUND, f"{name}: {document['verdict']}"
        assert verify_code == 0, f"{name}: verify exit {verify_code}"
    assert elapsed < 600.0
    report("criterion 6", f"{len(results)} corpus inputs all WITNESS_FOUND and verified in {elapsed:.1f}s")


def test_criterion_6_brieskorn_entries_as_stated(tmp_path):
    # The stated corpus includes two Brieskorn polynomials, quasi-homogeneous
    # but not homogeneous (weights (6,4,3) and (4,4,3), weighted degree 12).
    # The pipeline runs on them with the weighted Euler derivation E_W in
    # place of E; the assertion below records the criterion exactly as written.
    outcomes = []
    for name, text, variables in BRIESKORN_ENTRIES:
        cert_path = tmp_path / f"{name}.json"
        code = cli_main([
            "witness", text, "--vars", ",".join(variables), "--out", str(cert_path),
        ])
        document = read_certificate(cert_path.read_bytes())
        outcomes.append((name, code, document["verdict"]))
        print(f"  corpus {name}: witness exit {code}, verdict {document['verdict']}")
    failures = [o for o in outcomes if o[1] != 0 or o[2] != WITNESS_FOUND]
    assert not failures, (
        "non-homogeneous Brieskorn entries cannot satisfy the homogeneous-only "
        f"construction: {failures}"
    )
    report("criterion 6 (brieskorn entries)", "all Brieskorn entries found witnesses")


def test_criterion_7_brieskorn_milnor_numbers():
    start = time.perf_counter()
    for a in (2, 3, 4):
        for b in (2, 3, 4):
            for c in (2, 3, 4):
                f = P(f"x^{a} + y^{b} + z^{c}")
                computed = quotient_dimension(jacobian_ideal(f))
                # independent oracle: count the monomial box outside
                # (x^(a-1), y^(b-1), z^(c-1)) by direct enumeration
                gens = [(a - 1, 0, 0), (0, b - 1, 0), (0, 0, c - 1)]
                expected = sum(
                    1
                    for e in itertools.product(range(a - 1), range(b - 1), range(c - 1))
                    if not any(all(x >= y for x, y in zip(e, g)) for g in gens)
                )
                assert expected == (a - 1) * (b - 1) * (c - 1)
                assert computed == expected, (a, b, c)
    elapsed = time.perf_counter() - start
    report("criterion 7", f"all 27 Brieskorn Milnor numbers exact in {elapsed:.1f}s")


def test_criterion_8_membership_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(80808)
    instances = 0
    while instances < 50:
        n = rng.randint(2, 3)
        gens = tuple(
            random_homogeneous(rng, n, rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        )
        if rng.random() < 0.5:
            p = sum(
                (random_polynomial(rng, n, 2) * g for g in gens), Polynomial.zero(n)
            )
        else:
            p = random_homogeneous(rng, n, rng.randint(1, 4))
        gb_grevlex = buchberger(Ideal(gens), GREVLEX)
        gb_lex = buchberger(Ideal(gens), LEX)
        engine = gb_grevlex.contains(p)
        assert engine == gb_lex.contains(p)
        assert engine == membership_oracle(p, gens)
        instances += 1
    elapsed = time.perf_counter() - start
    report("criterion 8", f"{instances} instances agree with the linear-algebra oracle under both orders in {elapsed:.1f}s")


def test_criterion_9_saito_criterion(corpus_certificates):
    start = time.perf_counter()
    results, _ = corpus_certificates
    checked = 0
    # Jacobian systems of the named corpus entries
    for name, text, variables in NAMED_CORPUS:
        f = parse_poly(text, variables)
        saito = saito_check(jacobian_ideal(f).generators)
        assert saito.member is False, name
        checked += 1
    # the (y1^2, g_2, ..., g_n) systems of the transformed polynomials of the
    # criterion-6 certificates
    for name, _, _, document in results:
        g, _ = slice_coordinates(document)
        gens = modified_jacobian_ideal(g, 1).generators
        saito = saito_check(gens)
        assert saito.member is False, name
        checked += 1
    elapsed = time.perf_counter() - start
    report("criterion 9", f"{checked} zero-dimensional systems, Jacobian determinant never a member, in {elapsed:.1f}s")


def test_isolation_records_stay_small(corpus_certificates):
    # the isolation records hold rows modulo a prime: every entry has
    # integer coefficients in [0, p), so the largest certificate of the
    # corpus, random-19-n4d4's, stays small
    results, _ = corpus_certificates
    sizes = {}
    for name, _, _, document in results:
        tests = document["membership_tests"]
        _, new_variables = slice_coordinates(document)
        for record, variables in ((tests["isolation"], document["input"]["variables"]),
                                  (tests["obstruction"]["restriction_isolation"], new_variables[1:])):
            p = record["prime"]
            for row in record["cofactors"]:
                for entry in row:
                    coefficients = parse_poly(entry, variables).terms.values()
                    assert all(c.denominator == 1 and 0 <= c < p for c in coefficients), (name, entry)
        sizes[name] = len(write_certificate(document))
    assert sizes["random-19-n4d4"] < 80_000, sizes["random-19-n4d4"]
    report("isolation record size", f"random-19-n4d4 certificate {sizes['random-19-n4d4']} bytes")
