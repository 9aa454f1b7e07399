import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

import nakai_forge.groebner as groebner
import nakai_forge.pipeline as pipeline
from nakai_forge.cli import BUILTIN_CORPUS, main as cli_main
from nakai_forge.derivations import lift_to_diff2
from nakai_forge.exprio import (
    CertificateError, format_fraction, format_poly, parse_poly, read_certificate, write_certificate,
)
from nakai_forge.groebner import (
    Ideal,
    ResourceLimitExceeded,
    buchberger,
    decide_isolation,
    dual_functional,
    is_isolated_singularity,
    jacobian_ideal,
)
from nakai_forge.minors import algebraic_cofactor, determinant, hessian
from nakai_forge.pipeline import (
    INPUT_REJECTED,
    WITNESS_FOUND,
    WitnessCertificate,
    _isolation_record,
    _isolation_rows,
    _positive_dimension_record,
    _slice_candidates,
    build_witness,
    certificate_failures,
    generic_slice_search,
    jacobian_matrix,
    restrict_to_hyperplane,
    saito_check,
    slice_images,
    substitute_slice,
    verify_certificate,
)
from nakai_forge.poly import Polynomial, monomials_of_degree, rational_reconstruction

from conftest import slice_coordinates
from operator_reference import modified_jacobian_ideal, square_obstruction_ideal
from test_acceptance import _random_corpus

V3 = ["x", "y", "z"]


def P(text, variables=V3):
    return parse_poly(text, variables)


def _axis_singular_n4d3() -> Polynomial:
    """A seeded n4d3 form with no x^3 or x^2*x_j term, so singular along the
    x-axis: the shape of the gate-slice benchmark workload."""
    rng = random.Random(20)
    return Polynomial(4, {
        e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for e in monomials_of_degree(4, 3) if e[0] < 2
    })


PAPER_F = "x^2*y + y^2*z + z^2*x"
FERMAT = "x^3 + y^3 + z^3"


def _count_bases(monkeypatch) -> list:
    """Record the modulus of every Groebner basis computed (None: over Q)."""
    import nakai_forge
    import nakai_forge.cli as cli
    import nakai_forge.derivations as derivations

    moduli = []
    original = groebner.buchberger

    def counted(*args, modulus=None, **kwargs):
        moduli.append(modulus)
        return original(*args, modulus=modulus, **kwargs)

    for module in (nakai_forge, cli, derivations, groebner, pipeline):
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return moduli


def _count_divisions(monkeypatch) -> list:
    """Record the modulus of every division of the Groebner engine (None:
    over Q)."""
    moduli = []
    original = groebner._divide_tracked

    def counted(work, divisors, packing, modulus=None):
        moduli.append(modulus)
        return original(work, divisors, packing, modulus)

    monkeypatch.setattr(groebner, "_divide_tracked", counted)
    return moduli


class TestSliceSearch:
    def test_fermat_identity_slice(self):
        choice = generic_slice_search(P(FERMAT))
        assert choice.coefficients == (1, 0, 0)
        assert choice.attempts == 1

    def test_paper_example_identity_slice_fails(self):
        # f restricted to x = 0 is y^2 z, which is not an isolated singularity
        f = P(PAPER_F)
        restriction = restrict_to_hyperplane(f)
        assert restriction == parse_poly("y^2*z", ["y", "z"])
        assert not buchberger(jacobian_ideal(restriction)).is_zero_dimensional()
        choice = generic_slice_search(f)
        assert choice.attempts > 1
        # the search hands on g = f(x(y)) and the row-tracked basis of J(h),
        # h the restriction
        assert choice.g == f.substitute_variables(slice_images(choice.coefficients, 3))
        restriction = restrict_to_hyperplane(choice.g)
        assert choice.gb.source == jacobian_ideal(restriction)
        assert len(choice.gb.cofactors) == len(choice.gb.basis)
        assert buchberger(jacobian_ideal(restriction)).is_zero_dimensional()

    def test_paper_chosen_slice_works(self):
        # y1 = x + z: the restriction is y2*y3^2 + y2^2*y3 - y3^3
        g = substitute_slice(slice_images((1, 0, 1), 3), P(PAPER_F))
        restriction = restrict_to_hyperplane(g)
        assert restriction == parse_poly("y2*y3^2 + y2^2*y3 - y3^3", ["y2", "y3"])
        assert buchberger(jacobian_ideal(restriction)).is_zero_dimensional()

    def test_paper_example_second_slice(self):
        # the first candidate after the no-op slice is (1, -1, 0)
        choice = generic_slice_search(P(PAPER_F))
        assert choice.coefficients[0] == 1
        assert set(choice.coefficients) <= {-1, 0, 1}
        assert choice.attempts == 2

    def test_candidates_fill_each_grid_before_the_next(self):
        # a_1 = 1 and the variable of another weight keeps 0; after the no-op
        # slice, shells b = 1 and 2 (24 candidates) cover {-2..2}^2 but the
        # origin, each shell sparsest first
        candidates = itertools.islice(_slice_candidates((1, 2, 1, 1)), 1 + 24)
        first, *rest = [tuple(map(int, a)) for a in candidates]
        assert first == (1, 0, 0, 0)
        assert all(a[0] == 1 and a[1] == 0 for a in rest)
        assert [a[2:] for a in rest[:8]] == [(-1, 0), (0, -1), (0, 1), (1, 0),
                                             (-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert {a[2:] for a in rest} == set(itertools.product(range(-2, 3), repeat=2)) - {(0, 0)}
        assert list(_slice_candidates((1, 2, 2))) == [(1, 0, 0)]

    def test_retry_cap(self, monkeypatch):
        # PAPER_F needs 2 slices; the build stops where the search does
        monkeypatch.setattr(pipeline, "MAX_SLICE_ATTEMPTS", 1)
        message = "no isolating slice found within 1 attempts$"
        with pytest.raises(ResourceLimitExceeded, match=message):
            generic_slice_search(P(PAPER_F))
        with pytest.raises(ResourceLimitExceeded, match=message):
            build_witness(P(PAPER_F), V3)

    def test_huge_slice_power_is_refused(self):
        # the restriction y^1000 is not isolated, and any slice that changes
        # it mixes x with y or z: the second slice, (1, -1, 0), is a row whose
        # 1000th power the parser refuses, and the build writes no certificate
        f = P("x^1000 + y^1000 + x*z^999")
        message = "power 1000 of slice row 1 is too large to expand$"
        with pytest.raises(ResourceLimitExceeded, match=message):
            generic_slice_search(f)
        with pytest.raises(ResourceLimitExceeded, match=message):
            build_witness(f, V3)

    def test_determinism(self):
        a = generic_slice_search(P(PAPER_F))
        b = generic_slice_search(P(PAPER_F))
        assert a.coefficients == b.coefficients

    def test_too_few_variables(self):
        with pytest.raises(ValueError):
            generic_slice_search(parse_poly("x^3 + y^3", ["x", "y"]))

    def test_first_coefficient_must_be_nonzero(self):
        with pytest.raises(ValueError):
            slice_images((0, 1, 0), 3)


class TestSaito:
    def test_constant_jacobian(self):
        gens = (parse_poly("x", ["x", "y"]), parse_poly("y", ["x", "y"]))
        report = saito_check(gens)
        assert report.jac_det == Polynomial.constant(2, 1)
        assert not report.member

    def test_fermat_jacobian(self):
        f = P(FERMAT)
        report = saito_check(jacobian_ideal(f).generators)
        assert report.jac_det == P("216*x*y*z")
        assert not report.member
        assert report.normal_form == P("216*x*y*z")

    def test_paper_modified_system(self):
        y = ["y1", "y2", "y3"]
        g = substitute_slice(slice_images((1, 0, 1), 3), P(PAPER_F))
        gens = (parse_poly("y1^2", y), g.partial(2), g.partial(3))
        report = saito_check(gens)
        assert not report.member

    def test_not_zero_dimensional_rejected(self):
        gens = (parse_poly("x", ["x", "y"]), parse_poly("x^2", ["x", "y"]))
        with pytest.raises(ValueError):
            saito_check(gens)


class TestBuildWitness:
    def test_fermat(self):
        cert = build_witness(P(FERMAT), V3)
        assert cert.verdict == WITNESS_FOUND
        doc = cert.document
        assert doc["input"]["milnor_number"] == 8
        assert doc["input"]["degree"] == 3
        # the restriction y2^3 + y3^3 is isolated: y2^2 and y3^2 are 1/3 of
        # its partials, and 1/3 is 1431655765 modulo 2147483647
        third = "1431655765"
        assert doc["membership_tests"]["obstruction"] == {"restriction_isolation": {
            "prime": 2147483647, "cofactors": [[third, "0"], ["0", third]],
        }}
        # one row per variable modulo a prime certifies isolation; no basis
        # is recorded
        assert doc["membership_tests"]["isolation"] == {
            "prime": 2147483647, "cofactors": [[third, "0", "0"], ["0", third, "0"], ["0", "0", third]],
        }
        assert "groebner_bases" not in doc["membership_tests"]

    @pytest.mark.parametrize("name", ["z z", "z*w", "1", "z^2", ""])
    def test_names_the_certificate_cannot_carry_are_refused(self, name):
        # format_poly would write "x^3 + y^3 + z z^3", which the verifier's
        # read_poly refuses
        with pytest.raises(ValueError, match="variable names must be identifiers"):
            build_witness(P(FERMAT), ["x", "y", name])

    def test_paper_example(self):
        cert = build_witness(P(PAPER_F), V3)
        assert cert.verdict == WITNESS_FOUND
        assert cert.document["change_of_coordinates"]["attempts"] > 1

    def test_quadric_cone(self):
        # degree-2 isolated singularity: allowed through, flagged by degree
        cert = build_witness(P("x^2 + y^2 + z^2"), V3)
        assert cert.document["input"]["degree"] == 2
        assert cert.verdict == WITNESS_FOUND
        assert verify_certificate(cert)

    def test_non_isolated_rejected(self):
        cert = build_witness(P("x^2*y"), V3)
        assert cert.verdict == INPUT_REJECTED
        assert cert.document["input"]["rejection"]["reason"] == "not_isolated"
        assert verify_certificate(cert)

    def test_not_isolated_forms_no_cofactor_row(self, monkeypatch):
        # a not_isolated rejection reads the input-Jacobian basis (its
        # lambda), never a row; f is an axis-singular n4d3 form, the shape
        # of the gate-slice benchmark workload
        calls = []
        combine = groebner._combine_rows
        monkeypatch.setattr(groebner, "_combine_rows", lambda *args: calls.append(args) or combine(*args))
        f = _axis_singular_n4d3()
        cert = build_witness(f, ["x", "y", "z", "w"])
        assert cert.document["input"]["rejection"]["reason"] == "not_isolated"
        assert calls == []
        # a witness reads the rows of its isolation records
        assert build_witness(P(FERMAT), V3).verdict == WITNESS_FOUND
        assert calls

    def test_witness_forms_rows_only_modulo_a_prime(self, monkeypatch):
        # the isolation records are the rows of bases modulo a prime, formed
        # from their own recipes: a build forms no cofactor row over Q
        calls = []
        combine = groebner._combine_rows
        monkeypatch.setattr(groebner, "_combine_rows", lambda *args: calls.append(args) or combine(*args))
        bases = _count_bases(monkeypatch)
        for text in (FERMAT, PAPER_F, "x^3 + y^3 + z^3 + x*y*z"):
            assert build_witness(P(text), V3).verdict == WITNESS_FOUND
        assert calls
        assert {args[2] for args in calls} == {2**31 - 1}
        assert set(bases) == {2**31 - 1}

    def test_witness_reads_one_hessian_and_one_minor_table(self, monkeypatch):
        # a build computes one Hessian of g, expands each of its minors once
        # and never divides to find the scales
        import nakai_forge
        import nakai_forge.cli as cli
        import nakai_forge.derivations as derivations
        import nakai_forge.minors as minors

        calls = {}
        for owner, name in ((minors, "hessian"), (derivations, "principal_cofactor"), (minors, "_expand")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original):
                calls.setdefault(_name, []).append(args)
                return _original(*args)

            for module in (nakai_forge, cli, derivations, groebner, minors, pipeline):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        for text in (FERMAT, PAPER_F, "x^2 + y^3 + z^4"):
            calls.clear()
            assert build_witness(P(text), V3).verdict == WITNESS_FOUND
            assert len(calls["hessian"]) == 1
            assert "principal_cofactor" not in calls
            expanded = [(rows, cols) for _, rows, cols in calls["_expand"]]
            assert len(set(expanded)) == len(expanded)

    def test_homogeneous_witness_skips_the_candidate_and_symmetrize(self, monkeypatch):
        # homogeneous input takes the closed form of identity 4; weighted
        # input builds the candidate and symmetrizes it, once each.  Neither
        # forms an operator or checks the scales: the builder records the
        # tuple it built, and only the verifier lifts it
        import nakai_forge.derivations as derivations

        calls = []
        for name in ("build_candidate_tuple", "symmetrize", "lift_to_diff2", "closed_form_lift", "scale_mismatches"):
            original = getattr(derivations, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            for module in (derivations, pipeline):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        for text in (FERMAT, PAPER_F, "x^3 + y^3 + z^3 + x*y*z"):
            assert build_witness(P(text), V3).verdict == WITNESS_FOUND
        assert calls == []
        for text, variables in (("x^2 + y^3 + z^4", V3), ("x^3 + y^4 + z^4 + w^6 + x*y*z*w", ["x", "y", "z", "w"])):
            calls.clear()
            assert build_witness(P(text, variables), variables).verdict == WITNESS_FOUND
            assert calls == ["build_candidate_tuple", "symmetrize"]

    def test_next_prime(self, tmp_path):
        # the first prime divides a denominator of f, so a record takes the
        # second one; recording the first is refused
        cert = build_witness(P("1/2147483647*x^3 + y^3 + z^3"), V3)
        assert cert.document["membership_tests"]["isolation"]["prime"] == 2147483629
        assert verify_certificate(cert)
        # the two largest primes below 2^31 divide it: the record walks past
        # the composites between them to the third
        cert = build_witness(P("1/4611685975477714963*x^3 + y^3 + z^3"), V3)
        assert cert.document["membership_tests"]["isolation"]["prime"] == 2147483587
        assert verify_certificate(cert)
        # here the denominator survives in h = g(0, y2, y3) too
        cert = build_witness(P("x^3 + 1/2147483647*y^3 + z^3"), V3)
        assert verify_certificate(cert)
        for label, path in (("isolation", ("isolation",)),
                            ("restriction isolation", ("obstruction", "restriction_isolation"))):
            doc = json.loads(write_certificate(cert.document))
            record = doc["membership_tests"]
            for key in path:
                record = record[key]
            assert record["prime"] == 2147483629
            record["prime"] = 2147483647
            assert certificate_failures(WitnessCertificate(doc)) == [
                f"{label}: the prime 2147483647 divides a denominator of the polynomial"
            ]
            assert _cli_verify(doc, tmp_path) == 4

    def test_unlucky_prime(self, monkeypatch, tmp_path):
        # 2^31 - 1 divides the z-partial, so J_p is not zero-dimensional for
        # that prime; its functional fails over Q, the basis over Q is
        # zero-dimensional, and the next prime down decides
        bases = _count_bases(monkeypatch)
        cert = build_witness(P("x^3 + y^3 + 2147483647*z^3"), V3)
        assert cert.verdict == WITNESS_FOUND
        # so does the restriction y^3 + 2147483647*z^3 of the no-op slice
        tests = cert.document["membership_tests"]
        assert tests["isolation"]["prime"] == tests["obstruction"]["restriction_isolation"]["prime"] == 2147483629
        assert bases == [2**31 - 1, None, 2147483629] * 2
        assert hashlib.sha256(write_certificate(cert.document)).hexdigest() == (
            "2b092b142945fb7c8e030aa3d98d776d81394c169d70ce30f5036f12372212c0"
        )
        assert _cli_verify(cert.document, tmp_path) == 0
        # the library test decides as the build does
        bases.clear()
        assert is_isolated_singularity(P("x^3 + y^3 + 2147483647*z^3")) is True
        assert bases == [2**31 - 1, None, 2147483629]

    def test_functional_too_tall_for_one_prime(self, monkeypatch):
        # lambda has the entry -1/2700000000, beyond the reach sqrt(p/2) of
        # rational reconstruction: one basis over Q records it
        bases = _count_bases(monkeypatch)
        cert = build_witness(P("(200*x - y)^2*z + (300*x - z)^3"), V3)
        assert cert.document["input"]["rejection"]["reason"] == "not_isolated"
        record = cert.document["membership_tests"]["positive_dimension"]["input_jacobian"]
        assert {"monomial": [4, 0, 0], "value": "-1/2700000000"} in record["functional"]
        assert bases == [2**31 - 1, None]
        assert hashlib.sha256(write_certificate(cert.document)).hexdigest() == (
            "d8e3d7cabb9d41fdaf065c059b3b84a64024e79994b99dc4b923039b8d59cb00"
        )
        assert verify_certificate(cert)
        bases.clear()
        assert is_isolated_singularity(P("(200*x - y)^2*z + (300*x - z)^3")) is False
        assert bases == [2**31 - 1, None]

    def test_reconstructed_functional(self, monkeypatch):
        # singular along x = -y, z = 0: lambda modulo p reconstructs to the
        # functional over Q, which passes the check with no basis over Q
        bases = _count_bases(monkeypatch)
        cert = build_witness(P("x^2*z + 2*x*y*z + y^2*z + z^3"), V3)
        assert cert.document["input"]["rejection"]["reason"] == "not_isolated"
        assert bases == [2**31 - 1]
        assert cert.document["membership_tests"]["positive_dimension"]["input_jacobian"] == {
            "degree": 4,
            "functional": [{"monomial": [4, 0, 0], "value": "-3"}, {"monomial": [3, 1, 0], "value": "2"},
                           {"monomial": [2, 2, 0], "value": "-1"}, {"monomial": [0, 4, 0], "value": "1"}],
        }
        assert verify_certificate(cert)

    def test_builds_compute_no_basis_over_q(self, monkeypatch, capsys):
        # the built-in corpus, the acceptance corpus and an axis-singular
        # rejection (the gate-slice benchmark's shape) each decide isolation
        # modulo a prime alone, in a build, in the CLI check, milnor and
        # symmetrize and in is_isolated_singularity; no division runs over
        # Q either, so the division loop's speed over Q serves no build
        from test_acceptance import NAMED_CORPUS

        corpus = NAMED_CORPUS + _random_corpus()  # drawn before counting
        bases = _count_bases(monkeypatch)
        divisions = _count_divisions(monkeypatch)
        for _, text, variables, verdict in BUILTIN_CORPUS:
            assert build_witness(parse_poly(text, variables), variables).verdict == verdict
        for _, text, variables in corpus:
            assert build_witness(parse_poly(text, variables), variables).verdict == WITNESS_FOUND
        names = ["x", "y", "z", "w"]
        f = _axis_singular_n4d3()
        cert = build_witness(f, names)
        assert cert.document["input"]["rejection"]["reason"] == "not_isolated"
        built = len(bases)
        inputs = [(text, variables, True) for _, text, variables, _ in BUILTIN_CORPUS]
        for text, variables, isolated in inputs + [(format_poly(f, names), names, False)]:
            vars_flag = ",".join(variables)
            capsys.readouterr()
            assert cli_main(["check", text, "--vars", vars_flag, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["isolated_quasi_homogeneous_singularity"] is isolated
            assert cli_main(["milnor", text, "--vars", vars_flag]) == (0 if isolated else 1)
            assert cli_main(["symmetrize", text, "--vars", vars_flag, "--json"]) == (0 if isolated else 1)
            assert is_isolated_singularity(parse_poly(text, variables)) is isolated
        assert built and len(bases) > built and None not in bases
        assert divisions and None not in divisions

    def test_non_homogeneous_rejected(self):
        cert = build_witness(P("x^2 + y^3"), V3)
        assert cert.verdict == INPUT_REJECTED
        assert cert.document["input"]["rejection"]["reason"] == "not_homogeneous"
        assert verify_certificate(cert)

    def test_two_variables_rejected(self):
        cert = build_witness(parse_poly("x^3 + y^3", ["x", "y"]), ["x", "y"])
        assert cert.verdict == INPUT_REJECTED
        assert cert.document["input"]["rejection"]["reason"] == "too_few_variables"
        assert verify_certificate(cert)

    def test_linear_rejected(self):
        cert = build_witness(P("x + y"), V3)
        assert cert.verdict == INPUT_REJECTED
        assert cert.document["input"]["rejection"]["reason"] == "degree_too_small"
        assert verify_certificate(cert)

    def test_zero_rejected(self):
        cert = build_witness(Polynomial.zero(3), V3)
        assert cert.verdict == INPUT_REJECTED
        assert verify_certificate(cert)

    def test_resource_exhausted(self, monkeypatch):
        # a stopped slice search ends the build as an engine cap does
        monkeypatch.setattr(pipeline, "MAX_SLICE_ATTEMPTS", 1)
        with pytest.raises(ResourceLimitExceeded, match="no isolating slice found within 1 attempts$"):
            build_witness(P(PAPER_F), V3)

    def test_determinism_byte_identical(self):
        one = write_certificate(build_witness(P(PAPER_F), V3).document)
        two = write_certificate(build_witness(P(PAPER_F), V3).document)
        assert one == two

    def test_rational_coefficients_end_to_end(self):
        cert = build_witness(P("1/2*x^3 + 2/3*y^3 + z^3"), V3)
        assert cert.verdict == WITNESS_FOUND
        assert verify_certificate(cert)

    def test_unused_variable_rejected(self):
        # the w-partial is zero, so the Jacobian ideal cannot be
        # zero-dimensional; the zero generator must flow through the
        # records without breaking cofactor indexing
        f = parse_poly("x^3 + y^3 + z^3", ["x", "y", "z", "w"])
        cert = build_witness(f, ["x", "y", "z", "w"])
        assert cert.verdict == INPUT_REJECTED
        assert cert.document["input"]["rejection"]["reason"] == "not_isolated"
        assert verify_certificate(cert)

    def test_forged_order_is_not_read(self, tmp_path):
        # the verifier reads every record under grevlex; a config key in the
        # input section is part of no certificate, so it is refused
        doc = json.loads(write_certificate(build_witness(P(PAPER_F), V3).document))
        doc["input"]["config"] = {"order": "lex"}
        assert certificate_failures(WitnessCertificate(doc)) == ["input.config is not written for this claim"]
        assert _cli_verify(doc, tmp_path) == 4

    def test_witness_membership_path(self, tmp_path):
        # the socle lemma puts every witness outside S, so the builder has no
        # witness_membership rejection and the verifier refuses one
        doc = json.loads(write_certificate(build_witness(P(FERMAT), V3).document))
        doc["verdict"] = INPUT_REJECTED
        doc["input"]["rejection"] = {"reason": "witness_membership", "message": "forged"}
        assert certificate_failures(WitnessCertificate(doc)) == ["unknown rejection reason 'witness_membership'"]
        assert _cli_verify(doc, tmp_path) == 4

    def test_dimension_cap(self):
        names = [f"x{i}" for i in range(1, 8)]
        f = parse_poly(" + ".join(f"x{i}^3" for i in range(1, 8)), names)
        cert = build_witness(f, names)
        assert cert.verdict == INPUT_REJECTED
        assert cert.document["input"]["rejection"]["reason"] == "dimension_cap"
        assert verify_certificate(cert)


# sha256 of the certificate bytes of every BUILTIN_CORPUS entry.  Two
# builds in one process agree even when an arithmetic change alters the
# bytes; these digests pin them across commits.
BUILTIN_CERT_SHA256 = {
    "cyclic-cubic": "399374b26c46b5ea42f4711ffbc03ddb3fe8f16ccb76facfe84512772b101442",
    "fermat-cubic": "b4c5bafde7896f8871c77f1c43e4db77d2e98684a9cf53e1bfe039ec5fd7f0e6",
    "fermat-quartic": "27df1ac2906905b0471a78ed482dd382909fc08a918657f4addbfd030bf8e2a3",
    "fermat-cubic-4": "2709409fb3ed0eee1749c5c265abed9b0482090fa8d01ffc969c29d6fea8136a",
    "brieskorn-2-3-4": "92fd94a5db0ed71412bcb39f505f5072f159a94e2fc4e30bf537e2e4b278fb9a",
    "brieskorn-3-3-4": "d290b71aac1b85c7d8fea0c11d58daad14920c23dfa3b115793df8efc0f3f25c",
}


@pytest.mark.parametrize("document", [5, None, ["schema", "input", "verdict"], "schema input verdict"],
                         ids=["int", "None", "list", "str"])
def test_a_document_that_is_not_an_object_is_refused(document):
    # certificate_failures takes a parsed document from any caller; one that
    # is not a JSON object is refused as read_certificate refuses it
    with pytest.raises(CertificateError, match="^certificate document must be a JSON object$"):
        certificate_failures(document)


def test_verifier_is_independent_of_the_construction(monkeypatch):
    # a witness certificate holds P, its scales and the isolation and
    # obstruction records; verifying it runs nothing of how the builder
    # found P, and computes no Groebner basis
    import nakai_forge.derivations as derivations
    import nakai_forge.groebner as groebner
    import nakai_forge.pipeline as pipeline

    certs = {name: build_witness(parse_poly(text, variables), variables)
             for name, text, variables, _ in BUILTIN_CORPUS}

    def forbidden(*args, **kwargs):
        raise AssertionError("the verifier ran a step of the construction")

    for module in (pipeline, derivations, groebner):
        for name in ("symmetric_tuple", "symmetrize", "replay_ledger", "build_candidate_tuple", "hessian",
                     "algebraic_cofactor", "buchberger"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    for name, cert in certs.items():
        doc = cert.document
        assert certificate_failures(cert) == [], name
        assert set(doc) == {"schema", "input", "change_of_coordinates", "lifted_operator",
                            "membership_tests", "verdict"}
        assert set(doc["input"]) == {"polynomial", "variables", "homogeneous", "weights", "degree",
                                     "variable_count", "isolated", "milnor_number"}
        assert set(doc["change_of_coordinates"]) == {"slice_coefficients", "attempts"}
        assert set(doc["lifted_operator"]) == {"coefficients", "scales_f_by"}
        assert set(doc["membership_tests"]) == {"isolation", "obstruction"}
        assert set(doc["membership_tests"]["obstruction"]) == {"restriction_isolation"}


@pytest.mark.parametrize("name, text, variables", [(n, t, v) for n, t, v, _ in BUILTIN_CORPUS])
def test_verifier_forms_the_builders_operator(name, text, variables, monkeypatch):
    # a certificate records only the second-order part of P, the builder's
    # symmetric tuple, and its scales; the operator the verifier forms from
    # them (derivations.closed_form_lift) is the one lift_to_diff2 makes of
    # that tuple and those scales, first-order part and all
    def recording(function, calls):
        def record(*args):
            calls.append(function(*args))
            return calls[-1]
        return record

    built, formed = [], []
    monkeypatch.setattr(pipeline, "symmetric_tuple", recording(pipeline.symmetric_tuple, built))
    monkeypatch.setattr(pipeline, "closed_form_lift", recording(pipeline.closed_form_lift, formed))
    cert = build_witness(parse_poly(text, variables), variables)
    assert formed == []
    doc = read_certificate(write_certificate(cert.document))
    assert all(sum(entry["index"]) == 2 for entry in doc["lifted_operator"]["coefficients"])
    assert certificate_failures(WitnessCertificate(doc)) == []
    assert len(built) == len(formed) == 1
    lifted = lift_to_diff2(*built[0])
    assert any(sum(alpha) == 1 for alpha in lifted.coeffs)
    assert formed[0] == lifted


@pytest.mark.parametrize("name, text, variables", [(n, t, v) for n, t, v, _ in BUILTIN_CORPUS])
def test_builtin_certificate_bytes_pinned(name, text, variables):
    cert = build_witness(parse_poly(text, variables), variables)
    assert hashlib.sha256(write_certificate(cert.document)).hexdigest() == BUILTIN_CERT_SHA256[name]


# sha256 of the certificate bytes of two rejections: not_isolated (its
# functional) and no_isolating_slice (the isolation record of the input and
# the functional of the restriction).
REJECTION_CERT_SHA256 = {
    "not_isolated": "c8d3222196bf7c316cce57e3164ad123c7d3b8dbf5df68e0d2837622b26d2c16",
    "no_isolating_slice": "3a2407aa232265acce66f63942d05534b931c6133e60d1a45b615b7e84aad521",
}


@pytest.mark.parametrize("reason, build", [
    ("not_isolated", lambda: build_witness(_axis_singular_n4d3(), ["x", "y", "z", "w"])),
    ("no_isolating_slice", lambda: build_witness(P("x^3 + x*y^3 + z^2"), V3)),
])
def test_rejection_certificate_bytes_pinned(reason, build):
    cert = build()
    assert cert.document["input"]["rejection"]["reason"] == reason
    assert hashlib.sha256(write_certificate(cert.document)).hexdigest() == REJECTION_CERT_SHA256[reason]


class TestVerifyCertificate:
    def _fermat_cert(self):
        return build_witness(P(FERMAT), V3)

    def test_valid(self):
        assert verify_certificate(self._fermat_cert())

    def test_round_trip_through_bytes(self):
        cert = self._fermat_cert()
        doc = read_certificate(write_certificate(cert.document))
        assert verify_certificate(WitnessCertificate(doc))

    def test_names_are_checked_once_per_variable_list(self, monkeypatch):
        # the verifier checks the input's names and each list of y names
        # once, and reads every polynomial over the checked list
        import nakai_forge.exprio as exprio

        doc = read_certificate(write_certificate(self._fermat_cert().document))
        calls = []
        names = exprio._names
        monkeypatch.setattr(exprio, "_names", lambda variables: calls.append(tuple(variables)) or names(variables))
        assert certificate_failures(doc) == []
        assert sorted(calls) == [("x", "y", "z"), ("y1", "y2", "y3"), ("y2", "y3")]

    def test_tampered_coefficient(self):
        cert = self._fermat_cert()
        doc = json.loads(write_certificate(cert.document))
        _coefficient(doc, [2, 0, 0])["value"] += " + y1^2"
        assert not verify_certificate(WitnessCertificate(doc))

    def test_tampered_scale(self, tmp_path):
        doc = json.loads(write_certificate(self._fermat_cert().document))
        assert doc["lifted_operator"]["scales_f_by"] == ["108*y2*y3", "0", "0"]
        doc["lifted_operator"]["scales_f_by"][1] = "y1"
        # the first-order part of P is formed from the scales, so P(g) = 0
        # fails too
        assert certificate_failures(WitnessCertificate(doc)) == [
            "extracted derivation 2 does not scale g by the recorded factor",
            "lifted operator does not annihilate the transformed polynomial",
        ]
        assert _cli_verify(doc, tmp_path) == 4

    def test_forged_operator_that_annihilates_g(self, tmp_path):
        # on fermat-cubic, q_1 += g_2 = 3 y2^2 and q_2 = -3 y1^2 leave the
        # divergence sum_i dq_i/dy_i alone, so the first-order part formed
        # from the scales changes by b_1 -= 3/2 y2^2 and b_2 += 3/2 y1^2, and
        # P(g) by -3/2 y2^2 * 3 y1^2 + 3/2 y1^2 * 3 y2^2 = 0; only the
        # checks d_j(g) = q_j g catch the forgery
        doc = json.loads(write_certificate(self._fermat_cert().document))
        scales = doc["lifted_operator"]["scales_f_by"]
        assert scales == ["108*y2*y3", "0", "0"]
        scales[:2] = ["3*y2^2 + 108*y2*y3", "-3*y1^2"]
        assert certificate_failures(WitnessCertificate(doc)) == [
            "extracted derivation 1 does not scale g by the recorded factor",
            "extracted derivation 2 does not scale g by the recorded factor",
        ]
        assert _cli_verify(doc, tmp_path) == 4

    @pytest.mark.parametrize("position, entry, failure", [
        (0, {"index": [0, 0, 2], "value": "12345*y1"}, "lifted_operator.coefficients is not what the builder writes"),
        (5, {"index": [0, 0, 0], "value": "0"}, "lifted_operator.coefficients is not what the builder writes"),
        (5, {"index": [1, 0, 0], "value": "-3*y1"}, "lifted_operator.coefficients is not what the builder writes"),
        (1, {"index": [0, 1, 1], "value": "0"}, "lifted_operator.coefficients is not what the builder writes"),
    ], ids=["repeated", "order 0", "order 1", "zero"])
    def test_operator_entry_the_builder_never_writes(self, position, entry, failure, tmp_path):
        # the builder writes each nonzero second-order coefficient once; the
        # rewrite keeps one entry of each multi-index and drops a zero one
        # and one of another order, so it is shorter than the forgery
        doc = json.loads(write_certificate(self._fermat_cert().document))
        doc["lifted_operator"]["coefficients"].insert(position, entry)
        assert certificate_failures(WitnessCertificate(doc)) == [failure]
        assert _cli_verify(doc, tmp_path) == 4

    def test_tampered_basis(self):
        # a rejection records a functional above s = 3 that kills J = (2xy, x^2):
        # moving it to x^4 = x^2 * x^2 must be caught at that generator
        cert = build_witness(P("x^2*y"), V3)
        doc = json.loads(write_certificate(cert.document))
        record = doc["membership_tests"]["positive_dimension"]["input_jacobian"]
        assert record == {"degree": 4, "functional": [{"monomial": [0, 4, 0], "value": "1"}]}
        record["functional"][0]["monomial"] = [4, 0, 0]
        assert certificate_failures(WitnessCertificate(doc)) == [
            "input_jacobian: the functional does not vanish on monomial [2, 0, 0] times generator 1"
        ]
        # y^5 - 3 z^5 at degree 5 also lies outside J: a different but sound
        # proof of the rejection
        record["degree"] = 5
        record["functional"] = [{"monomial": [0, 5, 0], "value": "1"}, {"monomial": [0, 0, 5], "value": "-3"}]
        assert verify_certificate(WitnessCertificate(doc))

    def test_tampered_verdict(self):
        cert = build_witness(P("x^2*y"), V3)
        doc = json.loads(write_certificate(cert.document))
        doc["verdict"] = WITNESS_FOUND
        assert not verify_certificate(WitnessCertificate(doc))

    def test_tampered_slice(self):
        cert = self._fermat_cert()
        doc = json.loads(write_certificate(cert.document))
        doc["change_of_coordinates"]["slice_coefficients"] = ["1", "1", "0"]
        assert not verify_certificate(WitnessCertificate(doc))

    @pytest.mark.parametrize("coefficients, failure", [
        (["0", "1", "0"], "change_of_coordinates.slice_coefficients is not what the builder writes"),
        (["1", "0", "0", "0"], "change_of_coordinates.slice_coefficients is not what the builder writes"),
    ], ids=["first zero", "one too many"])
    def test_invalid_slice_coefficients(self, coefficients, failure, tmp_path):
        # the verifier regenerates the slice and rewrites its text; it never
        # parses the recorded one
        doc = json.loads(write_certificate(self._fermat_cert().document))
        doc["change_of_coordinates"]["slice_coefficients"] = coefficients
        assert certificate_failures(WitnessCertificate(doc)) == [failure]
        assert _cli_verify(doc, tmp_path) == 4

    @pytest.mark.parametrize("section, key, text, failure", [
        ("change_of_coordinates", "slice_coefficients", "100",
         "change_of_coordinates.slice_coefficients is not what the builder writes"),
        ("input", "variables", "xyz",
         "certificate data does not replay: variable names must be a sequence of strings, not 'xyz'"),
    ], ids=["slice coefficients", "input variables"])
    def test_string_in_place_of_a_list(self, section, key, text, failure, tmp_path):
        # a JSON string iterates as its characters: "100" reads as the
        # coefficients 1, 0, 0 and "xyz" as the names x, y, z
        doc = json.loads(write_certificate(self._fermat_cert().document))
        doc[section][key] = text
        assert certificate_failures(WitnessCertificate(doc)) == [failure]
        assert _cli_verify(doc, tmp_path) == 4

    @pytest.mark.parametrize("case, failure", [
        ("not a pure power", "restriction isolation: row 1 does not lead with a power of y2 modulo 2147483647"),
        ("cofactors", "restriction isolation: row 1 does not lead with a power of y2 modulo 2147483647"),
        ("record count", "restriction isolation: the record does not hold one row for each of the 2 variables"),
    ])
    def test_tampered_obstruction(self, case, failure, tmp_path):
        # fermat-cubic: h = y2^3 + y3^3, with the rows (1/3, 0) and (0, 1/3)
        # modulo p = 2147483647 recorded, so h_1 = y2^2 and h_2 = y3^2
        doc = json.loads(write_certificate(self._fermat_cert().document))
        rows = doc["membership_tests"]["obstruction"]["restriction_isolation"]["cofactors"]
        if case == "not a pure power":
            # h_1 = y2^2*y3 is in J(h), but leads with no power of y2
            rows[0] = ["1431655765*y3", "0"]
        elif case == "cofactors":
            # h_1 = 3*y3^2
            rows[0] = ["0", "1"]
        else:
            rows.pop()
        assert certificate_failures(WitnessCertificate(doc)) == [failure]
        assert _cli_verify(doc, tmp_path) == 4

    def test_schema_4_obstruction_record(self, tmp_path):
        # the schema-4 record: lambda = (y1*y2*y3)^* kills the degree-3 part
        # of S and not d1(y1) = 36*y1*y2*y3, a sound proof in the format this
        # schema replaced; each of its fields is foreign to the rewrite
        doc = json.loads(write_certificate(self._fermat_cert().document))
        doc["membership_tests"]["obstruction"] = {
            "witness": "36*y1*y2*y3", "member": False, "degree": 3,
            "functional": [{"monomial": [1, 1, 1], "value": "1"}], "value": "36",
        }
        assert certificate_failures(WitnessCertificate(doc)) == [
            "membership_tests.obstruction.restriction_isolation is missing",
        ] + [f"membership_tests.obstruction.{key} is not written for this claim"
             for key in ("witness", "member", "degree", "functional", "value")]
        assert _cli_verify(doc, tmp_path) == 4

    # fermat-cubic's isolation record (p = 2147483647, rows 1/3 e_i modulo
    # p) and its restriction-isolation record, each tampered in one field;
    # v is a second variable of the record's ring
    _ISOLATION_TAMPERS = [
        ("composite prime", lambda r, v: r.__setitem__("prime", 2147483649),
         "{label}: 2147483649 is not a prime between 2 and 2^64"),
        ("prime 2^64", lambda r, v: r.__setitem__("prime", 2**64),
         "{label}: 18446744073709551616 is not a prime between 2 and 2^64"),
        ("prime above 2^64", lambda r, v: r.__setitem__("prime", 2**64 + 13),
         "{label}: 18446744073709551629 is not a prime between 2 and 2^64"),
        ("prime 0", lambda r, v: r.__setitem__("prime", 0), "{label}: 0 is not a prime between 2 and 2^64"),
        ("prime -7", lambda r, v: r.__setitem__("prime", -7), "{label}: -7 is not a prime between 2 and 2^64"),
        ("prime true", lambda r, v: r.__setitem__("prime", True), "{label}: True is not a prime between 2 and 2^64"),
        ("prime 2", lambda r, v: r.__setitem__("prime", 2), "{label}: 2 is not a prime between 2 and 2^64"),
        ("prime as text", lambda r, v: r.__setitem__("prime", "2147483647"),
         "{label}: '2147483647' is not a prime between 2 and 2^64"),
        ("negative entry", lambda r, v: r["cofactors"][0].__setitem__(0, "-1"),
         "{label}: row 1 is not {n} entries with integer coefficients in [0, 2147483647)"),
        ("entry equal to p", lambda r, v: r["cofactors"][0].__setitem__(0, "2147483647"),
         "{label}: row 1 is not {n} entries with integer coefficients in [0, 2147483647)"),
        ("entry above p", lambda r, v: r["cofactors"][0].__setitem__(0, f"2147483648 + 1431655765*{v}"),
         "{label}: row 1 is not {n} entries with integer coefficients in [0, 2147483647)"),
        ("fractional entry", lambda r, v: r["cofactors"][0].__setitem__(0, "1/2"),
         "{label}: row 1 is not {n} entries with integer coefficients in [0, 2147483647)"),
        ("short row", lambda r, v: r["cofactors"][0].pop(),
         "{label}: row 1 is not {n} entries with integer coefficients in [0, 2147483647)"),
        ("row not a list", lambda r, v: r["cofactors"].__setitem__(0, "1431655765"),
         "{label}: row 1 is not {n} entries with integer coefficients in [0, 2147483647)"),
        ("no pure power", lambda r, v: r["cofactors"][0].__setitem__(0, f"1431655765*{v}"),
         "{label}: row 1 does not lead with a power of {x} modulo 2147483647"),
        ("zero row", lambda r, v: r["cofactors"][0].__setitem__(0, "0"),
         "{label}: row 1 does not lead with a power of {x} modulo 2147483647"),
        ("missing row", lambda r, v: r["cofactors"].pop(),
         "{label}: the record does not hold one row for each of the {n} variables"),
        ("extra row", lambda r, v: r["cofactors"].append(r["cofactors"][0]),
         "{label}: the record does not hold one row for each of the {n} variables"),
    ]

    @pytest.mark.parametrize("record", ["isolation", "restriction isolation"])
    @pytest.mark.parametrize("case, mutate, failure", _ISOLATION_TAMPERS, ids=[t[0] for t in _ISOLATION_TAMPERS])
    def test_tampered_isolation_record(self, record, case, mutate, failure, tmp_path):
        doc = json.loads(write_certificate(self._fermat_cert().document))
        tests = doc["membership_tests"]
        if record == "isolation":
            target, n, x, v = tests["isolation"], 3, "x", "y"
        else:
            target, n, x, v = tests["obstruction"]["restriction_isolation"], 2, "y2", "y3"
        mutate(target, v)
        assert certificate_failures(WitnessCertificate(doc)) == [failure.format(label=record, n=n, x=x)]
        assert _cli_verify(doc, tmp_path) == 4

    def test_forged_high_degree_witness_is_fast(self, tmp_path):
        # d1(y1) forged to y1^1000000: the lemma's congruence fails on the
        # terms of y1-degree 1 of W_1 y1 Hess(h), and nothing enumerates the
        # monomials of degree 10^6
        doc = json.loads(write_certificate(self._fermat_cert().document))
        _coefficient(doc, [2, 0, 0])["value"] = "y1^1000000"
        start = time.perf_counter()
        failures = certificate_failures(WitnessCertificate(doc))
        assert time.perf_counter() - start < 5
        assert "obstruction: d1(y1) is not W_1 y1 Hess(h) modulo y1^2" in failures
        assert _cli_verify(doc, tmp_path) == 4

    def test_long_power_refused(self, tmp_path):
        # (y1 + y2)^100000 would expand to 100001 terms of up to 30103
        # digits; the canonical reader refuses the parenthesis unexpanded
        doc = json.loads(write_certificate(self._fermat_cert().document))
        _coefficient(doc, [2, 0, 0])["value"] = "(y1 + y2)^100000"
        assert _cli_verify(doc, tmp_path) == 4
        failures = certificate_failures(WitnessCertificate(doc))
        assert any("does not replay" in f and "not a canonical polynomial: unknown variable '(y1'" in f
                   for f in failures)

    def test_number_power_refused(self, tmp_path):
        # 2^10000000000 would be a 10^10-bit integer; the canonical reader
        # refuses a power of a number unevaluated
        doc = json.loads(write_certificate(self._fermat_cert().document))
        _coefficient(doc, [2, 0, 0])["value"] = "2^10000000000*y1"
        assert _cli_verify(doc, tmp_path) == 4
        failures = certificate_failures(WitnessCertificate(doc))
        assert any("does not replay" in f and "'2^10000000000' is not a nonzero coefficient in digits" in f
                   for f in failures)

    @pytest.mark.parametrize("section, text, reason", [
        ("scale", "108*y3*y2", "variables out of index order or repeated (at position 0)"),
        ("coefficient", "36*y1*y2*y3 + 0*y1^3", "'0' is not a nonzero coefficient in digits (at position 14)"),
        ("coefficient", "(36*y1*y2*y3)", "unknown variable '(36' (at position 0)"),
    ])
    def test_non_canonical_polynomial_refused(self, section, text, reason, tmp_path):
        # each text is the recorded polynomial in other words; certificate
        # polynomials are read as format_poly writes them, and nothing else
        doc = json.loads(write_certificate(self._fermat_cert().document))
        if section == "scale":
            doc["lifted_operator"]["scales_f_by"][0] = text
        else:
            _coefficient(doc, [2, 0, 0])["value"] = text
        assert certificate_failures(WitnessCertificate(doc)) == [
            f"certificate data does not replay: not a canonical polynomial: {reason}"
        ]
        assert _cli_verify(doc, tmp_path) == 4

    def test_tampered_input_basis_fails_fast(self, tmp_path):
        # the recorded Milnor number is checked against prod(D / W_i - 1), not
        # by walking standard monomials; rows forged to lead with x_i^302 are
        # a sound record, and with x_i^302 times another variable they fail
        doc = json.loads(write_certificate(self._fermat_cert().document))
        rows = doc["membership_tests"]["isolation"]["cofactors"]
        for i, name in enumerate(V3):
            rows[i][i] = f"{name}^300"
        start = time.perf_counter()
        assert certificate_failures(WitnessCertificate(doc)) == []
        assert time.perf_counter() - start < 5
        for i, name in enumerate(V3):
            rows[i][i] = f"{name}^300*{V3[i - 1]}"
        start = time.perf_counter()
        failures = certificate_failures(WitnessCertificate(doc))
        assert time.perf_counter() - start < 5
        assert any(f.startswith("isolation:") for f in failures)
        assert _cli_verify(doc, tmp_path) == 4
        # a rejection's functional, forged onto x^300, y^300 and z^300, is
        # checked as quickly
        doc = json.loads(write_certificate(build_witness(P("x^2*y"), V3).document))
        doc["membership_tests"]["positive_dimension"]["input_jacobian"] = {
            "degree": 300,
            "functional": [{"monomial": [300 * (i == j) for j in range(3)], "value": "1"} for i in range(3)],
        }
        start = time.perf_counter()
        failures = certificate_failures(WitnessCertificate(doc))
        assert time.perf_counter() - start < 5
        assert any(f.startswith("input_jacobian:") for f in failures)
        assert _cli_verify(doc, tmp_path) == 4

    def test_verify_is_deterministic(self):
        cert = self._fermat_cert()
        assert certificate_failures(cert) == certificate_failures(cert) == []

    def test_every_tamper_vector_detected(self):
        # one mutation per certificate section; each must flip validity
        def corrupt(path_desc, mutate):
            doc = json.loads(write_certificate(self._fermat_cert().document))
            mutate(doc)
            assert not verify_certificate(WitnessCertificate(doc)), path_desc

        corrupt("input polynomial", lambda d: d["input"].__setitem__(
            "polynomial", "x^3 + y^3 + 2*z^3"))
        corrupt("milnor number", lambda d: d["input"].__setitem__("milnor_number", 9))
        corrupt("isolated flag", lambda d: d["input"].__setitem__("isolated", False))
        corrupt("degree", lambda d: d["input"].__setitem__("degree", 4))
        corrupt("slice coefficients", lambda d: d["change_of_coordinates"].__setitem__(
            "slice_coefficients", ["2", "0", "0"]))
        corrupt("slice attempts", lambda d: d["change_of_coordinates"].__setitem__("attempts", 2))
        corrupt("operator diagonal coefficient", lambda d: _coefficient(d, [2, 0, 0]).__setitem__(
            "value", "0"))
        corrupt("operator mixed coefficient", lambda d: _coefficient(d, [1, 1, 0]).__setitem__(
            "value", _coefficient(d, [1, 1, 0])["value"] + " + y2"))
        corrupt("operator first-order entry added", lambda d: d["lifted_operator"]["coefficients"].append(
            {"index": [1, 0, 0], "value": "1"}))
        corrupt("operator index", lambda d: _coefficient(d, [0, 2, 0]).__setitem__("index", [0, 1, 1]))
        corrupt("operator coefficient", lambda d: d["lifted_operator"]["coefficients"].__setitem__(
            0, {"index": [1, 0, 0], "value": "y1^2"}))
        corrupt("operator scale", lambda d: d["lifted_operator"]["scales_f_by"].__setitem__(0, "y1"))
        corrupt("operator scale count", lambda d: d["lifted_operator"]["scales_f_by"].pop())
        corrupt("isolation prime", lambda d: d["membership_tests"]["isolation"].__setitem__(
            "prime", 2147483649))
        corrupt("isolation row entry", lambda d: d["membership_tests"]["isolation"]
                ["cofactors"][0].__setitem__(0, "y"))
        corrupt("isolation row variable", lambda d: d["membership_tests"]["isolation"]
                ["cofactors"].reverse())
        corrupt("restriction isolation prime", lambda d: d["membership_tests"]["obstruction"]
                ["restriction_isolation"].__setitem__("prime", 4))
        corrupt("restriction isolation row entry", lambda d: d["membership_tests"]["obstruction"]
                ["restriction_isolation"]["cofactors"][1].__setitem__(0, "y2"))
        corrupt("restriction isolation row variable", lambda d: d["membership_tests"]["obstruction"]
                ["restriction_isolation"]["cofactors"].reverse())


class TestDualFunctional:
    """Tampering with lambda, the dual vector behind a not_isolated
    rejection; every forgery must make verify exit 4."""

    @staticmethod
    def _doc(text="x^2*z + x*y*z + y^2*z + z^3"):
        # singular along the line y = z = 0: the functional on degree 4 has
        # three entries, coupled through the z-partial x^2 + x*y + y^2 + 3*z^2
        return json.loads(write_certificate(build_witness(P(text), V3).document))

    @staticmethod
    def _functional(doc):
        return doc["membership_tests"]["positive_dimension"]["input_jacobian"]["functional"]

    def test_zeroed_entry(self, tmp_path):
        assert len(self._functional(self._doc())) == 3
        for k in range(3):
            doc = self._doc()
            self._functional(doc)[k]["value"] = "0"
            assert _cli_verify(doc, tmp_path) == 4, k

    def test_flipped_entry(self, tmp_path):
        for k in range(3):
            doc = self._doc()
            entry = self._functional(doc)[k]
            entry["value"] = format_fraction(-Fraction(entry["value"]))
            assert _cli_verify(doc, tmp_path) == 4, k

    def test_wrong_degree(self, tmp_path):
        # the recorded monomials are of degree 4; a forged degree 10^9 is
        # TestPositiveDimension.test_huge_degree_is_fast
        doc = self._doc()
        doc["membership_tests"]["positive_dimension"]["input_jacobian"]["degree"] += 1
        assert _cli_verify(doc, tmp_path) == 4
        assert any("weighted degree 5" in f for f in certificate_failures(WitnessCertificate(doc)))

    @pytest.mark.parametrize("monomial", [[1, 1], [1, 1, 1, 0], [-1, 2, 2], [1, 1, 2], [1.0, 1, 1], [True, 1, 1], "y1^3"])
    def test_malformed_monomial(self, monomial, tmp_path):
        # a rejection's functional, moved to degree 5 (where y^5 is a sound
        # functional) so that [1, 1, 2] is malformed too
        doc = json.loads(write_certificate(build_witness(P("x^2*y"), V3).document))
        doc["membership_tests"]["positive_dimension"]["input_jacobian"] = {
            "degree": 5, "functional": [{"monomial": [0, 5, 0], "value": "1"}],
        }
        assert verify_certificate(WitnessCertificate(doc))
        doc["membership_tests"]["positive_dimension"]["input_jacobian"]["functional"][0]["monomial"] = monomial
        assert _cli_verify(doc, tmp_path) == 4
        assert any("functional monomial" in f for f in certificate_failures(WitnessCertificate(doc)))


class TestPositiveDimension:
    """Forged rejections: the functional behind not_isolated and
    no_isolating_slice must be nonzero, live above s and kill every multiple
    of every partial; every forgery must make verify exit 4."""

    @staticmethod
    def _doc(text="x^2*y"):
        return json.loads(write_certificate(build_witness(P(text), V3).document))

    @staticmethod
    def _forge(doc, degree, functional, key="input_jacobian"):
        doc["membership_tests"]["positive_dimension"][key] = {
            "degree": degree,
            "functional": [{"monomial": list(m), "value": v} for m, v in functional.items()],
        }
        return certificate_failures(WitnessCertificate(doc))

    def test_zero_functional(self, tmp_path):
        doc = self._doc()
        assert self._forge(doc, 4, {(0, 4, 0): "0"}) == ["input_jacobian: the functional is zero"]
        assert _cli_verify(doc, tmp_path) == 4

    def test_zero_value_appended(self, tmp_path):
        # the builder leaves zero values out of a functional; the entries are
        # in descending grevlex order, as the rewrite puts them
        doc = self._doc()
        assert self._forge(doc, 4, {(4, 0, 0): "0", (0, 4, 0): "1"}) == [
            "input_jacobian: the functional records a zero value"
        ]
        assert _cli_verify(doc, tmp_path) == 4

    def test_degree_not_above_s(self, tmp_path):
        # s = 3 for a cubic in three variables; y^3 is outside J = (2xy, x^2)
        # and kills it, but a complete intersection has degree-3 part too
        doc = self._doc()
        assert self._forge(doc, 3, {(0, 3, 0): "1"}) == [
            "input_jacobian: recorded degree 3 is not an integer above s = 3"
        ]
        assert _cli_verify(doc, tmp_path) == 4
        assert self._forge(doc, True, {(0, 1, 0): "1"})
        assert _cli_verify(doc, tmp_path) == 4

    def test_misses_a_generator(self, tmp_path):
        # x y^3 kills every multiple of the y-partial x^2, but not y^2 times
        # the x-partial 2xy
        doc = self._doc()
        assert self._forge(doc, 4, {(1, 3, 0): "1"}) == [
            "input_jacobian: the functional does not vanish on monomial [0, 2, 0] times generator 0"
        ]
        assert _cli_verify(doc, tmp_path) == 4

    def test_huge_degree_is_fast(self, tmp_path):
        # t = 10^9 with a monomial to match: only shifts into the support are
        # tried, never the monomials of degree 10^9
        doc = self._doc()
        start = time.perf_counter()
        failures = self._forge(doc, 10**9, {(10**9, 0, 0): "1"})
        assert failures == [
            f"input_jacobian: the functional does not vanish on monomial [{10**9 - 2}, 0, 0] times generator 1"
        ]
        assert _cli_verify(doc, tmp_path) == 4
        assert time.perf_counter() - start < 5

    def test_forged_rejection_of_isolated_input(self, tmp_path):
        # fermat-cubic is isolated: its Jacobian quotient is zero above s = 3,
        # so no nonzero functional above 3 kills (3x^2, 3y^2, 3z^2); every
        # other field is what a not_isolated rejection records
        doc = self._doc(FERMAT)
        doc["verdict"] = INPUT_REJECTED
        doc["input"]["rejection"] = {"reason": "not_isolated", "message": "the Jacobian ideal is not zero-dimensional"}
        doc["input"]["isolated"] = False
        del doc["input"]["milnor_number"]
        doc["change_of_coordinates"] = doc["lifted_operator"] = None
        doc["membership_tests"] = {"positive_dimension": {}}
        assert self._forge(doc, 4, {(4, 0, 0): "1"}) == [
            "input_jacobian: the functional does not vanish on monomial [2, 0, 0] times generator 0",
        ]
        assert _cli_verify(doc, tmp_path) == 4

    def test_slice_record_missing(self, tmp_path):
        doc = self._doc("x^3 + x*y^3 + z^2")
        record = doc["membership_tests"]["positive_dimension"].pop("slice_jacobian")
        assert record == {"degree": 12, "functional": [{"monomial": [3, 0], "value": "1"}]}
        assert certificate_failures(WitnessCertificate(doc)) == [
            "membership_tests.positive_dimension.slice_jacobian is missing"
        ]
        assert _cli_verify(doc, tmp_path) == 4

    def test_negative_s(self):
        # weights (9, 9, 9, 1) and D = 10 give s = -16: the functional lives
        # on degree 0, where lambda(1) = 1 and no partial has a constant term
        names = ["x", "y", "z", "w"]
        cert = build_witness(parse_poly("x*w + y*w + z*w + w^10", names), names)
        assert cert.document["input"]["rejection"]["reason"] == "not_isolated"
        assert cert.document["membership_tests"]["positive_dimension"]["input_jacobian"] == {
            "degree": 0, "functional": [{"monomial": [0, 0, 0, 0], "value": "1"}],
        }
        assert verify_certificate(cert)

    def test_rejections_verify_without_division(self, monkeypatch):
        # the verifier never divides by a basis nor forms an S-polynomial
        import nakai_forge.groebner as groebner

        certs = [build_witness(P(text), V3) for text in ("x^2*y", "x^3 + x*y^3 + z^2", FERMAT)]
        assert [c.document["input"].get("rejection", {}).get("reason") for c in certs] == [
            "not_isolated", "no_isolating_slice", None,
        ]

        def forbidden(*args, **kwargs):
            raise AssertionError("the verifier divided by a basis")

        for name in ("reduce_by_basis", "s_polynomial", "_divide_tracked"):
            monkeypatch.setattr(groebner, name, forbidden)
        for cert in certs:
            assert certificate_failures(cert) == []


class TestDualFunctionalRecurrence:
    """The one-pass recurrence gives lambda(m) = coefficient of mu in NF(m)
    for every monomial m of the degree and every standard monomial mu."""

    @staticmethod
    def _check(gb, degree, weights=None):
        monomials = monomials_of_degree(gb.n, degree, weights)
        leading = gb.leading_monomials()
        standard = [m for m in monomials if not any(all(a <= b for a, b in zip(lm, m)) for lm in leading)]
        assert standard
        normal_forms = {m: gb.normal_form(Polynomial.monomial(gb.n, m)) for m in monomials}
        for mu in standard:
            expected = {m: nf.coefficient(mu) for m, nf in normal_forms.items() if nf.coefficient(mu)}
            assert dual_functional(gb, mu, monomials) == expected, mu

    def test_axis_singular_jacobian(self):
        # no x^3 or x^2*x_j term: singular along the x-axis (an n4d3 form
        # of the gate-slice benchmark workload); s = 4, so the rejection's
        # degree is 5
        f = _axis_singular_n4d3()
        gb = buchberger(jacobian_ideal(f))
        assert not gb.is_zero_dimensional()
        names = ["x", "y", "z", "w"]
        record = build_witness(f, names).document["membership_tests"]["positive_dimension"]["input_jacobian"]
        assert record["degree"] == 5
        self._check(gb, 5)

    def test_cyclic_cubic_obstruction(self):
        # S = (y1, g_2, g_3)^2 + (g), built here as the oracle the lemma replaced
        g, witness, _ = TestObstructionModuloF._witness("cyclic-cubic")
        gb = buchberger(_square_ideal_mod_g(g))
        self._check(gb, witness.homogeneous_degree())

    @pytest.mark.parametrize("weights, degree", [((1, 1, 1), 3), ((1, 1, 1, 1), 3), ((1, 1, 1), 4),
                                                 ((1, 1, 2), 4), ((2, 1, 3), 6), ((1, 2, 2, 3), 6)])
    def test_rejection_functional_matches_every_normal_form(self, weights, degree):
        # seeded forms singular along the x1-axis (no term of degree below 2
        # in x2..xn): the functional of decide_isolation, which evaluates
        # only the monomials >= mu, is the coefficient of mu in the normal
        # form of every monomial of the degree t
        rng = random.Random(sum(weights) * 10 + degree)
        n = len(weights)
        for _ in range(3):
            f = Polynomial(n, {e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                               for e in monomials_of_degree(n, degree, weights) if sum(e[1:]) >= 2})
            gb, rejection = decide_isolation(f, weights, degree)
            assert rejection is not None
            t, functional = rejection
            leading = gb.leading_monomials()
            i = next(i for i in range(n) if all(sum(lm) != lm[i] for lm in leading))
            mu = tuple(t // weights[i] if j == i else 0 for j in range(n))
            monomials = monomials_of_degree(n, t, weights)
            expected = {m: gb.normal_form(Polynomial.monomial(n, m)).coefficient(mu) for m in monomials}
            expected = {m: c for m, c in expected.items() if c}
            assert dual_functional(gb, mu, monomials) == expected
            if gb.modulus is not None:
                expected = {m: rational_reconstruction(c.numerator, gb.modulus) for m, c in expected.items()}
            assert functional == expected

    def test_rejection_functional_evaluates_only_monomials_above_mu(self, monkeypatch):
        # J(x^100 z^100 + y^200) is not zero-dimensional, mu = x^595, and
        # x^595 is the only monomial of degree 595 that is >= mu in grevlex;
        # all of them would be about 178k
        from nakai_forge.poly import MonomialOrder

        calls = []
        key = MonomialOrder.descending_key
        monkeypatch.setattr(MonomialOrder, "descending_key", lambda self, e: calls.append(e) or key(self, e))
        gb, rejection = decide_isolation(P("x^100*z^100 + y^200"), (1, 1, 1), 200)
        assert rejection == (595, {(595, 0, 0): 1})
        assert len(calls) < 1000


def test_milnor_number_without_standard_monomials(monkeypatch):
    # the builder records prod(D / W_i - 1) and never walks the standard
    # monomials of the Jacobian basis
    from nakai_forge.groebner import GroebnerBasis

    def forbidden(self):
        raise AssertionError("the builder walked the standard monomials")

    monkeypatch.setattr(GroebnerBasis, "standard_monomials", forbidden)
    for text, milnor in [(FERMAT, 8)] + [(text, milnor) for text, _, milnor in BRIESKORN]:
        cert = build_witness(P(text), V3)
        assert cert.document["input"]["milnor_number"] == milnor
        assert verify_certificate(cert)


BRIESKORN = [("x^2 + y^3 + z^4", [6, 4, 3], 6), ("x^3 + y^3 + z^4", [4, 4, 3], 12)]


def _coefficient(doc, index):
    """The lifted operator's entry at the multi-index."""
    return next(e for e in doc["lifted_operator"]["coefficients"] if e["index"] == index)


def _cli_verify(doc, tmp_path) -> int:
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    return cli_main(["verify", str(path)])


class TestQuasiHomogeneous:
    @pytest.mark.parametrize("text, weights, milnor", BRIESKORN)
    def test_brieskorn_certificate(self, text, weights, milnor):
        cert = build_witness(P(text), V3)
        assert cert.verdict == WITNESS_FOUND
        info = cert.document["input"]
        assert info["homogeneous"] is False
        assert info["weights"] == weights
        assert info["degree"] == 12
        # Milnor-Orlik: mu = prod(D/W_i - 1) for an isolated quasi-homogeneous f
        assert info["milnor_number"] == milnor == math.prod(Fraction(12, w) - 1 for w in weights)
        assert verify_certificate(cert)

    def test_equal_weight_slice(self):
        # weights (4, 4, 3): the restriction to x = 0 is z^4, singular along the
        # y-axis, so the search mixes x and y but never z
        f = P("x^3 + x*y^2 + z^4")
        cert = build_witness(f, V3)
        assert cert.verdict == WITNESS_FOUND
        change = cert.document["change_of_coordinates"]
        assert change["attempts"] > 1
        assert change["slice_coefficients"][1] != "0"
        assert change["slice_coefficients"][2] == "0"
        assert verify_certificate(cert)

    def test_no_isolating_slice(self):
        # weights (6, 4, 9) are distinct, so only the no-op slice is
        # admissible, and the restriction z^2 is singular along the y-axis
        cert = build_witness(P("x^3 + x*y^3 + z^2"), V3)
        assert cert.verdict == INPUT_REJECTED
        assert cert.document["input"]["rejection"]["reason"] == "no_isolating_slice"
        assert cert.document["input"]["milnor_number"] == 7 == (3 - 1) * (Fraction(18, 4) - 1) * (2 - 1)
        assert verify_certificate(cert)
        doc = json.loads(write_certificate(cert.document))
        doc["input"]["rejection"]["reason"] = "not_isolated"
        assert not verify_certificate(WitnessCertificate(doc))

    def test_no_isolating_slice_forged_with_shared_weight(self):
        # x and y share weight 4, so mixed slices are admissible; the
        # recorded restriction functional is genuine but cannot justify the
        # claim, and every other input field and the isolation record are
        # rewritten to match f
        f = P("x^3 + x*y^2 + z^4")
        doc = json.loads(write_certificate(build_witness(P("x^3 + x*y^3 + z^2"), V3).document))
        doc["input"]["polynomial"] = format_poly(f, V3)
        doc["input"].update(weights=[4, 4, 3], degree=12, milnor_number=12)
        doc["input"]["rejection"]["message"] = (
            "the restriction to x = 0 is not an isolated singularity and no other variable "
            "has the weight 4 of x, so no admissible slice exists"
        )
        _, rejection = decide_isolation(restrict_to_hyperplane(f), (4, 3), 12)
        doc["membership_tests"]["positive_dimension"]["slice_jacobian"] = _positive_dimension_record(*rejection)
        gb, _ = decide_isolation(f, (4, 4, 3), 12)
        doc["membership_tests"]["isolation"] = _isolation_record(gb.modulus, _isolation_rows(gb, V3))
        failures = certificate_failures(WitnessCertificate(doc))
        assert failures == ["another variable shares the weight of the first; other slices are admissible"]

    def test_no_isolating_slice_cli_exit(self, capsys):
        assert cli_main(["witness", "x^3 + x*y^3 + z^2", "--vars", "x,y,z"]) == 1
        assert "no_isolating_slice" in capsys.readouterr().out

    def test_not_quasi_homogeneous_replays(self):
        cert = build_witness(P("x*y + z^3"), V3)
        assert cert.document["input"]["rejection"]["reason"] == "not_homogeneous"
        assert verify_certificate(cert)
        doc = json.loads(write_certificate(build_witness(P(FERMAT), V3).document))
        doc["verdict"] = INPUT_REJECTED
        doc["input"]["rejection"] = {"reason": "not_homogeneous", "message": "forged"}
        failures = certificate_failures(WitnessCertificate(doc))
        assert any("no unique positive weight vector" in f for f in failures)

    @pytest.mark.parametrize("text, weights", [(FERMAT, [2, 2, 2]), ("x^2 + y^3 + z^4", [1, 1, 1])])
    def test_tampered_weights(self, text, weights, tmp_path):
        doc = json.loads(write_certificate(build_witness(P(text), V3).document))
        doc["input"]["weights"] = weights
        assert _cli_verify(doc, tmp_path) == 4
        assert certificate_failures(WitnessCertificate(doc)) == ["input.weights is not what the builder writes"]

    def test_forged_slice_mixing_weights(self, tmp_path):
        # y1 = x + y mixes weights 6 and 4; distinct weights leave the
        # search one candidate, the no-op slice, and the position check
        # refuses every other slice before anything is substituted
        f = P("x^2 + y^3 + z^4")
        doc = json.loads(write_certificate(build_witness(f, V3).document))
        doc["change_of_coordinates"]["slice_coefficients"] = ["1", "1", "0"]
        assert _cli_verify(doc, tmp_path) == 4
        assert certificate_failures(WitnessCertificate(doc)) == [
            "change_of_coordinates.slice_coefficients is not what the builder writes"
        ]


class TestInputGate:
    """The verifier recomputes input_gate for every verdict, and the input
    facts, the isolation facts and the rejection message of the certificate
    it rewrites must be the recorded ones."""

    @pytest.mark.parametrize("text", ["x^2*y + z^3", "x^3 + x*y^3 + z^2"])
    def test_rejection_with_forged_weights(self, text, tmp_path):
        doc = json.loads(write_certificate(build_witness(P(text), V3).document))
        assert doc["input"]["rejection"]["reason"] in ("not_isolated", "no_isolating_slice")
        doc["input"].update(weights=[9, 9, 9], degree=77)
        assert certificate_failures(WitnessCertificate(doc)) == [
            "input.weights is not what the builder writes",
            "input.degree is not what the builder writes",
        ]
        assert _cli_verify(doc, tmp_path) == 4

    def test_two_variable_not_isolated(self, tmp_path):
        # the functional is genuine, J(x^3 + x^2*y) is positive-dimensional,
        # but two variables fail the gate too_few_variables first
        names = ["x", "y"]
        f = parse_poly("x^3 + x^2*y", names)
        doc = json.loads(write_certificate(build_witness(f, names).document))
        assert doc["input"]["rejection"]["reason"] == "too_few_variables"
        _, rejection = decide_isolation(f, (1, 1), 3)
        doc["input"]["rejection"] = {"reason": "not_isolated", "message": "the Jacobian ideal is not zero-dimensional"}
        doc["membership_tests"]["positive_dimension"] = {"input_jacobian": _positive_dimension_record(*rejection)}
        assert certificate_failures(WitnessCertificate(doc)) == [
            "the input fails the gate 'too_few_variables' first: 2-variable input is outside this "
            "construction; two variables are settled classically"
        ]
        assert _cli_verify(doc, tmp_path) == 4

    @pytest.mark.parametrize("text, failure", [
        ("0", "the input fails the gate 'zero_polynomial' first: "
              "the zero polynomial does not define a hypersurface"),
        ("x +* y", "certificate data does not replay: not a canonical polynomial: "
                   "terms must be joined by ' + ' or ' - ' (at position 5)"),
    ])
    def test_exhausted_input_must_pass_the_gate(self, text, failure, tmp_path):
        # RESOURCE_EXHAUSTED is no verdict: its document is refused before
        # the input is read, whatever the input; relabelled a witness, the
        # same document fails at the gate
        doc = _exhausted_layout(_built(PAPER_F), 1, "no isolating slice found within 1 attempts")
        doc["input"]["polynomial"] = text
        for key in ("homogeneous", "weights", "degree", "variable_count"):
            del doc["input"][key]
        assert certificate_failures(WitnessCertificate(doc)) == ["unknown verdict 'RESOURCE_EXHAUSTED'"]
        assert _cli_verify(doc, tmp_path) == 4
        doc["verdict"] = WITNESS_FOUND
        assert certificate_failures(WitnessCertificate(doc)) == [failure]

    @pytest.mark.parametrize("text", ["0", "x^2*y + z^3", "x^3 + x*y^3 + z^2"])
    def test_rejection_with_forged_message(self, text, tmp_path):
        doc = json.loads(write_certificate(build_witness(P(text), V3).document))
        doc["input"]["rejection"]["message"] = "the input is isolated after all"
        assert certificate_failures(WitnessCertificate(doc)) == [
            "input.rejection.message is not what the builder writes"
        ]
        assert _cli_verify(doc, tmp_path) == 4

    @pytest.mark.parametrize("text, forged, failures", [
        ("0", {"isolated": False}, ["input.isolated is not written for this claim"]),
        ("x^2*y + z^3", {"isolated": True, "milnor_number": 5}, [
            "input.isolated is not what the builder writes",
            "input.milnor_number is not written for this claim",
        ]),
        ("x^3 + x*y^3 + z^2", {"milnor_number": 99}, ["input.milnor_number is not what the builder writes"]),
    ])
    def test_rejection_with_forged_isolation_facts(self, text, forged, failures, tmp_path):
        # a gate rejection records neither fact, not_isolated records
        # isolated false, no_isolating_slice isolated true and the Milnor number
        doc = json.loads(write_certificate(build_witness(P(text), V3).document))
        doc["input"].update(forged)
        assert certificate_failures(WitnessCertificate(doc)) == failures
        assert _cli_verify(doc, tmp_path) == 4


class TestIsolationRecord:
    """Every certificate that records isolated true (a witness or a
    no_isolating_slice rejection) holds the isolation record of f, and the
    verifier checks it for each of them."""

    def test_forged_no_isolating_slice_of_a_non_isolated_input(self, tmp_path):
        # J(f) vanishes along the z-axis, so f is not isolated, but every
        # other field of the forgery is what a no_isolating_slice rejection of
        # an isolated f with weights [2, 1, 1] records: the Milnor number
        # prod(4 / W_i - 1) = 9, the message, and a genuine functional of the
        # restriction y^4 + y^2*z^2
        f = P("x^2 + y^4 + y^2*z^2")
        doc = json.loads(write_certificate(build_witness(f, V3).document))
        assert doc["input"]["rejection"]["reason"] == "not_isolated"
        _, rejection = decide_isolation(restrict_to_hyperplane(f), (1, 1), 4)
        doc["input"].update(isolated=True, milnor_number=9, rejection={
            "reason": "no_isolating_slice",
            "message": pipeline.rejection_message("no_isolating_slice", None, V3, [2, 1, 1]),
        })
        doc["membership_tests"] = {"positive_dimension": {"slice_jacobian": _positive_dimension_record(*rejection)}}
        assert certificate_failures(WitnessCertificate(doc)) == ["membership_tests.isolation is missing"]
        assert _cli_verify(doc, tmp_path) == 4
        # the genuine record of the isolated x^2 + y^4 + z^4, of the same
        # weights, does not carry over: its rows over the partials of f lead
        # with no pure power
        gb, _ = decide_isolation(P("x^2 + y^4 + z^4"), (2, 1, 1), 4)
        doc["membership_tests"]["isolation"] = _isolation_record(gb.modulus, _isolation_rows(gb, V3))
        failures = certificate_failures(WitnessCertificate(doc))
        assert failures and all(f.startswith("isolation: row") for f in failures)
        assert _cli_verify(doc, tmp_path) == 4

    @pytest.mark.parametrize("verdict", ["no_isolating_slice", WITNESS_FOUND])
    def test_record_dropped(self, verdict, tmp_path):
        doc = _built(FERMAT if verdict == WITNESS_FOUND else "x^3 + x*y^3 + z^2")
        assert doc["input"]["isolated"] is True
        assert certificate_failures(WitnessCertificate(doc)) == []
        del doc["membership_tests"]["isolation"]
        assert certificate_failures(WitnessCertificate(doc)) == ["membership_tests.isolation is missing"]
        assert _cli_verify(doc, tmp_path) == 4

    def test_row_entry_changed(self, tmp_path):
        # row 2 is (1, 0, 0): h_2 = 3x^2 + y^3 leads with y^3 under grevlex;
        # z*(3x^2 + y^3) leads with y^3*z
        doc = json.loads(write_certificate(build_witness(P("x^3 + x*y^3 + z^2"), V3).document))
        rows = doc["membership_tests"]["isolation"]["cofactors"]
        assert rows[1] == ["1", "0", "0"]
        rows[1][0] = "z"
        assert certificate_failures(WitnessCertificate(doc)) == [
            "isolation: row 2 does not lead with a power of y modulo 2147483647"
        ]
        assert _cli_verify(doc, tmp_path) == 4


class TestAttempts:
    """change_of_coordinates.attempts is an int in 1..MAX_SLICE_ATTEMPTS,
    and in a witness the position of the recorded slice in the search."""

    @pytest.mark.parametrize("attempts", ["abc", -5, None, [1], 10**30, True, 0, 201, 1.0])
    @pytest.mark.parametrize("text", [FERMAT, PAPER_F], ids=["witness", "second-slice"])
    def test_out_of_range(self, text, attempts, tmp_path):
        doc = json.loads(write_certificate(build_witness(P(text), V3).document))
        doc["change_of_coordinates"]["attempts"] = attempts
        start = time.perf_counter()
        assert certificate_failures(WitnessCertificate(doc)) == [
            f"recorded attempts {attempts!r} is not an integer in 1..200"
        ]
        assert time.perf_counter() - start < 5
        assert _cli_verify(doc, tmp_path) == 4

    def test_missing(self, tmp_path):
        doc = json.loads(write_certificate(build_witness(P(FERMAT), V3).document))
        del doc["change_of_coordinates"]["attempts"]
        assert certificate_failures(WitnessCertificate(doc)) == [
            "recorded attempts None is not an integer in 1..200"
        ]

    @pytest.mark.parametrize("text, attempts", [(FERMAT, 2), (FERMAT, 200), (PAPER_F, 1), (PAPER_F, 3),
                                                ("x^2 + y^3 + z^4", 2)])
    def test_not_the_position_of_the_slice(self, text, attempts, tmp_path):
        # the slice rewritten for another candidate is not the recorded one;
        # x^2 + y^3 + z^4 has distinct weights, so the search has one
        # candidate: a position past it is a failure, not a StopIteration
        doc = json.loads(write_certificate(build_witness(P(text), V3).document))
        assert doc["change_of_coordinates"]["attempts"] != attempts
        doc["change_of_coordinates"]["attempts"] = attempts
        assert certificate_failures(WitnessCertificate(doc)) == [
            "the slice search has no candidate 2" if text == "x^2 + y^3 + z^4"
            else "change_of_coordinates.slice_coefficients is not what the builder writes"
        ]
        assert _cli_verify(doc, tmp_path) == 4


def _exhausted_layout(doc, attempts, message):
    """A witness certificate rewritten into the layout of the removed
    RESOURCE_EXHAUSTED verdict: the slices tried and a stop flag as its
    change of coordinates, the message that stopped the search as its
    resource error, and no operator or obstruction."""
    doc["verdict"] = "RESOURCE_EXHAUSTED"
    doc["change_of_coordinates"] = {"attempts": attempts, "exhausted": True}
    doc["input"]["resource_error"] = message
    doc["lifted_operator"] = None
    del doc["membership_tests"]["obstruction"]
    return doc


class TestExhaustion:
    """The slice search of f stops without a basis: at the first slice too
    large to substitute, or after MAX_SLICE_ATTEMPTS slices.  It raises
    ResourceLimitExceeded with the message of that stop, and no document
    can certify the stop."""

    HUGE = "x^1000 + y^1000 + x*z^999"  # candidate 2, (1, -1, 0), hits the power bound
    POWER = "power 1000 of slice row 1 is too large to expand"

    @staticmethod
    def _substituted(monkeypatch):
        """The slices the search substitutes, in order."""
        tried = []
        substitute = pipeline.substitute_slice

        def recording(images, f):
            tried.append(images)
            return substitute(images, f)
        monkeypatch.setattr(pipeline, "substitute_slice", recording)
        return tried

    def test_forged_message(self, tmp_path):
        # the search of HUGE does stop, yet a document that records the
        # stop with the very message raised there is refused
        with pytest.raises(ResourceLimitExceeded) as caught:
            build_witness(P(self.HUGE), V3)
        assert str(caught.value) == self.POWER
        doc = _exhausted_layout(_built(FERMAT), 2, str(caught.value))
        doc["input"]["polynomial"] = self.HUGE
        assert certificate_failures(WitnessCertificate(doc)) == ["unknown verdict 'RESOURCE_EXHAUSTED'"]
        assert _cli_verify(doc, tmp_path) == 4

    def test_stop_after_the_power_bound(self, monkeypatch):
        tried = self._substituted(monkeypatch)
        with pytest.raises(ResourceLimitExceeded, match=f"^{self.POWER}$"):
            generic_slice_search(P(self.HUGE))
        assert len(tried) == 2

    def test_stop_before_the_power_bound(self, monkeypatch):
        # candidate 1 is the no-op slice, which substitutes fine, so a cap
        # of 1 stops the search before the power bound
        monkeypatch.setattr(pipeline, "MAX_SLICE_ATTEMPTS", 1)
        tried = self._substituted(monkeypatch)
        with pytest.raises(ResourceLimitExceeded, match="^no isolating slice found within 1 attempts$"):
            generic_slice_search(P(self.HUGE))
        assert len(tried) == 1

    def test_attempt_cap(self, monkeypatch, tmp_path):
        # PAPER_F needs 2 slices, so with the cap at 1 its search stops
        # after the no-op slice, and with the cap at 2 it finds the witness
        monkeypatch.setattr(pipeline, "MAX_SLICE_ATTEMPTS", 1)
        tried = self._substituted(monkeypatch)
        with pytest.raises(ResourceLimitExceeded, match="^no isolating slice found within 1 attempts$"):
            build_witness(P(PAPER_F), V3)
        assert len(tried) == 1
        monkeypatch.setattr(pipeline, "MAX_SLICE_ATTEMPTS", 2)
        doc = _built(PAPER_F)
        assert (doc["verdict"], doc["change_of_coordinates"]["attempts"]) == (WITNESS_FOUND, 2)
        assert certificate_failures(WitnessCertificate(doc)) == []
        assert _cli_verify(doc, tmp_path) == 0

    def test_single_candidate(self, monkeypatch):
        # distinct weights: the search has one candidate, so a cap of 1
        # stops nothing: the only slice gives a witness, or its failure is
        # the rejection no_isolating_slice, not a stop
        monkeypatch.setattr(pipeline, "MAX_SLICE_ATTEMPTS", 1)
        witness = _built("x^2 + y^3 + z^4")
        assert (witness["verdict"], witness["change_of_coordinates"]["attempts"]) == (WITNESS_FOUND, 1)
        rejected = _built("x^3 + x*y^3 + z^2")
        assert (rejected["verdict"], rejected["input"]["rejection"]["reason"]) == (
            INPUT_REJECTED, "no_isolating_slice")


class TestExhaustedForgery:
    """A stopped slice search raises ResourceLimitExceeded and writes no
    certificate, so a document that claims one is refused.  The verifier
    could only follow the search to the recorded stop, without a basis, so
    it could not see that an earlier slice isolates: both inputs here have
    a witness at the first slice, and a genuine isolation record."""

    @pytest.mark.parametrize("text, attempts, message", [
        (FERMAT, 200, "no isolating slice found within 200 attempts"),
        ("x^1000 + y^1000 + z^1000", 2, "power 1000 of slice row 1 is too large to expand"),
    ], ids=["attempt-cap", "slice-power"])
    def test_is_refused(self, text, attempts, message, tmp_path):
        doc = _built(text)
        assert (doc["verdict"], doc["change_of_coordinates"]["attempts"]) == (WITNESS_FOUND, 1)
        _exhausted_layout(doc, attempts, message)
        assert certificate_failures(WitnessCertificate(doc)) == ["unknown verdict 'RESOURCE_EXHAUSTED'"]
        assert _cli_verify(doc, tmp_path) == 4


class TestStrayFields:
    """input.rejection belongs to INPUT_REJECTED, and no verdict writes
    input.resource_error; a certificate that records either where its
    rewrite has none is refused."""

    def test_witness_with_a_rejection(self, tmp_path):
        doc = json.loads(write_certificate(build_witness(P(FERMAT), V3).document))
        doc["input"]["rejection"] = {"reason": "not_isolated", "message": "the Jacobian ideal is not zero-dimensional"}
        assert certificate_failures(WitnessCertificate(doc)) == ["input.rejection is not written for this claim"]
        assert _cli_verify(doc, tmp_path) == 4

    @pytest.mark.parametrize("text", [FERMAT, "x^2*y + z^3", "x^3 + x*y^3 + z^2"])
    def test_resource_error_outside_exhaustion(self, text, tmp_path):
        doc = json.loads(write_certificate(build_witness(P(text), V3).document))
        doc["input"]["resource_error"] = "power 1000 of slice row 1 is too large to expand"
        assert certificate_failures(WitnessCertificate(doc)) == ["input.resource_error is not written for this claim"]
        assert _cli_verify(doc, tmp_path) == 4


def _built(text, variables=V3):
    return json.loads(write_certificate(build_witness(parse_poly(text, variables), variables).document))


def _set(path, value):
    """A mutation that sets the value at a path of keys."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


def _set_functional_value(value):
    return lambda doc: doc["membership_tests"]["positive_dimension"]["input_jacobian"]["functional"][0].update(
        value=value)


_NOT_WRITTEN = "{} is not written for this claim"
_NOT_THE_BUILDERS = "{} is not what the builder writes"
# (name, input, mutation, failures): documents that hold a certificate's
# proofs but are not the one document its claim has
_FOREIGN_FORMS = [
    ("rejection with witness sections", "x^2*y + z^3",
     lambda doc: doc.update({k: _built(FERMAT)[k] for k in ("change_of_coordinates", "lifted_operator")}),
     [_NOT_THE_BUILDERS.format("change_of_coordinates"), _NOT_THE_BUILDERS.format("lifted_operator")]),
    ("witness with a positive-dimension record", FERMAT,
     _set(("membership_tests", "positive_dimension"), {"input_jacobian": {
         "degree": 4, "functional": [{"monomial": [0, 4, 0], "value": "1"}]}}),
     [_NOT_WRITTEN.format("membership_tests.positive_dimension")]),
    *[(f"stray {'.'.join(path)}", FERMAT, _set(path, value), [_NOT_WRITTEN.format(".".join(path))])
      for path, value in [(("input", "note"), "checked by hand"),
                          (("change_of_coordinates", "matrix"), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                          (("lifted_operator", "first_order"), []),
                          (("membership_tests", "isolation", "note"), "p = 2^31 - 1"),
                          (("comment",), "checked by hand"),
                          (("schema", "producer"), "nakai-forge")]],
    ("witness not exhausted", FERMAT, _set(("change_of_coordinates", "exhausted"), False),
     [_NOT_WRITTEN.format("change_of_coordinates.exhausted")]),
    ("input not canonical", FERMAT, _set(("input", "polynomial"), "z^3+y^3+x^3+0*x"),
     ["certificate data does not replay: not a canonical polynomial: an exponent must be an integer of at least 2 "
      "without leading zeros (at position 0)"]),
    ("operator entries reversed", FERMAT, lambda doc: doc["lifted_operator"]["coefficients"].reverse(),
     [_NOT_THE_BUILDERS.format("lifted_operator.coefficients")]),
    *[(f"functional value {value}", "x^2*y", _set_functional_value(value),
       [_NOT_THE_BUILDERS.format("membership_tests.positive_dimension.input_jacobian.functional")])
      for value in ("01", "1/1")],
]


class TestOneDocumentPerClaim:
    """A claim and its proof values fix every field of a certificate: the
    verifier rewrites the certificate and refuses any other document, what
    it adds, leaves out or writes in other words included."""

    @pytest.mark.parametrize("name, text, mutate, failures", _FOREIGN_FORMS, ids=[f[0] for f in _FOREIGN_FORMS])
    def test_foreign_form_is_refused(self, name, text, mutate, failures, tmp_path):
        doc = _built(text)
        assert certificate_failures(WitnessCertificate(doc)) == []
        mutate(doc)
        assert certificate_failures(WitnessCertificate(doc)) == failures
        assert _cli_verify(doc, tmp_path) == 4

    @staticmethod
    def _dicts(node, path="", list_path=None):
        """(dict, the failure one key added to it gives) for every dict of a
        document: its path and the key, or the path of the outermost list
        that holds it."""
        if isinstance(node, dict):
            added = f"{path}.stray" if path else "stray"
            yield node, (_NOT_THE_BUILDERS.format(list_path) if list_path else _NOT_WRITTEN.format(added))
            for key, child in node.items():
                yield from TestOneDocumentPerClaim._dicts(child, f"{path}.{key}" if path else key, list_path)
        elif isinstance(node, list):
            for child in node:
                yield from TestOneDocumentPerClaim._dicts(child, path, list_path or path)

    @pytest.mark.parametrize("text", [FERMAT, "x^2*y + z^3", "x^3 + x*y^3 + z^2", "x*y + z^3"],
                             ids=["witness", "not_isolated", "no_isolating_slice", "gate"])
    def test_a_key_added_anywhere_is_refused(self, text):
        doc = _built(text)
        found = 0
        for node, failure in list(self._dicts(doc)):
            node["stray"] = 1
            assert certificate_failures(WitnessCertificate(doc)) == [failure]
            del node["stray"]
            found += 1
        assert certificate_failures(WitnessCertificate(doc)) == []
        assert found >= 4


@pytest.mark.parametrize("index", [[1.0, 0.0, 1.0], [1, 1.0, 0], [True, 0, 1]])
def test_float_multi_index_refused(index, tmp_path):
    # a float or a bool equals the int it stands for, and hashes alike, so
    # a float index would name the same coefficient; the rewrite has integers
    doc = json.loads(write_certificate(build_witness(P(FERMAT), V3).document))
    entry = _coefficient(doc, [int(a) for a in index])
    entry["index"] = index
    assert certificate_failures(WitnessCertificate(doc)) == [
        "lifted_operator.coefficients is not what the builder writes"
    ]
    assert _cli_verify(doc, tmp_path) == 4


def _square_ideal_mod_g(g):
    """S = (y1, g_2, ..., g_n)^2 + (g)."""
    return Ideal(square_obstruction_ideal(g, 1).generators + (g,))


# (name, text, variables) for every input with a witness: the built-in
# corpus and the random inputs of the acceptance corpus (criterion 6)
WITNESS_INPUTS = [(n, t, v) for n, t, v, _ in BUILTIN_CORPUS] + _random_corpus()


class TestObstructionModuloF:
    """Operators on A = Q[y]/(g) are defined modulo (g), so the composition
    argument needs the witness d1(y1) outside S = (y1, g_2, .., g_n)^2 + (g).
    The certificate proves that by the socle lemma; these tests check the
    same fact by Groebner membership, and pin the cyclic-cubic case where a
    test without (g) would say nothing in A."""

    @staticmethod
    def _build(text, variables):
        doc = build_witness(parse_poly(text, variables), variables).document
        g, yvars = slice_coordinates(doc)
        diagonal = [2] + [0] * (len(yvars) - 1)
        witness = next(e["value"] for e in doc["lifted_operator"]["coefficients"] if e["index"] == diagonal)
        return g, parse_poly(witness, yvars), doc

    @classmethod
    def _witness(cls, name):
        text, variables = next((t, v) for n, t, v, _ in BUILTIN_CORPUS if n == name)
        return cls._build(text, variables)

    @pytest.mark.parametrize("name, text, variables", WITNESS_INPUTS, ids=[n for n, _, _ in WITNESS_INPUTS])
    def test_witness_outside_square_ideal_modulo_f(self, name, text, variables):
        g, witness, doc = self._build(text, variables)
        assert doc["verdict"] == WITNESS_FOUND
        # the old proof: d1(y1) has a nonzero normal form modulo a basis of S
        assert not buchberger(_square_ideal_mod_g(g)).contains(witness)
        # the lemma's congruence: d1(y1) = W_1 y1 Hess(h) modulo y1^2
        h = restrict_to_hyperplane(g)
        hess = determinant(jacobian_matrix([h.partial(i) for i in range(1, h.n + 1)]))
        w1 = doc["input"]["weights"][0]
        lemma = Polynomial(g.n, {(1,) + e: w1 * c for e, c in hess.terms.items()})
        assert all(e[0] >= 2 for e in (witness - lemma).terms)
        assert not hess.is_zero()

    def test_cyclic_cubic_modified_ideal_gap(self):
        # the gap shows under the slice y1 = 3x + 3z, with the witness
        # y1 A_11 of point 1 of the pipeline docstring (W_1 = 1); the slice
        # the builder takes, y1 = x - y, puts g in the modified ideal
        g = substitute_slice(slice_images((3, 0, 3), 3), P(PAPER_F))
        witness = algebraic_cofactor(hessian(g), 1, 1).mul_monomial((1, 0, 0))
        modified = modified_jacobian_ideal(g, 1)
        assert not buchberger(modified).contains(g)
        assert buchberger(Ideal(modified.generators + (g,))).contains(witness)

    def test_cyclic_cubic_functional_kills_multiples_of_g(self):
        # lambda read off a basis of S (the schema-4 proof) vanishes on g * m
        # for every monomial m of the complementary weighted degree: the part
        # a test without (g) misses
        g, witness, _ = self._witness("cyclic-cubic")
        gb = buchberger(_square_ideal_mod_g(g))
        nf = gb.normal_form(witness)
        mu = gb.order.leading_term(nf)[0]
        delta = witness.homogeneous_degree()
        assert delta == 3 == g.homogeneous_degree()
        functional = dual_functional(gb, mu, monomials_of_degree(3, delta))
        for m in monomials_of_degree(3, delta - 3):
            product = g.mul_monomial(m)
            assert sum(c * functional.get(e, 0) for e, c in product.terms.items()) == 0
        value = sum(c * functional.get(e, 0) for e, c in witness.terms.items())
        assert value != 0 and value == nf.coefficient(mu)
