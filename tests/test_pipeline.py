import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

from nakai_forge.cli import BUILTIN_CORPUS, main as cli_main
from nakai_forge.derivations import modified_jacobian_ideal, square_obstruction_ideal
from nakai_forge.exprio import format_fraction, format_poly, parse_poly, read_certificate, write_certificate
from nakai_forge.groebner import Ideal, ResourceLimitExceeded, buchberger, jacobian_ideal
from nakai_forge.pipeline import (
    INPUT_REJECTED,
    RESOURCE_EXHAUSTED,
    WITNESS_FOUND,
    PipelineConfig,
    WitnessCertificate,
    _positive_dimension_record,
    build_witness,
    certificate_failures,
    dual_functional,
    generic_slice_search,
    obstruction_ideal,
    restrict_to_hyperplane,
    saito_check,
    slice_change,
    verify_certificate,
)
from nakai_forge.poly import Polynomial, monomials_of_degree

V3 = ["x", "y", "z"]


def P(text, variables=V3):
    return parse_poly(text, variables)


PAPER_F = "x^2*y + y^2*z + z^2*x"
FERMAT = "x^3 + y^3 + z^3"


class TestSliceSearch:
    def test_fermat_identity_slice(self):
        choice = generic_slice_search(P(FERMAT), PipelineConfig())
        assert choice.coefficients == (1, 0, 0)
        assert choice.attempts == 1

    def test_paper_example_identity_slice_fails(self):
        # f restricted to x = 0 is y^2 z, which is not an isolated singularity
        f = P(PAPER_F)
        restriction = restrict_to_hyperplane(f)
        assert restriction == parse_poly("y^2*z", ["y", "z"])
        assert not buchberger(jacobian_ideal(restriction)).is_zero_dimensional()
        choice = generic_slice_search(f, PipelineConfig())
        assert choice.attempts > 1
        assert buchberger(jacobian_ideal(choice.restriction)).is_zero_dimensional()

    def test_paper_chosen_slice_works(self):
        # y1 = x + z: the restriction is y2*y3^2 + y2^2*y3 - y3^3
        change = slice_change((1, 0, 1), 3)
        g = change.apply(P(PAPER_F))
        restriction = restrict_to_hyperplane(g)
        assert restriction == parse_poly("y2*y3^2 + y2^2*y3 - y3^3", ["y2", "y3"])
        assert buchberger(jacobian_ideal(restriction)).is_zero_dimensional()

    def test_retry_cap(self):
        with pytest.raises(ResourceLimitExceeded):
            generic_slice_search(P(PAPER_F), PipelineConfig(max_retries=1))

    def test_huge_slice_power_is_refused(self):
        # the restriction y^1000 is not isolated, and any slice that changes
        # it mixes x with y or z: a row whose 1000th power the parser refuses
        f = P("x^1000 + y^1000 + x*z^999")
        with pytest.raises(ResourceLimitExceeded, match="power 1000 of slice row 1"):
            generic_slice_search(f, PipelineConfig())
        cert = build_witness(f, V3)
        assert cert.verdict == RESOURCE_EXHAUSTED
        assert verify_certificate(cert)

    def test_determinism(self):
        cfg = PipelineConfig(seed=5)
        a = generic_slice_search(P(PAPER_F), cfg)
        b = generic_slice_search(P(PAPER_F), cfg)
        assert a.coefficients == b.coefficients

    def test_too_few_variables(self):
        with pytest.raises(ValueError):
            generic_slice_search(parse_poly("x^3 + y^3", ["x", "y"]), PipelineConfig())

    def test_first_coefficient_must_be_nonzero(self):
        with pytest.raises(ValueError):
            slice_change((0, 1, 0), 3)


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
        g = slice_change((1, 0, 1), 3).apply(P(PAPER_F))
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
        obstruction = doc["membership_tests"]["obstruction"]
        assert obstruction["member"] is False
        assert obstruction["degree"] == 3 and obstruction["value"] != "0"
        assert obstruction["functional"]
        # one pure power per variable certifies isolation; no basis is recorded
        assert len(doc["membership_tests"]["isolation"]["pure_powers"]) == 3
        assert "groebner_bases" not in doc["membership_tests"]

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

    def test_resource_exhausted(self):
        cert = build_witness(P(PAPER_F), V3, PipelineConfig(max_retries=1))
        assert cert.verdict == RESOURCE_EXHAUSTED
        assert verify_certificate(cert)

    def test_determinism_byte_identical(self):
        cfg = PipelineConfig(seed=11)
        one = write_certificate(build_witness(P(PAPER_F), V3, cfg).document)
        two = write_certificate(build_witness(P(PAPER_F), V3, cfg).document)
        assert one == two

    def test_seed_changes_slice_but_not_validity(self):
        for seed in (0, 1, 2):
            cert = build_witness(P(PAPER_F), V3, PipelineConfig(seed=seed))
            assert cert.verdict == WITNESS_FOUND
            assert verify_certificate(cert)

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

    def test_lex_order_certificate_verifies(self):
        from nakai_forge.poly import LEX

        cert = build_witness(P(FERMAT), V3, PipelineConfig(order=LEX))
        assert cert.verdict == WITNESS_FOUND
        assert cert.document["input"]["config"]["order"] == "lex"
        pure = cert.document["membership_tests"]["isolation"]["pure_powers"]
        assert [r["polynomial"].split(" ")[0] for r in pure] == ["x^2", "y^2", "z^2"]
        assert verify_certificate(cert)

    def test_witness_membership_path(self, monkeypatch):
        # no known input puts d1(y1) inside S; the unit ideal in place of S
        # runs the rejection branch and its replay
        import nakai_forge.pipeline as pipeline

        real = pipeline.obstruction_ideal
        monkeypatch.setattr(pipeline, "obstruction_ideal", lambda g: Ideal((Polynomial.constant(g.n, 1),)))
        cert = build_witness(P(FERMAT), V3)
        assert cert.verdict == INPUT_REJECTED
        assert cert.document["input"]["rejection"]["reason"] == "witness_membership"
        obstruction = cert.document["membership_tests"]["obstruction"]
        assert obstruction["member"] is True and obstruction["cofactors"] == [obstruction["witness"]]
        assert verify_certificate(cert)
        monkeypatch.setattr(pipeline, "obstruction_ideal", real)
        assert certificate_failures(cert) == ["obstruction: cofactors do not re-multiply to the witness"]

    def test_dimension_cap(self):
        names = [f"x{i}" for i in range(1, 8)]
        f = parse_poly(" + ".join(f"x{i}^3" for i in range(1, 8)), names)
        cert = build_witness(f, names)
        assert cert.verdict == INPUT_REJECTED
        assert cert.document["input"]["rejection"]["reason"] == "dimension_cap"
        assert verify_certificate(cert)


# sha256 of the certificate bytes of every BUILTIN_CORPUS entry under
# PipelineConfig().  Two builds in one process agree even when an arithmetic
# change alters the bytes; these digests pin them across commits.
BUILTIN_CERT_SHA256 = {
    "cyclic-cubic": "c574922b9ec06edc4210e9263ec1cddf7b9e791432edb9d3c47403c9e5e4be05",
    "fermat-cubic": "d20be106c0567928bb3b5081265841b011a74cdc4846e81b2392e5440a0ff4ed",
    "fermat-quartic": "2fa27b9c023ad84f602fb30e76ac33332698dd1e315cc812ce0d2c8aad3ec799",
    "fermat-cubic-4": "8d9452a3a7198df2c2108670319e7df0bbd3606c338a687d0589be71952927cd",
    "brieskorn-2-3-4": "c479272d7e412206a03764199e4ef4fc671e2d880e4a195b7a1540e547b27f39",
    "brieskorn-3-3-4": "08155de9a1e535b832434de8479f050efebe6e4e288164cebf8a3b2d37cce940",
}


def test_verifier_is_independent_of_the_construction(monkeypatch):
    # a witness certificate holds P, its scales and the isolation and
    # obstruction records; verifying it runs nothing of how the builder
    # found P
    import nakai_forge.derivations as derivations
    import nakai_forge.pipeline as pipeline

    certs = {name: build_witness(parse_poly(text, variables), variables)
             for name, text, variables, _ in BUILTIN_CORPUS}

    def forbidden(*args, **kwargs):
        raise AssertionError("the verifier ran a step of the construction")

    for module in (pipeline, derivations):
        for name in ("symmetrize", "replay_ledger", "candidate_defect_cofactors",
                     "build_candidate_tuple", "hessian", "algebraic_cofactor"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    for name, cert in certs.items():
        doc = cert.document
        assert certificate_failures(cert) == [], name
        assert set(doc) == {"schema", "input", "change_of_coordinates", "lifted_operator",
                            "membership_tests", "verdict"}
        assert set(doc["change_of_coordinates"]) == {"slice_coefficients", "new_variables",
                                                     "transformed_polynomial", "attempts"}
        assert set(doc["lifted_operator"]) == {"coefficients", "scales_f_by"}
        assert set(doc["membership_tests"]) == {"isolation", "obstruction"}


@pytest.mark.parametrize("name, text, variables", [(n, t, v) for n, t, v, _ in BUILTIN_CORPUS])
def test_builtin_certificate_bytes_pinned(name, text, variables):
    cert = build_witness(parse_poly(text, variables), variables, PipelineConfig())
    assert hashlib.sha256(write_certificate(cert.document)).hexdigest() == BUILTIN_CERT_SHA256[name]


class TestVerifyCertificate:
    def _fermat_cert(self):
        return build_witness(P(FERMAT), V3)

    def test_valid(self):
        assert verify_certificate(self._fermat_cert())

    def test_round_trip_through_bytes(self):
        cert = self._fermat_cert()
        doc = read_certificate(write_certificate(cert.document))
        assert verify_certificate(WitnessCertificate(doc))

    def test_tampered_coefficient(self):
        cert = self._fermat_cert()
        doc = json.loads(write_certificate(cert.document))
        _coefficient(doc, [2, 0, 0])["value"] += " + y1^2"
        assert not verify_certificate(WitnessCertificate(doc))

    def test_tampered_scale(self, tmp_path):
        doc = json.loads(write_certificate(self._fermat_cert().document))
        assert doc["lifted_operator"]["scales_f_by"] == ["108*y2*y3", "0", "0"]
        doc["lifted_operator"]["scales_f_by"][1] = "y1"
        assert certificate_failures(WitnessCertificate(doc)) == [
            "extracted derivation 2 does not scale g by the recorded factor"
        ]
        assert _cli_verify(doc, tmp_path) == 4

    def test_forged_operator_that_annihilates_g(self, tmp_path):
        # adding 3 y1^2 d^[2e1] - 3 y1 d_1 keeps P(g) = 0 on fermat-cubic
        # (9 y1^3 - 9 y1^3), but the extracted d_1 gains y1 -> 3 y1^2 and maps
        # g to 108 y2 y3 g + 9 y1^4, outside (g)
        doc = json.loads(write_certificate(self._fermat_cert().document))
        _coefficient(doc, [2, 0, 0])["value"] += " + 3*y1^2"
        _coefficient(doc, [1, 0, 0])["value"] += " - 3*y1"
        failures = certificate_failures(WitnessCertificate(doc))
        assert "extracted derivation 1 does not scale g by the recorded factor" in failures
        assert "lifted operator does not annihilate the transformed polynomial" not in failures
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

    def test_tampered_normal_form(self):
        # the recorded lambda(d1(y1)) replaces the recorded normal form
        cert = self._fermat_cert()
        doc = json.loads(write_certificate(cert.document))
        doc["membership_tests"]["obstruction"]["value"] = "1"
        assert not verify_certificate(WitnessCertificate(doc))

    def test_long_power_refused(self, tmp_path):
        # (y1 + y2)^100000 would expand to 100001 terms of up to 30103
        # digits; the parser refuses it at the exponent instead
        doc = json.loads(write_certificate(self._fermat_cert().document))
        _coefficient(doc, [2, 0, 0])["value"] = "(y1 + y2)^100000"
        assert _cli_verify(doc, tmp_path) == 4
        failures = certificate_failures(WitnessCertificate(doc))
        assert any("does not replay" in f and "too large to expand" in f for f in failures)

    def test_number_power_refused(self, tmp_path):
        # 2^10000000000 would be a 10^10-bit integer; the parser refuses it
        doc = json.loads(write_certificate(self._fermat_cert().document))
        _coefficient(doc, [2, 0, 0])["value"] = "2^10000000000*y1"
        assert _cli_verify(doc, tmp_path) == 4
        failures = certificate_failures(WitnessCertificate(doc))
        assert any("does not replay" in f and "too large" in f for f in failures)

    def test_tampered_input_basis_fails_fast(self, tmp_path):
        # the recorded Milnor number is checked against prod(D / W_i - 1), not
        # by walking the standard monomials of the (here forged) pure powers
        doc = json.loads(write_certificate(self._fermat_cert().document))
        for record, name in zip(doc["membership_tests"]["isolation"]["pure_powers"], V3):
            record["polynomial"] = f"{name}^300"
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
        corrupt("transformed polynomial", lambda d: d["change_of_coordinates"].__setitem__(
            "transformed_polynomial",
            d["change_of_coordinates"]["transformed_polynomial"] + " + y1"))
        corrupt("operator diagonal coefficient", lambda d: _coefficient(d, [2, 0, 0]).__setitem__(
            "value", "0"))
        corrupt("operator mixed coefficient", lambda d: _coefficient(d, [1, 1, 0]).__setitem__(
            "value", _coefficient(d, [1, 1, 0])["value"] + " + y2"))
        corrupt("operator first-order coefficient", lambda d: _coefficient(d, [1, 0, 0]).__setitem__(
            "value", "1"))
        corrupt("operator index", lambda d: _coefficient(d, [0, 2, 0]).__setitem__("index", [0, 1, 1]))
        corrupt("operator coefficient", lambda d: d["lifted_operator"]["coefficients"].__setitem__(
            0, {"index": [1, 0, 0], "value": "y1^2"}))
        corrupt("operator scale", lambda d: d["lifted_operator"]["scales_f_by"].__setitem__(0, "y1"))
        corrupt("operator scale count", lambda d: d["lifted_operator"]["scales_f_by"].pop())
        corrupt("pure power element", lambda d: d["membership_tests"]["isolation"]
                ["pure_powers"][0].__setitem__("polynomial", "x^2 + y^2"))
        corrupt("pure power cofactor", lambda d: d["membership_tests"]["isolation"]
                ["pure_powers"][0]["cofactors"].__setitem__(0, "y"))
        corrupt("pure power variable", lambda d: d["membership_tests"]["isolation"]
                ["pure_powers"].reverse())
        corrupt("obstruction membership flag", lambda d: d["membership_tests"]["obstruction"]
                .__setitem__("member", True))
        corrupt("obstruction witness", lambda d: d["membership_tests"]["obstruction"]
                .__setitem__("witness", "y1^3"))
        corrupt("obstruction value", lambda d: d["membership_tests"]["obstruction"]
                .__setitem__("value", "-" + d["membership_tests"]["obstruction"]["value"]))


class TestDualFunctional:
    """Tampering with lambda, the dual vector that certifies d1(y1) outside
    S = (y1, g_2, ..., g_n)^2 + (g); every forgery must make verify exit 4."""

    @staticmethod
    def _doc(text=PAPER_F):
        return json.loads(write_certificate(build_witness(P(text), V3).document))

    def test_zeroed_entry(self, tmp_path):
        for k in range(len(self._doc()["membership_tests"]["obstruction"]["functional"])):
            doc = self._doc()
            doc["membership_tests"]["obstruction"]["functional"][k]["value"] = "0"
            assert _cli_verify(doc, tmp_path) == 4, k

    def test_flipped_entry(self, tmp_path):
        for k in range(len(self._doc()["membership_tests"]["obstruction"]["functional"])):
            doc = self._doc()
            entry = doc["membership_tests"]["obstruction"]["functional"][k]
            entry["value"] = format_fraction(-Fraction(entry["value"]))
            assert _cli_verify(doc, tmp_path) == 4, k

    def test_wrong_degree(self, tmp_path):
        doc = self._doc()
        obstruction = doc["membership_tests"]["obstruction"]
        obstruction["degree"] += 1
        assert _cli_verify(doc, tmp_path) == 4
        assert any("recorded degree" in f for f in certificate_failures(WitnessCertificate(doc)))
        # a forged degree with monomials to match is refused before anything
        # is enumerated, however large it is
        obstruction["degree"] = 10**9
        obstruction["functional"] = [{"monomial": [10**9, 0, 0], "value": "1"}]
        start = time.perf_counter()
        assert _cli_verify(doc, tmp_path) == 4
        assert time.perf_counter() - start < 5

    def test_forged_high_degree_witness_is_fast(self, tmp_path):
        # d1(y1) forged to y1^1000000 with a functional to match: the check
        # tries only shifts into the functional's support, never the
        # monomials of degree 10^6
        doc = self._doc(FERMAT)
        _coefficient(doc, [2, 0, 0])["value"] = "y1^1000000"
        doc["membership_tests"]["obstruction"].update({
            "witness": "y1^1000000", "degree": 1000000, "value": "1",
            "functional": [{"monomial": [1000000, 0, 0], "value": "1"}],
        })
        start = time.perf_counter()
        failures = certificate_failures(WitnessCertificate(doc))
        assert time.perf_counter() - start < 5
        assert any("does not vanish on monomial [999998, 0, 0] times generator 0" in f for f in failures)
        assert _cli_verify(doc, tmp_path) == 4

    @pytest.mark.parametrize("monomial", [[1, 1], [1, 1, 1, 0], [-1, 2, 2], [1, 1, 2], [1.0, 1, 1], [True, 1, 1], "y1^3"])
    def test_malformed_monomial(self, monomial, tmp_path):
        doc = self._doc()
        doc["membership_tests"]["obstruction"]["functional"][0]["monomial"] = monomial
        assert _cli_verify(doc, tmp_path) == 4
        # the same monomial in a rejection's functional, moved to degree 5
        # (where y^5 is a sound functional) so that [1, 1, 2] is malformed too
        doc = json.loads(write_certificate(build_witness(P("x^2*y"), V3).document))
        doc["membership_tests"]["positive_dimension"]["input_jacobian"] = {
            "degree": 5, "functional": [{"monomial": [0, 5, 0], "value": "1"}],
        }
        assert verify_certificate(WitnessCertificate(doc))
        doc["membership_tests"]["positive_dimension"]["input_jacobian"]["functional"][0]["monomial"] = monomial
        assert _cli_verify(doc, tmp_path) == 4
        assert any("functional monomial" in f for f in certificate_failures(WitnessCertificate(doc)))

    def test_kills_modified_ideal_but_not_g(self, tmp_path):
        # cyclic-cubic: d1(y1) lies in (y1^2, g_2, g_3) + (g) but not in
        # (y1^2, g_2, g_3).  A functional read off the modified ideal's basis
        # kills (y1^2, g_2, g_3), which contains the square ideal, and not
        # d1(y1), so it must fail to kill some multiple of g.
        doc = self._doc()
        yvars = doc["change_of_coordinates"]["new_variables"]
        g = parse_poly(doc["change_of_coordinates"]["transformed_polynomial"], yvars)
        obstruction = doc["membership_tests"]["obstruction"]
        witness = parse_poly(obstruction["witness"], yvars)
        gb = buchberger(modified_jacobian_ideal(g, 1))
        nf = gb.normal_form(witness)
        mu = max(nf.terms, key=gb.order.key)
        forged = dual_functional(gb, mu, monomials_of_degree(3, obstruction["degree"]))
        obstruction["functional"] = [{"monomial": list(m), "value": format_fraction(c)} for m, c in forged.items()]
        obstruction["value"] = format_fraction(nf.coefficient(mu))
        assert _cli_verify(doc, tmp_path) == 4
        failures = certificate_failures(WitnessCertificate(doc))
        assert failures and all("generator 6" in f for f in failures), failures


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
        # so no nonzero functional above 3 kills (3x^2, 3y^2, 3z^2)
        doc = self._doc(FERMAT)
        doc["verdict"] = INPUT_REJECTED
        doc["input"]["rejection"] = {"reason": "not_isolated", "message": "forged"}
        doc["membership_tests"]["positive_dimension"] = {}
        assert self._forge(doc, 4, {(4, 0, 0): "1"}) == [
            "input_jacobian: the functional does not vanish on monomial [2, 0, 0] times generator 0"
        ]
        assert _cli_verify(doc, tmp_path) == 4

    def test_slice_record_missing(self, tmp_path):
        doc = self._doc("x^3 + x*y^3 + z^2")
        record = doc["membership_tests"]["positive_dimension"].pop("slice_jacobian")
        assert record == {"degree": 12, "functional": [{"monomial": [3, 0], "value": "1"}]}
        assert certificate_failures(WitnessCertificate(doc)) == [
            "rejection without the positive-dimension record 'slice_jacobian'"
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
        rng = random.Random(20)
        f = Polynomial(4, {
            e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for e in monomials_of_degree(4, 3) if e[0] < 2
        })
        gb = buchberger(jacobian_ideal(f), track_cofactors=False)
        assert not gb.is_zero_dimensional()
        names = ["x", "y", "z", "w"]
        record = build_witness(f, names).document["membership_tests"]["positive_dimension"]["input_jacobian"]
        assert record["degree"] == 5
        self._check(gb, 5)

    def test_cyclic_cubic_obstruction(self):
        g, witness, doc = TestObstructionModuloF._witness("cyclic-cubic")
        gb = buchberger(obstruction_ideal(g), track_cofactors=False)
        self._check(gb, doc["membership_tests"]["obstruction"]["degree"])


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
        # recorded restriction basis is genuine but cannot justify the claim
        f = P("x^3 + x*y^2 + z^4")
        doc = json.loads(write_certificate(build_witness(P("x^3 + x*y^3 + z^2"), V3).document))
        doc["input"]["polynomial"] = format_poly(f, V3)
        gb = buchberger(jacobian_ideal(restrict_to_hyperplane(f)))
        doc["membership_tests"]["positive_dimension"]["slice_jacobian"] = _positive_dimension_record(gb, (4, 3), 12)
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
        assert "recorded weights are not the unique weights of the input" in \
            certificate_failures(WitnessCertificate(doc))

    def test_forged_slice_mixing_weights(self, tmp_path):
        # y1 = x + y mixes weights 6 and 4; every slice-derived field is
        # rewritten to match, so the weight check is what must catch it
        f = P("x^2 + y^3 + z^4")
        doc = json.loads(write_certificate(build_witness(f, V3).document))
        coeffs = (Fraction(1), Fraction(1), Fraction(0))
        change = slice_change(coeffs, 3)
        g = change.apply(f)
        yvars = doc["change_of_coordinates"]["new_variables"]
        doc["change_of_coordinates"].update({
            "slice_coefficients": [format_fraction(c) for c in coeffs],
            "transformed_polynomial": format_poly(g, yvars),
        })
        assert _cli_verify(doc, tmp_path) == 4
        assert "slice mixes variables of different weight" in certificate_failures(WitnessCertificate(doc))


class TestObstructionModuloF:
    """Operators on A = Q[y]/(g) are defined modulo (g), so the composition
    argument needs the witness d1(y1) outside (y1, g_2, .., g_n)^2 + (g).
    The certificate's functional proves that; these tests check the same
    fact by Groebner membership on the built-in corpus, and pin the
    cyclic-cubic case where a test without (g) would say nothing in A."""

    @staticmethod
    def _witness(name):
        text, variables = next((t, v) for n, t, v, _ in BUILTIN_CORPUS if n == name)
        doc = build_witness(parse_poly(text, variables), variables).document
        yvars = doc["change_of_coordinates"]["new_variables"]
        g = parse_poly(doc["change_of_coordinates"]["transformed_polynomial"], yvars)
        return g, parse_poly(doc["membership_tests"]["obstruction"]["witness"], yvars), doc

    @pytest.mark.parametrize("name", [
        "fermat-cubic", "fermat-quartic", "cyclic-cubic", "brieskorn-2-3-4", "brieskorn-3-3-4",
    ])
    def test_witness_outside_square_ideal_modulo_f(self, name):
        g, witness, _ = self._witness(name)
        square_mod_g = Ideal(square_obstruction_ideal(g, 1).generators + (g,))
        assert not buchberger(square_mod_g).contains(witness)

    def test_cyclic_cubic_modified_ideal_gap(self):
        g, witness, _ = self._witness("cyclic-cubic")
        modified = modified_jacobian_ideal(g, 1)
        assert not buchberger(modified).contains(g)
        assert buchberger(Ideal(modified.generators + (g,))).contains(witness)

    def test_cyclic_cubic_functional_kills_multiples_of_g(self):
        # the recorded lambda vanishes on g * m for every monomial m of the
        # complementary weighted degree: the part a test without (g) misses
        g, witness, doc = self._witness("cyclic-cubic")
        obstruction = doc["membership_tests"]["obstruction"]
        functional = {tuple(e["monomial"]): Fraction(e["value"]) for e in obstruction["functional"]}
        delta = obstruction["degree"]
        assert delta == witness.homogeneous_degree() == 3 == g.homogeneous_degree()
        for m in monomials_of_degree(3, delta - 3):
            product = g.mul_monomial(m)
            assert sum(c * functional.get(e, 0) for e, c in product.terms.items()) == 0
        value = sum(c * functional.get(e, 0) for e, c in witness.terms.items())
        assert value != 0 and format_fraction(value) == obstruction["value"]
        assert obstruction_ideal(g).generators[-1] == g
