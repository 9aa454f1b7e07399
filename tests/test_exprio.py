import ast
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import nakai_forge.exprio as exprio
from nakai_forge.exprio import (
    CertificateError,
    ParseError,
    format_poly,
    parse_poly,
    read_certificate,
    write_certificate,
)
from nakai_forge.poly import Polynomial

V3 = ["x", "y", "z"]


class TestParse:
    def test_paper_polynomial(self):
        f = parse_poly("x^2*y + y^2*z + z^2*x", V3)
        assert f.terms == {
            (2, 1, 0): 1,
            (0, 2, 1): 1,
            (1, 0, 2): 1,
        }

    def test_zero(self):
        assert parse_poly("0", V3).is_zero()

    def test_binomial_cube(self):
        # (x+y)^3 expands with coefficients 1, 3, 3, 1
        expected = Polynomial(2, {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1})
        assert parse_poly("(x + y)^3", ["x", "y"]) == expected

    def test_rational_literals(self):
        p = parse_poly("1/2*x - 3/4", ["x"])
        from fractions import Fraction

        assert p.terms == {(1,): Fraction(1, 2), (0,): Fraction(-3, 4)}

    def test_leading_minus(self):
        assert parse_poly("-x + y", ["x", "y"]) == parse_poly("y - x", ["x", "y"])

    def test_indexed_and_named_variables(self):
        p = parse_poly("x1*x2^2", ["x1", "x2"])
        assert p.terms == {(1, 2): 1}

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_poly("x + t", V3)

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_poly("x^-2", V3)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError, match="missing '\\*'"):
            parse_poly("2 x", V3)
        with pytest.raises(ParseError, match="missing '\\*'"):
            parse_poly("x y", V3)
        with pytest.raises(ParseError, match="missing '\\*'"):
            parse_poly("2(x + y)", V3)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x + * y", V3)
        assert info.value.position == 4

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("x + y)", V3)

    def test_unclosed_parenthesis(self):
        with pytest.raises(ParseError):
            parse_poly("(x + y", V3)

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x^1/2", V3)

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError):
            parse_poly("x", ["x", "x"])

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_poly("", V3)
        with pytest.raises(ParseError):
            parse_poly("   ", V3)


class TestPowerCap:
    def test_long_power_of_a_sum_refused_quickly(self):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="too large to expand") as info:
            parse_poly("(x + y)^100000", ["x", "y"])
        assert info.value.position == 8
        assert time.perf_counter() - start < 5

    def test_cap_counts_terms_times_exponent(self):
        # (x + y)^706 has 707 terms: 707 * 706 = 499142 stays under the
        # 500000 cap, 708 * 707 = 500556 for the 707th power does not
        assert len(parse_poly("(x + y)^706", ["x", "y"])) == 707
        with pytest.raises(ParseError, match="too large to expand"):
            parse_poly("(x + y)^707", ["x", "y"])

    def test_small_powers_and_monomial_powers_parse(self):
        assert parse_poly("(x + y)^3", ["x", "y"]) == parse_poly("x^3 + 3*x^2*y + 3*x*y^2 + y^3", ["x", "y"])
        assert parse_poly("x^100000", ["x"]).terms == {(100000,): 1}
        assert parse_poly("(2*x)^100000", ["x"]).terms == {(100000,): 2**100000}


class TestTermSizeBound:
    @pytest.mark.parametrize("text, position", [
        ("2^10000000000", 2),
        ("3*x*(2*y)^10000000000", 10),
        ("*".join(["(x + y)^700"] * 40), 20),
        ("*".join(["2^400000"] * 40), 11),
    ])
    def test_refused_quickly_at_the_offending_token(self, text, position):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="term too large") as info:
            parse_poly(text, ["x", "y"])
        assert info.value.position == position
        assert time.perf_counter() - start < 5

    def test_products_within_the_bound_parse(self):
        assert parse_poly("(x + y)^30*(x + y)^30", ["x", "y"]) == parse_poly("(x + y)^60", ["x", "y"])
        assert parse_poly("(x + y + z)^10*(x - y + z)^10", V3) == parse_poly("((x + z)^2 - y^2)^10", V3)
        assert parse_poly("2^400000*x", ["x"]).terms == {(1,): 2**400000}

    def test_exponent_past_the_digit_limit(self):
        with pytest.raises(ParseError, match="too many digits") as info:
            parse_poly("x^" + "1" * 4301, ["x"])
        assert info.value.position == 2
        assert parse_poly("x^" + "1" * 4300, ["x"]).terms == {(int("1" * 4300),): 1}


def _long_coefficient_poly() -> Polynomial:
    """A 5000-digit numerator over a 4401-digit denominator, and more."""
    return Polynomial(2, {
        (2, 1): Fraction(-(7 * 10**4999 + 3), 3 * 10**4400 + 1),
        (0, 3): Fraction(1, 10**4500 + 7),
        (1, 0): Fraction(5),
    })


class TestFormat:
    def test_zero(self):
        assert format_poly(Polynomial.zero(3), V3) == "0"

    def test_lex_ordering_and_signs(self):
        p = parse_poly("x^2 - y", ["x", "y"])
        assert format_poly(p, ["x", "y"]) == "x^2 - y"

    def test_unit_coefficients_hidden(self):
        p = parse_poly("x - y + 1", ["x", "y"])
        assert format_poly(p, ["x", "y"]) == "x - y + 1"

    def test_rational_coefficients(self):
        p = parse_poly("5/3*x^2 - 1/2", ["x"])
        assert format_poly(p, ["x"]) == "5/3*x^2 - 1/2"

    def test_leading_negative(self):
        p = parse_poly("-x^2 - y", ["x", "y"])
        assert format_poly(p, ["x", "y"]) == "-x^2 - y"

    def test_round_trip_random(self):
        rng = random.Random(37)
        from conftest import random_polynomial

        names = ["x1", "x2", "x3", "x4"]
        for _ in range(60):
            n = rng.randint(1, 4)
            p = random_polynomial(rng, n, 4)
            assert parse_poly(format_poly(p, names[:n]), names[:n]) == p

    def test_round_trip_past_int_str_limit(self):
        # Python refuses int <-> str conversions past 4300 digits by default
        p = _long_coefficient_poly()
        text = format_poly(p, ["x", "y"])
        assert "-7" + "0" * 4998 + "3/3" + "0" * 4399 + "1*x^2*y" in text
        assert parse_poly(text, ["x", "y"]) == p


class TestCertificateIO:
    def _document(self):
        return {
            "schema": {"name": "nakai-witness-certificate", "version": 7},
            "input": {"polynomial": "x^3 + y^3 + z^3", "variables": V3},
            "change_of_coordinates": None,
            "lifted_operator": None,
            "membership_tests": {},
            "verdict": "INPUT_REJECTED",
        }

    def test_round_trip(self):
        doc = self._document()
        assert read_certificate(write_certificate(doc)) == doc

    def test_write_idempotent(self):
        doc = self._document()
        payload = write_certificate(doc)
        assert write_certificate(read_certificate(payload)) == payload

    def test_unknown_version(self):
        doc = self._document()
        doc["schema"]["version"] = 99
        with pytest.raises(CertificateError, match="version"):
            write_certificate(doc)
        good = self._document()
        # schema 2 (rejections replayed from a basis), schema 3 (with the
        # candidate, the ledger and the symmetric tuple), schema 4 (the
        # obstruction as a dual vector on S), schema 5 (isolation rows over
        # Q) and schema 6 (g and the new variable names recorded, isolated
        # true unbacked outside a witness) are no longer read
        for old in (b'"version": 2', b'"version": 3', b'"version": 4', b'"version": 5', b'"version": 6'):
            payload = write_certificate(good).replace(b'"version": 7', old)
            with pytest.raises(CertificateError, match="version"):
                read_certificate(payload)

    @pytest.mark.parametrize("version", ["7.0", "true", '"7"'])
    def test_version_must_be_an_integer(self, version):
        # 7.0 == 7 in Python, but the schema version is an integer
        payload = write_certificate(self._document()).replace(b'"version": 7', f'"version": {version}'.encode())
        with pytest.raises(CertificateError, match="version"):
            read_certificate(payload)

    def test_long_coefficients_round_trip(self):
        doc = self._document()
        doc["input"]["polynomial"] = format_poly(_long_coefficient_poly(), ["x", "y"])
        back = read_certificate(write_certificate(doc))
        assert back == doc
        assert parse_poly(back["input"]["polynomial"], ["x", "y"]) == _long_coefficient_poly()

    def test_missing_key(self):
        doc = self._document()
        del doc["verdict"]
        with pytest.raises(CertificateError, match="missing"):
            write_certificate(doc)

    def test_not_json(self):
        with pytest.raises(CertificateError):
            read_certificate(b"not a certificate")

    def test_wrong_schema_name(self):
        doc = self._document()
        doc["schema"]["name"] = "something-else"
        with pytest.raises(CertificateError, match="schema"):
            write_certificate(doc)


def test_parser_does_not_import_the_groebner_engine():
    # the verifier reads every certificate through this parser, so the parser
    # must not pull in the basis engine that only the builder needs
    tree = ast.parse(Path(exprio.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    assert not [name for name in imported if "groebner" in name.split(".")]
