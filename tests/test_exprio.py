import ast
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

import nakai_forge.exprio as exprio
from nakai_forge.exprio import (
    SCHEMA_VERSION,
    CertificateError,
    ParseError,
    format_poly,
    parse_poly,
    read_certificate,
    read_poly,
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

    @pytest.mark.parametrize("read", [parse_poly, read_poly])
    @pytest.mark.parametrize("variables, message", [
        (["x", "x", "z"], "duplicate variable names"),  # x would read as its last index
        ("xyz", "variable names must be a sequence of strings"),  # a string reads as its characters
        (["x", 1, "z"], "variable names must be a sequence of strings"),
        # format_poly would write text that neither reader reads back
        (["x", "y", "z z"], "variable names must be identifiers"),
        (["x", "y", "z*w"], "variable names must be identifiers"),
        (["x", "y", "1"], "variable names must be identifiers"),
        (["x", "y", "z^2"], "variable names must be identifiers"),
        (["x", "y", ""], "variable names must be identifiers"),
        (["x", "y", " z"], "variable names must be identifiers"),
        (["x", "y", "½"], "variable names must be identifiers"),
    ], ids=["repeated", "string", "not a string", "space", "product", "number", "power", "empty", "padded",
            "numeric"])
    def test_both_readers_check_the_names(self, read, variables, message):
        with pytest.raises(ValueError, match=message):
            read("x^3 + z^3", variables)

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

    @pytest.mark.parametrize("text", [
        "-1",  # a lone constant keeps its unit coefficient
        "1",
        "-1/2*x*y^3 + 3*x^2 - y + 7/5",  # a leading negative fraction
        "y^5 - x^2*y + x*y^2 - x",  # unit coefficients beside exponents 1 and >= 2
        "-x^2*y - 1",
    ])
    def test_edge_texts(self, text):
        assert format_poly(parse_poly(text, ["x", "y"]), ["x", "y"]) == text

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


class TestCanonicalReader:
    """read_poly reads format_poly text, and only that."""

    _REFUSED = [
        ("out-of-order terms", "x + y^2", "descending grevlex order"),
        ("repeated monomial", "x^2 + x^2", "descending grevlex order"),
        ("zero coefficient", "x - 0*y", "'0' is not a nonzero coefficient"),
        ("coefficient 1", "1*x", "coefficient 1 written out"),
        ("not in lowest terms", "2/4*x", "not in lowest terms"),
        ("denominator 1", "3/1*x", "not in lowest terms"),
        ("power 1", "x^1", "exponent must be an integer of at least 2"),
        ("leading zero", "x^01", "exponent must be an integer of at least 2"),
        ("variables out of order", "y*x", "out of index order"),
        ("repeated variable", "x*x", "out of index order or repeated"),
        ("unknown name", "x + t", "unknown variable 't'"),
        ("double space", "x  + y", "' + ' or ' - '"),
        ("leading plus", "+x", "unknown variable '+x'"),
        ("empty string", "", "empty term"),
        ("parentheses", "(x + y)^2", "unknown variable '(x'"),
        ("number power", "2^3*x", "'2^3' is not a nonzero coefficient"),
        ("long exponent", "x^" + "1" * 4301, "exponent has too many digits"),
    ]

    @pytest.mark.parametrize("text, reason", [r[1:] for r in _REFUSED], ids=[r[0] for r in _REFUSED])
    def test_refuses_all_but_format_poly_text(self, text, reason):
        with pytest.raises(ParseError, match="not a canonical polynomial: .*" + re.escape(reason)):
            read_poly(text, V3)

    def test_accepts_only_what_format_poly_writes(self):
        # random strings of pieces of polynomial text: every one the reader
        # accepts is the format_poly text of what it reads, byte for byte
        rng = random.Random(33)
        pieces = ["x", "y", "z", "0", "1", "2", "9", "/", "*", "^", " ", "+", "-", " + ", " - ", "(", ")",
                  "x^2", "y^10", "2/3", "\u0663", "\u00b2", "xy"]
        accepted = 0
        for _ in range(20000):
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 10)))
            try:
                p = read_poly(text, V3)
            except ParseError:
                continue
            assert format_poly(p, V3) == text
            accepted += 1
        assert accepted > 500

    def test_round_trip_random(self):
        # rational coefficients of up to 40 digits, negative leading terms,
        # constants and exponents of two and three digits
        rng = random.Random(2027)
        names = ["x1", "x2", "x3", "x4"]
        texts = []
        for _ in range(300):
            n = rng.randint(1, 4)
            exponents = [tuple(rng.choice((0, 0, 1, 2, 3, 10, 12, 123)) for _ in range(n))
                         for _ in range(rng.randint(0, 8))]
            p = Polynomial(n, {e: Fraction(rng.randint(-10**rng.randint(0, 20), 10**rng.randint(0, 20)),
                                           rng.choice((1, 1, 2, 3, 10**20 + 39))) for e in exponents})
            text = format_poly(p, names[:n])
            read = read_poly(text, names[:n])
            assert read == p
            assert list(read.terms) == list(parse_poly(text, names[:n]).terms)
            texts.append(text)
        assert any(t.startswith("-") for t in texts) and any("/" in t for t in texts)
        assert any(re.search(r"\^1\d", t) for t in texts)
        assert any(re.search(r"(^|[-+] )-?\d+(/\d+)?$", t) for t in texts)  # a constant term
        p = _long_coefficient_poly()
        assert read_poly(format_poly(p, ["x", "y"]), ["x", "y"]) == p
        assert read_poly("0", V3).is_zero()
        assert read_poly("x^" + "1" * 4300, ["x"]).terms == {(int("1" * 4300),): 1}


class TestCertificateIO:
    def _document(self):
        return {
            "schema": {"name": "nakai-witness-certificate", "version": SCHEMA_VERSION},
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
        good = write_certificate(self._document())
        current = f'"version": {SCHEMA_VERSION}'.encode()
        assert current in good
        # no earlier schema is read: schema 2 (rejections replayed from a
        # basis), schema 3 (with the candidate, the ledger and the symmetric
        # tuple), schema 4 (the obstruction as a dual vector on S), schema 5
        # (isolation rows over Q), schema 6 (g and the new variable names
        # recorded, isolated true unbacked outside a witness) and schema 7
        # (the first-order coefficients of the operator recorded)
        for old in range(1, SCHEMA_VERSION):
            payload = good.replace(current, f'"version": {old}'.encode())
            with pytest.raises(CertificateError, match="version"):
                read_certificate(payload)

    @pytest.mark.parametrize("version", [f"{SCHEMA_VERSION}.0", "true", f'"{SCHEMA_VERSION}"'],
                             ids=["float", "true", "string"])
    def test_version_must_be_an_integer(self, version):
        # a float equals the int it stands for in Python, but the schema
        # version is an integer
        current = f'"version": {SCHEMA_VERSION}'.encode()
        payload = write_certificate(self._document()).replace(current, f'"version": {version}'.encode())
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

    def test_integer_over_the_digit_limit(self):
        # json refuses an integer of more than 4300 digits with a bare
        # ValueError; it is a document json refuses like any other
        with pytest.raises(CertificateError, match="not a valid certificate document"):
            read_certificate(b'{"attempts": 1' + b"0" * 5000 + b"}")

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
