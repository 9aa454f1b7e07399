"""Polynomial expression parsing/printing and certificate document IO.

There are two readers of polynomial text.  ``parse_poly`` reads the
general grammar (recursive descent, explicit ``*`` required between
factors, no implicit multiplication):

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := rational | ident | '(' expr ')'
    rational := digits ('/' digits)?

It reads what a user writes: CLI input.  ``read_poly`` reads, in one
pass, only the canonical text that ``format_poly`` writes, and refuses any
other text; the verifier reads every polynomial of a certificate with it
(``input.polynomial``, the lifted operator's coefficients, its
``scales_f_by`` and every isolation row), and no certificate text reaches
``parse_poly``.  Both readers take the variable names as a sequence of
distinct strings, each an identifier of the grammar, and refuse anything
else.

Certificates are JSON documents with a fixed top-level key set; every
rational inside is a decimal-free "num/den" string and every polynomial
an expression string, so documents round-trip exactly, with coefficients
of any length.  Expressions are untrusted input: a power of a sum too
large to expand is refused at its exponent, and so is any term whose
size, its term count times the bits of its coefficients, would exceed
DEFAULT_MAX_TERMS (a number or a monomial raised to a huge power, a long
product of powers).  Canonical text has no power of a number or a sum,
so its size is that of the text, and both readers cap an exponent at 4300
digits.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from fractions import Fraction
from math import log2
from typing import NamedTuple, Sequence

from .poly import DEFAULT_MAX_TERMS, GREVLEX, Exponent, Polynomial, _canonical


class ParseError(ValueError):
    """Syntax or validation error in a polynomial expression, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Token(NamedTuple):
    kind: str  # NUMBER | IDENT | OP | END
    text: str
    pos: int


# \s, \w and \d match exactly str.isspace, str.isalnum-or-underscore and
# str.isdecimal.  [^\W\d] also admits numeric characters that are not
# letters (such as '½' or '²'); _tokenize rejects those as unexpected, so
# an identifier is an _IDENT that starts with a letter or '_'.
_IDENT = re.compile(r"[^\W\d]\w*")
_TOKEN = re.compile(rf"\s*(?:(?P<NUMBER>\d+(?:/\d*)?)|(?P<IDENT>{_IDENT.pattern})|(?P<OP>[-+*^()])|(?P<BAD>\S))")


def _tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        value = m.group(kind)
        if kind == "NUMBER" and value[-1] == "/":
            raise ParseError("expected digits after '/' in rational literal", m.end())
        if kind == "BAD" or (kind == "IDENT" and not (value[0].isalpha() or value[0] == "_")):
            raise ParseError(f"unexpected character {value[0]!r}", start)
        tokens.append(Token(kind, value, start))
    tokens.append(Token("END", "", len(text)))
    return tokens


def _decimal_to_int(digits: str) -> int:
    """int(digits) for a decimal digit string of any length.

    Python refuses str -> int conversions longer than
    sys.get_int_max_str_digits() (4300 digits by default); a longer string
    is converted in halves instead of changing that process-wide limit.
    """
    try:
        return int(digits)
    except ValueError:
        if len(digits) <= sys.int_info.str_digits_check_threshold:
            raise  # not a length problem: the limit never applies this short
        half = len(digits) // 2
        return _decimal_to_int(digits[:-half]) * 10**half + _decimal_to_int(digits[-half:])


def _int_to_decimal(v: int) -> str:
    """str(v) for an int of any size, converted in halves past the limit."""
    try:
        return str(v)
    except ValueError:
        if v < 0:
            return "-" + _int_to_decimal(-v)
        half = int(v.bit_length() * 0.30103) // 2  # below the digit count of v
        high, low = divmod(v, 10**half)
        return _int_to_decimal(high) + _int_to_decimal(low).zfill(half)


def _rational(tok: Token) -> Fraction:
    num, _, den = tok.text.partition("/")
    if not den:
        return Fraction(_decimal_to_int(num))
    d = _decimal_to_int(den)
    if not d:
        raise ParseError("zero denominator in rational literal", tok.pos)
    return Fraction(_decimal_to_int(num), d)


def _power_too_large(terms: int, k: int) -> bool:
    """Whether the k-th power of a base with ``terms`` terms is too big to expand.

    The power has at most comb(k + terms - 1, terms - 1) terms, and its
    coefficients grow linearly in k (up to k * log10(terms) digits for unit
    coefficients), so that bound times k measures its size.  True when the
    product exceeds DEFAULT_MAX_TERMS; the running product stops at the
    first partial value past the cap, so a huge k costs nothing.
    """
    if terms < 2 or k < 2:
        return False
    size = k
    for i in range(1, terms):
        size = size * (k + i) // i  # k * comb(k + i, i)
        if size > DEFAULT_MAX_TERMS:
            return True
    return False


def _bits(c: Fraction | int) -> float:
    return log2(abs(c.numerator) or 1) + log2(c.denominator)


def _height(p: Polynomial) -> float:
    return max(map(_bits, p.terms.values()), default=0.0)


class _Parser:
    def __init__(self, tokens: list[Token], variables: Sequence[str], n: int):
        self.tokens = tokens
        self.pos = 0
        self.var_index = {name: i for i, name in enumerate(variables)}
        self.n = n

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def check_size(self, terms: int, bits: float) -> None:
        """Refuse, at the last token read, a term that would have ``terms``
        terms with coefficients of ``bits`` bits: its size is at most
        DEFAULT_MAX_TERMS, counting a term of coefficient 1 as 1."""
        if terms * (1 + bits) > DEFAULT_MAX_TERMS:
            raise ParseError("term too large to expand", self.tokens[self.pos - 1].pos)

    def parse_expr(self) -> Polynomial:
        """Sum the terms into one map in place; zeros are dropped, and each
        coefficient is put in canonical form, at the end."""
        out: dict[Exponent, Fraction | int] = {}
        tok = self.peek()
        negate = False
        if tok.kind == "OP" and tok.text in "+-":
            self.advance()
            negate = tok.text == "-"
        while True:
            for exp, c in self.parse_term().items():
                if negate:
                    c = -c
                old = out.get(exp)
                out[exp] = c if old is None else old + c
            tok = self.peek()
            if tok.kind != "OP" or tok.text not in "+-":
                return Polynomial._raw(self.n, {e: _canonical(c) for e, c in out.items() if c})
            self.advance()
            negate = tok.text == "-"

    def parse_term(self) -> dict[Exponent, Fraction]:
        """The terms of one product of factors.

        Numbers and variable powers fold straight into one coefficient and
        one exponent; only parenthesised factors are multiplied as
        polynomials.  Each factor's size is bounded (check_size) before it
        is computed: the bits of the coefficients add up, and the term
        count multiplies, so the bound also caps the work of each product.
        """
        coeff = None  # None stands for 1
        exp = [0] * self.n
        product = None  # the product of the parenthesised factors
        terms, product_bits = 1, 0.0  # len(product) and its largest coefficient's bits
        while True:
            tok = self.advance()
            if tok.kind == "NUMBER":
                value = _rational(tok)
                k = self.parse_power(1)
                if k is not None or product is not None:  # else the term stays input-sized
                    bits = _bits(coeff or 1) + _bits(value) * (1 if k is None else k)
                    self.check_size(terms, bits + product_bits)
                if k is not None:
                    value = value**k
                coeff = value if coeff is None else coeff * value
            elif tok.kind == "IDENT":
                idx = self.var_index.get(tok.text)
                if idx is None:
                    raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
                k = self.parse_power(1)
                exp[idx] += 1 if k is None else k
            elif tok.kind == "OP" and tok.text == "(":
                inner = self.parse_expr()
                self.expect_op(")")
                k = self.parse_power(len(inner))
                if k is not None:
                    self.check_size(terms, _bits(coeff or 1) + product_bits + k * _height(inner))
                    inner = inner**k
                if product is not None:
                    # each product term sums at most min(len) pairs of terms
                    product_bits += log2(min(len(product), len(inner)) or 1)
                self.check_size(terms * len(inner), _bits(coeff or 1) + product_bits + _height(inner))
                product = inner if product is None else product * inner
                terms, product_bits = len(product), _height(product)
            else:
                raise ParseError(
                    f"expected a number, variable or '(', found {tok.text or 'end of input'!r}", tok.pos
                )
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "*":
                self.advance()
            elif tok.kind in ("NUMBER", "IDENT") or (tok.kind == "OP" and tok.text == "("):
                raise ParseError("missing '*' between factors", tok.pos)
            else:
                break
        if coeff is None:
            coeff = Fraction(1)
        if product is None:
            return {tuple(exp): coeff}
        return product.mul_monomial(exp, coeff).terms

    def parse_power(self, terms: int) -> int | None:
        """The exponent after '^', or None when no '^' follows the base.

        ``terms`` is the base's term count; a power that _power_too_large
        refuses raises ParseError at the exponent.
        """
        tok = self.peek()
        if tok.kind != "OP" or tok.text != "^":
            return None
        self.advance()
        exp_tok = self.peek()
        if exp_tok.kind == "OP" and exp_tok.text == "-":
            raise ParseError("negative exponent", exp_tok.pos)
        if exp_tok.kind != "NUMBER" or "/" in exp_tok.text:
            raise ParseError("exponent must be a non-negative integer", exp_tok.pos)
        self.advance()
        if len(exp_tok.text) > sys.int_info.default_max_str_digits:
            raise ParseError("exponent has too many digits", exp_tok.pos)
        k = int(exp_tok.text)
        if _power_too_large(terms, k):
            raise ParseError(f"power {k} of a {terms}-term base is too large to expand", exp_tok.pos)
        return k


def _names(variables: Sequence[str]) -> list[str]:
    """The variable names as a list; raises ValueError unless they are a
    sequence of distinct strings (a string is not: it would read as its
    characters), each one that _tokenize reads whole as one identifier, so
    that format_poly writes text both readers read back."""
    names = list(variables)
    if isinstance(variables, str) or not all(isinstance(v, str) for v in names):
        raise ValueError(f"variable names must be a sequence of strings, not {variables!r}")
    bad = [v for v in names if not (_IDENT.fullmatch(v) and (v[0].isalpha() or v[0] == "_"))]
    if bad:
        raise ValueError(f"variable names must be identifiers, not {bad[0]!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names}")
    return names


def parse_poly(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse an expression over the given ordered variable names; the
    coefficients come out canonical, as every Polynomial holds them (an int
    when integral: the ``poly`` docstring)."""
    names = _names(variables)
    parser = _Parser(_tokenize(text), names, len(names))
    result = parser.parse_expr()
    end = parser.peek()
    if end.kind != "END":
        raise ParseError(f"unexpected trailing input {end.text!r}", end.pos)
    return result


def read_poly(text: str, variables: Sequence[str]) -> Polynomial:
    """Read, in one pass, a polynomial written exactly as format_poly
    writes it over these variable names; any other text raises ParseError
    (a ValueError) at the term it fails in.

    The text is "0" or terms joined by " + " and " - ", the first one
    signed only when negative, in strictly descending grevlex order.  A
    term is a coefficient in lowest terms (digits, or digits/digits with a
    denominator above 1, no leading zero, not 0), omitted when it is 1 and
    the term is not a constant, then the variables in index order, each at
    most once, a power x^e with e >= 2 written without leading zeros and
    in at most 4300 digits (parse_poly's cap), all joined by "*".  A
    coefficient is read as an int when it has no denominator, else as a
    Fraction, which is canonical as the text is in lowest terms.
    """
    if not isinstance(text, str):
        raise ValueError(f"a polynomial must be a string, not a {type(text).__name__}")
    variables = _names(variables)
    n = len(variables)
    if text == "0":
        return Polynomial._raw(n, {})
    pieces = text.split(" ")
    if len(pieces) % 2 == 0:
        raise _not_canonical("a term must follow ' + ' or ' - '", len(text))
    index = {name: i for i, name in enumerate(variables)}
    terms: dict[Exponent, Fraction | int] = {}
    last_key = ()  # below every key
    start = 0
    for k in range(0, len(pieces), 2):
        body = pieces[k]
        if k == 0:
            negative = body[:1] == "-"
            body = body[negative:]
        else:
            start += len(pieces[k - 2]) + len(pieces[k - 1]) + 2
            if pieces[k - 1] not in ("+", "-"):
                raise _not_canonical("terms must be joined by ' + ' or ' - '", start)
            negative = pieces[k - 1] == "-"
        factors = body.split("*")
        first = factors[0]
        if first[:1].isdecimal():
            num, slash, den = first.partition("/")
            if not (_canonical_digits(num) and (not slash or _canonical_digits(den))):
                raise _not_canonical(f"{first[:40]!r} is not a nonzero coefficient in digits", start)
            if first == "1" and len(factors) > 1:
                raise _not_canonical("coefficient 1 written out", start)
            if slash:
                d = _decimal_to_int(den)
                coeff = Fraction(_decimal_to_int(num), d)
                if d == 1 or coeff.denominator != d:
                    raise _not_canonical(f"coefficient {first[:40]!r} is not in lowest terms", start)
            else:
                coeff = _decimal_to_int(num)
            del factors[0]
        elif body:
            coeff = 1
        else:
            raise _not_canonical("empty term", start)
        exp = [0] * n
        previous = -1
        for factor in factors:
            name, caret, power = factor.partition("^")
            i = index.get(name)
            if i is None:
                raise _not_canonical(f"unknown variable {name[:40]!r}", start)
            if i <= previous:
                raise _not_canonical("variables out of index order or repeated", start)
            previous = i
            if not caret:
                exp[i] = 1
            elif not _canonical_digits(power) or power == "1":
                raise _not_canonical("an exponent must be an integer of at least 2 without leading zeros", start)
            elif len(power) > sys.int_info.default_max_str_digits:
                raise _not_canonical("exponent has too many digits", start)
            else:
                exp[i] = _decimal_to_int(power)
        key = (-sum(exp), *reversed(exp))  # GREVLEX.descending_key
        if key <= last_key:
            raise _not_canonical("terms not in strictly descending grevlex order", start)
        last_key = key
        terms[tuple(exp)] = -coeff if negative else coeff
    return Polynomial._raw(n, terms)


def _not_canonical(reason: str, position: int) -> ParseError:
    return ParseError(f"not a canonical polynomial: {reason}", position)


def _canonical_digits(text: str) -> bool:
    """ASCII decimal digits without a leading zero (so not "0" either)."""
    return text.isascii() and text.isdecimal() and text[0] != "0"


def format_poly(p: Polynomial, variables: Sequence[str]) -> str:
    """Render p with terms in descending monomial order; parses back to p."""
    if len(variables) != p.n:
        raise ValueError(f"{len(variables)} names for {p.n} variables")
    if p.is_zero():
        return "0"
    pieces = []
    for exp, coeff in sorted(p.terms.items(), key=lambda t: GREVLEX.descending_key(t[0])):
        num, den = coeff.numerator, coeff.denominator
        negative = num < 0
        if negative:
            num = -num
        if num != 1 or den != 1 or not any(exp):
            factors = [_int_to_decimal(num) if den == 1 else f"{_int_to_decimal(num)}/{_int_to_decimal(den)}"]
        else:
            factors = []
        factors += [name if e == 1 else f"{name}^{e}" for name, e in zip(variables, exp) if e]
        mono = "*".join(factors)
        if not pieces:
            pieces.append(f"-{mono}" if negative else mono)
        else:
            pieces.append(f" - {mono}" if negative else f" + {mono}")
    return "".join(pieces)


def format_fraction(c: Fraction) -> str:
    c = Fraction(c)
    num = _int_to_decimal(c.numerator)
    return num if c.denominator == 1 else f"{num}/{_int_to_decimal(c.denominator)}"


_FRACTION = re.compile(r"-?\d+(?:/\d+)?")


def parse_fraction(text: str) -> Fraction:
    """A rational written as format_fraction writes it: ``-?digits(/digits)?``.

    Fraction(text) would also take floats and exponents such as ``1e999999999``
    (a 10^9-digit integer); certificates are untrusted, so only the plain
    form is read.
    """
    if not isinstance(text, str) or not _FRACTION.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    sign = -1 if text.startswith("-") else 1
    return sign * _rational(Token("NUMBER", text.lstrip("-"), 0))


# -- certificate documents ---------------------------------------------

SCHEMA_NAME = "nakai-witness-certificate"
SCHEMA_VERSION = 8

REQUIRED_KEYS = (
    "schema",
    "input",
    "change_of_coordinates",
    "lifted_operator",
    "membership_tests",
    "verdict",
)


class CertificateError(ValueError):
    """Malformed or version-incompatible certificate document."""


def write_certificate(document: dict) -> bytes:
    """Serialize a certificate document to canonical JSON bytes."""
    _validate_document(document)
    text = json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def _object_without_repeats(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key raises ValueError.  JSON
    leaves the meaning of a repeated name open (RFC 8259 section 4), and
    json.loads would keep its last value where another reader may keep the
    first, so a certificate with one could read as two documents."""
    document = dict(pairs)
    if len(document) < len(pairs):
        raise ValueError(f"repeated keys {sorted(k for k, c in Counter(k for k, _ in pairs).items() if c > 1)}")
    return document


def read_certificate(data: bytes) -> dict:
    """Parse and validate certificate bytes; raises CertificateError, also
    for an object that repeats a key."""
    try:
        document = json.loads(data.decode("utf-8"), object_pairs_hook=_object_without_repeats)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and an integer over Python's
        # digit limit for int(str)
        raise CertificateError(f"not a valid certificate document: {exc}") from exc
    if not isinstance(document, dict):
        raise CertificateError("certificate document must be a JSON object")
    _validate_document(document)
    return document


def _validate_document(document: dict) -> None:
    missing = [k for k in REQUIRED_KEYS if k not in document]
    if missing:
        raise CertificateError(f"certificate missing required keys: {missing}")
    schema = document["schema"]
    if not isinstance(schema, dict) or schema.get("name") != SCHEMA_NAME:
        raise CertificateError(f"unknown certificate schema: {schema!r}")
    if type(schema.get("version")) is not int or schema["version"] != SCHEMA_VERSION:
        raise CertificateError(
            f"unsupported schema version {schema.get('version')!r}; this build reads version {SCHEMA_VERSION}"
        )
