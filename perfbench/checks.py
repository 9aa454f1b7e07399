"""Correctness gate and certificate size counters for the benchmark.

Everything here reads what the program returned (documents, certificate
bytes, Groebner bases); nothing reaches inside the program.
"""

from __future__ import annotations

import json
import re

WITNESS_FOUND = "WITNESS_FOUND"

_DIGIT_RUN = re.compile(rb"\d+")

# Certificate sections reported by size; a basis is reported under its key
# in membership_tests.groebner_bases.
SECTIONS = (
    "input",
    "change_of_coordinates",
    "candidate_tuple",
    "adjustments",
    "symmetric_tuple",
    "lifted_operator",
    "tests",
)
BASES = ("input_jacobian", "slice_jacobian", "jacobian", "modified_jacobian_1", "square_1")
SECTION_NAMES = SECTIONS + tuple(f"groebner_bases.{name}" for name in BASES)


def case_problems(case: dict, document: dict, failures: list[str]) -> list[str]:
    """Everything wrong with one built-and-verified input, empty when sound.

    ``case`` carries the verdict the mathematics fixes (and the rejection
    reason, or the Milnor number (d-1)^n of an isolated form).
    """
    problems = [f"verifier: {f}" for f in failures]
    verdict = document.get("verdict")
    if verdict != case["verdict"]:
        problems.append(f"verdict {verdict}, expected {case['verdict']}")
    info = document.get("input", {})
    if case.get("reason") is not None:
        reason = info.get("rejection", {}).get("reason")
        if reason != case["reason"]:
            problems.append(f"rejection reason {reason!r}, expected {case['reason']!r}")
    if case.get("milnor") is not None and info.get("milnor_number") != case["milnor"]:
        problems.append(f"Milnor number {info.get('milnor_number')}, expected {case['milnor']}")
    return problems


def coeff_digits_max(data: bytes) -> int:
    """Most decimal digits of any integer written in the certificate.

    Numerators and denominators are separate digit runs; exponents and
    indices are short and never set the maximum of a real certificate.
    """
    return max((len(run) for run in _DIGIT_RUN.findall(data)), default=0)


def _dumped_size(value) -> int:
    return len(json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False).encode("utf-8"))


def section_bytes(document: dict) -> dict[str, int]:
    """Bytes of each certificate section serialised alone, with the
    certificate's own JSON settings; absent sections count 0."""
    out = {name: _dumped_size(document[name]) if document.get(name) else 0 for name in SECTIONS[:-1]}
    tests = document.get("membership_tests", {})
    out["tests"] = _dumped_size(tests.get("tests", []))
    bases = tests.get("groebner_bases", {})
    for name in BASES:
        out[f"groebner_bases.{name}"] = _dumped_size(bases[name]) if name in bases else 0
    return out


def decimal_digits(n: int) -> int:
    """Decimal digits of |n| without str(), which refuses very long ints."""
    n = abs(n)
    if n < 10:
        return 1
    digits = int((n.bit_length() - 1) * 0.30102999566398120) + 1
    return digits + 1 if n >= 10 ** digits else digits


def poly_digits(polys) -> int:
    """Most decimal digits of any numerator or denominator in the polynomials."""
    top = 0
    for p in polys:
        for c in p.terms.values():
            top = max(top, decimal_digits(c.numerator), decimal_digits(c.denominator))
    return top
