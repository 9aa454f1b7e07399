"""Seeded input generators for the witness/verify benchmark.

Each workload is a list of ``Case`` records: a name, the input expression
string, its variable names and the verdict the mathematics fixes for it.
Only the strings reach the program under test; the generators run in the
benchmark's parent process.

At ``DEFAULT_SEED`` the corpus workloads reproduce the acceptance corpus of
``tests/test_acceptance.py`` (``NAMED_CORPUS`` plus ``_random_corpus()``)
string for string, because they replay the same draws from the same
``random.Random`` stream.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

from nakai_forge.exprio import format_poly, parse_poly
from nakai_forge.groebner import is_isolated_singularity
from nakai_forge.poly import Polynomial, monomials_of_degree

DEFAULT_SEED = 60606
# sha256 over "name\ttext\tvariables\n" of NAMED_CORPUS + _random_corpus() in
# tests/test_acceptance.py; perfbench/tests checks it against that module.
ACCEPTANCE_DIGEST = "e8adef48f2819f485247b6a47e9a1e0500ede31d0c641f0e76b11bc3e121260e"
WITNESS_FOUND = "WITNESS_FOUND"
INPUT_REJECTED = "INPUT_REJECTED"

V4 = ["x", "y", "z", "w"]

NAMED_CORPUS = [
    ("fermat-cubic", "x^3 + y^3 + z^3", V4[:3]),
    ("fermat-quartic", "x^4 + y^4 + z^4", V4[:3]),
    ("fermat-cubic-4", "x^3 + y^3 + z^3 + w^3", V4),
    ("cyclic-cubic", "x^2*y + y^2*z + z^2*x", V4[:3]),
]

# Shapes (variables, degree) of the acceptance corpus, in draw order.
CORPUS_SHAPES = [(3, 3)] * 8 + [(3, 4)] * 5 + [(4, 2)] * 3 + [(4, 3)] * 3 + [(4, 4)]
LOW_COUNT = 16  # random-0 .. random-15 are the short-coefficient entries


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    variables: tuple[str, ...]
    verdict: str
    reason: str | None  # rejection reason when the verdict is INPUT_REJECTED
    degree: int

    @property
    def heavy(self) -> bool:
        """An isolated n4d4 form: one build takes longer than a whole run of
        the other workloads, so untraced runs build it only once."""
        return self.verdict == WITNESS_FOUND and len(self.variables) >= 4 and self.degree >= 4

    @property
    def milnor(self) -> int | None:
        """(d-1)^n for an isolated homogeneous form of degree d in n variables."""
        if self.verdict != WITNESS_FOUND:
            return None
        return (self.degree - 1) ** len(self.variables)


def _homogeneous(rng: random.Random, n: int, degree: int) -> Polynomial:
    """Random nonzero form; same draws as ``random_homogeneous`` in the tests."""
    while True:
        terms = {e: Fraction(rng.randint(-3, 3)) for e in monomials_of_degree(n, degree)}
        p = Polynomial(n, terms)
        if not p.is_zero():
            return p


NONZERO = (-3, -2, -1, 1, 2, 3)


def _full_support(rng: random.Random, n: int, degree: int, keep) -> Polynomial:
    """A form with a nonzero coefficient on every monomial that ``keep``
    accepts.  A fixed support keeps the cost of one input close to that of
    another, so the workload's figures vary less from seed to seed."""
    return Polynomial(n, {
        e: Fraction(rng.choice(NONZERO)) for e in monomials_of_degree(n, degree) if keep(e)
    })


def _isolated(rng: random.Random, n: int, degree: int) -> Polynomial:
    """Random isolated form; same draws as ``random_isolated`` in the tests."""
    while True:
        p = _homogeneous(rng, n, degree)
        if is_isolated_singularity(p):
            return p


def _case(name: str, f: Polynomial, reason: str | None = None) -> Case:
    """Isolated forms expect a witness; a rejection reason means rejection."""
    names = V4[:f.n]
    verdict = WITNESS_FOUND if reason is None else INPUT_REJECTED
    return Case(name, format_poly(f, names), tuple(names), verdict, reason, f.homogeneous_degree())


@functools.cache
def acceptance_corpus(seed: int = DEFAULT_SEED) -> tuple[Case, ...]:
    """Named entries plus the 20 random isolated forms, in acceptance order."""
    cases = [
        Case(name, text, tuple(names), WITNESS_FOUND, None, parse_poly(text, names).homogeneous_degree())
        for name, text, names in NAMED_CORPUS
    ]
    rng = random.Random(seed)
    for idx, (n, d) in enumerate(CORPUS_SHAPES):
        cases.append(_case(f"random-{idx}-n{n}d{d}", _isolated(rng, n, d)))
    return tuple(cases)


def corpus_digest(cases) -> str:
    h = hashlib.sha256()
    for c in cases:
        h.update(f"{c.name}\t{c.text}\t{','.join(c.variables)}\n".encode())
    return h.hexdigest()


def corpus_low(seed: int) -> list[Case]:
    return list(acceptance_corpus(seed)[:len(NAMED_CORPUS) + LOW_COUNT])


def corpus_high(seed: int) -> list[Case]:
    return list(acceptance_corpus(seed)[len(NAMED_CORPUS) + LOW_COUNT:])


def _axis_singular(rng: random.Random, n: int, d: int) -> Polynomial:
    """A form with no x1^d or x1^(d-1)*x_j term: every partial vanishes on the
    x1-axis, so the singular locus is positive-dimensional."""
    return _full_support(rng, n, d, keep=lambda e: e[0] < d - 1)


def _square_factor_slice(rng: random.Random, n: int, d: int) -> Polynomial:
    """An isolated form whose x1-free part is L^2 * h with L linear.

    The restriction to {x1 = 0} is then singular along {L = 0}, so the no-op
    slice fails and the slice search needs at least a second attempt.  Only
    n = 3 admits such isolated forms: for n >= 4 the set {x1 = L = 0} is at
    least a projective line, and the x1-linear part of f vanishes somewhere
    on it, which puts a singular point there.
    """
    while True:
        mixed = _full_support(rng, n, d, keep=lambda e: e[0] > 0)
        linear = _full_support(rng, n, 1, keep=lambda e: e[0] == 0)
        cofactor = _full_support(rng, n, d - 2, keep=lambda e: e[0] == 0)
        f = mixed + linear * linear * cofactor
        if is_isolated_singularity(f):
            return f


# Three n4d4 forms: they carry most of the workload's cost and size, and a
# sum (or maximum) over three varies less from seed to seed than one.
GATE_SHAPES = [(3, 3), (3, 4), (4, 3), (4, 4), (4, 4), (4, 4)]
SLICE_SHAPES = [(3, 3), (3, 3), (3, 4), (3, 4)]


def gate_slice(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for idx, (n, d) in enumerate(GATE_SHAPES):
        cases.append(_case(f"axis-{idx}-n{n}d{d}", _axis_singular(rng, n, d), "not_isolated"))
    for idx, (n, d) in enumerate(SLICE_SHAPES):
        cases.append(_case(f"slice-{idx}-n{n}d{d}", _square_factor_slice(rng, n, d)))
    return cases


WORKLOADS = {
    "corpus-low": corpus_low,
    "corpus-high": corpus_high,
    "gate-slice": gate_slice,
}
