"""End-to-end witness construction and certificate verification.

Given a quasi-homogeneous polynomial f with an isolated singularity at the
origin, the pipeline finds a linear slice whose restriction is still an
isolated singularity, builds the Hessian-cofactor candidate tuple in the
new coordinates, symmetrizes it, lifts it to an explicit second-order
operator, and certifies that the extracted diagonal value lies outside
the modified Jacobian ideal (and so outside the square obstruction
ideal) in the polynomial ring; point 3 below says what that proves in
Q[x]/(f).  Every claim is recorded in a self-contained JSON certificate
that replays by division and re-multiplication alone; verification never
searches and never re-runs the basis algorithm.

Homogeneous input is the case W = (1, ..., 1) of what follows.  The
weights W (coprime positive integers) and the weighted degree D are the
unique solution of <e, W> = D over the exponents e of f
(poly.quasi_homogeneous_weights); the verifier recomputes them from the
input and only compares the recorded ones with them.  The weighted Euler
derivation E_W = sum W_i x_i d/dx_i satisfies E_W(f) = D f, so f lies in
its Jacobian ideal (Saito 1971: for an isolated singularity this happens
iff f is quasi-homogeneous).  Soundness of the weighted path rests on:

1. The weighted cofactor identity.  Differentiating E_W(f) = D f gives
   sum_j W_j x_j f_kj = (D - W_k) f_k.  The 2x2 alternation of the maximal
   minors of the Hessian with row 1 deleted then puts
   A_1i W_j x_j - A_1j W_i x_i in (f_2, ..., f_n)
   (minors.verify_cofactor_identity).  So d_i = A_1i E_W has its defects
   in the Jacobian ideal, and d_i(f) = D A_1i f preserves (f).
2. Der(A) for A = Q[x]/(f), f isolated quasi-homogeneous with n >= 3, is
   generated by E_W and the Hamiltonians D_kl = f_k d/dx_l - f_l d/dx_k.
   If delta(f) = q f then delta - (q/D) E_W annihilates f, so its images
   form a syzygy of f_1, ..., f_n.  These form a regular sequence
   (zero-dimensional Jacobian), so the syzygy is Koszul: a combination of
   Hamiltonians.
3. Every generator maps the slice coordinate y_1 into (y_1, g_2, ..., g_n):
   D_kl(y_1) is 0 or +-g_m with m >= 2, and E_W(y_1) = W_1 y_1 holds because
   the slice y_1 = sum a_i x_i mixes only variables of weight W_1.  (A slice
   that mixes weights has E_W(y_1) outside (y_1) in general.)  So every
   composition of two derivations has its d_1(y_1) entry in the square
   ideal (y_1, g_2, ..., g_n)^2, exactly as in the homogeneous case.
   Derivations and operators on A = Q[y]/(g) are defined only modulo (g),
   so the obstruction must hold modulo (g): d_1(y_1) must lie outside
   (y_1, g_2, ..., g_n)^2 + (g).  The pipeline tests d_1(y_1) against
   (y_1^2, g_2, ..., g_n), which contains the square ideal, and against
   the square ideal itself, both without (g).  Where g lies in
   (y_1^2, g_2, ..., g_n) (the Fermat and Brieskorn examples) the first
   test is the same modulo (g).  Where it does not, the test proves nothing
   in A: the cyclic cubic's witness lies in (y_1^2, g_2, g_3, g).  Its
   verdict still holds, because the witness lies outside
   (y_1, g_2, g_3)^2 + (g), but the certificate does not record that
   (tests/test_pipeline.py, TestObstructionModuloF, checks it).

When the no-op slice fails and no other variable shares the weight of
x_1, no admissible slice exists and the input is rejected with the reason
no_isolating_slice.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .derivations import (
    Adjustment,
    Derivation1,
    DerivationTuple,
    DiffOp2,
    build_candidate_tuple,
    candidate_defect_cofactors,
    euler_derivation,
    lift_to_diff2,
    modified_jacobian_ideal,
    replay_ledger,
    square_obstruction_ideal,
    symmetrize,
    theta2_extract,
)
from .exprio import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    CertificateError,
    format_fraction,
    format_poly,
    parse_fraction,
    parse_poly,
)
from .groebner import (
    GREVLEX,
    GroebnerBasis,
    Ideal,
    InternalInconsistencyError,
    MonomialOrder,
    ResourceLimitExceeded,
    buchberger,
    jacobian_ideal,
    leading_terms_zero_dimensional,
    reduce_by_basis,
    s_polynomial,
)
from .minors import PolyMatrix, algebraic_cofactor, determinant, hessian
from .poly import LinearChange, Polynomial, quasi_homogeneous_weights

logger = logging.getLogger(__name__)

WITNESS_FOUND = "WITNESS_FOUND"
INPUT_REJECTED = "INPUT_REJECTED"
RESOURCE_EXHAUSTED = "RESOURCE_EXHAUSTED"


@dataclass(frozen=True)
class PipelineConfig:
    """Deterministic knobs for the witness search."""

    bound: int = 3
    max_retries: int = 200
    seed: int = 0
    order: MonomialOrder = GREVLEX
    max_pairs: int = 100_000
    max_terms: int = 500_000

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("coefficient search bound must be at least 1")
        if self.max_retries < 1:
            raise ValueError("retry limit must be at least 1")

    def caps(self) -> dict:
        return {"max_pairs": self.max_pairs, "max_terms": self.max_terms}


@dataclass(frozen=True)
class WitnessCertificate:
    """A replayable record of one pipeline run; wraps the JSON document."""

    document: dict

    @property
    def verdict(self) -> str:
        return self.document["verdict"]


@dataclass(frozen=True)
class SliceChoice:
    coefficients: tuple[Fraction, ...]
    change: LinearChange
    restriction: Polynomial  # g restricted to the hyperplane, in n-1 variables
    gb_restriction: GroebnerBasis
    attempts: int


@dataclass(frozen=True)
class SaitoReport:
    """Jacobian determinant of a zero-dimensional system and its (non-)membership."""

    jac_det: Polynomial
    member: bool
    normal_form: Polynomial
    gb: GroebnerBasis


def slice_change(coefficients: Sequence[Fraction], n: int) -> LinearChange:
    """The substitution for y1 = a1 x1 + ... + an xn, y_i = x_i otherwise.

    Inverting gives x1 = (y1 - a2 y2 - ... - an yn) / a1, so the matrix row
    for x1 is (1/a1, -a2/a1, ..., -an/a1) and the other rows are identity.
    """
    a = [Fraction(c) for c in coefficients]
    if len(a) != n:
        raise ValueError(f"{len(a)} slice coefficients for {n} variables")
    if a[0] == 0:
        raise ValueError("the first slice coefficient must be nonzero")
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[0][0] = Fraction(1) / a[0]
    for j in range(1, n):
        rows[0][j] = -a[j] / a[0]
        rows[j][j] = Fraction(1)
    return LinearChange(tuple(tuple(r) for r in rows))


def restrict_to_hyperplane(p: Polynomial) -> Polynomial:
    """p with the first variable set to zero, re-read in the remaining n-1."""
    out = {}
    for exp, coeff in p.terms.items():
        if exp[0] == 0:
            out[exp[1:]] = coeff
    return Polynomial(p.n - 1, out)


def sliced_jacobian(g: Polynomial) -> Ideal:
    """Jacobian of g restricted to the first-coordinate hyperplane.

    Restriction commutes with the partials in the surviving variables, so
    these are the partials of the restricted polynomial.
    """
    restriction = restrict_to_hyperplane(g)
    return jacobian_ideal(restriction)


class NoIsolatingSlice(Exception):
    """The no-op slice fails and no other variable shares the weight of x_1,
    so no admissible slice exists; ``gb`` is the failed restriction's
    Jacobian basis."""

    def __init__(self, gb: GroebnerBasis):
        super().__init__("no admissible slice isolates the singularity")
        self.gb = gb


def generic_slice_search(f: Polynomial, cfg: PipelineConfig) -> SliceChoice:
    """Find slice coefficients making the restriction an isolated singularity.

    The no-op slice (1, 0, ..., 0) is tried first; further candidates draw
    integer coefficients from [-bound, bound], deterministically from the
    seed, and zero those of variables whose weight differs from that of
    x_1 (for homogeneous input, none).  Exhausting the retry budget raises
    ResourceLimitExceeded; a failed no-op slice with no variable sharing the
    weight of x_1 raises NoIsolatingSlice.
    """
    n = f.n
    if n < 3:
        raise ValueError("slice search requires at least three variables")
    found = quasi_homogeneous_weights(f)
    if found is None:
        raise ValueError("slice search requires a quasi-homogeneous polynomial")
    weights = found[0]
    only_noop = all(w != weights[0] for w in weights[1:])
    rng = random.Random(cfg.seed)
    attempts = 0

    def candidates():
        yield tuple([Fraction(1)] + [Fraction(0)] * (n - 1))
        while True:
            draw = [Fraction(rng.randint(-cfg.bound, cfg.bound)) for _ in range(n)]
            yield tuple(a if w == weights[0] else Fraction(0) for a, w in zip(draw, weights))

    for coeffs in candidates():
        if attempts >= cfg.max_retries:
            raise ResourceLimitExceeded(
                f"no isolating slice found within {cfg.max_retries} attempts"
            )
        attempts += 1
        if coeffs[0] == 0:
            continue
        change = slice_change(coeffs, n)
        g = change.apply(f)
        restriction = restrict_to_hyperplane(g)
        if restriction.is_zero():
            continue
        gb = buchberger(jacobian_ideal(restriction), cfg.order, **cfg.caps())
        if gb.is_zero_dimensional():
            logger.info("slice found after %d attempts: %s", attempts, coeffs)
            return SliceChoice(coeffs, change, restriction, gb, attempts)
        if only_noop:
            raise NoIsolatingSlice(gb)
    raise AssertionError("unreachable")


def jacobian_matrix(gens: Sequence[Polynomial]) -> PolyMatrix:
    n = gens[0].n
    if len(gens) != n:
        raise ValueError(f"need {n} polynomials in {n} variables, got {len(gens)}")
    return PolyMatrix([[g.partial(j) for j in range(1, n + 1)] for g in gens], nvars=n)


def saito_check(
    gens: Sequence[Polynomial],
    order: MonomialOrder = GREVLEX,
    gb: GroebnerBasis | None = None,
    **caps,
) -> SaitoReport:
    """Determinant of the Jacobian of a zero-dimensional system is never a member.

    The precondition (Artinian quotient) is checked; a membership verdict of
    True is a theorem violation and raises InternalInconsistencyError.
    """
    gens = tuple(gens)
    if gb is None:
        gb = buchberger(Ideal(gens), order, **caps)
    if not gb.is_zero_dimensional():
        raise ValueError("the system is not zero-dimensional; the criterion does not apply")
    det = determinant(jacobian_matrix(gens))
    nf = gb.normal_form(det)
    member = nf.is_zero()
    if member:
        raise InternalInconsistencyError(
            "Jacobian determinant of an Artinian system reduced to zero; engine bug"
        )
    return SaitoReport(det, member, nf, gb)


# -- certificate assembly -------------------------------------------------


def _new_variables(n: int) -> list[str]:
    return [f"y{i}" for i in range(1, n + 1)]


def _gb_record(gb: GroebnerBasis, variables: Sequence[str]) -> dict:
    return {
        "order": gb.order.kind,
        "variables": list(variables),
        "generators": [format_poly(g, variables, gb.order) for g in gb.source.generators],
        "basis": [format_poly(g, variables, gb.order) for g in gb.basis],
        "cofactors": [
            [format_poly(c, variables, gb.order) for c in row] for row in gb.cofactors
        ],
        "zero_dimensional": gb.is_zero_dimensional(),
    }


def _membership_record(
    name: str,
    basis_key: str,
    p: Polynomial,
    variables: Sequence[str],
    cofactors: Sequence[Polynomial] | None,
    normal_form: Polynomial | None,
    order: MonomialOrder,
) -> dict:
    return {
        "name": name,
        "basis": basis_key,
        "polynomial": format_poly(p, variables, order),
        "member": cofactors is not None,
        "cofactors": None if cofactors is None else [format_poly(c, variables, order) for c in cofactors],
        "normal_form": None if normal_form is None else format_poly(normal_form, variables, order),
    }


def _empty_document(f_text: str, variables: Sequence[str], cfg: PipelineConfig) -> dict:
    return {
        "schema": {"name": SCHEMA_NAME, "version": SCHEMA_VERSION},
        "input": {
            "polynomial": f_text,
            "variables": list(variables),
            "config": {
                "bound": cfg.bound,
                "max_retries": cfg.max_retries,
                "seed": cfg.seed,
                "order": cfg.order.kind,
            },
        },
        "change_of_coordinates": None,
        "candidate_tuple": None,
        "adjustments": [],
        "symmetric_tuple": None,
        "lifted_operator": None,
        "membership_tests": {"groebner_bases": {}, "tests": []},
        "verdict": None,
    }


def build_witness(
    f: Polynomial,
    variables: Sequence[str],
    cfg: PipelineConfig | None = None,
) -> WitnessCertificate:
    """Run the full construction and return a replayable certificate."""
    cfg = cfg or PipelineConfig()
    order = cfg.order
    doc = _empty_document(format_poly(f, variables, order), variables, cfg)
    info = doc["input"]

    def rejected(reason: str, message: str) -> WitnessCertificate:
        info["rejection"] = {"reason": reason, "message": message}
        doc["verdict"] = INPUT_REJECTED
        logger.info("input rejected (%s): %s", reason, message)
        return WitnessCertificate(doc)

    if f.is_zero():
        return rejected("zero_polynomial", "the zero polynomial does not define a hypersurface")
    found = quasi_homogeneous_weights(f)
    info["homogeneous"] = f.is_homogeneous()
    if found is None:
        return rejected(
            "not_homogeneous",
            "input polynomial is not quasi-homogeneous: no unique positive weight vector",
        )
    weights, degree = found
    info["weights"] = list(weights)
    info["degree"] = degree
    info["variable_count"] = f.n
    if f.min_degree() < 2:
        return rejected(
            "degree_too_small", f"a degree-{f.min_degree()} term makes the input smooth at the origin"
        )
    if f.n < 3:
        return rejected(
            "too_few_variables",
            f"{f.n}-variable input is outside this construction; two variables are settled classically",
        )
    if f.n > 6:
        return rejected(
            "dimension_cap",
            f"{f.n} variables exceed the configured determinant dimension cap of 6",
        )

    bases = doc["membership_tests"]["groebner_bases"]
    tests = doc["membership_tests"]["tests"]

    gb_input = buchberger(jacobian_ideal(f), order, **cfg.caps())
    bases["input_jacobian"] = _gb_record(gb_input, variables)
    if not gb_input.is_zero_dimensional():
        info["isolated"] = False
        return rejected("not_isolated", "the Jacobian ideal is not zero-dimensional")
    info["isolated"] = True
    info["milnor_number"] = gb_input.quotient_dimension()

    try:
        chosen = generic_slice_search(f, cfg)
    except NoIsolatingSlice as exc:
        bases["slice_jacobian"] = _gb_record(exc.gb, variables[1:])
        return rejected(
            "no_isolating_slice",
            f"the restriction to {variables[0]} = 0 is not an isolated singularity and no other "
            f"variable has the weight {weights[0]} of {variables[0]}, so no admissible slice exists",
        )
    except ResourceLimitExceeded as exc:
        doc["change_of_coordinates"] = {"attempts": cfg.max_retries, "exhausted": True}
        doc["verdict"] = RESOURCE_EXHAUSTED
        info["resource_error"] = str(exc)
        return WitnessCertificate(doc)

    n = f.n
    yvars = _new_variables(n)
    slice_vars = yvars[1:]
    change = chosen.change
    g = change.apply(f)
    bases["slice_jacobian"] = _gb_record(chosen.gb_restriction, slice_vars)
    doc["change_of_coordinates"] = {
        "slice_coefficients": [format_fraction(c) for c in chosen.coefficients],
        "matrix": [[format_fraction(v) for v in row] for row in change.matrix],
        "new_variables": yvars,
        "transformed_polynomial": format_poly(g, yvars, order),
        "slice_restriction": format_poly(chosen.restriction, slice_vars, order),
        "attempts": chosen.attempts,
    }

    # only this record's generators g_1..g_n are read: the defect records
    # below refer to them, with closed-form cofactors
    bases["jacobian"] = _gb_record(buchberger(jacobian_ideal(g), order, **cfg.caps()), yvars)

    candidate = build_candidate_tuple(g, check_isolated=False, weights=weights)
    hess = hessian(g)
    cofactor_row = [algebraic_cofactor(hess, 1, i) for i in range(1, n + 1)]
    # E_W scales g by D and Hamiltonians annihilate it, so the candidate and
    # the symmetric d_i both scale g by D * A_1i
    scales = [format_poly(c.scale(degree), yvars, order) for c in cofactor_row]
    doc["candidate_tuple"] = {
        "hessian_cofactors": [format_poly(c, yvars, order) for c in cofactor_row],
        "images": [[format_poly(p, yvars, order) for p in d.images] for d in candidate.ders],
        "scales_f_by": scales,
    }

    defect_cofactors = candidate_defect_cofactors(g, weights)
    for (i, j), cofs in defect_cofactors.items():
        tests.append(_membership_record(
            f"candidate_defect_{i}_{j}_in_jacobian", "jacobian", candidate.defect(i, j),
            yvars, cofs, None, order,
        ))

    symmetric, ledger = symmetrize(candidate, defect_cofactors)
    doc["adjustments"] = [
        {
            "target": move.target,
            "hamiltonian": [move.k, move.l],
            "coefficient": format_poly(move.coeff, yvars, order),
        }
        for move in ledger
    ]
    doc["symmetric_tuple"] = {
        "images": [[format_poly(p, yvars, order) for p in d.images] for d in symmetric.ders],
        "scales_f_by": list(scales),
    }

    lifted = lift_to_diff2(symmetric)
    doc["lifted_operator"] = {
        "coefficients": [
            {"index": list(alpha), "value": format_poly(c, yvars, order)}
            for alpha, c in sorted(lifted.coeffs.items())
        ],
        "annihilates_f": lifted.apply(g).is_zero(),
    }

    witness_value = symmetric.entry(1, 1)
    modified = modified_jacobian_ideal(g, 1)
    gb_modified = buchberger(modified, order, **cfg.caps())
    bases["modified_jacobian_1"] = _gb_record(gb_modified, yvars)
    nf_modified = gb_modified.normal_form(witness_value)
    in_modified = nf_modified.is_zero()
    tests.append(_membership_record(
        "witness_diagonal_vs_modified_jacobian", "modified_jacobian_1", witness_value,
        yvars, gb_modified.lift(witness_value) if in_modified else None,
        None if in_modified else nf_modified, order,
    ))

    square = square_obstruction_ideal(g, 1)
    gb_square = buchberger(square, order, **cfg.caps())
    bases["square_1"] = _gb_record(gb_square, yvars)
    nf_square = gb_square.normal_form(witness_value)
    in_square = nf_square.is_zero()
    tests.append(_membership_record(
        "witness_diagonal_vs_square_ideal", "square_1", witness_value,
        yvars, gb_square.lift(witness_value) if in_square else None,
        None if in_square else nf_square, order,
    ))
    if in_square and not in_modified:
        raise InternalInconsistencyError("square ideal membership outside the larger ideal")

    saito = saito_check(modified.generators, order, gb=gb_modified)
    tests.append(_membership_record(
        "saito_jacobian_determinant", "modified_jacobian_1", saito.jac_det,
        yvars, None, saito.normal_form, order,
    ))

    doc["membership_tests"]["soundness_chain"] = {
        "outside_modified_jacobian": not in_modified,
        "outside_square_ideal": not in_square,
        "chain_respected": (not in_modified) <= (not in_square),
    }
    doc["verdict"] = WITNESS_FOUND if not in_modified else INPUT_REJECTED
    if in_modified:
        info["rejection"] = {
            "reason": "witness_membership",
            "message": "the diagonal value fell inside the modified Jacobian ideal",
        }
    return WitnessCertificate(doc)


# -- certificate verification ---------------------------------------------


def verify_certificate(cert: WitnessCertificate | dict) -> bool:
    """Recompute every certificate claim from its own data; no search, no
    basis computation.  Returns True iff everything replays."""
    failures = certificate_failures(cert)
    for failure in failures:
        logger.info("certificate verification failure: %s", failure)
    return not failures


def certificate_failures(cert: WitnessCertificate | dict) -> list[str]:
    """All verification failures (empty list means the certificate is valid)."""
    doc = cert.document if isinstance(cert, WitnessCertificate) else cert
    missing = [k for k in ("schema", "input", "verdict") if k not in doc]
    if missing:
        raise CertificateError(f"certificate missing required keys: {missing}")
    verdict = doc["verdict"]
    try:
        if verdict == RESOURCE_EXHAUSTED:
            return _verify_exhausted(doc)
        if verdict == INPUT_REJECTED:
            return _verify_rejected(doc)
        if verdict == WITNESS_FOUND:
            return _verify_witness(doc)
    except CertificateError:
        raise
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        # corrupted but well-shaped data: report invalid instead of crashing
        return [f"certificate data does not replay: {exc}"]
    return [f"unknown verdict {verdict!r}"]


def _check_gb_record(name: str, record: dict, failures: list[str]) -> tuple[list[Polynomial], list[Polynomial]]:
    """Validate a recorded reduced basis by division and re-multiplication.

    Checks: every basis element is a recorded combination of the generators,
    every generator reduces to zero, every S-polynomial reduces to zero, and
    the zero-dimensionality flag matches the leading monomials.  Together
    these replay the Buchberger criterion without re-running the algorithm.
    """
    order = MonomialOrder(record["order"])
    variables = record["variables"]
    gens = [parse_poly(s, variables) for s in record["generators"]]
    basis = [parse_poly(s, variables) for s in record["basis"]]
    cofs = [[parse_poly(s, variables) for s in row] for row in record["cofactors"]]
    if len(cofs) != len(basis) or any(len(row) != len(gens) for row in cofs):
        failures.append(f"{name}: cofactor matrix shape mismatch")
        return gens, basis
    n = gens[0].n if gens else 0
    for idx, (b, row) in enumerate(zip(basis, cofs)):
        total = Polynomial.zero(n)
        for q, g in zip(row, gens):
            total = total + q * g
        if total != b:
            failures.append(f"{name}: basis element {idx} is not the recorded combination of generators")
    for idx, g in enumerate(gens):
        if not reduce_by_basis(g, basis, order).is_zero():
            failures.append(f"{name}: generator {idx} does not reduce to zero")
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j], order)
            if not reduce_by_basis(s, basis, order).is_zero():
                failures.append(f"{name}: S-polynomial ({i},{j}) does not reduce to zero")
    leading = [order.leading_term(b)[0] for b in basis]
    zero_dim = leading_terms_zero_dimensional(leading, n)
    if record.get("zero_dimensional") != zero_dim:
        failures.append(f"{name}: zero-dimensionality flag does not match the leading monomials")
    return gens, basis


def _check_membership_tests(doc: dict, failures: list[str]) -> dict:
    """Validate all bases, then all membership records; returns parsed tests."""
    section = doc.get("membership_tests") or {}
    checked: dict[str, tuple[list[Polynomial], list[Polynomial]]] = {}
    for key, record in (section.get("groebner_bases") or {}).items():
        checked[key] = _check_gb_record(key, record, failures)
    parsed = {}
    for test in section.get("tests") or []:
        name = test["name"]
        basis_key = test["basis"]
        if basis_key not in checked:
            failures.append(f"{name}: references unknown basis {basis_key!r}")
            continue
        gens, basis = checked[basis_key]
        record = section["groebner_bases"][basis_key]
        order = MonomialOrder(record["order"])
        variables = record["variables"]
        p = parse_poly(test["polynomial"], variables)
        if test["member"]:
            if test.get("cofactors") is None:
                failures.append(f"{name}: membership claim without cofactors")
                continue
            cofs = [parse_poly(s, variables) for s in test["cofactors"]]
            if len(cofs) != len(gens):
                failures.append(f"{name}: cofactor count mismatch")
                continue
            total = Polynomial.zero(p.n)
            for q, g in zip(cofs, gens):
                total = total + q * g
            if total != p:
                failures.append(f"{name}: cofactors do not re-multiply to the polynomial")
        else:
            if not basis:
                failures.append(f"{name}: non-membership claim against an empty basis")
                continue
            nf = reduce_by_basis(p, basis, order)
            if nf.is_zero():
                failures.append(f"{name}: polynomial actually reduces to zero")
            recorded = test.get("normal_form")
            if recorded is None or parse_poly(recorded, variables) != nf:
                failures.append(f"{name}: recorded normal form does not match the recomputation")
        parsed[name] = (p, test)
    return parsed


def _verify_exhausted(doc: dict) -> list[str]:
    failures: list[str] = []
    change = doc.get("change_of_coordinates") or {}
    if not change.get("exhausted"):
        failures.append("RESOURCE_EXHAUSTED certificate without an exhaustion record")
    return failures


def _check_jacobian_not_isolated(doc: dict, key: str, expected: list[Polynomial]) -> list[str]:
    """A recorded, replayed basis of the expected partials that is not
    zero-dimensional: the evidence behind a not-isolated claim."""
    failures: list[str] = []
    record = (doc.get("membership_tests") or {}).get("groebner_bases", {}).get(key)
    if record is None:
        return [f"rejection without the recorded basis {key!r}"]
    _check_gb_record(key, record, failures)
    if record.get("zero_dimensional"):
        failures.append(f"{key}: recorded basis is zero-dimensional; rejection unjustified")
    gens = [parse_poly(s, record["variables"]) for s in record["generators"]]
    if gens != expected:
        failures.append(f"{key}: recorded generators are not the expected partials")
    return failures


def _verify_rejected(doc: dict) -> list[str]:
    failures: list[str] = []
    info = doc["input"]
    rejection = info.get("rejection") or {}
    reason = rejection.get("reason")
    variables = info["variables"]
    try:
        f = parse_poly(info["polynomial"], variables)
    except ValueError as exc:
        return [f"input polynomial does not parse: {exc}"]
    if reason == "zero_polynomial":
        if not f.is_zero():
            failures.append("rejection says zero polynomial but the input is nonzero")
        return failures
    if f.is_zero():
        return ["input is zero but the rejection reason disagrees"]
    found = quasi_homogeneous_weights(f)
    if reason == "not_homogeneous":
        if found is not None:
            failures.append("rejection says no unique positive weight vector but the input has one")
        return failures
    if found is None:
        return ["input has no unique positive weight vector but the rejection reason disagrees"]
    weights = found[0]
    if reason == "degree_too_small":
        if f.min_degree() >= 2:
            failures.append("rejection says degree too small but every term has degree at least 2")
        return failures
    if reason == "too_few_variables":
        if f.n >= 3:
            failures.append("rejection says too few variables but there are at least 3")
        return failures
    if reason == "dimension_cap":
        if f.n <= 6:
            failures.append("rejection cites the dimension cap but the input fits it")
        return failures
    if reason == "not_isolated":
        return _check_jacobian_not_isolated(
            doc, "input_jacobian", [f.partial(i) for i in range(1, f.n + 1)]
        )
    if reason == "no_isolating_slice":
        if any(w == weights[0] for w in weights[1:]):
            failures.append("another variable shares the weight of the first; other slices are admissible")
        restriction = restrict_to_hyperplane(f)
        return failures + _check_jacobian_not_isolated(
            doc, "slice_jacobian", [restriction.partial(i) for i in range(1, f.n)]
        )
    if reason == "witness_membership":
        return _verify_witness(doc, expect_witness=False)
    return [f"unknown rejection reason {reason!r}"]


def _verify_witness(doc: dict, expect_witness: bool = True) -> list[str]:
    failures: list[str] = []
    required = (
        "change_of_coordinates",
        "candidate_tuple",
        "adjustments",
        "symmetric_tuple",
        "lifted_operator",
        "membership_tests",
    )
    missing = [k for k in required if not doc.get(k)]
    if missing:
        return [f"witness verdict without the supporting sections: {missing}"]
    info = doc["input"]
    variables = info["variables"]
    order = MonomialOrder(info.get("config", {}).get("order", "grevlex"))
    f = parse_poly(info["polynomial"], variables)
    found = None if f.is_zero() else quasi_homogeneous_weights(f)
    if found is None or f.min_degree() < 2 or f.n < 3:
        failures.append("input gates (quasi-homogeneous, no term of degree below 2, n >= 3) do not hold")
        return failures
    weights, degree = found
    n = f.n
    if info.get("degree") != degree or info.get("variable_count") != n:
        failures.append("recorded degree or variable count is wrong")
    # certificates without the field predate weighted input: all weights 1
    if info.get("weights", [1] * n) != list(weights):
        failures.append("recorded weights are not the unique weights of the input")
    if euler_derivation(n, weights).apply(f) != f.scale(degree):
        failures.append("the weighted Euler derivation does not multiply f by its weighted degree")

    change_doc = doc["change_of_coordinates"]
    yvars = change_doc["new_variables"]
    coeffs = [parse_fraction(s) for s in change_doc["slice_coefficients"]]
    try:
        change = slice_change(coeffs, n)
    except ValueError as exc:
        return failures + [f"slice coefficients invalid: {exc}"]
    if any(a and w != weights[0] for a, w in zip(coeffs, weights)):
        failures.append("slice mixes variables of different weight")
    matrix = [[parse_fraction(v) for v in row] for row in change_doc["matrix"]]
    if [list(row) for row in change.matrix] != matrix:
        failures.append("recorded matrix does not match the slice coefficients")
    g = change.apply(f)
    if parse_poly(change_doc["transformed_polynomial"], yvars) != g:
        failures.append("transformed polynomial does not match the substitution")
    restriction = restrict_to_hyperplane(g)
    if parse_poly(change_doc["slice_restriction"], yvars[1:]) != restriction:
        failures.append("recorded slice restriction is wrong")

    tests = _check_membership_tests(doc, failures)
    bases = doc["membership_tests"]["groebner_bases"]

    for key, expected_gens, gen_vars in (
        ("input_jacobian", [f.partial(i) for i in range(1, n + 1)], variables),
        ("slice_jacobian", [restriction.partial(i) for i in range(1, n)], yvars[1:]),
        ("jacobian", [g.partial(i) for i in range(1, n + 1)], yvars),
    ):
        record = bases.get(key)
        if record is None:
            failures.append(f"missing recorded basis {key!r}")
            continue
        gens = [parse_poly(s, record["variables"]) for s in record["generators"]]
        if gens != expected_gens:
            failures.append(f"{key}: recorded generators are not the expected partials")
        if key in ("input_jacobian", "slice_jacobian") and not record.get("zero_dimensional"):
            failures.append(f"{key}: expected a zero-dimensional system")

    if info.get("homogeneous") is not f.is_homogeneous() or info.get("isolated") is not True:
        failures.append("input flags must record the homogeneity of an isolated singularity")
    # Milnor and Orlik (1970): an isolated quasi-homogeneous singularity has
    # Milnor number prod(D / W_i - 1); no walk of the recorded basis needed
    if info.get("milnor_number") != math.prod(Fraction(degree, w) - 1 for w in weights):
        failures.append("recorded Milnor number is not prod(D / W_i - 1)")

    modified_record = bases.get("modified_jacobian_1")
    if modified_record is None:
        return failures + ["missing recorded basis 'modified_jacobian_1'"]
    expected_modified = [g.partial(i) for i in range(1, n + 1)]
    expected_modified[0] = Polynomial.variable(n, 1) ** 2
    if [parse_poly(s, yvars) for s in modified_record["generators"]] != expected_modified:
        failures.append("modified_jacobian_1: recorded generators are wrong")
    if not modified_record.get("zero_dimensional"):
        failures.append("modified_jacobian_1: system must be zero-dimensional for the criterion")

    square_record = bases.get("square_1")
    if square_record is None:
        return failures + ["missing recorded basis 'square_1'"]
    base_row = [g.partial(i) for i in range(1, n + 1)]
    base_row[0] = Polynomial.variable(n, 1)
    expected_square = [base_row[a] * base_row[b] for a in range(n) for b in range(a, n)]
    if [parse_poly(s, yvars) for s in square_record["generators"]] != expected_square:
        failures.append("square_1: recorded generators are not the pairwise products")

    # candidate tuple: cofactors of the Hessian's first row times the
    # weighted Euler images W_j y_j
    hess = hessian(g)
    cand_doc = doc["candidate_tuple"]
    cofactor_row = [algebraic_cofactor(hess, 1, i) for i in range(1, n + 1)]
    if [parse_poly(s, yvars) for s in cand_doc["hessian_cofactors"]] != cofactor_row:
        failures.append("candidate cofactors do not match the Hessian")
    candidate_images = [[parse_poly(s, yvars) for s in row] for row in cand_doc["images"]]
    euler_images = euler_derivation(n, weights).images
    for i in range(n):
        expected = [cofactor_row[i] * e for e in euler_images]
        if candidate_images[i] != expected:
            failures.append(f"candidate derivation {i + 1} is not cofactor * weighted Euler")
    for i, q_text in enumerate(cand_doc["scales_f_by"]):
        q = parse_poly(q_text, yvars)
        d = Derivation1(tuple(candidate_images[i]))
        if d.apply(g) != q * g:
            failures.append(f"candidate derivation {i + 1} does not scale f by the recorded factor")

    candidate = DerivationTuple(tuple(Derivation1(tuple(r)) for r in candidate_images), g)
    ledger = tuple(
        Adjustment(m["target"], m["hamiltonian"][0], m["hamiltonian"][1], parse_poly(m["coefficient"], yvars))
        for m in doc["adjustments"]
    )
    replayed = replay_ledger(candidate, ledger)
    sym_doc = doc["symmetric_tuple"]
    symmetric_images = [[parse_poly(s, yvars) for s in row] for row in sym_doc["images"]]
    if [list(d.images) for d in replayed.ders] != symmetric_images:
        failures.append("ledger replay does not reproduce the symmetric tuple")
    symmetric = DerivationTuple(tuple(Derivation1(tuple(r)) for r in symmetric_images), g)
    if not symmetric.is_symmetric():
        failures.append("recorded symmetric tuple is not symmetric")
    for i, q_text in enumerate(sym_doc["scales_f_by"]):
        q = parse_poly(q_text, yvars)
        if symmetric.ders[i].apply(g) != q * g:
            failures.append(f"symmetric derivation {i + 1} does not scale f by the recorded factor")

    op_doc = doc["lifted_operator"]
    op = DiffOp2(n, {
        tuple(entry["index"]): parse_poly(entry["value"], yvars)
        for entry in op_doc["coefficients"]
    })
    extracted = theta2_extract(op, g)
    if [list(d.images) for d in extracted.ders] != symmetric_images:
        failures.append("lifted operator does not extract back to the symmetric tuple")
    annihilates = op.apply(g).is_zero()
    if annihilates != op_doc.get("annihilates_f"):
        failures.append("recorded annihilation flag is wrong")
    if not annihilates:
        failures.append("lifted operator does not annihilate the transformed polynomial")

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            name = f"candidate_defect_{i}_{j}_in_jacobian"
            if name not in tests:
                failures.append(f"missing membership record {name}")
                continue
            p, test = tests[name]
            if p != candidate.defect(i, j):
                failures.append(f"{name}: recorded polynomial is not the candidate defect")
            if not test["member"]:
                failures.append(f"{name}: defect must be certified as a member")

    witness_value = symmetric.entry(1, 1)
    for name, expected_poly in (
        ("witness_diagonal_vs_modified_jacobian", witness_value),
        ("witness_diagonal_vs_square_ideal", witness_value),
        ("saito_jacobian_determinant", determinant(jacobian_matrix(expected_modified))),
    ):
        if name not in tests:
            failures.append(f"missing membership record {name}")
            continue
        p, test = tests[name]
        if p != expected_poly:
            failures.append(f"{name}: recorded polynomial is not the expected one")

    chain = (doc.get("membership_tests") or {}).get("soundness_chain") or {}
    in_modified = tests.get("witness_diagonal_vs_modified_jacobian", (None, {"member": True}))[1]["member"]
    in_square = tests.get("witness_diagonal_vs_square_ideal", (None, {"member": True}))[1]["member"]
    if chain.get("outside_modified_jacobian") != (not in_modified):
        failures.append("soundness chain disagrees with the recorded modified-ideal verdict")
    if chain.get("outside_square_ideal") != (not in_square):
        failures.append("soundness chain disagrees with the recorded square-ideal verdict")
    if in_square and not in_modified:
        failures.append("containment violated: inside the square ideal but outside the ideal containing it")
    saito_member = tests.get("saito_jacobian_determinant", (None, {"member": True}))[1]["member"]
    if saito_member:
        failures.append("Saito determinant recorded as a member; theorem violation")
    expected_verdict = WITNESS_FOUND if not in_modified else INPUT_REJECTED
    if expect_witness and doc["verdict"] != WITNESS_FOUND:
        failures.append("verdict is not WITNESS_FOUND")
    if doc["verdict"] != expected_verdict:
        failures.append("verdict does not follow from the recorded memberships")
    return failures
