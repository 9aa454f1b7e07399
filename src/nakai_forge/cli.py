"""Command-line front end.

Subcommands: check, witness, verify, identity, symmetrize, member,
milnor, examples.  Exit codes: 0 success / witness found, 1 input
rejected, 2 parse or usage error, 3 resource limit exceeded, 4 internal
inconsistency (a theorem-violation signal or a certificate that fails
replay).  Set NAKAI_FORGE_LOG=DEBUG|INFO|WARNING for diagnostics.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

from .derivations import build_candidate_tuple, symmetrize
from .exprio import (
    ParseError,
    format_poly,
    parse_fraction,
    parse_poly,
    read_certificate,
    write_certificate,
)
from .groebner import (
    Ideal,
    InternalInconsistencyError,
    ResourceLimitExceeded,
    buchberger,
    decide_isolation,
    is_isolated_singularity,
    jacobian_ideal,
)
from .minors import verify_cofactor_identity
from .pipeline import (
    WITNESS_FOUND,
    build_witness,
    certificate_failures,
    milnor_number,
)
from .poly import Polynomial, quasi_homogeneous_weights

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_RESOURCES = 3
EXIT_INCONSISTENT = 4

# name, expression, variables, expected verdict.  The Brieskorn entries are
# quasi-homogeneous but not homogeneous; the construction runs on them with
# the weighted Euler derivation and finds witnesses.
BUILTIN_CORPUS = [
    ("cyclic-cubic", "x^2*y + y^2*z + z^2*x", ["x", "y", "z"], WITNESS_FOUND),
    ("fermat-cubic", "x^3 + y^3 + z^3", ["x", "y", "z"], WITNESS_FOUND),
    ("fermat-quartic", "x^4 + y^4 + z^4", ["x", "y", "z"], WITNESS_FOUND),
    ("fermat-cubic-4", "x^3 + y^3 + z^3 + w^3", ["x", "y", "z", "w"], WITNESS_FOUND),
    ("brieskorn-2-3-4", "x^2 + y^3 + z^4", ["x", "y", "z"], WITNESS_FOUND),
    ("brieskorn-3-3-4", "x^3 + y^3 + z^4", ["x", "y", "z"], WITNESS_FOUND),
]


def _configure_logging():
    level_name = os.environ.get("NAKAI_FORGE_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _read_input(args) -> tuple[Polynomial, list[str]]:
    """An inline expression with --vars, or a file with a 'vars:' header line."""
    source = args.input
    path = Path(source)
    try:
        is_file = path.is_file()
    except OSError:
        is_file = False  # expressions can exceed the filesystem name limit
    if is_file:
        lines = path.read_text(encoding="utf-8").splitlines()
        if lines and lines[0].strip().lower().startswith("vars:"):
            variables = _split_vars(lines[0].split(":", 1)[1])
            text = " ".join(lines[1:])
        elif args.vars:
            variables = _split_vars(args.vars)
            text = " ".join(lines)
        else:
            raise ParseError("input file needs a 'vars: x,y,z' header line or --vars", 0)
    else:
        if not args.vars:
            raise ParseError("inline expressions require --vars", 0)
        variables = _split_vars(args.vars)
        text = source
    return parse_poly(text, variables), variables


def _split_vars(spec: str) -> list[str]:
    return [v.strip() for v in spec.split(",") if v.strip()]


def _emit(text: str):
    sys.stdout.write(text + "\n")
    sys.stdout.flush()


def _milnor(f: Polynomial, found) -> int | None:
    """The dimension of the quotient by the Jacobian ideal of f, or None if
    that ideal is not zero-dimensional; ``found`` is the unique weights and
    weighted degree of f, or None.  With them, the ideal is decided as the
    witness gate decides it (groebner.decide_isolation) and the dimension is
    prod(D / W_i - 1) (Milnor and Orlik 1970).  Without them the argument
    modulo a prime does not apply: a basis over Q decides, and its standard
    monomials are counted."""
    if found is not None:
        return int(milnor_number(*found)) if decide_isolation(f, *found)[1] is None else None
    gb = buchberger(jacobian_ideal(f))
    return gb.quotient_dimension() if gb.is_zero_dimensional() else None


def cmd_check(args) -> int:
    f, variables = _read_input(args)
    if f.is_zero():
        _emit("rejected: the zero polynomial does not define a hypersurface")
        return EXIT_REJECTED
    # the gate of witness (pipeline.input_gate) without its variable-count
    # checks, so that any n is reported: unique positive weights, no term
    # of degree below 2, and a zero-dimensional Jacobian ideal
    found = quasi_homogeneous_weights(f)
    weights, degree = found if found is not None else (None, None)
    milnor = _milnor(f, found)
    zero_dim = milnor is not None
    isolated = found is not None and f.min_degree() >= 2 and zero_dim
    if args.json:
        _emit(json.dumps({
            "polynomial": format_poly(f, variables),
            "homogeneous": f.is_homogeneous(),
            "weights": None if weights is None else list(weights),
            "degree": degree,
            "jacobian_zero_dimensional": zero_dim,
            "isolated_quasi_homogeneous_singularity": isolated,
            "milnor_number": milnor,
        }, indent=2, sort_keys=True))
    else:
        weight_text = "none (not quasi-homogeneous)" if found is None else (
            f"({', '.join(map(str, weights))}), weighted degree {degree}"
        )
        _emit(f"polynomial:            {format_poly(f, variables)}")
        _emit(f"homogeneous:           {'yes, degree ' + str(degree) if f.is_homogeneous() else 'no'}")
        _emit(f"weights:               {weight_text}")
        _emit(f"jacobian 0-dimensional: {'yes' if zero_dim else 'no'}")
        _emit(f"isolated singularity:  {'yes' if isolated else 'no'}")
        _emit(f"milnor number:         {milnor if milnor is not None else 'infinite (not isolated)'}")
    return EXIT_OK


def cmd_witness(args) -> int:
    f, variables = _read_input(args)
    cert = build_witness(f, variables)
    payload = write_certificate(cert.document)
    if args.out:
        Path(args.out).write_bytes(payload)
    if args.json:
        sys.stdout.write(payload.decode("utf-8"))
        sys.stdout.flush()
    else:
        _emit(f"verdict: {cert.verdict}")
        if cert.verdict == WITNESS_FOUND:
            change = cert.document["change_of_coordinates"]
            n = len(variables)
            slice_form = Polynomial(n, {tuple(int(i == j) for j in range(n)): parse_fraction(a)
                                        for i, a in enumerate(change["slice_coefficients"])})
            _emit(f"slice:   y1 = {format_poly(slice_form, variables)} (attempt {change['attempts']})")
            diagonal = [2] + [0] * (n - 1)
            witness = next(e["value"] for e in cert.document["lifted_operator"]["coefficients"]
                           if e["index"] == diagonal)
            _emit(f"witness: d1(y1) = {witness}")
            _emit("d1(y1) = W_1*y1*Hess(h) mod y1^2 for the isolated h = g(0, y2, ..., yn), so it lies "
                  "outside (y1, g_2, ..., g_n)^2 + (g) (socle lemma)")
        else:
            rejection = cert.document["input"]["rejection"]
            _emit(f"reason:  {rejection['reason']}: {rejection['message']}")
        if args.out:
            _emit(f"certificate written to {args.out}")
    return EXIT_OK if cert.verdict == WITNESS_FOUND else EXIT_REJECTED


def cmd_verify(args) -> int:
    data = Path(args.certificate).read_bytes()
    document = read_certificate(data)
    failures = certificate_failures(document)
    if args.json:
        _emit(json.dumps({"valid": not failures, "failures": failures}, indent=2))
    elif failures:
        for failure in failures:
            _emit(f"FAIL: {failure}")
        _emit("certificate INVALID")
    else:
        _emit(f"certificate VALID (verdict {document['verdict']})")
    return EXIT_OK if not failures else EXIT_INCONSISTENT


def cmd_identity(args) -> int:
    f, variables = _read_input(args)
    # an index outside 1..n is a usage error; an IndexError from the engine
    # stays a bug
    for name, index in (("-i", args.i), ("-j", args.j), ("-k", args.k)):
        if not 1 <= index <= f.n:
            raise ValueError(f"{name} {index} is out of range 1..{f.n}")
    holds, residual = verify_cofactor_identity(f, args.i, args.j, args.k)
    if args.json:
        _emit(json.dumps({
            "i": args.i, "j": args.j, "k": args.k,
            "holds": holds,
            "residual": format_poly(residual, variables),
        }, indent=2))
    else:
        _emit(f"identity ({args.i},{args.j},{args.k}): {'holds, residual 0' if holds else 'VIOLATED'}")
        if not holds:
            _emit(f"residual: {format_poly(residual, variables)}")
    return EXIT_OK if holds else EXIT_INCONSISTENT


def cmd_symmetrize(args) -> int:
    f, variables = _read_input(args)
    try:
        candidate, cofactors, _ = build_candidate_tuple(f)
    except ValueError as exc:
        _emit(f"rejected: {exc}")
        return EXIT_REJECTED
    if not is_isolated_singularity(f):
        _emit("rejected: candidate tuple requires an isolated singularity")
        return EXIT_REJECTED
    symmetric, ledger = symmetrize(candidate, cofactors)
    result = {
        "candidate": [[format_poly(p, variables) for p in d.images] for d in candidate.ders],
        "adjustments": [
            {"target": m.target, "hamiltonian": [m.k, m.l],
             "coefficient": format_poly(m.coeff, variables)}
            for m in ledger
        ],
        "symmetric": [[format_poly(p, variables) for p in d.images] for d in symmetric.ders],
    }
    if args.json:
        _emit(json.dumps(result, indent=2))
    else:
        _emit("candidate tuple images:")
        for i, row in enumerate(result["candidate"], 1):
            _emit(f"  d{i}: ({', '.join(row)})")
        _emit(f"adjustments ({len(ledger)}):")
        for m in result["adjustments"]:
            _emit(f"  d{m['target']} += ({m['coefficient']}) * D[{m['hamiltonian'][0]},{m['hamiltonian'][1]}]")
        _emit("symmetric tuple images:")
        for i, row in enumerate(result["symmetric"], 1):
            _emit(f"  d{i}: ({', '.join(row)})")
    return EXIT_OK


def cmd_member(args) -> int:
    if not args.vars:
        raise ParseError("member requires --vars", 0)
    variables = _split_vars(args.vars)
    p = parse_poly(args.polynomial, variables)
    gens = [parse_poly(text, variables) for text in args.ideal.split(",")]
    gb = buchberger(Ideal(tuple(gens)))
    cofactors = gb.lift(p)
    # a member's normal form is zero: divide again only for a non-member
    nf = Polynomial.zero(p.n) if cofactors is not None else gb.normal_form(p)
    if args.json:
        _emit(json.dumps({
            "member": cofactors is not None,
            "normal_form": format_poly(nf, variables),
            "cofactors": None if cofactors is None else [format_poly(c, variables) for c in cofactors],
        }, indent=2))
    elif cofactors is not None:
        _emit("MEMBER")
        for c, g in zip(cofactors, gens):
            _emit(f"  ({format_poly(c, variables)}) * ({format_poly(g, variables)})")
    else:
        _emit("NOT MEMBER")
        _emit(f"  normal form: {format_poly(nf, variables)}")
    return EXIT_OK


def cmd_milnor(args) -> int:
    f, variables = _read_input(args)
    if f.is_zero():
        _emit("rejected: the zero polynomial")
        return EXIT_REJECTED
    milnor = _milnor(f, quasi_homogeneous_weights(f))
    if milnor is None:
        _emit("rejected: Jacobian ideal is not zero-dimensional (Milnor number is infinite)")
        return EXIT_REJECTED
    _emit(str(milnor))
    return EXIT_OK


def cmd_examples(args) -> int:
    rows = []
    records = []
    all_expected = True
    for name, text, variables, expected in BUILTIN_CORPUS:
        f = parse_poly(text, variables)
        start = time.perf_counter()
        cert = build_witness(f, variables)
        elapsed = time.perf_counter() - start
        failures = certificate_failures(cert)
        as_expected = cert.verdict == expected and not failures
        all_expected = all_expected and as_expected
        info = cert.document["input"]
        milnor = info.get("milnor_number")
        rows.append((
            name, text, str(info.get("degree", "-")), str(milnor if milnor is not None else "-"),
            cert.verdict, "ok" if as_expected else "UNEXPECTED", f"{elapsed:.2f}s",
        ))
        records.append({
            "name": name, "polynomial": text, "verdict": cert.verdict,
            "expected": expected, "certificate_valid": not failures,
            "milnor_number": milnor, "seconds": round(elapsed, 3),
        })
    if args.json:
        _emit(json.dumps(records, indent=2))
    else:
        header = ("name", "polynomial", "deg", "milnor", "verdict", "status", "time")
        widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
        for row in [header] + rows:
            _emit("  ".join(field.ljust(w) for field, w in zip(row, widths)))
    return EXIT_OK if all_expected else EXIT_INCONSISTENT


# every flag a subcommand may take; build_parser gives each subcommand only
# the ones its handler reads
FLAGS = {
    "input": {"help": "polynomial expression or path to a file with a 'vars:' header"},
    "--vars": {"help": "comma-separated variable names for inline expressions"},
    "--json": {"action": "store_true", "help": "machine-readable output"},
    "--out": {"help": "write the certificate to this path"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nakai-forge",
        description="Exact second-order derivation witnesses for quasi-homogeneous isolated hypersurface singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(handler, help, *flags):
        """Add the subcommand that the handler cmd_<name> runs, named <name>."""
        p = sub.add_parser(handler.__name__.removeprefix("cmd_"), help=help)
        p.set_defaults(handler=handler)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        return p

    add(cmd_check, "quasi-homogeneity, isolatedness, Milnor number",
        "input", "--vars", "--json")
    add(cmd_witness, "run the full pipeline and emit a certificate",
        "input", "--vars", "--json", "--out")
    verify = add(cmd_verify, "replay a certificate without searching", "--json")
    verify.add_argument("certificate", help="path to a certificate file")
    identity = add(cmd_identity, "cofactor identity residual report", "input", "--vars", "--json")
    identity.add_argument("-i", type=int, required=True)
    identity.add_argument("-j", type=int, required=True)
    identity.add_argument("-k", type=int, required=True)
    add(cmd_symmetrize, "candidate tuple, ledger, symmetric tuple", "input", "--vars", "--json")
    member = add(cmd_member, "ideal membership with cofactors", "--json")
    member.add_argument("polynomial")
    member.add_argument("--ideal", required=True, help="comma-separated generators")
    member.add_argument("--vars", required=True)
    add(cmd_milnor, "quotient dimension of the Jacobian ideal", "input", "--vars")
    add(cmd_examples, "run the built-in corpus and print a summary", "--json")
    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:  # ParseError and CertificateError are ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ResourceLimitExceeded as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCES
    except InternalInconsistencyError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
