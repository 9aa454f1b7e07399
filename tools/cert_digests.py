"""Print the sha256 of the certificate bytes of a fixed set of inputs.

The inputs are the three benchmark workloads (``perfbench/workloads.py``)
at each ``--seed``, the first seeded draw of each ``--draw`` shape, and a
list of named edge inputs (the CLI's built-in corpus, both rejections that
need an isolation decision, an unlucky prime, a functional too tall for
one prime, rational coefficients, an exponent of ten digits, a weighted
form of four variables, and three inputs the gate rejects: two variables,
and seven variables with and without unique weights).  Each input gives one ``name sha256 outcome`` line, where the
digest is that of ``write_certificate(build_witness(f, variables).document)``
and the outcome is ``verified`` when ``certificate_failures`` finds nothing
in those bytes read back, or ``failed:`` and the first failure.

Then each Jacobian of the 24-input acceptance corpus
(``workloads.acceptance_corpus()`` at its default seed) gives one
``engine/name sha256 outcome`` line: the digest is that of the text of the
reduced Groebner basis over Q and of its ``cofactors`` rows, and the
outcome is ``verified`` when every row sums exactly to its basis element
(re-multiplied with Polynomial arithmetic), or ``failed:`` and the first
element that does not.  No certificate holds a row over Q, so these lines
cover the engine's arithmetic over Q that the certificate lines do not.

Two checkouts build byte-identical certificates, and identical over-Q
bases and rows, for these inputs, and each checkout accepts every one of
them, exactly when their outputs are equal and every line reads
``verified``; a change that must keep every certificate is checked with
one ``diff`` of this tool's output in both checkouts.  The tool imports
the program from the checkout it sits in, so copy this file into the
``tools/`` of a parent checkout whose own copy predates the engine lines::

    DRAWS="--seed 60606 --seed 505 --draw n5d3 --draw n4d5 --draw n5d4 --draw n6d3"
    python3 tools/cert_digests.py $DRAWS > new.txt
    (cd ../parent && python3 tools/cert_digests.py $DRAWS) > old.txt
    diff old.txt new.txt

The draws n4d5, n5d4 and n6d3 check a change to the construction beyond
the workloads' inputs, which have n <= 4 and degree <= 4.

``tests/cert_digests.txt`` holds the output for $DRAWS, and
``tests/test_cert_digests.py`` regenerates and compares it; a change that
means to alter certificates rewrites that file in the same change.

Run it from the root of a source checkout: the program is imported from
``src/`` of that checkout, and ``perfbench/workloads.py`` is only read.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache file beside perfbench/workloads.py
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from nakai_forge.cli import BUILTIN_CORPUS  # noqa: E402
from nakai_forge.exprio import format_poly, parse_poly, read_certificate, write_certificate  # noqa: E402
from nakai_forge.groebner import buchberger, jacobian_ideal  # noqa: E402
from nakai_forge.pipeline import build_witness, certificate_failures  # noqa: E402
from nakai_forge.poly import Polynomial  # noqa: E402

XYZ = ["x", "y", "z"]
X7 = [f"x{i}" for i in range(1, 8)]
EDGE_INPUTS = [(name, text, variables) for name, text, variables, _ in BUILTIN_CORPUS] + [
    ("not-isolated", "x^2*y + z^3", XYZ),
    ("no-isolating-slice", "x^3 + x*y^3 + z^2", XYZ),
    ("unlucky-prime", "x^3 + y^3 + 2147483647*z^3", XYZ),
    ("functional-too-tall", "(200*x - y)^2*z + (300*x - z)^3", XYZ),
    ("rational-coefficients", "1/2*x^3 + 2/3*y^3 + z^3", XYZ),
    ("huge-exponent", "x^1000000000 + y^1000000000 + z^1000000000", XYZ),
    ("weighted-n4", "x^3 + y^4 + z^4 + w^6 + x*y*z*w", [*XYZ, "w"]),
    ("too-few-variables", "x^3 + y^3", XYZ[:2]),
    ("dimension-cap", " + ".join(f"{x}^3" for x in X7), X7),
    ("dimension-cap-no-weights", " + ".join([*(f"{x}^3" for x in X7), "x1^4"]), X7),
]


def digest(text: str, variables) -> str:
    """The sha256 of the input's certificate bytes and the verifier's
    outcome on them."""
    variables = list(variables)
    data = write_certificate(build_witness(parse_poly(text, variables), variables).document)
    failures = certificate_failures(read_certificate(data))
    outcome = f"failed: {failures[0]}" if failures else "verified"
    return f"{hashlib.sha256(data).hexdigest()} {outcome}"


def engine_digest(text: str, variables) -> str:
    """The sha256 of the over-Q basis of the input's Jacobian and its rows,
    and whether every row sums exactly to its basis element."""
    variables = list(variables)
    ideal = jacobian_ideal(parse_poly(text, variables))
    gb = buchberger(ideal)
    rows = list(zip(gb.basis, gb.cofactors))
    data = "\n".join(" ; ".join(format_poly(p, variables) for p in (b, *row)) for b, row in rows)
    wrong = [i for i, (b, row) in enumerate(rows)
             if sum((c * g for c, g in zip(row, ideal.generators)), Polynomial.zero(gb.n)) != b]
    outcome = f"failed: row {wrong[0]} does not sum to basis element {wrong[0]}" if wrong else "verified"
    return f"{hashlib.sha256(data.encode()).hexdigest()} {outcome}"


def inputs(seeds: list[int], draws: list[str], draw_seed: int):
    """(name, text, variables) of every input, in output order."""
    for seed in seeds:
        for workload, cases in workloads.WORKLOADS.items():
            for case in cases(seed):
                yield f"{workload}/{seed}/{case.name}", case.text, case.variables
    for shape in draws:
        n, d = map(int, re.fullmatch(r"n(\d+)d(\d+)", shape).groups())
        names = [f"x{i}" for i in range(1, n + 1)]
        f = workloads._homogeneous(random.Random(draw_seed), n, d)
        yield f"draw/{draw_seed}/{shape}", format_poly(f, names), names
    yield from ((f"edge/{name}", text, variables) for name, text, variables in EDGE_INPUTS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", default=[],
                        help="build the three benchmark workloads at this seed (repeatable)")
    parser.add_argument("--draw", action="append", default=[], metavar="nNdD",
                        help="build the first random form of N variables and degree D (repeatable)")
    parser.add_argument("--draw-seed", type=int, default=7, help="seed of the --draw forms (default 7)")
    args = parser.parse_args(argv)
    if any(re.fullmatch(r"n\d+d\d+", shape) is None for shape in args.draw):
        parser.error("--draw takes a shape such as n4d6")
    for name, text, variables in inputs(args.seed, args.draw, args.draw_seed):
        print(name, digest(text, variables), flush=True)
    for case in workloads.acceptance_corpus():
        print(f"engine/{case.name}", engine_digest(case.text, case.variables), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
