"""One workload in a fresh process: set up, build and verify, check, report.

Reads ``{"cases": [...], "seconds": s, "mode": "setup"|"run"|"trace"}`` as
JSON on stdin and writes one JSON object on stdout.  ``--t0`` is the
parent's ``perf_counter()`` just before it started this process (the clock
is CLOCK_MONOTONIC on Linux, shared by all processes), so ``setup_s``
covers interpreter start, ``import nakai_forge`` and parsing the inputs.

Modes:
  setup  stop once the inputs are parsed and report ``setup_s``.
  run    untraced passes over every input until ``seconds`` have gone.  If
         only one pass fits, every input not marked heavy is built once
         more, so that its certificate bytes can be compared.
  trace  one untraced pass, then one traced pass of the same inputs; the
         per-layer numbers come from the traced pass, and the bytes of the
         two builds of every input are compared.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import SECTION_NAMES, case_problems, coeff_digits_max, poly_digits, section_bytes  # noqa: E402
from layertrace import MODULES, Tracer, coverage, outermost_time, self_time_by_layer  # noqa: E402


class Runner:
    """Builds and verifies the inputs, collecting problems per input."""

    def __init__(self, api, cases, polys):
        self.api = api
        self.cases = cases
        self.polys = polys
        self.tracer = None  # a Tracer while a traced pass runs
        self.problems: dict[int, list[str]] = {i: [] for i in range(len(cases))}
        self.digests: dict[int, str] = {}
        self.documents: dict[int, dict] = {}
        self.data: dict[int, bytes] = {}

    def _call(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def build(self, i: int) -> float:
        """build_witness + write_certificate; returns the wall time."""
        case, api = self.cases[i], self.api
        start = perf_counter()
        cert = self._call("pipeline.build_witness", api.build_witness, self.polys[i], case["variables"])
        data = self._call("exprio.write_certificate", api.write_certificate, cert.document)
        elapsed = perf_counter() - start
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(i, digest) != digest:
            self.problems[i].append("certificate bytes differ between repeated builds")
        self.documents[i], self.data[i] = cert.document, data
        return elapsed

    def verify(self, i: int) -> float:
        """read_certificate + certificate_failures; returns the wall time."""
        api = self.api
        start = perf_counter()
        document = self._call("exprio.read_certificate", api.read_certificate, self.data[i])
        failures = self._call("pipeline.certificate_failures", api.certificate_failures, document)
        elapsed = perf_counter() - start
        self.problems[i].extend(case_problems(self.cases[i], self.documents[i], failures))
        return elapsed

    def guarded(self, i: int, step) -> float:
        try:
            if self.tracer is not None:
                self.tracer.input_id = i
            return step(i)
        except Exception as exc:  # an input that crashes the program is a failed check
            self.problems[i].append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return 0.0

    def full_pass(self, inspect=None) -> tuple[float, float]:
        """Build and verify every input; ``inspect(i)`` runs untimed between."""
        witness = verify = 0.0
        for i in range(len(self.cases)):
            witness += self.guarded(i, self.build)
            if i in self.data:
                if inspect is not None:
                    inspect(i)
                verify += self.guarded(i, self.verify)
            self.documents.pop(i, None)
            self.data.pop(i, None)
        return witness, verify

    def rebuild(self, indices) -> None:
        """Build again, untimed, only to compare certificate bytes."""
        for i in indices:
            self.guarded(i, self.build)
            self.documents.pop(i, None)
            self.data.pop(i, None)

    def failed(self) -> int:
        return sum(1 for p in self.problems.values() if p)


def run_mode(runner: Runner, seconds: float) -> dict:
    sizes = {"cert_bytes": 0, "coeff_digits_max": 0}

    def measure(i):  # sizes repeat exactly, so the first pass records them
        sizes["cert_bytes"] += len(runner.data[i])
        sizes["coeff_digits_max"] = max(sizes["coeff_digits_max"], coeff_digits_max(runner.data[i]))

    start = perf_counter()
    witness, verify = runner.full_pass(measure)
    witness_samples, verify_samples = [witness], [verify]
    while perf_counter() - start < seconds:
        witness, verify = runner.full_pass()
        witness_samples.append(witness)
        verify_samples.append(verify)
    if len(verify_samples) == 1:
        runner.rebuild([i for i, case in enumerate(runner.cases) if not case["heavy"]])
    return {
        "witness_s": statistics.median(witness_samples),
        "verify_s": statistics.median(verify_samples),
        **sizes,
        "passes": len(verify_samples),
    }


def trace_mode(runner: Runner, out_path: Path | None) -> dict:
    untraced_w, untraced_v = runner.full_pass()

    obs = {"basis_len_max": 0, "cofactor_digits_max": 0, "lift_digits_max": 0,
           "parse_chars": 0, "format_chars": 0, "adjustments": 0,
           "slice_attempts": 0, "slices": 0}
    pending_bases, pending_lifts = [], []
    sections: dict[str, int] = {}

    def on_buchberger(args, gb):
        obs["basis_len_max"] = max(obs["basis_len_max"], len(gb.basis))
        pending_bases.append(gb)

    def on_lift(args, cofactors):
        if cofactors is not None:
            pending_lifts.append(cofactors)

    def on_parse(args, result):
        obs["parse_chars"] += len(args[0])

    def on_format(args, text):
        obs["format_chars"] += len(text)

    def on_symmetrize(args, result):
        obs["adjustments"] += len(result[1])

    def on_slice(args, choice):
        obs["slice_attempts"] += choice.attempts
        obs["slices"] += 1

    def inspect(i):
        # size counters are read outside the spans, then the objects dropped
        for gb in pending_bases:
            obs["cofactor_digits_max"] = max(
                obs["cofactor_digits_max"], poly_digits(c for row in gb.cofactors for c in row))
        for cofactors in pending_lifts:
            obs["lift_digits_max"] = max(obs["lift_digits_max"], poly_digits(cofactors))
        pending_bases.clear()
        pending_lifts.clear()
        for name, size in section_bytes(runner.documents[i]).items():
            sections[name] = sections.get(name, 0) + size

    tracer = Tracer()
    tracer.install({
        "groebner.buchberger": on_buchberger,
        "groebner.lift": on_lift,
        "exprio.parse_poly": on_parse,
        "exprio.format_poly": on_format,
        "derivations.symmetrize": on_symmetrize,
        "pipeline.generic_slice_search": on_slice,
    })
    runner.tracer = tracer
    try:
        traced_w, traced_v = runner.full_pass(inspect)
    finally:
        tracer.uninstall()
        runner.tracer = None

    spans = tracer.spans
    if out_path is not None:
        tracer.write(out_path)

    def seconds(*names, under=None):
        return outermost_time(spans, names, under)[0]

    def calls(name):
        return outermost_time(spans, (name,))[1]

    metrics = {
        "groebner.buchberger_s": seconds("groebner.buchberger"),
        "groebner.buchberger_calls": calls("groebner.buchberger"),
        "groebner.basis_len_max": obs["basis_len_max"],
        "groebner.cofactor_digits_max": obs["cofactor_digits_max"],
        "groebner.lift_s": seconds("groebner.lift"),
        "groebner.lift_calls": calls("groebner.lift"),
        "groebner.lift_digits_max": obs["lift_digits_max"],
        "groebner.normal_form_s": seconds("groebner.normal_form"),
        "groebner.replay_s": seconds("groebner.reduce_by_basis", "groebner.s_polynomial"),
        "groebner.spairs_replayed": calls("groebner.s_polynomial"),
        "exprio.parse_s": seconds("exprio.parse_poly"),
        "exprio.parse_chars": obs["parse_chars"],
        "exprio.format_s": seconds("exprio.format_poly"),
        "exprio.format_chars": obs["format_chars"],
        "exprio.json_s": seconds("exprio.write_certificate", "exprio.read_certificate"),
        "derivations.symmetrize_s": seconds("derivations.symmetrize"),
        "derivations.adjustments": obs["adjustments"],
        "derivations.lift_to_diff2_s": seconds("derivations.lift_to_diff2"),
        "derivations.principal_cofactor_s": seconds("derivations.principal_cofactor"),
        "derivations.replay_s": seconds(
            "derivations.replay_ledger", "derivations.theta2_extract",
            "derivations.DiffOp2.apply", "derivations.Derivation1.apply",
            under="pipeline.certificate_failures"),
        "minors.cofactor_s": seconds("minors.hessian", "minors.algebraic_cofactor", "minors.determinant"),
        "poly.mul_s": seconds("poly.mul"),
        "poly.mul_calls": calls("poly.mul"),
        "poly.substitute_s": seconds("poly.substitute"),
        "pipeline.slice_search_s": seconds("pipeline.generic_slice_search"),
        "pipeline.slice_attempts": obs["slice_attempts"],
        "pipeline.slice_useful_ratio": obs["slices"] / obs["slice_attempts"] if obs["slice_attempts"] else 0.0,
        "pipeline.saito_s": seconds("pipeline.saito_check"),
    }
    self_times = self_time_by_layer(spans)
    for layer in MODULES:
        metrics[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    for name in SECTION_NAMES:
        metrics[f"exprio.section_bytes.{name}"] = sections.get(name, 0)
    metrics["trace.coverage.build_witness"] = coverage(spans, "pipeline.build_witness")
    metrics["trace.coverage.certificate_failures"] = coverage(spans, "pipeline.certificate_failures")
    untraced = untraced_w + untraced_v
    metrics["trace.overhead_ratio"] = (traced_w + traced_v) / untraced if untraced else 0.0
    return metrics


def main(argv: list[str]) -> int:
    t0 = float(argv[argv.index("--t0") + 1])
    trace_out = argv[argv.index("--trace-out") + 1] if "--trace-out" in argv else None
    payload = json.load(sys.stdin)
    import nakai_forge as api

    cases = payload["cases"]
    polys = [api.parse_poly(c["text"], c["variables"]) for c in cases]
    setup_s = perf_counter() - t0
    result = {"setup_s": setup_s}
    if payload["mode"] != "setup":
        runner = Runner(api, cases, polys)
        if payload["mode"] == "run":
            result.update(run_mode(runner, payload["seconds"]))
        else:
            result["per_layer"] = trace_mode(runner, Path(trace_out) if trace_out else None)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["attempted"] = len(cases)
        result["failed"] = runner.failed()
        result["problems"] = {cases[i]["name"]: p for i, p in runner.problems.items() if p}
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
