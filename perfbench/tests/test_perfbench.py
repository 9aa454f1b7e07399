"""The benchmark's own tests: generators, correctness gate, trace analysis.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
They avoid the corpus-high workload so that they finish in seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH), str(ROOT / "tests")]

import checks  # noqa: E402
import child  # noqa: E402
import layertrace as tracing  # noqa: E402
import workloads  # noqa: E402
from nakai_forge import (  # noqa: E402
    build_witness,
    certificate_failures,
    parse_poly,
    read_certificate,
    write_certificate,
)
from nakai_forge import pipeline  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _as_dict(case: workloads.Case) -> dict:
    return {"name": case.name, "text": case.text, "variables": list(case.variables),
            "verdict": case.verdict, "reason": case.reason, "milnor": case.milnor,
            "heavy": case.heavy}


def _built(case: workloads.Case) -> tuple[dict, bytes]:
    cert = build_witness(parse_poly(case.text, case.variables), list(case.variables))
    return cert.document, write_certificate(cert.document)


FERMAT = workloads.acceptance_corpus()[0]


def test_generators_reproduce_acceptance_corpus():
    from test_acceptance import NAMED_CORPUS, _random_corpus

    expected = [(name, text, list(names)) for name, text, names in NAMED_CORPUS + _random_corpus()]
    corpus = workloads.acceptance_corpus(workloads.DEFAULT_SEED)
    assert [(c.name, c.text, list(c.variables)) for c in corpus] == expected
    assert workloads.corpus_digest(corpus) == workloads.ACCEPTANCE_DIGEST
    low, high = workloads.corpus_low(workloads.DEFAULT_SEED), workloads.corpus_high(workloads.DEFAULT_SEED)
    assert tuple(low + high) == corpus
    assert [c.name for c in high] == [
        "random-16-n4d3", "random-17-n4d3", "random-18-n4d3", "random-19-n4d4"]


def test_same_seed_same_inputs_and_seeds_differ():
    assert workloads.gate_slice(5) == workloads.gate_slice(5)
    assert workloads.gate_slice(5) != workloads.gate_slice(6)


def test_axis_forms_are_singular_along_the_first_axis():
    for case in workloads.gate_slice(3):
        if case.verdict != workloads.INPUT_REJECTED:
            continue
        f = parse_poly(case.text, case.variables)
        d = case.degree
        assert f.homogeneous_degree() == d
        assert all(exp[0] < d - 1 for exp in f.terms), case.name


def test_gate_accepts_sound_certificate_and_catches_a_flipped_coefficient():
    document, data = _built(FERMAT)
    assert checks.case_problems(_as_dict(FERMAT), document, certificate_failures(read_certificate(data))) == []

    tampered = json.loads(data)
    image = tampered["symmetric_tuple"]["images"][0][0]
    run = re.search(r"\d+", image)
    tampered["symmetric_tuple"]["images"][0][0] = (
        image[:run.start()] + str(int(run.group()) + 1) + image[run.end():])
    failures = certificate_failures(read_certificate(write_certificate(tampered)))
    assert failures
    assert checks.case_problems(_as_dict(FERMAT), document, failures)


def test_gate_catches_wrong_verdict_and_wrong_milnor_number():
    document, data = _built(FERMAT)
    failures = certificate_failures(read_certificate(data))
    wrong_verdict = dict(_as_dict(FERMAT), verdict=workloads.INPUT_REJECTED, reason="not_isolated", milnor=None)
    problems = checks.case_problems(wrong_verdict, document, failures)
    assert any("verdict" in p for p in problems)
    assert any("rejection reason" in p for p in problems)
    wrong_milnor = dict(_as_dict(FERMAT), milnor=FERMAT.milnor + 1)
    assert any("Milnor" in p for p in checks.case_problems(wrong_milnor, document, failures))


def test_slice_forms_need_a_second_slice_attempt():
    for case in workloads.gate_slice(2):
        if case.verdict != workloads.WITNESS_FOUND:
            continue
        document, data = _built(case)
        assert document["change_of_coordinates"]["attempts"] >= 2, case.name
        failures = certificate_failures(read_certificate(data))
        assert checks.case_problems(_as_dict(case), document, failures) == [], case.name


def test_digit_counters():
    assert checks.decimal_digits(0) == 1
    assert checks.decimal_digits(-999) == 3
    assert checks.decimal_digits(10 ** 5000) == 5001  # past the int/str limit
    assert checks.coeff_digits_max(b'{"a": "12/34567*x^2"}') == 5


def test_trace_analysis_on_known_spans():
    spans = [
        ["pipeline.build_witness", 0.0, 10.0, -1, 0],
        ["groebner.buchberger", 1.0, 4.0, 0, 0],
        ["poly.mul", 2.0, 3.0, 1, 0],
        ["poly.mul", 5.0, 9.0, 0, 0],
        ["poly.mul", 6.0, 7.0, 3, 0],  # nested call of the same name
    ]
    assert tracing.coverage(spans, "pipeline.build_witness") == 0.7
    assert tracing.outermost_time(spans, ["poly.mul"]) == (5.0, 3)
    self_times = tracing.self_time_by_layer(spans)
    assert self_times["pipeline"] == 3.0
    assert self_times["groebner"] == 2.0
    assert self_times["poly"] == 5.0


def test_tracer_rebinds_layers_and_restores_them():
    original = pipeline.buchberger
    f = parse_poly(FERMAT.text, FERMAT.variables)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pipeline.buchberger is not original
        tracer.call("pipeline.build_witness", build_witness, f, list(FERMAT.variables))
    finally:
        tracer.uninstall()
    assert pipeline.buchberger is original
    names = {span[0] for span in tracer.spans}
    assert {"groebner.buchberger", "groebner.lift", "poly.mul", "exprio.format_poly"} <= names
    assert tracer.spans[0][3] == -1 and all(span[3] >= 0 for span in tracer.spans[1:])


def test_traced_metrics_match_the_spec():
    quartic = workloads.acceptance_corpus()[12]  # random-8-n3d4, ~0.2 s to build
    cases = [_as_dict(quartic)]
    polys = [parse_poly(quartic.text, quartic.variables)]
    runner = child.Runner(__import__("nakai_forge"), cases, polys)
    metrics = child.trace_mode(runner, None)
    assert runner.failed() == 0
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(metrics) == set(spec)
    assert metrics["trace.coverage.build_witness"] >= 0.9
    assert metrics["trace.coverage.certificate_failures"] >= 0.9
    assert metrics["groebner.buchberger_calls"] > 0


def _copy_bench(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_bench(tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "corpus-low", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_end_to_end_result_line_matches_the_spec():
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "corpus-low", "--seed", "7", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 20
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == spec
    assert all(m["value"] > 0 for m in result["metrics"].values())
