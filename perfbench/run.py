"""Witness/verify benchmark for nakai-forge.

    python3 perfbench/run.py --workload corpus-low --seed 60606 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The parent process generates the inputs from ``--seed``, then
runs the workload in fresh child processes (``perfbench/child.py``), one at
a time: several that only set up, for ``setup_s``, and one that builds and
verifies.  ``--trace 1`` instead runs one child that makes an untraced and
a traced pass and reports the per-layer metrics.  Every metric is printed
as ``name value unit``; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # every child is done, or killed, by then


def run_child(mode: str, cases: list[dict], seconds: float, deadline: float,
              trace_out: Path | None = None) -> dict:
    """Start child.py, feed it the inputs, wait for its JSON result."""
    argv = [sys.executable, str(HERE / "child.py")]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    payload = json.dumps({"mode": mode, "cases": cases, "seconds": seconds})
    t0 = time.perf_counter()
    argv += ["--t0", repr(t0)]
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(payload, timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"error: {mode} child overran the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise SystemExit(f"error: {mode} child exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "nakai_forge" / "__init__.py").is_file():
        print(f"error: no nakai_forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    cases = workloads.WORKLOADS[args.workload](seed)
    generation_problems = []
    if seed == workloads.DEFAULT_SEED and args.workload.startswith("corpus-"):
        corpus = workloads.acceptance_corpus(seed)
        if workloads.corpus_digest(corpus) != workloads.ACCEPTANCE_DIGEST:
            generation_problems = [c.name for c in cases]
    payload = [
        {"name": c.name, "text": c.text, "variables": list(c.variables),
         "verdict": c.verdict, "reason": c.reason, "milnor": c.milnor, "heavy": c.heavy}
        for c in cases
    ]

    # metric names and units come from the spec, so the two cannot drift apart
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_out = out_dir / f"spans-{args.workload}-{seed}.jsonl"
        result = run_child("trace", payload, args.seconds, deadline, trace_out)
        values = result["per_layer"]
    else:
        setup = [run_child("setup", payload, 0, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
        result = run_child("run", payload, args.seconds, deadline)
        setup.append(result["setup_s"])
        values = dict(result, setup_s=statistics.median(setup))
    problems = dict(result["problems"])
    for name in generation_problems:
        problems.setdefault(name, []).append("input differs from the acceptance corpus")
    attempted, failed = result["attempted"], len(problems)
    if not args.trace:
        values["pass_ratio"] = (attempted - failed) / attempted
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in wanted}

    print(f"workload {args.workload}  seed {seed}  inputs {attempted}  trace {args.trace}")
    for name, problem_list in problems.items():
        for problem in problem_list:
            print(f"FAIL {name}: {problem}")
    if not args.trace:
        print(f"  {result['passes']} timed passes, {len(setup)} set-ups")
    print(f"  {'fail_ratio':<44} {failed / attempted:>16.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
