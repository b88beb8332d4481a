"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload f7_1k_dophy --seed 107 --seconds 10 --trace 0

Run from anywhere; the repository root is this file's parent directory.
With ``--trace 0`` the last line of standard output is a JSON object
with every end-to-end metric named in ``BENCHMARK.json``; with
``--trace 1`` it carries every per-layer metric instead. Lines before it
give the run envelope (commit, ``code_version()``, cores, Python and
numpy versions, workload config, seed), the output checks and, for a
traced run, every span's total and self time. ``--ledger PATH`` also
appends the envelope, the notes and the result to a JSONL ledger.
``--size tiny`` runs the smoke-test size of the workload (see ``selftest.py``).

Exit status is 0 when the run completed (its checks may still have
failed, which the result reports as ``correct: false``), 1 when the
workload raised, and 2 when the program or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def envelope(workload: Any, size: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """What a recorded run needs to be compared with another."""
    import numpy

    from repro.exec import code_version

    from perfbench.workloads import config_of

    return {
        "schema": 1,
        "workload": workload.name,
        "commit": _git_commit(),
        "code_version": code_version(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "config": config_of(workload, size),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def run_workload(name: str, size: str, seed: int, seconds: float, trace: bool, work: Path):
    """Run one workload; returns (outcome, tracer or None)."""
    from perfbench import workloads as w

    workload = w.WORKLOADS[name]
    params = workload.sizes[size]
    if workload.kind == "f7":
        if trace:
            return w.trace_f7(params, seed, size, name)
        return w.run_f7(params, seed, seconds, size, name), None
    if workload.kind == "sweep":
        if trace:
            return w.trace_sweep(params, seed, size, name, work)
        return w.run_sweep(params, seed, seconds, size, name, work), None
    if trace:
        return w.trace_stream(params, seed, size, name, work)
    return w.run_stream(params, seed, seconds, size, name, work), None


def result_line(
    outcome: Any, tracer: Any, declared: Dict[str, str]
) -> Tuple[Dict[str, Any], list]:
    """The final JSON object, plus a list of metric-contract problems."""
    from perfbench.spans import layer_metrics

    metrics = layer_metrics(tracer) if tracer is not None else outcome.metrics
    problems = [
        f"metric {k} printed as {metrics[k][1]} but declared as {unit}"
        for k, unit in declared.items()
        if k in metrics and metrics[k][1] != unit
    ]
    problems += [f"metric {k} declared but not measured" for k in declared if k not in metrics]
    result = {
        "correct": outcome.log.correct and not problems,
        "attempted": max(1, int(outcome.attempted)),
        "failed": int(outcome.failed) + outcome.log.failures,
        "metrics": {
            k: {"value": float(metrics[k][0]), "unit": metrics[k][1]}
            for k in declared
            if k in metrics
        },
    }
    return result, problems


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=107)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--ledger", help="append the envelope, notes and result to this JSONL file")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no program (src/repro) or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.spans import span_table
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    trace = bool(args.trace)

    env = envelope(WORKLOADS[args.workload], args.size, args.seed, args.seconds, trace)
    print("envelope " + json.dumps(env, sort_keys=True), flush=True)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        outcome, tracer = run_workload(
            args.workload, args.size, args.seed, args.seconds, trace, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in outcome.notes + outcome.log.lines():
        print(line)
    if tracer is not None:
        print("\n".join(span_table(tracer)))
    result, problems = result_line(outcome, tracer, declared)
    for problem in problems:
        print(f"check FAIL {problem}")
    print(f"failed_ratio {result['failed']}/{result['attempted']}")
    if args.ledger:
        with open(args.ledger, "a", encoding="utf-8") as fh:
            # The notes carry the repetitions and the host speed they ran at.
            record = {"envelope": env, "notes": outcome.notes, "result": result}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
