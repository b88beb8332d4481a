"""Self-test of the benchmark at smoke-test size (about a minute).

    python3 perfbench/selftest.py

Checks that:

* every workload, untraced and traced, prints exactly the metrics
  ``BENCHMARK.json`` declares for that mode, each with its declared
  unit, reads ``correct: true`` and has a failed ratio of 0;
* the output checks run: each tiny run is compared with the event
  oracle's digests stored in ``references.json``, those stored digests
  equal a fresh event-engine run, and a tampered digest fails the check;
* the record-latency computation reproduces a hand-built
  pull/dispatch/snapshot schedule;
* the host-speed meter ticks, never runs backwards, and is a plain
  host clock outside its ``running()`` block;
* in a directory that holds only ``BENCHMARK.json`` and ``perfbench/``
  the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORK_ROOT = ROOT / ".perfbench_work"
SEED = 107


class Results:
    def __init__(self) -> None:
        self.failed: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            self.failed.append(what)


def _run(args: List[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def check_metrics(results: Results, spec: dict, workload: str, trace: int) -> None:
    proc = _run(
        [str(RUN), "--workload", workload, "--size", "tiny", "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace)]
    )
    label = f"{workload} trace={trace}"
    lines = proc.stdout.strip().splitlines()
    results.expect(proc.returncode == 0 and bool(lines), f"{label}: exits 0 ({proc.stderr[-300:]})")
    if proc.returncode != 0 or not lines:
        return
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    results.expect(printed == declared, f"{label}: every declared metric printed with its unit")
    results.expect(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{label}: result has exactly the contract's keys",
    )
    results.expect(result["correct"] is True, f"{label}: outputs correct")
    results.expect(
        result["failed"] == 0 and result["attempted"] >= 1, f"{label}: failed ratio 0"
    )
    oracle_lines = [l for l in lines if "digest equals the event oracle" in l]
    if not trace:
        results.expect(
            bool(oracle_lines) and all(l.startswith("check ok") for l in oracle_lines),
            f"{label}: compared with the event oracle's digests",
        )


def check_references(results: Results) -> None:
    from perfbench import checks
    from perfbench.make_references import SIMULATED
    from perfbench.workloads import oracle_digests

    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_ROOT))
    try:
        for name in SIMULATED:
            stored = checks.reference_for(name, "tiny", SEED)
            fresh = oracle_digests(name, "tiny", SEED, work)
            results.expect(stored == fresh, f"{name}: stored tiny reference is the event oracle's")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log = checks.CheckLog()
    checks.compare_to_reference(log, "tampered", {"packets": "0" * 32}, {"packets": "1" * 32})
    results.expect(not log.correct, "a digest that differs from the oracle's fails the run")


def check_latency(results: Results) -> None:
    from perfbench.checks import record_latencies

    pulls = [0.0, 1.0, 2.0, 3.0, 4.0]
    # Snapshot at t=2.5 covers records 0-1, at t=5 records 2-3, at t=6 record 4.
    snapshots = [(2.5, 2), (5.0, 4), (6.0, 5)]
    got = record_latencies(pulls, snapshots)
    results.expect(got == [2.5, 1.5, 3.0, 2.0, 2.0], f"latency schedule reproduced ({got})")
    # A snapshot that dispatched nothing new adds no samples.
    got = record_latencies([0.0, 1.0], [(1.5, 0), (2.0, 2)])
    results.expect(got == [2.0, 1.0], f"empty snapshot adds no latency ({got})")


def check_meter(results: Results) -> None:
    import time

    from perfbench.hostspeed import METER, NOMINAL_CHUNK_S, scale_for

    results.expect(scale_for(NOMINAL_CHUNK_S) == 1.0, "nominal chunk: reference = host seconds")
    results.expect(scale_for(2 * NOMINAL_CHUNK_S) < 0.5, "a host at half speed: less than half")
    with METER.running():
        primed = len(METER.chunks)
        readings = [METER.now()]
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            readings.append(METER.now())
        ticked = len(METER.chunks) - primed
    results.expect(ticked >= 3, f"the meter ticks during a busy loop ({ticked} chunks in 0.3 s)")
    results.expect(
        all(b >= a for a, b in zip(readings, readings[1:])), "reference time never runs backwards"
    )
    t0, h0 = METER.now(), time.perf_counter()
    time.sleep(0.05)
    rate = (METER.now() - t0) / (time.perf_counter() - h0)
    results.expect(abs(rate - 1.0) < 0.01, f"outside running() the clock is the host's ({rate})")


def check_bare_directory(results: Results) -> None:
    bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=WORK_ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(
            ROOT / "perfbench", bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = _run(
            ["perfbench/run.py", "--workload", "f7_1k_dophy", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare,
        )
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        results.expect(
            proc.returncode != 0 and not last.startswith("{"),
            f"bare directory: exits {proc.returncode} without a result",
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK_ROOT.mkdir(exist_ok=True)
    results = Results()
    check_latency(results)
    check_meter(results)
    check_references(results)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_metrics(results, spec, workload, trace)
    check_bare_directory(results)
    print(f"{len(results.failed)} failed")
    return 1 if results.failed else 0


if __name__ == "__main__":
    sys.exit(main())
