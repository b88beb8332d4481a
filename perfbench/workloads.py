"""The four workloads: what each runs, times, checks and reports.

Every workload follows the same protocol. Set-up (scenario construction,
or trace load plus sink construction) is timed apart from the timed
phase that carries packets end to end. A first, untimed repetition of
the unit warms the process up and gives the peak memory: it keeps
nothing for the checks, whose own bookkeeping (decode pairs, the batch
estimator) comes later. Then the unit is repeated until ``seconds`` of
timed phase have passed, at least twice, and timings are medians over
those repetitions. The f7 workloads cycle through several networks
(``F7Size.networks``) and take the median over networks of each one's
figures. Deterministic outputs (MAE, bits per hop, digests) must repeat
exactly on the same inputs; a repetition that differs fails the run.

Every time in the untraced runs is read from
:data:`perfbench.hostspeed.METER`, in reference seconds: host seconds
corrected for the shared host's drifting speed (see ``hostspeed.py``).

With ``trace=True`` a run instead makes one untraced and one traced
repetition of the unit: the output checks run on the untraced one,
per-layer metrics come from the traced one, and the tracing overhead is
the difference of their wall times. The sweep is traced in-process
(``jobs=1`` for both repetitions), because spans recorded inside pool
workers never reach the parent.

Callers put ``src/`` on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import gc
import itertools
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.metrics import compare_estimates
from repro.core.dophy import DophySystem
from repro.core.estimator import PerLinkEstimator
from repro.exec.parallel import ParallelRunner
from repro.stream import (
    DirectoryStore,
    SinkConfig,
    StreamingSink,
    bundle_from_trace,
    feed_estimator,
)
from repro.utils.rng import spawn_seeds
from repro.workloads import (
    dophy_approach,
    dynamic_rgg_scenario,
    run_replicated,
    tree_ratio_approach,
)
from repro.workloads.scenario_cache import ScenarioCache

from perfbench import checks
from perfbench.hostspeed import METER, scale_for
from perfbench.spans import Tracer, counting_store_bytes

#: Links must carry at least this many decoded samples to enter ``mae``.
#: At 20 the MAE's spread across seeds was 13% on f7_1k_dophy, at 1 it
#: was 2%: the many sparsely observed links average out.
MAE_MIN_SUPPORT = 1

#: Set-up time sampled after each repetition: extra set-ups are built and
#: discarded until this much. Short set-ups thus get more samples, taken
#: across the whole run like the repetitions, and their median steadies.
SETUP_SECONDS_PER_REP = 0.25


@dataclass(frozen=True)
class F7Size:
    """A dynamic random-geometric F7 network (array engine)."""

    nodes: int
    duration: float
    traffic_period: float
    churn_noise: float = 0.4
    #: Networks (topologies from distinct seeds) a run cycles through.
    #: Its timings are medians over them, so no single network's shape
    #: sets them: across seeds, one 5000-node network's p99 spread 20%,
    #: and now and then a seed gives a network that delivers a third less.
    networks: int = 1


@dataclass(frozen=True)
class SweepSize:
    network: F7Size
    replicates: int
    jobs: int


@dataclass(frozen=True)
class StreamSize:
    #: The network whose traces are replayed; its ``networks`` is the
    #: number of traces (networks) a run cycles through.
    network: F7Size
    n_shards: int = 4


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    #: "full" is the benchmark; "tiny" is the smoke-test size.
    sizes: Dict[str, Any]


#: Every timed unit is a few seconds long, so one run holds several and
#: their median damps the host's second-to-second speed swings.
F7_1K = F7Size(nodes=1000, duration=20.0, traffic_period=8.0, networks=5)
F7_TINY = F7Size(nodes=60, duration=60.0, traffic_period=8.0, networks=2)

WORKLOADS: Dict[str, Workload] = {
    "f7_1k_dophy": Workload("f7_1k_dophy", "f7", {"full": F7_1K, "tiny": F7_TINY}),
    "f7_5k_sparse": Workload(
        "f7_5k_sparse",
        "f7",
        {
            "full": F7Size(nodes=5000, duration=5.0, traffic_period=30.0, networks=3),
            "tiny": F7Size(nodes=150, duration=30.0, traffic_period=30.0, networks=2),
        },
    ),
    "sweep_rgg_cached": Workload(
        "sweep_rgg_cached",
        "sweep",
        {
            "full": SweepSize(F7Size(nodes=300, duration=20.0, traffic_period=8.0), 4, 2),
            "tiny": SweepSize(F7Size(nodes=40, duration=30.0, traffic_period=8.0), 4, 2),
        },
    ),
    # Replays f7_1k_dophy's trace, so its packet stream shares that reference.
    "stream_replay": Workload(
        "stream_replay",
        "stream",
        {
            "full": StreamSize(replace(F7_1K, networks=3)),
            "tiny": StreamSize(F7_TINY),
        },
    ),
}


@dataclass
class Outcome:
    """Everything one run reports."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    log: checks.CheckLog = field(default_factory=checks.CheckLog)
    notes: List[str] = field(default_factory=list)


def scenario_for(size: F7Size, engine: str = "array"):
    return dynamic_rgg_scenario(
        size.nodes,
        churn_noise=size.churn_noise,
        duration=size.duration,
        traffic_period=size.traffic_period,
    ).with_config(engine=engine)


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident memory so far, in MB. Runs read it after their
    untimed first repetition, so the figure depends neither on how many
    fit in a run nor on the host-speed meter's working set."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[round(q * (len(ordered) - 1))]


def _timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    # Collect the previous repetition's garbage outside the timed window.
    gc.collect()
    t0 = METER.now()
    value = fn()
    return METER.now() - t0, value


def _timing_metrics(
    out: Outcome, setups: Sequence[float], rates: Sequence[float], latencies_ms: Sequence[Sequence[float]]
) -> None:
    """Medians over repetitions: set-up, throughput, each repetition's p50/p99."""
    out.metrics["setup_s"] = (_median(setups), "s")
    out.metrics["pkts_per_s"] = (_median(rates), "1/s")
    out.metrics["record_latency_p50_ms"] = (
        _median([_percentile(s, 0.50) for s in latencies_ms]),
        "ms",
    )
    out.metrics["record_latency_p99_ms"] = (
        _median([_percentile(s, 0.99) for s in latencies_ms]),
        "ms",
    )


def network_seeds(seed: int, networks: int) -> List[int]:
    """The networks an f7 run cycles through: ``seed`` itself (the one
    checked against the event oracle) and ones derived from it."""
    return [seed, *spawn_seeds(seed, networks - 1)]


def _network_timing_metrics(
    out: Outcome, setups: Sequence[float], runs: Sequence[Any], count: Callable[[Any], int]
) -> None:
    """Each network's throughput (``count`` over its median repetition
    time) and median over its repetitions of their latency percentiles,
    then the median over networks. ``runs`` have ``seed``, ``timed_s``
    and ``latencies_ms``."""
    by_net: Dict[int, List[Any]] = {}
    for run in runs:
        by_net.setdefault(run.seed, []).append(run)
    rates, p50, p99 = [], [], []
    for reps in by_net.values():
        rates.append(count(reps[0]) / _median([r.timed_s for r in reps]))
        p50.append(_median([_percentile(r.latencies_ms, 0.50) for r in reps]))
        p99.append(_median([_percentile(r.latencies_ms, 0.99) for r in reps]))
    out.metrics["setup_s"] = (_median(setups), "s")
    out.metrics["pkts_per_s"] = (_median(rates), "1/s")
    out.metrics["record_latency_p50_ms"] = (_median(p50), "ms")
    out.metrics["record_latency_p99_ms"] = (_median(p99), "ms")


def _check_repeats(out: Outcome, label: str, digests: List[Any]) -> None:
    out.log.check(
        f"{label}: {len(digests)} repetitions give identical digests",
        all(d == digests[0] for d in digests),
    )


def _setup_samples(build: Callable[[], Any], have: Sequence[float] = ()) -> List[float]:
    """One repetition's set-up samples: ``have`` topped up with timed,
    discarded ``build()`` calls to SETUP_SECONDS_PER_REP."""
    samples = list(have)
    while sum(samples) < SETUP_SECONDS_PER_REP:
        samples.append(_timed(build)[0])
    return samples


def _setup_note(setups: Sequence[float]) -> str:
    return f"{len(setups)} set-ups, {min(setups):.3f}-{max(setups):.3f} s"


def _set_walls(tracer: Tracer, untraced_s: float, traced_s: float) -> None:
    tracer.untraced_wall_s = untraced_s
    tracer.traced_wall_s = traced_s


# -- the sink-side probe (f7 and sweep) -----------------------------------------


class SinkProbe:
    """Times Dophy's sink hand-off of each delivered packet.

    The hand-off is ``DophySystem.on_packet_delivered``: serialize,
    decode, estimator add and model observe. Its duration, less any
    cyclic-GC pause inside it, is the record latency of the f7 and sweep
    workloads. The pauses are left out because a collection is paid by
    whichever hand-off happens to cross the allocation threshold: about
    1% of hand-offs do, so with them the p99 swung between 0.9 and 2 ms
    on one 5000-node network. Their cost still counts in ``pkts_per_s``.

    With ``keep_pairs`` the probe also keeps each packet with what the
    sink decoded from it, for the codec round-trip check. With ``dump_dir`` every ``report()`` writes
    the latencies gathered so far to a file there and clears them, which
    is how pool workers (forked after the probe is installed) hand their
    samples back, with the host-speed meter's chunk times.
    """

    def __init__(self, keep_pairs: bool = False, dump_dir: Optional[Path] = None):
        self.latencies: List[float] = []
        self.decoded: List[Any] = []
        self.pairs: List[Tuple[Any, Any]] = []
        self.keep_pairs = keep_pairs
        self.dump_dir = dump_dir
        self._dumps = 0

    def watch(self, dophy: DophySystem) -> None:
        if self.keep_pairs:
            dophy.add_decode_listener(lambda decoded, t: self.decoded.append(decoded))

    @contextmanager
    def installed(self) -> Iterator["SinkProbe"]:
        delivered = DophySystem.__dict__["on_packet_delivered"]
        report = DophySystem.__dict__["report"]
        probe = self
        clock = METER.now
        # [seconds of GC pause so far, start of the current pause]
        gc_paused = [0.0, 0.0]

        def on_gc(phase: str, info: Any) -> None:
            if phase == "start":
                gc_paused[1] = clock()
            else:
                gc_paused[0] += clock() - gc_paused[1]

        def on_packet_delivered(dophy: DophySystem, packet: Any, t: float) -> None:
            n = len(probe.decoded)
            paused = gc_paused[0]
            t0 = clock()
            delivered(dophy, packet, t)
            probe.latencies.append(clock() - t0 - (gc_paused[0] - paused))
            if probe.keep_pairs and len(probe.decoded) > n:
                probe.pairs.append((packet, probe.decoded[-1]))

        def report_and_dump(dophy: DophySystem) -> Any:
            result = report(dophy)
            if probe.dump_dir is not None:
                probe._dumps += 1
                for kind, values in (("lat", probe.latencies), ("chunk", METER.chunks)):
                    out = probe.dump_dir / f"{kind}-{os.getpid()}-{probe._dumps}.txt"
                    out.write_text("\n".join(map(repr, values)), encoding="utf-8")
                    values.clear()
            return result

        DophySystem.on_packet_delivered = on_packet_delivered
        DophySystem.report = report_and_dump
        gc.callbacks.append(on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(on_gc)
            DophySystem.on_packet_delivered = delivered
            DophySystem.report = report

    def read_dumps(self, kind: str = "lat") -> List[float]:
        assert self.dump_dir is not None
        return [
            float(x)
            for path in sorted(self.dump_dir.glob(f"{kind}-*.txt"))
            for x in path.read_text(encoding="utf-8").split()
        ]


# -- f7: one simulation with Dophy attached --------------------------------------


@dataclass
class F7Run:
    seed: int
    setup_s: float
    timed_s: float
    delivered: int
    latencies_ms: List[float]
    digests: Dict[str, str]
    mae: float
    bits_per_hop: float
    decode_failures: int
    unaccounted: int
    #: ``None`` when the repetition kept no decode pairs to check.
    roundtrip_errors: Optional[List[str]]


def _f7_once(scenario: Any, seed: int, keep_pairs: bool) -> F7Run:
    probe = SinkProbe(keep_pairs=keep_pairs)
    dophy = DophySystem()
    probe.watch(dophy)
    with probe.installed():
        setup_s, sim = _timed(lambda: scenario.make_simulation(seed, [dophy]))

        def carry() -> Tuple[Any, Any]:
            result = sim.run()
            return result, dophy.report()

        timed_s, (result, report) = _timed(carry)
    delivered = result.delivered_packets
    accuracy = compare_estimates(
        {l: e.loss for l, e in report.estimates.items()},
        result.ground_truth.true_loss_map(kind="empirical"),
        method="dophy",
        min_support=MAE_MIN_SUPPORT,
        support={l: e.n_samples for l, e in report.estimates.items()},
    )
    errors = None
    if keep_pairs:
        errors = checks.codec_roundtrip_errors(probe.pairs)
        if len(probe.pairs) != report.packets_decoded:
            errors.append(f"{len(probe.pairs)} pairs for {report.packets_decoded} decodes")
    return F7Run(
        seed=seed,
        setup_s=setup_s,
        timed_s=timed_s,
        delivered=len(delivered),
        latencies_ms=[x * 1e3 for x in probe.latencies],
        digests={
            "packets": checks.packets_digest(result.packets),
            "estimates": checks.estimates_digest(report.estimates),
            "bits": checks.bits_digest(report),
        },
        mae=float(accuracy.mae),
        bits_per_hop=report.mean_bits_per_hop,
        decode_failures=report.decode_failures,
        unaccounted=len(delivered)
        - report.packets_decoded
        - report.decode_failures
        - report.duplicate_deliveries,
        roundtrip_errors=errors,
    )


def _f7_checks(out: Outcome, name: str, size_name: str, seed: int, runs: List[F7Run]) -> None:
    """Checks on the repetitions; the first is on network ``seed`` and
    one of them kept its decode pairs."""
    first = runs[0]
    errors = next(r.roundtrip_errors for r in runs if r.roundtrip_errors is not None)
    out.log.check(
        f"{name}: every decoded annotation matches its packet's true hops",
        not errors,
        "; ".join(errors[:3]),
    )
    unaccounted = sum(r.unaccounted for r in runs)
    out.log.check(
        f"{name}: decoded + failed + duplicates == delivered, every repetition",
        unaccounted == 0,
        f"{unaccounted} unaccounted",
    )
    failures = sum(r.decode_failures for r in runs)
    out.log.check(f"{name}: no decode failures", failures == 0, f"{failures}")
    for net in sorted({r.seed for r in runs}):
        _check_repeats(out, f"{name} network {net}", [r.digests for r in runs if r.seed == net])
    checks.compare_to_reference(
        out.log, name, first.digests, checks.reference_for(name, size_name, seed)
    )


def run_f7(size: F7Size, seed: int, seconds: float, size_name: str, name: str) -> Outcome:
    out = Outcome()
    scenario = scenario_for(size)
    networks = network_seeds(seed, size.networks)
    first = _f7_once(scenario, seed, keep_pairs=False)
    peak = peak_rss_mb()
    runs: List[F7Run] = []
    setups: List[float] = []
    with METER.running():
        while len(runs) < len(networks) or sum(r.timed_s for r in runs) < seconds:
            net = networks[len(runs) % len(networks)]
            runs.append(_f7_once(scenario, net, keep_pairs=not runs))
            setups += _setup_samples(lambda: scenario.make_simulation(net), [runs[-1].setup_s])
    _f7_checks(out, name, size_name, seed, [first] + runs)
    _network_timing_metrics(out, setups, runs, lambda r: r.delivered)
    out.metrics["peak_rss_mb"] = (peak, "MB")
    out.metrics["mae"] = (first.mae, "loss")
    out.metrics["bits_per_hop"] = (first.bits_per_hop, "bit")
    per_network = runs[: len(networks)]
    out.attempted = sum(r.delivered for r in per_network)
    out.failed = sum(r.decode_failures for r in per_network)
    out.notes.append(
        f"{len(runs)} timed repetitions over networks {networks} "
        f"({[r.delivered for r in per_network]} delivered packets); "
        f"timed {[round(r.timed_s, 3) for r in runs]} s; "
        f"{_setup_note(setups)}; {METER.describe()}"
    )
    return out


def trace_f7(size: F7Size, seed: int, size_name: str, name: str) -> Tuple[Outcome, Tracer]:
    scenario = scenario_for(size)
    out = Outcome()
    plain = _f7_once(scenario, seed, keep_pairs=True)
    _f7_checks(out, name, size_name, seed, [plain])
    tracer = Tracer()
    with tracer.installed():
        traced = _f7_once(scenario, seed, keep_pairs=False)
    _check_repeats(out, f"{name} traced and untraced", [plain.digests, traced.digests])
    out.attempted = traced.delivered
    out.failed = traced.decode_failures
    _set_walls(tracer, plain.setup_s + plain.timed_s, traced.setup_s + traced.timed_s)
    return out, tracer


# -- sweep: run_replicated over a process pool with the scenario cache ------------


class CapturingRunner(ParallelRunner):
    """A ParallelRunner that also keeps every replicate's task result."""

    def run_comparisons(self, tasks):  # type: ignore[override]
        self.captured = super().run_comparisons(tasks)
        return self.captured


@dataclass
class SweepRun:
    timed_s: float
    delivered: int
    rows: Dict[str, Any]
    captured: List[Any]
    stats: Any
    latencies_ms: List[float]


def _sweep_once(
    size: SweepSize, seed: int, jobs: int, work: Path, engine: str = "array"
) -> SweepRun:
    scenario = scenario_for(size.network, engine)
    cache_dir = Path(tempfile.mkdtemp(prefix="scenario-cache-", dir=work))
    dump_dir = Path(tempfile.mkdtemp(prefix="latency-", dir=work))
    runner = CapturingRunner(jobs=jobs, scenario_cache_dir=str(cache_dir))
    probe = SinkProbe(dump_dir=dump_dir)
    try:
        with probe.installed(), METER.paused():
            gc.collect()
            t0 = time.perf_counter()
            rows = run_replicated(
                scenario,
                [dophy_approach(), tree_ratio_approach()],
                master_seed=seed,
                replicates=size.replicates,
                min_support=MAE_MIN_SUPPORT,
                runner=runner,
            )
            host_s = time.perf_counter() - t0
        latencies = [x * 1e3 for x in probe.read_dumps()]
        # Host time at the workers' speed; with the meter off (the
        # untimed and traced repetitions) no worker ticks.
        chunks = probe.read_dumps("chunk")
        timed_s = host_s * scale_for(_median(chunks)) if chunks else host_s
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.rmtree(dump_dir, ignore_errors=True)
    return SweepRun(
        timed_s=timed_s,
        delivered=sum(r.summary.packets_delivered for r in runner.captured),
        rows=rows,
        captured=runner.captured,
        stats=runner.stats,
        latencies_ms=latencies,
    )


def _sweep_setup(size: SweepSize, seed: int, work: Path) -> Callable[[], Any]:
    """Cold, cache-storing construction of the replicates in turn,
    in-process: the set-up each pool worker pays before its replicate's
    first event."""
    scenario = scenario_for(size.network)
    seeds = spawn_seeds(seed, size.replicates)
    built = itertools.count()

    def build() -> Any:
        cache = ScenarioCache(tempfile.mkdtemp(prefix="setup-cache-", dir=work))
        return scenario.make_simulation(seeds[next(built) % len(seeds)], scenario_cache=cache)

    return build


def _sweep_checks(
    out: Outcome, name: str, size_name: str, seed: int, runs: List[SweepRun]
) -> None:
    first = runs[0]
    stats = first.stats
    out.log.check(
        f"{name}: every replicate executed, none retried or timed out",
        stats.executed == stats.tasks and stats.retries == 0 and stats.timeouts == 0,
        stats.describe(),
    )
    out.log.check(
        f"{name}: Dophy scored links on every replicate",
        all(r.rows["dophy"].accuracy.n_links_compared > 0 for r in first.captured),
    )
    out.log.check(
        f"{name}: every delivered packet left one sink latency sample",
        len(first.latencies_ms) == first.delivered,
        f"{len(first.latencies_ms)} samples, {first.delivered} delivered",
    )
    digests = [checks.rows_digest(r.captured) for r in runs]
    _check_repeats(out, name, digests)
    checks.compare_to_reference(
        out.log, name, {"rows": digests[0]}, checks.reference_for(name, size_name, seed)
    )


def run_sweep(
    size: SweepSize, seed: int, seconds: float, size_name: str, name: str, work: Path
) -> Outcome:
    out = Outcome()
    runs: List[SweepRun] = []
    setups: List[float] = []
    setup = _sweep_setup(size, seed, work)
    first = _sweep_once(size, seed, size.jobs, work)
    peak = peak_rss_mb(include_children=True)
    with METER.running():
        while len(runs) < 2 or sum(r.timed_s for r in runs) < seconds:
            runs.append(_sweep_once(size, seed, size.jobs, work))
            setups += _setup_samples(setup)
    _sweep_checks(out, name, size_name, seed, [first] + runs)
    dophy = first.rows["dophy"]
    _timing_metrics(
        out, setups, [r.delivered / r.timed_s for r in runs], [r.latencies_ms for r in runs]
    )
    out.metrics["peak_rss_mb"] = (peak, "MB")
    out.metrics["mae"] = (dophy.mae_mean, "loss")
    out.metrics["bits_per_hop"] = (dophy.bits_per_hop_mean, "bit")
    out.attempted = first.stats.tasks
    out.failed = first.stats.retries + first.stats.timeouts
    out.notes.append(
        f"{len(runs)} timed repetitions of {size.replicates} replicates "
        f"({first.delivered} delivered packets) at jobs={size.jobs}; "
        f"timed {[round(r.timed_s, 3) for r in runs]} s; "
        f"{_setup_note(setups)}; "
        f"exec: {first.stats.describe()}; {METER.describe()}"
    )
    return out


def trace_sweep(
    size: SweepSize, seed: int, size_name: str, name: str, work: Path
) -> Tuple[Outcome, Tracer]:
    out = Outcome()
    plain = _sweep_once(size, seed, 1, work)
    _sweep_checks(out, name, size_name, seed, [plain])
    tracer = Tracer()
    with tracer.installed():
        traced = _sweep_once(size, seed, 1, work)
    _check_repeats(
        out,
        f"{name} traced and untraced",
        [checks.rows_digest(plain.captured), checks.rows_digest(traced.captured)],
    )
    stats = traced.stats
    for key in ("tasks", "executed", "retries", "cache_hits"):
        tracer.counters[f"exec.{key}"] = getattr(stats, key)
    out.attempted = stats.tasks
    out.failed = stats.retries + stats.timeouts
    _set_walls(tracer, plain.timed_s, traced.timed_s)
    return out, tracer


# -- stream: durable streaming sink replaying a recorded trace ---------------------


def record_trace(name: str, size_name: str, seed: int, path: Path) -> str:
    """Record the workload's packet trace in a child process (load
    generation, outside every metric); returns its packet digest."""
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).with_name("tracegen.py")),
            "--workload", name,
            "--size", size_name,
            "--seed", str(seed),
            "--out", str(path),
        ],
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"trace generation failed:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


@dataclass
class StreamRun:
    seed: int
    records: int
    setup_s: float
    timed_s: float
    latencies_ms: List[float]
    storage_bytes: int
    evidence_hops: int
    digest: str
    #: The loaded trace and the final snapshot; dropped after the first
    #: repetition's checks so peak memory does not grow with repetitions.
    bundle: Any
    final: Any


def _stream_setup(trace: Path, state_dir: Path, n_shards: int) -> Tuple[Any, StreamingSink]:
    bundle = bundle_from_trace(trace)
    # Without fsync: every WAL append, atomic write and rename still runs,
    # but the flush to the device is skipped. Per-record fsyncs on a disk
    # shared with other machines made the replay's throughput swing by
    # 40-50% between runs, far beyond any bound a run could meet.
    store = DirectoryStore(state_dir, fsync=False)
    sink = StreamingSink(bundle.max_attempts, store, SinkConfig(n_shards=n_shards, jobs=1))
    return bundle, sink


def _stream_once(seed: int, trace: Path, size: StreamSize, work: Path) -> StreamRun:
    state_dir = Path(tempfile.mkdtemp(prefix="sink-state-", dir=work))
    try:
        setup_s, (bundle, sink) = _timed(lambda: _stream_setup(trace, state_dir, size.n_shards))
        pulls: List[float] = []
        snapshots: List[Tuple[float, int]] = []
        clock = METER.now

        def source() -> Iterator[Any]:
            for record in bundle.records:
                pulls.append(clock())
                yield record

        def replay() -> Any:
            final = None
            for snapshot in sink.run(source()):
                snapshots.append((clock(), snapshot.stats.dispatched))
                final = snapshot
            return final

        with counting_store_bytes() as counted:
            timed_s, final = _timed(replay)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    return StreamRun(
        seed=seed,
        records=len(bundle.records),
        setup_s=setup_s,
        timed_s=timed_s,
        latencies_ms=[x * 1e3 for x in checks.record_latencies(pulls, snapshots)],
        storage_bytes=counted.counters["stream.storage.bytes_written"],
        evidence_hops=sum(
            1 for r in bundle.records if r.delivered for hop in r.hops if hop[3]
        ),
        digest=checks.estimates_digest(final.estimates),
        bundle=bundle,
        final=final,
    )


def _stream_checks(
    out: Outcome, name: str, size_name: str, seed: int, first: StreamRun, trace_digest: str
) -> None:
    final = first.final
    batch = PerLinkEstimator(first.bundle.max_attempts, truncation_correction=True)
    feed_estimator(batch, first.bundle.records)
    mismatched = checks.estimates_mismatch(final.estimates, batch.estimates())
    out.log.check(
        f"{name}: final snapshot equals the batch estimator (verify-batch)",
        final.final and not mismatched,
        f"{len(mismatched)} links differ" if mismatched else "",
    )
    out.log.check(
        f"{name}: every record consumed, dispatched and covered by a snapshot",
        final.stats.consumed == len(first.bundle.records) == final.stats.dispatched
        and len(first.latencies_ms) == final.stats.consumed,
    )
    reference = checks.reference_for("f7_1k_dophy", size_name, seed)
    checks.compare_to_reference(
        out.log,
        f"{name} trace",
        {"packets": trace_digest},
        None if reference is None else {"packets": reference["packets"]},
    )


def run_stream(
    size: StreamSize, seed: int, seconds: float, size_name: str, name: str, work: Path
) -> Outcome:
    out = Outcome()
    networks = network_seeds(seed, size.network.networks)
    traces = {net: work / f"trace-{net}.jsonl" for net in networks}
    digests = {net: record_trace(name, size_name, net, path) for net, path in traces.items()}
    first = _stream_once(seed, traces[seed], size, work)
    peak = peak_rss_mb()
    _stream_checks(out, name, size_name, seed, first, digests[seed])
    accuracy = compare_estimates(
        {l: e.loss for l, e in first.final.estimates.items()},
        first.bundle.true_losses,
        method="stream",
        min_support=MAE_MIN_SUPPORT,
        support={l: e.n_samples for l, e in first.final.estimates.items()},
    )
    stats, queue_stats = first.final.stats, first.final.queue_stats
    first.bundle = first.final = None
    runs: List[StreamRun] = []
    setups: List[float] = []
    with METER.running():
        while len(runs) < len(networks) or sum(r.timed_s for r in runs) < seconds:
            net = networks[len(runs) % len(networks)]
            run = _stream_once(net, traces[net], size, work)
            run.bundle = run.final = None
            runs.append(run)
            setups += _setup_samples(
                lambda: _stream_setup(traces[net], Path(tempfile.mkdtemp(dir=work)), size.n_shards),
                [run.setup_s],
            )
    for net in networks:
        _check_repeats(
            out, f"{name} network {net}", [r.digest for r in [first] + runs if r.seed == net]
        )
    _network_timing_metrics(out, setups, runs, lambda r: r.records)
    out.metrics["peak_rss_mb"] = (peak, "MB")
    out.metrics["mae"] = (float(accuracy.mae), "loss")
    out.metrics["bits_per_hop"] = (8.0 * first.storage_bytes / first.evidence_hops, "bit")
    out.attempted = stats.consumed
    out.failed = stats.dropped_quarantined + queue_stats.shed
    out.notes.append(
        f"{len(runs)} timed repetitions over networks {networks} "
        f"({[r.records for r in runs[:len(networks)]]} records); "
        f"timed {[round(r.timed_s, 3) for r in runs]} s; "
        f"{_setup_note(setups)}; "
        f"{stats.snapshots} snapshots; {first.storage_bytes} bytes stored; "
        f"{METER.describe()}"
    )
    return out


def trace_stream(
    size: StreamSize, seed: int, size_name: str, name: str, work: Path
) -> Tuple[Outcome, Tracer]:
    out = Outcome()
    trace = work / "trace.jsonl"
    trace_digest = record_trace(name, size_name, seed, trace)
    plain = _stream_once(seed, trace, size, work)
    _stream_checks(out, name, size_name, seed, plain, trace_digest)
    tracer = Tracer()
    with tracer.installed(estimates_span="stream.sink.snapshot_estimate"):
        traced = _stream_once(seed, trace, size, work)
    _check_repeats(out, f"{name} traced and untraced", [plain.digest, traced.digest])
    final = traced.final
    tracer.counters["stream.sink.snapshots"] = final.stats.snapshots
    tracer.counters["stream.queue.high_water"] = final.queue_stats.high_water
    tracer.counters["stream.queue.blocked"] = final.queue_stats.blocked
    out.attempted = final.stats.consumed
    out.failed = final.stats.dropped_quarantined + final.queue_stats.shed
    _set_walls(tracer, plain.setup_s + plain.timed_s, traced.setup_s + traced.timed_s)
    return out, tracer


def oracle_digests(name: str, size_name: str, seed: int, work: Path) -> Dict[str, str]:
    """The digests a run is checked against, computed with the event engine."""
    workload = WORKLOADS[name]
    size = workload.sizes[size_name]
    if workload.kind == "f7":
        return _f7_once(scenario_for(size, "event"), seed, keep_pairs=False).digests
    if workload.kind == "sweep":
        run = _sweep_once(size, seed, size.jobs, work, engine="event")
        return {"rows": checks.rows_digest(run.captured)}
    raise ValueError(f"{name} is checked against f7_1k_dophy's packet digest")


def config_of(workload: Workload, size_name: str) -> Dict[str, Any]:
    config: Dict[str, Any] = {
        "kind": workload.kind,
        "size": size_name,
        **asdict(workload.sizes[size_name]),
        "engine": "array",
        "mae_min_support": MAE_MIN_SUPPORT,
    }
    if workload.kind == "stream":
        config.update(store="DirectoryStore(fsync=False)", jobs=1)
    return config
