"""Host-clock spans and counters recorded from outside the program.

:class:`Tracer` wraps the public entry points of each layer (class
methods and module-level functions) for the duration of a ``with``
block and restores the originals on exit. Spans are aggregated per name
as total time, self time (the span minus the time its child spans
cover) and call count; counters are plain integers bumped by the
wrappers. Nothing recorded here is handed back to the program, so spans
never reach results, digests or cache keys.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import dophy as dophy_mod
from repro.core.annotation import AnnotationCodec
from repro.core.estimator import PerLinkEstimator
from repro.core.model import ModelManager
from repro.net.fastsim import FastArqMac
from repro.net.routing import RoutingEngine
from repro.net.simulation import CollectionSimulation
from repro.stream import sink as sink_mod
from repro.stream.shard import ShardWorker
from repro.stream.sink import StreamingSink
from repro.stream.storage import DirectoryStore
from repro.stream.wal import WriteAheadLog
from repro.tomography.mle_tree import TreeRatioTomography
from repro.workloads.scenario_cache import ScenarioCache
from repro.workloads.scenarios import Scenario

CountFn = Callable[[Tuple[Any, ...], Any], Dict[str, int]]


class Tracer:
    """Per-name span aggregates plus named counters."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        # Child-time accumulators of the open spans, innermost last.
        self._open: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Wall time of the untraced and the traced repetition.
        self.untraced_wall_s = 0.0
        self.traced_wall_s = 0.0

    def wrap(
        self, name: str, fn: Callable[..., Any], count: Optional[CountFn] = None
    ) -> Callable[..., Any]:
        """Return ``fn`` timed as span ``name``; ``count(args, result)``
        may return counter increments for a call that returned."""
        open_spans = self._open
        total, self_time, calls = self.total, self.self_time, self.calls
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = open_spans.pop()
                total[name] += elapsed
                self_time[name] += elapsed - children
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if count is not None:
                for key, value in count(args, result).items():
                    counters[key] += value
            return result

        return traced

    def counting(self, fn: Callable[..., Any], count: CountFn) -> Callable[..., Any]:
        """Return ``fn`` with only its counters bumped: no clock is read."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            for key, value in count(args, result).items():
                counters[key] += value
            return result

        return counted

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Optional[CountFn] = None,
        timed: bool = True,
    ) -> None:
        """Replace ``owner.attr`` by its traced version until :meth:`restore`;
        with ``timed=False`` the replacement only bumps ``count``'s counters."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        if timed:
            setattr(owner, attr, self.wrap(name, original, count))
        else:
            assert count is not None
            setattr(owner, attr, self.counting(original, count))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, estimates_span: str = "core.estimator.estimate") -> Iterator["Tracer"]:
        """Wrap every layer entry point for the body of the block.

        ``PerLinkEstimator.estimates`` is the f7 sink's final estimate,
        but the streaming sink's per-snapshot estimate; the caller names
        which span it feeds.
        """
        try:
            install_layer_spans(self, estimates_span)
            yield self
        finally:
            self.restore()


def _count(key: str) -> CountFn:
    return lambda args, result: {key: 1}


#: The durable store's write entry points, their spans and the bytes each
#: call stores: ``write_atomic(store, name, data)`` writes ``data``, and
#: ``append_line(store, name, line)`` writes the line and its newline.
STORE_WRITES: Tuple[Tuple[str, str, CountFn], ...] = (
    (
        "write_atomic",
        "stream.storage.write",
        lambda args, result: {"stream.storage.bytes_written": len(args[2])},
    ),
    (
        "append_line",
        "stream.storage.append",
        lambda args, result: {
            "stream.storage.bytes_written": len(args[2].encode("utf-8")) + 1
        },
    ),
)


@contextmanager
def counting_store_bytes() -> Iterator[Tracer]:
    """Count ``stream.storage.bytes_written`` for the body of the block,
    reading no clock, so an untimed run can report what it stored."""
    tracer = Tracer()
    try:
        for attr, span, count in STORE_WRITES:
            tracer.patch(DirectoryStore, attr, span, count, timed=False)
        yield tracer
    finally:
        tracer.restore()


def install_layer_spans(tracer: Tracer, estimates_span: str) -> None:
    """Patch the entry points behind the per-layer metrics."""
    p = tracer.patch

    # workloads: scenario build and the skeleton cache
    p(Scenario, "make_simulation", "workloads.build")

    def cache_status(args: Tuple[Any, ...], result: Any) -> Dict[str, int]:
        status = result[1]
        key = {"warm": "hits", "cold": "misses", "forked": "forks"}[status]
        return {f"workloads.scenario_cache.{key}": 1}

    def stored_bytes(args: Tuple[Any, ...], result: Any) -> Dict[str, int]:
        cache, key, seed = args[0], args[1], args[2]
        size = cache._path(key, seed).stat().st_size
        return {"workloads.scenario_cache.bytes_written": size}

    p(ScenarioCache, "get_or_build", "workloads.scenario_cache.get", cache_status)
    p(ScenarioCache, "store", "workloads.scenario_cache.store", stored_bytes)

    # net: event loop (root of a run), MAC exchanges, routing beacons
    def run_counts(args: Tuple[Any, ...], result: Any) -> Dict[str, int]:
        routing = result.routing
        return {
            "net.sim.events": result.events_processed,
            "net.routing.beacon_rounds": routing.beacon_rounds,
            "net.routing.parent_changes": routing.total_parent_changes,
        }

    p(CollectionSimulation, "run", "net.sim", run_counts)
    p(FastArqMac, "send", "net.mac.send")
    p(RoutingEngine, "beacon_round", "net.routing.beacon")

    # core: node-side annotation, sink-side decode, model, estimator
    p(AnnotationCodec, "new_annotation", "core.annotation.new")
    p(AnnotationCodec, "annotate_hop", "core.annotation.annotate")
    p(AnnotationCodec, "serialize", "core.annotation.serialize")
    # A failed decode raises, so only successes reach the counter.
    p(dophy_mod, "decode_annotation", "core.decoder.decode", _count("core.decoder.decoded"))
    p(ModelManager, "observe_hops", "core.model.observe")
    p(
        ModelManager,
        "maybe_update",
        "core.model.update",
        lambda args, published: {"core.model.updates": int(bool(published))},
    )
    p(PerLinkEstimator, "add_decoded", "core.estimator.add")
    p(
        PerLinkEstimator,
        "estimates",
        estimates_span,
        lambda args, result: {estimates_span + ".links": len(result)},
    )

    # tomography baselines: the end-to-end solve
    p(TreeRatioTomography, "solve", "tomography.solve")

    # stream: WAL, shard apply/checkpoint, sink snapshot, durable storage
    p(WriteAheadLog, "append", "stream.wal.append", _count("stream.wal.appends"))
    p(sink_mod, "shard_apply_task", "stream.shard.apply")
    p(StreamingSink, "global_estimator", "stream.sink.merge")
    p(ShardWorker, "absorb", "stream.shard.absorb")
    p(
        ShardWorker,
        "checkpoint",
        "stream.shard.checkpoint",
        _count("stream.shard.checkpoints"),
    )
    for attr, span, count in STORE_WRITES:
        p(DirectoryStore, attr, span, count)


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics, by name, from one traced repetition.

    Every ``*_s`` value is self time. Where a layer is entered through
    two wrapped entry points (construction with and without the
    skeleton cache, the shard's apply task and its absorb, the store's
    atomic writes and appends) the self times are summed.
    """
    s, c, n = tracer.self_time, tracer.calls, tracer.counters
    untraced, traced = tracer.untraced_wall_s, tracer.traced_wall_s
    secs = {
        "core.annotation.annotate_s": s["core.annotation.annotate"],
        "core.annotation.new_s": s["core.annotation.new"],
        "core.annotation.serialize_s": s["core.annotation.serialize"],
        "core.decoder.decode_s": s["core.decoder.decode"],
        "core.model.observe_s": s["core.model.observe"],
        "core.model.update_s": s["core.model.update"],
        "core.estimator.add_s": s["core.estimator.add"],
        "core.estimator.estimate_s": s["core.estimator.estimate"],
        "net.mac.send_s": s["net.mac.send"],
        "net.routing.beacon_s": s["net.routing.beacon"],
        "net.sim.self_s": s["net.sim"],
        "workloads.build_s": s["workloads.build"] + s["workloads.scenario_cache.get"],
        "workloads.scenario_cache.store_s": s["workloads.scenario_cache.store"],
        "tomography.solve_s": s["tomography.solve"],
        "stream.wal.append_s": s["stream.wal.append"],
        "stream.shard.apply_s": s["stream.shard.apply"] + s["stream.shard.absorb"],
        "stream.shard.checkpoint_s": s["stream.shard.checkpoint"],
        "stream.sink.merge_s": s["stream.sink.merge"],
        "stream.sink.snapshot_estimate_s": s["stream.sink.snapshot_estimate"],
        "stream.storage.write_s": s["stream.storage.write"] + s["stream.storage.append"],
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced,
    }
    counts = {
        "core.annotation.calls": c["core.annotation.annotate"],
        "core.decoder.calls": c["core.decoder.decode"],
        "core.decoder.failures": c["core.decoder.decode"] - n["core.decoder.decoded"],
        "core.model.updates": n["core.model.updates"],
        "core.estimator.links": n["core.estimator.estimate.links"],
        "net.mac.sends": c["net.mac.send"],
        "net.routing.beacon_rounds": n["net.routing.beacon_rounds"],
        "net.routing.parent_changes": n["net.routing.parent_changes"],
        "net.sim.events": n["net.sim.events"],
        "workloads.scenario_cache.hits": n["workloads.scenario_cache.hits"],
        "workloads.scenario_cache.misses": n["workloads.scenario_cache.misses"],
        "workloads.scenario_cache.forks": n["workloads.scenario_cache.forks"],
        "exec.tasks": n["exec.tasks"],
        "exec.executed": n["exec.executed"],
        "exec.retries": n["exec.retries"],
        "exec.cache_hits": n["exec.cache_hits"],
        "stream.wal.appends": n["stream.wal.appends"],
        "stream.shard.checkpoints": n["stream.shard.checkpoints"],
        "stream.sink.snapshots": n["stream.sink.snapshots"],
        "stream.queue.high_water": n["stream.queue.high_water"],
        "stream.queue.blocked": n["stream.queue.blocked"],
    }
    byte_counts = {
        "workloads.scenario_cache.bytes_written": n["workloads.scenario_cache.bytes_written"],
        "stream.storage.bytes_written": n["stream.storage.bytes_written"],
    }
    out: Dict[str, Tuple[float, str]] = {k: (v, "s") for k, v in secs.items()}
    out.update({k: (v, "count") for k, v in counts.items()})
    out.update({k: (v, "bytes") for k, v in byte_counts.items()})
    return out


def span_table(tracer: Tracer) -> List[str]:
    """Human-readable span lines, largest self time first."""
    lines = [f"{'span':36s} {'total_s':>9s} {'self_s':>9s} {'calls':>9s}"]
    for name in sorted(tracer.calls, key=lambda k: -tracer.self_time[k]):
        lines.append(
            f"{name:36s} {tracer.total[name]:9.3f} "
            f"{tracer.self_time[name]:9.3f} {tracer.calls[name]:9d}"
        )
    return lines
