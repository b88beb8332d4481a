"""Output checks: digests, event-oracle references, self-consistency rules.

Every run checks its outputs twice over:

* **against the event oracle** — the digests of the packet stream, the
  Dophy estimates and the annotation bits (f7 workloads), or of every
  replicate's scored rows (the sweep), must equal the reference recorded
  once with ``engine="event"`` in ``references.json`` for the same
  workload and seed (``make_references.py`` writes it for the default
  seed and one held-out seed; other seeds have no reference);
* **against rules that hold for every seed** — each decoded annotation
  reproduces its packet's ground-truth path and retransmission counts,
  every iteration of a run yields the same digests, the streaming sink's
  final snapshot equals one batch ``PerLinkEstimator`` fed the same
  records (the ``repro serve --verify-batch`` rule), and the program's
  own failure counters read zero.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

REFERENCES = Path(__file__).with_name("references.json")


class CheckLog:
    """Named pass/fail outcomes of one run."""

    def __init__(self) -> None:
        self.results: List[Tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def correct(self) -> bool:
        return bool(self.results) and all(ok for _, ok, _ in self.results)

    @property
    def failures(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)

    def lines(self) -> List[str]:
        return [
            f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else "")
            for name, ok, detail in self.results
        ]


def _digest(items: Iterable[Any]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:32]


def packets_digest(packets: Sequence[Any]) -> str:
    """Every packet's identity, timing, outcome and ground-truth hop log."""
    return _digest(
        (
            p.origin,
            p.seqno,
            p.created_at,
            p.delivered_at,
            p.dropped_at,
            p.drop_reason,
            tuple((h.sender, h.receiver, h.attempts, h.time, h.delivered) for h in p.hops),
        )
        for p in packets
    )


def estimates_digest(estimates: Dict[Tuple[int, int], Any]) -> str:
    return _digest(
        (link, e.loss, e.stderr, e.n_exact, e.n_censored)
        for link, e in sorted(estimates.items())
    )


def bits_digest(report: Any) -> str:
    return _digest(
        [report.annotation_bits, report.annotation_hops, report.dissemination_bits]
    )


def rows_digest(task_results: Sequence[Any]) -> str:
    """Every replicate's summary and scored rows, in replicate order."""
    return _digest(
        (r.summary, sorted(r.rows.items())) for r in task_results
    )


def load_references() -> Dict[str, Any]:
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def reference_for(workload: str, size: str, seed: int) -> Optional[Dict[str, str]]:
    return load_references().get(workload, {}).get(size, {}).get(str(seed))


def compare_to_reference(
    log: CheckLog,
    label: str,
    digests: Dict[str, str],
    reference: Optional[Dict[str, str]],
) -> None:
    """Check each digest against the oracle's; note when no reference exists."""
    if reference is None:
        log.check(f"{label}: event-oracle reference", True, "none for this seed")
        return
    for key, value in sorted(digests.items()):
        want = reference.get(key)
        log.check(
            f"{label}: {key} digest equals the event oracle's",
            value == want,
            "" if value == want else f"got {value}, oracle {want}",
        )


def codec_roundtrip_errors(pairs: Sequence[Tuple[Any, Any]]) -> List[str]:
    """Compare each decoded annotation with its packet's ground truth.

    A decoded hop must name the link the packet really crossed, and its
    retransmission count must equal the true one (or, for an aggregated
    escape symbol, bracket it).
    """
    errors: List[str] = []
    for packet, decoded in pairs:
        true_hops = [h for h in packet.hops if h.delivered]
        if [hop.link for hop in decoded.hops] != [h.link for h in true_hops]:
            errors.append(f"packet {packet.key}: path differs")
            continue
        for hop, truth in zip(decoded.hops, true_hops):
            retx = truth.attempts - 1
            lo, hi = hop.retx_bounds
            if hop.retx_count != retx if hop.exact else not lo <= retx <= hi:
                errors.append(f"packet {packet.key}: hop {hop.link} count differs")
                break
    return errors


def estimates_mismatch(
    streamed: Dict[Tuple[int, int], Any], batch: Dict[Tuple[int, int], Any]
) -> List[Tuple[int, int]]:
    """Links whose streamed estimate is not field-identical to the batch one."""
    return sorted(
        link
        for link in set(streamed) | set(batch)
        if (s := streamed.get(link)) is None
        or (b := batch.get(link)) is None
        or (s.loss, s.stderr, s.n_exact, s.n_censored)
        != (b.loss, b.stderr, b.n_exact, b.n_censored)
    )


def record_latencies(
    pull_times: Sequence[float], snapshots: Sequence[Tuple[float, int]]
) -> List[float]:
    """Seconds from each record's pull to the first snapshot including it.

    ``snapshots`` are ``(emission time, records dispatched so far)`` in
    emission order. Dispatch is FIFO in pull order, so record ``i`` is in
    the first snapshot whose dispatched count exceeds ``i``. Records no
    snapshot covers get no latency.
    """
    out: List[float] = []
    i = 0
    for emitted, dispatched in snapshots:
        while i < min(dispatched, len(pull_times)):
            out.append(emitted - pull_times[i])
            i += 1
    return out
