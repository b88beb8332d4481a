"""Record a stream workload's packet trace as JSONL (its load generator).

Runs in its own process so that simulating the load never counts in the
replaying process's time or peak memory. Prints the packet-stream digest
as its last line, for the event-oracle check.

    python3 perfbench/tracegen.py --workload stream_replay --size full \
        --seed 107 --out trace.jsonl
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from repro.net.tracefile import save_trace

    from perfbench.checks import packets_digest
    from perfbench.workloads import WORKLOADS, scenario_for

    network = WORKLOADS[args.workload].sizes[args.size].network
    result = scenario_for(network).make_simulation(args.seed).run()
    save_trace(result, args.out)
    print(packets_digest(result.packets))
    return 0


if __name__ == "__main__":
    sys.exit(main())
