"""Record the event oracle's output digests into ``references.json``.

    python3 perfbench/make_references.py [--seeds 107,7] [--size full]

Runs every simulated workload with ``engine="event"`` (the simulator's
reference implementation) for each seed and stores the digests that
``run.py`` compares each run against. The stream workload is checked
against ``f7_1k_dophy``'s packet digest, since it replays that trace.
Re-run only when a change is meant to alter the program's outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The default seed, and one held out from tuning.
DEFAULT_SEEDS = "107,7"

#: The simulated workloads; ``stream_replay`` replays ``f7_1k_dophy``'s
#: trace and is checked against that workload's packet digest.
SIMULATED = ("f7_1k_dophy", "f7_5k_sparse", "sweep_rgg_cached")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=DEFAULT_SEEDS)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.checks import REFERENCES, load_references
    from perfbench.workloads import oracle_digests

    refs = load_references()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="references-", dir=work_root))
    try:
        for name in SIMULATED:
            for seed in (int(s) for s in args.seeds.split(",")):
                digests = oracle_digests(name, args.size, seed, work)
                refs.setdefault(name, {}).setdefault(args.size, {})[str(seed)] = digests
                print(name, args.size, seed, digests, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
