"""The repository's benchmark: four workloads, end-to-end metrics, traced layers.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see ``perfbench/README.md``
for the workloads, the metrics and what each layer metric should move.
"""
