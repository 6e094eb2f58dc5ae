"""End-to-end benchmark of served and swept grid evaluations.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``--self-check`` runs every
workload at a tiny size in seconds.  See ``perfbench/README.md``.
"""
