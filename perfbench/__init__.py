"""Seeded end-to-end benchmark of the serving tier and the simulator.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the root of a checkout.  See
``perfbench/README.md`` for the workloads, the metrics and the map from
each layer to the end-to-end metric it moves.
"""
