"""The repository benchmark: host time and model fidelity of the simulator.

``python3 bench/run.py --workload <name>`` is the entry point; see
``bench/README.md`` for the workloads, metrics and how to read traces.
"""
