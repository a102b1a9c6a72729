"""The reproduction's benchmark: four workloads, end-to-end host-time and
fidelity metrics, and a traced per-layer breakdown.

Run ``python3 perfledger/run.py --help`` from the root of a checkout.
"""
