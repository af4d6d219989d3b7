"""Measured protection-overhead ledger.

Times the library's public protected entry points against plain
baselines that live in this package (:mod:`benchmarks.ledger.reference`),
so a later speed-up of the library's own SpMV or solver cannot pass for a
change in protection overhead.  ``README.md`` beside this file documents
the workloads, the metrics and the commands.
"""
