"""Experiment harness: scenario builders, runners, figures and tables.

Each experiment id (E1..E12) in DESIGN.md maps to a driver here; the
``benchmarks/`` tree calls these drivers through the claims table
(:mod:`~repro.experiments.claims`) and prints the same rows and series
the paper reports.

The package imports none of its modules, so importing the claims table
(standard library only) does not load the simulator.
"""
