"""The repository's benchmark: workloads, reference kernel, layer tracer.

Run it with ``python3 perfbench/run.py`` (see that module); its
contract is ``BENCHMARK.json`` at the root of the repository.
"""
