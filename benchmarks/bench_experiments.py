"""Bench every registered experiment: regenerate its tables, time one run.

One case per spec in the registry (``e01..e17``, ``a01..a03``), each a
single quick-profile, seed-0 run::

    PYTHONPATH=src python -m pytest benchmarks/bench_experiments.py -s
    PYTHONPATH=src python -m pytest benchmarks/bench_experiments.py -k e06 -s
"""

from __future__ import annotations

import pytest

from repro.experiments import all_specs

from conftest import run_and_print


@pytest.mark.parametrize("spec", all_specs(), ids=lambda spec: spec.id)
def test_experiment(benchmark, spec):
    """Regenerate and time one experiment."""
    tables = run_and_print(benchmark, spec)
    assert tables and all(table.rows for table in tables)
