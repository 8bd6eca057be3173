"""Fixture tests: every rule fires on a seeded violation, stays silent
on conforming code.

Each rule gets (at least) one positive fixture — a miniature
``src/repro/...`` tree containing the violation the rule exists to
catch — and one negative fixture proving the conforming idiom passes.
The acceptance bar for the lint PR: a rule that cannot demonstrate both
directions is not a rule, it is a hope.
"""

from __future__ import annotations


def rule_ids(findings):
    """The set of rule ids present in ``findings``."""
    return {finding.rule for finding in findings}


# ---------------------------------------------------------------- RNG-001


def test_rng001_fires_on_global_numpy_randomness(lint_tree):
    findings = lint_tree(
        {
            "src/repro/core/bad.py": """
                import numpy as np

                def draw():
                    return np.random.rand(4)
            """
        }
    )
    assert [f.rule for f in findings] == ["RNG-001"]
    assert findings[0].line == 5
    assert "np" in findings[0].message or "numpy" in findings[0].message


def test_rng001_fires_on_argless_default_rng_and_stdlib_random(lint_tree):
    findings = lint_tree(
        {
            "src/repro/core/bad.py": """
                import random
                from numpy.random import default_rng

                def draw():
                    return default_rng().random() + random.random()
            """
        }
    )
    assert [f.rule for f in findings] == ["RNG-001", "RNG-001"]


def test_rng001_silent_on_derived_streams(lint_tree):
    findings = lint_tree(
        {
            "src/repro/core/good.py": """
                import numpy as np
                from ..rng import derive_rng

                def draw(seed):
                    rng = derive_rng(seed, "draw")
                    keyed = np.random.Generator(np.random.Philox(key=7))
                    seeded = np.random.default_rng(seed)
                    return rng.random(), keyed, seeded
            """
        }
    )
    assert findings == []


def test_rng001_exempts_the_rng_modules(lint_tree):
    findings = lint_tree(
        {
            "src/repro/rng.py": """
                import numpy as np

                def make():
                    return np.random.default_rng()
            """
        }
    )
    assert findings == []


# ---------------------------------------------------------------- RNG-002


def test_rng002_fires_on_wall_clock_and_entropy_in_kernel(lint_tree):
    findings = lint_tree(
        {
            "src/repro/engine/bad.py": """
                import os
                import time
                import uuid
                from datetime import datetime

                def stamp():
                    return (
                        time.time(),
                        datetime.now(),
                        os.urandom(8),
                        uuid.uuid4(),
                        hash("salted"),
                    )
            """
        }
    )
    assert rule_ids(findings) == {"RNG-002"}
    assert len(findings) == 5


def test_rng002_silent_on_perf_counter_and_outside_kernel(lint_tree):
    findings = lint_tree(
        {
            "src/repro/engine/good.py": """
                import time

                def elapsed():
                    return time.perf_counter() - time.monotonic()
            """,
            # the service layer's event timestamps are a scoped allowance
            "src/repro/service/events_fixture.py": """
                import time

                def stamp():
                    return time.time()
            """,
        }
    )
    assert findings == []


# ---------------------------------------------------------------- DET-001


def test_det001_fires_on_set_iteration_in_kernel(lint_tree):
    findings = lint_tree(
        {
            "src/repro/algorithms/bad.py": """
                def order(edges):
                    out = []
                    for edge in set(edges):
                        out.append(edge)
                    total = list({1, 2, 3})
                    comp = [x for x in {n for n in edges}]
                    return out, total, comp
            """
        }
    )
    assert rule_ids(findings) == {"DET-001"}
    assert len(findings) == 3


def test_det001_silent_on_sorted_sets_and_dicts(lint_tree):
    findings = lint_tree(
        {
            "src/repro/algorithms/good.py": """
                def order(edges, table):
                    out = []
                    for edge in sorted(set(edges)):
                        out.append(edge)
                    for key in table:
                        out.append(key)
                    return out
            """
        }
    )
    assert findings == []


# -------------------------------------------------------------- SPAWN-001


def test_spawn001_fires_on_lambda_and_local_def(lint_tree):
    findings = lint_tree(
        {
            "src/repro/service/bad.py": """
                def fan_out(pool, ctx):
                    def local_work():
                        return 1

                    pool.submit(local_work)
                    pool.submit(lambda: 2)
                    ctx.Process(target=local_work)
            """
        }
    )
    assert rule_ids(findings) == {"SPAWN-001"}
    assert len(findings) == 3


def test_spawn001_silent_on_module_level_targets(lint_tree):
    findings = lint_tree(
        {
            "src/repro/service/good.py": """
                def module_work():
                    return 1

                def fan_out(pool, ctx, job_id):
                    pool.submit(module_work)
                    pool.submit(job_id)
                    ctx.Process(target=module_work)
            """
        }
    )
    assert findings == []


# ------------------------------------------------------------- WINDOW-001


def test_window001_fires_on_engine_import_and_backend_reference(lint_tree):
    findings = lint_tree(
        {
            "src/repro/beeping/noise.py": """
                \"\"\"Fixture noise layer.\"\"\"
                from ..engine.dense import DenseBackend

                def pick(backend_name):
                    return DenseBackend
            """
        }
    )
    assert rule_ids(findings) == {"WINDOW-001"}
    # one for the import, one for the symbol reference
    assert len(findings) >= 2


def test_window001_silent_on_the_allowed_imports(lint_tree):
    findings = lint_tree(
        {
            "src/repro/beeping/noise.py": """
                \"\"\"Fixture noise layer.\"\"\"
                import numpy as np

                from ..errors import ConfigurationError
                from ..graphs import Topology
                from ..rng import derive_rng, derive_seed

                def flips(seed, window, n):
                    return derive_rng(seed, window).random(n)
            """
        }
    )
    assert findings == []


def test_window001_does_not_apply_outside_noise(lint_tree):
    findings = lint_tree(
        {
            "src/repro/core/round_simulator.py": """
                from ..engine import run_schedule_batch
                from ..engine.dense import DenseBackend

                def run(backend):
                    return run_schedule_batch, DenseBackend
            """
        }
    )
    assert findings == []


# --------------------------------------------------------------- LOCK-001


def test_lock001_fires_on_bare_acquire(lint_tree):
    findings = lint_tree(
        {
            "src/repro/service/bad_locks.py": """
                import threading

                def guard():
                    lock = threading.Lock()
                    lock.acquire()
                    try:
                        pass
                    finally:
                        lock.release()
            """
        }
    )
    assert [f.rule for f in findings] == ["LOCK-001"]


def test_lock001_silent_on_with_statement_and_outside_scope(lint_tree):
    findings = lint_tree(
        {
            "src/repro/service/good_locks.py": """
                import threading

                def guard():
                    lock = threading.Lock()
                    with lock:
                        pass
            """,
            # core/ is outside LOCK-001's scope: no finding even for bare
            # acquire (it has no Lock-holding layers)
            "src/repro/core/unscoped.py": """
                def guard(lock):
                    lock.acquire()
            """,
        }
    )
    assert findings == []
