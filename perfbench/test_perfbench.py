"""Tests of the benchmark itself: smoke runs, span arithmetic, failure accounting."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.hostspeed import NOMINAL_S, probe, rescale
from perfbench.seams import PER_LAYER_UNITS, layer_metrics
from perfbench.spans import Recorder, self_times
from perfbench.workloads import WORKLOADS

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _report(capsys, argv: list[str]) -> dict:
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _declared_units(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[kind]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_traced(capsys, workload):
    report = _report(
        capsys, ["--workload", workload, "--smoke", "--seed", "3", "--trace", "1"]
    )
    assert report["correct"] is True
    assert (report["attempted"], report["failed"]) == (run.SMOKE_UNITS, 0)
    printed = {name: metric["unit"] for name, metric in report["metrics"].items()}
    assert printed == _declared_units("per_layer")
    assert report["metrics"]["core.round_simulator.run_round.calls"]["value"] > 0


def test_smoke_run_untraced(capsys):
    report = _report(capsys, ["--workload", "batched_noisy", "--smoke", "--trace", "0"])
    assert report["correct"] is True
    printed = {name: metric["unit"] for name, metric in report["metrics"].items()}
    assert printed == _declared_units("end_to_end")
    assert all(metric["value"] > 0 for metric in report["metrics"].values())


def test_forged_digest_is_a_failed_unit(capsys, monkeypatch):
    monkeypatch.setattr(run, "load_pins", lambda workload, seed, size: ["0" * 64])
    report = _report(capsys, ["--workload", "sweep_noiseless", "--smoke"])
    assert (report["correct"], report["attempted"], report["failed"]) == (
        False,
        run.SMOKE_UNITS,
        1,
    )


def test_unit_failures_name_each_cause():
    units = [
        {"digest": "a" * 64, "problem": None},
        {"digest": "b" * 64, "problem": None},
        {"digest": None, "problem": "Traceback ...\nValueError\n"},
        {"digest": "c" * 64, "problem": "invalid matching: ..."},
        {"digest": "d" * 64, "problem": None},
    ]
    failures = run.unit_failures(units, ["a" * 64, "f" * 64, "x", "c" * 64])
    assert sorted(failures) == [1, 2, 3]
    assert "differs from pin" in failures[1]
    assert run.unit_failures(units[:2], None) == {}


def test_self_times_subtract_direct_children():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def _spans(recorder: Recorder, tree: list) -> None:
    """Record ``(name, start, end, children)`` tuples as nested spans."""

    def add(node: tuple, parent: int) -> None:
        name, start, end, children = node
        index = len(recorder.names)
        recorder.names.append(name)
        recorder.starts.append(start)
        recorder.ends.append(end)
        recorder.parents.append(parent)
        recorder.phases.append(recorder.phase)
        for child in children:
            add(child, index)

    for node in tree:
        add(node, -1)


def test_layer_metrics_of_nested_spans():
    recorder = Recorder()
    _spans(recorder, [("setup", 0.0, 5.0, [("rng.derive_rng", 1.0, 2.0, [])])])
    recorder.phase = "unit"
    _spans(
        recorder,
        [
            (
                "unit",
                10.0,
                20.0,
                [
                    ("graphs.build", 10.5, 11.5, []),
                    ("graphs.topology", 11.5, 12.0, []),
                    (
                        "core.round_simulator.run_round",
                        12.0,
                        19.0,
                        [
                            ("rng.derive_rng", 12.5, 13.0, []),
                            (
                                "codes.beep_encode",
                                13.0,
                                15.0,
                                [("codes.beep_encode", 13.5, 14.0, [])],
                            ),
                        ],
                    ),
                ],
            ),
            ("unit", 30.0, 31.0, []),
        ],
    )
    recorder.count("beep_encode_int", 4)
    recorder.count("beep_keyings", 1)
    metrics, timed = layer_metrics(recorder)
    assert timed == 11.0
    assert metrics["graphs.build.calls"] == 1
    assert metrics["graphs.build.self_s"] == 1.5
    assert metrics["rng.derive_rng.calls"] == 1
    assert metrics["rng.derive_rng.self_s"] == 0.5
    assert metrics["codes.beep_encode.calls"] == 2
    assert metrics["codes.beep_encode.self_s"] == 2.0
    assert metrics["core.round_simulator.run_round.self_s"] == 4.5
    assert metrics["codes.beep_cache.hit_ratio"] == 0.75
    assert metrics["trace.unattributed_s"] == 2.5
    covered = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert covered + metrics["trace.unattributed_s"] == timed
    assert set(metrics) | {"trace.overhead_ratio"} == set(PER_LAYER_UNITS)


def test_layer_metrics_reject_unattributed_span_names():
    recorder = Recorder()
    recorder.phase = "unit"
    _spans(recorder, [("unit", 0.0, 2.0, [("mystery", 0.5, 1.0, [])])])
    with pytest.raises(ValueError, match="mystery"):
        layer_metrics(recorder)


def test_rescale_to_nominal_host_speed():
    assert rescale(3.0, [NOMINAL_S]) == 3.0
    # A phase whose probes ran twice as slow as nominal took half as long
    # at nominal speed; the median ignores a probe caught in a burst.
    slow = 2 * NOMINAL_S
    assert rescale(3.0, [slow, slow, 9 * slow]) == pytest.approx(1.5)
    assert probe() > 0


def test_declarations_match_benchmark_json():
    assert run.END_TO_END_UNITS == _declared_units("end_to_end")
    assert PER_LAYER_UNITS == _declared_units("per_layer")
    declared = [workload["name"] for workload in DECLARED["workloads"]]
    assert sorted(declared) == sorted(WORKLOADS) == sorted(run.UNIT_SECONDS)
    assert DECLARED["command"] == ["python3", "perfbench/run.py"]
    pins = json.loads(run.PINS.read_text(encoding="utf-8"))
    for name, seconds in run.UNIT_SECONDS.items():
        units = max(1, round(DECLARED["run_seconds"] / seconds))
        assert len(pins["digests"][name]) >= units


def test_fails_without_the_program(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out")
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_noiseless",
         "--smoke"],
        cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
