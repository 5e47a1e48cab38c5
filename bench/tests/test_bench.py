"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _pulse_arrays(case):
    p = case.inputs["pulse"]
    return np.concatenate([p.times, p.omegas, p.deltas, [case.inputs["geom"].positions[1][0]]])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a, b = workloads.generate(workload, 7), workloads.generate(workload, 7)
    assert [c.id for c in a] == [c.id for c in b]
    for x, y in zip(a, b):
        if "pulse" in x.inputs:
            np.testing.assert_array_equal(_pulse_arrays(x), _pulse_arrays(y))
        else:
            assert x.inputs == y.inputs


@pytest.mark.parametrize("workload", ["unitary_pulses", "lindblad_pulses"])
def test_other_seed_gives_other_pulses(workload):
    a = {c.id: _pulse_arrays(c) for c in workloads.generate(workload, 7)}
    b = [_pulse_arrays(c) for c in workloads.generate(workload, 8)]
    assert not any(np.array_equal(x, y) for x in a.values() for y in b)


def test_other_seed_keeps_the_chain_case_set():
    a, b = workloads.generate("chain_sweep", 7), workloads.generate("chain_sweep", 8)
    assert [c.id for c in a] != [c.id for c in b]
    assert sorted(c.id for c in a) == sorted(c.id for c in b)
    assert len(a) == 21  # 20 reflection classes at N=5, plus N=6


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_largest_cases_are_marked(workload):
    for smoke in (False, True):
        assert any(c.largest for c in workloads.generate(workload, 7, smoke))


def test_chain_oracle_dimensions():
    assert oracle.chain_dimension(3, ()) == 38
    assert oracle.chain_dimension(4, ()) == 135
    assert oracle.chain_dimension(5, ()) == 542
    assert oracle.chain_dimension(6, ()) == 2079
    assert oracle.chain_dimension(5, (1, 5)) == 542
    assert oracle.chain_dimension(5, (1,)) == 4 ** 5 - 1


def test_reflection_classes_cover_every_pattern():
    classes = workloads.reflection_classes(5)
    assert len(classes) == 20
    covered = {s for c in classes for s in (c, tuple(sorted(6 - j for j in c)))}
    assert len(covered) == 2 ** 5


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_generated_pulse_validates(seed):
    for workload in ("unitary_pulses", "lindblad_pulses"):
        for case in workloads.generate(workload, seed):
            case.inputs["pulse"].validate(workloads.PROFILE)
            assert 6.0 <= case.inputs["geom"].positions[1][0] <= 10.0


def test_missing_traced_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + ("closure.no_such_function",
                                                           "nomodule.f"))
    t = tracer.Tracer()
    monkeypatch.setattr(t, "_wrap", lambda name, fn: fn)  # leave the library as is
    t.install()
    assert t.absent == ["closure.no_such_function", "nomodule.f"]


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    t.spans = [("outer", 0.0, 10.0, -1, "c"), ("inner", 1.0, 4.0, 0, "c"),
               ("inner", 5.0, 6.0, 0, "c"), ("leaf", 2.0, 3.0, 1, "c")]
    layers = t.spans_of_pass(0, 4)
    assert layers["calls"] == {"outer": 1, "inner": 2, "leaf": 1}
    assert layers["self_s"] == pytest.approx({"outer": 6.0, "inner": 3.0, "leaf": 1.0})


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke"])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.metric_units()


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "chain_sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrong_or_raising_answers_count_as_failed(monkeypatch):
    import worker
    case = next(c for c in workloads.generate("chain_sweep", 1, smoke=True)
                if c.inputs == {"n": 3, "pattern": ()})
    good = worker.run_case(case, None)
    assert good["ok"] and good["dimension"] == 38
    answer = workloads.solve(case)
    answer.dimension = 37
    assert workloads.check(case, answer)[0] == "dimension 37, oracle 38"

    def boom(case):
        raise RuntimeError("boom")
    monkeypatch.setattr(workloads, "solve", boom)
    bad = worker.run_case(case, None)
    assert not bad["ok"] and "boom" in bad["error"]


def test_speed_scale_is_reference_over_median_kernel():
    import speed
    k = speed.REFERENCE_S
    assert speed.scale([k / 2, k, 2 * k]) == 1.0
    assert speed.scale([2 * k] * 3) == 0.5
