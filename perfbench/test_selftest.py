"""Self-test of the benchmark harness on tiny grids.

Runs every workload end to end, traced, in a few seconds; checks that the
result names exactly the metrics of BENCHMARK.json; and checks that a wrong
result from the program (a shifted eigenvalue, an offset q) is reported as a
failed operation.  Run with ``python -m pytest -q perfbench``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run as bench

ROOT = bench.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

zs, _ = bench.import_program()
import zsscatter.direct  # noqa: E402  (after import_program puts src/ first)
import zsscatter.inverse  # noqa: E402


def _args(workload, trace=1, seed=7):
    return bench.parse_args(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                             "--trace", str(trace), "--size", "tiny"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_reports_every_metric(workload):
    runner, end_to_end, per_layer, _ = bench.measure(_args(workload), zs)
    assert runner.messages == []
    assert runner.failed == 0 and runner.attempted > 0
    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    assert all(v > 0 for v in end_to_end.values())
    # the traced pass saw the layers this workload drives
    ex = runner.wl.inverse[0].example
    assert per_layer[f"{ex}.numerics.lsq_calls"] > 0
    assert per_layer[f"{ex}.inverse.collocation_ratio"] > 0
    assert per_layer["ex1.basis.ode_steps"] > 0
    assert per_layer["ex1.coeffs.chosen_N"] > 0


def test_benchmark_json_units_match_the_harness():
    import tracing

    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        tracing.per_layer_catalogue()


def test_shifted_eigenvalue_counts_as_failed(monkeypatch):
    original = zsscatter.direct.find_eigenvalues

    def shifted(*args, **kwargs):
        return tuple(dataclasses.replace(ev, rho=ev.rho + 0.01j)
                     for ev in original(*args, **kwargs))

    monkeypatch.setattr(zsscatter.direct, "find_eigenvalues", shifted)
    runner, *_ = bench.measure(_args("direct", trace=0), zs)
    shifted_ops = sum("eigenvalue error" in m for m in runner.messages)
    assert shifted_ops > 0 and runner.failed >= shifted_ops


def test_offset_q_counts_as_failed(monkeypatch):
    original = zsscatter.inverse.recover_potential

    def offset(coeffs):
        rec = original(coeffs)
        return dataclasses.replace(rec, chosen=rec.chosen + 0.1)

    monkeypatch.setattr(zsscatter.inverse, "recover_potential", offset)
    runner, *_ = bench.measure(_args("inverse-sweep", trace=0), zs)
    assert runner.failed == runner.attempted
    assert any("q error" in m for m in runner.messages)


def test_command_line_prints_one_result_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inverse-select", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "direct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert "{" not in out.stdout
