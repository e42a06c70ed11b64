"""Self-tests of the benchmark (not part of the program's test suite).

    python3 -m pytest solverbench/test_bench.py -q

Smoke-size runs (one CPU second each) must print every metric that
BENCHMARK.json names, with its unit, and pass their value checks; an
injected wrong expected value must fail the run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


def test_spec_matches_the_metrics_the_benchmark_computes():
    assert SPEC["command"] == ["python3", "solverbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.end_to_end_units()
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.per_layer_units()


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric(workload, trace):
    code, result, proc = bench("--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", trace)
    assert code == 0, proc.stderr
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_injected_wrong_value_fails_the_run(workload):
    code, result, _ = bench("--workload", workload, "--seed", "7",
                            "--seconds", "1", "--trace", "0", "--inject-wrong")
    assert code == 1
    assert result["correct"] is False


def test_same_seed_gives_same_inputs():
    first, _ = run.engine_run("search", 5, 1, 10, timeout=120)
    again, _ = run.engine_run("search", 5, 1, 10, timeout=120)
    other, _ = run.engine_run("search", 6, 1, 10, timeout=120)
    assert first["corpus_digest"] == again["corpus_digest"]
    assert first["corpus_digest"] != other["corpus_digest"]


def test_without_program_source_it_fails_without_a_result(tmp_path):
    bench_dir = tmp_path / "solverbench"
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "solverbench/run.py", "--workload", "search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
