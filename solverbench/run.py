#!/usr/bin/env python3
"""Solver benchmark: run one workload, check every value, print metrics.

    python3 solverbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Workloads (see README.md): `search` (single solves, all features on),
`toggle_gate` (every position under the eight feature toggles) and `scan`
(the conjecture scans).  Each run starts the engine in a fresh interpreter
and does a fixed amount of work, sized so that it took about --seconds of
CPU when the benchmark was introduced.  The engine process hands each new
position to the brute-force oracle in a second process and waits for its
answer, so the two never run at once.  With --trace 1 a second, traced
engine process replays exactly the operations of the untraced one; its
values, node counts and table statistics must match, and it reports the
per-layer metrics.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 0 when every value checked, 1 when one did not, and 2
when the benchmark could not run (for example, no program source).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "graphchomp"

sys.path.insert(0, str(HERE))
from tracing import CFG_FLAGS, RULES  # noqa: E402

WORKLOADS = ("search", "toggle_gate", "scan")
SETUP_SAMPLES = 5       # interpreter starts timed per run; setup_s is the median
# Operations per CPU second at the commit that introduced the benchmark, on
# a 2-core Intel Xeon VM with Python 3.11.7: a run does --seconds times this
# many operations, so every run does the same work (README, "Run length").
OPS_PER_SECOND = {"search": 6, "toggle_gate": 115, "scan": 200}
CAP = 3                 # a run stops early after CAP times --seconds of CPU
RUN_LIMIT_S = 175       # every child process must be done by then

CANON = ("position_key", "canonical_key", "canonical_order", "refinement_colors")
CLOSED_FORMS = ("engine_fast_value", "wants_simplest_certificate",
                "engine_certified_value")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def end_to_end_units() -> dict[str, str]:
    return {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
            "op_p90_ms": "ms", "engine_oracle_ratio": "ratio",
            "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in CANON:
        units[f"canon.{name}.calls"] = "count"
        units[f"canon.{name}.self_s"] = "s"
    units["canon.position_key.labeled_frac"] = "ratio"
    units.update({
        "symmetry.find_reduction.calls": "count",
        "symmetry.find_reduction.self_s": "s",
        "symmetry.find_reduction.found_ratio": "ratio",
        "symmetry.is_simplest_form.calls": "count",
        "symmetry.is_simplest_form.self_s": "s",
    })
    for name in CLOSED_FORMS:
        units[f"closed_forms.{name}.calls"] = "count"
        units[f"closed_forms.{name}.self_s"] = "s"
        units[f"closed_forms.{name}.hit_ratio"] = "ratio"
    for rule in (*RULES, "other"):
        units[f"closed_forms.rule.{rule}.hits"] = "count"
    units.update({
        "complexes.components.calls": "count",
        "complexes.components.self_s": "s",
        "complexes.components.split_ratio": "ratio",
        "complexes.graph_stats.calls": "count",
        "complexes.graph_stats.self_s": "s",
        "engine.grundy.calls": "count",
        "engine.grundy.self_s": "s",
        "engine.nodes": "count",
        "engine.table.hit_ratio": "ratio",
        "engine.table.inserts": "count",
        "engine.table.size": "count",
    })
    for flags in CFG_FLAGS:
        units[f"engine.cfg.{flags}.busy_s"] = "s"
    units.update({
        "engine.table.save_s": "s",
        "engine.table.load_s": "s",
        "engine.table.file_bytes": "bytes",
        "oracle.busy_s": "s",
        "oracle.nodes": "count",
        "oracle.refusals": "count",
        "conjectures.self_s": "s",
        "families.generate_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


def python_child(script: str, args: list[str], timeout: float) -> dict:
    """Run a benchmark script in a fresh interpreter; its last stdout line
    is JSON.  On timeout the script and anything it started are killed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *args], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{script} did not finish in time") from exc
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{script} failed ({proc.returncode}):\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def engine_run(workload: str, seed: int, ops: int, cap: float | None,
               timeout: float) -> tuple[dict, float]:
    """One engine process with its oracle, or, without a cap, a traced
    replay of `ops` operations; returns the report and the set-up time,
    from process start to inputs ready."""
    args = ["--workload", workload, "--seed", str(seed), "--ops", str(ops)]
    args += ["--replay"] if cap is None else ["--cap", str(cap)]
    started = time.time()
    report = python_child("worker.py", args, timeout)
    return report, report["ready_wall"] - started


def setup_samples(workload: str, seed: int, count: int,
                  deadline: float) -> list[float]:
    samples = []
    for _ in range(count):
        started = time.time()
        report = python_child("worker.py", ["--workload", workload, "--seed",
                                            str(seed), "--setup-only"],
                              deadline - time.monotonic())
        samples.append(report["ready_wall"] - started)
    return samples


def check_values(ops: list[dict], oracle: dict, inject_wrong: bool) -> list[str]:
    """Every engine value against the oracle, or against the known value
    where the oracle is not attempted."""
    problems = []
    if inject_wrong:
        for op in ops:
            if "expected" in op:
                op["expected"] += 1
                break
            res = oracle.get(str(op.get("cls")))
            if res is not None and res["value"] is not None:
                res["value"] += 1
                break
    for op in ops:
        if "cls" not in op or op.get("failed"):
            continue
        want = op.get("expected")
        if want is None:
            res = oracle.get(str(op["cls"]))
            if res is None or res["value"] is None:
                problems.append(f"{op['id']}: oracle refused or missing")
                continue
            want = res["value"]
            if "witness" in op and res["witness_value"] != 0:
                problems.append(f"{op['id']}: witness move leads to value "
                                f"{res['witness_value']}, not 0")
        got = op["values"] if "values" in op else [op["value"]]
        if any(v != want for v in got):
            problems.append(f"{op['id']}: engine {got}, expected {want}")
    return problems


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def harrell_davis(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of
    all order statistics, centred on rank q*n.  Where operation times are
    sparse around the quantile, a single order statistic jumps from run to
    run; this estimate moves smoothly."""
    n = len(sorted_values)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    total = 0.0
    below = 0.0
    for i, value in enumerate(sorted_values, 1):
        upto = _beta_cdf(i / n, a, b)
        total += (upto - below) * value
        below = upto
    return total


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(x, a, b) / a
    return 1.0 - front * _beta_fraction(1.0 - x, b, a) / b


def _beta_fraction(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def end_to_end(workload: str, report: dict, oracle: dict,
               setup: list[float]) -> dict:
    ops = [op for op in report["ops"] if not op.get("failed")]
    times = sorted(op["cpu_ns"] / 1e9 for op in ops)
    per_position = 8 if workload == "toggle_gate" else 1
    # an oracle time is paired with the operation it ran right after
    ratios = [op["cpu_ns"] / 1e9 / per_position / oracle[str(op["cls"])]["cpu_s"]
              for op in ops if "position" in op and str(op["cls"]) in oracle
              and oracle[str(op["cls"])]["cpu_s"] > 0]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(ops) / sum(times),
        "op_p50_ms": 1e3 * harrell_davis(times, 0.5),
        "op_p90_ms": 1e3 * harrell_davis(times, 0.9),
        "engine_oracle_ratio": math.exp(
            statistics.fmean(math.log(r) for r in ratios)),
        "peak_rss_mb": report["rss_kb"] / 1024,
    }


def per_layer(report: dict, untraced: dict, oracle: dict) -> dict:
    trace = report["trace"]
    counts = trace["_counts"]

    def layer(name):
        return trace.get(name, {"calls": 0, "self_s": 0.0})

    def ratio(count_name, layer_name):
        calls = layer(layer_name)["calls"]
        return counts.get(count_name, 0) / calls if calls else 0.0

    m = {}
    for name in CANON:
        m[f"canon.{name}.calls"] = layer(f"canon.{name}")["calls"]
        m[f"canon.{name}.self_s"] = layer(f"canon.{name}")["self_s"]
    m["canon.position_key.labeled_frac"] = ratio(
        "canon.position_key.labeled", "canon.position_key")
    for name in ("find_reduction", "is_simplest_form"):
        m[f"symmetry.{name}.calls"] = layer(f"symmetry.{name}")["calls"]
        m[f"symmetry.{name}.self_s"] = layer(f"symmetry.{name}")["self_s"]
    m["symmetry.find_reduction.found_ratio"] = ratio(
        "symmetry.find_reduction.found", "symmetry.find_reduction")
    for name in CLOSED_FORMS:
        full = f"closed_forms.{name}"
        m[f"{full}.calls"] = layer(full)["calls"]
        m[f"{full}.self_s"] = layer(full)["self_s"]
        m[f"{full}.hit_ratio"] = ratio(f"{full}.hit", full)
    for rule in (*RULES, "other"):
        m[f"closed_forms.rule.{rule}.hits"] = counts.get(
            f"closed_forms.rule.{rule}.hits", 0)
    for name in ("components", "graph_stats"):
        m[f"complexes.{name}.calls"] = layer(f"complexes.{name}")["calls"]
        m[f"complexes.{name}.self_s"] = layer(f"complexes.{name}")["self_s"]
    m["complexes.components.split_ratio"] = ratio(
        "complexes.components.split", "complexes.components")
    tables = report["tables"]
    lookups = tables["hits"] + tables["misses"]
    m.update({
        "engine.grundy.calls": layer("engine.grundy")["calls"],
        "engine.grundy.self_s": layer("engine.grundy")["self_s"],
        "engine.nodes": trace["_nodes"],
        "engine.table.hit_ratio": tables["hits"] / lookups if lookups else 0.0,
        "engine.table.inserts": tables["inserts"],
        "engine.table.size": tables["size"],
    })
    for flags in CFG_FLAGS:
        m[f"engine.cfg.{flags}.busy_s"] = trace["_busy_s"].get(
            f"engine.cfg.{flags}", 0.0)
    roundtrip = report["roundtrip"]
    m.update({
        "engine.table.save_s": roundtrip["save_s"],
        "engine.table.load_s": roundtrip["load_s"],
        "engine.table.file_bytes": roundtrip["file_bytes"],
        "oracle.busy_s": sum(r["cpu_s"] for r in oracle.values()),
        "oracle.nodes": sum(r["nodes"] for r in oracle.values()),
        "oracle.refusals": sum(r["value"] is None for r in oracle.values()),
        "conjectures.self_s": layer("conjectures")["self_s"],
        "families.generate_s": report["generate_s"],
        "trace.overhead_frac": op_seconds(report) / op_seconds(untraced) - 1,
    })
    return m


def op_seconds(report: dict) -> float:
    return sum(op["cpu_ns"] for op in report["ops"]) / 1e9


def replay_problems(untraced: dict, traced: dict) -> list[str]:
    """The traced run must reproduce the untraced run exactly."""
    problems = []
    if len(untraced["ops"]) != len(traced["ops"]):
        return [f"traced run did {len(traced['ops'])} ops, untraced "
                f"{len(untraced['ops'])}"]
    for a, b in zip(untraced["ops"], traced["ops"]):
        for key in ("id", "value", "values", "nodes", "failed"):
            if a.get(key) != b.get(key):
                problems.append(f"{a['id']}: {key} differs when traced")
                break
    if untraced["tables"] != traced["tables"]:
        problems.append(f"table stats differ when traced: {untraced['tables']}"
                        f" vs {traced['tables']}")
    return problems


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        h.update(path.relative_to(SOURCE).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(args) -> tuple[dict, dict]:
    if not (SOURCE / "__init__.py").is_file():
        raise BenchError(f"program source not found at {SOURCE}")
    deadline = time.monotonic() + RUN_LIMIT_S
    phases = {}
    started = time.perf_counter()
    setup = [] if args.trace else setup_samples(
        args.workload, args.seed, SETUP_SAMPLES - 1, deadline)
    phases["setup_samples"] = time.perf_counter() - started
    started = time.perf_counter()
    target = max(1, round(args.seconds * OPS_PER_SECOND[args.workload]))
    report, ready = engine_run(args.workload, args.seed, target,
                               CAP * args.seconds, deadline - time.monotonic())
    phases["engine"] = time.perf_counter() - started
    setup.append(ready)
    problems = list(report["problems"])
    traced = None
    if args.trace:
        started = time.perf_counter()
        traced, _ = engine_run(args.workload, args.seed, len(report["ops"]),
                               None, deadline - time.monotonic())
        phases["traced_engine"] = time.perf_counter() - started
        problems += traced["problems"]
        problems += replay_problems(report, traced)
    oracle = report["oracle"]
    problems += check_values(report["ops"], oracle, args.inject_wrong)

    ops = report["ops"]
    failed = sum(1 for op in ops if op.get("failed"))
    units = per_layer_units() if args.trace else end_to_end_units()
    values = per_layer(traced, report, oracle) if args.trace else \
        end_to_end(args.workload, report, oracle, setup)
    times = sorted(op["cpu_ns"] for op in ops if not op.get("failed"))
    p90 = quantile(times, 0.9) if times else 0
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "clock": "cpu_ns", "ops": len(ops),
        "ops_beyond_p90": sum(t > p90 for t in times),
        "oracle_classes": len(oracle), "corpus_digest": report["corpus_digest"],
        "source_digest": source_digest(), "git_revision": git_revision(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "setup_samples_s": setup, "phase_wall_s": phases,
        "problems": problems[:20],
    }
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="run length; sets the amount of work (README)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-wrong", action="store_true",
                    help="self-test: corrupt one expected value; the run "
                         "must then fail")
    args = ap.parse_args(argv)
    try:
        result, meta = run(args)
    except BenchError as exc:
        print(f"solverbench: {exc}", file=sys.stderr)
        return 2
    for problem in meta["problems"]:
        print(f"solverbench: {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
