#!/usr/bin/env python3
"""Paired solverbench runs of two checkouts: medians, quartiles and wins.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload toggle_gate --seeds 1201-1210 --out pairs.json

For each seed, `python3 solverbench/run.py --workload W --seed S --seconds
T --trace 0` runs once in each checkout, one after the other, with T the
`run_seconds` of the change's BENCHMARK.json on both sides; which side
runs first alternates from seed to seed.  Each checkout runs its own
solverbench on its own source.  For every end-to-end metric the result
holds both sides' medians, the parent's quartiles, the change against the
parent in percent, and `wins`, the number of pairs in which the change was
better.  A metric is `unresolved` when the parent's interquartile spread,
relative to its median, is wider than the metric's `bound` in
BENCHMARK.json, unless every change run is better than every parent run:
such a median difference cannot tell a change from noise.  The workload's
entry is added to --out, keeping the others.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "solverbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: no result\n{proc.stderr}")
    return json.loads(lines[-1])


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True,
                    help="first-last, e.g. 1201-1210")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_once(checkout, args.workload, seed,
                                       bench["run_seconds"]))
        print(seed, *(runs[s][-1]["correct"] for s in order), file=sys.stderr)

    metrics = {}
    for metric in bench["end_to_end"]:
        name, direction = metric["name"], metric["better"]
        old = [r["metrics"][name]["value"] for r in runs["parent"]]
        new = [r["metrics"][name]["value"] for r in runs["change"]]
        q1, _, q3 = statistics.quantiles(old, n=4)
        sign = 1 if direction == "higher" else -1
        po, pn = statistics.median(old), statistics.median(new)
        beats_all = min(sign * b for b in new) > max(sign * a for a in old)
        metrics[name] = {
            "better": direction,
            "parent_median": round(po, 6),
            "change_median": round(pn, 6),
            "change_pct": round(100 * (pn - po) / po, 3),
            "wins": sum(sign * (b - a) > 0 for a, b in zip(old, new)),
            "parent_q1": round(q1, 6),
            "parent_q3": round(q3, 6),
            "unresolved": q3 - q1 > metric["bound"] * abs(po)
            and not beats_all,
        }
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out[args.workload] = {
        "pairs": len(args.seeds),
        "seeds": args.seeds,
        "correct": [r["correct"] for r in runs["change"]],
        "parent_correct": [r["correct"] for r in runs["parent"]],
        "failed": [r["failed"] for r in runs["change"]],
        "parent_failed": [r["failed"] for r in runs["parent"]],
        "metrics": metrics,
    }
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
