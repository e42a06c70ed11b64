#!/usr/bin/env python3
"""Engine against brute-force oracle, CPU time per position.

    python3 scripts/engine_report.py [--out report.json]

Each position is solved for its value alone (no witness move) by the
engine, with a fresh table, and by the oracle.  Every measurement runs in
a fresh interpreter, so the analysis caches start empty, as in one
`graphchomp solve`, and its `peak_rss_mb` is that interpreter's peak
resident set.  An engine measurement also counts the entries the solve
left in each analysis cache (`cache_entries`).  A solver that runs out of
its budget is reported as exhausted, with the CPU time it spent until
then; it never guesses.

Positions: two random graphs where every engine feature is on, `path:60`
with decomposition alone (above the 16-vertex bound of exact keys), and
the torus with every feature off under a node budget.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graphchomp import canon, complexes, symmetry  # noqa: E402
from graphchomp.engine import (  # noqa: E402
    BudgetExceededError,
    EngineConfig,
    TranspositionTable,
    grundy,
)
from graphchomp.families import generate, parse_family  # noqa: E402
from graphchomp.oracle import OracleBudgetError, oracle_grundy  # noqa: E402

# name, family spec, (reduction, closed forms, decomposition), node budget
POSITIONS = [
    ("er9", "erdos_renyi:9,p=0.5,seed=3", (True, True, True), None),
    ("er10", "erdos_renyi:10,p=0.4,seed=5", (True, True, True), None),
    ("path60", "path:60", (False, False, True), None),
    ("torus", "torus_3x3", (False, False, False), 5_000),
]


def measure(spec: str, solver: str, toggles: tuple[bool, bool, bool],
            budget: int | None) -> dict:
    """One solve in this interpreter: value, CPU seconds, nodes."""
    c = generate(parse_family(spec))
    out: dict = {"value": None, "exhausted": False}
    start = time.process_time()
    if solver == "engine":
        table = TranspositionTable()
        try:
            rec = grundy(c, EngineConfig(*toggles), table, budget,
                         witness=False)
            out.update(value=rec.value, nodes=rec.stats["nodes"])
        except BudgetExceededError:
            out.update(exhausted=True, nodes=budget)
    else:
        memo: dict = {}
        try:
            out["value"] = oracle_grundy(c, memo=memo)
        except OracleBudgetError:
            out["exhausted"] = True
        out["nodes"] = sum(len(sub) for sub in memo.values())
    out["cpu_s"] = round(time.process_time() - start, 4)
    out["peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    if solver == "engine":
        out["cache_entries"] = cache_entries()
    return out


def cache_entries() -> dict:
    """Entries held by each analysis cache of this interpreter."""
    caches = {
        "view_keys": canon.view_keys,
        "class_keys": canon.class_keys,
        "components": complexes.components.cache,
        "canonical_key": canon.canonical_key.cache,
        "find_reduction": symmetry._first_involution.cache,
    }
    return {name: len(cache) for name, cache in caches.items()}


def run_child(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, __file__, *args],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--out", help="also write the report to this file")
    ap.add_argument("--measure", nargs=2, metavar=("NAME", "SOLVER"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.measure:
        name, solver = args.measure
        spec, toggles, budget = next(p[1:] for p in POSITIONS if p[0] == name)
        print(json.dumps(measure(spec, solver, toggles, budget)))
        return 0

    rows = []
    for name, spec, toggles, budget in POSITIONS:
        engine = run_child(["--measure", name, "engine"])
        oracle = run_child(["--measure", name, "oracle"])
        complete = not engine["exhausted"] and not oracle["exhausted"]
        if complete and engine["value"] != oracle["value"]:
            print(f"{name}: engine {engine['value']} != oracle "
                  f"{oracle['value']}", file=sys.stderr)
            return 1
        row = {
            "position": name, "spec": spec,
            "reduction": toggles[0], "closed_forms": toggles[1],
            "decomposition": toggles[2], "node_budget": budget,
            "engine": engine, "oracle": oracle,
            # a ratio against an exhausted run would be a bound, not a ratio
            "engine_oracle_ratio": round(engine["cpu_s"] / oracle["cpu_s"], 3)
            if complete and oracle["cpu_s"] > 0 else None,
        }
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)
    report = {"python": platform.python_version(),
              "machine": platform.machine(), "positions": rows}
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
