#!/usr/bin/env python3
"""Engine against brute-force oracle, CPU time per position.

    python3 scripts/engine_report.py [--repeat N] [--out report.json]

Each position is solved for its value alone (no witness move) by the
engine, with a fresh table, and by the oracle.  Every measurement runs in
a fresh interpreter, so the analysis caches start empty, as in one
`graphchomp solve`, and its `peak_rss_mb` is that interpreter's peak
resident set.  An engine measurement also counts the entries the solve
left in each analysis cache and in the class move record
(`cache_entries`).  A solver that runs out of its budget is reported as
exhausted, with the CPU time it spent until then; it never guesses.

With --repeat N each position is measured N times per side, engine and
oracle runs alternating (the oracle first in every second round), and each
side also reports its CPU seconds per run with their median and quartiles;
the ratio is then the ratio of the medians.  On a shared 2-core VM the
runs of one position spread by up to 50%, more than one run per side can
tell from a change.

Positions: two random graphs and a random complex on 8 vertices (the first
complex of solverbench's `search` pool) where every engine feature is on,
`path:60` with decomposition alone (above the 16-vertex bound of exact
keys), and the torus with every feature off under a node budget.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graphchomp import canon, complexes, engine, symmetry  # noqa: E402
from graphchomp.engine import (  # noqa: E402
    BudgetExceededError,
    EngineConfig,
    TranspositionTable,
    grundy,
)
from graphchomp.families import (  # noqa: E402
    generate,
    parse_family,
    random_complex,
)
from graphchomp.oracle import OracleBudgetError, oracle_grundy  # noqa: E402

# name, family spec, (reduction, closed forms, decomposition), node budget
POSITIONS = [
    ("er9", "erdos_renyi:9,p=0.5,seed=3", (True, True, True), None),
    ("er10", "erdos_renyi:10,p=0.4,seed=5", (True, True, True), None),
    ("rc8", "random_complex:8,seed=1049179038,facets=6", (True, True, True),
     None),
    ("path60", "path:60", (False, False, True), None),
    ("torus", "torus_3x3", (False, False, False), 5_000),
]


def build(spec: str):
    """The position of a family spec, or of `random_complex:N,seed=S,facets=F`,
    solverbench's label of a random complex with F drawn facets (family
    specs take no facet count)."""
    name, _, args = spec.partition(":")
    if name == "random_complex" and "facets=" in args:
        n, *pairs = args.split(",")
        kw = dict(pair.split("=") for pair in pairs)
        return random_complex(int(n), int(kw["seed"]),
                              facet_count=int(kw["facets"]))
    return generate(parse_family(spec))


def measure(spec: str, solver: str, toggles: tuple[bool, bool, bool],
            budget: int | None) -> dict:
    """One solve in this interpreter: value, CPU seconds, nodes."""
    c = build(spec)
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
    """Entries held by each analysis cache of this interpreter.  The class
    move record reports its entries, class markers included, as
    `class_moves` and the classes with recorded parts as
    `class_moves_classes`."""
    caches = {
        "view_keys": canon.view_keys,
        "class_keys": canon.class_keys,
        "class_moves": engine.class_moves,
        "components": complexes.components.cache,
        "canonical_key": canon.canonical_key.cache,
        "find_reduction": symmetry._first_involution.cache,
    }
    out = {name: len(cache) for name, cache in caches.items()}
    out["class_moves_classes"] = len(
        {name[0] for name in engine.class_moves if type(name) is tuple})
    return out


def run_child(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, __file__, *args],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def spread(runs: list[dict]) -> dict:
    """The CPU seconds of one side's runs, with their median and quartiles."""
    cpu = [r["cpu_s"] for r in runs]
    q1, median, q3 = statistics.quantiles(cpu, n=4)
    return {"cpu_s_runs": cpu, "cpu_s_median": round(median, 4),
            "cpu_s_q1": round(q1, 4), "cpu_s_q3": round(q3, 4)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--out", help="also write the report to this file")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per side and position (default 1)")
    ap.add_argument("--measure", nargs=2, metavar=("NAME", "SOLVER"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.measure:
        name, solver = args.measure
        spec, toggles, budget = next(p[1:] for p in POSITIONS if p[0] == name)
        print(json.dumps(measure(spec, solver, toggles, budget)))
        return 0

    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    rows = []
    for name, spec, toggles, budget in POSITIONS:
        runs: dict[str, list[dict]] = {"engine": [], "oracle": []}
        for r in range(args.repeat):
            order = ("engine", "oracle") if r % 2 == 0 else ("oracle", "engine")
            for solver in order:
                runs[solver].append(run_child(["--measure", name, solver]))
        engine, oracle = runs["engine"][0], runs["oracle"][0]
        every = runs["engine"] + runs["oracle"]
        complete = not any(run["exhausted"] for run in every)
        values = {run["value"] for run in every}
        if complete and len(values) > 1:
            print(f"{name}: engine {[r['value'] for r in runs['engine']]} "
                  f"!= oracle {[r['value'] for r in runs['oracle']]}",
                  file=sys.stderr)
            return 1
        if args.repeat > 1:
            engine = dict(engine, **spread(runs["engine"]))
            oracle = dict(oracle, **spread(runs["oracle"]))
        cpu = "cpu_s_median" if args.repeat > 1 else "cpu_s"
        row = {
            "position": name, "spec": spec,
            "reduction": toggles[0], "closed_forms": toggles[1],
            "decomposition": toggles[2], "node_budget": budget,
            "engine": engine, "oracle": oracle,
            # a ratio against an exhausted run would be a bound, not a ratio
            "engine_oracle_ratio": round(engine[cpu] / oracle[cpu], 3)
            if complete and oracle[cpu] > 0 else None,
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
