"""Reference process: brute-force values for the positions a run solves.

The engine process starts this and hands it each new position right after
solving it, then blocks until the answer comes back, so the two never run
at the same time and the oracle's memo never shows up in the engine's
memory.  Each engine/oracle time pair is measured seconds apart, so a
change in the machine's speed moves both.  One JSON request per line on
stdin, one JSON result per line on stdout:

    in:  {"position": [ground_size, [face, ...]], "witness": face|null}
    out: {"value": v|null, "cpu_s": t, "nodes": n, "witness_value": w|null}

A value of null means the oracle refused (node budget exhausted).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graphchomp.complexes import SimplicialComplex, remove_face  # noqa: E402
from graphchomp.oracle import OracleBudgetError, oracle_grundy  # noqa: E402


def solve(position: SimplicialComplex) -> tuple[int | None, float, int]:
    memo: dict = {}
    start = time.process_time()
    try:
        value = oracle_grundy(position, memo=memo)
    except OracleBudgetError:
        value = None
    elapsed = time.process_time() - start
    return value, elapsed, sum(len(sub) for sub in memo.values())


def check(request: dict) -> dict:
    ground, faces = request["position"]
    position = SimplicialComplex(ground, frozenset(faces))
    value, cpu_s, nodes = solve(position)
    result = {"value": value, "cpu_s": cpu_s, "nodes": nodes,
              "witness_value": None}
    if request.get("witness") is not None:
        result["witness_value"] = solve(
            remove_face(position, request["witness"]))[0]
    return result


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(check(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
