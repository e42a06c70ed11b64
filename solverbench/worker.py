"""Engine process: set up one workload, run it, print one JSON object.

run.py starts this in a fresh interpreter for every run, so the program's
module-level caches start empty and fill exactly as they do for a user;
nothing here clears or pre-warms them.  A run does a fixed amount of work:
it stops at the first block boundary (a pool block in `search`, a session
in `toggle_gate`, a row in `scan`) at or after `--ops` operations, or
earlier if the operations have used `--cap` CPU seconds.  Unless it is a
`--replay` under the tracer, every new position goes to the reference
process (see oracle_check.py) right after it is solved, while this process
waits.

    python3 worker.py --workload search --seed 1 --ops 150 --cap 75
    python3 worker.py --workload search --seed 1 --ops 154 --replay
    python3 worker.py --workload search --seed 1 --setup-only
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402

COMBOS = list(itertools.product([False, True], repeat=3))


class OpClock:
    """Times operations in CPU time and decides whether another block of
    them may start."""

    def __init__(self, target_ops: int, cap_s: float | None):
        self.target_ops = target_ops
        self.cap_ns = None if cap_s is None else int(cap_s * 1e9)
        self.wall_cap_s = None if cap_s is None else 2 * cap_s
        self.wall_start = time.perf_counter()
        self.paused_s = 0.0     # wall time spent waiting for the oracle
        self.ops: list[dict] = []
        self.used_ns = 0
        self.job_start_ns: int | None = None
        self.pending = 0

    def more(self) -> bool:
        if len(self.ops) + self.pending >= self.target_ops:
            return False
        if self.cap_ns is None:
            return True
        if time.perf_counter() - self.wall_start - self.paused_s > \
                self.wall_cap_s:
            return False
        used = self.used_ns
        if self.job_start_ns is not None:
            used += time.process_time_ns() - self.job_start_ns
        return used < self.cap_ns

    def start(self) -> int:
        self.job_start_ns = time.process_time_ns()
        return self.job_start_ns

    def stop(self, started: int, ident: str) -> dict:
        return self.split(started, [], [ident])[0]

    def split(self, started: int, marks: list[int], idents) -> list[dict]:
        """Close a job whose rows ended at `marks` (and now) as one
        operation per row."""
        end = time.process_time_ns()
        bounds = [started, *marks, end]
        ops = [{"id": ident, "cpu_ns": bounds[i + 1] - bounds[i]}
               for i, ident in enumerate(idents)]
        self.used_ns += end - started
        self.job_start_ns = None
        self.pending = 0
        self.ops.extend(ops)
        return ops


class Oracle:
    """Client of the reference process."""

    def __init__(self, clock: OpClock):
        self.clock = clock
        self.results: dict[str, dict] = {}
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "oracle_check.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def check(self, op: dict) -> None:
        started = time.perf_counter()
        request = {"position": op["position"], "witness": op.get("witness")}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("oracle process exited early")
        self.results[str(op["cls"])] = json.loads(line)
        self.clock.paused_s += time.perf_counter() - started

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Tables:
    """Save/load round trips of the transposition tables a run filled,
    timed in CPU seconds like the operations."""

    def __init__(self, directory: str):
        self.directory = directory
        self.save_s = 0.0
        self.load_s = 0.0
        self.file_bytes = 0
        self.count = 0
        self.stats = {"hits": 0, "misses": 0, "inserts": 0, "size": 0}

    def round_trip(self, table, label: str, problems: list[str]) -> None:
        from graphchomp.engine import TranspositionTable

        for key, value in table.stats().items():
            self.stats[key] += value
        path = os.path.join(self.directory, f"table{self.count}.json")
        self.count += 1
        t0 = time.process_time()
        table.save(path)
        t1 = time.process_time()
        loaded = TranspositionTable.load(path, table.capacity)
        t2 = time.process_time()
        if loaded.entries != table.entries:
            problems.append(f"{label}: table did not round-trip")
        self.save_s += t1 - t0
        self.load_s += t2 - t1
        self.file_bytes += os.path.getsize(path)
        os.remove(path)


class Run:
    """State one workload run shares: clock, tables, oracle, problems."""

    def __init__(self, seed: int, clock: OpClock, tables: Tables,
                 oracle: Oracle | None):
        self.seed = seed
        self.clock = clock
        self.tables = tables
        self.oracle = oracle
        self.problems: list[str] = []
        self.seen: set = set()

    def check(self, op: dict, cls, position, known=None, witness=None):
        """Tag an operation with its position's class; the first operation
        on a class sends the labeled position to the oracle."""
        op["cls"] = cls
        if known is not None:
            op["expected"] = known
        elif cls not in self.seen:
            self.seen.add(cls)
            op["position"] = corpus.serialize(position)
            if witness is not None:
                op["witness"] = witness
            if self.oracle is not None:
                self.oracle.check(op)


def run_search(passes, run: Run) -> None:
    from graphchomp import engine

    for item in _whole_blocks(passes, run.clock):
        table = engine.TranspositionTable()
        started = run.clock.start()
        try:
            rec = engine.grundy(item.position, engine.EngineConfig(), table)
        except (engine.BudgetExceededError, engine.TableCapacityError):
            run.clock.stop(started, item.label)["failed"] = True
            continue
        op = run.clock.stop(started, item.label)
        op.update(value=rec.value, nodes=rec.stats["nodes"])
        move = rec.witness_moves.get(0)
        if rec.value != 0 and move not in item.position.faces:
            run.problems.append(f"{item.label}: no legal witness move")
            move = None
        run.check(op, item.cls, item.position, item.known, move)
        run.tables.round_trip(table, item.label, run.problems)


def _whole_blocks(passes, clock: OpClock):
    """The items of each pool block, while the clock allows another block:
    a run stops at a block boundary, so every run covers whole blocks."""
    for blocks in passes:
        for block in blocks:
            if not clock.more():
                return
            yield from block


def run_toggle_gate(passes, run: Run) -> None:
    """Each pass over the pool is a session with eight fresh tables, one
    per configuration, shared by the session's positions.  A run stops
    between sessions."""
    from graphchomp import engine

    cfgs = [engine.EngineConfig(use_reduction=r, use_closed_forms=c,
                                use_decomposition=d) for r, c, d in COMBOS]
    for blocks in passes:
        if not run.clock.more():
            break
        shared = [engine.TranspositionTable() for _ in COMBOS]
        for item in itertools.chain.from_iterable(blocks):
            started = run.clock.start()
            try:
                recs = [engine.grundy(item.position, cfg, table, witness=False)
                        for cfg, table in zip(cfgs, shared)]
            except (engine.BudgetExceededError, engine.TableCapacityError):
                run.clock.stop(started, item.label)["failed"] = True
                continue
            op = run.clock.stop(started, item.label)
            op.update(values=[r.value for r in recs],
                      nodes=[r.stats["nodes"] for r in recs])
            run.check(op, item.cls, item.position)
        for (r, c, d), table in zip(COMBOS, shared):
            run.tables.round_trip(table, f"table r={r} c={c} d={d}",
                                  run.problems)


class RowMarks:
    """Marks row boundaries inside one scan call by wrapping the module
    attribute the scan calls once per row; a wrapped generator also ends
    early when the clock says stop."""

    def __init__(self, module, attr: str, clock: OpClock, generator: bool):
        self.module, self.attr = module, attr
        self.original = getattr(module, attr)
        self.marks: list[int] = []
        self.rows = 0

        def mark():
            if self.rows:
                self.marks.append(time.process_time_ns())
            self.rows += 1
            clock.pending += 1

        if generator:
            def wrapped(*args, **kwargs):
                for row in self.original(*args, **kwargs):
                    if not clock.more():
                        return
                    mark()
                    yield row
        else:
            def wrapped(*args, **kwargs):
                mark()
                return self.original(*args, **kwargs)
        self.wrapped = wrapped

    def __enter__(self):
        setattr(self.module, self.attr, self.wrapped)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)


def run_scan(jobs, run: Run) -> None:
    from graphchomp import conjectures, engine, families

    cfg = engine.EngineConfig()
    table = engine.TranspositionTable()
    clock = run.clock
    for job in itertools.chain(jobs, corpus.grid_filler(run.seed)):
        if not clock.more():
            break
        if job.kind == "grid":
            started = clock.start()
            rec = engine.grundy(job.position, cfg, table)
            op = clock.stop(started, job.label)
            op.update(value=rec.value, nodes=rec.stats["nodes"])
            if rec.value != job.expected:
                run.problems.append(f"{job.label}: engine {rec.value}, "
                                    f"gmk_recurrence {job.expected}")
            if len(job.position.vertices()) <= corpus.ORACLE_VERTICES:
                run.check(op, job.label, job.position)
        elif job.kind == "tails":
            label, m, k, attach, kmax = job.params
            base = families.gmk(m, k)
            started = clock.start()
            seq = conjectures.scan_tails(base, attach, kmax, label, cfg, table)
            clock.stop(started, job.label)["values"] = seq.values
            _check_tails(job, seq, run.problems)
        elif job.kind == "wheels":
            with RowMarks(conjectures, "wheel", clock, False) as rm:
                started = clock.start()
                rows = conjectures.scan_wheels(job.params[0], cfg, table)
                ops = clock.split(started, rm.marks, [r["id"] for r in rows])
            for op, row in zip(ops, rows):
                op["value"] = row.get("value")
                if row.get("value") != corpus.WHEEL_VALUE or \
                        not row.get("verified"):
                    run.problems.append(f"{row['id']}: {row}")
        else:
            cycle, vmax = job.params
            with RowMarks(conjectures, "multi_attachment_instances", clock,
                          True) as rm:
                started = clock.start()
                rows = conjectures.scan_multi_attachment(cycle, vmax, cfg,
                                                         table)
                ops = clock.split(started, rm.marks, [r["id"] for r in rows])
            for op, row in zip(ops, rows):
                op.update(value=row.get("value"), status=row["status"])
                _check_multi(row, op, run.problems)
                if row["status"] == "ok" and row["v"] <= corpus.ORACLE_VERTICES:
                    run.check(op, row["id"], _from_facets(row))
    run.tables.round_trip(table, "scan table", run.problems)


def _from_facets(row):
    from graphchomp.complexes import close_down, mask_of

    return close_down([mask_of(f) for f in row["facets"]], row["v"])


def _check_tails(job, seq, problems) -> None:
    _label, m, k, _attach, kmax = job.params
    want = corpus.tail_expected(m, k, kmax)
    if seq.truncated or seq.values != want:
        problems.append(f"{job.label}: values {seq.values}, "
                        f"gmk_recurrence {want}")
    if (m, k) == (0, 0):
        ok = seq.classification == "period2" and seq.detail == {"n": 0}
    else:
        ok = seq.classification == "two_tail_row" and \
            seq.detail.get("row") == m
    if not ok:
        problems.append(f"{job.label}: classified {seq.classification} "
                        f"{seq.detail}")


def _check_multi(row, op, problems) -> None:
    if row["status"] == "rejected-not-simplest":
        return
    if row["status"] != "ok":
        op["failed"] = True
        return
    want = 3 if row["v"] % 2 else 0
    if not row["agree"] or row["value"] != want:
        problems.append(f"{row['id']}: value {row['value']}, "
                        f"conjectured {want}")


RUNNERS = {"search": run_search, "toggle_gate": run_toggle_gate,
           "scan": run_scan}


def setup(workload: str, seed: int):
    """The run's inputs: an endless stream of passes over the pool, or the
    scan jobs; the first pass is built here, inside set-up time."""
    if workload == "scan":
        jobs = corpus.scan_jobs(seed)
        return jobs, jobs
    blocks = corpus.pool(workload)
    first = corpus.one_pass(blocks, seed, 0)

    def passes():
        yield first
        for number in itertools.count(1):
            yield corpus.one_pass(blocks, seed, number)
    return first, passes()


def corpus_digest(workload: str, items) -> str:
    h = hashlib.sha256(workload.encode())
    for item in items:
        pos = item.position
        h.update(json.dumps([item.label, getattr(item, "params", None),
                             pos and corpus.serialize(pos)]).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, help="operations to run (at least)")
    ap.add_argument("--cap", type=float,
                    help="stop early after this many CPU seconds of operations")
    ap.add_argument("--replay", action="store_true",
                    help="trace the run; no oracle, no cap")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import graphchomp  # noqa: F401  (so generate_s leaves out the import)

    gen_start = time.perf_counter()
    first, inputs = setup(args.workload, args.seed)
    generate_s = time.perf_counter() - gen_start
    out = {"ready_wall": time.time(), "generate_s": generate_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    if args.ops is None:
        ap.error("--ops is required")

    out["corpus_digest"] = corpus_digest(
        args.workload, first if args.workload == "scan"
        else itertools.chain.from_iterable(first))
    tracer = None
    if args.replay:
        from tracing import Tracer
        tracer = Tracer().install()
    clock = OpClock(args.ops, None if args.replay else args.cap)
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix="solverbench-", dir=scratch)
    oracle = None if args.replay else Oracle(clock)
    try:
        run = Run(args.seed, clock, Tables(directory), oracle)
        RUNNERS[args.workload](inputs, run)
    finally:
        if oracle is not None:
            oracle.close()
        shutil.rmtree(directory, ignore_errors=True)
    out.update(
        ops=clock.ops,
        problems=run.problems,
        oracle=oracle.results if oracle else {},
        tables=run.tables.stats,
        roundtrip={"save_s": run.tables.save_s, "load_s": run.tables.load_s,
                   "file_bytes": run.tables.file_bytes,
                   "tables": run.tables.count},
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        trace=tracer.summary() if tracer else None,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
