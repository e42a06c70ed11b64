"""Seeded inputs for the three workloads.

`search` and `toggle_gate` draw from a pool of positions whose isomorphism
classes are fixed by CORPUS_SEED, so runs with different seeds measure
comparable work.  The run seed relabels the vertices of every position and
shuffles the order inside each block of the pool, so each seed hands the
program different labeled inputs in a different order.  A run longer than
the pool starts another pass with fresh labels.  `scan` is a fixed list of
scan calls and gmk grid points, then more grid points; the seed orders the
short jobs and relabels the grid positions.

Nothing here times or solves anything.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

CORPUS_SEED = 2718

# A block is a list of position kinds: ("er", n_min, n_max, p) is an
# erdos_renyi graph and ("rc", n_min, n_max, facet_count) a random_complex
# (facet_count None draws 2..4 facets), with the vertex count drawn from
# [n_min, n_max].  The corpus repeats its block; the run seed shuffles the
# positions inside each block.
#
# `search`: dense graphs on 7 vertices and complexes on 8, where the
# closed forms rarely apply.  No 8-vertex graphs: single ones took up to
# 18 s of CPU, most of a run.
SEARCH_BLOCK = (
    *[("er", 7, 7, 0.5)] * 15, *[("er", 7, 7, 0.6)] * 5,
    ("rc", 8, 8, 6), ("rc", 8, 8, 6),
)
SEARCH_BLOCKS = 25   # about 4x the work of a 20-second run

# `toggle_gate`: acceptance criterion 1's kind of positions, graphs at
# p = 0.5 and complexes on at most 6 vertices, five graphs to one complex.
# Graphs stop at 7 vertices: one cold 8-vertex graph took over 30 s of
# CPU under the eight configurations, longer than a whole run.  One pass
# over the pool is one session with eight fresh tables, as one run of
# criterion 1 is.
TOGGLE_BLOCK = (*[("er", 1, 7, 0.5)] * 10, *[("rc", 1, 6, None)] * 2)
TOGGLE_BLOCKS = 25

GRID_CYCLES = (3, 5, 7)
GRID_MAX_SUM = 14           # grid points gmk(m, k, cycle) with m + k <= 14
ORACLE_VERTICES = 10        # scan positions this small are also oracle-checked
TAIL_KMAX = 30
WHEEL_MAX = 8
# (cycle size, vertex cap).  A 20-second run ends inside the last of these
# at today's speed; grid_filler takes over once a faster engine gets past.
MULTI_SCANS = ((7, 13), (5, 12), (3, 12))

TORUS_VALUE = 0     # acceptance criterion 5
WHEEL_VALUE = 1     # acceptance criterion 9


@dataclass
class Item:
    """One `search` or `toggle_gate` operation: a labeled position."""
    label: str
    position: object            # graphchomp SimplicialComplex
    known: Optional[int] = None  # value to check instead of the oracle
    cls: int = 0                # index of the position in its pool


@dataclass
class ScanJob:
    """One call into the scan layer, or one gmk grid point."""
    kind: str                   # "wheels" | "tails" | "grid" | "multi"
    params: tuple
    label: str
    position: object = None     # grid points only
    expected: Optional[int] = None


def relabel(position, rng: random.Random):
    """The same position with its vertex labels permuted by `rng`."""
    from graphchomp.complexes import SimplicialComplex

    n = position.ground_size
    perm = list(range(n))
    rng.shuffle(perm)
    faces = []
    for f in position.faces:
        m = 0
        v = 0
        while f:
            if f & 1:
                m |= 1 << perm[v]
            f >>= 1
            v += 1
        faces.append(m)
    return SimplicialComplex(n, frozenset(faces))


def _class_seed(workload: str, index: int) -> int:
    return random.Random(f"{CORPUS_SEED}:{workload}:{index}").randrange(1 << 30)


def _pool(workload: str, block, count: int) -> list[list[Item]]:
    from graphchomp import families as F

    sizes = random.Random(f"{CORPUS_SEED}:{workload}:sizes")
    blocks = []
    index = 0
    for _ in range(count):
        items = []
        for kind, n_min, n_max, arg in block:
            s = _class_seed(workload, index)
            n = sizes.randint(n_min, n_max)
            if kind == "er":
                items.append(Item(f"erdos_renyi:{n},p={arg},seed={s}",
                                  F.erdos_renyi(n, arg, s), cls=index))
            else:
                items.append(Item(f"random_complex:{n},seed={s},facets={arg}",
                                  F.random_complex(n, s, facet_count=arg),
                                  cls=index))
            index += 1
        blocks.append(items)
    return blocks


def pool(workload: str) -> list[list[Item]]:
    if workload == "toggle_gate":
        return _pool(workload, TOGGLE_BLOCK, TOGGLE_BLOCKS)
    from graphchomp import families as F

    blocks = _pool(workload, SEARCH_BLOCK, SEARCH_BLOCKS)
    index = sum(len(b) for b in blocks)
    fixed = [Item(f"wheel:{n}", F.wheel(n), WHEEL_VALUE) for n in (5, 6, 7, 8)]
    fixed.append(Item("torus_3x3", F.torus_3x3(), TORUS_VALUE))
    for i, (block, item) in enumerate(zip(blocks, fixed)):
        item.cls = index + i
        block.append(item)
    return blocks


def one_pass(blocks: list[list[Item]], seed: int,
             number: int) -> list[list[Item]]:
    """The pool in pass `number` of a run: shuffled inside each block and
    relabeled, both from the run seed."""
    order = random.Random(f"{seed}:{number}")
    labels = random.Random(f"{seed}:{number}:labels")
    out = []
    for block in blocks:
        block = list(block)
        order.shuffle(block)
        out.append([Item(item.label, relabel(item.position, labels),
                         item.known, item.cls) for item in block])
    return out


def scan_jobs(seed: int) -> list[ScanJob]:
    """Wheels, the two tail scans and the gmk grid in seeded order, then
    the multi-attachment scans, which take most of the time."""
    from graphchomp import families as F
    from graphchomp.closed_forms import gmk_recurrence

    rng = random.Random(seed)
    memo: dict = {}
    head = [
        ScanJob("wheels", (WHEEL_MAX,), f"wheels:{WHEEL_MAX}"),
        ScanJob("tails", ("gmk:0,0", 0, 0, 3, TAIL_KMAX), "tails:gmk:0,0:3"),
        ScanJob("tails", ("gmk:1,2", 1, 2, 6, TAIL_KMAX), "tails:gmk:1,2:6"),
    ]
    for cycle in GRID_CYCLES:
        for m in range(GRID_MAX_SUM + 1):
            for k in range(GRID_MAX_SUM + 1 - m):
                head.append(ScanJob(
                    "grid", (m, k, cycle), f"gmk:{m},{k},cycle={cycle}",
                    F.gmk(m, k, cycle), gmk_recurrence(m, k, memo)))
    rng.shuffle(head)
    label_rng = random.Random(f"{seed}:labels")
    for job in head:
        if job.kind == "grid":
            job.position = relabel(job.position, label_rng)
    multi = [ScanJob("multi", (cycle, vmax), f"multi:{cycle}:{vmax}")
             for cycle, vmax in MULTI_SCANS]
    return head + multi


def grid_filler(seed: int):
    """Endless gmk grid points past the fixed grid, by growing m + k, for
    as long as a run lasts.  Past 12 tail vertices on the 3-cycle they
    exceed the canonicalization bound and take the labeled-key path."""
    from graphchomp import families as F
    from graphchomp.closed_forms import gmk_recurrence

    labels = random.Random(f"{seed}:filler")
    memo: dict = {}
    for total in itertools.count(GRID_MAX_SUM + 1):
        for cycle in GRID_CYCLES:
            for m in range(total + 1):
                k = total - m
                yield ScanJob("grid", (m, k, cycle), f"gmk:{m},{k},cycle={cycle}",
                              relabel(F.gmk(m, k, cycle), labels),
                              gmk_recurrence(m, k, memo))


def tail_expected(m: int, k: int, kmax: int) -> list[int]:
    """Values of gmk(m, k) with its k-tail (or, for k = 0, the branch
    vertex) extended by 0..kmax vertices, from the recurrence."""
    from graphchomp.closed_forms import gmk_recurrence

    memo: dict = {}
    if k == 0 and m == 0:
        return [gmk_recurrence(j, 0, memo) for j in range(kmax + 1)]
    return [gmk_recurrence(m, k + j, memo) for j in range(kmax + 1)]


def serialize(position) -> list:
    return [position.ground_size, sorted(position.faces)]
