"""Memoized Sprague-Grundy engine.

Component decomposition (xor of parts), canonical-key transposition table,
optional symmetry reduction, and optional exact closed-form fast paths.
Witness optimal moves are reported for the whole, undecomposed position.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .canon import CanonicalKey, position_key
from .closed_forms import (
    engine_certified_value,
    engine_fast_value,
    wants_simplest_certificate,
)
from .complexes import (
    SimplicialComplex,
    components,
    graph_stats,
    is_graph,
    moves,
    remove_face,
)
from .symmetry import find_reduction


def mex(values: Iterable[int]) -> int:
    s = set(values)
    g = 0
    while g in s:
        g += 1
    return g


def nim_sum(values: Iterable[int]) -> int:
    total = 0
    for v in values:
        total ^= v
    return total


@dataclass(frozen=True)
class EngineConfig:
    use_reduction: bool = True
    use_closed_forms: bool = True
    use_decomposition: bool = True
    memo_capacity: int = 4_000_000


class BudgetExceededError(RuntimeError):
    """Node budget exhausted; carries table statistics for the partial run."""

    def __init__(self, message: str, stats: dict):
        super().__init__(message)
        self.stats = stats


class TableCapacityError(RuntimeError):
    def __init__(self, message: str, stats: dict):
        super().__init__(message)
        self.stats = stats


class TranspositionTable:
    """Canonical key -> nim-value store with idempotent inserts."""

    def __init__(self, capacity: int = 4_000_000):
        self.capacity = capacity
        self.entries: dict[bytes, int] = {}
        self.hits = 0
        self.misses = 0
        self.inserts = 0

    def lookup(self, key: bytes) -> Optional[int]:
        value = self.entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def insert(self, key: bytes, value: int) -> None:
        existing = self.entries.get(key)
        if existing is not None:
            if existing != value:
                raise ValueError("conflicting insert for transposition key")
            return
        if len(self.entries) >= self.capacity:
            raise TableCapacityError(
                "transposition table capacity exceeded", self.stats()
            )
        self.entries[key] = value
        self.inserts += 1

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "inserts": self.inserts,
            "size": len(self.entries),
        }

    def save(self, path: str) -> None:
        data = {
            "format": "graphchomp-table",
            "version": 1,
            "entries": {k.hex(): v for k, v in sorted(self.entries.items())},
        }
        # write a sibling file and rename it over the target, so a failed
        # write leaves the previous table intact
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(data, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str, capacity: int = 4_000_000) -> "TranspositionTable":
        with open(path) as fh:
            data = json.load(fh)
        if data.get("format") != "graphchomp-table" or data.get("version") != 1:
            raise ValueError("unrecognized cache file format")
        table = cls(capacity)
        for k, v in data["entries"].items():
            table.entries[bytes.fromhex(k)] = int(v)
        return table


@dataclass
class GrundyRecord:
    value: int
    witness_moves: dict[int, int]
    position_key: CanonicalKey
    stats: dict = field(default_factory=dict)


class _Solver:
    def __init__(self, cfg: EngineConfig, table: TranspositionTable,
                 node_budget: Optional[int]):
        self.cfg = cfg
        self.table = table
        self.node_budget = node_budget
        self.nodes = 0

    def value(self, c: SimplicialComplex) -> int:
        if not c.faces:
            return 0
        if self.cfg.use_decomposition:
            parts = components(c)
            if len(parts) > 1:
                return nim_sum(self.component_value(p) for p in parts)
            return self.component_value(parts[0])
        return self.component_value(c)

    def component_value(self, c: SimplicialComplex) -> int:
        key = position_key(c)
        cached = self.table.lookup(key.digest)
        if cached is not None:
            return cached
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise BudgetExceededError("node budget exceeded", self.table.stats())

        value = None
        stats = graph_stats(c) if is_graph(c) else None
        if self.cfg.use_closed_forms:
            hit = engine_fast_value(c, stats)
            if hit is not None:
                value = hit[0]

        if value is None and (self.cfg.use_reduction or self.cfg.use_closed_forms):
            reduction = None
            searched = False
            if self.cfg.use_reduction:
                reduction = find_reduction(c)
                searched = True
                if reduction is not None:
                    value = self.value(reduction[1])
            if value is None and self.cfg.use_closed_forms and \
                    wants_simplest_certificate(c, stats):
                if not searched:
                    reduction = find_reduction(c)
                    searched = True
                if reduction is None:
                    hit = engine_certified_value(c, stats)
                    if hit is not None:
                        value = hit[0]

        if value is None:
            faces = c.faces
            sup = {s: frozenset(f for f in faces if f & s == s) for s in faces}
            value = mex(
                self.value(SimplicialComplex(c.ground_size, faces - sup[s]))
                for s in faces
            )

        self.table.insert(key.digest, value)
        return value


def grundy(
    c: SimplicialComplex,
    cfg: Optional[EngineConfig] = None,
    table: Optional[TranspositionTable] = None,
    node_budget: Optional[int] = None,
    full_spectrum: bool = False,
    witness: bool = True,
) -> GrundyRecord:
    """Exact nim-value; for nonzero positions, also a winning witness move.

    With full_spectrum, one witness move per reachable child value.  With
    witness=False the child search is skipped entirely (value only).
    """
    cfg = cfg or EngineConfig()
    table = table if table is not None else TranspositionTable(cfg.memo_capacity)
    solver = _Solver(cfg, table, node_budget)
    value = solver.value(c)
    witnesses: dict[int, int] = {}
    if witness and full_spectrum:
        for s in moves(c):
            child_value = solver.value(remove_face(c, s))
            witnesses.setdefault(child_value, s)
    elif witness and value != 0:
        # winning move: the first move (in the deterministic order) that
        # hands the opponent a zero position
        for s in moves(c):
            if solver.value(remove_face(c, s)) == 0:
                witnesses[0] = s
                break
    key = position_key(c)
    stats = dict(table.stats(), nodes=solver.nodes)
    return GrundyRecord(value, witnesses, key, stats)


def classify(
    c: SimplicialComplex,
    cfg: Optional[EngineConfig] = None,
    table: Optional[TranspositionTable] = None,
    node_budget: Optional[int] = None,
) -> str:
    rec = grundy(c, cfg, table, node_budget)
    return "P" if rec.value == 0 else "N"


def optimal_move(
    c: SimplicialComplex,
    cfg: Optional[EngineConfig] = None,
    table: Optional[TranspositionTable] = None,
    node_budget: Optional[int] = None,
) -> Optional[int]:
    """A move to a zero-valued child for N-positions; None for P-positions."""
    rec = grundy(c, cfg, table, node_budget)
    if rec.value == 0:
        return None
    return rec.witness_moves[0]
