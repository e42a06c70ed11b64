"""Memoized Sprague-Grundy engine.

Component decomposition (xor of parts), canonical-key transposition table,
optional symmetry reduction, and optional exact closed-form fast paths.
Witness optimal moves are reported for the whole, undecomposed position.

Inside a solve a position is an int bitmap over the root's sorted faces
(see _Root): a move, a component and the fixed set of a reduction are bit
operations.  A position met for the first time is keyed from its dense
view, its faces relabeled onto 0..n-1 straight from the bitmaps, as a
sorted tuple.  When the table does not know the key, the closed forms and
the involution search read that same view; no complex is built for a
node, and the fixed set of a reduction is the position without the stars
of the moved vertices.  The involution search finds the stable colouring
on the view's entry in canon, so the engine hands no colouring on.

Every fresh-table solve meets the same sub-positions under new labels,
which canon's view entries match only label for label.  So the class move
record (class_moves) holds, for each canonical class expanded before, the
key of every part of its children, named by the move face and the part's
vertex set in the class's canonical labels.  A later expansion of the
class, in any solve, table or labelling, reads each part's key there; a
part that becomes a node registers its view in canon with the labelling
the record holds for it, so the closed forms and the involution search
still read the node's own root-order view.  Only the key is cached, so
every lookup, insert and statistic stays the same.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Iterable, Optional

from .canon import (
    DEFAULT_CANON_BOUND,
    CanonicalKey,
    position_key,
    union_key,
    view_entry,
    view_keys,
)
from .closed_forms import (
    engine_certified_value,
    engine_fast_value,
    wants_simplest_certificate,
)
from .complexes import (
    SimplicialComplex,
    bounded_store,
    components,
    dense_complex,
    graph_stats,
    moves,
    squeeze,
    vertices_of,
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


class BudgetExceededError(RuntimeError):
    """Node budget exhausted; carries table statistics for the partial run."""

    def __init__(self, message: str, stats: dict):
        super().__init__(message)
        self.stats = stats


class TableCapacityError(RuntimeError):
    def __init__(self, message: str, stats: dict):
        super().__init__(message)
        self.stats = stats


TABLE_VERSION = 2
_HEX_KEY = re.compile(r"(?:[0-9a-f]{2})+")


def _entries_checksum(entries: dict[str, int]) -> str:
    text = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


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
        entries = {k.hex(): v for k, v in sorted(self.entries.items())}
        data = {
            "format": "graphchomp-table",
            "version": TABLE_VERSION,
            "checksum": _entries_checksum(entries),
            "entries": entries,
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
        """Read a table written by save, raising ValueError on any defect.

        The sha256 checksum in the header detects edits and corruption, not
        a forger: whoever rewrites the entries can recompute it.
        """
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or data.get("format") != "graphchomp-table":
            raise ValueError("unrecognized cache file format")
        if data.get("version") != TABLE_VERSION:
            raise ValueError(
                f"cache file version {data.get('version')!r} is not "
                f"{TABLE_VERSION}; delete it and solve again"
            )
        entries = data.get("entries")
        if not isinstance(entries, dict):
            raise ValueError("cache file has no entries object")
        for k, v in entries.items():
            if not _HEX_KEY.fullmatch(k):
                raise ValueError(f"cache key {k!r} is not hex")
            if type(v) is not int or v < 0:
                raise ValueError(f"cache value {v!r} is not a nim-value")
        if data.get("checksum") != _entries_checksum(entries):
            raise ValueError("cache file checksum mismatch")
        if len(entries) > capacity:
            raise ValueError(
                f"cache file holds {len(entries)} entries, more than the "
                f"table capacity {capacity}"
            )
        table = cls(capacity)
        for k, v in entries.items():
            table.entries[bytes.fromhex(k)] = v
        return table


@dataclass
class GrundyRecord:
    value: int
    witness_moves: dict[int, int]
    stats: dict = field(default_factory=dict)


class _Root:
    """A root position's faces as bits, shared by every solve of that root.

    A position reachable from the root is an int whose bit i says that
    faces[i] is still present, so a move is `pos & survive[i]`, a
    component is `pos` restricted to the stars of its vertices, and a fixed
    set is `pos` without the stars of the moved vertices.  Its dense view,
    the form in which it is keyed, is its faces squeezed onto 0..n-1.
    Nothing here depends on the engine configuration or the table, so an
    interrupted solve leaves only true entries behind.
    """

    def __init__(self, c: SimplicialComplex):
        self.c = c
        self.faces = faces = sorted(c.faces)
        self.full = (1 << len(faces)) - 1
        # survive[i]: the faces left after the move faces[i], on first use
        self.survive: list[Optional[int]] = [None] * len(faces)
        # star[v]: the faces containing the vertex v
        self.star = star = [0] * c.ground_size
        self.edges = self.big = 0  # faces of two, and of three or more, vertices
        for i, f in enumerate(faces):
            bit = 1 << i
            verts = vertices_of(f)
            for v in verts:
                star[v] |= bit
            if len(verts) == 2:
                self.edges |= bit
            elif len(verts) > 2:
                self.big |= bit
        # labeled position -> its table key, the position_key digest of its
        # densely relabeled complex; bounded as the analysis caches are
        self.keys: dict[int, bytes] = {}

    def child(self, pos: int, i: int) -> int:
        """pos after the move faces[i]."""
        s = self.survive[i]
        if s is None:
            contains = self.full
            for v in vertices_of(self.faces[i]):
                contains &= self.star[v]
            s = self.survive[i] = self.full ^ contains
        return pos & s

    def parts(self, pos: int) -> list[int]:
        """Connected components of pos, by smallest vertex."""
        faces, star = self.faces, self.star
        edges = pos & self.edges
        out = []
        while pos:
            # the lowest face is the singleton of the smallest vertex
            verts = todo = faces[(pos & -pos).bit_length() - 1]
            reach = 0
            while todo:
                low = todo & -todo
                todo ^= low
                at = star[low.bit_length() - 1]
                reach |= at
                fresh = edges & at
                edges ^= fresh
                while fresh:
                    bit = fresh & -fresh
                    fresh ^= bit
                    other = faces[bit.bit_length() - 1] & ~verts
                    verts |= other
                    todo |= other
            part = pos & reach
            out.append(part)
            pos ^= part
        return out

    def members(self, pos: int) -> list[int]:
        """The faces of pos, in root labels."""
        faces = self.faces
        out = []
        while pos:
            low = pos & -pos
            out.append(faces[low.bit_length() - 1])
            pos ^= low
        return out

    def view(self, pos: int) -> tuple[tuple[int, ...], int]:
        """The dense view of pos, its faces relabeled onto 0..n-1 in root
        label order, and the mask of its root vertices.  Squeezing keeps
        the order of the sorted faces, so the view is sorted too."""
        faces = self.members(pos)
        vmask = reduce(or_, faces)
        return tuple(squeeze(faces, vmask)), vmask


# The context of the most recent root, kept for the next solve of the same
# root (the same position under another configuration or table).
_last_root: Optional[_Root] = None


def _root_context(c: SimplicialComplex) -> _Root:
    global _last_root
    if _last_root is None or _last_root.c != c:
        _last_root = _Root(c)
    return _last_root


# The class move record.  A class digest maps to True once a node of that
# class has been expanded.  From its second expansion on, each expansion
# records every part it keys afresh: (class digest, move, part) -> (the
# part's class key, labels), where the move face and the part's vertex set
# are masks in the class's canonical labels (the move is 0 when it is not
# inside the part, which is then the class's faces on those vertices, as a
# part of a reduction's fixed set is) and labels[l] is the part's canonical
# label of the class's label l.  The three determine the part's faces, so
# a later expansion of the class, under any labelling, reads the part's key
# here instead of canonicalizing its view.  Bounded as the analysis caches
# are: all entries together count against CACHE_SIZE.
class_moves: dict = {}


class _Parent:
    """An expanded node whose children are keyed through the record: its
    class digest and its labelling, perm[i] the canonical label of its
    i-th root vertex in vmask.  label, the canonical label of each root
    vertex, is made when a child part first misses _Root.keys."""

    __slots__ = ("digest", "vmask", "perm", "_label")

    def __init__(self, digest: bytes, vmask: int, perm: bytes):
        self.digest = digest
        self.vmask = vmask
        self.perm = perm
        self._label = None

    @property
    def label(self) -> dict[int, int]:
        if self._label is None:
            self._label = dict(zip(vertices_of(self.vmask), self.perm))
        return self._label


class _Solver:
    def __init__(self, root: _Root, cfg: EngineConfig,
                 table: TranspositionTable, node_budget: Optional[int]):
        self.root = root
        self.cfg = cfg
        self.table = table
        self.node_budget = node_budget
        self.nodes = 0
        # labeled position -> value, in front of the table; its hits count
        # as table hits, so the statistics read as if every lookup went
        # to the table, and emptying it when full changes no statistic
        self.memo: dict[int, int] = {}

    def value(self, pos: int, parent: Optional[_Parent] = None,
              move: Optional[int] = None) -> int:
        """The value of pos, a child of parent's node after the move
        faces[move] (None for a reduction's fixed set) when parent is
        given."""
        if not pos:
            return 0
        if not self.cfg.use_decomposition or pos in self.memo:
            return self.component_value(pos)
        total = 0
        for part in self.root.parts(pos):
            total ^= self.component_value(part, parent, move)
        return total

    def key(self, pos: int, view: tuple[int, ...]) -> CanonicalKey:
        """The table key of pos, whose dense view is view.  Only with
        decomposition off can pos be disconnected; within the canonical
        bound its key is then the union of its parts' keys."""
        if not self.cfg.use_decomposition and \
                view[-1].bit_length() <= DEFAULT_CANON_BOUND:
            parts = self.root.parts(pos)
            if len(parts) > 1:
                return union_key(
                    [position_key(self.root.view(p)[0]) for p in parts])
        return position_key(view)

    def parent(self, digest: bytes, view: tuple[int, ...],
               vmask: int) -> Optional[_Parent]:
        """The record context of a node about to be expanded, or None on
        its class's first expansion (which leaves the marker), with
        decomposition off or when canon holds no labelling of the view (a
        labeled key above the canonical bound has none)."""
        if not self.cfg.use_decomposition:
            return None
        if digest not in class_moves:
            bounded_store(class_moves, digest, True)
            return None
        entry = view_keys.get(view)
        if entry is None:
            return None
        return _Parent(digest, vmask, entry[1])

    def recorded_key(self, pos: int, parent: _Parent, move: Optional[int]):
        """(view, vmask, digest, hit) of a connected part pos of a child of
        parent: hit is the record entry, and view None, when the record
        knows the part; otherwise the part is keyed from its view and
        recorded."""
        root = self.root
        faces = root.members(pos)
        vmask = reduce(or_, faces)
        label = parent.label
        part = 0
        for v in vertices_of(vmask):
            part |= 1 << label[v]
        m = 0
        if move is not None:
            for v in vertices_of(root.faces[move]):
                m |= 1 << label[v]
            if m & ~part:
                m = 0
        name = parent.digest, m, part
        hit = class_moves.get(name)
        if hit is not None:
            return None, vmask, hit[0].digest, hit
        view = tuple(squeeze(faces, vmask))
        key, perm = view_entry(view)
        labels = bytearray(len(label))
        for v, p in zip(vertices_of(vmask), perm):
            labels[label[v]] = p
        bounded_store(class_moves, name, (key, bytes(labels)))
        return view, vmask, key.digest, None

    def component_value(self, pos: int, parent: Optional[_Parent] = None,
                        move: Optional[int] = None) -> int:
        value = self.memo.get(pos)
        if value is not None:
            self.table.hits += 1
            return value
        root = self.root
        view = recorded = None
        digest = root.keys.get(pos)
        if digest is None:
            if parent is None:
                view, vmask = root.view(pos)
                digest = self.key(pos, view).digest
            else:
                view, vmask, digest, recorded = self.recorded_key(
                    pos, parent, move)
            bounded_store(root.keys, pos, digest)
        value = self.table.lookup(digest)
        if value is not None:
            bounded_store(self.memo, pos, value)
            return value
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise BudgetExceededError("node budget exceeded", self.table.stats())
        if view is None:  # keyed before or from the record
            view, vmask = root.view(pos)
            if recorded is not None:
                key, labels = recorded
                label = parent.label
                perm = bytes([labels[label[v]] for v in vertices_of(vmask)])
                bounded_store(view_keys, view, (key, perm))

        stats = None
        if self.cfg.use_closed_forms:
            stats = None if pos & root.big else graph_stats(view)
            hit = engine_fast_value(view, stats)
            if hit is not None:
                value = hit[0]

        if value is None and self.cfg.use_reduction:
            involution = find_reduction(view)
            if involution is not None:
                verts = vertices_of(vmask)
                moved = 0
                for a, b in involution.pairs:
                    moved |= root.star[verts[a]] | root.star[verts[b]]
                value = self.value(pos & ~moved,
                                   self.parent(digest, view, vmask))
        if value is None and self.cfg.use_closed_forms and \
                wants_simplest_certificate(view, stats):
            hit = engine_certified_value(view, stats)
            if hit is not None:
                value = hit[0]

        if value is None:
            parent = self.parent(digest, view, vmask)
            seen = set()
            rest = pos
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                seen.add(self.value(root.child(pos, i), parent, i))
                rest ^= low
            value = mex(seen)

        self.table.insert(digest, value)
        bounded_store(self.memo, pos, value)
        return value


def _value_from_table(
    c: SimplicialComplex, cfg: EngineConfig, table: TranspositionTable
) -> Optional[int]:
    """The value of c when the table already holds each of its parts.

    Read from the memoized components and keys, without a root context,
    which costs more than the whole answer for a position seen before.
    """
    if not c.faces:
        return 0
    if not table.entries:
        return None
    if cfg.use_decomposition:
        keys = [position_key(p) for p in components(c)]
    else:
        key = position_key(c)
        if not key.exact and (vm := c.vertex_mask) & (vm + 1):
            # a labeled key of a root with vertex gaps: key it densely
            key = position_key(dense_complex(c.faces, vm))
        keys = [key]
    values = [table.entries.get(key.digest) for key in keys]
    if None in values:
        return None
    table.hits += len(keys)
    return nim_sum(values)


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
    table = table if table is not None else TranspositionTable()
    nodes = 0
    witnesses: dict[int, int] = {}
    value = _value_from_table(c, cfg, table)
    if value is None or (witness and (full_spectrum or value != 0)):
        root = _root_context(c)
        solver = _Solver(root, cfg, table, node_budget)
        if value is None:
            value = solver.value(root.full)
        if witness and (full_spectrum or value != 0):
            for s in moves(c):
                child = root.child(root.full, bisect_left(root.faces, s))
                child_value = solver.value(child)
                if full_spectrum:
                    witnesses.setdefault(child_value, s)
                elif child_value == 0:
                    # winning move: the first move (in the deterministic
                    # order) that hands the opponent a zero position
                    witnesses[0] = s
                    break
        nodes = solver.nodes
    stats = dict(table.stats(), nodes=nodes)
    return GrundyRecord(value, witnesses, stats)
