"""Isomorphism-invariant canonical keys for small complexes.

A colouring is an ordered list of cells, and a vertex's colour is the index
of its cell.  The stable colouring (`refinement_colors`) and the canonical
search (`canonical_order`) share one colour refinement for graphs and one
for complexes.  Each synchronous round splits every cell by the signature
(colour, presence, sorted neighbour colours) for graphs, or (colour, sorted
incident face ranks) for complexes, and orders the parts by it, so colour
ranks, canonical faces and their digests are those of these signatures.
Neither builds a signature for a vertex in a singleton cell or in a cell
that does not split.

A graph, a view whose faces have at most 2 vertices, refines and searches
on neighbour rows that one pass over the view builds (`_graph_rows`), and
its cells are vertex masks.  Two vertices of one cell differ only in their
neighbour counts in the parts the previous round split off, and their
signatures order as those counts do, reversed; a round splits each cell by
the bit planes of the counts, highest first (`_row_rounds`).  The first
round from the uniform colouring ranks by (presence, degree).  A complex
refines on vertex lists (`_refiner`): a round groups the vertices of each
non-singleton cell by a packed multiset of incident face ids, and sorted
signatures order the parts of a cell only when it splits.

The canonical search individualizes each vertex of the first non-singleton
cell in turn (the cell becomes [v], rest) and keeps the lexicographically
minimal relabeled face list over the leaves, each read off its singleton
cells; a graph's leaf is pb[a] | pb[b] over its edges (a, b) and pb[v] over
its singleton faces, with pb[v] the bit of v's position in the leaf.  The
first minimal leaf is also the canonical labelling: perm[v], the position
of view vertex v in it, relabels the view onto the canonical faces.
Cells whose members are pairwise interchangeable (every transposition
inside the cell is an automorphism) branch on a single representative,
which keeps cliques and co-cliques cheap.

Keys are computed on dense views: a connected position's faces relabeled
onto 0..n-1 in label order and sorted.  `view_keys` maps a view to the
pair (class key, perm).  The class key is the one `CanonicalKey` of the
view's canonical class, interned in `class_keys` by its canonical faces,
so many views share one key and its digest is computed once per class.
The stable colouring is a class invariant, so the key holds it once, in
canonical labels: view vertex v has colour key.colors[perm[v]].  Rounds
and individualization split cells in place, so every leaf keeps the
stable cells in order, and the canonical labels of stable cell i are the
i-th run; key.colors is read off the cell sizes (`_stable_colors`).
`refinement_colors` answers from there, so the involution search of a
position keyed before runs no refinement of its own and no caller hands a
colouring on.  The engine reaches a class's sub-positions under new labels
in every solve; it records them in the class's canonical labels (see
engine.class_moves) and registers the views it keys from that record here
with their labellings.  A disjoint union is keyed from its parts' keys
(`union_key`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Optional

from .complexes import (
    SimplicialComplex,
    bounded_store,
    components,
    memoize,
    squeeze,
    vertices_of,
)

DEFAULT_CANON_BOUND = 16


class CanonicalizationBoundError(RuntimeError):
    """Raised when a complex is too large for exact canonicalization."""


@dataclass(frozen=True)
class CanonicalKey:
    """A table key: the digest of the canonical (or labeled) faces.  The
    key of a connected position is shared by every view of its class and
    holds the class's stable colouring in canonical labels: canonical
    vertex l has colour colors[l] (empty for a union or a labeled key)."""
    digest: bytes
    faces: tuple[int, ...]
    exact: bool = True
    colors: bytes = field(default=b"", compare=False, repr=False)


def _encode(faces: tuple[int, ...], exact: bool) -> bytes:
    tag = b"canon:" if exact else b"label:"
    body = ("%x," * len(faces) % faces)[:-1].encode()  # hex, comma-separated
    return hashlib.sha256(tag + body).digest()


def labeled_key(c: SimplicialComplex) -> CanonicalKey:
    """Relabel-sensitive fallback key (sound for memoization, less sharing)."""
    faces = tuple(sorted(c.faces))
    return CanonicalKey(_encode(faces, exact=False), faces, exact=False)


def _graph_rows(view: tuple[int, ...], n: int):
    """One pass over a dense view: (rows, present, edges, singles), the
    neighbour bitmask of each vertex, the mask of the vertices that are
    faces, the edges as (a, b) pairs with a < b and the singleton faces as
    vertices; None when a face has 3 or more vertices."""
    rows = [0] * n
    present = 0
    edges = []
    singles = []
    for f in view:
        low = f & -f
        high = f ^ low
        if not high:
            present |= f
            singles.append(low.bit_length() - 1)
        elif high & (high - 1):
            return None
        else:
            a = low.bit_length() - 1
            b = high.bit_length() - 1
            rows[a] |= high
            rows[b] |= low
            edges.append((a, b))
    return rows, present, edges, singles


def _row_rounds(rows: list[int], cells: list[int],
                fresh: list[int]) -> list[int]:
    """Graph rounds on neighbour rows until none splits a cell; cells and
    the fresh parts are vertex masks.

    Two vertices of one cell had equal neighbour counts in every cell of
    the round before, and equal presence, so their signatures differ only
    in their counts in the parts the last round split off (`fresh`, in
    colour order; a split cell's last part follows from the others).  Of
    two signatures the smaller has the larger count at the first colour
    where they differ, so the parts of a cell come in descending order of
    these counts, compared fresh part by fresh part.  Each count is read
    as bit planes, highest first, and a plane splits every part into its
    members in the plane, then the others: a fresh vertex's row is its one
    plane, and the planes of a larger fresh part are the bitwise sum of
    its members' rows.
    """
    while fresh:
        planes: list[int] = []
        for part in fresh:
            if part & (part - 1):
                counts: list[int] = []  # counts[j]: bit j of each count
                while part:
                    low = part & -part
                    part ^= low
                    add = rows[low.bit_length() - 1]
                    for j, plane in enumerate(counts):
                        counts[j] = plane ^ add
                        add &= plane
                        if not add:
                            break
                    else:
                        counts.append(add)
                planes += reversed(counts)
            else:
                planes.append(rows[part.bit_length() - 1])
        out: list[int] = []
        fresh = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            parts = [cell]
            for plane in planes:
                split = []
                for p in parts:
                    inside = p & plane
                    if inside and inside != p:
                        split += inside, p ^ inside
                    else:
                        split.append(p)
                parts = split
            out += parts
            fresh += parts[:-1]
        cells = out
    return cells


def _row_stable(rows: list[int], present: int, colors=None) -> list[int]:
    """The stable colouring of a graph as ordered vertex masks; the first
    round from the uniform colouring ranks by (presence, degree).  Vertex
    v's colour, the index of its cell, goes to colors[v] when colors is
    given."""
    n = len(rows)
    groups: dict[int, int] = {}
    for v in range(n):
        k = (present >> v & 1) * n + rows[v].bit_count()
        groups[k] = groups.get(k, 0) | 1 << v
    cells = [groups[k] for k in sorted(groups)]
    cells = _row_rounds(rows, cells, cells[:-1])
    if colors is not None:
        for i, cell in enumerate(cells):
            while cell:
                low = cell & -cell
                colors[low.bit_length() - 1] = i
                cell ^= low
    return cells


def _row_search(rows: list[int], edges: list[tuple[int, int]],
                singles: list[int], cells: list[int],
                perm: Optional[bytearray] = None) -> tuple[int, ...]:
    """The minimal leaf below a graph's stable colouring: the canonical
    search of canonical_order, on neighbour rows.  perm, when given,
    receives the position of each vertex in the first minimal leaf."""
    n = len(rows)
    best = None
    labelling = cells
    stack = [cells]
    while stack:
        cells = stack.pop()
        for i, target in enumerate(cells):
            if target & (target - 1):
                break
        else:
            # a discrete colouring: pb[v] is the bit of v's position in it
            pb = [0] * n
            for i, cell in enumerate(cells):
                pb[cell.bit_length() - 1] = 1 << i
            leaf = [pb[a] | pb[b] for a, b in edges]
            leaf += map(pb.__getitem__, singles)
            leaf.sort()
            if best is None or leaf < best:
                best = leaf
                labelling = cells
            continue
        # (u w) is an automorphism iff u and w have the same neighbours
        # apart from each other; presence is constant within a cell
        low = target & -target
        row = rows[low.bit_length() - 1]
        rest = target ^ low
        while rest:
            w = rest & -rest
            rest ^= w
            pair = low | w
            if rows[w.bit_length() - 1] | pair != row | pair:
                choices = target
                break
        else:
            choices = low
        head, tail = cells[:i], cells[i + 1:]
        while choices:
            v = choices & -choices
            choices ^= v
            stack.append(_row_rounds(rows, head + [v, target ^ v] + tail, [v]))
    if perm is not None:
        for i, cell in enumerate(labelling):
            perm[cell.bit_length() - 1] = i
    return tuple(best)


def _refiner(n: int, fmembers: list[tuple[int, ...]]):
    """Colour refinement for a complex on 0..n-1 with the given faces, one
    of them of 3 or more vertices (a graph refines on its rows instead,
    _row_stable and _row_search).

    Returns (stable, individualize, interchangeable): `stable()` refines
    the uniform colouring; `individualize(cells, i, v)` splits v off the
    front of cell i of a stable colouring and refines the result;
    `interchangeable(cell)` says whether every transposition inside the
    cell is an automorphism.  Cells are lists sorted by vertex, and rounds
    run until none splits a cell.
    """
    bit = [1 << v for v in range(n)]
    incident: list[list[int]] = [[] for _ in range(n)]
    for fi, mem in enumerate(fmembers):
        for u in mem:
            incident[u].append(fi)
    # colour i weighs power[i] in a face's member multiset, and face
    # id j weighs 1 << vwidth * j in a vertex's incident multiset
    fwidth = max(map(len, fmembers)).bit_length()
    power = [1 << fwidth * i for i in range(n)]
    vwidth = max(map(len, incident)).bit_length()
    faces = [sum(map(bit.__getitem__, mem)) for mem in fmembers]
    faces_set = frozenset(faces)

    def splitter(cells: list[list[int]]):
        colors = [0] * n
        for i, cell in enumerate(cells):
            for v in cell:
                colors[v] = i
        # faces with equal (size, member colours) share an id
        weight = list(map(power.__getitem__, colors))
        ids: dict[int, int] = {}
        fid = [ids.setdefault(sum(map(weight.__getitem__, mem)), len(ids))
               for mem in fmembers]
        fweight = [1 << vwidth * i for i in fid]
        rank: list[int] = []

        def split(cell: list[int]) -> list[list[int]]:
            parts: dict[int, list[int]] = {}
            for v in cell:
                k = sum(map(fweight.__getitem__, incident[v]))
                parts.setdefault(k, []).append(v)
            if len(parts) == 1:
                return [cell]
            if not rank:  # rank the ids by (size, sorted member colours)
                rep: dict[int, tuple[int, ...]] = {}
                for i, mem in zip(fid, fmembers):
                    rep.setdefault(i, mem)
                rank.extend([0] * len(rep))
                order = sorted(rep, key=lambda i: (
                    len(rep[i]), sorted(map(colors.__getitem__, rep[i]))))
                for r, i in enumerate(order):
                    rank[i] = r
            return sorted(parts.values(), key=lambda p: sorted(
                rank[fid[fi]] for fi in incident[p[0]]))

        return split

    def interchangeable(cell: list[int]) -> bool:
        # transpositions with cell[0] generate all the others
        bu = bit[cell[0]]
        for w in cell[1:]:
            bw = bit[w]
            for f in faces:
                if bool(f & bu) != bool(f & bw):
                    if f ^ bu ^ bw not in faces_set:
                        return False
        return True

    def refine(cells: list[list[int]]) -> list[list[int]]:
        """Rounds until none splits a cell."""
        while True:
            split = splitter(cells)
            out: list[list[int]] = []
            for cell in cells:
                if len(cell) > 1:
                    out += split(cell)
                else:
                    out.append(cell)
            if len(out) == len(cells):
                return cells
            cells = out

    def stable() -> list[list[int]]:
        return refine([list(range(n))])

    def individualize(cells: list[list[int]], i: int, v: int):
        rest = [u for u in cells[i] if u != v]
        return refine(cells[:i] + [[v], rest] + cells[i + 1:])

    return stable, individualize, interchangeable


def dense_view(c: SimplicialComplex) -> tuple[int, ...]:
    """The faces of c relabeled onto 0..n-1 in label order (complexes.squeeze),
    sorted: the form in which canonical_order and position_key also take a
    position."""
    return tuple(sorted(squeeze(c.faces, c.vertex_mask)))


def canonical_order(
    c: SimplicialComplex | tuple[int, ...], perm: Optional[bytearray] = None,
    stable: Optional[list] = None,
) -> tuple[int, ...]:
    """The canonical face list of c, relabeled onto 0..n-1 and sorted by mask.

    c is a complex or its dense view.  The relabeling is the vertex ordering
    whose sorted face list is lexicographically least.  A bytearray of n
    zeros passed as perm receives the canonical labelling, read off the
    first minimal leaf: view vertex v has canonical label perm[v], so the
    view's faces relabeled by perm are the canonical faces.  A list passed
    as stable receives the stable colouring the search starts from, as
    ordered cells.
    """
    view = c if type(c) is tuple else dense_view(c)
    n = view[-1].bit_length() if view else 0
    graph = _graph_rows(view, n)
    if graph is not None:
        rows, present, edges, singles = graph
        cells = _row_stable(rows, present)
        best = _row_search(rows, edges, singles, cells, perm)
    else:
        best, cells = _complex_search(view, n, perm)
    if stable is not None:
        stable[:] = cells
    return best


def _complex_search(view: tuple[int, ...], n: int,
                    perm: Optional[bytearray]):
    """The canonical search of canonical_order for a complex with a face of
    3 or more vertices: (canonical faces, stable cells)."""
    fmembers = [vertices_of(f) for f in view]
    stable, individualize, interchangeable = _refiner(n, fmembers)

    best = labelling = None

    def descend(cells: list[list[int]]):
        nonlocal best, labelling
        for i, target in enumerate(cells):
            if len(target) > 1:
                break
        else:
            # a discrete colouring: the cells are the vertex order
            pos = [0] * n
            for i, (v,) in enumerate(cells):
                pos[v] = i
            out = []
            for mem in fmembers:
                m = 0
                for u in mem:
                    m |= 1 << pos[u]
                out.append(m)
            out.sort()
            enc = tuple(out)
            if best is None or enc < best:
                best = enc
                labelling = pos
            return
        choices = target[:1] if interchangeable(target) else target
        for v in choices:
            descend(individualize(cells, i, v))

    cells = stable()
    descend(cells)
    if perm is not None:
        perm[:] = labelling
    return best, cells


# _ONE_BYTE[i] is the byte string of i alone
_ONE_BYTE = [bytes((i,)) for i in range(256)]


def _stable_colors(stable: list, n: int) -> bytes:
    """The stable colouring in canonical labels, from its ordered cells
    (vertex masks or vertex lists) on n vertices: canonical vertex l has
    colour colors[l].  Every leaf keeps the stable cells in order, so cell
    i holds the i-th run of canonical labels."""
    if len(stable) == n:  # discrete: cell l holds canonical vertex l
        return bytes(range(n))
    sizes = map(len if type(stable[0]) is list else int.bit_count, stable)
    return b"".join(map(bytes.__mul__, _ONE_BYTE, sizes))


# canonical faces -> the one key of that class, and dense view of a
# connected position -> (its class key, its canonical labelling: view
# vertex v has canonical label perm[v]); both bounded as the analysis
# caches are, and holding no complex
class_keys: dict[tuple[int, ...], CanonicalKey] = {}
view_keys: dict[tuple[int, ...], tuple[CanonicalKey, bytes]] = {}


def view_entry(view: tuple[int, ...]) -> tuple[CanonicalKey, bytes]:
    """(class key, canonical labelling) of a connected position, given as
    its dense view: its view_keys entry, made by a canonical search on a
    miss."""
    entry = view_keys.get(view)
    if entry is None:
        n = view[-1].bit_length()
        perm = bytearray(n)
        stable: list = []
        # the canonical faces come sorted by mask, so a stable sort by size
        # puts them in (size, mask) order
        faces = tuple(sorted(canonical_order(view, perm, stable),
                             key=int.bit_count))
        key = class_keys.get(faces)
        if key is None:
            # the stable colouring is a class invariant: the key holds it
            # once, in canonical labels
            key = CanonicalKey(_encode(faces, exact=True), faces, True,
                               _stable_colors(stable, n))
            bounded_store(class_keys, faces, key)
        entry = key, bytes(perm)
        bounded_store(view_keys, view, entry)
    return entry


def refinement_colors(c: SimplicialComplex | tuple[int, ...]) -> dict[int, int]:
    """Stable vertex coloring of c, a complex or its sorted face tuple;
    automorphisms preserve color classes.  Read off the class key when
    view_keys holds c's view: vertex v has colour key.colors[perm[v]], and
    no refinement runs.
    """
    faces = c if type(c) is tuple else sorted(c.faces)
    vmask = reduce(or_, faces, 0)
    verts = vertices_of(vmask)
    view = tuple(squeeze(faces, vmask))  # c itself when c is a dense view
    entry = view_keys.get(view)
    if entry is not None:
        # perm's bytes are canonical labels: translate maps each through
        # the class colouring, padded to a 256-byte table
        key, perm = entry
        return dict(zip(verts, perm.translate(key.colors.ljust(256, b"\0"))))
    n = len(verts)
    colors = [0] * n
    graph = _graph_rows(view, n)
    if graph is not None:
        _row_stable(*graph[:2], colors)
        return dict(zip(verts, colors))
    stable, _, _ = _refiner(n, [vertices_of(f) for f in view])
    for i, cell in enumerate(stable()):
        for v in cell:
            colors[v] = i
    return dict(zip(verts, colors))


def union_key(keys: list[CanonicalKey]) -> CanonicalKey:
    """The canonical key of a disjoint union, from the canonical keys of its
    connected parts: the sorted multiset of their canonical forms,
    re-offset into one ground set."""
    canon_faces = []
    offset = 0
    for faces in sorted(key.faces for key in keys):
        canon_faces.extend(f << offset for f in faces)
        offset += max(f.bit_length() for f in faces)
    canon_faces.sort()
    canon_faces.sort(key=int.bit_count)
    faces = tuple(canon_faces)
    return CanonicalKey(_encode(faces, exact=True), faces)


@memoize
def canonical_key(c: SimplicialComplex) -> CanonicalKey:
    """Canonical key; equal exactly for isomorphic complexes.

    Raises CanonicalizationBoundError above DEFAULT_CANON_BOUND vertices;
    callers may fall back to labeled_key.
    """
    if not c.faces:
        return CanonicalKey(_encode((), exact=True), ())
    n = c.vertex_mask.bit_count()
    if n > DEFAULT_CANON_BOUND:
        raise CanonicalizationBoundError(
            f"{n} vertices exceeds canonicalization bound "
            f"{DEFAULT_CANON_BOUND}"
        )
    parts = components(c)
    if len(parts) > 1:
        return union_key([canonical_key(p) for p in parts])
    return view_entry(dense_view(c))[0]


def position_key(c: SimplicialComplex | tuple[int, ...]) -> CanonicalKey:
    """Canonical key when within DEFAULT_CANON_BOUND vertices, else the
    labeled fallback.

    c is a complex, or the dense view of a nonempty position that is
    connected or has more than DEFAULT_CANON_BOUND vertices; the labeled
    key of a view is in the view's labels.
    """
    if type(c) is tuple:
        if c[-1].bit_length() > DEFAULT_CANON_BOUND:
            return CanonicalKey(_encode(c, exact=False), c, exact=False)
        return view_entry(c)[0]
    try:
        return canonical_key(c)
    except CanonicalizationBoundError:
        return labeled_key(c)


def isomorphic(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    return canonical_key(a).faces == canonical_key(b).faces
