"""Isomorphism-invariant canonical keys for small complexes.

One colour refinement, on ordered cells, serves both the stable colouring
(`refinement_colors`) and the canonical search (`canonical_order`).  A
colouring is an ordered list of cells, and a vertex's colour is the index
of its cell.  Each synchronous round splits every cell by the signature
(colour, presence, sorted neighbour colours) for graphs, or (colour, sorted
incident face ranks) for complexes, and orders the parts by it, so colour
ranks, canonical faces and their digests are those of these signatures.
A round builds no signature for a vertex in a singleton cell or in a cell
that does not split: it groups the vertices of each non-singleton cell by
one exact int.  For graphs that int counts a vertex's neighbours in each
part the previous round split off, and its reverse order is the signature
order; the first round from the uniform colouring ranks by (presence,
degree).  For complexes it is a packed multiset of incident face ids, and
sorted signatures order the parts of a cell only when it splits.

The canonical search individualizes each vertex of the first non-singleton
cell in turn (the cell becomes [v], rest) and keeps the lexicographically
minimal relabeled face list over the leaves, each read off its singleton
cells.  Cells whose members are pairwise interchangeable (every
transposition inside the cell is an automorphism) branch on a single
representative, which keeps cliques and co-cliques cheap.

Keys are computed on dense views: a connected position's faces relabeled
onto 0..n-1 in label order and sorted.  `view_keys` maps a view to the
pair (class key, stable colouring).  The class key is the one
`CanonicalKey` of the view's canonical class, interned in `class_keys` by
its canonical faces, so many views share one key and its digest is
computed once per class.  The colouring is the one the view's canonical
search started from, in the view's labels, and `refinement_colors`
answers from it, so the involution search of a position keyed before runs
no refinement of its own and no caller hands a colouring on.  A disjoint
union is keyed from its parts' keys (`union_key`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
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
    key of a connected position is shared by every view of its class; the
    stable colouring of a view sits next to it in view_keys."""
    digest: bytes
    faces: tuple[int, ...]
    exact: bool = True


def _encode(faces: tuple[int, ...], exact: bool) -> bytes:
    tag = b"canon:" if exact else b"label:"
    body = ("%x," * len(faces) % faces)[:-1].encode()  # hex, comma-separated
    return hashlib.sha256(tag + body).digest()


def labeled_key(c: SimplicialComplex) -> CanonicalKey:
    """Relabel-sensitive fallback key (sound for memoization, less sharing)."""
    faces = tuple(sorted(c.faces))
    return CanonicalKey(_encode(faces, exact=False), faces, exact=False)


def _refiner(n: int, fmembers: list[tuple[int, ...]]):
    """Colour refinement for the complex on 0..n-1 with the given faces.

    Returns (stable, individualize, interchangeable): `stable()` refines
    the uniform colouring; `individualize(cells, i, v)` splits v off the
    front of cell i of a stable colouring and refines the result;
    `interchangeable(cell)` says whether every transposition inside the
    cell is an automorphism.  Cells are lists sorted by vertex, and rounds
    run until none splits a cell.  For graphs the face multiset of a vertex
    reduces to whether the vertex is a face plus the multiset of neighbour
    colours, which induces the same partition more cheaply.
    """
    bit = [1 << v for v in range(n)]
    if max(map(len, fmembers), default=0) <= 2:
        nb = [0] * n  # neighbour bitmasks
        present = [False] * n
        for mem in fmembers:
            if len(mem) == 1:
                present[mem[0]] = True
            else:
                a, b = mem
                nb[a] |= bit[b]
                nb[b] |= bit[a]
        degree = [row.bit_count() for row in nb]
        width = max(degree, default=0).bit_length()  # one digit per count
        groups: dict[int, list[int]] = {}
        for v in range(n):
            groups.setdefault(present[v] * n + degree[v], []).append(v)
        first = [groups[k] for k in sorted(groups)]

        def splitter(cells: list[list[int]], fresh: list[int]):
            # Two vertices of one cell had equal neighbour counts in every
            # cell of the round before, and equal presence, so their
            # signatures differ only in their counts in the parts the last
            # round split off (`fresh`, in colour order; a split cell's
            # last part follows from the others).  Of two signatures the
            # smaller has the larger count at the first colour where they
            # differ, so the key, one digit per fresh part, sorts the parts
            # in reverse.
            def split(cell: list[int]) -> list[list[int]]:
                parts: dict[int, list[int]] = {}
                for v in cell:
                    row = nb[v]
                    k = 0
                    for m in fresh:
                        k = k << width | (row & m).bit_count()
                    parts.setdefault(k, []).append(v)
                return [parts[k] for k in sorted(parts, reverse=True)]

            return split

        def interchangeable(cell: list[int]) -> bool:
            # (u w) is an automorphism iff u and w have the same neighbours
            # apart from each other; presence is constant within a cell
            u = cell[0]
            for w in cell[1:]:
                pair = bit[u] | bit[w]
                if nb[u] | pair != nb[w] | pair:
                    return False
            return True
    else:
        incident: list[list[int]] = [[] for _ in range(n)]
        for fi, mem in enumerate(fmembers):
            for u in mem:
                incident[u].append(fi)
        # colour i weighs power[i] in a face's member multiset, and face
        # id j weighs 1 << vwidth * j in a vertex's incident multiset
        fwidth = max(map(len, fmembers)).bit_length()
        power = [1 << fwidth * i for i in range(n)]
        vwidth = max(map(len, incident)).bit_length()
        first = [list(range(n))]
        faces = [sum(map(bit.__getitem__, mem)) for mem in fmembers]
        faces_set = frozenset(faces)

        def splitter(cells: list[list[int]], fresh: list[int]):
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

    def refine(cells: list[list[int]], fresh: list[int]) -> list[list[int]]:
        """Rounds until none splits a cell.  `fresh` holds the masks of the
        parts the previous round split off, each split cell's last part left
        out; graph rounds read only these."""
        while True:
            split = splitter(cells, fresh)
            out: list[list[int]] = []
            fresh = []
            for cell in cells:
                if len(cell) > 1:
                    parts = split(cell)
                    if len(parts) > 1:
                        out += parts
                        for part in parts[:-1]:
                            fresh.append(sum(map(bit.__getitem__, part)))
                        continue
                out.append(cell)
            if not fresh:
                return cells
            cells = out

    def stable() -> list[list[int]]:
        fresh = [sum(map(bit.__getitem__, part)) for part in first[:-1]]
        return refine(first, fresh)

    def individualize(cells: list[list[int]], i: int, v: int):
        rest = [u for u in cells[i] if u != v]
        return refine(cells[:i] + [[v], rest] + cells[i + 1:], [bit[v]])

    return stable, individualize, interchangeable


def dense_view(c: SimplicialComplex) -> tuple[int, ...]:
    """The faces of c relabeled onto 0..n-1 in label order (complexes.squeeze),
    sorted: the form in which canonical_order and position_key also take a
    position."""
    return tuple(sorted(squeeze(c.faces, c.vertex_mask)))


def canonical_order(
    c: SimplicialComplex | tuple[int, ...], colors: Optional[bytearray] = None
) -> tuple[int, ...]:
    """The canonical face list of c, relabeled onto 0..n-1 and sorted by mask.

    c is a complex or its dense view.  The relabeling is the vertex ordering
    whose sorted face list is lexicographically least.  A bytearray of n
    zeros passed as colors receives the stable colouring the search starts
    from, in the view's labels.
    """
    view = c if type(c) is tuple else dense_view(c)
    n = view[-1].bit_length() if view else 0
    fmembers = [vertices_of(f) for f in view]
    stable, individualize, interchangeable = _refiner(n, fmembers)

    best = None

    def descend(cells: list[list[int]]):
        nonlocal best
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
            return
        choices = target[:1] if interchangeable(target) else target
        for v in choices:
            descend(individualize(cells, i, v))

    cells = stable()
    if colors is not None:
        for i, cell in enumerate(cells):
            for v in cell:
                colors[v] = i
    descend(cells)
    return best


# canonical faces -> the one key of that class, and dense view of a
# connected position -> (its class key, its stable colouring: vertex v has
# colour colors[v]); both bounded as the analysis caches are, and holding
# no complex
class_keys: dict[tuple[int, ...], CanonicalKey] = {}
view_keys: dict[tuple[int, ...], tuple[CanonicalKey, bytes]] = {}


def _view_key(view: tuple[int, ...]) -> CanonicalKey:
    """The canonical key of a connected position, given as its dense view."""
    entry = view_keys.get(view)
    if entry is None:
        colors = bytearray(view[-1].bit_length())
        # the canonical faces come sorted by mask, so a stable sort by size
        # puts them in (size, mask) order
        faces = tuple(sorted(canonical_order(view, colors), key=int.bit_count))
        key = class_keys.get(faces)
        if key is None:
            key = CanonicalKey(_encode(faces, exact=True), faces)
            bounded_store(class_keys, faces, key)
        entry = key, bytes(colors)
        bounded_store(view_keys, view, entry)
    return entry[0]


def refinement_colors(c: SimplicialComplex | tuple[int, ...]) -> dict[int, int]:
    """Stable vertex coloring of c, a complex or its sorted face tuple;
    automorphisms preserve color classes.  Read off c's view entry when
    view_keys holds one: its canonical search started from this colouring.
    """
    faces = c if type(c) is tuple else sorted(c.faces)
    vmask = reduce(or_, faces, 0)
    verts = vertices_of(vmask)
    view = tuple(squeeze(faces, vmask))  # c itself when c is a dense view
    entry = view_keys.get(view)
    if entry is not None:
        return dict(zip(verts, entry[1]))
    stable, _, _ = _refiner(len(verts), [vertices_of(f) for f in view])
    colors = [0] * len(verts)
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
    return _view_key(dense_view(c))


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
        return _view_key(c)
    try:
        return canonical_key(c)
    except CanonicalizationBoundError:
        return labeled_key(c)


def isomorphic(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    return canonical_key(a).faces == canonical_key(b).faces
