"""Isomorphism-invariant canonical keys for small complexes.

Iterated partition refinement over vertex colors, followed by
individualization backtracking that picks the lexicographically minimal
relabeled face list.  Cells whose members are pairwise interchangeable
(every transposition inside the cell is an automorphism) branch on a single
representative, which keeps cliques and co-cliques cheap.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from .complexes import (
    SimplicialComplex,
    components,
    face_size,
    mask_of,
    memoize,
    vertices_of,
)

DEFAULT_CANON_BOUND = 16


class CanonicalizationBoundError(RuntimeError):
    """Raised when a complex is too large for exact canonicalization."""


@dataclass(frozen=True)
class CanonicalKey:
    digest: bytes
    faces: tuple[int, ...]
    exact: bool = True


def _encode(faces: tuple[int, ...], exact: bool) -> bytes:
    tag = b"canon:" if exact else b"label:"
    body = ",".join(format(f, "x") for f in faces).encode()
    return hashlib.sha256(tag + body).digest()


def labeled_key(c: SimplicialComplex) -> CanonicalKey:
    """Relabel-sensitive fallback key (sound for memoization, less sharing)."""
    faces = tuple(sorted(c.faces))
    return CanonicalKey(_encode(faces, exact=False), faces, exact=False)


def _dense_faces(c: SimplicialComplex, verts: list[int]) -> list[int]:
    """Faces of c relabeled onto 0..n-1, given its n sorted vertices."""
    if not verts or verts[-1] == len(verts) - 1:
        return list(c.faces)
    vidx = {v: i for i, v in enumerate(verts)}
    return [mask_of(vidx[u] for u in vertices_of(f)) for f in c.faces]


def _refiner(
    n: int, fmembers: list[tuple[int, ...]]
) -> Callable[[list[int]], list[int]]:
    """Color refinement for the complex on 0..n-1 with the given faces.

    The returned function refines a vertex coloring until it is stable: a
    vertex's new color ranks its old color with the multiset of colors of
    its faces, so automorphisms preserve every color class.  For graphs the
    face multiset reduces to whether the vertex is a face plus the multiset
    of neighbor colors, which induces the same partition more cheaply.
    """
    if all(len(mem) <= 2 for mem in fmembers):
        nbrs: list[list[int]] = [[] for _ in range(n)]
        present = [False] * n
        for mem in fmembers:
            if len(mem) == 1:
                present[mem[0]] = True
            else:
                a, b = mem
                nbrs[a].append(b)
                nbrs[b].append(a)

        def signatures(colors: list[int]) -> list[tuple]:
            return [
                (colors[v], present[v], *sorted(colors[u] for u in nbrs[v]))
                for v in range(n)
            ]
    else:
        fincident: list[list[int]] = [[] for _ in range(n)]
        for fi, mem in enumerate(fmembers):
            for u in mem:
                fincident[u].append(fi)

        def signatures(colors: list[int]) -> list[tuple]:
            fkeys = [
                (len(mem), *sorted(colors[u] for u in mem)) for mem in fmembers
            ]
            frank = {k: i for i, k in enumerate(sorted(set(fkeys)))}
            fk = [frank[k] for k in fkeys]
            return [
                (colors[v], *sorted(fk[fi] for fi in fincident[v]))
                for v in range(n)
            ]

    def refine(colors: list[int]) -> list[int]:
        n_colors = len(set(colors))
        while True:
            sigs = signatures(colors)
            ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
            colors = [ranking[s] for s in sigs]
            if len(ranking) == n_colors:
                return colors
            n_colors = len(ranking)

    return refine


def refinement_colors(c: SimplicialComplex) -> dict[int, int]:
    """Stable vertex coloring; automorphisms preserve color classes."""
    verts = sorted(c.vertices())
    fmembers = [vertices_of(f) for f in _dense_faces(c, verts)]
    colors = _refiner(len(verts), fmembers)([0] * len(verts))
    return dict(zip(verts, colors))


def canonical_order(c: SimplicialComplex) -> list[int]:
    """Vertex ordering realizing the canonical (minimal) face list."""
    verts = sorted(c.vertices())
    n = len(verts)
    faces = sorted(_dense_faces(c, verts))
    faces_set = frozenset(faces)
    fmembers = [vertices_of(f) for f in faces]
    refine = _refiner(n, fmembers)

    best: list = [None, None]

    def encode(order):
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        out = []
        for mem in fmembers:
            m = 0
            for u in mem:
                m |= 1 << pos[u]
            out.append(m)
        out.sort()
        return tuple(out)

    def interchangeable(cell) -> bool:
        for i, u in enumerate(cell):
            bu = 1 << u
            for w in cell[i + 1:]:
                bw = 1 << w
                for f in faces:
                    if bool(f & bu) != bool(f & bw):
                        if f ^ bu ^ bw not in faces_set:
                            return False
        return True

    def descend(colors: list[int]):
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = None
        for col in sorted(cells):
            if len(cells[col]) > 1:
                target = cells[col]
                break
        if target is None:
            order = sorted(range(n), key=colors.__getitem__)
            enc = encode(order)
            if best[0] is None or enc < best[0]:
                best[0], best[1] = enc, order
            return
        choices = target[:1] if interchangeable(target) else target
        for v in choices:
            branched = [(colors[u], 0 if u == v else 1) for u in range(n)]
            ranking = {s: i for i, s in enumerate(sorted(set(branched)))}
            descend(refine([ranking[s] for s in branched]))

    descend(refine([0] * n))
    return [verts[v] for v in best[1]]


@memoize
def canonical_key(c: SimplicialComplex) -> CanonicalKey:
    """Canonical key; equal exactly for isomorphic complexes.

    Raises CanonicalizationBoundError above DEFAULT_CANON_BOUND vertices;
    callers may fall back to labeled_key.
    """
    if not c.faces:
        return CanonicalKey(_encode((), exact=True), ())
    verts = sorted(c.vertices())
    if len(verts) > DEFAULT_CANON_BOUND:
        raise CanonicalizationBoundError(
            f"{len(verts)} vertices exceeds canonicalization bound "
            f"{DEFAULT_CANON_BOUND}"
        )
    if verts[-1] != len(verts) - 1:
        # normalize away label gaps first so all shifted relabelings of the
        # same position share one cache entry and one canonical search
        return canonical_key(
            SimplicialComplex(len(verts), frozenset(_dense_faces(c, verts)))
        )
    parts = components(c)
    if len(parts) > 1:
        # canonical form of a disjoint union: the sorted multiset of the
        # components' canonical forms, re-offset into one ground set
        part_faces = sorted(canonical_key(p).faces for p in parts)
        canon_faces = []
        offset = 0
        for faces in part_faces:
            canon_faces.extend(f << offset for f in faces)
            offset += max(f.bit_length() for f in faces)
    else:
        pos = {v: i for i, v in enumerate(canonical_order(c))}
        canon_faces = [
            mask_of(pos[u] for u in vertices_of(f)) for f in c.faces
        ]
    canon_faces.sort(key=lambda m: (face_size(m), m))
    return CanonicalKey(_encode(tuple(canon_faces), exact=True), tuple(canon_faces))


def position_key(c: SimplicialComplex) -> CanonicalKey:
    """Canonical key when within DEFAULT_CANON_BOUND, else the labeled fallback."""
    try:
        return canonical_key(c)
    except CanonicalizationBoundError:
        return labeled_key(c)


def isomorphic(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    return canonical_key(a).faces == canonical_key(b).faces
