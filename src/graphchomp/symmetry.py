"""Involution search and symmetry reduction of game positions.

A valid involution is an order-2 vertex permutation that maps faces to
faces and whose setwise-fixed faces are all pointwise fixed (equivalently,
the fixed point set is itself a simplicial complex).  Such a reduction
preserves the nim-value, so positions can be shrunk before searching.

The search backtracks on canon's representation of a dense view: the
stable cells (canon.stable_cells) and neighbour rows (canon._view_rows) as
vertex masks.  Its first involution answers both find_reduction and
is_simplest_form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterator, Optional

from .canon import _view_rows, stable_cells
from .complexes import (
    SimplicialComplex,
    dense_complex,
    mask_of,
    memoize,
    squeeze,
    vertices_of,
)


@dataclass(frozen=True)
class Involution:
    pairs: tuple[tuple[int, int], ...]
    fixed: tuple[int, ...]

    @classmethod
    def from_mapping(cls, mapping: dict[int, int]) -> "Involution":
        pairs = sorted((v, w) for v, w in mapping.items() if v < w)
        fixed = sorted(v for v in mapping if mapping[v] == v)
        return cls(tuple(pairs), tuple(fixed))

    @property
    def mapping(self) -> dict[int, int]:
        m = {v: v for v in self.fixed}
        for a, b in self.pairs:
            m[a] = b
            m[b] = a
        return m

    def is_identity(self) -> bool:
        return not self.pairs


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[Involution, ...]
    complete: bool = True

    def to_json(self) -> str:
        data = [
            {
                "pairs": [list(p) for p in t.pairs],
                "fixed_vertices": list(t.fixed),
            }
            for t in self.steps
        ]
        return json.dumps({"steps": data, "complete": self.complete}, sort_keys=True)

    @staticmethod
    def replay(c: SimplicialComplex, trace_json: str) -> SimplicialComplex:
        data = json.loads(trace_json)
        pos = c
        for step in data["steps"]:
            t = Involution(tuple(map(tuple, step["pairs"])),
                           tuple(step["fixed_vertices"]))
            pos = fixed_point_set(pos, t)
        return pos


def validate_involution(
    c: SimplicialComplex | frozenset[int], t: "Involution | dict[int, int]"
) -> tuple[bool, Optional[str]]:
    """Check order 2, face preservation, and that the fixed set is a complex.

    c is a complex or its face set.  Accepts a raw vertex mapping as well,
    so non-involutions can be rejected with a reason instead of failing.
    """
    mapping = t if isinstance(t, dict) else t.mapping
    faces = c.faces if isinstance(c, SimplicialComplex) else c
    verts = set(vertices_of(reduce(or_, faces, 0)))
    if set(mapping) != verts or set(mapping.values()) != verts:
        raise ValueError("involution must permute exactly the complex's vertices")
    for v, w in mapping.items():
        if mapping[w] != v:
            return False, "not-order-2"
    moved = mask_of(v for v, w in mapping.items() if v != w)
    fixed_set_ok = True
    for f in faces:
        image = mask_of(mapping[v] for v in vertices_of(f))
        if image not in faces:
            return False, "not-face-preserving"
        if image == f and f & moved:
            fixed_set_ok = False
    if not fixed_set_ok:
        return False, "fixed-set-not-complex"
    return True, None


def fixed_point_set(c: SimplicialComplex, t: Involution) -> SimplicialComplex:
    """The sub-position on pointwise-fixed vertices, densely relabeled."""
    ok, reason = validate_involution(c, t)
    if not ok:
        raise ValueError(f"invalid involution: {reason}")
    return _fixed_subcomplex(c, t)


def _fixed_subcomplex(c: SimplicialComplex, t: Involution) -> SimplicialComplex:
    """fixed_point_set for an involution already known to be valid."""
    fixed_mask = mask_of(t.fixed)
    faces = [f for f in c.faces if f & fixed_mask == f]
    return dense_complex(faces, reduce(or_, faces, 0))


def _sorted_faces(c: SimplicialComplex | tuple[int, ...]) -> tuple[int, ...]:
    return c if type(c) is tuple else tuple(sorted(c.faces))


def _valid_involutions(c: SimplicialComplex | tuple[int, ...]) -> Iterator[Involution]:
    """All valid non-identity involutions of c, a complex or its sorted face
    tuple, in c's labels, by backtracking on vertex masks over c's dense
    view (a gapped c is squeezed onto it and the results mapped back).

    Order: the lowest unassigned vertex v tries each partner w in
    ascending order, then being fixed.  The partners are v's stable cell
    less the assigned vertices and v's neighbours, all above v: stable
    colours are automorphism-invariant, and swapping adjacent vertices
    fixes their edge setwise.  The image w of v (v when fixed) must keep
    v's adjacency to the fixed vertices, one test on the rows, and to each
    assigned pair (a, b): v~a iff w~b and v~b iff w~a.

    On a graph every leaf is valid: colours keep presence, so singletons
    map to singletons; the tests keep adjacency, so edges map to edges; and
    no edge has its endpoints swapped, so every setwise-fixed face is
    pointwise fixed.  A complex's leaves are yielded only if
    validate_involution accepts them.
    """
    faces = _sorted_faces(c)
    vmask = reduce(or_, faces, 0)
    n = vmask.bit_count()
    view = tuple(squeeze(faces, vmask))  # faces itself when c is dense
    colors, cells = stable_cells(view, n)
    if len(cells) == n:
        return  # discrete: no automorphism but the identity
    rows, _, _, _, larger = _view_rows(view, n)
    face_set = frozenset(faces) if larger else None  # see above
    verts = vertices_of(vmask)

    def search(assigned: int, fixed: int, pairs: list) -> Iterator[Involution]:
        low = ~assigned & (assigned + 1)  # the lowest unassigned vertex
        v = low.bit_length() - 1
        if v == n:  # a leaf: every vertex is assigned
            t = Involution(tuple((verts[a], verts[b]) for a, b in pairs),
                           tuple(map(verts.__getitem__, vertices_of(fixed))))
            if not t.is_identity() and (
                    face_set is None or validate_involution(face_set, t)[0]):
                yield t
            return
        row = rows[v]
        assigned |= low
        for w in (*vertices_of(cells[colors[v]] & ~assigned & ~row), v):
            other = rows[w]
            if (row ^ other) & fixed:
                continue
            for a, b in pairs:
                if (row >> a ^ other >> b | row >> b ^ other >> a) & 1:
                    break
            else:
                if w != v:
                    yield from search(assigned | 1 << w, fixed,
                                      pairs + [(v, w)])
                else:
                    yield from search(assigned, fixed | low, pairs)

    yield from search(0, 0, [])


@memoize
def _first_involution(faces: tuple[int, ...]) -> Optional[Involution]:
    """The first valid involution in _valid_involutions order, or None."""
    return next(_valid_involutions(faces), None)


def find_reduction(c: SimplicialComplex | tuple[int, ...]) -> Optional[Involution]:
    """The first valid involution of c (see _valid_involutions) in c's labels,
    or None when c is in simplest form.  c is a complex or its sorted face
    tuple, such as an engine node's dense view; the search is memoized on
    that tuple.  The reduced position is its fixed set (fixed_point_set)."""
    return _first_involution(_sorted_faces(c))


def is_simplest_form(c: SimplicialComplex | tuple[int, ...]) -> bool:
    """True when no valid non-identity involution exists (c as in find_reduction)."""
    return _first_involution(_sorted_faces(c)) is None


def reduce_to_simplest(
    c: SimplicialComplex, budget: Optional[int] = None
) -> tuple[SimplicialComplex, ReductionTrace]:
    """Apply reductions until simplest form or the step budget runs out."""
    steps = []
    pos = c
    limit = budget if budget is not None else 64
    complete = True
    while True:
        if len(steps) >= limit:
            complete = is_simplest_form(pos)
            break
        t = find_reduction(pos)
        if t is None:
            break
        pos = _fixed_subcomplex(pos, t)
        steps.append(t)
    return pos, ReductionTrace(tuple(steps), complete)
