"""Involution search and symmetry reduction of game positions.

A valid involution is an order-2 vertex permutation that maps faces to
faces and whose setwise-fixed faces are all pointwise fixed (equivalently,
the fixed point set is itself a simplicial complex).  Such a reduction
preserves the nim-value, so positions can be shrunk before searching.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Optional

from .canon import position_key, refinement_colors
from .complexes import (
    SimplicialComplex,
    dense_relabeling,
    face_size,
    mask_of,
    memoize,
    vertices_of,
)


@dataclass(frozen=True)
class Involution:
    pairs: tuple[tuple[int, int], ...]
    fixed: tuple[int, ...]

    @classmethod
    def from_mapping(cls, mapping: dict[int, int]) -> "Involution":
        pairs = sorted(
            (v, w) for v, w in ((v, mapping[v]) for v in mapping) if v < w
        )
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
class ReductionStep:
    involution: Involution
    fixed_complex: SimplicialComplex


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]
    complete: bool = True

    def to_json(self) -> str:
        data = [
            {
                "pairs": [list(p) for p in step.involution.pairs],
                "fixed_vertices": list(step.involution.fixed),
            }
            for step in self.steps
        ]
        return json.dumps({"steps": data, "complete": self.complete}, sort_keys=True)

    @staticmethod
    def replay(c: SimplicialComplex, trace_json: str) -> SimplicialComplex:
        data = json.loads(trace_json)
        pos = c
        for step in data["steps"]:
            mapping = {v: v for v in step["fixed_vertices"]}
            for a, b in step["pairs"]:
                mapping[a] = b
                mapping[b] = a
            t = Involution.from_mapping(mapping)
            pos = fixed_point_set(pos, t)
        return pos


def validate_involution(
    c: SimplicialComplex, t: "Involution | dict[int, int]"
) -> tuple[bool, Optional[str]]:
    """Check order 2, face preservation, and that the fixed set is a complex.

    Accepts a raw vertex mapping as well, so non-involutions can be rejected
    with a reason instead of failing to construct.
    """
    mapping = t if isinstance(t, dict) else t.mapping
    verts = set(c.vertices())
    if set(mapping) != verts or set(mapping.values()) != verts:
        raise ValueError("involution must permute exactly the complex's vertices")
    for v, w in mapping.items():
        if mapping[w] != v:
            return False, "not-order-2"
    moved = mask_of(v for v, w in mapping.items() if v != w)
    fixed_set_ok = True
    for f in c.faces:
        image = mask_of(mapping[v] for v in vertices_of(f))
        if image not in c.faces:
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
    fixed_mask = mask_of(t.fixed)
    faces = [f for f in c.faces if f & fixed_mask == f]
    verts = set()
    for f in faces:
        verts.update(vertices_of(f))
    mapping = dense_relabeling(verts)
    return SimplicialComplex(
        len(mapping),
        frozenset(mask_of(mapping[v] for v in vertices_of(f)) for f in faces),
    )


def _valid_involutions(c: SimplicialComplex) -> Iterator[Involution]:
    """All valid non-identity involutions, via backtracking over color classes.

    Refinement colors are automorphism-invariant, so images are only tried
    within a vertex's own class; pairing two adjacent vertices is pruned
    immediately (their shared edge would be setwise fixed).  Each complete
    candidate is yielded only if validate_involution accepts it.
    """
    verts = sorted(c.vertices())
    if len(verts) < 2:
        return
    colors = refinement_colors(c)
    edges = {f for f in c.faces if face_size(f) == 2}

    mapping: dict[int, int] = {}

    def consistent(v: int, image: int) -> bool:
        for u, tu in mapping.items():
            if u == v:
                continue
            e1 = mask_of((v, u)) in edges if u != v else False
            e2 = mask_of((image, tu)) in edges if image != tu else False
            if e1 != e2:
                return False
        return True

    def backtrack(i: int) -> Iterator[Involution]:
        if i == len(verts):
            t = Involution.from_mapping(mapping)
            if not t.is_identity() and validate_involution(c, mapping)[0]:
                yield t
            return
        v = verts[i]
        if v in mapping:
            yield from backtrack(i + 1)
            return
        mapping[v] = v
        if consistent(v, v):
            yield from backtrack(i + 1)
        del mapping[v]
        for w in verts[i + 1:]:
            if w in mapping or colors[w] != colors[v]:
                continue
            if mask_of((v, w)) in edges:
                continue  # swapped endpoints would fix their edge setwise
            mapping[v] = w
            mapping[w] = v
            if consistent(v, w) and consistent(w, v):
                yield from backtrack(i + 1)
            del mapping[v]
            del mapping[w]

    yield from backtrack(0)


@memoize
def find_reduction(
    c: SimplicialComplex,
) -> Optional[tuple[Involution, SimplicialComplex]]:
    """A valid non-identity involution and its fixed set, or None.

    Deterministic choice: fewest fixed-set vertices, then smallest canonical
    key of the fixed set, then smallest pair list.
    """
    best = None
    for t in _valid_involutions(c):
        fps = fixed_point_set(c, t)
        rank = (len(t.fixed), position_key(fps).digest, t.pairs)
        if best is None or rank < best[0]:
            best = (rank, t, fps)
    return None if best is None else (best[1], best[2])


def is_simplest_form(c: SimplicialComplex) -> bool:
    """True when no valid non-identity involution exists (exhaustive search)."""
    return next(_valid_involutions(c), None) is None


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
        found = find_reduction(pos)
        if found is None:
            break
        t, fps = found
        steps.append(ReductionStep(t, fps))
        pos = fps
    return pos, ReductionTrace(tuple(steps), complete)
