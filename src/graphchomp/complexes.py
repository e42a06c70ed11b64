"""Simplicial complexes as bitmask face sets, game moves, and graph statistics.

A position in subset take-away is a downward-closed family of nonempty
subsets of {0, ..., ground_size-1}.  Faces are stored as integer bitmasks,
which caps the ground set at 64 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, Iterable, Optional, TypeVar

MAX_GROUND = 64

# Entry limit shared by every analysis cache.
CACHE_SIZE = 400_000

_T = TypeVar("_T")
_MISS = object()


def memoize(fn: Callable[["SimplicialComplex"], _T]) -> Callable[["SimplicialComplex"], _T]:
    """Cache fn(c) by c.faces, emptying the cache when it holds CACHE_SIZE entries.

    Keyed on the face set, which is all the cached analyses read, rather than
    on the complex, so the cache keeps no complex alive.  A call that raises
    stores nothing.
    """
    cache: dict[frozenset[int], _T] = {}

    @wraps(fn)
    def cached(c: "SimplicialComplex") -> _T:
        result = cache.get(c.faces, _MISS)
        if result is _MISS:
            result = fn(c)
            if len(cache) >= CACHE_SIZE:
                cache.clear()
            cache[c.faces] = result
        return result

    cached.cache = cache
    return cached


class InvalidInputError(ValueError):
    pass


class IllegalMoveError(ValueError):
    pass


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@lru_cache(maxsize=CACHE_SIZE)
def vertices_of(mask: int) -> tuple[int, ...]:
    out = []
    m, v = mask, 0
    while m:
        if m & 1:
            out.append(v)
        m >>= 1
        v += 1
    return tuple(out)


def face_size(mask: int) -> int:
    return bin(mask).count("1")


@dataclass(frozen=True)
class SimplicialComplex:
    ground_size: int
    faces: frozenset[int]

    def __post_init__(self) -> None:
        if not 0 <= self.ground_size <= MAX_GROUND:
            raise InvalidInputError(f"ground size {self.ground_size} out of range")
        limit = (1 << self.ground_size) - 1
        for f in self.faces:
            if f == 0:
                raise InvalidInputError("empty face")
            if f & ~limit:
                raise InvalidInputError("face references vertex outside ground set")

    @property
    def vertex_mask(self) -> int:
        m = 0
        for f in self.faces:
            m |= f
        return m

    def vertices(self) -> tuple[int, ...]:
        return vertices_of(self.vertex_mask)

    def num_faces(self) -> int:
        return len(self.faces)

    def is_empty(self) -> bool:
        return not self.faces

    def has_face(self, mask: int) -> bool:
        return mask in self.faces

    def facets(self) -> list[int]:
        """Maximal faces, sorted by (size, mask)."""
        out = []
        for f in self.faces:
            if not any(g != f and g & f == f for g in self.faces):
                out.append(f)
        out.sort(key=lambda m: (face_size(m), m))
        return out


def _submasks(mask: int):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def close_down(facets: Iterable[int], ground_size: int) -> SimplicialComplex:
    """Complex holding exactly the nonempty subsets of the given facets."""
    limit = (1 << ground_size) - 1 if ground_size else 0
    faces = set()
    for f in facets:
        if f == 0:
            raise InvalidInputError("empty facet")
        if f & ~limit:
            raise InvalidInputError("facet references vertex outside ground set")
        faces.update(_submasks(f))
    return SimplicialComplex(ground_size, frozenset(faces))


def remove_face(c: SimplicialComplex, s: int) -> SimplicialComplex:
    """Play the move s: delete s and every face containing it."""
    if s not in c.faces:
        raise IllegalMoveError(f"face {vertices_of(s)} is not in the position")
    return SimplicialComplex(
        c.ground_size, frozenset(f for f in c.faces if f & s != s)
    )


def moves(c: SimplicialComplex) -> list[int]:
    """All legal moves (= all faces), sorted by dimension then bitmask."""
    return sorted(c.faces, key=lambda m: (face_size(m), m))


def relabel(c: SimplicialComplex, mapping: dict[int, int], ground_size: int) -> SimplicialComplex:
    faces = frozenset(mask_of(mapping[v] for v in vertices_of(f)) for f in c.faces)
    return SimplicialComplex(ground_size, faces)


def dense_relabeling(vertex_list: Iterable[int]) -> dict[int, int]:
    return {v: i for i, v in enumerate(sorted(vertex_list))}


@memoize
def components(c: SimplicialComplex) -> list[SimplicialComplex]:
    """Connected components by shared-vertex connectivity, densely relabeled.

    Sorted by smallest original vertex, so the order is deterministic.
    """
    if not c.faces:
        return []
    groups: list[int] = []
    for f in c.faces:
        merged = f
        rest = []
        for g in groups:
            if g & merged:
                merged |= g
            else:
                rest.append(g)
        rest.append(merged)
        groups = rest

    if len(groups) == 1:
        nv = face_size(groups[0])
        if groups[0] == (1 << nv) - 1 and c.ground_size == nv:
            out = [c]
        else:
            mapping = dense_relabeling(vertices_of(groups[0]))
            out = [relabel(c, mapping, nv)]
    else:
        out = []
        for gm in sorted(groups, key=lambda m: m & -m):
            mapping = dense_relabeling(vertices_of(gm))
            out.append(SimplicialComplex(
                face_size(gm),
                frozenset(
                    mask_of(mapping[v] for v in vertices_of(f))
                    for f in c.faces if f & gm
                ),
            ))
    return out


def is_graph(c: SimplicialComplex) -> bool:
    return all(face_size(f) <= 2 for f in c.faces)


def adjacency(c: SimplicialComplex) -> dict[int, set[int]]:
    """Vertex adjacency from the 2-faces.  Requires a graph."""
    adj: dict[int, set[int]] = {v: set() for v in c.vertices()}
    for f in c.faces:
        if face_size(f) == 2:
            a, b = vertices_of(f)
            adj[a].add(b)
            adj[b].add(a)
    return adj


@dataclass(frozen=True)
class GraphStats:
    v: int
    e: int
    degrees: dict[int, int]
    bipartition: Optional[tuple[frozenset[int], frozenset[int]]]
    cycle_count: int
    component_count: int


@memoize
def graph_stats(c: SimplicialComplex) -> GraphStats:
    """Vertex/edge counts, degrees, two-coloring (if bipartite), independent cycles."""
    if not is_graph(c):
        raise InvalidInputError("graph statistics requested for a non-graph complex")
    adj = adjacency(c)
    v = len(adj)
    e = sum(len(nbrs) for nbrs in adj.values()) // 2
    degrees = {u: len(nbrs) for u, nbrs in adj.items()}

    color: dict[int, int] = {}
    bipartite = True
    comp_count = 0
    for start in sorted(adj):
        if start in color:
            continue
        comp_count += 1
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = color[u] ^ 1
                    stack.append(w)
                elif color[w] == color[u]:
                    bipartite = False

    bipartition = None
    if bipartite:
        side0 = frozenset(u for u, s in color.items() if s == 0)
        side1 = frozenset(u for u, s in color.items() if s == 1)
        bipartition = (side0, side1)
    return GraphStats(v, e, degrees, bipartition, e - v + comp_count, comp_count)


# --- text formats -----------------------------------------------------------
#
# .cplx:   "vertices N" then "face v1 v2 ..." lines listing facets.
# .edges:  "vertices N" then "edge a b" / "vertex a" lines.
# '#' starts a comment in both.


def dumps_cplx(c: SimplicialComplex) -> str:
    lines = [f"vertices {c.ground_size}"]
    for f in c.facets():
        lines.append("face " + " ".join(str(v) for v in vertices_of(f)))
    return "\n".join(lines) + "\n"


def dumps_edges(c: SimplicialComplex) -> str:
    if not is_graph(c):
        raise InvalidInputError("edge format only supports graphs")
    lines = [f"vertices {c.ground_size}"]
    isolated = set(c.vertices())
    for f in sorted(c.faces):
        if face_size(f) == 2:
            a, b = vertices_of(f)
            isolated.discard(a)
            isolated.discard(b)
            lines.append(f"edge {a} {b}")
    for v in sorted(isolated):
        lines.append(f"vertex {v}")
    return "\n".join(lines) + "\n"


def loads_complex(text: str, fmt: str = "cplx") -> SimplicialComplex:
    ground_size = None
    facets = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            ground_size = int(parts[1])
        elif parts[0] == "face" and fmt == "cplx":
            facets.append(mask_of(int(p) for p in parts[1:]))
        elif parts[0] == "edge" and fmt == "edges":
            a, b = int(parts[1]), int(parts[2])
            if a == b:
                raise InvalidInputError("self-loop edge")
            facets.append(mask_of((a, b)))
        elif parts[0] == "vertex" and fmt == "edges":
            facets.append(mask_of((int(parts[1]),)))
        else:
            raise InvalidInputError(f"unrecognized line: {raw!r}")
    if ground_size is None:
        raise InvalidInputError("missing 'vertices N' header")
    return close_down(facets, ground_size)


def load_complex(path: str) -> SimplicialComplex:
    fmt = "edges" if str(path).endswith(".edges") else "cplx"
    with open(path) as fh:
        return loads_complex(fh.read(), fmt)


def save_complex(c: SimplicialComplex, path: str) -> None:
    fmt = "edges" if str(path).endswith(".edges") else "cplx"
    text = dumps_edges(c) if fmt == "edges" else dumps_cplx(c)
    with open(path, "w") as fh:
        fh.write(text)
