"""Simplicial complexes as bitmask face sets, game moves, and graph statistics.

A position in subset take-away is a downward-closed family of nonempty
subsets of {0, ..., ground_size-1}.  Faces are stored as integer bitmasks,
which caps the ground set at 64 vertices.  Every graph class the closed
forms test is read off the record of graph_stats, the one walk over a graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial, wraps
from typing import Callable, Iterable, Optional, TypeVar

MAX_GROUND = 64

# Entry limit shared by every analysis cache.
CACHE_SIZE = 400_000

_T = TypeVar("_T")
_MISS = object()


def bounded_store(cache: dict, key, value) -> None:
    """cache[key] = value, emptying cache first when it holds CACHE_SIZE entries."""
    if len(cache) >= CACHE_SIZE:
        cache.clear()
    cache[key] = value


def memoize(fn: Optional[Callable[..., _T]] = None, *, per_node: bool = False):
    """Cache fn(c) by c's faces, emptying the cache when it holds CACHE_SIZE
    entries.

    Keyed on the faces, which is all the cached analyses read, rather than
    on the complex, so the cache keeps no complex alive.  A call that raises
    stores nothing.

    A cache the engine asks once per root (`components`, `canonical_key`)
    keys on the frozenset c.faces: a root's frozenset caches its hash, and
    the cheap table-answered solves look the root up on every call.  A
    cache with one entry per engine node (`@memoize(per_node=True)`:
    `graph_stats`, `_first_involution`) keys on the sorted face tuple
    instead, so it keeps no node's frozenset alive; the tuple is a fraction
    of the frozenset's size.
    """
    if fn is None:
        return partial(memoize, per_node=per_node)
    cache: dict = {}

    @wraps(fn)
    def cached(c: "SimplicialComplex") -> _T:
        key = tuple(sorted(c.faces)) if per_node else c.faces
        result = cache.get(key, _MISS)
        if result is _MISS:
            result = fn(c)
            bounded_store(cache, key, result)
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
    return mask.bit_count()


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


def squeeze(faces: Iterable[int], vmask: int) -> Iterable[int]:
    """faces relabeled onto 0..n-1 in label order, where vmask holds their n
    vertices: each run of absent vertices is deleted by one shift.  Faces
    already on 0..n-1 are returned as given."""
    holes = ~vmask & ((1 << vmask.bit_length()) - 1)
    while holes:
        top = holes.bit_length() - 1  # the highest absent vertex
        keep = vmask & ((1 << top) - 1)
        low = (1 << keep.bit_length()) - 1  # the vertices below the run
        shift = top + 1 - keep.bit_length()
        faces = [f & low | f >> shift & ~low for f in faces]
        holes &= low
    return faces


def dense_complex(faces: Iterable[int], vmask: int) -> SimplicialComplex:
    """The complex of faces, whose vertices are vmask, relabeled onto 0..n-1."""
    return SimplicialComplex(vmask.bit_count(), frozenset(squeeze(faces, vmask)))


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

    if groups == [(1 << c.ground_size) - 1]:
        return [c]
    return [
        dense_complex([f for f in c.faces if f & gm], gm)
        for gm in sorted(groups, key=lambda m: m & -m)
    ]


def is_graph(c: SimplicialComplex) -> bool:
    return all(face_size(f) <= 2 for f in c.faces)


@dataclass(frozen=True)
class PseudotreeShape:
    cycle_vertices: tuple[int, ...]
    attachment_degrees: dict[int, int]
    tail_profile: Optional[dict[int, tuple[int, ...]]]
    is_hairball: bool
    odd_cycle: bool
    v: int
    # (A, B) when exactly one cycle vertex A has degree 3, with tree
    # neighbour B, and every other cycle vertex has degree 2
    single_attachment: Optional[tuple[int, int]]
    # sorted lengths of B's two branches when B has two and both are paths
    branch_lengths: Optional[tuple[int, int]]


@dataclass(frozen=True)
class GraphStats:
    v: int
    e: int
    degrees: dict[int, int]
    bipartition: Optional[tuple[frozenset[int], frozenset[int]]]
    cycle_count: int
    component_count: int
    parts: Optional[list[int]]
    shape: Optional[PseudotreeShape]


@memoize(per_node=True)
def graph_stats(c: SimplicialComplex) -> GraphStats:
    """Vertex/edge counts, degrees, two-coloring (if bipartite), independent
    cycles, parts (if complete multipartite) and shape (if connected with
    one cycle): the only walk over a graph, whose record keeps no sets."""
    if not is_graph(c):
        raise InvalidInputError("graph statistics requested for a non-graph complex")
    adj: dict[int, set[int]] = {v: set() for v in c.vertices()}
    for f in c.faces:
        if face_size(f) == 2:
            a, b = vertices_of(f)
            adj[a].add(b)
            adj[b].add(a)
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

    # Group vertices by their closed non-neighbourhood (the vertex and every
    # vertex it is not adjacent to), a superset of the group.  The graph is
    # complete multipartite exactly when each group equals its key.
    verts = frozenset(adj)
    groups = Counter(verts - ns for ns in adj.values())
    parts = None
    if adj and all(len(key) == size for key, size in groups.items()):
        parts = sorted(groups.values())
    single_cycle = comp_count == 1 and e == v >= 3
    return GraphStats(v, e, degrees, bipartition, e - v + comp_count, comp_count,
                      parts, _pseudotree_shape(adj) if single_cycle else None)


def _path_length(adj: dict[int, set[int]], prev: int, cur: int) -> Optional[int]:
    """Vertex count of the path entered from prev at cur, or None on a fork."""
    length = 1
    while True:
        nxt = adj[cur] - {prev}
        if not nxt:
            return length
        if len(nxt) > 1:
            return None
        prev, cur = cur, next(iter(nxt))
        length += 1


def _pseudotree_shape(adj: dict[int, set[int]]) -> PseudotreeShape:
    """Shape of the connected graph adj with exactly one cycle."""
    # strip leaves to expose the unique cycle, the core left behind
    live = {u: set(ns) for u, ns in adj.items()}
    queue = [u for u in adj if len(adj[u]) == 1]
    removed = set()
    while queue:
        u = queue.pop()
        removed.add(u)
        for w in live[u]:
            live[w].discard(u)
            if len(live[w]) == 1 and w not in removed:
                queue.append(w)
        live[u] = set()
    core = [u for u in adj if u not in removed]

    # order the cycle starting from its smallest vertex
    start = min(core)
    cycle = [start]
    prev, cur = None, start
    while True:
        nxt = min(w for w in live[cur] if w != prev)
        if nxt == start:
            break
        cycle.append(nxt)
        prev, cur = cur, nxt

    core_set = set(cycle)
    hairball = all(len(adj[u]) <= 2 for u in adj if u not in core_set)

    tails: Optional[dict[int, tuple[int, ...]]] = None
    if hairball:
        tails = {}
        for a in cycle:
            lengths = sorted(_path_length(adj, a, w) for w in adj[a] - core_set)
            if lengths:
                tails[a] = tuple(lengths)

    single = branches = None
    heavy = [a for a in cycle if len(adj[a]) > 2]
    if len(heavy) == 1 and len(adj[heavy[0]]) == 3:
        a = heavy[0]
        (b,) = adj[a] - core_set
        single = (a, b)
        if len(adj[b]) == 3:
            lengths = [_path_length(adj, b, w) for w in adj[b] - {a}]
            if None not in lengths:
                branches = tuple(sorted(lengths))

    return PseudotreeShape(
        cycle_vertices=tuple(cycle),
        attachment_degrees={a: len(adj[a]) for a in cycle},
        tail_profile=tails,
        is_hairball=hairball,
        odd_cycle=len(cycle) % 2 == 1,
        v=len(adj),
        single_attachment=single,
        branch_lengths=branches,
    )


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


# number of fields after the keyword, for the keywords that take a fixed number
_FIELD_COUNTS = {"vertices": 1, "edge": 2, "vertex": 1}


def loads_complex(text: str, fmt: str = "cplx") -> SimplicialComplex:
    ground_size = None
    facets = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *fields = line.split()
        if len(fields) != _FIELD_COUNTS.get(head, len(fields)):
            raise InvalidInputError(f"wrong number of fields: {raw!r}")
        if head == "vertices":
            if ground_size is not None:
                raise InvalidInputError(f"second 'vertices' header: {raw!r}")
            ground_size = int(fields[0])
        elif head == "face" and fmt == "cplx":
            facets.append(mask_of(int(p) for p in fields))
        elif head == "edge" and fmt == "edges":
            a, b = int(fields[0]), int(fields[1])
            if a == b:
                raise InvalidInputError("self-loop edge")
            facets.append(mask_of((a, b)))
        elif head == "vertex" and fmt == "edges":
            facets.append(mask_of((int(fields[0]),)))
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
