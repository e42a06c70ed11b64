"""Simplicial complexes as bitmask face sets, game moves, and graph statistics.

A position in subset take-away is a downward-closed family of nonempty
subsets of {0, ..., ground_size-1}.  Faces are stored as integer bitmasks,
which caps the ground set at 64 vertices.  A graph is read as neighbour
rows, one bitmask per vertex (neighbour_rows), and every graph class the
closed forms test is read off the record graph_stats derives from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce, wraps
from operator import or_
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


def memoize(fn: Callable[..., _T]) -> Callable[..., _T]:
    """Cache fn(c) by c's faces, emptying the cache when it holds CACHE_SIZE
    entries.

    c is a complex, keyed on its frozenset c.faces, or a sorted face tuple
    (an engine node's dense view), keyed on itself; either way the cache
    keeps no complex alive.  The caches the engine asks once per root
    (`components`, `canonical_key`) get the root, whose frozenset caches its
    hash; the one with an entry per engine node (`_first_involution`) gets
    the node's view, a fraction of a frozenset's size.  A call that raises
    stores nothing.
    """
    cache: dict = {}

    @wraps(fn)
    def cached(c: "SimplicialComplex | tuple[int, ...]") -> _T:
        key = c if type(c) is tuple else c.faces
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


def is_graph(c: SimplicialComplex | tuple[int, ...]) -> bool:
    return max(map(int.bit_count, c if type(c) is tuple else c.faces), default=0) <= 2


def neighbour_rows(faces: Iterable[int], n: int) -> list[int]:
    """Neighbour bitmasks of the 2-faces, indexed by vertex label 0..n-1;
    other faces are skipped."""
    rows = [0] * n
    for f in faces:
        if f.bit_count() == 2:
            low = f & -f
            high = f ^ low
            rows[low.bit_length() - 1] |= high
            rows[high.bit_length() - 1] |= low
    return rows


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


# Not frozen: every engine node builds one, and the frozen __init__ cost
# more than the breadth-first walk on small graphs.
@dataclass
class GraphStats:
    v: int
    e: int
    degrees: dict[int, int]
    bipartite: bool
    cycle_count: int
    component_count: int
    parts: Optional[list[int]]
    shape: Optional[PseudotreeShape]


def graph_stats(c: SimplicialComplex | tuple[int, ...]) -> GraphStats:
    """Vertex/edge counts, degrees, 2-colourability, independent cycles,
    parts (if complete multipartite) and shape (if connected with one
    cycle), all read off the neighbour rows of c, a complex or its faces."""
    if not is_graph(c):
        raise InvalidInputError("graph statistics requested for a non-graph complex")
    faces = c if type(c) is tuple else c.faces
    vmask = reduce(or_, faces, 0)
    rows = neighbour_rows(faces, vmask.bit_length())
    verts = vertices_of(vmask)
    degrees = {u: rows[u].bit_count() for u in verts}
    v = len(verts)
    e = sum(degrees.values()) // 2

    # breadth-first layers per component: the graph is 2-colourable exactly
    # when no edge joins two vertices of one layer
    bipartite = True
    comp_count = 0
    rest = vmask
    while rest:
        comp_count += 1
        layer = seen = rest & -rest
        while layer:
            reach = 0
            for u in vertices_of(layer):
                reach |= rows[u]
            if reach & layer:
                bipartite = False
            layer = reach & ~seen
            seen |= layer
        rest &= ~seen

    # Each vertex lies in its closed non-neighbourhood (itself and every
    # vertex it is not adjacent to).  The graph is complete multipartite
    # exactly when these sets partition the vertices, that is when the
    # distinct ones are disjoint, and then they are the parts.
    sizes = [key.bit_count() for key in {vmask & ~rows[u] for u in verts}]
    parts = sorted(sizes) if verts and sum(sizes) == v else None
    single_cycle = comp_count == 1 and e == v >= 3
    shape = _pseudotree_shape(rows, vmask, degrees) if single_cycle else None
    return GraphStats(v, e, degrees, bipartite, e - v + comp_count, comp_count,
                      parts, shape)


def _path_length(rows: list[int], prev: int, cur: int) -> Optional[int]:
    """Vertex count of the path entered from prev at cur, or None on a fork."""
    length = 1
    while True:
        nxt = rows[cur] & ~(1 << prev)
        if not nxt:
            return length
        if nxt & (nxt - 1):
            return None
        prev, cur = cur, nxt.bit_length() - 1
        length += 1


def _pseudotree_shape(rows: list[int], vmask: int,
                      degrees: dict[int, int]) -> PseudotreeShape:
    """Shape of the connected graph on vmask with exactly one cycle."""
    # strip leaves to expose the unique cycle, the core left behind
    core = vmask
    leaves = mask_of(u for u, d in degrees.items() if d == 1)
    while leaves:
        core &= ~leaves
        touched = 0
        for u in vertices_of(leaves):
            touched |= rows[u]
        leaves = mask_of(w for w in vertices_of(touched & core)
                         if (rows[w] & core).bit_count() == 1)

    # order the cycle starting from its smallest vertex
    start = (core & -core).bit_length() - 1
    cycle = [start]
    prev, cur = 0, start
    while True:
        nxt = rows[cur] & core & ~prev
        nxt = (nxt & -nxt).bit_length() - 1
        if nxt == start:
            break
        cycle.append(nxt)
        prev, cur = 1 << cur, nxt

    hairball = all(degrees[u] <= 2 for u in vertices_of(vmask & ~core))

    tails: Optional[dict[int, tuple[int, ...]]] = None
    if hairball:
        tails = {}
        for a in cycle:
            lengths = sorted(_path_length(rows, a, w)
                             for w in vertices_of(rows[a] & ~core))
            if lengths:
                tails[a] = tuple(lengths)

    single = branches = None
    heavy = [a for a in cycle if degrees[a] > 2]
    if len(heavy) == 1 and degrees[heavy[0]] == 3:
        a = heavy[0]
        b = (rows[a] & ~core).bit_length() - 1
        single = (a, b)
        if degrees[b] == 3:
            lengths = [_path_length(rows, b, w)
                       for w in vertices_of(rows[b] & ~(1 << a))]
            if None not in lengths:
                branches = tuple(sorted(lengths))

    return PseudotreeShape(
        cycle_vertices=tuple(cycle),
        attachment_degrees={a: degrees[a] for a in cycle},
        tail_profile=tails,
        is_hairball=hairball,
        odd_cycle=len(cycle) % 2 == 1,
        v=len(degrees),
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
# the (keyword, format) pairs a line may start with
_KEYWORDS = {("vertices", "cplx"), ("face", "cplx"),
             ("vertices", "edges"), ("edge", "edges"), ("vertex", "edges")}


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
        if (head, fmt) not in _KEYWORDS:
            raise InvalidInputError(f"unrecognized line: {raw!r}")
        # bounded before any shift, so a huge label cannot build a huge mask
        if not all(p.isascii() and p.isdigit() and int(p) <= MAX_GROUND
                   for p in fields):
            raise InvalidInputError(f"not an integer in 0..{MAX_GROUND}: {raw!r}")
        numbers = [int(p) for p in fields]
        if head == "vertices":
            if ground_size is not None:
                raise InvalidInputError(f"second 'vertices' header: {raw!r}")
            ground_size = numbers[0]
        elif head == "edge" and numbers[0] == numbers[1]:
            raise InvalidInputError("self-loop edge")
        else:
            facets.append(mask_of(numbers))
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
