"""Parametric constructors for every analyzed graph/complex family.

All constructors label vertices deterministically; seeded random families
are reproducible bit-exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional

from .complexes import (
    MAX_GROUND,
    InvalidInputError,
    SimplicialComplex,
    close_down,
    mask_of,
)


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: dict = field(default_factory=dict)

    def canonical_string(self) -> str:
        if not self.params:
            return self.family
        items = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.family}:{items}"


def _edge(a: int, b: int) -> int:
    return mask_of((a, b))


def _check_size(n: int) -> None:
    """Refuse more than MAX_GROUND vertices before any edge or face is made."""
    if n > MAX_GROUND:
        raise InvalidInputError(f"{n} vertices exceed the limit of {MAX_GROUND}")


def graph_complex(n: int, edges: Iterable[tuple[int, int]]) -> SimplicialComplex:
    """Graph position: all n vertices plus the given edges, which are read
    only once n is known to fit."""
    _check_size(n)
    facets = [1 << v for v in range(n)]
    facets.extend(_edge(a, b) for a, b in edges)
    return close_down(facets, n)


def complete(n: int) -> SimplicialComplex:
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    return graph_complex(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_npartite(parts: list[int]) -> SimplicialComplex:
    if not parts or any(p < 1 for p in parts):
        raise InvalidInputError("parts must be positive")
    bounds = []
    start = 0
    for p in parts:
        bounds.append(range(start, start + p))
        start += p
    return graph_complex(start, ((a, b) for i, gi in enumerate(bounds)
                                 for gj in bounds[i + 1:] for a in gi for b in gj))


def path(n: int) -> SimplicialComplex:
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    return graph_complex(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> SimplicialComplex:
    if n < 3:
        raise InvalidInputError("cycle needs at least 3 vertices")
    return graph_complex(n, ((i, (i + 1) % n) for i in range(n)))


def wheel(n: int) -> SimplicialComplex:
    """n-cycle plus a hub adjacent to every cycle vertex."""
    if n < 3:
        raise InvalidInputError("wheel needs a cycle of at least 3")
    return graph_complex(n + 1, ((i, j) for i in range(n) for j in ((i + 1) % n, n)))


def gmk(m: int, k: int, cycle_size: int = 3) -> SimplicialComplex:
    """Odd cycle with one degree-3 vertex A joined to branch vertex B, which
    carries an m-tail and a k-tail (either may be empty)."""
    if cycle_size < 3 or cycle_size % 2 == 0:
        raise InvalidInputError("cycle size must be odd and >= 3")
    if m < 0 or k < 0:
        raise InvalidInputError("tail lengths must be >= 0")
    _check_size(cycle_size + 1 + m + k)
    c = cycle_size
    edges = [(i, (i + 1) % c) for i in range(c)]
    b = c  # A is vertex 0, B is vertex c
    edges.append((0, b))
    nxt = c + 1
    for length in (m, k):
        prev = b
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return graph_complex(nxt, edges)


def hairball(cycle_size: int, tails: list[list[int]]) -> SimplicialComplex:
    """Cycle with a list of tail lengths per cycle vertex."""
    if cycle_size < 3:
        raise InvalidInputError("cycle size must be >= 3")
    if len(tails) > cycle_size or any(t < 1 for ts in tails for t in ts):
        raise InvalidInputError("bad tail specification")
    _check_size(cycle_size + sum(map(sum, tails)))
    edges = [(i, (i + 1) % cycle_size) for i in range(cycle_size)]
    nxt = cycle_size
    for pos, lengths in enumerate(tails):
        for length in lengths:
            prev = pos
            for _ in range(length):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
    return graph_complex(nxt, edges)


def figure8(a: int, b: int) -> SimplicialComplex:
    """Two cycles of sizes a and b sharing one vertex."""
    if a < 3 or b < 3:
        raise InvalidInputError("cycle sizes must be >= 3")
    _check_size(a + b - 1)
    edges = [(i, (i + 1) % a) for i in range(a)]
    ring = [0] + list(range(a, a + b - 1))
    edges.extend((ring[i], ring[(i + 1) % b]) for i in range(b))
    return graph_complex(a + b - 1, edges)


def theta(p: int, q: int, r: int) -> SimplicialComplex:
    """Two hub vertices joined by three internally disjoint paths with p, q,
    and r internal vertices."""
    if min(p, q, r) < 0 or sorted((p, q, r))[1] < 1:
        raise InvalidInputError("at most one path may be a bare edge")
    _check_size(2 + p + q + r)
    hub_a, hub_b = 0, 1
    edges = []
    nxt = 2
    for internal in (p, q, r):
        if internal == 0:
            edges.append((hub_a, hub_b))
            continue
        prev = hub_a
        for _ in range(internal):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, hub_b))
    return graph_complex(nxt, edges)


def torus_3x3() -> SimplicialComplex:
    """3x3 triangulated torus: 9 vertices, 27 edges, 18 triangles.

    Vertex (i, j) -> 3*i + j; edges to (i+1, j), (i, j+1), (i+1, j+1) mod 3
    and the two triangle families through each diagonal edge.
    """
    def vid(i: int, j: int) -> int:
        return 3 * (i % 3) + (j % 3)

    facets = []
    for i in range(3):
        for j in range(3):
            facets.append(mask_of((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1))))
            facets.append(mask_of((vid(i, j), vid(i, j + 1), vid(i + 1, j + 1))))
    return close_down(facets, 9)


def full_simplex(n: int) -> SimplicialComplex:
    """All nonempty subsets of an n-element vertex set."""
    if n < 0 or n > 20:
        raise InvalidInputError("simplex size out of range")
    if n == 0:
        return SimplicialComplex(0, frozenset())
    return close_down([(1 << n) - 1], n)


def orphaned_edge() -> SimplicialComplex:
    """Single edge plus an isolated vertex; swapping the edge's endpoints
    fixes the edge setwise but not pointwise."""
    return graph_complex(3, [(0, 1)])


def random_tree(n: int, seed: int) -> SimplicialComplex:
    if n < 1:
        raise InvalidInputError("tree needs at least 1 vertex")
    rng = random.Random(seed)
    return graph_complex(n, ((rng.randrange(v), v) for v in range(1, n)))


def random_forest(n: int, seed: int, new_component_prob: float = 0.3) -> SimplicialComplex:
    if n < 1:
        raise InvalidInputError("forest needs at least 1 vertex")
    _check_size(n)
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        if rng.random() >= new_component_prob:
            edges.append((rng.randrange(v), v))
    return graph_complex(n, edges)


def random_pseudotree(cycle_size: int, extra: int, seed: int) -> SimplicialComplex:
    """Cycle plus `extra` tree vertices attached at random points."""
    if cycle_size < 3 or extra < 0:
        raise InvalidInputError("bad pseudotree parameters")
    _check_size(cycle_size + extra)
    rng = random.Random(seed)
    n = cycle_size
    edges = [(i, (i + 1) % n) for i in range(n)]
    for v in range(n, n + extra):
        edges.append((rng.randrange(v), v))
    return graph_complex(n + extra, edges)


def erdos_renyi(n: int, p: float, seed: int) -> SimplicialComplex:
    if n < 0 or not 0 <= p <= 1:
        raise InvalidInputError("bad random graph parameters")
    rng = random.Random(seed)
    return graph_complex(n, ((i, j) for i in range(n) for j in range(i + 1, n)
                             if rng.random() < p))


def random_bipartite(n: int, p: float, seed: int) -> SimplicialComplex:
    if n < 0 or not 0 <= p <= 1:
        raise InvalidInputError("bad random graph parameters")
    _check_size(n)
    rng = random.Random(seed)
    side = [rng.randrange(2) for _ in range(n)]
    return graph_complex(n, ((i, j) for i in range(n) for j in range(i + 1, n)
                             if side[i] != side[j] and rng.random() < p))


def random_complex(n: int, seed: int, facet_count: Optional[int] = None,
                   max_facet: int = 3) -> SimplicialComplex:
    """Random downward closure of a few small facets on n vertices."""
    if n < 1:
        raise InvalidInputError("need at least 1 vertex")
    _check_size(n)
    rng = random.Random(seed)
    count = facet_count if facet_count is not None else rng.randint(2, 4)
    facets = [1 << v for v in range(n)]
    for _ in range(count if n > 1 else 0):
        size = rng.randint(2, min(max_facet, n))
        members = rng.sample(range(n), size)
        facets.append(mask_of(members))
    return close_down(facets, n)


def attach_tail(c: SimplicialComplex, vertex: int, k: int) -> SimplicialComplex:
    """Append a k-tail (path of k new vertices) hanging from `vertex`."""
    if k < 0:
        raise InvalidInputError("tail length must be >= 0")
    # bounded before any shift, so a negative or huge label cannot shift
    if not (0 <= vertex < c.ground_size and c.has_face(1 << vertex)):
        raise InvalidInputError(f"attach point {vertex} is not in the position")
    _check_size(c.ground_size + k)
    if k == 0:
        return c
    facets = list(c.faces)
    prev = vertex
    for nxt in range(c.ground_size, c.ground_size + k):
        facets.append(_edge(prev, nxt))
        prev = nxt
    return close_down(facets, c.ground_size + k)


# --- rooted tree shapes (for exhaustive pseudotree sweeps) ------------------


@lru_cache(maxsize=None)
def rooted_trees(n: int) -> tuple[tuple, ...]:
    """All non-isomorphic rooted trees on n vertices as canonical nested
    tuples of child subtrees."""
    if n < 1:
        return ()
    if n == 1:
        return ((),)
    out = set()

    def extend(remaining: int, bound, current: tuple) -> None:
        if remaining == 0:
            out.add(tuple(sorted(current)))
            return
        for size in range(1, remaining + 1):
            for sub in rooted_trees(size):
                key = (size, sub)
                if bound is not None and key > bound:
                    continue
                extend(remaining - size, key, current + (sub,))

    extend(n - 1, None, ())
    return tuple(sorted(out))


def tree_shape_size(shape: tuple) -> int:
    return 1 + sum(tree_shape_size(child) for child in shape)


def forest_pseudotree(
    cycle_size: int, forests: Iterable[Iterable[tuple]]
) -> SimplicialComplex:
    """Cycle 0..cycle_size-1 whose vertex i is joined to the roots of the tree
    shapes in forests[i]; tree vertices are numbered depth-first from
    cycle_size."""
    if cycle_size < 3:
        raise InvalidInputError("cycle size must be >= 3")
    edges = [(i, (i + 1) % cycle_size) for i in range(cycle_size)]
    counter = [cycle_size]

    def build(parent: int, subtree: tuple) -> None:
        node = counter[0]
        counter[0] += 1
        edges.append((parent, node))
        for child in subtree:
            build(node, child)

    for pos, forest in enumerate(forests):
        for subtree in forest:
            build(pos, subtree)
    return graph_complex(counter[0], edges)


def single_attachment_pseudotree(cycle_size: int, shape: tuple) -> SimplicialComplex:
    """Odd cycle whose vertex 0 is joined to the root of the given tree shape."""
    return forest_pseudotree(cycle_size, [(shape,)])


# --- family spec dispatch ---------------------------------------------------


def parse_family(text: str) -> FamilySpec:
    """Parse CLI family strings like 'gmk:m=2,k=5,cycle=3' or 'npartite:5,3,2'."""
    if ":" in text:
        name, rest = text.split(":", 1)
    else:
        name, rest = text, ""
    name = name.strip()
    params: dict = {}
    positional = []
    for chunk in filter(None, (s.strip() for s in rest.split(","))):
        if "=" in chunk:
            key, value = chunk.split("=", 1)
            params[key.strip()] = _coerce(value.strip())
        else:
            positional.append(_coerce(chunk))
    if positional:
        params["args"] = positional
    return FamilySpec(name, params)


def _coerce(text: str):
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def _args(spec: FamilySpec, names: list[str], defaults: dict) -> dict:
    params = dict(spec.params)
    positional = params.pop("args", [])
    out = dict(defaults)
    for name, value in zip(names, positional):
        out[name] = value
    out.update(params)
    missing = [n for n in names if n not in out]
    if missing:
        raise InvalidInputError(
            f"family {spec.family!r} missing parameters: {', '.join(missing)}"
        )
    return out


def generate(spec: FamilySpec) -> SimplicialComplex:
    try:
        return _generate(spec)
    except TypeError as exc:
        raise InvalidInputError(
            f"bad parameters for family {spec.family!r}: {exc}") from exc


def _generate(spec: FamilySpec) -> SimplicialComplex:
    name = spec.family
    if name == "complete":
        a = _args(spec, ["n"], {})
        return complete(a["n"])
    if name in ("npartite", "complete_npartite"):
        parts = spec.params.get("args") or spec.params.get("parts")
        if not parts:
            raise InvalidInputError("npartite needs part sizes, e.g. npartite:5,3,2")
        return complete_npartite(list(parts))
    if name == "path":
        return path(_args(spec, ["n"], {})["n"])
    if name == "cycle":
        return cycle(_args(spec, ["n"], {})["n"])
    if name == "wheel":
        return wheel(_args(spec, ["n"], {})["n"])
    if name == "gmk":
        a = _args(spec, ["m", "k"], {"cycle": 3})
        return gmk(a["m"], a["k"], a["cycle"])
    if name == "hairball":
        a = _args(spec, ["cycle"], {"tails": None})
        tails = a["tails"]
        if tails is None:
            raise InvalidInputError("hairball needs tails, e.g. hairball:cycle=3,tails=1+2")
        if isinstance(tails, str):
            tails = [[int(x) for x in group.split("+") if x]
                     for group in tails.split("/")]
        return hairball(a["cycle"], tails)
    if name == "figure8":
        a = _args(spec, ["a", "b"], {})
        return figure8(a["a"], a["b"])
    if name == "theta":
        a = _args(spec, ["p_len", "q_len", "r_len"], {})
        return theta(a["p_len"], a["q_len"], a["r_len"])
    if name == "torus_3x3":
        return torus_3x3()
    if name == "full_simplex":
        return full_simplex(_args(spec, ["n"], {})["n"])
    if name == "orphaned_edge":
        return orphaned_edge()
    if name == "tree":
        a = _args(spec, ["n"], {"seed": 0})
        return random_tree(a["n"], a["seed"])
    if name == "forest":
        a = _args(spec, ["n"], {"seed": 0})
        return random_forest(a["n"], a["seed"])
    if name == "pseudotree":
        a = _args(spec, ["cycle", "extra"], {"seed": 0})
        return random_pseudotree(a["cycle"], a["extra"], a["seed"])
    if name == "erdos_renyi":
        a = _args(spec, ["n"], {"p": 0.5, "seed": 0})
        return erdos_renyi(a["n"], a["p"], a["seed"])
    if name == "random_bipartite":
        a = _args(spec, ["n"], {"p": 0.5, "seed": 0})
        return random_bipartite(a["n"], a["p"], a["seed"])
    if name == "random_complex":
        a = _args(spec, ["n"], {"seed": 0})
        return random_complex(a["n"], a["seed"])
    raise InvalidInputError(f"unknown family {name!r}")
