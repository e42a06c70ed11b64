"""Closed-form nim-value rules: classifiers plus evaluators.

Each rule answers "does this position match the hypothesis?" and, if so,
produces an exact value or a lower bound.  Exact rules double as engine
fast paths; bounds never do.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .complexes import (
    GraphStats,
    InvalidInputError,
    SimplicialComplex,
    adjacency,
    graph_stats,
    is_graph,
    mask_of,
    memoize,
)
from .symmetry import is_simplest_form

EXACT = "exact"
LOWER_BOUND = "lower_bound"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class FormulaResult:
    kind: str
    value: Optional[int] = None
    rule: Optional[str] = None

    @property
    def is_exact(self) -> bool:
        return self.kind == EXACT


def _na() -> FormulaResult:
    return FormulaResult(NOT_APPLICABLE)


def complete_graph_value(n: int) -> FormulaResult:
    if n < 0:
        raise InvalidInputError("negative vertex count")
    return FormulaResult(EXACT, n % 3, "complete-graph")


def complete_npartite_value(parts: list[int]) -> FormulaResult:
    if any(p < 1 for p in parts):
        raise InvalidInputError("parts must be positive")
    p = sum(1 for a in parts if a % 2 == 1)
    return FormulaResult(EXACT, p % 3, "complete-npartite")


_BIPARTITE_TABLE = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}


def bipartite_value(v_parity: int, e_parity: int) -> FormulaResult:
    """Value of any bipartite graph from the parities of v and e."""
    return FormulaResult(
        EXACT, _BIPARTITE_TABLE[(v_parity % 2, e_parity % 2)], "bipartite"
    )


def forest_value(v: int, component_count: int) -> FormulaResult:
    if component_count % 2 == 0:
        value = 0 if v % 2 == 0 else 3
    else:
        value = 2 if v % 2 == 0 else 1
    return FormulaResult(EXACT, value, "forest")


def even_cycle_pseudotree_value(v: int) -> FormulaResult:
    """Even-cycle pseudotree: bipartite with e = v, so only v's parity matters."""
    return FormulaResult(EXACT, 3 if v % 2 else 0, "even-cycle-pseudotree")


# --- complete multipartite detection ---------------------------------------


@memoize
def npartite_parts(c: SimplicialComplex) -> Optional[list[int]]:
    """Part sizes if the graph is complete multipartite, else None.

    Groups vertices by their closed non-neighbourhood (the vertex and every
    vertex it is not adjacent to).  The graph is complete multipartite
    exactly when each group equals its key: the groups are then the parts.
    """
    if not is_graph(c) or not c.faces:
        return None
    adj = adjacency(c)
    verts = frozenset(adj)
    groups = Counter(verts - ns for ns in adj.values())
    # a vertex lies in its own key, so a group is a subset of its key
    if any(len(key) != size for key, size in groups.items()):
        return None
    return sorted(groups.values())


# --- pseudotree shapes ------------------------------------------------------


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


@memoize
def pseudotree_classify(c: SimplicialComplex) -> Optional[PseudotreeShape]:
    """Shape of a connected single-cycle graph, or None.

    The only walk over a pseudotree: every pseudotree rule reads its shape.
    """
    if not is_graph(c) or not c.faces:
        return None
    stats = graph_stats(c)
    if stats.component_count != 1 or stats.e != stats.v or stats.v < 3:
        return None
    adj = adjacency(c)

    # strip leaves to expose the unique cycle
    deg = {u: len(ns) for u, ns in adj.items()}
    live = {u: set(ns) for u, ns in adj.items()}
    queue = [u for u in adj if deg[u] == 1]
    removed = set()
    while queue:
        u = queue.pop()
        removed.add(u)
        for w in live[u]:
            live[w].discard(u)
            deg[w] -= 1
            if deg[w] == 1 and w not in removed:
                queue.append(w)
        live[u] = set()
    core = [u for u in adj if u not in removed]
    if not core or any(deg[u] != 2 for u in core):
        return None

    # order the cycle starting from its smallest vertex
    start = min(core)
    cycle = [start]
    prev, cur = None, start
    while True:
        nxt = min(w for w in live[cur] if w != prev) if prev is None else next(
            w for w in live[cur] if w != prev
        )
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
        v=stats.v,
        single_attachment=single,
        branch_lengths=branches,
    )


def single_attachment_value(
    c: SimplicialComplex, shape: Optional[PseudotreeShape] = None
) -> FormulaResult:
    """Odd cycle joined to one tree by an edge, in simplest form.

    Exact when the tree neighbor B has even degree (3 or 0 by vertex
    parity); only a lower bound of 4 when B has odd degree.
    """
    shape = shape if shape is not None else pseudotree_classify(c)
    if shape is None or not shape.odd_cycle or shape.single_attachment is None:
        return _na()
    if not is_simplest_form(c):
        return _na()
    _, b = shape.single_attachment
    if graph_stats(c).degrees[b] % 2 == 1:
        return FormulaResult(LOWER_BOUND, 4, "odd-pseudotree-single-attachment")
    value = 3 if shape.v % 2 else 0
    return FormulaResult(EXACT, value, "odd-pseudotree-single-attachment")


def gmk_value(m: int, k: int) -> FormulaResult:
    """Closed form for the odd cycle with a branch vertex carrying an m-tail
    and a k-tail (m, k >= 1): 4n on the block diagonal, 4n+2 off it, with
    n = (a xor b) + 1 for m = 3a+i, k = 3b+j."""
    if m < 1 or k < 1:
        raise InvalidInputError("tail lengths must be >= 1")
    a, i = (m - 1) // 3, (m - 1) % 3 + 1
    b, j = (k - 1) // 3, (k - 1) % 3 + 1
    n = (a ^ b) + 1
    return FormulaResult(EXACT, 4 * n if (i + j) % 2 == 0 else 4 * n + 2, "gmk-block")


def gmk_recurrence(m: int, k: int, memo: Optional[dict] = None) -> int:
    """Independent mex recurrence for the same family.

    Bases: both tails empty -> 4; one tail empty -> the single-attachment
    values 3 (odd total) / 0 (even total).
    """
    if m < 0 or k < 0:
        raise InvalidInputError("tail lengths must be >= 0")
    if memo is None:
        memo = {}

    def base(mm: int, kk: int) -> Optional[int]:
        if mm == 0 and kk == 0:
            return 4
        if mm == 0:
            return 3 if kk % 2 else 0
        if kk == 0:
            return 3 if mm % 2 else 0
        return None

    for mm in range(m + 1):
        for kk in range(k + 1):
            if (mm, kk) in memo:
                continue
            b0 = base(mm, kk)
            if b0 is not None:
                memo[(mm, kk)] = b0
                continue
            vals = {0, 1, 2, 3}
            for i in range(mm - 1):
                vals.add(memo[(i, kk)] ^ 1)
                vals.add(memo[(i, kk)] ^ 2)
            for j in range(kk - 1):
                vals.add(memo[(mm, j)] ^ 1)
                vals.add(memo[(mm, j)] ^ 2)
            vals.add(memo[(mm - 1, kk)])
            vals.add(memo[(mm - 1, kk)] ^ 1)
            vals.add(memo[(mm, kk - 1)])
            vals.add(memo[(mm, kk - 1)] ^ 1)
            g = 0
            while g in vals:
                g += 1
            memo[(mm, kk)] = g
    return memo[(m, k)]


def hairball_value(
    c: SimplicialComplex, shape: Optional[PseudotreeShape] = None
) -> FormulaResult:
    """Odd-cycle hairball in simplest form (not a bare cycle).

    Odd vertex count gives 3.  Even gives 4 only for the single attachment
    vertex carrying consecutive-length tails {k, k+1} (the k = 0 instance
    being a lone leaf), else 0.
    """
    shape = shape if shape is not None else pseudotree_classify(c)
    if shape is None or not shape.odd_cycle or not shape.is_hairball:
        return _na()
    if not shape.tail_profile:
        return _na()  # bare cycle
    if not is_simplest_form(c):
        return _na()
    if shape.v % 2 == 1:
        return FormulaResult(EXACT, 3, "hairball")
    profile = shape.tail_profile
    if len(profile) == 1:
        (lengths,) = profile.values()
        if lengths == (1,) or (
            len(lengths) == 2 and lengths[1] == lengths[0] + 1
        ):
            return FormulaResult(EXACT, 4, "hairball")
    return FormulaResult(EXACT, 0, "hairball")


def figure8_value(c: SimplicialComplex) -> FormulaResult:
    """Two cycles sharing a single degree-4 vertex: always 1."""
    if not is_graph(c) or not c.faces:
        return _na()
    stats = graph_stats(c)
    if stats.component_count != 1 or stats.e != stats.v + 1:
        return _na()
    degs = sorted(stats.degrees.values())
    if degs != [2] * (stats.v - 1) + [4]:
        return _na()
    return FormulaResult(EXACT, 1, "figure8")


def theta_value(c: SimplicialComplex) -> FormulaResult:
    """Cycle plus an internal path between two nonadjacent cycle vertices:
    1 for odd vertex count, 2 for even."""
    if not is_graph(c) or not c.faces:
        return _na()
    stats = graph_stats(c)
    if stats.component_count != 1 or stats.e != stats.v + 1:
        return _na()
    heavy = sorted(u for u, d in stats.degrees.items() if d != 2)
    if len(heavy) != 2 or any(stats.degrees[u] != 3 for u in heavy):
        return _na()
    if mask_of(heavy) in c.faces:
        return _na()  # branch vertices must be nonadjacent
    return FormulaResult(EXACT, 1 if stats.v % 2 else 2, "theta")


# --- engine fast paths ------------------------------------------------------


def engine_fast_value(
    c: SimplicialComplex, stats: Optional[GraphStats]
) -> Optional[tuple[int, str]]:
    """Exact closed form needing no simplest-form certificate, or None."""
    if not c.faces:
        return 0, "empty"
    if stats is None:
        return None
    if stats.bipartition is not None:
        if stats.cycle_count == 0:
            return forest_value(stats.v, stats.component_count).value, "forest"
        return bipartite_value(stats.v, stats.e).value, "bipartite"
    parts = npartite_parts(c)
    if parts is not None:
        return complete_npartite_value(parts).value, "complete-npartite"
    shape = pseudotree_classify(c)
    if shape is None or not shape.odd_cycle:
        return None
    if shape.tail_profile == {}:  # a hairball with no tails: a bare cycle
        return 0, "cycle"
    if shape.tail_profile is not None and \
            list(shape.tail_profile.values()) == [(1,)]:
        # one leaf on the cycle: a single attachment whose B is that leaf
        return 4, "gmk-base"
    if shape.branch_lengths is not None:
        return gmk_value(*shape.branch_lengths).value, "gmk-block"
    return None


def wants_simplest_certificate(
    c: SimplicialComplex, stats: Optional[GraphStats]
) -> bool:
    """Cheap test for whether a certified-simplest rule could apply."""
    if stats is None or stats.bipartition is not None:
        return False
    shape = pseudotree_classify(c)
    if shape is None or not shape.odd_cycle:
        return False
    return shape.is_hairball or shape.single_attachment is not None


def engine_certified_value(
    c: SimplicialComplex, stats: Optional[GraphStats]
) -> Optional[tuple[int, str]]:
    """Exact hairball or single-attachment value for a simplest-form
    position, or None."""
    shape = pseudotree_classify(c)
    if shape is None or not shape.odd_cycle:
        return None
    r = hairball_value(c, shape)
    if r.is_exact:
        return r.value, r.rule
    r = single_attachment_value(c, shape)
    if r.is_exact:
        return r.value, r.rule
    return None
