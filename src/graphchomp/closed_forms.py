"""Closed-form nim-value rules: classifiers plus evaluators.

Each rule answers "does this position match the hypothesis?" and, if so,
produces an exact value or a lower bound.  Exact rules double as engine
fast paths; bounds never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import (
    GraphStats,
    InvalidInputError,
    SimplicialComplex,
    adjacency,
    graph_stats,
    is_graph,
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


def npartite_parts(c: SimplicialComplex) -> Optional[list[int]]:
    """Part sizes if the graph is complete multipartite, else None.

    A graph is complete multipartite iff the components of its complement
    are cliques (the parts).
    """
    if not is_graph(c) or not c.faces:
        return None
    adj = adjacency(c)
    verts = sorted(adj)
    comp_of = {}
    parts = []
    for start in verts:
        if start in comp_of:
            continue
        group = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in verts:
                if w not in group and w not in adj[u] and w != u:
                    if w in comp_of:
                        return None
                    group.add(w)
                    stack.append(w)
        for u in group:
            comp_of[u] = len(parts)
        parts.append(group)
    for group in parts:
        for u in group:
            for w in group:
                if u != w and w in adj[u]:
                    return None  # complement component is not a clique
        for u in group:
            for w in verts:
                if w not in group and w not in adj[u]:
                    return None
    return sorted(len(g) for g in parts)


# --- pseudotree shapes ------------------------------------------------------


@dataclass(frozen=True)
class PseudotreeShape:
    cycle_vertices: tuple[int, ...]
    attachment_degrees: dict[int, int]
    tail_profile: Optional[dict[int, tuple[int, ...]]]
    is_hairball: bool
    odd_cycle: bool
    v: int


@memoize
def pseudotree_classify(c: SimplicialComplex) -> Optional[PseudotreeShape]:
    """Shape of a connected single-cycle graph, or None."""
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
            lengths = []
            for w in adj[a]:
                if w in core_set:
                    continue
                length, prev_v, cur_v = 1, a, w
                while True:
                    nxt = [x for x in adj[cur_v] if x != prev_v]
                    if not nxt:
                        break
                    prev_v, cur_v = cur_v, nxt[0]
                    length += 1
                lengths.append(length)
            if lengths:
                tails[a] = tuple(sorted(lengths))

    return PseudotreeShape(
        cycle_vertices=tuple(cycle),
        attachment_degrees={a: len(adj[a]) for a in cycle},
        tail_profile=tails,
        is_hairball=hairball,
        odd_cycle=len(cycle) % 2 == 1,
        v=stats.v,
    )


def _single_attachment(
    c: SimplicialComplex, shape: PseudotreeShape
) -> Optional[tuple[int, int]]:
    """(attachment vertex A, tree neighbor B) when exactly one cycle vertex
    has degree 3 and the rest degree 2."""
    heavy = [a for a, d in shape.attachment_degrees.items() if d > 2]
    if len(heavy) != 1 or shape.attachment_degrees[heavy[0]] != 3:
        return None
    if any(d != 2 for a, d in shape.attachment_degrees.items() if a != heavy[0]):
        return None
    a = heavy[0]
    adj = adjacency(c)
    b = next(w for w in adj[a] if w not in shape.cycle_vertices)
    return a, b


def single_attachment_value(
    c: SimplicialComplex, shape: Optional[PseudotreeShape] = None
) -> FormulaResult:
    """Odd cycle joined to one tree by an edge, in simplest form.

    Exact when the tree neighbor B has even degree (3 or 0 by vertex
    parity); only a lower bound of 4 when B has odd degree.
    """
    shape = shape if shape is not None else pseudotree_classify(c)
    if shape is None or not shape.odd_cycle:
        return _na()
    ab = _single_attachment(c, shape)
    if ab is None:
        return _na()
    if not is_simplest_form(c):
        return _na()
    _, b = ab
    deg_b = len(adjacency(c)[b])
    if deg_b % 2 == 1:
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
    adj = adjacency(c)
    if heavy[1] in adj[heavy[0]]:
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
    if shape is not None and shape.odd_cycle:
        if not shape.tail_profile and shape.is_hairball:
            return 0, "cycle"
        ab = _single_attachment(c, shape)
        if ab is not None and shape.is_hairball and shape.tail_profile and \
                len(shape.tail_profile) == 1:
            # branch vertex B carries zero tails: the lone-leaf instance
            (lengths,) = shape.tail_profile.values()
            if lengths == (1,):
                return 4, "gmk-base"
        if ab is not None:
            _, b = ab
            adj = adjacency(c)
            branches = [w for w in adj[b] if w not in shape.cycle_vertices]
            if len(branches) == 2:
                tl = []
                for w in branches:
                    length, prev_v, cur_v = 1, b, w
                    ok = True
                    while True:
                        nxt = [x for x in adj[cur_v] if x != prev_v]
                        if len(nxt) > 1:
                            ok = False
                            break
                        if not nxt:
                            break
                        prev_v, cur_v = cur_v, nxt[0]
                        length += 1
                    if not ok:
                        tl = None
                        break
                    tl.append(length)
                if tl is not None:
                    return gmk_value(tl[0], tl[1]).value, "gmk-block"
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
    return shape.is_hairball or _single_attachment(c, shape) is not None


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
