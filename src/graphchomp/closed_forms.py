"""Closed-form nim-value rules: classifiers plus evaluators.

Each rule answers "does this position match the hypothesis?" and, if so,
produces an exact value or a lower bound.  Exact rules double as engine
fast paths; bounds never do.  Graph classes are read off graph_stats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import (
    GraphStats,
    InvalidInputError,
    PseudotreeShape,
    SimplicialComplex,
    graph_stats,
    is_graph,
    mask_of,
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


# --- graph classes, read from graph_stats -----------------------------------


def npartite_parts(c: SimplicialComplex) -> Optional[list[int]]:
    """Part sizes if c is a nonempty complete multipartite graph, else None."""
    return graph_stats(c).parts if is_graph(c) else None


def pseudotree_classify(c: SimplicialComplex) -> Optional[PseudotreeShape]:
    """Shape of a connected single-cycle graph, or None."""
    return graph_stats(c).shape if is_graph(c) else None


def single_attachment_value(
    c: SimplicialComplex | tuple[int, ...], shape: Optional[PseudotreeShape] = None
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
    # B lies in its edges and its singleton: an even count is an odd degree
    if sum(f >> b & 1 for f in (c if type(c) is tuple else c.faces)) % 2 == 0:
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
    c: SimplicialComplex | tuple[int, ...], shape: Optional[PseudotreeShape] = None
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


# --- engine fast paths: c is a complex or its sorted face tuple -------------


def engine_fast_value(
    c: SimplicialComplex | tuple[int, ...], stats: Optional[GraphStats]
) -> Optional[tuple[int, str]]:
    """Exact closed form needing no simplest-form certificate, or None."""
    if not (c if type(c) is tuple else c.faces):
        return 0, "empty"
    if stats is None:
        return None
    if stats.bipartite:
        if stats.cycle_count == 0:
            return forest_value(stats.v, stats.component_count).value, "forest"
        return bipartite_value(stats.v, stats.e).value, "bipartite"
    if stats.parts is not None:
        return complete_npartite_value(stats.parts).value, "complete-npartite"
    shape = stats.shape
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
    c: SimplicialComplex | tuple[int, ...], stats: Optional[GraphStats]
) -> bool:
    """Cheap test for whether a certified-simplest rule could apply."""
    if stats is None or stats.bipartite:
        return False
    shape = stats.shape
    if shape is None or not shape.odd_cycle:
        return False
    return shape.is_hairball or shape.single_attachment is not None


def engine_certified_value(
    c: SimplicialComplex | tuple[int, ...], stats: Optional[GraphStats]
) -> Optional[tuple[int, str]]:
    """Exact hairball or single-attachment value for a simplest-form
    position, or None."""
    shape = None if stats is None else stats.shape
    if shape is None or not shape.odd_cycle:
        return None
    r = hairball_value(c, shape)
    if r.is_exact:
        return r.value, r.rule
    r = single_attachment_value(c, shape)
    if r.is_exact:
        return r.value, r.rule
    return None
