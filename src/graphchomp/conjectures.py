"""Experimental sweeps for the open questions about odd-cycle pseudotrees
and wheels.

Scans never assert a conjecture: they report consistency or a concrete
counterexample, and budget exhaustion is reported as "unverified".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .canon import canonical_key
from .closed_forms import gmk_value, pseudotree_classify
from .complexes import InvalidInputError, SimplicialComplex, vertices_of
from .engine import BudgetExceededError, EngineConfig, TranspositionTable, grundy
from .families import attach_tail, forest_pseudotree, path, rooted_trees, wheel
from .oracle import OracleBudgetError, oracle_grundy
from .symmetry import is_simplest_form, reduce_to_simplest

PATTERN_WINDOW = 6


@dataclass
class TailSequence:
    base: str
    attach: int
    values: list[int]
    classification: str
    detail: dict = field(default_factory=dict)
    stable_from: Optional[int] = None
    truncated: bool = False

    def to_row(self) -> dict:
        return {
            "id": f"tails:{self.base}:{self.attach}",
            "kind": "tails",
            "base": self.base,
            "attach": self.attach,
            "values": self.values,
            "classification": self.classification,
            "detail": self.detail,
            "stable_from": self.stable_from,
            "truncated": self.truncated,
        }


def classify_sequence(values: list[int], window: int = PATTERN_WINDOW):
    """Match the trailing window against the two conjectured patterns.

    Returns (classification, detail, stable_from); conservative, so anything
    not matching exactly is 'unclassified'.
    """
    if len(values) < window:
        return "unclassified", {}, None
    tail = values[-window:]

    start = len(values) - window
    a, b = tail[0], tail[1]
    if a != b and all(tail[i] == (a, b)[i % 2] for i in range(window)):
        lo, hi = min(a, b), max(a, b)
        if lo % 4 == 0 and hi == lo + 3:
            i = start
            while i >= 1 and values[i - 1] == values[i + 1]:
                i -= 1
            return "period2", {"n": lo // 4}, i

    for m in range(1, 31):
        for offset in range(1, 61):
            if all(
                tail[i] == gmk_value(m, offset + i).value for i in range(window)
            ):
                i = start
                while i >= 1 and offset - (start - i) >= 2 and \
                        values[i - 1] == gmk_value(
                            m, offset - (start - i) - 1
                        ).value:
                    i -= 1
                return (
                    "two_tail_row",
                    {"row": m, "offset": offset - (start - i)},
                    i,
                )
    return "unclassified", {}, None


def scan_tails(
    base: SimplicialComplex,
    attach: int,
    k_max: int,
    base_label: str = "",
    cfg: Optional[EngineConfig] = None,
    table: Optional[TranspositionTable] = None,
    node_budget: Optional[int] = None,
    oracle_checks: int = 3,
) -> TailSequence:
    """Nim-values of the base with a k-tail adjoined at `attach`, k <= k_max."""
    shape = pseudotree_classify(base)
    if shape is None or not shape.odd_cycle:
        raise InvalidInputError("tail scan base must be an odd-cycle pseudotree")
    heavy = [a for a, d in shape.attachment_degrees.items() if d >= 3]
    if len(heavy) != 1:
        raise InvalidInputError(
            "tail scan base must have exactly one cycle vertex of degree >= 3"
        )
    if not is_simplest_form(base):
        raise InvalidInputError("tail scan base must be in simplest form")

    cfg = cfg or EngineConfig()
    table = table if table is not None else TranspositionTable()
    values: list[int] = []
    truncated = False
    for k in range(k_max + 1):
        pos = attach_tail(base, attach, k)
        try:
            rec = grundy(pos, cfg, table, node_budget)
        except BudgetExceededError:
            truncated = True
            break
        if k < oracle_checks:
            try:
                if oracle_grundy(pos) != rec.value:
                    raise AssertionError(
                        f"engine/oracle mismatch on tail length {k}"
                    )
            except OracleBudgetError:
                pass
        values.append(rec.value)

    classification, detail, stable_from = classify_sequence(values)
    return TailSequence(
        base=base_label,
        attach=attach,
        values=values,
        classification=classification,
        detail=detail,
        stable_from=stable_from,
        truncated=truncated,
    )


def _attachment_options(extra: int):
    """Rooted forests on `extra` vertices = child tuples of a rooted tree
    on extra+1 vertices."""
    return rooted_trees(extra + 1)


def multi_attachment_instances(
    cycle_size: int, v_max: int
) -> Iterator[tuple[SimplicialComplex, str]]:
    """All pseudotrees on <= v_max vertices: given odd cycle, trees attached
    to >= 2 cycle vertices; one per isomorphism class.

    Each cycle vertex carries a canonical rooted forest, and an isomorphism
    maps the unique cycle onto itself, so two assignments are isomorphic
    exactly when a rotation or reflection of the cycle maps one onto the
    other.  Assignments are enumerated in lexicographic order of their
    per-vertex rank (vertices used, index among those forests); the first of
    each class is the one whose rank list is <= all of its dihedral images.
    """
    budget_total = v_max - cycle_size

    def first_of_class(ranks: list) -> bool:
        mirror = ranks[::-1]
        return all(
            ranks <= r[k:] + r[:k]
            for r in (ranks, mirror) for k in range(cycle_size)
        )

    def rec(budget: int, ranks: list):
        if len(ranks) == cycle_size:
            if sum(1 for used, _ in ranks if used) < 2 or \
                    not first_of_class(ranks):
                return
            assignment = [_attachment_options(used)[index]
                          for used, index in ranks]
            c = forest_pseudotree(cycle_size, assignment)
            label = "/".join(
                "+".join(json.dumps(s) for s in forest) or "-"
                for forest in assignment
            )
            yield c, f"cycle{cycle_size}:{label}"
            return
        for used in range(budget + 1):
            for index in range(len(_attachment_options(used))):
                yield from rec(budget - used, ranks + [(used, index)])

    yield from rec(budget_total, [])


def scan_multi_attachment(
    cycle_size: int,
    v_max: int,
    cfg: Optional[EngineConfig] = None,
    table: Optional[TranspositionTable] = None,
    node_budget: Optional[int] = None,
) -> list[dict]:
    """Check value 3 (odd v) / 0 (even v) on simplest-form multi-attachment
    odd-cycle pseudotrees."""
    if cycle_size % 2 == 0 or cycle_size < 3:
        raise InvalidInputError("cycle size must be odd and >= 3")
    cfg = cfg or EngineConfig()
    table = table if table is not None else TranspositionTable()
    rows = []
    for c, label in multi_attachment_instances(cycle_size, v_max):
        row = {"id": f"multi:{label}", "kind": "multi", "instance": label,
               "v": len(c.vertices())}
        if not is_simplest_form(c):
            row["status"] = "rejected-not-simplest"
            rows.append(row)
            continue
        expected = 3 if row["v"] % 2 else 0
        try:
            value = grundy(c, cfg, table, node_budget).value
        except BudgetExceededError:
            row["status"] = "unverified"
            rows.append(row)
            continue
        row.update(
            status="ok",
            value=value,
            expected=expected,
            agree=value == expected,
            facets=[vertices_of(f) for f in sorted(c.facets())],
        )
        rows.append(row)
    return rows


def scan_wheels(
    n_max: int,
    cfg: Optional[EngineConfig] = None,
    table: Optional[TranspositionTable] = None,
    node_budget: Optional[int] = None,
) -> list[dict]:
    """Wheel values for 3 <= n <= n_max; even n certified by reducing to
    the same simplest form as the 3-vertex path (value 1), odd n by direct
    search up to the budget."""
    if n_max < 3:
        raise InvalidInputError("n_max must be >= 3")
    cfg = cfg or EngineConfig()
    table = table if table is not None else TranspositionTable()
    rows = []
    path3_key = canonical_key(reduce_to_simplest(path(3))[0]).digest
    for n in range(3, n_max + 1):
        row = {"id": f"wheels:{n}", "kind": "wheels", "n": n}
        w = wheel(n)
        if n % 2 == 0:
            final, trace = reduce_to_simplest(w)
            if canonical_key(final).digest == path3_key:
                row.update(method="reduction", value=1, verified=True,
                           steps=len(trace.steps))
                rows.append(row)
                continue
            # fall back to solving whatever the reduction reached
            w = final
            row["method"] = "reduction+search"
        else:
            row["method"] = "search"
        try:
            value = grundy(w, cfg, table, node_budget).value
        except BudgetExceededError:
            row.update(verified=False, status="unverified")
            rows.append(row)
            continue
        row.update(value=value, verified=True)
        rows.append(row)
    return rows


def write_report(rows: list[dict], path_out: str) -> None:
    with open(path_out, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def load_report(path_in: str) -> list[dict]:
    rows = []
    with open(path_in) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows
