import json

import pytest

from graphchomp import conjectures
from graphchomp.canon import canonical_key
from graphchomp.complexes import InvalidInputError, graph_stats
from graphchomp.conjectures import (
    classify_sequence,
    load_report,
    multi_attachment_instances,
    scan_multi_attachment,
    scan_tails,
    scan_wheels,
    write_report,
)
from graphchomp.closed_forms import gmk_value
from graphchomp.engine import EngineConfig, TranspositionTable
from graphchomp.families import cycle, gmk, graph_complex, path, rooted_trees


def test_classify_period2():
    cls, detail, stable = classify_sequence([4, 3, 0, 3, 0, 3, 0, 3])
    assert cls == "period2" and detail["n"] == 0
    assert stable == 1
    cls, detail, _ = classify_sequence([4, 7, 4, 7, 4, 7])
    assert cls == "period2" and detail["n"] == 1


def test_classify_table_row():
    # row m=1 starting at k=2: 6,4,8,10,8,12
    values = [gmk_value(1, k).value for k in range(2, 10)]
    cls, detail, stable = classify_sequence(values)
    assert cls == "two_tail_row"
    assert detail["row"] in (1, 3)  # rows 1 and 3 coincide
    assert stable == 0


def test_classify_short_or_odd_is_unclassified():
    assert classify_sequence([4, 3, 0])[0] == "unclassified"
    assert classify_sequence([1, 2, 3, 4, 5, 6, 7])[0] == "unclassified"


def test_scan_tails_gate():
    with pytest.raises(InvalidInputError):
        scan_tails(path(4), 0, 3)  # not a pseudotree
    with pytest.raises(InvalidInputError):
        scan_tails(gmk(1, 1), 0, 3)  # not simplest form (equal tails)


def test_scan_tails_bare_cycle_rejected():
    # no cycle vertex of degree >= 3
    with pytest.raises(InvalidInputError):
        scan_tails(cycle(3), 0, 3)


def test_scan_tails_base_g00():
    # tails grown from the lone leaf of the cycle-plus-leaf base give the
    # alternating 0/3 pattern after the initial 4
    seq = scan_tails(gmk(0, 0), 3, 8, base_label="gmk:0,0")
    assert seq.values[:5] == [4, 3, 0, 3, 0]
    assert seq.classification == "period2"
    assert seq.detail == {"n": 0}
    assert not seq.truncated
    assert all(v % 4 != 1 for v in seq.values)


def test_scan_tails_table_row_base():
    # base with unequal branch tails, extended along the longer tail,
    # walks along one row of the two-tail value grid
    base = gmk(1, 2)
    tip = max(base.vertices())
    seq = scan_tails(base, tip, 7, base_label="gmk:1,2")
    assert seq.values == [gmk_value(1, 2 + k).value for k in range(8)]
    assert seq.classification == "two_tail_row"


def _dedup_by_canonical_key(cycle_size, v_max):
    """Reference generator: build every assignment in enumeration order and
    keep the first graph of each canonical key."""
    seen = set()

    def rec(assignment, budget):
        if len(assignment) == cycle_size:
            if sum(1 for forest in assignment if forest) < 2:
                return
            edges = [(i, (i + 1) % cycle_size) for i in range(cycle_size)]
            counter = [cycle_size]

            def add(parent, subtree):
                node = counter[0]
                counter[0] += 1
                edges.append((parent, node))
                for child in subtree:
                    add(node, child)

            for pos, forest in enumerate(assignment):
                for subtree in forest:
                    add(pos, subtree)
            c = graph_complex(counter[0], edges)
            key = canonical_key(c).digest
            if key not in seen:
                seen.add(key)
                label = "/".join(
                    "+".join(json.dumps(s) for s in forest) or "-"
                    for forest in assignment
                )
                yield c, f"cycle{cycle_size}:{label}"
            return
        for used in range(budget + 1):
            for forest in rooted_trees(used + 1):
                yield from rec(assignment + [forest], budget - used)

    yield from rec([], v_max - cycle_size)


def test_multi_attachment_instances_dedup():
    seen = list(multi_attachment_instances(3, 6))
    # smallest: leaf on each of two cycle vertices (v=5), then v=6 shapes
    assert all(graph_stats(c).cycle_count == 1 for c, _ in seen)
    vs = sorted(graph_stats(c).v for c, _ in seen)
    assert vs[0] == 5

    def listing(instances):
        return [(c.ground_size, sorted(c.faces), label)
                for c, label in instances]

    for cycle_size, v_max in ((3, 9), (5, 10), (7, 11), (9, 12)):
        assert listing(multi_attachment_instances(cycle_size, v_max)) == \
            listing(_dedup_by_canonical_key(cycle_size, v_max))
    # above the canonicalization bound: two leaves at the seven possible
    # distances on a 15-cycle
    assert len(list(multi_attachment_instances(15, 17))) == 7


def test_scan_multi_draws_every_row_from_module_generator(monkeypatch):
    # the solver benchmark marks row boundaries by wrapping this module
    # attribute, so every row must be drawn through it
    drawn = []
    original = conjectures.multi_attachment_instances

    def counting(*args):
        for c, label in original(*args):
            drawn.append(label)
            yield c, label

    monkeypatch.setattr(conjectures, "multi_attachment_instances", counting)
    rows = scan_multi_attachment(3, 6)
    assert drawn and [r["instance"] for r in rows] == drawn


def test_scan_multi_smallest_cases():
    rows = scan_multi_attachment(3, 6)
    ok_rows = [r for r in rows if r["status"] == "ok"]
    assert ok_rows, "expected at least one simplest-form instance"
    assert all(r["agree"] for r in ok_rows)
    # v=5 odd instance has value 3
    v5 = [r for r in ok_rows if r["v"] == 5]
    assert v5 and all(r["value"] == 3 for r in v5)


def test_scan_wheels_small():
    rows = scan_wheels(6)
    by_n = {r["n"]: r for r in rows}
    assert by_n[3]["value"] == 1
    assert by_n[4]["value"] == 1
    assert by_n[5]["value"] == 1
    assert by_n[6]["value"] == 1
    assert by_n[4]["method"].startswith("reduction")
    assert all(r.get("verified") for r in rows)


def test_report_roundtrip(tmp_path):
    rows = [{"id": "a", "x": 1}, {"id": "b", "x": [1, 2]}]
    p = tmp_path / "r.jsonl"
    write_report(rows, str(p))
    assert load_report(str(p)) == rows


def test_scan_wheels_even_rows_certified_by_reduction():
    rows = {r["n"]: r for r in scan_wheels(8)}
    for n in (4, 6, 8):
        assert rows[n]["method"] == "reduction", rows[n]
        assert rows[n]["value"] == 1
