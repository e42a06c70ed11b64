from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphchomp.closed_forms import (
    EXACT,
    LOWER_BOUND,
    NOT_APPLICABLE,
    bipartite_value,
    complete_graph_value,
    complete_npartite_value,
    engine_certified_value,
    engine_fast_value,
    even_cycle_pseudotree_value,
    figure8_value,
    forest_value,
    gmk_recurrence,
    gmk_value,
    hairball_value,
    npartite_parts,
    pseudotree_classify,
    single_attachment_value,
    theta_value,
)
from graphchomp.complexes import graph_stats, mask_of
from graphchomp.engine import EngineConfig, TranspositionTable, grundy
from graphchomp.families import (
    attach_tail,
    complete,
    complete_npartite,
    cycle,
    figure8,
    gmk,
    hairball,
    path,
    random_forest,
    random_pseudotree,
    theta,
)
from graphchomp.oracle import oracle_grundy
from graphchomp.symmetry import is_simplest_form

from conftest import small_graphs

# Frozen reference grid for g_{m,k}, rows m = 1..12, columns k = 1..12.
GMK_GRID = [
    [4, 6, 4, 8, 10, 8, 12, 14, 12, 16, 18, 16],
    [6, 4, 6, 10, 8, 10, 14, 12, 14, 18, 16, 18],
    [4, 6, 4, 8, 10, 8, 12, 14, 12, 16, 18, 16],
    [8, 10, 8, 4, 6, 4, 16, 18, 16, 12, 14, 12],
    [10, 8, 10, 6, 4, 6, 18, 16, 18, 14, 12, 14],
    [8, 10, 8, 4, 6, 4, 16, 18, 16, 12, 14, 12],
    [12, 14, 12, 16, 18, 16, 4, 6, 4, 8, 10, 8],
    [14, 12, 14, 18, 16, 18, 6, 4, 6, 10, 8, 10],
    [12, 14, 12, 16, 18, 16, 4, 6, 4, 8, 10, 8],
    [16, 18, 16, 12, 14, 12, 8, 10, 8, 4, 6, 4],
    [18, 16, 18, 14, 12, 14, 10, 8, 10, 6, 4, 6],
    [16, 18, 16, 12, 14, 12, 8, 10, 8, 4, 6, 4],
]


def test_complete_graph_formula():
    for n in range(1, 10):
        assert complete_graph_value(n).value == n % 3


def test_complete_graph_matches_oracle():
    for n in range(1, 7):
        assert complete_graph_value(n).value == oracle_grundy(complete(n))


def test_npartite_formula_counts_odd_parts():
    assert complete_npartite_value([2, 2]).value == 0
    assert complete_npartite_value([3, 2]).value == 1
    assert complete_npartite_value([3, 3]).value == 2
    assert complete_npartite_value([1, 1, 1]).value == 0  # = K_3
    assert complete_npartite_value([5, 3, 1, 2]).value == 0


def test_npartite_matches_oracle_small():
    for parts in ([2, 2], [3, 1], [2, 2, 2], [3, 2, 1], [1, 1, 1, 1]):
        assert complete_npartite_value(parts).value == \
            oracle_grundy(complete_npartite(parts))


def test_npartite_detection():
    assert sorted(npartite_parts(complete_npartite([3, 2, 1]))) == [1, 2, 3]
    assert npartite_parts(cycle(5)) is None
    assert npartite_parts(path(4)) is None
    # C_4 = K_{2,2} is complete bipartite
    assert sorted(npartite_parts(cycle(4))) == [2, 2]


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [[first]] + partition
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_npartite_parts_matches_definition(c):
    # complete multipartite: some partition of the vertices into independent
    # sets with every pair from different parts adjacent
    def adjacent(u, w):
        return mask_of((u, w)) in c.faces

    expected = None
    for partition in _set_partitions(list(c.vertices())):
        part_of = {u: i for i, part in enumerate(partition) for u in part}
        if all(adjacent(u, w) == (part_of[u] != part_of[w])
               for u in part_of for w in part_of if u < w):
            expected = sorted(len(part) for part in partition)
            break
    assert npartite_parts(c) == expected


def test_bipartite_table():
    assert bipartite_value(0, 0).value == 0
    assert bipartite_value(1, 0).value == 1
    assert bipartite_value(0, 1).value == 2
    assert bipartite_value(1, 1).value == 3


def test_forest_table():
    # (v parity, component-count parity) -> value
    assert forest_value(4, 2).value == 0  # even, even
    assert forest_value(4, 1).value == 2  # even, odd
    assert forest_value(5, 2).value == 3  # odd, even
    assert forest_value(5, 1).value == 1  # odd, odd
    # single trees: 2 if v even, 1 if v odd
    assert forest_value(6, 1).value == 2
    assert forest_value(7, 1).value == 1


def test_forest_matches_oracle_samples():
    for seed in range(25):
        f = random_forest(7, seed)
        st_ = graph_stats(f)
        assert forest_value(st_.v, st_.component_count).value == \
            oracle_grundy(f), seed


def test_even_cycle_pseudotree():
    assert even_cycle_pseudotree_value(7).value == 3
    assert even_cycle_pseudotree_value(8).value == 0


def test_gmk_recurrence_matches_frozen_grid():
    memo = {}
    for m in range(1, 13):
        for k in range(1, 13):
            assert gmk_recurrence(m, k, memo) == GMK_GRID[m - 1][k - 1], (m, k)


def test_gmk_recurrence_bases():
    memo = {}
    assert gmk_recurrence(0, 0, memo) == 4
    for m in range(1, 13):
        want = 3 if m % 2 else 0
        assert gmk_recurrence(m, 0, memo) == want
        assert gmk_recurrence(0, m, memo) == want


def test_gmk_block_structure():
    # 3x3 blocks: value 4n at (3a+1,3b+1), 4n+2 off the checkerboard,
    # n = (a xor b) + 1
    memo = {}
    for a in range(8):
        for b in range(8):
            n = (a ^ b) + 1
            for i in range(1, 4):
                for j in range(1, 4):
                    want = 4 * n if (i + j) % 2 == 0 else 4 * n + 2
                    assert gmk_recurrence(3 * a + i, 3 * b + j, memo) == want


def test_gmk_closed_form_agrees_with_recurrence():
    memo = {}
    for m in range(1, 31):
        for k in range(1, 31):
            assert gmk_value(m, k).value == gmk_recurrence(m, k, memo), (m, k)


def test_gmk_engine_small_cases():
    table = TranspositionTable()
    cfg = EngineConfig(use_closed_forms=False)
    memo = {}
    for m in range(4):
        for k in range(4 - m):
            assert grundy(gmk(m, k), cfg, table).value == \
                gmk_recurrence(m, k, memo), (m, k)


def test_gmk_cycle_size_independence():
    table = TranspositionTable()
    cfg = EngineConfig(use_closed_forms=False)
    memo = {}
    for m, k in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        assert grundy(gmk(m, k, cycle_size=5), cfg, table).value == \
            gmk_recurrence(m, k, memo), (m, k)


def test_pseudotree_classify():
    shape = pseudotree_classify(gmk(1, 2))
    assert shape is not None and shape.odd_cycle
    assert pseudotree_classify(path(4)) is None  # no cycle
    assert pseudotree_classify(figure8(3, 3)) is None  # two cycles
    shape5 = pseudotree_classify(cycle(5))
    assert shape5 is not None and shape5.odd_cycle


def test_pseudotree_shape_reads_attachment_and_branches():
    shape = pseudotree_classify(gmk(1, 2))  # A = 0, B = 3
    assert shape.single_attachment == (0, 3)
    assert shape.branch_lengths == (1, 2)
    forked = pseudotree_classify(attach_tail(gmk(2, 1), 4, 1))
    assert forked.single_attachment == (0, 3)
    assert forked.branch_lengths is None  # B's 2-branch forks at vertex 4
    assert pseudotree_classify(gmk(0, 0)).branch_lengths is None  # B a leaf
    assert pseudotree_classify(hairball(3, [[1], [1]])).single_attachment \
        is None
    assert pseudotree_classify(hairball(3, [[1, 1]])).single_attachment \
        is None  # A has degree 4


def test_single_attachment_theorem_small():
    # even branch degree -> exactly 3 (v odd) / 0 (v even)
    c = hairball(3, [[1, 1]])  # two 1-tails at one cycle vertex, v=5
    shape = pseudotree_classify(c)
    assert is_simplest_form(c) is False or shape is not None
    res = single_attachment_value(c, shape)
    if res.kind == EXACT:
        assert res.value == oracle_grundy(c)


def test_hairball_classification_examples():
    # odd vertex count -> 3
    c = hairball(3, [[2], [2]])  # v = 7
    shape = pseudotree_classify(c)
    res = hairball_value(c, shape)
    assert res.kind == EXACT and res.value == 3
    assert oracle_grundy(c) == 3


def test_figure8_value():
    for a, b in [(3, 3), (3, 4), (4, 4), (3, 5)]:
        res = figure8_value(figure8(a, b))
        assert res.kind == EXACT and res.value == 1
        assert oracle_grundy(figure8(a, b)) == 1


def test_theta_value():
    for p, q, r in [(1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 1, 3)]:
        t = theta(p, q, r)
        st_ = graph_stats(t)
        res = theta_value(t)
        assert res.kind == EXACT
        assert res.value == (1 if st_.v % 2 else 2)
        assert oracle_grundy(t) == res.value


def test_formula_kinds():
    assert complete_graph_value(0).kind == NOT_APPLICABLE or True
    # odd branch degree gives only a lower bound
    c = gmk(1, 2)
    shape = pseudotree_classify(c)
    res = single_attachment_value(c, shape)
    assert res.kind in (EXACT, LOWER_BOUND)


def _odd_cycle_pseudotrees():
    for cycle_size in (3, 5, 7):
        for extra in range(7):
            for seed in range(3):
                yield random_pseudotree(cycle_size, extra, seed)
        # the two-tail family, and a fork on one of its branch vertex B's
        # two branches
        yield gmk(2, 1, cycle_size)
        yield attach_tail(gmk(2, 1, cycle_size), cycle_size + 1, 1)
    # a third branch at B, with three distinct branch lengths so that the
    # position stays in simplest form
    for cycle_size in (3, 5):
        yield attach_tail(gmk(2, 3, cycle_size), cycle_size, 1)


def test_engine_rules_match_oracle_on_odd_cycle_pseudotrees():
    hits = Counter()
    for c in _odd_cycle_pseudotrees():
        stats = graph_stats(c)
        for rule_fn in (engine_fast_value, engine_certified_value):
            hit = rule_fn(c, stats)
            if hit is not None:
                value, rule = hit
                assert value == oracle_grundy(c), (rule, sorted(c.faces))
                hits[rule] += 1
    assert {"cycle", "gmk-base", "gmk-block", "hairball",
            "odd-pseudotree-single-attachment"} <= set(hits)
