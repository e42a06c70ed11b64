import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphchomp.canon import isomorphic
from graphchomp.complexes import close_down, mask_of
from graphchomp.families import (
    complete,
    cycle,
    orphaned_edge,
    gmk,
    path,
    torus_3x3,
    wheel,
)
from graphchomp.oracle import oracle_grundy
from graphchomp.symmetry import (
    Involution,
    ReductionTrace,
    find_reduction,
    fixed_point_set,
    is_simplest_form,
    reduce_to_simplest,
    validate_involution,
)

from conftest import small_graphs


def test_involution_must_be_order_two():
    c = path(3)
    ok, reason = validate_involution(c, {0: 1, 1: 2, 2: 0})
    assert not ok and reason == "not-order-2"


def test_adjacent_swap_rejected():
    # swapping the endpoints of an edge fixes the edge setwise but not
    # pointwise, so the fixed point set is not a complex
    c = close_down([mask_of([0, 1])], 2)
    t = Involution.from_mapping({0: 1, 1: 0})
    ok, reason = validate_involution(c, t)
    assert not ok and reason == "fixed-set-not-complex"


def test_orphaned_edge_swap_rejected():
    c = orphaned_edge()
    t = Involution.from_mapping({0: 1, 1: 0, 2: 2})
    ok, reason = validate_involution(c, t)
    assert not ok


def test_non_face_preserving_rejected():
    c = close_down([mask_of([0, 1]), 1 << 2, 1 << 3], 4)
    t = Involution.from_mapping({0: 2, 2: 0, 1: 3, 3: 1})
    ok, reason = validate_involution(c, t)
    assert not ok and reason == "not-face-preserving"


def test_valid_involution_on_path():
    # reflecting a 3-path through its midpoint
    c = path(3)
    t = Involution.from_mapping({0: 2, 2: 0, 1: 1})
    ok, reason = validate_involution(c, t)
    assert ok, reason
    fixed = fixed_point_set(c, t)
    assert fixed.faces == frozenset({1})  # single vertex


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_reduction_preserves_nim_value(c):
    found = find_reduction(c)
    if found is None:
        return
    t, fixed = found
    ok, reason = validate_involution(c, t)
    assert ok, reason
    assert oracle_grundy(fixed) == oracle_grundy(c)


def test_simplest_form_examples():
    assert is_simplest_form(cycle(3))
    assert is_simplest_form(complete(4))  # every swap fixes an edge setwise
    assert not is_simplest_form(path(3))
    assert not is_simplest_form(gmk(1, 1))  # equal tails swap


def test_gmk_unequal_tails_is_simplest():
    assert is_simplest_form(gmk(1, 2))
    assert is_simplest_form(gmk(0, 0))


def test_torus_reduces_to_triangle():
    final, trace = reduce_to_simplest(torus_3x3())
    assert trace.complete
    assert isomorphic(final, cycle(3))


def test_wheel_even_reduces_and_certifies_value_one():
    final, trace = reduce_to_simplest(wheel(6))
    assert trace.complete
    assert trace.steps  # some reduction fired
    assert oracle_grundy(final) == 1


def test_wheel_even_admits_reflection_onto_path3():
    # reflecting through two opposite rim vertices fixes hub + both, giving
    # a 3-vertex path; the automatic search may prefer a smaller fixed set
    w = wheel(6)
    mapping = {6: 6, 0: 0, 3: 3, 1: 5, 5: 1, 2: 4, 4: 2}
    ok, reason = validate_involution(w, mapping)
    assert ok, reason
    fixed = fixed_point_set(w, Involution.from_mapping(mapping))
    assert isomorphic(fixed, path(3))


def test_trace_replay():
    c = torus_3x3()
    final, trace = reduce_to_simplest(c)
    assert ReductionTrace.replay(c, trace.to_json()).faces == final.faces


def test_reduce_terminates_in_simplest_form():
    final, trace = reduce_to_simplest(path(9))
    assert trace.complete
    assert is_simplest_form(final)
