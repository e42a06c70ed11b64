import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphchomp.canon import dense_view, isomorphic
from graphchomp.complexes import SimplicialComplex, close_down, mask_of, relabel
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
    _valid_involutions,
    find_reduction,
    fixed_point_set,
    is_simplest_form,
    reduce_to_simplest,
    validate_involution,
)

from conftest import small_complexes, small_graphs
from test_canon import _symmetric_graphs


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
    t = find_reduction(c)
    if t is None:
        return
    ok, reason = validate_involution(c, t)
    assert ok, reason
    assert oracle_grundy(fixed_point_set(c, t)) == oracle_grundy(c)


@given(st.one_of(small_graphs(), small_complexes()))
@settings(max_examples=60, deadline=None)
def test_one_search_answers_reduction_and_simplest_form(c):
    # the complex, its dense view and the sorted faces of a gapped
    # relabeling are searched alike: each finds the first involution of the
    # search in its own labels, which order-preserving relabeling maps onto
    # the complex's
    verts = c.vertices()
    spread = {v: 2 * v + 1 for v in verts}
    gapped = relabel(c, spread, 2 * c.ground_size + 1)
    want = find_reduction(c)
    for form, label in ((c, {v: v for v in verts}),
                        (dense_view(c), {v: i for i, v in enumerate(verts)}),
                        (tuple(sorted(gapped.faces)), spread)):
        found = find_reduction(form)
        assert found == next(_valid_involutions(form), None)
        assert is_simplest_form(form) == (found is None)
        if want is None:
            assert found is None
        else:
            assert found == Involution(
                tuple((label[a], label[b]) for a, b in want.pairs),
                tuple(label[v] for v in want.fixed))
    if want is not None:  # a reduction step is that involution's fixed set
        assert reduce_to_simplest(c, 1)[0].faces == \
            fixed_point_set(c, want).faces


@st.composite
def graphs_with_bare_endpoints(draw):
    """A small graph with some of its vertex singletons removed, so that
    some edges have endpoints that are not faces."""
    c = draw(small_graphs())
    bare = draw(st.sets(st.sampled_from(c.vertices())))
    faces = frozenset(f for f in c.faces if f not in {1 << v for v in bare})
    return SimplicialComplex(c.ground_size, faces or frozenset([1]))


def _involutions(verts):
    """Every involution of verts, as a mapping, the identity included."""
    if not verts:
        yield {}
        return
    v, rest = verts[0], verts[1:]
    for m in _involutions(rest):
        yield {v: v, **m}
    for i, w in enumerate(rest):
        for m in _involutions(rest[:i] + rest[i + 1:]):
            yield {v: w, w: v, **m}


def _search_order(m):
    """The place of involution m in _valid_involutions order: over the
    ascending vertices that are not a pair's upper member, the partner,
    with being fixed last."""
    return [m[v] if m[v] != v else float("inf") for v in sorted(m) if m[v] >= v]


@given(st.one_of(small_graphs(), graphs_with_bare_endpoints(),
                 small_complexes()))
@settings(max_examples=150, deadline=None)
def test_graph_search_reaches_only_valid_involutions(c):
    # a graph's leaves are yielded without validation; on graphs and
    # complexes, and on a gapped relabeling of each, the search yields
    # exactly the valid non-identity involutions, in the documented order
    gapped = relabel(c, {v: 2 * v + 1 for v in c.vertices()},
                     2 * c.ground_size + 1)
    for d in (c, gapped):
        found = list(_valid_involutions(d))
        for t in found:
            assert validate_involution(d, t) == (True, None), t
        want = sorted((m for m in _involutions(list(d.vertices()))
                       if any(v != w for v, w in m.items())
                       and validate_involution(d, m)[0]), key=_search_order)
        assert found == [Involution.from_mapping(m) for m in want]


# find_reduction on symmetric positions (tests/test_canon.py builds them),
# as (pairs, fixed); path40 and strip20 are above the 16-vertex bound
PINNED_FIRST_INVOLUTIONS = {
    "torus": (((0, 5), (1, 3), (2, 4)), (6, 7, 8)),
    "wheel6": (((0, 2), (3, 5)), (1, 4, 6)),
    "wheel8": (((0, 2), (3, 7), (4, 6)), (1, 5, 8)),
    "petersen": (((0, 2), (3, 5), (4, 7)), (1, 6, 8, 9)),
    "q4": (((0, 3), (1, 2), (4, 7), (5, 6), (8, 11), (9, 10), (12, 15),
            (13, 14)), ()),
    "rook4x4": (((0, 5), (1, 4), (2, 7), (3, 6), (8, 13), (9, 12), (10, 15),
                 (11, 14)), ()),
    "k8_8": (((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13),
              (14, 15)), ()),
    "octahedron": (((0, 1), (2, 3), (4, 5)), ()),
    "path40": None,
    "strip20": None,
}


def test_first_involutions_are_pinned():
    positions = _symmetric_graphs()
    for name, want in PINNED_FIRST_INVOLUTIONS.items():
        t = find_reduction(positions[name])
        assert (None if t is None else (t.pairs, t.fixed)) == want, name


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
