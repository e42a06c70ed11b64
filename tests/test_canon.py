import pytest
from hypothesis import given, settings

from graphchomp.canon import (
    CanonicalizationBoundError,
    canonical_key,
    isomorphic,
    labeled_key,
    position_key,
    refinement_colors,
)
from graphchomp.complexes import close_down, mask_of, relabel
from graphchomp.families import complete, cycle, path, erdos_renyi

from conftest import permutations_of, small_complexes, small_graphs
from hypothesis import strategies as st


@given(small_complexes().flatmap(
    lambda c: st.tuples(st.just(c), permutations_of(c))))
@settings(max_examples=60)
def test_relabel_invariance(pair):
    c, mapping = pair
    h = relabel(c, mapping, c.ground_size)
    assert canonical_key(c).digest == canonical_key(h).digest
    assert canonical_key(c).faces == canonical_key(h).faces


def test_nonisomorphic_distinct():
    assert not isomorphic(path(4), cycle(4))
    assert not isomorphic(complete(4), cycle(4))
    assert not isomorphic(path(3), complete(3))


def test_isomorphic_positive():
    a = close_down([mask_of([0, 1]), mask_of([1, 2])], 3)
    b = close_down([mask_of([0, 2]), mask_of([2, 1])], 3)
    assert isomorphic(a, b)


def test_refinement_colors_respect_degree():
    # center of a star gets its own color class
    star = close_down([mask_of([0, i]) for i in (1, 2, 3)], 4)
    colors = refinement_colors(star)
    assert colors[1] == colors[2] == colors[3]
    assert colors[0] != colors[1]


@given(st.one_of(small_graphs(), small_complexes()).flatmap(
    lambda c: st.tuples(st.just(c), permutations_of(c))))
@settings(max_examples=80)
def test_refinement_colors_relabel_invariant(pair):
    # small_graphs() takes the graph signature, small_complexes() mostly
    # the face signature; both must give relabeled vertices equal colors
    c, mapping = pair
    colors = refinement_colors(c)
    relabeled = refinement_colors(relabel(c, mapping, c.ground_size))
    assert {mapping[v]: col for v, col in colors.items()} == relabeled


def test_complete_graph_canonicalizes_fast():
    # interchangeable-cell pruning must keep fully symmetric inputs cheap
    key = canonical_key(complete(10))
    assert key.exact


def test_bound_error_and_fallback():
    big = path(20)
    with pytest.raises(CanonicalizationBoundError):
        canonical_key(big)
    key = position_key(big)
    assert not key.exact
    assert key.digest == labeled_key(big).digest


def test_bound_error_is_not_cached():
    for _ in range(2):
        with pytest.raises(CanonicalizationBoundError):
            canonical_key(path(17))


def test_canonical_faces_are_a_valid_relabeling():
    c = erdos_renyi(6, 0.5, 7)
    key = canonical_key(c)
    assert len(key.faces) == len(c.faces)
    relabeled = close_down(
        [f for f in key.faces], max(f.bit_length() for f in key.faces))
    assert isomorphic(c, relabeled)


def test_empty_complex_key():
    c = close_down([], 0)
    assert canonical_key(c).faces == ()
