import pytest
from hypothesis import given, strategies as st

from graphchomp import complexes
from graphchomp.canon import canonical_key
from graphchomp.complexes import (
    IllegalMoveError,
    InvalidInputError,
    SimplicialComplex,
    close_down,
    components,
    dumps_cplx,
    dumps_edges,
    face_size,
    graph_stats,
    is_graph,
    load_complex,
    loads_complex,
    mask_of,
    moves,
    remove_face,
    save_complex,
    vertices_of,
)
from graphchomp.families import cycle, erdos_renyi, path, wheel
from graphchomp.symmetry import find_reduction

from conftest import small_complexes, small_graphs


def test_mask_helpers_roundtrip():
    assert vertices_of(mask_of([0, 3, 5])) == (0, 3, 5)
    assert face_size(mask_of([1, 2, 4])) == 3


def test_close_down_contains_all_subsets():
    c = close_down([mask_of([0, 1, 2])], 3)
    assert len(c.faces) == 7  # all nonempty subsets of a triangle face


@given(small_complexes())
def test_closure_invariant(c):
    # every proper nonempty submask of a face is a face
    for f in c.faces:
        s = (f - 1) & f
        while s:
            assert s in c.faces
            s = (s - 1) & f


@given(small_complexes())
def test_remove_face_removes_supersets_only(c):
    for s in list(c.faces)[:5]:
        child = remove_face(c, s)
        assert all(f & s != s for f in child.faces)
        assert child.faces == frozenset(f for f in c.faces if f & s != s)


def test_remove_nonface_raises():
    c = close_down([mask_of([0, 1])], 2)
    with pytest.raises(IllegalMoveError):
        remove_face(c, mask_of([0, 1, 2]))


def test_moves_sorted_by_dimension_then_mask():
    c = close_down([mask_of([0, 1]), mask_of([1, 2])], 3)
    ms = moves(c)
    keys = [(face_size(m), m) for m in ms]
    assert keys == sorted(keys)
    assert set(ms) == set(c.faces)


def test_components_split_and_relabel():
    c = close_down([mask_of([0, 1]), mask_of([3, 4])], 5)
    parts = components(c)
    assert len(parts) == 2
    # densely relabeled: each part is an edge on vertices {0,1}
    for p in parts:
        assert p.ground_size == 2
        assert p.faces == close_down([mask_of([0, 1])], 2).faces


def test_components_connected_passthrough():
    c = close_down([mask_of([0, 1]), mask_of([1, 2])], 3)
    assert components(c) == [c]


@given(small_complexes())
def test_components_preserve_faces(c):
    parts = components(c)
    assert sum(len(p.faces) for p in parts) == len(c.faces)


def test_graph_stats_cycle_plus_tail():
    edges = [(0, 1), (1, 2), (2, 0), (0, 3)]
    facets = [mask_of(e) for e in edges] + [1 << v for v in range(4)]
    c = close_down(facets, 4)
    st_ = graph_stats(c)
    assert (st_.v, st_.e) == (4, 4)
    assert st_.cycle_count == 1
    assert st_.component_count == 1
    assert st_.bipartition is None  # odd cycle is not 2-colorable


def test_graph_stats_bipartite():
    c = close_down([mask_of([0, 1]), mask_of([1, 2])], 3)
    st_ = graph_stats(c)
    assert st_.bipartition is not None


def test_is_graph():
    assert is_graph(close_down([mask_of([0, 1])], 2))
    assert not is_graph(close_down([mask_of([0, 1, 2])], 3))


def test_io_roundtrip(tmp_path):
    c = close_down([mask_of([0, 1, 2]), mask_of([2, 3])], 4)
    p = tmp_path / "x.cplx"
    save_complex(c, str(p))
    assert load_complex(str(p)).faces == c.faces


def test_edges_format_roundtrip():
    c = close_down([mask_of([0, 1]), mask_of([1, 2]), 1 << 3], 4)
    text = dumps_edges(c)
    back = loads_complex(text, "edges")
    assert back.faces == c.faces


def test_edges_format_rejects_triangles():
    c = close_down([mask_of([0, 1, 2])], 3)
    with pytest.raises(InvalidInputError):
        dumps_edges(c)


def test_cplx_rejects_unrecognized_lines():
    with pytest.raises(InvalidInputError):
        loads_complex("vertices 3\n0 1\n", "cplx")
    with pytest.raises(InvalidInputError):
        loads_complex("face 0 1\n", "cplx")  # missing header


def test_ground_set_cap():
    with pytest.raises(InvalidInputError):
        close_down([1], 65)


def test_memoized_caches_stay_bounded(monkeypatch):
    cached_fns = (components, graph_stats, canonical_key, find_reduction)
    positions = [path(n) for n in range(2, 8)] + [cycle(n) for n in range(3, 8)]
    positions += [wheel(5), erdos_renyi(6, 0.5, 1)]
    expected = {fn: [fn.__wrapped__(c) for c in positions] for fn in cached_fns}
    monkeypatch.setattr(complexes, "CACHE_SIZE", 3)
    for fn in cached_fns:
        fn.cache.clear()
    for _ in range(2):
        for i, c in enumerate(positions):
            for fn in cached_fns:
                assert fn(c) == expected[fn][i]
                assert len(fn.cache) <= 3
