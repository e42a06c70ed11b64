from functools import partial

import pytest

from graphchomp import families
from graphchomp.complexes import InvalidInputError, face_size, graph_stats
from graphchomp.families import (
    FamilySpec,
    attach_tail,
    complete,
    complete_npartite,
    cycle,
    erdos_renyi,
    figure8,
    generate,
    gmk,
    hairball,
    parse_family,
    path,
    random_bipartite,
    random_complex,
    random_forest,
    random_pseudotree,
    random_tree,
    rooted_trees,
    single_attachment_pseudotree,
    theta,
    torus_3x3,
    tree_shape_size,
    wheel,
)


def _counts(c):
    out = {}
    for f in c.faces:
        out[face_size(f)] = out.get(face_size(f), 0) + 1
    return out


def test_complete_counts():
    assert _counts(complete(5)) == {1: 5, 2: 10}


def test_npartite_counts():
    c = complete_npartite([2, 3])
    assert _counts(c) == {1: 5, 2: 6}
    st = graph_stats(c)
    assert st.bipartite


def test_path_cycle_wheel():
    assert _counts(path(4)) == {1: 4, 2: 3}
    assert _counts(cycle(5)) == {1: 5, 2: 5}
    assert _counts(wheel(5)) == {1: 6, 2: 10}
    st = graph_stats(wheel(5))
    assert st.degrees[5] == 5  # hub


def test_gmk_structure():
    c = gmk(2, 3)
    st = graph_stats(c)
    assert st.v == 3 + 1 + 2 + 3
    assert st.cycle_count == 1
    assert st.degrees[3] == 3  # branch vertex carries both tails


def test_hairball_and_figure8_and_theta():
    assert graph_stats(hairball(5, [[1], [2]])).v == 8
    f8 = graph_stats(figure8(3, 4))
    assert f8.v == 6 and f8.cycle_count == 2
    th = graph_stats(theta(2, 2, 2))
    assert th.v == 8  # two hubs + three paths of two internal vertices
    assert sorted(d for d in th.degrees.values() if d == 3) == [3, 3]


def test_torus_face_counts():
    t = torus_3x3()
    assert _counts(t) == {1: 9, 2: 27, 3: 18}


def test_random_families_deterministic():
    assert erdos_renyi(7, 0.5, 9).faces == erdos_renyi(7, 0.5, 9).faces
    assert random_tree(6, 3).faces == random_tree(6, 3).faces
    assert random_complex(5, 2).faces == random_complex(5, 2).faces
    assert random_bipartite(6, 0.5, 4).faces == random_bipartite(6, 0.5, 4).faces
    assert erdos_renyi(7, 0.5, 9).faces != erdos_renyi(7, 0.5, 10).faces


def test_random_tree_is_tree():
    for seed in range(10):
        st = graph_stats(random_tree(7, seed))
        assert st.component_count == 1 and st.cycle_count == 0


def test_random_forest_is_forest():
    for seed in range(10):
        st = graph_stats(random_forest(8, seed))
        assert st.cycle_count == 0


def test_random_pseudotree_has_one_cycle():
    for seed in range(10):
        st = graph_stats(random_pseudotree(5, 3, seed))
        assert st.cycle_count == 1 and st.component_count == 1


def test_attach_tail():
    c = attach_tail(cycle(3), 0, 2)
    st = graph_stats(c)
    assert st.v == 5 and st.degrees[0] == 3
    assert attach_tail(cycle(3), 0, 0).faces == cycle(3).faces


def test_rooted_trees_counts():
    # numbers of rooted trees on n nodes: 1, 1, 2, 4, 9, 20
    assert [len(rooted_trees(n)) for n in range(1, 7)] == [1, 1, 2, 4, 9, 20]


def test_tree_shape_size():
    for n in range(1, 6):
        assert all(tree_shape_size(s) == n for s in rooted_trees(n))


def test_single_attachment_pseudotree():
    # tree shape rooted at a new vertex hung off one cycle vertex
    c = single_attachment_pseudotree(3, ((), ()))
    st = graph_stats(c)
    assert st.v == 6 and st.cycle_count == 1
    assert st.degrees[0] == 3  # the unique high-degree cycle vertex


def test_parse_family_positional_and_named():
    assert generate(parse_family("complete:4")).faces == complete(4).faces
    spec = parse_family("gmk:m=2,k=5,cycle=3")
    assert spec.family == "gmk"
    assert generate(spec).faces == gmk(2, 5, 3).faces
    assert generate(parse_family("npartite:5,3,2")).faces == \
        complete_npartite([5, 3, 2]).faces
    assert generate(parse_family("torus_3x3")).faces == torus_3x3().faces


def test_parse_family_errors():
    with pytest.raises(InvalidInputError):
        generate(parse_family("nosuchfamily:3"))
    with pytest.raises(InvalidInputError):
        generate(parse_family("complete:not_a_number"))


def test_family_spec_canonical_string_roundtrip():
    spec = parse_family("gmk:m=2,k=5")
    assert parse_family(spec.canonical_string()) == spec


@pytest.mark.parametrize("build", [
    lambda: complete(65), lambda: complete_npartite([30, 35]),
    lambda: path(65), lambda: cycle(65), lambda: wheel(64),
    lambda: gmk(30, 31), lambda: hairball(3, [[31, 31]]),
    lambda: figure8(33, 33), lambda: theta(21, 21, 21),
    lambda: random_tree(65, 0), lambda: random_forest(65, 0),
    lambda: random_pseudotree(3, 62, 0), lambda: erdos_renyi(65, 0.5, 0),
    lambda: random_bipartite(65, 0.5, 0), lambda: random_complex(65, 0),
    partial(attach_tail, path(3), 0, 62),  # the base is built beforehand
])
def test_sizes_above_the_ground_cap_are_refused_before_any_face(
        build, monkeypatch):
    # more than 64 vertices is refused up front, before an edge mask
    # (or a tail's first edge) is made
    def no_mask(a, b):
        raise AssertionError("edge mask made before the size check")

    monkeypatch.setattr(families, "_edge", no_mask)
    with pytest.raises(InvalidInputError, match="65 vertices exceed"):
        build()


def test_attach_point_outside_the_ground_set_refused():
    for vertex in (-1, 3, 10**12):
        with pytest.raises(InvalidInputError, match="attach point"):
            attach_tail(path(3), vertex, 1)
