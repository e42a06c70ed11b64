import random
from collections import Counter
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from graphchomp import complexes
from graphchomp.canon import canonical_key, dense_view
from graphchomp.closed_forms import (
    PseudotreeShape,
    npartite_parts,
    pseudotree_classify,
)
from graphchomp.complexes import (
    IllegalMoveError,
    InvalidInputError,
    SimplicialComplex,
    close_down,
    components,
    dense_complex,
    dumps_cplx,
    dumps_edges,
    face_size,
    graph_stats,
    is_graph,
    load_complex,
    loads_complex,
    mask_of,
    moves,
    relabel,
    remove_face,
    save_complex,
    squeeze,
    vertices_of,
)
from graphchomp.families import (
    complete_npartite,
    cycle,
    erdos_renyi,
    forest_pseudotree,
    gmk,
    hairball,
    path,
    random_pseudotree,
    rooted_trees,
    wheel,
)
from graphchomp.symmetry import _first_involution

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


@st.composite
def spread_complexes(draw):
    """small_complexes() moved, in label order, onto vertices spread over
    a ground set of up to 64."""
    c = draw(small_complexes())
    width = draw(st.integers(c.ground_size, 64))
    targets = draw(st.lists(st.integers(0, width - 1), min_size=c.ground_size,
                            max_size=c.ground_size, unique=True))
    return relabel(c, dict(zip(range(c.ground_size), sorted(targets))), width)


@given(spread_complexes())
def test_squeeze_is_the_order_preserving_relabeling(c):
    # reference: the dict relabeling onto 0..n-1 in label order
    mapping = {v: i for i, v in enumerate(sorted(c.vertices()))}
    want = relabel(c, mapping, len(mapping))
    assert sorted(squeeze(c.faces, c.vertex_mask)) == sorted(want.faces)
    assert dense_complex(c.faces, c.vertex_mask) == want


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
    assert not st_.bipartite  # odd cycle is not 2-colorable


def test_graph_stats_bipartite():
    c = close_down([mask_of([0, 1]), mask_of([1, 2])], 3)
    st_ = graph_stats(c)
    assert st_.bipartite


def test_graph_stats_rejects_a_non_graph():
    with pytest.raises(InvalidInputError):
        graph_stats(close_down([mask_of([0, 1, 2])], 3))


# Reference classifiers on a dict-of-sets adjacency, each with its own
# walk: the counts, the 2-colouring, npartite_parts and pseudotree_classify
# that graph_stats derives from neighbour rows.


def _reference_adjacency(c: SimplicialComplex) -> dict[int, set[int]]:
    """Vertex adjacency from the 2-faces.  Requires a graph."""
    adj: dict[int, set[int]] = {v: set() for v in c.vertices()}
    for f in c.faces:
        if face_size(f) == 2:
            a, b = vertices_of(f)
            adj[a].add(b)
            adj[b].add(a)
    return adj


def _reference_stats(c: SimplicialComplex) -> tuple:
    """(v, e, degrees, bipartite, cycle_count, component_count) of a graph,
    by a depth-first 2-colouring of each component."""
    adj = _reference_adjacency(c)
    color: dict[int, int] = {}
    bipartite = True
    comps = 0
    for start in sorted(adj):
        if start in color:
            continue
        comps += 1
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = color[u] ^ 1
                    stack.append(w)
                elif color[w] == color[u]:
                    bipartite = False
    v = len(adj)
    e = sum(len(ns) for ns in adj.values()) // 2
    degrees = {u: len(ns) for u, ns in adj.items()}
    return v, e, degrees, bipartite, e - v + comps, comps


def _reference_npartite_parts(c: SimplicialComplex) -> Optional[list[int]]:
    if not is_graph(c) or not c.faces:
        return None
    adj = _reference_adjacency(c)
    verts = frozenset(adj)
    groups = Counter(verts - ns for ns in adj.values())
    # a vertex lies in its own key, so a group is a subset of its key
    if any(len(key) != size for key, size in groups.items()):
        return None
    return sorted(groups.values())


def _reference_path_length(adj: dict[int, set[int]], prev: int,
                           cur: int) -> Optional[int]:
    length = 1
    while True:
        nxt = adj[cur] - {prev}
        if not nxt:
            return length
        if len(nxt) > 1:
            return None
        prev, cur = cur, next(iter(nxt))
        length += 1


def _reference_pseudotree_classify(
        c: SimplicialComplex) -> Optional[PseudotreeShape]:
    if not is_graph(c) or not c.faces:
        return None
    v, e, _, _, _, comps = _reference_stats(c)
    if comps != 1 or e != v or v < 3:
        return None
    adj = _reference_adjacency(c)

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
            lengths = sorted(_reference_path_length(adj, a, w)
                             for w in adj[a] - core_set)
            if lengths:
                tails[a] = tuple(lengths)

    single = branches = None
    heavy = [a for a in cycle if len(adj[a]) > 2]
    if len(heavy) == 1 and len(adj[heavy[0]]) == 3:
        a = heavy[0]
        (b,) = adj[a] - core_set
        single = (a, b)
        if len(adj[b]) == 3:
            lengths = [_reference_path_length(adj, b, w) for w in adj[b] - {a}]
            if None not in lengths:
                branches = tuple(sorted(lengths))

    return PseudotreeShape(
        cycle_vertices=tuple(cycle),
        attachment_degrees={a: len(adj[a]) for a in cycle},
        tail_profile=tails,
        is_hairball=hairball,
        odd_cycle=len(cycle) % 2 == 1,
        v=v,
        single_attachment=single,
        branch_lengths=branches,
    )


_cycle_sizes = st.integers(3, 7)


@st.composite
def _forest_pseudotrees(draw):
    size = draw(_cycle_sizes)
    trees = st.integers(1, 4).flatmap(lambda n: st.sampled_from(rooted_trees(n)))
    forests = draw(st.lists(st.lists(trees, max_size=2), max_size=size))
    return forest_pseudotree(size, forests)


@st.composite
def _relabeled_graphs(draw):
    """gmk(m, k, cycle) scan grid points (m + k <= 14) and hairballs, up to
    63 vertices, moved by a seeded permutation onto a larger ground set, so
    their labels have gaps."""
    c = draw(st.one_of(
        st.integers(0, 14).flatmap(lambda m: st.builds(
            gmk, st.just(m), st.integers(0, 14 - m), st.sampled_from([3, 5, 7]))),
        _cycle_sizes.flatmap(lambda size: st.builds(
            hairball, st.just(size),
            st.lists(st.lists(st.integers(1, 4), max_size=2), max_size=size))),
    ))
    width = draw(st.integers(c.ground_size + 1, 64))
    labels = random.Random(draw(st.integers(0, 2**32))).sample(
        range(width), c.ground_size)
    return relabel(c, dict(enumerate(labels)), width)


_classified_graphs = st.one_of(
    small_graphs(max_vertices=8),
    st.builds(random_pseudotree, _cycle_sizes, st.integers(0, 6),
              st.integers(0, 10**6)),
    _forest_pseudotrees(),
    st.builds(gmk, st.integers(0, 5), st.integers(0, 5),
              st.sampled_from([3, 5, 7])),
    _cycle_sizes.flatmap(lambda size: st.builds(
        hairball, st.just(size),
        st.lists(st.lists(st.integers(1, 3), max_size=2), max_size=size))),
    st.builds(complete_npartite, st.lists(st.integers(1, 3), min_size=1,
                                          max_size=4)),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_classified_graphs, _relabeled_graphs(), small_complexes()))
def test_classifiers_match_the_reference(c):
    # graph_stats derives every field from neighbour rows; the public
    # classifiers read them and must answer as the separate walks did, on
    # the complex and on its sorted face tuple alike
    faces = tuple(sorted(c.faces))
    for form in (c, faces):
        assert npartite_parts(form) == _reference_npartite_parts(c)
        assert pseudotree_classify(form) == _reference_pseudotree_classify(c)
    if is_graph(c):
        stats = graph_stats(c)
        assert (stats.v, stats.e, stats.degrees, stats.bipartite,
                stats.cycle_count, stats.component_count) == _reference_stats(c)
        assert stats.parts == _reference_npartite_parts(c)
        assert stats.shape == _reference_pseudotree_classify(c)
        # the labels of c may have gaps; its dense view is read in the
        # labels of the densely relabeled complex
        assert graph_stats(faces) == stats
        assert graph_stats(dense_view(c)) == \
            graph_stats(dense_complex(c.faces, c.vertex_mask))


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
    for text in ("vertices -1\n", "vertices x\n", "vertices 65\n",
                 "vertices 3\nface 0 -1\n", "vertices 3\nface 0 100\n"):
        with pytest.raises(InvalidInputError, match="not an integer in 0..64"):
            loads_complex(text, "cplx")
    with pytest.raises(InvalidInputError, match="edge 0 y"):
        loads_complex("vertices 3\nedge 0 y\n", "edges")


def test_second_vertices_header_refused():
    with pytest.raises(InvalidInputError):
        loads_complex("vertices 5\nface 0 1\nvertices 3\n")
    with pytest.raises(InvalidInputError):
        loads_complex("vertices 2\nvertices 2\n", "edges")


def test_ground_set_cap():
    with pytest.raises(InvalidInputError):
        close_down([1], 65)


def test_memoized_caches_stay_bounded(monkeypatch):
    cached_fns = (components, canonical_key, _first_involution)
    positions = [path(n) for n in range(2, 8)] + [cycle(n) for n in range(3, 8)]
    positions += [wheel(5), erdos_renyi(6, 0.5, 1)]

    def arg(fn, c):  # _first_involution takes the sorted face tuple
        return tuple(sorted(c.faces)) if fn is _first_involution else c

    expected = {fn: [fn.__wrapped__(arg(fn, c)) for c in positions]
                for fn in cached_fns}
    monkeypatch.setattr(complexes, "CACHE_SIZE", 3)
    for fn in cached_fns:
        fn.cache.clear()
    for _ in range(2):
        for i, c in enumerate(positions):
            for fn in cached_fns:
                assert fn(arg(fn, c)) == expected[fn][i]
                assert len(fn.cache) <= 3
