import hashlib
import random

import pytest
from hypothesis import given, settings

from graphchomp import canon, engine
from graphchomp.canon import (
    CanonicalizationBoundError,
    canonical_key,
    canonical_order,
    dense_view,
    isomorphic,
    labeled_key,
    position_key,
    refinement_colors,
)
from graphchomp.complexes import (
    SimplicialComplex,
    close_down,
    components,
    mask_of,
    relabel,
    squeeze,
    vertices_of,
)
from graphchomp.engine import TranspositionTable, grundy
from graphchomp.families import (
    complete,
    complete_npartite,
    cycle,
    erdos_renyi,
    full_simplex,
    gmk,
    graph_complex,
    path,
    random_complex,
    torus_3x3,
    wheel,
)

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


def _key_corpus():
    """Seeded positions of the pinned digest below, each also relabeled
    into a wider ground set, once in label order and once shuffled."""
    rng = random.Random(20260707)
    base = [erdos_renyi(n, p, seed) for n in range(1, 11)
            for p in (0.3, 0.6) for seed in (1, 2)]
    base += [random_complex(n, seed) for n in range(3, 8) for seed in (1, 2, 3)]
    base += [torus_3x3(), path(20)] + [wheel(n) for n in range(3, 10)]
    out = list(base)
    for shuffle in (False, True):
        for c in base:
            verts = c.vertices()
            targets = sorted(rng.sample(range(2 * len(verts) + 3), len(verts)))
            if shuffle:
                rng.shuffle(targets)
            out.append(relabel(c, dict(zip(verts, targets)),
                               2 * len(verts) + 3))
    return out


PINNED_KEYS = "0883fafb60286ee4d9acbb4e769b173b634de876bf887337a49213b2bae93a8f"


def test_position_key_digests_are_pinned():
    # table files store these digests, so they must not move
    h = hashlib.sha256()
    for c in _key_corpus():
        key = position_key(c)
        h.update(key.digest + ",".join(map(str, key.faces)).encode() + b";")
    assert h.hexdigest() == PINNED_KEYS


# The tuple-signature refinement and canonical search that the cell-based
# ones replaced, kept as the reference whose colour ranks they must keep.
def _reference_refiner(n, fmembers):
    if all(len(mem) <= 2 for mem in fmembers):
        nbrs = [[] for _ in range(n)]
        present = [False] * n
        for mem in fmembers:
            if len(mem) == 1:
                present[mem[0]] = True
            else:
                a, b = mem
                nbrs[a].append(b)
                nbrs[b].append(a)

        def signatures(colors):
            return [
                (colors[v], present[v], *sorted(colors[u] for u in nbrs[v]))
                for v in range(n)
            ]
    else:
        fincident = [[] for _ in range(n)]
        for fi, mem in enumerate(fmembers):
            for u in mem:
                fincident[u].append(fi)

        def signatures(colors):
            fkeys = [
                (len(mem), *sorted(colors[u] for u in mem)) for mem in fmembers
            ]
            frank = {k: i for i, k in enumerate(sorted(set(fkeys)))}
            fk = [frank[k] for k in fkeys]
            return [
                (colors[v], *sorted(fk[fi] for fi in fincident[v]))
                for v in range(n)
            ]

    def refine(colors):
        n_colors = len(set(colors))
        while True:
            sigs = signatures(colors)
            ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
            colors = [ranking[s] for s in sigs]
            if len(ranking) == n_colors:
                return colors
            n_colors = len(ranking)

    return refine


def _reference_colors(c):
    vmask = c.vertex_mask
    verts = vertices_of(vmask)
    fmembers = [vertices_of(f) for f in squeeze(c.faces, vmask)]
    colors = _reference_refiner(len(verts), fmembers)([0] * len(verts))
    return dict(zip(verts, colors))


def _reference_order(c):
    vmask = c.vertex_mask
    n = vmask.bit_count()
    faces = sorted(squeeze(c.faces, vmask))
    faces_set = frozenset(faces)
    fmembers = [vertices_of(f) for f in faces]
    refine = _reference_refiner(n, fmembers)

    best = None

    def encode(order):
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        out = []
        for mem in fmembers:
            m = 0
            for u in mem:
                m |= 1 << pos[u]
            out.append(m)
        out.sort()
        return tuple(out)

    def interchangeable(cell) -> bool:
        for i, u in enumerate(cell):
            bu = 1 << u
            for w in cell[i + 1:]:
                bw = 1 << w
                for f in faces:
                    if bool(f & bu) != bool(f & bw):
                        if f ^ bu ^ bw not in faces_set:
                            return False
        return True

    def descend(colors):
        nonlocal best
        cells = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = None
        for col in sorted(cells):
            if len(cells[col]) > 1:
                target = cells[col]
                break
        if target is None:
            enc = encode(sorted(range(n), key=colors.__getitem__))
            if best is None or enc < best:
                best = enc
            return
        choices = target[:1] if interchangeable(target) else target
        for v in choices:
            branched = [(colors[u], 0 if u == v else 1) for u in range(n)]
            ranking = {s: i for i, s in enumerate(sorted(set(branched)))}
            descend(refine([ranking[s] for s in branched]))

    descend(refine([0] * n))
    return best


def _assert_matches_reference(c):
    # refined first, then read off the key position_key leaves in view_keys
    # (when c is connected and within the bound)
    want = _reference_colors(c)
    canon.view_keys.pop(dense_view(c), None)
    assert refinement_colors(c) == want
    if c.faces:
        assert canonical_order(c) == _reference_order(c)
        position_key(c)
        assert refinement_colors(c) == want


def _union(a, b):
    shift = a.ground_size
    return close_down(list(a.faces) + [f << shift for f in b.faces],
                      shift + b.ground_size)


def _symmetric_graphs():
    petersen = graph_complex(10, [(i, (i + 1) % 5) for i in range(5)]
                             + [(i, i + 5) for i in range(5)]
                             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    q3, q4 = (graph_complex(1 << d, [(a, a | 1 << b) for a in range(1 << d)
                                     for b in range(d) if not a >> b & 1])
              for d in (3, 4))
    rook = graph_complex(16, [
        (a, b) for a in range(16) for b in range(a + 1, 16)
        if a // 4 == b // 4 or a % 4 == b % 4])
    shifts = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    shrikhande = graph_complex(16, [
        (a, b) for a in range(16) for b in range(a + 1, 16)
        if ((a // 4 - b // 4) % 4, (a % 4 - b % 4) % 4) in shifts])
    # edges whose endpoints are not faces, so presence splits the cells
    absent = SimplicialComplex(6, frozenset(
        [0b11, 0b110, 0b1100, 0b11000, 0b110000, 0b100001, 0b1, 0b1000]))
    boundary = [close_down([(1 << n) - 1 ^ 1 << i for i in range(n)], n)
                for n in (4, 5, 6)]
    octahedron = close_down([mask_of([a, b, c]) for a in (0, 1)
                             for b in (2, 3) for c in (4, 5)], 6)
    strip = close_down([mask_of([i, i + 1, i + 2]) for i in range(18)], 20)
    return {
        "cycle16": cycle(16), "petersen": petersen, "q4": q4, "rook4x4": rook,
        "shrikhande": shrikhande, "k8_8": complete_npartite([8, 8]),
        "torus": torus_3x3(), "k10": complete(10),
        "q3x2": _union(q3, q3),
        "cycle7x2": _union(cycle(7), cycle(7)), "absent": absent,
        **{f"wheel{n}": wheel(n) for n in range(3, 16)},
        # above the 16-vertex bound, where refinement_colors finds no view
        # entry; the gmk graph keeps gaps between its labels
        "path40": path(40),
        "gmk10_6_3": relabel(gmk(10, 6, 3),
                             {v: 3 * v + 1 for v in range(20)}, 61),
        # complexes: a face of 3 or more vertices refines on face classes
        "full_simplex6": full_simplex(6),
        "simplex_boundary5": boundary[1], "simplex_boundary6": boundary[2],
        "octahedron": octahedron, "tetrahedra2": _union(*boundary[:1] * 2),
        "strip20": relabel(strip, {v: 2 * v + 1 for v in range(20)}, 41),
    }


@pytest.mark.parametrize("name", list(_symmetric_graphs()))
def test_refinement_matches_reference_on_symmetric_graphs(name):
    c = _symmetric_graphs()[name]
    _assert_matches_reference(c)
    rng = random.Random(name)
    verts = list(c.vertices())
    targets = rng.sample(range(len(verts) + 4), len(verts))
    _assert_matches_reference(
        relabel(c, dict(zip(verts, targets)), len(verts) + 4))


def test_graph_views_never_reach_the_complex_refiner(monkeypatch):
    # a graph refines and searches on its neighbour rows; only a face of 3
    # or more vertices takes the complex refinement on face classes
    def refuse(view, n):
        raise AssertionError("complex refiner")

    monkeypatch.setattr(canon, "_face_stable", refuse)
    for c in (erdos_renyi(8, 0.5, 4), wheel(7), path(40),
              _symmetric_graphs()["absent"]):
        view = dense_view(c)
        canon.view_keys.pop(view, None)
        canonical_order(view)
        refinement_colors(view)
    view = dense_view(random_complex(6, 1))
    canon.view_keys.pop(view, None)
    assert max(map(int.bit_count, view)) >= 3
    with pytest.raises(AssertionError, match="complex refiner"):
        canonical_order(view)
    with pytest.raises(AssertionError, match="complex refiner"):
        refinement_colors(view)


def test_refinement_matches_reference_on_random_complexes():
    for n in range(3, 10):
        for seed in range(12):
            for max_facet in (3, 4):
                _assert_matches_reference(
                    random_complex(n, seed, facet_count=2 + seed % 5,
                                   max_facet=max_facet))


@given(st.one_of(small_graphs(max_vertices=8), small_complexes()).flatmap(
    lambda c: st.tuples(st.just(c), permutations_of(c))))
@settings(max_examples=150)
def test_refinement_matches_reference(pair):
    # cell-based rounds keep the colour ranks of the tuple signatures, so
    # canonical faces (and the pinned digests) and involution order hold
    c, mapping = pair
    _assert_matches_reference(c)
    _assert_matches_reference(relabel(c, mapping, c.ground_size))


@given(st.one_of(small_graphs(max_vertices=8), small_complexes()).flatmap(
    lambda c: st.tuples(st.just(c), permutations_of(c))))
@settings(max_examples=150)
def test_views_key_like_their_complexes(pair):
    # a dense view orders and keys as its complex does, its labelling
    # relabels the view onto the canonical faces, and the stable cells its
    # search starts from, read in canonical labels, give the reference
    # colouring in the view's labels; the view entry holds (key,
    # labelling), and the key the colouring in canonical labels
    c, mapping = pair
    c = relabel(c, mapping, c.ground_size + 2)
    view = dense_view(c)
    n = len(c.vertices())
    perm = bytearray(n)
    stable = []
    canon_faces = canonical_order(view, perm, stable)
    assert canon_faces == canonical_order(c)
    canon_colors = canon._stable_colors(stable, n)
    colors = [canon_colors[perm[v]] for v in range(n)]
    assert colors == list(_reference_colors(c).values())
    assert sorted(perm) == list(range(n))
    assert tuple(sorted(sum(1 << perm[v] for v in vertices_of(f))
                        for f in view)) == canon_faces
    if len(components(c)) == 1:
        key = position_key(view)
        assert key == position_key(c)
        assert canon.view_keys[view][0] is key
        labelling = canon.view_keys[view][1]
        assert type(labelling) is bytes and sorted(labelling) == \
            list(range(n))
        assert [key.colors[labelling[v]] for v in range(n)] == colors


def test_relabelings_share_one_class_key():
    # two relabelings of one connected graph have two view entries that
    # hold the same key object, each with the colouring of its own view
    c = erdos_renyi(8, 0.5, 4)
    assert len(components(c)) == 1
    other = relabel(c, dict(zip(range(8), [3, 0, 6, 1, 7, 2, 5, 4])), 8)
    views = [dense_view(c), dense_view(other)]
    assert views[0] != views[1]
    for view in views:
        canon.view_keys.pop(view, None)
    keys = [position_key(view) for view in views]
    assert keys[0] is keys[1]
    for view, d in zip(views, (c, other)):
        key, perm = canon.view_keys[view]
        assert key is keys[0]
        assert [key.colors[p] for p in perm] == \
            list(_reference_colors(d).values())
    assert canon.class_keys[keys[0].faces] is keys[0]


def test_one_digest_per_canonical_class(monkeypatch):
    # a seeded loop of solves computes one sha256 per canonical class it
    # meets, though it keys many more views
    encoded = []
    original = canon._encode

    def counted(faces, exact):
        encoded.append(faces)
        return original(faces, exact)

    monkeypatch.setattr(canon, "_encode", counted)
    canon.view_keys.clear()
    canon.class_keys.clear()
    engine.class_moves.clear()
    for seed in range(6):
        grundy(erdos_renyi(7, 0.5, seed), table=TranspositionTable())
    classes = set(canon.class_keys)
    assert {key.faces for key, _ in canon.view_keys.values()} <= classes
    assert len(encoded) == len(set(encoded)) == len(classes)
    assert len(classes) < len(canon.view_keys)
