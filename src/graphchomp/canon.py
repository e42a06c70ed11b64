"""Isomorphism-invariant canonical keys for small complexes.

A colouring is an ordered list of cells, vertex masks, and a vertex's
colour is the index of its cell.  The stable colouring (`stable_cells`)
and the canonical search (`canonical_order`) share one colour refinement
for graphs and complexes.  Each synchronous round splits every cell by the
signature (colour, presence, sorted neighbour colours) for a graph, or
(colour, sorted incident face ranks) for a complex, and orders the parts by
it, so colour ranks, canonical faces and their digests are those of these
signatures.  A face's rank orders its key (size, sorted member colours).

No round builds a signature.  After the first, two vertices of one cell
differ only in their counts in what the round before split off, and their
signatures order as those counts do, reversed; a round (`_round`) splits
each cell by the bit planes of the counts, highest first.  Graphs and
complexes differ only in where the counts come from (`_rounds`).  A graph,
a view whose faces have at most 2 vertices, counts neighbours in the cells
split off, on neighbour rows that one pass over the view builds
(`_view_rows`).  A complex counts incident faces in the face classes split
off, a face class being the faces of one key, as a mask over face indices;
the classes split by the same rounds, on each vertex's incident faces.  The
first round from the uniform colouring ranks a graph's vertices by
(presence, degree) and a complex's by their sorted incident face sizes,
compared as tuples.

The canonical search (`_search`) individualizes each vertex of the first
non-singleton cell in turn (the cell becomes [v], rest), refines on from
the stable colouring's classes, and keeps the lexicographically minimal
relabeled face list over the leaves, the discrete colourings.  A leaf is
pb[a] | pb[b] over the edges (a, b), pb[v] over the singleton faces and
the OR of pb over the members of a larger face, with pb[v] the bit of v's
position in the leaf.  The first minimal leaf is also the canonical
labelling: perm[v], the position of view vertex v in it, relabels the
view onto the canonical faces.  Cells whose members are pairwise
interchangeable (every transposition inside the cell is an automorphism)
branch on a single representative, which keeps cliques and co-cliques
cheap.

Keys are computed on dense views: a connected position's faces relabeled
onto 0..n-1 in label order and sorted.  `view_keys` maps a view to the
pair (class key, perm).  The class key is the one `CanonicalKey` of the
view's canonical class, interned in `class_keys` by its canonical faces,
so many views share one key and its digest is computed once per class.
The stable colouring is a class invariant, so the key holds it once, in
canonical labels: view vertex v has colour key.colors[perm[v]].  Rounds
and individualization split cells in place, so every leaf keeps the
stable cells in order, and the canonical labels of stable cell i are the
i-th run; key.colors is read off the cell sizes (`_stable_colors`).
`stable_cells` answers from there (`refinement_colors` is its dict), so
the involution search of a position keyed before runs no refinement of
its own and no caller hands a colouring on.  The engine reaches a class's
sub-positions under new labels in every solve; it records them in the
class's canonical labels (see engine.class_moves) and registers the views
it keys from that record here with their labellings.  A disjoint union is
keyed from its parts' keys (`union_key`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Optional

from .complexes import (
    SimplicialComplex,
    bounded_store,
    components,
    memoize,
    squeeze,
    vertices_of,
)

DEFAULT_CANON_BOUND = 16


class CanonicalizationBoundError(RuntimeError):
    """Raised when a complex is too large for exact canonicalization."""


@dataclass(frozen=True)
class CanonicalKey:
    """A table key: the digest of the canonical (or labeled) faces.  The
    key of a connected position is shared by every view of its class and
    holds the class's stable colouring in canonical labels: canonical
    vertex l has colour colors[l] (empty for a union or a labeled key)."""
    digest: bytes
    faces: tuple[int, ...]
    exact: bool = True
    colors: bytes = field(default=b"", compare=False, repr=False)


def _encode(faces: tuple[int, ...], exact: bool) -> bytes:
    tag = b"canon:" if exact else b"label:"
    body = ("%x," * len(faces) % faces)[:-1].encode()  # hex, comma-separated
    return hashlib.sha256(tag + body).digest()


def labeled_key(c: SimplicialComplex) -> CanonicalKey:
    """Relabel-sensitive fallback key (sound for memoization, less sharing)."""
    faces = tuple(sorted(c.faces))
    return CanonicalKey(_encode(faces, exact=False), faces, exact=False)


def _view_rows(view: tuple[int, ...], n: int):
    """One pass over a dense view: (rows, present, edges, singles, larger),
    the neighbour bitmask of each vertex, the mask of the vertices that are
    faces, the edges as (a, b) pairs with a < b, the singleton faces as
    vertices and the faces of 3 or more vertices as masks (none for a
    graph)."""
    rows = [0] * n
    present = 0
    edges = []
    singles = []
    larger = []
    for f in view:
        low = f & -f
        high = f ^ low
        if not high:
            present |= f
            singles.append(low.bit_length() - 1)
        elif high & (high - 1):
            larger.append(f)
        else:
            a = low.bit_length() - 1
            b = high.bit_length() - 1
            rows[a] |= high
            rows[b] |= low
            edges.append((a, b))
    return rows, present, edges, singles, larger


def _round(rows: list[int], cells: list[int], fresh: list[int]):
    """One round: split every cell by the count planes of the fresh parts,
    masks over the indices of rows.  A part's counts are the bitwise sum
    of its members' rows, so each member counts 1 for every bit of its
    row.  Each count is read as bit planes, highest first, and a plane
    splits every part of a cell into its members in the plane, then the
    others; so the parts of a cell come in descending order of their
    counts, compared fresh part by fresh part.  Returns (cells, fresh),
    fresh now the parts split off: each split cell's parts but its last,
    in order."""
    planes: list[int] = []
    for part in fresh:
        if part & (part - 1):
            counts: list[int] = []  # counts[j]: bit j of each count
            while part:
                low = part & -part
                part ^= low
                add = rows[low.bit_length() - 1]
                for j, plane in enumerate(counts):
                    counts[j] = plane ^ add
                    add &= plane
                    if not add:
                        break
                else:
                    counts.append(add)
            planes += reversed(counts)
        else:
            # a one-member part's one plane is its row
            planes.append(rows[part.bit_length() - 1])
    out: list[int] = []
    fresh = []
    for cell in cells:
        if not cell & (cell - 1):
            out.append(cell)
            continue
        parts = [cell]
        for plane in planes:
            split = []
            for p in parts:
                inside = p & plane
                if inside and inside != p:
                    split += inside, p ^ inside
                else:
                    split.append(p)
            parts = split
        out += parts
        fresh += parts[:-1]
    return out, fresh


def _rounds(rows: list[int], cells: list[int], fresh: list[int],
            incident: Optional[list[int]] = None,
            classes: Optional[list[int]] = None):
    """Rounds until none splits a cell: (cells, classes).  cells are
    vertex masks, and fresh the parts the round before split off, in
    colour order (a split cell's last part follows from the others).

    Two vertices of one cell had equal counts in everything the round
    before counted, so their signatures differ only in their counts in
    what was split off since.  Those signatures are sorted lists of equal
    length, so the smaller has the larger count at the first entry where
    the counts differ, and a round (_round) splits the cells by these
    counts, in order.  Graphs and complexes differ only in what is
    counted.  For a graph, rows are the neighbour rows and a vertex counts
    its neighbours in each fresh part.  For a complex, rows are its faces,
    incident[v] is the mask of the indices of the faces that hold v, and
    classes are the face classes of the round before, masks over face
    indices: the faces of one key (size, sorted member colours).  The
    faces of a class differ only in their member counts in the fresh
    parts, so a round on incident splits the classes, each into parts in
    key order, and a vertex counts its faces in each class split off (a
    split class's last part, in key order, follows from the others).
    Those are sorted by key, and a class none of whose faces holds a
    vertex of a cell of 2 or more can split nothing.  A discrete
    colouring ends the rounds, as it has nothing to split; its classes
    are then those of the round before.
    """
    n = len(rows if incident is None else incident)
    while fresh and len(cells) < n:
        if incident is not None:
            classes, fresh = _round(incident, classes, fresh)
            if len(fresh) > 1:
                near = 0
                for cell in cells:
                    if cell & (cell - 1):
                        while cell:
                            low = cell & -cell
                            cell ^= low
                            near |= incident[low.bit_length() - 1]
                fresh = [c for c in fresh if c & near]

                def key(c: int):
                    # (size, member counts per cell, larger first) of a
                    # face of the class
                    f = rows[(c & -c).bit_length() - 1]
                    return f.bit_count(), [-(f & cell).bit_count()
                                           for cell in cells]
                fresh.sort(key=key)
        cells, fresh = _round(rows, cells, fresh)
    return cells, classes


def _row_stable(rows: list[int], present: int) -> list[int]:
    """The stable colouring of a graph as ordered vertex masks; the first
    round from the uniform colouring ranks by (presence, degree)."""
    n = len(rows)
    groups: dict[int, int] = {}
    for v in range(n):
        k = (present >> v & 1) * n + rows[v].bit_count()
        groups[k] = groups.get(k, 0) | 1 << v
    cells = [groups[k] for k in sorted(groups)]
    return _rounds(rows, cells, cells[:-1])[0]


def _face_stable(view: tuple[int, ...], n: int):
    """The stable colouring of a complex as ordered vertex masks, with
    what its rounds read: (cells, classes, faces, incident), for _rounds.
    The first round from the uniform colouring ranks vertices by their
    sorted incident face sizes, compared as tuples, so a shorter prefix
    comes first."""
    faces = sorted(view, key=int.bit_count)
    incident = [0] * n
    sizes: list[list[int]] = [[] for _ in range(n)]
    by_size: dict[int, int] = {}
    for i, f in enumerate(faces):
        bit = 1 << i
        size = f.bit_count()
        by_size[size] = by_size.get(size, 0) | bit
        for v in vertices_of(f):
            incident[v] |= bit
            sizes[v].append(size)
    groups: dict[tuple[int, ...], int] = {}
    for v in range(n):
        k = tuple(sizes[v])
        groups[k] = groups.get(k, 0) | 1 << v
    cells = [groups[k] for k in sorted(groups)]
    # the classes of the uniform colouring, by size: the faces come in
    # size order, so by_size does too
    cells, classes = _rounds(faces, cells, cells[:-1], incident,
                             list(by_size.values()))
    return cells, classes, faces, incident


def _stable(view: tuple[int, ...], n: int):
    """The stable colouring of a dense view on n vertices, as ordered
    vertex masks, with what its search reads: (cells, classes, counts,
    incident, rows, edges, singles, larger).  The first four are those of
    _face_stable for a complex; a graph has no classes or incident rows,
    and counts on its neighbour rows.  The last four are _view_rows'."""
    rows, present, edges, singles, larger = _view_rows(view, n)
    if larger:
        return *_face_stable(view, n), rows, edges, singles, larger
    return _row_stable(rows, present), None, rows, None, rows, edges, \
        singles, larger


def _search(cells: list[int], classes: Optional[list[int]],
            counts: list[int], incident: Optional[list[int]],
            rows: list[int], edges: list[tuple[int, int]],
            singles: list[int], larger: list[int],
            perm: Optional[bytearray] = None) -> tuple[int, ...]:
    """The minimal leaf below a stable colouring, the canonical search of
    canonical_order, from what _stable returns.  perm, when given,
    receives the position of each vertex in the first minimal leaf."""
    n = len(rows)
    best = None
    labelling = cells
    if larger:
        members = [vertices_of(f) for f in larger]
        big = frozenset(larger)
    stack = [(cells, classes)]
    while stack:
        cells, classes = stack.pop()
        if len(cells) == n:
            # a discrete colouring: pb[v] is the bit of v's position in it
            pb = [0] * n
            for i, cell in enumerate(cells):
                pb[cell.bit_length() - 1] = 1 << i
            leaf = [pb[a] | pb[b] for a, b in edges]
            leaf += map(pb.__getitem__, singles)
            if larger:
                leaf += [sum(map(pb.__getitem__, mem)) for mem in members]
            leaf.sort()
            if best is None or leaf < best:
                best = leaf
                labelling = cells
            continue
        for i, target in enumerate(cells):
            if target & (target - 1):
                break
        # (u w) is an automorphism iff u and w have the same neighbours
        # apart from each other and swapping them maps every face of 3 or
        # more vertices onto a face; presence is constant within a cell
        low = target & -target
        row = rows[low.bit_length() - 1]
        rest = target ^ low
        while rest:
            w = rest & -rest
            rest ^= w
            pair = low | w
            if rows[w.bit_length() - 1] | pair != row | pair or larger and \
                    any(f & pair not in (0, pair) and f ^ pair not in big
                        for f in larger):
                choices = target
                break
        else:
            choices = low
        head, tail = cells[:i], cells[i + 1:]
        while choices:
            v = choices & -choices
            choices ^= v
            stack.append(_rounds(counts, head + [v, target ^ v] + tail, [v],
                                 incident, classes))
    if perm is not None:
        for i, cell in enumerate(labelling):
            perm[cell.bit_length() - 1] = i
    return tuple(best)


def dense_view(c: SimplicialComplex) -> tuple[int, ...]:
    """The faces of c relabeled onto 0..n-1 in label order (complexes.squeeze),
    sorted: the form in which canonical_order and position_key also take a
    position."""
    return tuple(sorted(squeeze(c.faces, c.vertex_mask)))


def canonical_order(
    c: SimplicialComplex | tuple[int, ...], perm: Optional[bytearray] = None,
    stable: Optional[list] = None,
) -> tuple[int, ...]:
    """The canonical face list of c, relabeled onto 0..n-1 and sorted by mask.

    c is a complex or its dense view.  The relabeling is the vertex ordering
    whose sorted face list is lexicographically least.  A bytearray of n
    zeros passed as perm receives the canonical labelling, read off the
    first minimal leaf: view vertex v has canonical label perm[v], so the
    view's faces relabeled by perm are the canonical faces.  A list passed
    as stable receives the stable colouring the search starts from, as
    ordered cells.
    """
    view = c if type(c) is tuple else dense_view(c)
    n = view[-1].bit_length() if view else 0
    search = _stable(view, n)
    if stable is not None:
        stable[:] = search[0]
    return _search(*search, perm)


# _ONE_BYTE[i] is the byte string of i alone
_ONE_BYTE = [bytes((i,)) for i in range(256)]


def _stable_colors(stable: list, n: int) -> bytes:
    """The stable colouring in canonical labels, from its ordered cells
    (vertex masks) on n vertices: canonical vertex l has colour colors[l].
    Every leaf keeps the stable cells in order, so cell i holds the i-th
    run of canonical labels."""
    if len(stable) == n:  # discrete: cell l holds canonical vertex l
        return bytes(range(n))
    return b"".join(map(bytes.__mul__, _ONE_BYTE,
                        map(int.bit_count, stable)))


# canonical faces -> the one key of that class, and dense view of a
# connected position -> (its class key, its canonical labelling: view
# vertex v has canonical label perm[v]); both bounded as the analysis
# caches are, and holding no complex
class_keys: dict[tuple[int, ...], CanonicalKey] = {}
view_keys: dict[tuple[int, ...], tuple[CanonicalKey, bytes]] = {}


def view_entry(view: tuple[int, ...]) -> tuple[CanonicalKey, bytes]:
    """(class key, canonical labelling) of a connected position, given as
    its dense view: its view_keys entry, made by a canonical search on a
    miss."""
    entry = view_keys.get(view)
    if entry is None:
        n = view[-1].bit_length()
        perm = bytearray(n)
        stable: list = []
        # the canonical faces come sorted by mask, so a stable sort by size
        # puts them in (size, mask) order
        faces = tuple(sorted(canonical_order(view, perm, stable),
                             key=int.bit_count))
        key = class_keys.get(faces)
        if key is None:
            # the stable colouring is a class invariant: the key holds it
            # once, in canonical labels
            key = CanonicalKey(_encode(faces, exact=True), faces, True,
                               _stable_colors(stable, n))
            bounded_store(class_keys, faces, key)
        entry = key, bytes(perm)
        bounded_store(view_keys, view, entry)
    return entry


def stable_cells(view: tuple[int, ...], n: int):
    """The stable colouring of a dense view on n vertices as (colors, cells):
    v's colour and the ordered cells, vertex masks, so v's cell is
    cells[colors[v]].  Read off the view's class key when it has one."""
    entry = view_keys.get(view)
    if entry is not None:
        # perm's bytes are canonical labels: translate maps each through
        # the class colouring, padded to a 256-byte table
        key, perm = entry
        colors = perm.translate(key.colors.ljust(256, b"\0"))
    else:
        colors = [0] * n
        for i, cell in enumerate(_stable(view, n)[0]):
            for v in vertices_of(cell):
                colors[v] = i
    cells = [0] * (max(colors, default=-1) + 1)
    for v, color in enumerate(colors):
        cells[color] |= 1 << v
    return colors, cells


def refinement_colors(c: SimplicialComplex | tuple[int, ...]) -> dict[int, int]:
    """Stable vertex coloring of c, a complex or its sorted face tuple;
    automorphisms preserve color classes.  Read from stable_cells on c's
    dense view."""
    faces = c if type(c) is tuple else sorted(c.faces)
    vmask = reduce(or_, faces, 0)
    verts = vertices_of(vmask)
    view = tuple(squeeze(faces, vmask))  # c itself when c is a dense view
    return dict(zip(verts, stable_cells(view, len(verts))[0]))


def union_key(keys: list[CanonicalKey]) -> CanonicalKey:
    """The canonical key of a disjoint union, from the canonical keys of its
    connected parts: the sorted multiset of their canonical forms,
    re-offset into one ground set."""
    canon_faces = []
    offset = 0
    for faces in sorted(key.faces for key in keys):
        canon_faces.extend(f << offset for f in faces)
        offset += max(f.bit_length() for f in faces)
    canon_faces.sort()
    canon_faces.sort(key=int.bit_count)
    faces = tuple(canon_faces)
    return CanonicalKey(_encode(faces, exact=True), faces)


@memoize
def canonical_key(c: SimplicialComplex) -> CanonicalKey:
    """Canonical key; equal exactly for isomorphic complexes.

    Raises CanonicalizationBoundError above DEFAULT_CANON_BOUND vertices;
    callers may fall back to labeled_key.
    """
    if not c.faces:
        return CanonicalKey(_encode((), exact=True), ())
    n = c.vertex_mask.bit_count()
    if n > DEFAULT_CANON_BOUND:
        raise CanonicalizationBoundError(
            f"{n} vertices exceeds canonicalization bound "
            f"{DEFAULT_CANON_BOUND}"
        )
    parts = components(c)
    if len(parts) > 1:
        return union_key([canonical_key(p) for p in parts])
    return view_entry(dense_view(c))[0]


def position_key(c: SimplicialComplex | tuple[int, ...]) -> CanonicalKey:
    """Canonical key when within DEFAULT_CANON_BOUND vertices, else the
    labeled fallback.

    c is a complex, or the dense view of a nonempty position that is
    connected or has more than DEFAULT_CANON_BOUND vertices; the labeled
    key of a view is in the view's labels.
    """
    if type(c) is tuple:
        if c[-1].bit_length() > DEFAULT_CANON_BOUND:
            return CanonicalKey(_encode(c, exact=False), c, exact=False)
        return view_entry(c)[0]
    try:
        return canonical_key(c)
    except CanonicalizationBoundError:
        return labeled_key(c)


def isomorphic(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    return canonical_key(a).faces == canonical_key(b).faces
