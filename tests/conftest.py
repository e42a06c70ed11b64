import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from graphchomp.complexes import SimplicialComplex, close_down, mask_of

# pyproject's pytest `pythonpath` reaches only this process; tests that run
# `python -m graphchomp.cli` need the source tree on the child's path too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@st.composite
def small_graphs(draw, max_vertices=6):
    """Random graph complex with vertices 0..n-1 as singleton faces."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs)) if pairs else st.just([]))
    facets = [1 << v for v in range(n)]
    facets.extend(mask_of(p) for p in picked)
    return close_down(facets, n)


@st.composite
def small_complexes(draw, max_vertices=5):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    facet_count = draw(st.integers(min_value=1, max_value=4))
    facets = []
    for _ in range(facet_count):
        size = draw(st.integers(min_value=1, max_value=min(3, n)))
        members = draw(st.lists(st.integers(0, n - 1), min_size=size,
                                max_size=size, unique=True))
        facets.append(mask_of(members))
    return close_down(facets, n)


@st.composite
def permutations_of(draw, c: SimplicialComplex):
    verts = list(c.vertices())
    seed = draw(st.integers(0, 2**32 - 1))
    perm = verts[:]
    random.Random(seed).shuffle(perm)
    return dict(zip(verts, perm))


@pytest.fixture(scope="session")
def shared_oracle_memo():
    return {}
