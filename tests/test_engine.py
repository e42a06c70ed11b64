import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphchomp.complexes import SimplicialComplex, close_down, mask_of, remove_face
from graphchomp.engine import (
    BudgetExceededError,
    EngineConfig,
    TableCapacityError,
    TranspositionTable,
    classify,
    grundy,
    mex,
    nim_sum,
    optimal_move,
)
from graphchomp.families import complete, cycle, erdos_renyi, path
from graphchomp.oracle import oracle_grundy

from conftest import small_graphs


def test_mex():
    assert mex([]) == 0
    assert mex([0, 1, 3]) == 2
    assert mex([1, 2]) == 0


def test_nim_sum():
    assert nim_sum([]) == 0
    assert nim_sum([1, 2, 3]) == 0
    assert nim_sum([5, 3]) == 6


@given(st.lists(st.integers(0, 50)))
def test_mex_is_least_excluded(values):
    m = mex(values)
    assert m not in values
    assert all(x in values for x in range(m))


def test_table_idempotent_insert():
    t = TranspositionTable()
    t.insert(b"k", 3)
    t.insert(b"k", 3)  # same value fine
    with pytest.raises(ValueError):
        t.insert(b"k", 4)


def test_table_capacity():
    t = TranspositionTable(capacity=1)
    t.insert(b"a", 1)
    with pytest.raises(TableCapacityError):
        t.insert(b"b", 2)


def test_table_save_load(tmp_path):
    t = TranspositionTable()
    t.insert(b"\x01\x02", 7)
    p = tmp_path / "cache.json"
    t.save(str(p))
    back = TranspositionTable.load(str(p))
    assert back.entries == t.entries


def test_table_save_failure_keeps_previous_file(tmp_path, monkeypatch):
    p = tmp_path / "cache.json"
    old = TranspositionTable()
    old.insert(b"\x01", 1)
    old.save(str(p))
    before = p.read_bytes()

    def failing_dump(obj, fh, **kwargs):
        fh.write('{"format": "graphchomp-table", "entr')
        raise OSError("disk full")

    new = TranspositionTable()
    new.insert(b"\x02", 2)
    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(OSError):
        new.save(str(p))
    assert p.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["cache.json"]


def test_table_load_rejects_other_formats(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format": "something-else", "version": 1, "entries": {}}')
    with pytest.raises(ValueError):
        TranspositionTable.load(str(p))


@given(small_graphs(max_vertices=5))
@settings(max_examples=40, deadline=None)
def test_engine_matches_oracle(c):
    assert grundy(c).value == oracle_grundy(c)


@given(small_graphs(max_vertices=5))
@settings(max_examples=25, deadline=None)
def test_witnesses_sound(c):
    rec = grundy(c)
    for claimed, move in rec.witness_moves.items():
        child = remove_face(c, move)
        assert oracle_grundy(child) == claimed


@given(small_graphs(max_vertices=4), small_graphs(max_vertices=4))
@settings(max_examples=25, deadline=None)
def test_disjoint_union_is_xor(a, b):
    shift = a.ground_size
    faces = set(a.faces)
    faces.update(f << shift for f in b.faces)
    union = SimplicialComplex(a.ground_size + b.ground_size, frozenset(faces))
    assert grundy(union).value == grundy(a).value ^ grundy(b).value


def test_classify():
    assert classify(complete(3)) == "P"
    assert classify(path(3)) == "N"
    assert classify(cycle(5)) == "P"


def test_optimal_move_wins():
    c = path(3)
    move = optimal_move(c)
    assert move is not None
    assert grundy(remove_face(c, move)).value == 0
    assert optimal_move(complete(3)) is None


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError) as exc:
        grundy(erdos_renyi(8, 0.6, 42), EngineConfig(False, False, False),
               TranspositionTable(), node_budget=5)
    assert "size" in exc.value.stats


def test_shared_table_across_positions():
    table = TranspositionTable()
    grundy(path(5), table=table)
    before = len(table.entries)
    rec = grundy(path(5), table=table)
    assert len(table.entries) == before  # fully cached second time
    assert rec.value == oracle_grundy(path(5))


def test_empty_position():
    empty = close_down([], 0)
    assert grundy(empty).value == 0
    assert classify(empty) == "P"


def test_full_spectrum_witnesses():
    c = complete(4)  # value 1; children of many values exist
    rec = grundy(c, full_spectrum=True)
    child_values = {grundy(remove_face(c, s)).value for s in c.faces}
    assert set(rec.witness_moves) == child_values
