import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphchomp import canon, complexes, engine, symmetry
from graphchomp.closed_forms import bipartite_value, forest_value
from graphchomp.complexes import (
    SimplicialComplex,
    close_down,
    graph_stats,
    mask_of,
    relabel,
    remove_face,
)
from graphchomp.engine import (
    BudgetExceededError,
    EngineConfig,
    TableCapacityError,
    TranspositionTable,
    grundy,
    mex,
    nim_sum,
)
from graphchomp.families import (
    complete,
    complete_npartite,
    cycle,
    erdos_renyi,
    path,
    random_complex,
    torus_3x3,
    wheel,
)
from graphchomp.oracle import oracle_grundy

from conftest import small_complexes, small_graphs


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


def test_table_load_refuses_more_entries_than_capacity(tmp_path):
    t = TranspositionTable()
    for i in range(22):
        t.insert(bytes([i]), i % 3)
    p = tmp_path / "cache.json"
    t.save(str(p))
    with pytest.raises(ValueError, match="22 entries.*capacity 3"):
        TranspositionTable.load(str(p), capacity=3)
    assert len(TranspositionTable.load(str(p), capacity=22).entries) == 22


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


def test_table_load_rejects_edited_values(tmp_path):
    # an edited file must not make the engine report a false value
    p = tmp_path / "cache.json"
    t = TranspositionTable()
    assert grundy(complete(3), table=t).value == 0
    t.save(str(p))
    data = json.loads(p.read_text())
    data["entries"] = {k: 2 for k in data["entries"]}
    p.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="checksum"):
        TranspositionTable.load(str(p))


@pytest.mark.parametrize("edit", [
    lambda d: d.update(version=1),
    lambda d: d.pop("checksum"),
    lambda d: d["entries"].update({"0g": 1}),
    lambda d: d["entries"].update({"01": -1}),
    lambda d: d["entries"].update({"01": "1"}),
    lambda d: d["entries"].update({"01": 1.0}),
    lambda d: d["entries"].update({"01": True}),
])
def test_table_load_rejects_malformed_files(tmp_path, edit):
    p = tmp_path / "cache.json"
    t = TranspositionTable()
    t.insert(b"\x02", 3)
    t.save(str(p))
    data = json.loads(p.read_text())
    edit(data)
    p.write_text(json.dumps(data))
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


def test_zero_value_is_p_position():
    assert grundy(complete(3)).value == 0
    assert grundy(path(3)).value != 0
    assert grundy(cycle(5)).value == 0


def test_witness_move_wins():
    c = path(3)
    rec = grundy(c)
    move = rec.witness_moves[0]
    assert grundy(remove_face(c, move)).value == 0
    assert grundy(complete(3)).witness_moves == {}


CONFIGS = [EngineConfig(r, cf, d) for r in (False, True)
           for cf in (False, True) for d in (False, True)]


@given(st.one_of(small_graphs(max_vertices=5), small_complexes()))
@settings(max_examples=40, deadline=None)
def test_every_configuration_matches_oracle_with_winning_witness(c):
    want = oracle_grundy(c)
    for cfg in CONFIGS:
        rec = grundy(c, cfg)
        assert rec.value == want, cfg
        if want:
            assert oracle_grundy(remove_face(c, rec.witness_moves[0])) == 0
        spectrum = grundy(c, cfg, full_spectrum=True).witness_moves
        for claimed, move in spectrum.items():
            assert oracle_grundy(remove_face(c, move)) == claimed, cfg


def test_interleaved_roots_give_identical_records():
    # the engine keeps the last root's context; solving the same root
    # again, or another root and then this one, must not change any value,
    # witness or statistic
    a, b = erdos_renyi(7, 0.5, 11), cycle(7)
    for cfg in CONFIGS:
        first = grundy(a, cfg, TranspositionTable(), full_spectrum=True)
        assert grundy(a, cfg, TranspositionTable(), full_spectrum=True) == first
        grundy(b, cfg, TranspositionTable(), full_spectrum=True)
        again = grundy(a, cfg, TranspositionTable(), full_spectrum=True)
        assert again == first, cfg


def test_context_caches_stay_bounded(monkeypatch):
    # the key map of a root context, the memo of a solve and canon's memos
    # of view and class keys are emptied at CACHE_SIZE entries, as the analysis caches
    # are, and emptying them changes no value, witness or statistic;
    # path(18) is above the canonical bound, so its long parts take
    # labeled keys
    cases = [(erdos_renyi(7, 0.5, 11), cfg) for cfg in CONFIGS]
    cases += [(path(18), cfg) for cfg in CONFIGS
              if cfg.use_decomposition or cfg.use_closed_forms]
    expected = [grundy(c, cfg, TranspositionTable(), full_spectrum=True)
                for c, cfg in cases]
    monkeypatch.setattr(complexes, "CACHE_SIZE", 5)
    canon.view_keys.clear()
    canon.class_keys.clear()
    engine.class_moves.clear()
    for (c, cfg), want in zip(cases, expected):
        assert grundy(c, cfg, TranspositionTable(), full_spectrum=True) == want
        solver = engine._Solver(engine._Root(c), cfg, TranspositionTable(), None)
        assert solver.value(solver.root.full) == want.value
        assert len(solver.memo) <= 5 and len(solver.root.keys) <= 5, cfg
        assert len(canon.view_keys) <= 5, cfg
        assert len(canon.class_keys) <= 5, cfg
        assert len(engine.class_moves) <= 5, cfg


def _fresh_caches():
    for cache in (canon.view_keys, canon.class_keys, engine.class_moves,
                  canon.canonical_key.cache, complexes.components.cache):
        cache.clear()
    engine._last_root = None


def _cold_caches():
    _fresh_caches()
    symmetry._first_involution.cache.clear()


def _relabeled_cases():
    """A seeded list of (position, configuration, full_spectrum):
    relabeled copies (every second one with label gaps) of random graphs,
    random complexes and wheels under all 8 configurations, the torus under
    the four with reduction (value 0, so no witness search) and path(18)
    wherever every labeled subset of it is not a node.  The configurations
    share the record, so each class meets it several times."""
    rng = random.Random(22)
    base = [erdos_renyi(7, 0.5, 11), erdos_renyi(7, 0.6, 3),
            random_complex(7, 4), random_complex(8, 2, facet_count=5),
            wheel(5), wheel(6)]
    positions = []
    for i, c in enumerate(base):
        verts = list(c.vertices())
        ground = len(verts) + 3 * (i % 2)
        positions.append(relabel(
            c, dict(zip(verts, rng.sample(range(ground), len(verts)))),
            ground))
    cases = [(c, cfg, True) for cfg in CONFIGS for c in positions]
    cases += [(torus_3x3(), cfg, False) for cfg in CONFIGS
              if cfg.use_reduction]
    cases += [(path(18), cfg, True) for cfg in CONFIGS
              if cfg.use_decomposition or cfg.use_closed_forms]
    return cases


def test_warm_caches_give_the_records_of_cold_ones():
    # solved back to back, each with a fresh table, later solves key their
    # parts from the class records the earlier ones left; every record
    # equals that of the same solve with every module cache cleared first
    cases = _relabeled_cases()
    _cold_caches()
    warm = [grundy(c, cfg, TranspositionTable(), full_spectrum=full)
            for c, cfg, full in cases]
    assert any(type(name) is tuple for name in engine.class_moves)
    for (c, cfg, full), want in zip(cases, warm):
        _cold_caches()
        assert grundy(c, cfg, TranspositionTable(),
                      full_spectrum=full) == want, cfg


def test_recorded_keys_are_the_keys_of_their_views(monkeypatch):
    # after warm solves of relabeled copies, every key a solve stored,
    # many of them read off the class records, is the key a canonical
    # search gives the position's own complex once every cache is cleared
    # (a node keyed from the record registers its view with the record's
    # labelling, so a warm view entry would check the record against
    # itself)
    c = erdos_renyi(7, 0.5, 11)
    _cold_caches()
    hits = []
    original = engine._Solver.recorded_key

    def counted(self, pos, parent, move):
        out = original(self, pos, parent, move)
        hits.append(out[3] is not None)
        return out

    monkeypatch.setattr(engine._Solver, "recorded_key", counted)
    rng = random.Random(7)
    stored = []
    for _ in range(3):
        d = relabel(c, dict(zip(range(7), rng.sample(range(7), 7))), 7)
        grundy(d, EngineConfig(), TranspositionTable(), full_spectrum=True)
        root = engine._last_root
        stored += [(d.ground_size, root.members(pos), digest)
                   for pos, digest in root.keys.items()]
    assert sum(hits) > 20
    _cold_caches()
    for ground, faces, digest in stored:
        sub = SimplicialComplex(ground, frozenset(faces))
        want = canon.position_key(complexes.dense_complex(
            faces, sub.vertex_mask))
        assert digest == want.digest, faces


def test_class_records_stay_bounded(monkeypatch):
    # every record entry, markers included, counts against CACHE_SIZE; the
    # record is emptied when full, and that changes no value, witness or
    # statistic
    cases = [case for case in _relabeled_cases()
             if case[1].use_decomposition]
    _cold_caches()
    expected = [grundy(c, cfg, TranspositionTable(), full_spectrum=full)
                for c, cfg, full in cases]
    monkeypatch.setattr(complexes, "CACHE_SIZE", 5)
    _cold_caches()
    for (c, cfg, full), want in zip(cases, expected):
        assert grundy(c, cfg, TranspositionTable(),
                      full_spectrum=full) == want, cfg
        assert len(engine.class_moves) <= 5


def test_third_relabeled_solve_reads_its_keys_off_the_record(monkeypatch):
    # the first solve leaves a marker per expanded class and the second
    # records their parts, so a third fresh-table solve of another
    # labelling keys its parts from the record, with the same nodes
    c = erdos_renyi(7, 0.5, 11)
    _cold_caches()
    counts = _count_refinements(monkeypatch)
    rng = random.Random(11)
    searches, nodes = [], []
    for _ in range(3):
        d = relabel(c, dict(zip(range(7), rng.sample(range(7), 7))), 7)
        before = counts["canonical_order"]
        rec = grundy(d, EngineConfig(), TranspositionTable())
        searches.append(counts["canonical_order"] - before)
        nodes.append(rec.stats["nodes"])
    assert nodes[0] == nodes[1] == nodes[2] > 0
    assert searches[0] > 0 and searches[2] * 4 <= searches[0]


def test_keyed_parts_fill_only_the_view_memo():
    # each new connected part is keyed from its dense view: one entry in
    # canon.view_keys, and no complex kept in components.cache; a fresh
    # table knows no part of the root, so the root is not split through
    # components either, and nothing is keyed as a complex.  The class
    # record starts empty too, so no part is keyed from it: a first solve
    # expands each class once and leaves only its marker
    c = erdos_renyi(7, 0.5, 11)
    _fresh_caches()
    grundy(c, EngineConfig(), TranspositionTable(), full_spectrum=True)
    root = engine._last_root
    views = {root.view(pos)[0] for pos in root.keys}
    assert len(root.keys) > 30
    assert set(canon.view_keys) == views
    assert engine.class_moves
    assert all(type(name) is bytes for name in engine.class_moves)
    assert not complexes.components.cache
    assert not canon.canonical_key.cache


def test_node_memos_keep_no_frozenset():
    # _first_involution holds one entry per engine node, and keys it on the
    # node's sorted face tuple rather than its frozenset
    c = erdos_renyi(7, 0.5, 11)
    _fresh_caches()
    symmetry._first_involution.cache.clear()
    grundy(c, EngineConfig(), TranspositionTable(), full_spectrum=True)
    cache = symmetry._first_involution.cache
    assert cache
    for key in cache:
        assert type(key) is tuple and list(key) == sorted(key)


def test_fresh_solve_builds_no_complex_after_its_root(monkeypatch):
    # every node is analysed from its dense view: the closed forms and the
    # involution search read the view, and a reduction's fixed set is a
    # bitmap, so the solve builds no SimplicialComplex besides its root
    c = erdos_renyi(9, 0.5, 3)
    _fresh_caches()
    symmetry._first_involution.cache.clear()
    built = []
    original = SimplicialComplex.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(SimplicialComplex, "__post_init__", counted)
    record = grundy(c, EngineConfig(), TranspositionTable())
    assert record.stats["nodes"] > 0
    assert built == []


def _count_refinements(monkeypatch) -> dict[str, int]:
    """Count the runs of the stable refinement (canon._row_stable for a
    graph, canon._refiner for a complex) and of the canonical search, which
    runs one of them once per key.  A refinement the involution search runs
    of its own shows as more refinement runs than searches."""
    counts = {"_refiner": 0, "_row_stable": 0, "canonical_order": 0}
    for name in counts:
        original = getattr(canon, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(canon, name, counted)
    return counts


def test_colouring_survives_a_root_key_hit(monkeypatch):
    # a position keyed under one configuration is found in _Root.keys under
    # the next, and view_keys still holds its key, so the involution search
    # reads the colouring there and the refinement does not run again
    c = erdos_renyi(7, 0.5, 11)
    _fresh_caches()
    grundy(c, EngineConfig(False, False, True), TranspositionTable())
    symmetry._first_involution.cache.clear()
    counts = _count_refinements(monkeypatch)
    record = grundy(c, EngineConfig(True, False, True), TranspositionTable())
    assert record.stats["nodes"] > 0
    assert symmetry._first_involution.cache
    assert counts["_refiner"] + counts["_row_stable"] \
        <= counts["canonical_order"]


def test_certificate_without_reduction_reuses_the_colouring(monkeypatch):
    # with reduction off, the simplest-form test of a closed-form
    # certificate reads the colouring on the node's key
    positions = [erdos_renyi(7, 0.5, seed) for seed in range(100, 120)]
    search = EngineConfig(False, False, True)
    want = [grundy(c, search, TranspositionTable(), full_spectrum=True)
            for c in positions]
    _fresh_caches()
    symmetry._first_involution.cache.clear()
    counts = _count_refinements(monkeypatch)
    for c, ref in zip(positions, want):
        rec = grundy(c, EngineConfig(use_reduction=False), TranspositionTable(),
                     full_spectrum=True)
        assert (rec.value, rec.witness_moves) == (ref.value, ref.witness_moves)
    assert symmetry._first_involution.cache
    assert counts["_refiner"] + counts["_row_stable"] \
        <= counts["canonical_order"]


@pytest.mark.parametrize("cfg", CONFIGS)
def test_view_keys_equal_complex_keys(cfg):
    # the key of every position keyed from its view, connected or (with
    # decomposition off) a disjoint union, is the key of its complex
    positions = [erdos_renyi(7, 0.5, 11), erdos_renyi(8, 0.3, 2),
                 random_complex(7, 4), path(18)]
    for c in positions:
        if c is positions[-1] and not (cfg.use_decomposition
                                       or cfg.use_closed_forms):
            continue  # every labeled subset of a long path: too many nodes
        _fresh_caches()
        grundy(c, cfg, TranspositionTable(), full_spectrum=True)
        root = engine._last_root
        assert root.keys
        for pos, digest in root.keys.items():
            faces = root.members(pos)
            sub = SimplicialComplex(c.ground_size, frozenset(faces))
            want = canon.position_key(complexes.dense_complex(
                faces, sub.vertex_mask))
            assert digest == want.digest, (cfg, c, pos)


@pytest.mark.parametrize("budget", [1, 7, 40])
def test_budget_exhaustion_leaves_no_wrong_entry(budget):
    c = erdos_renyi(7, 0.6, 3)
    for cfg in CONFIGS:
        table = TranspositionTable()
        with pytest.raises(BudgetExceededError):
            grundy(c, cfg, table, node_budget=budget)
        partial = dict(table.entries)
        rec = grundy(c, cfg, table)
        assert rec.value == oracle_grundy(c), cfg
        complete_table = TranspositionTable()
        fresh = grundy(c, cfg, complete_table, full_spectrum=True)
        assert grundy(c, cfg, table, full_spectrum=True).witness_moves == \
            fresh.witness_moves
        # every entry of the interrupted solve is one a complete solve makes
        assert partial.items() <= complete_table.entries.items(), cfg


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


def test_known_root_counts_one_hit_per_part():
    # a path, a triangle and a vertex: three parts, answered from the table
    c = close_down([mask_of([0, 1]), mask_of([1, 2]), mask_of([3, 4]),
                    mask_of([4, 5]), mask_of([3, 5]), mask_of([6])], 7)
    for cfg, parts in ((EngineConfig(), 3),
                       (EngineConfig(use_decomposition=False), 1)):
        table = TranspositionTable()
        grundy(c, cfg, table, witness=False)
        before = table.hits
        rec = grundy(c, cfg, table, witness=False)
        assert rec.stats["nodes"] == 0
        assert table.hits - before == parts


def test_undecomposed_positions_above_the_bound_take_dense_keys():
    # above 16 vertices a key is labeled, in the position's dense labels,
    # so a gapped relabeling of path(20) is answered from path(20)'s table.
    # With every feature off the solve would visit each of the ~2^20 dense
    # labeled positions, as the oracle does, so that configuration is left
    # to criterion 1's small positions.
    p20 = path(20)
    gapped = relabel(p20, {v: 3 * v + v % 2 for v in range(20)}, 60)
    star = complete_npartite([1, 17])
    for cfg in CONFIGS:
        if cfg.use_decomposition or cfg == EngineConfig(False, False, False):
            continue
        shared = TranspositionTable()
        for c, table in ((p20, shared), (gapped, shared),
                         (star, TranspositionTable())):
            st_ = graph_stats(c)
            want = (forest_value(st_.v, st_.component_count)
                    if st_.cycle_count == 0 else bipartite_value(st_.v, st_.e))
            first = grundy(c, cfg, table)
            again = grundy(c, cfg, table)
            assert first.value == again.value == want.value, cfg
            assert again.stats["nodes"] == 0, cfg
            if c is gapped:  # every key is one path(20) already stored
                assert first.stats["nodes"] == 0, cfg


def test_empty_position():
    empty = close_down([], 0)
    assert grundy(empty).value == 0
    assert grundy(empty).witness_moves == {}


def test_full_spectrum_witnesses():
    c = complete(4)  # value 1; children of many values exist
    rec = grundy(c, full_spectrum=True)
    child_values = {grundy(remove_face(c, s)).value for s in c.faces}
    assert set(rec.witness_moves) == child_values
