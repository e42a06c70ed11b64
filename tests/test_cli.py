import json
import os
import subprocess
import sys

import pytest

from graphchomp import cli
from graphchomp.cli import build_parser, main
from graphchomp.engine import _entries_checksum


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_complete3(capsys):
    code, out = run_cli(capsys, "solve", "--family", "complete:3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 0
    assert data["classification"] == "P"
    assert data["optimal_move"] is None


def test_solve_torus(capsys):
    code, out = run_cli(capsys, "solve", "--family", "torus_3x3", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 0


def test_solve_empty_file(tmp_path, capsys):
    p = tmp_path / "empty.cplx"
    p.write_text("vertices 0\n")
    code, out = run_cli(capsys, "solve", "--input", str(p), "--json")
    assert code == 0
    assert json.loads(out)["value"] == 0


def test_solve_oracle_agrees(capsys):
    code, out = run_cli(capsys, "solve", "--family", "path:4", "--json")
    code2, out2 = run_cli(capsys, "solve", "--family", "path:4", "--json",
                          "--oracle")
    assert code == code2 == 0
    assert json.loads(out)["value"] == json.loads(out2)["value"] == 2


def test_solve_optimal_move_is_face(capsys):
    code, out = run_cli(capsys, "solve", "--family", "path:3", "--json")
    data = json.loads(out)
    assert data["classification"] == "N"
    assert isinstance(data["optimal_move"], list)


def test_solve_usage_errors(capsys):
    assert main(["solve", "--family", "nosuchfamily:1"]) == 2
    assert main(["solve"]) == 2  # neither input nor family
    assert main(["solve", "--input", "/nonexistent.cplx"]) == 2


@pytest.mark.parametrize("name, text", [
    ("pos.cplx", "vertices\nface 0 1\n"),
    ("pos.edges", "vertices 2\nedge 1\n"),
])
def test_truncated_input_line_exits_2(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["solve", "--input", str(path)]) == 2
    assert "wrong number of fields" in capsys.readouterr().err


def test_second_vertices_header_exits_2(capsys, tmp_path):
    path = tmp_path / "pos.cplx"
    path.write_text("vertices 5\nface 0 1\nvertices 3\n")
    assert main(["solve", "--input", str(path)]) == 2
    assert "second 'vertices' header" in capsys.readouterr().err


def test_negative_vertex_count_exits_2(capsys, tmp_path):
    path = tmp_path / "pos.cplx"
    path.write_text("vertices -1\n")
    assert main(["solve", "--input", str(path)]) == 2
    assert "not an integer in 0..64: 'vertices -1'" in capsys.readouterr().err


def test_directory_as_input_or_cache_exits_2(capsys, tmp_path):
    # an OSError other than a missing file is a usage error too, not the
    # exit 1 of a verification failure
    assert main(["solve", "--input", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["solve", "--family", "path:3", "--cache", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_attach_label_checked_before_any_shift(capsys):
    for attach in ("-1", "65"):
        assert main(["scan", "tails", "--base", "gmk:1,2",
                     "--attach", attach]) == 2
        assert f"attach point {attach} is not in the position" in \
            capsys.readouterr().err


def test_family_size_checked_before_any_build(capsys):
    assert main(["solve", "--family", "path:65"]) == 2
    assert "65 vertices exceed the limit of 64" in capsys.readouterr().err


# every shared flag, with a value where it takes one
SHARED_FLAGS = {
    "--cache": ["t.json"], "--no-reduction": [], "--no-closed-forms": [],
    "--no-decomposition": [], "--oracle": [], "--json": [],
    "--seed": ["1"], "--budget": ["5"],
}


@pytest.mark.parametrize("argv, accepted", [
    (["solve", "--family", "path:3"], set(SHARED_FLAGS)),
    (["reduce", "--family", "path:3"], {"--json", "--budget"}),
    (["verify", "gmk"], set(SHARED_FLAGS)),
    (["tables"], set()),
    (["play", "--family", "path:3"],
     {"--no-reduction", "--no-closed-forms", "--no-decomposition",
      "--budget"}),
    (["scan", "wheels"],
     {"--cache", "--no-reduction", "--no-closed-forms", "--no-decomposition",
      "--json", "--budget"}),
], ids=["solve", "reduce", "verify", "tables", "play", "scan"])
def test_subcommand_takes_only_the_flags_it_reads(argv, accepted):
    parser = build_parser()
    for flag, value in SHARED_FLAGS.items():
        try:
            parser.parse_args([*argv, flag, *value])
            taken = True
        except SystemExit:
            taken = False
        assert taken == (flag in accepted), (argv[0], flag)


@pytest.mark.parametrize("argv", [
    ["reduce", "--family", "cycle:6", "--no-reduction", "--json"],
    ["tables", "--which", "forest", "--oracle"],
    ["play", "--family", "path:3", "--cache", "t.json"],
], ids=lambda argv: argv[0])
def test_ignored_flag_exits_2(capsys, argv):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--family", "path:3", "--budget", "-1"],
    ["reduce", "--family", "cycle:6", "--budget", "-1"],
    ["verify", "bipartite", "--samples", "-3"],
    ["verify", "npartite", "--max-v", "-1"],
    ["verify", "complete", "--max", "-1"],
    ["play", "--family", "path:3", "--budget", "-1"],
    ["scan", "tails", "--base", "gmk:1,2", "--kmax", "-1"],
    ["scan", "multi", "--vmax", "-1"],
    ["scan", "wheels", "--max", "-1"],
], ids=lambda argv: "-".join(argv[:2]))
def test_negative_count_or_budget_exits_2(capsys, argv):
    assert main(argv) == 2
    assert "must be at least 0" in capsys.readouterr().err


def test_oracle_honours_a_zero_budget(capsys):
    code = main(["solve", "--family", "path:3", "--oracle", "--budget", "0"])
    assert code == 3
    assert "budget exceeded" in capsys.readouterr().err


# `solve --json` output of the default configuration, statistics included:
# how the engine represents positions must not move a single count
PINNED_SOLVES = {
    "erdos_renyi:7,p=0.5,seed=11":
        '{"classification":"N","optimal_move":[0],"stats":{"hits":18,'
        '"inserts":29,"method":"engine","misses":29,"nodes":29,"size":29},'
        '"value":1}',
    "wheel:7":
        '{"classification":"N","optimal_move":[7],"stats":{"hits":3121,'
        '"inserts":394,"method":"engine","misses":394,"nodes":394,'
        '"size":394},"value":1}',
    "gmk:3,4":
        '{"classification":"N","optimal_move":[0],"stats":{"hits":0,'
        '"inserts":3,"method":"engine","misses":3,"nodes":3,"size":3},'
        '"value":8}',
}


@pytest.mark.parametrize("family", sorted(PINNED_SOLVES))
def test_solve_json_pinned(capsys, family):
    code, out = run_cli(capsys, "solve", "--family", family, "--json")
    assert code == 0
    assert out == PINNED_SOLVES[family] + "\n"


def test_solve_budget_exceeded(capsys):
    code = main(["solve", "--family", "erdos_renyi:8,p=0.6,seed=5",
                 "--no-closed-forms", "--no-reduction", "--budget", "3"])
    assert code == 3


def test_reduce_torus(capsys, tmp_path):
    out_file = tmp_path / "final.cplx"
    code, out = run_cli(capsys, "reduce", "--family", "torus_3x3",
                        "--json", "--out", str(out_file))
    assert code == 0
    data = json.loads(out)
    assert data["complete"] is True
    assert len(data["steps"]) >= 1
    assert len(data["final"]["faces"]) == 6  # a 3-cycle: 3 vertices + 3 edges
    assert out_file.exists()


def test_reduce_above_canonicalization_bound(capsys):
    # gmk(10, 9) has 23 vertices: the final key is the labeled fallback
    code, out = run_cli(capsys, "reduce", "--family", "gmk:10,9", "--json")
    assert code == 0
    final = json.loads(out)["final"]
    assert "labeled_key" in final and "canonical_key" not in final


def test_reduce_cycle_unchanged(capsys):
    code, out = run_cli(capsys, "reduce", "--family", "cycle:3", "--json")
    data = json.loads(out)
    assert code == 0 and data["steps"] == []


def test_verify_gmk(capsys):
    code, out = run_cli(capsys, "verify", "gmk", "--max", "4", "--json")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_bipartite(capsys):
    code, out = run_cli(capsys, "verify", "bipartite", "--max-v", "6",
                        "--samples", "30", "--seed", "1", "--json")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_complete_and_npartite(capsys):
    assert run_cli(capsys, "verify", "complete", "--max", "6")[0] == 0
    assert run_cli(capsys, "verify", "npartite", "--max-v", "7")[0] == 0


def test_verify_forests(capsys):
    code, out = run_cli(capsys, "verify", "forests", "--max-v", "7",
                        "--samples", "40", "--json")
    assert code == 0 and json.loads(out)["pass"] is True


def test_verify_reports_oracle_refusals(capsys, monkeypatch):
    # a refused oracle check is no disagreement, but it is not a check
    # either: stderr and the JSON summary say how many cases went unchecked
    argv = ("verify", "forests", "--samples", "3", "--max-v", "6",
            "--oracle", "--json")
    assert main(list(argv)) == 0
    checked = capsys.readouterr()
    assert checked.err == ""
    assert json.loads(checked.out)["oracle_refused"] == 0
    monkeypatch.setattr(cli, "DEFAULT_ORACLE_BUDGET", 5)
    assert main(list(argv)) == 0
    refused = capsys.readouterr()
    summary = json.loads(refused.out)
    assert summary["pass"] and summary["checked"] == 3
    assert summary["oracle_refused"] == 2
    assert refused.err.startswith("oracle refused 2 of 3 cases")


def test_verify_json_without_oracle_has_no_refusal_field(capsys):
    code, out = run_cli(capsys, "verify", "forests", "--samples", "3",
                        "--max-v", "6", "--json")
    assert code == 0
    assert out == ('{"checked":3,"failures":[],"family":"forests",'
                   '"pass":true}\n')


def test_tables_text_and_csv(capsys):
    code, text = run_cli(capsys, "tables")
    assert code == 0
    assert "[gmk]" in text and "[bipartite]" in text
    code, csv_text = run_cli(capsys, "tables", "--which", "gmk",
                             "--format", "csv")
    rows = [r.split(",") for r in csv_text.strip().splitlines()]
    # row m=5, column k=5 holds 4
    assert rows[5 + 1][5 + 1] == "4"
    code, block = run_cli(capsys, "tables", "--which", "block",
                          "--format", "csv")
    rows = [r.split(",") for r in block.strip().splitlines()]
    assert rows[2 + 1][3 + 1] == "8"  # 4*((2 xor 3)+1) = 8


def test_tables_byte_stable(capsys):
    _, a = run_cli(capsys, "tables", "--format", "csv")
    _, b = run_cli(capsys, "tables", "--format", "csv")
    assert a == b


def test_scan_wheels(capsys, tmp_path):
    report = tmp_path / "wheels.jsonl"
    code, out = run_cli(capsys, "scan", "wheels", "--max", "5",
                        "--out", str(report))
    assert code == 0
    lines = [json.loads(l) for l in report.read_text().splitlines()]
    assert {r["n"] for r in lines} == {3, 4, 5}
    assert all(r["value"] == 1 for r in lines)


def test_scan_resume_skips_done(capsys, tmp_path):
    report = tmp_path / "wheels.jsonl"
    run_cli(capsys, "scan", "wheels", "--max", "4", "--out", str(report))
    code, out = run_cli(capsys, "scan", "wheels", "--max", "5",
                        "--out", str(report), "--resume")
    assert code == 0
    lines = [json.loads(l) for l in report.read_text().splitlines()]
    assert sorted(r["n"] for r in lines) == [3, 4, 5]


def test_scan_tails(capsys, tmp_path):
    report = tmp_path / "tails.jsonl"
    code, out = run_cli(capsys, "scan", "tails", "--base", "gmk:0,0",
                        "--attach", "3", "--kmax", "8", "--out", str(report))
    assert code == 0
    row = json.loads(report.read_text().splitlines()[0])
    assert row["classification"] == "period2"


def test_scan_multi(capsys, tmp_path):
    report = tmp_path / "multi.jsonl"
    code, out = run_cli(capsys, "scan", "multi", "--vmax", "6",
                        "--out", str(report))
    assert code == 0
    rows = [json.loads(l) for l in report.read_text().splitlines()]
    assert any(r["status"] == "ok" and r["agree"] for r in rows)


def test_cache_file_roundtrip(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    code, _ = run_cli(capsys, "solve", "--family", "path:6", "--json",
                      "--cache", str(cache))
    assert code == 0 and cache.exists()
    code, out = run_cli(capsys, "solve", "--family", "path:6", "--json",
                        "--cache", str(cache))
    assert code == 0
    assert json.loads(out)["stats"]["hits"] > 0


def test_edited_cache_file_exits_2(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    code, _ = run_cli(capsys, "solve", "--family", "complete:3", "--json",
                      "--cache", str(cache))
    assert code == 0
    data = json.loads(cache.read_text())
    data["entries"] = {k: 2 for k in data["entries"]}
    cache.write_text(json.dumps(data))
    code, out = run_cli(capsys, "solve", "--family", "complete:3", "--json",
                        "--cache", str(cache))
    assert code == 2 and out == ""


def test_cache_key_that_is_no_digest_exits_2(capsys, tmp_path):
    # a 1-byte key with a recomputed checksum is a self-consistent file the
    # engine never writes: every key it writes is a 32-byte digest
    cache = tmp_path / "cache.json"
    code, _ = run_cli(capsys, "solve", "--family", "complete:3", "--json",
                      "--cache", str(cache))
    assert code == 0
    data = json.loads(cache.read_text())
    data["entries"]["ab"] = 1
    data["checksum"] = _entries_checksum(data["entries"])
    cache.write_text(json.dumps(data))
    code, out = run_cli(capsys, "solve", "--family", "complete:3", "--json",
                        "--cache", str(cache))
    assert code == 2 and out == ""


def test_chomp_cache_env(capsys, tmp_path, monkeypatch):
    env_cache = tmp_path / "env.json"
    monkeypatch.setenv("CHOMP_CACHE", str(env_cache))
    code, _ = run_cli(capsys, "solve", "--family", "path:4", "--json")
    assert code == 0 and env_cache.exists()
    # the flag wins over the environment
    flag_cache = tmp_path / "flag.json"
    run_cli(capsys, "solve", "--family", "path:5", "--json",
            "--cache", str(flag_cache))
    assert flag_cache.exists()


def _run_subprocess(*argv, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "graphchomp.cli", *argv],
        capture_output=True, input=stdin.encode(),
        env={**os.environ, "PYTHONHASHSEED": "random"},
    )


def test_identical_invocations_byte_identical():
    argv = ["solve", "--family", "erdos_renyi:6,p=0.5,seed=3", "--json",
            "--seed", "7"]
    a = _run_subprocess(*argv)
    b = _run_subprocess(*argv)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout

    argv = ["scan", "wheels", "--max", "5", "--json"]
    a = _run_subprocess(*argv)
    b = _run_subprocess(*argv)
    assert a.stdout == b.stdout


def test_play_solver_first_single_vertex():
    r = _run_subprocess("play", "--family", "complete:1", "--solver-first")
    assert r.returncode == 0
    assert b"solver removes [0]" in r.stdout
    assert b"solver made the last move" in r.stdout


def test_play_illegal_move_reprompts():
    # human enters a non-face, then a legal vertex; solver wins K_3? No:
    # on path:1 the human takes the only vertex and wins.
    r = _run_subprocess("play", "--family", "path:1",
                        stdin="5\n0\n")
    assert r.returncode == 0
    assert b"illegal move" in r.stdout
    assert b"human made the last move" in r.stdout


def test_play_move_labels_checked_before_any_shift():
    r = _run_subprocess("play", "--family", "path:1", stdin="-1\n65\n0\n")
    assert r.returncode == 0
    assert b"illegal move ([-1] is not a face)" in r.stdout
    assert b"illegal move ([65] is not a face)" in r.stdout
    assert b"human made the last move" in r.stdout
