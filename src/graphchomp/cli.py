"""Command-line front end.

Subcommands: solve, reduce, verify, tables, play, scan.  Exit codes:
0 success/pass, 1 verification failure, 2 usage error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Optional

from . import conjectures
from .canon import canonical_key
from .closed_forms import (
    bipartite_value,
    complete_graph_value,
    complete_npartite_value,
    forest_value,
    gmk_recurrence,
    gmk_value,
)
from .complexes import (
    IllegalMoveError,
    InvalidInputError,
    SimplicialComplex,
    face_size,
    graph_stats,
    load_complex,
    mask_of,
    moves,
    remove_face,
    save_complex,
    vertices_of,
)
from .engine import (
    BudgetExceededError,
    EngineConfig,
    TableCapacityError,
    TranspositionTable,
    grundy,
)
from .families import (
    complete_npartite,
    generate,
    gmk,
    parse_family,
    random_bipartite,
    random_forest,
)
from .oracle import DEFAULT_ORACLE_BUDGET, OracleBudgetError, oracle_grundy
from .symmetry import reduce_to_simplest

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _jdump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _faces_json(c: SimplicialComplex) -> list[list[int]]:
    return [
        list(vertices_of(f))
        for f in sorted(c.faces, key=lambda m: (face_size(m), m))
    ]


def _config_from(args) -> EngineConfig:
    return EngineConfig(
        use_reduction=not args.no_reduction,
        use_closed_forms=not args.no_closed_forms,
        use_decomposition=not getattr(args, "no_decomposition", False),
    )


def _cache_path(args) -> Optional[str]:
    if args.cache:
        return args.cache
    return os.environ.get("CHOMP_CACHE")


def _open_table(args, cfg: EngineConfig) -> tuple[TranspositionTable, Optional[str]]:
    path = _cache_path(args)
    if path and os.path.exists(path):
        return TranspositionTable.load(path, cfg.memo_capacity), path
    return TranspositionTable(cfg.memo_capacity), path


def _load_position(args) -> SimplicialComplex:
    if bool(args.input) == bool(args.family):
        raise InvalidInputError("provide exactly one of --input / --family")
    if args.input:
        return load_complex(args.input)
    return generate(parse_family(args.family))


def _oracle_solve(c: SimplicialComplex, budget: int) -> tuple[int, Optional[int]]:
    memo: dict = {}
    value = oracle_grundy(c, budget, memo)
    if value == 0:
        return value, None
    for s in moves(c):
        if oracle_grundy(remove_face(c, s), budget, memo) == 0:
            return value, s
    raise AssertionError("nonzero position with no zero-valued child")


def cmd_solve(args) -> int:
    c = _load_position(args)
    cfg = _config_from(args)
    table, cache_path = _open_table(args, cfg)
    if args.oracle:
        budget = args.budget if args.budget else DEFAULT_ORACLE_BUDGET
        value, move = _oracle_solve(c, budget)
        stats = {"method": "oracle"}
    else:
        rec = grundy(c, cfg, table, args.budget)
        value = rec.value
        move = rec.witness_moves.get(0) if value != 0 else None
        stats = dict(rec.stats, method="engine")
        if cache_path:
            table.save(cache_path)
    result = {
        "value": value,
        "classification": "P" if value == 0 else "N",
        "optimal_move": list(vertices_of(move)) if move is not None else None,
        "stats": stats,
    }
    if args.json:
        print(_jdump(result))
    else:
        print(f"value: {value}")
        print(f"classification: {result['classification']}")
        if move is not None:
            print(f"optimal move: remove face {list(vertices_of(move))}")
        else:
            print("optimal move: none (P-position)")
    return EXIT_OK


def cmd_reduce(args) -> int:
    c = _load_position(args)
    final, trace = reduce_to_simplest(c, args.budget)
    result = {
        "complete": trace.complete,
        "steps": json.loads(trace.to_json())["steps"],
        "final": {
            "ground_size": final.ground_size,
            "faces": _faces_json(final),
            "canonical_key": canonical_key(final).digest.hex(),
        },
    }
    if args.out:
        save_complex(final, args.out)
    if args.json:
        print(_jdump(result))
    else:
        for i, step in enumerate(result["steps"]):
            print(f"step {i}: pair {step['pairs']}, "
                  f"fixed {step['fixed_vertices']}")
        print(f"final facets: {_faces_json(final)}")
        if not trace.complete:
            print("warning: reduction budget exhausted (partial trace)")
    return EXIT_OK if trace.complete else EXIT_BUDGET


def _verify_cases(args):
    """Yield (label, complex, formula_value) for the requested family sweep."""
    rng = random.Random(args.seed)
    if args.family == "forests":
        for i in range(args.samples):
            n = rng.randint(1, args.max_v)
            c = random_forest(n, rng.randrange(1 << 30))
            st = graph_stats(c)
            yield f"forest[{i}] v={st.v}", c, forest_value(
                st.v, st.component_count).value
    elif args.family == "bipartite":
        for i in range(args.samples):
            n = rng.randint(1, args.max_v)
            c = random_bipartite(n, 0.5, rng.randrange(1 << 30))
            st = graph_stats(c)
            yield f"bipartite[{i}] v={st.v} e={st.e}", c, bipartite_value(
                st.v % 2, st.e % 2).value
    elif args.family == "complete":
        for n in range(1, args.max + 1):
            yield f"K_{n}", complete_npartite([1] * n), \
                complete_graph_value(n).value
    elif args.family == "npartite":
        def partitions(total, cap):
            if total == 0:
                yield []
                return
            for first in range(min(total, cap), 0, -1):
                for rest in partitions(total - first, first):
                    yield [first] + rest
        for total in range(2, args.max_v + 1):
            for parts in partitions(total, total):
                if len(parts) < 2:
                    continue
                yield f"K_{{{','.join(map(str, parts))}}}", \
                    complete_npartite(parts), \
                    complete_npartite_value(parts).value
    elif args.family == "gmk":
        for m in range(args.max + 1):
            for k in range(args.max - m + 1):
                yield f"G_{{{m},{k}}}", gmk(m, k, args.cycle), \
                    gmk_recurrence(m, k)
    else:
        raise InvalidInputError(f"unknown verify family: {args.family}")


def cmd_verify(args) -> int:
    cfg = _config_from(args)
    table, cache_path = _open_table(args, cfg)
    failures = []
    checked = 0
    oracle_memo: dict = {}
    for label, c, expected in _verify_cases(args):
        rec = grundy(c, cfg, table, args.budget)
        checked += 1
        ok = rec.value == expected
        if ok and args.oracle:
            try:
                ok = oracle_grundy(c, DEFAULT_ORACLE_BUDGET, oracle_memo) \
                    == expected
            except OracleBudgetError:
                pass
        if not ok:
            failures.append({"case": label, "formula": expected,
                            "engine": rec.value})
            print(f"FAIL {label}: formula {expected}, engine {rec.value}")
    if cache_path:
        table.save(cache_path)
    summary = {"family": args.family, "checked": checked,
               "failures": failures, "pass": not failures}
    if args.json:
        print(_jdump(summary))
    else:
        verdict = "pass" if not failures else "FAIL"
        print(f"{args.family}: {checked} cases, "
              f"{len(failures)} disagreements -> {verdict}")
    return EXIT_OK if not failures else EXIT_FAIL


def _forest_table() -> list[list[str]]:
    rows = [["components", "v even", "v odd"]]
    rows.append(["all even", "0", "3"])
    rows.append(["some odd", "2", "1"])
    return rows


def _bipartite_table() -> list[list[str]]:
    rows = [["", "e even", "e odd"]]
    for vp, name in ((0, "v even"), (1, "v odd")):
        rows.append([name] + [
            str(bipartite_value(vp, ep).value) for ep in (0, 1)])
    return rows


def _gmk_table(size: int = 12) -> list[list[str]]:
    memo: dict = {}
    rows = [["m\\k"] + [str(k) for k in range(size + 1)]]
    for m in range(size + 1):
        rows.append([str(m)] + [
            str(gmk_recurrence(m, k, memo)) for k in range(size + 1)])
    return rows


def _block_table(size: int = 7) -> list[list[str]]:
    rows = [["a\\b"] + [str(b) for b in range(size + 1)]]
    for a in range(size + 1):
        rows.append([str(a)] + [str(4 * ((a ^ b) + 1))
                                for b in range(size + 1)])
    return rows


def cmd_tables(args) -> int:
    sections = {
        "forest": _forest_table,
        "bipartite": _bipartite_table,
        "gmk": _gmk_table,
        "block": _block_table,
    }
    names = list(sections) if args.which == "all" else [args.which]
    out = []
    for name in names:
        rows = sections[name]()
        if args.format == "csv":
            out.append("\n".join(",".join(r) for r in rows))
        else:
            widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
            out.append(f"[{name}]")
            for r in rows:
                out.append("  ".join(cell.rjust(w)
                                     for cell, w in zip(r, widths)))
        out.append("")
    text = "\n".join(out).rstrip() + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_move(line: str, c: SimplicialComplex) -> int:
    verts = [int(tok) for tok in line.replace(",", " ").split()]
    if not verts:
        raise ValueError("empty move")
    mask = mask_of(verts)
    if mask not in c.faces:
        raise IllegalMoveError(f"{verts} is not a face")
    return mask


def cmd_play(args) -> int:
    c = _load_position(args)
    cfg = _config_from(args)
    table = TranspositionTable(cfg.memo_capacity)
    transcript = []
    human_turn = not args.solver_first
    print("enter a face as a space-separated vertex list; "
          "last player to move wins")
    while c.faces:
        print(f"position facets: {_faces_json(c)}")
        if human_turn:
            try:
                line = input("your move> ")
            except EOFError:
                print("\nsession ended")
                break
            try:
                mask = _parse_move(line, c)
            except (ValueError, IllegalMoveError) as exc:
                print(f"illegal move ({exc}); try again")
                continue
            mover = "human"
        else:
            rec = grundy(c, cfg, table, args.budget)
            mask = rec.witness_moves.get(0)
            if mask is None:
                mask = moves(c)[0]
            print(f"solver removes {list(vertices_of(mask))}")
            mover = "solver"
        transcript.append({"player": mover,
                           "face": list(vertices_of(mask))})
        c = remove_face(c, mask)
        human_turn = not human_turn
    else:
        winner = transcript[-1]["player"] if transcript else "nobody"
        print(f"game over: {winner} made the last move and wins")
    if args.transcript:
        with open(args.transcript, "w") as fh:
            fh.write(_jdump(transcript) + "\n")
    return EXIT_OK


def cmd_scan(args) -> int:
    cfg = _config_from(args)
    table, cache_path = _open_table(args, cfg)
    done_ids = set()
    prior_rows = []
    if args.resume and args.out and os.path.exists(args.out):
        prior_rows = conjectures.load_report(args.out)
        done_ids = {row["id"] for row in prior_rows}

    if args.conjecture == "wheels":
        rows = conjectures.scan_wheels(args.max, cfg, table, args.budget)
        bad = [r for r in rows if r.get("verified") and r.get("value") != 1]
    elif args.conjecture == "multi":
        rows = conjectures.scan_multi_attachment(
            args.cycle, args.vmax, cfg, table, args.budget)
        bad = [r for r in rows
               if r.get("status") == "ok" and not r.get("agree")]
    elif args.conjecture == "tails":
        if not args.base:
            raise InvalidInputError("scan tails requires --base")
        base = generate(parse_family(args.base))
        seq = conjectures.scan_tails(
            base, args.attach, args.kmax, base_label=args.base,
            cfg=cfg, table=table, node_budget=args.budget)
        rows = [seq.to_row()]
        bad = [r for r in rows
               if any(v % 4 == 1 for v in r["values"])]
    else:
        raise InvalidInputError(f"unknown conjecture: {args.conjecture}")

    rows = [r for r in rows if r["id"] not in done_ids]
    all_rows = prior_rows + rows
    if args.out:
        conjectures.write_report(all_rows, args.out)
    if args.json:
        print(_jdump({"rows": all_rows, "violations": len(bad)}))
    else:
        for row in rows:
            print(_jdump(row))
        print(f"{args.conjecture}: {len(all_rows)} rows, "
              f"{len(bad)} violations")
    if cache_path:
        table.save(cache_path)
    return EXIT_OK if not bad else EXIT_FAIL


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache", help="transposition table file "
                   "(or CHOMP_CACHE env var; the flag wins)")
    p.add_argument("--no-reduction", action="store_true")
    p.add_argument("--no-closed-forms", action="store_true")
    p.add_argument("--no-decomposition", action="store_true")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check or solve with the brute-force oracle")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None,
                   help="node budget for the search")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="graphchomp",
        description="exact solver for subset take-away on simplicial "
                    "complexes and graph chomp")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="nim-value / P-N classification")
    p.add_argument("--input", help=".cplx or .edges file")
    p.add_argument("--family", help="family spec, e.g. complete:4 or "
                   "gmk:m=2,k=5,cycle=3")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="iterate symmetry reduction to "
                       "simplest form")
    p.add_argument("--input")
    p.add_argument("--family")
    p.add_argument("--out", help="write the final position to this file")
    _add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="sweep a closed-form family against "
                       "the engine")
    p.add_argument("family", choices=["forests", "bipartite", "complete",
                                      "npartite", "gmk"])
    p.add_argument("--max-v", type=int, default=8)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--max", type=int, default=6)
    p.add_argument("--cycle", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tables", help="re-emit the closed-form value tables")
    p.add_argument("--which", choices=["all", "forest", "bipartite", "gmk",
                                       "block"], default="all")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("play", help="interactive game against the solver")
    p.add_argument("--input")
    p.add_argument("--family")
    p.add_argument("--solver-first", action="store_true")
    p.add_argument("--transcript", help="save the move list to this file")
    _add_common(p)
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("scan", help="conjecture sweeps")
    p.add_argument("conjecture", choices=["wheels", "tails", "multi"])
    p.add_argument("--max", type=int, default=7, help="wheels: largest n")
    p.add_argument("--base", help="tails: base family spec")
    p.add_argument("--attach", type=int, default=0,
                   help="tails: attachment vertex")
    p.add_argument("--kmax", type=int, default=9)
    p.add_argument("--vmax", type=int, default=8, help="multi: vertex cap")
    p.add_argument("--cycle", type=int, default=3)
    p.add_argument("--out", help="JSONL report path")
    p.add_argument("--resume", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (InvalidInputError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceededError, TableCapacityError, OracleBudgetError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
