"""The benchmark's tracer wraps layer functions by name; a refactor that
deletes or renames one must fail here, not only in the slower traced run."""

import json
import subprocess
import sys
from pathlib import Path

SOLVERBENCH = Path(__file__).resolve().parent.parent / "solverbench"


def test_tracer_installs_on_every_layer_function():
    script = (
        f"import sys; sys.path.insert(0, {str(SOLVERBENCH)!r})\n"
        "from tracing import Tracer\n"
        "Tracer().install()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_traced_solves_reach_every_rule_and_symmetry_function():
    # a layer function kept by name but no longer called would read 0 in
    # the per-layer metrics; these solves must go through each of them
    script = (
        f"import json, sys; sys.path.insert(0, {str(SOLVERBENCH)!r})\n"
        "from tracing import Tracer\n"
        "tracer = Tracer().install()\n"
        "from graphchomp import engine, families\n"
        "for c in (families.gmk(1, 2), families.hairball(5, [[1], [2]]),\n"
        "          families.wheel(6)):\n"
        "    engine.grundy(c)\n"
        "print(json.dumps({name: layer['calls'] for name, layer in\n"
        "                  tracer.summary().items() if name[0] != '_'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    targets = {name: n for name, n in calls.items()
               if name.startswith(("closed_forms.", "symmetry."))}
    assert len(targets) == 5, calls
    assert all(n > 0 for n in targets.values()), targets


def test_traced_solves_reach_the_component_walk():
    # a solve that may find the root's parts in its table splits the root
    # through complexes.components, so the per-layer complexes.components
    # metrics of a second solve on one table are not 0; a fresh table
    # knows no part, and its solve does not split the root there
    script = (
        f"import json, sys; sys.path.insert(0, {str(SOLVERBENCH)!r})\n"
        "from tracing import Tracer\n"
        "tracer = Tracer().install()\n"
        "from graphchomp import engine, families\n"
        "table = engine.TranspositionTable()\n"
        "calls = []\n"
        "for _ in range(2):\n"
        "    engine.grundy(families.wheel(6), table=table)\n"
        "    calls.append(tracer.summary()['complexes.components']['calls'])\n"
        "print(json.dumps(calls))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    first, second = json.loads(proc.stdout)
    assert first == 0 and second > 0, (first, second)


def test_traced_engine_keys_go_through_position_key():
    # every table miss is a position keyed once, through canon.position_key,
    # so a tracer that wraps that name sees at least as many calls
    script = (
        f"import json, sys; sys.path.insert(0, {str(SOLVERBENCH)!r})\n"
        "from tracing import Tracer\n"
        "tracer = Tracer().install()\n"
        "from graphchomp import engine, families\n"
        "table = engine.TranspositionTable()\n"
        "engine.grundy(families.erdos_renyi(7, 0.5, 11), table=table)\n"
        "print(json.dumps([tracer.summary()['canon.position_key']['calls'],\n"
        "                  table.misses]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    calls, misses = json.loads(proc.stdout)
    assert misses > 0 and calls >= misses, (calls, misses)


def test_traced_engine_walks_each_graph_node_once():
    # graph_stats is the only walk over a graph, and a node asks it once:
    # a closed-form rule that walked the graph again would show up here
    script = (
        f"import json, sys; sys.path.insert(0, {str(SOLVERBENCH)!r})\n"
        "from tracing import Tracer\n"
        "tracer = Tracer().install()\n"
        "from graphchomp import engine, families\n"
        "record = engine.grundy(families.erdos_renyi(7, 0.5, 11),\n"
        "                       table=engine.TranspositionTable())\n"
        "print(json.dumps([tracer.summary()['complexes.graph_stats']['calls'],\n"
        "                  record.stats['nodes']]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    calls, nodes = json.loads(proc.stdout)
    assert nodes > 0 and calls == nodes, (calls, nodes)
