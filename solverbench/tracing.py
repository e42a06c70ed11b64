"""Spans around the public functions of each layer, recorded from outside.

The program imports names with ``from .x import y``, so a function is
wrapped at every attribute of every loaded ``graphchomp`` module that holds
it.  Spans live in flat arrays in memory; self time (a span's duration
minus the time its child spans cover) is computed from them at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

CFG_FLAGS = ("none", "D", "C", "CD", "R", "RD", "RC", "RCD")
RULES = (
    "empty", "forest", "bipartite", "complete-npartite", "cycle",
    "gmk-base", "gmk-block", "hairball", "odd-pseudotree-single-attachment",
)


def cfg_flags(cfg) -> str:
    """Toggle name: R(eduction), C(losed forms), D(ecomposition), or none."""
    if cfg is None:
        return "RCD"
    name = ("R" if cfg.use_reduction else "") + \
        ("C" if cfg.use_closed_forms else "") + \
        ("D" if cfg.use_decomposition else "")
    return name or "none"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.busy_ns: Counter = Counter()
        self.nodes = 0

    def _wrap(self, name: str, fn, outcome=None):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span_end[idx] = end
                stack.pop()
            if outcome is not None:
                outcome(args, kwargs, result, end - span_start[idx])
            return result

        return traced

    def install(self) -> "Tracer":
        from graphchomp import (  # noqa: F401  (loads every module)
            canon, closed_forms, complexes, conjectures, engine, symmetry,
        )

        count = self.counts

        def hit(name):
            def outcome(args, kwargs, result, _ns):
                if result is not None and result is not False:
                    count[name] += 1
            return outcome

        def position_key(args, kwargs, result, _ns):
            if not result.exact:
                count["canon.position_key.labeled"] += 1

        def components(args, kwargs, result, _ns):
            if len(result) > 1:
                count["complexes.components.split"] += 1

        def closed_form(name):
            def outcome(args, kwargs, result, _ns):
                if result is not None:
                    count[name] += 1
                    rule = result[1] if result[1] in RULES else "other"
                    count[f"closed_forms.rule.{rule}.hits"] += 1
            return outcome

        def grundy(args, kwargs, result, ns):
            cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
            self.busy_ns[f"engine.cfg.{cfg_flags(cfg)}"] += ns
            self.nodes += result.stats["nodes"]

        targets = [
            (canon, "position_key", "canon.position_key", position_key),
            (canon, "canonical_key", "canon.canonical_key", None),
            (canon, "canonical_order", "canon.canonical_order", None),
            (canon, "refinement_colors", "canon.refinement_colors", None),
            (symmetry, "find_reduction", "symmetry.find_reduction",
             hit("symmetry.find_reduction.found")),
            (symmetry, "is_simplest_form", "symmetry.is_simplest_form", None),
            (closed_forms, "engine_fast_value", "closed_forms.engine_fast_value",
             closed_form("closed_forms.engine_fast_value.hit")),
            (closed_forms, "wants_simplest_certificate",
             "closed_forms.wants_simplest_certificate",
             hit("closed_forms.wants_simplest_certificate.hit")),
            (closed_forms, "engine_certified_value",
             "closed_forms.engine_certified_value",
             closed_form("closed_forms.engine_certified_value.hit")),
            (complexes, "components", "complexes.components", components),
            (complexes, "graph_stats", "complexes.graph_stats", None),
            (engine, "grundy", "engine.grundy", grundy),
            (conjectures, "scan_multi_attachment", "conjectures", None),
            (conjectures, "scan_tails", "conjectures", None),
            (conjectures, "scan_wheels", "conjectures", None),
        ]
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "graphchomp"
                                         or name.startswith("graphchomp."))]
        for module, attr, name, outcome in targets:
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, outcome)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        return self

    def summary(self) -> dict:
        """Per layer name: calls and self seconds, plus the counters."""
        n = len(self.span_start)
        child = array("q", bytes(8 * n))
        dur = array("q", bytes(8 * n))
        for i in range(n):
            d = self.span_end[i] - self.span_start[i]
            dur[i] = d
            p = self.span_parent[i]
            if p >= 0:
                child[p] += d
        calls = Counter()
        own = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            own[name] += dur[i] - child[i]
        return {
            name: {"calls": calls[name], "self_s": own[name] / 1e9}
            for name in self.names
        } | {"_counts": dict(self.counts),
             "_busy_s": {k: v / 1e9 for k, v in self.busy_ns.items()},
             "_nodes": self.nodes, "_spans": n}
