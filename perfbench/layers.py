"""Spans around the solver's public functions, recorded from outside.

Each traced name is replaced, in every module that looks it up, by a
wrapper that records a span (name, parent span, start, end, decision).  A
layer's self time is its span's time minus its direct children's; totals
are summed as spans close, and the first spans of a run stay in memory to be
written out when the run ends.
Counters that need a call's arguments or result are taken by the same
wrappers.  A name the program no longer has is reported missing and skipped.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (metric prefix, [(module, attribute where callers look the name up)])
TRACED = [
    ("engine.solve", [("engine", "solve")]),
    ("cli.parse_instance", [("cli", "parse_instance")]),
    ("cli.emit_result", [("cli", "emit_result")]),
    ("graph.build_graph", [("cli", "build_graph"), ("graph", "build_graph")]),
    ("graph.connected_components", [("engine", "connected_components")]),
    ("graph.bipartite_check", [("engine", "bipartite_check"),
                               ("skeleton", "bipartite_check")]),
    ("graph.induced_subgraph", [("engine", "induced_subgraph"),
                                ("skeleton", "induced_subgraph")]),
    ("recognition.check_promise", [("engine", "check_promise")]),
    ("recognition.find_triangle", [("recognition", "find_triangle")]),
    ("recognition.find_induced_p7", [("recognition", "find_induced_p7")]),
    ("recognition.shortest_odd_cycle", [("engine", "shortest_odd_cycle")]),
    ("recognition.recognize_blownup_c7", [("engine", "recognize_blownup_c7")]),
    ("engine.colour_blownup_c7", [("engine", "colour_blownup_c7")]),
    ("skeleton.build_skeleton", [("engine", "build_skeleton")]),
    ("skeleton.build_chain", [("engine", "build_chain")]),
    ("skeleton.wd_components", [("skeleton", "wd_components")]),
    ("engine.enumerate_c5_colourings", [("engine", "enumerate_c5_colourings")]),
    ("engine.t_case_choices", [("engine", "t_case_choices")]),
    ("engine.d_case_choices", [("engine", "d_case_choices")]),
    ("engine.propagate", [("engine", "propagate")]),
    ("engine.ListState.copy", [("engine.ListState", "copy")]),
    ("engine.eliminate_safe", [("engine", "eliminate_safe")]),
    ("engine.residual_to_2sat", [("engine", "residual_to_2sat")]),
    ("sat2.solve_2sat", [("engine", "solve_2sat")]),
    ("engine.verify_colouring", [("engine", "verify_colouring")]),
]

COUNTERS = ("engine.anchor_colourings", "engine.anchor_colourings_alive",
            "engine.choices_built", "engine.choices_tried")


def _caller_name(depth):
    """Name of the function `depth` frames above the one calling this."""
    code = sys._getframe(depth + 1).f_code
    return getattr(code, "co_qualname", code.co_name)


class Tracer:
    """Installs the wrappers into the lcol3 modules given as a dict
    {"engine": module, ...}; `uninstall` puts the originals back."""

    def __init__(self, modules):
        self.modules = modules
        self.saved = []
        self.missing = []
        self.reset()

    def reset(self, keep_spans=0):
        """Clear the totals; keep up to `keep_spans` raw spans for writing."""
        self.decision = -1   # index of the decision being made
        self.keep_spans = keep_spans
        self.spans = []      # [label, parent index, start, end, decision]
        self.stack = []      # [span index, children's time] of open spans
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.counts = defaultdict(int)
        self.leaves = []     # (variables, clauses) per 2-SAT residual

    def _target(self, path):
        obj = self.modules.get(path.split(".")[0])
        for part in path.split(".")[1:]:
            obj = getattr(obj, part, None)
        return obj

    def install(self):
        self.missing = []
        for label, sites in TRACED:
            found = False
            for path, attr in sites:
                owner = self._target(path)
                original = getattr(owner, attr, None) if owner else None
                if original is None:
                    continue
                found = True
                self.saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(label, original))
            if not found:
                self.missing.append(label)

    def uninstall(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved = []

    def _wrap(self, label, original):
        on_result = getattr(self, "_on_" + label.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            stack = self.stack
            start = time.perf_counter()
            idx = len(self.spans)
            if idx < self.keep_spans:
                self.spans.append([label, stack[-1][0] if stack else -1,
                                   start, start, self.decision])
            frame = [idx, 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                took = end - start
                self.calls[label] += 1
                self.total[label] += took
                self.own[label] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if idx < len(self.spans):
                    self.spans[idx][3] = end
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # counters taken at the wrapped calls -------------------------------

    def _on_engine_enumerate_c5_colourings(self, result):
        self.counts["engine.anchor_colourings"] += len(result)

    def _on_engine_t_case_choices(self, result):
        self.counts["engine.choices_built"] += len(result)

    _on_engine_d_case_choices = _on_engine_t_case_choices

    def _on_engine_propagate(self, result):
        # Frame 0 is this method, 1 the wrapper, 2 propagate's caller:
        # base propagation of an anchor colouring runs in _solve_skeleton,
        # the search over choices in the recursion inside _leaf_stream.
        caller = _caller_name(2)
        if caller == "_solve_skeleton":
            if result is not None:
                self.counts["engine.anchor_colourings_alive"] += 1
        elif "_leaf_stream" in caller or caller == "rec":
            self.counts["engine.choices_tried"] += 1

    def _on_engine_residual_to_2sat(self, result):
        inst = result[0]
        self.leaves.append((inst.var_count, len(inst.clauses)))

    # aggregation ---------------------------------------------------------

    def pass_totals(self):
        """Per-label calls, inclusive ms and self ms since the last reset."""
        out = {}
        for label, _ in TRACED:
            out[label + ".calls"] = self.calls[label]
            out[label + ".ms"] = self.total[label] * 1000.0
            out[label + ".self_ms"] = self.own[label] * 1000.0
        for name in COUNTERS:
            out[name] = self.counts[name]
        vs = [v for v, _ in self.leaves]
        cs = [c for _, c in self.leaves]
        out["engine.residual_to_2sat.vars_mean"] = sum(vs) / len(vs) if vs else 0.0
        out["engine.residual_to_2sat.vars_max"] = max(vs, default=0)
        out["engine.residual_to_2sat.clauses_mean"] = sum(cs) / len(cs) if cs else 0.0
        out["engine.residual_to_2sat.clauses_max"] = max(cs, default=0)
        return out
