"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``homdual`` module that holds a reference to it (``from .homs import
find_homomorphism`` copies the name), so calls made inside the library are
attributed to the callee too. Each span records its function, start, end,
parent span and pass id; spans stay in memory and are reduced when the
benchmark ends. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import sys

TRACED = {
    "catalog": ("generate_all_graphs",),
    "homs": ("is_isomorphic", "find_homomorphism", "forb_member", "core",
             "enumerate_homomorphisms"),
    "sparsity": ("tree_depth", "verify_td", "tree_depth_value", "grad_r", "grad_0_flow",
                 "min_indegree_orientation", "degeneracy", "expansion_profile"),
    "coloring": ("centered_from_td", "verify_p_centered", "find_low_td_coloring",
                 "verify_low_td"),
    "duality": ("representatives", "truncated_power", "power_local_property", "build_dual",
                "verify_duality", "local_hom_check", "locbound_equivalence"),
    "powers": ("odd_girth", "exact_power", "chromatic_number"),
    "formats": ("parse_graph6", "to_graph6", "parse_edge_list"),
}
FUNCTIONS = [f"{m}.{f}" for m, names in TRACED.items() for f in names]
GENERATORS = {"homs.enumerate_homomorphisms"}


def _row_bytes(G) -> int:
    return sum((row.bit_length() + 7) // 8 for row in G.rows)


def _observe(counts: dict, name: str, args, result) -> None:
    """Work counters read off arguments and results, outside the span."""
    if name == "catalog.generate_all_graphs":
        counts["catalog.graphs_out"] += len(result)
    elif name == "homs.is_isomorphic":
        counts["homs.is_isomorphic.true"] += bool(result)
    elif name == "homs.find_homomorphism":
        counts["homs.find_homomorphism." + result.status] += 1
    elif name == "coloring.verify_p_centered":
        counts["coloring.verify_p_centered.fails"] += not result[0]
    elif name == "duality.representatives":
        counts["duality.representatives.count"] += len(result)
    elif name == "duality.truncated_power":
        counts["duality.truncated_power.order"] += result.D.n
        counts["duality.truncated_power.edges"] += result.D.edge_count()
        counts["duality.truncated_power.row_bytes"] += _row_bytes(result.D)
    elif name == "formats.parse_graph6":
        counts["formats.parse_graph6.bytes"] += len(args[0])
    elif name == "formats.to_graph6":
        counts["formats.to_graph6.bytes"] += len(result)


COUNTERS = ["catalog.graphs_out", "homs.is_isomorphic.true", "homs.find_homomorphism.present",
            "homs.find_homomorphism.absent", "homs.find_homomorphism.budget",
            "homs.enumerate_homomorphisms.maps", "coloring.verify_p_centered.fails",
            "duality.representatives.count", "duality.truncated_power.order",
            "duality.truncated_power.edges", "duality.truncated_power.row_bytes",
            "formats.parse_graph6.bytes", "formats.to_graph6.bytes"]


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []  # [function index, start, end, parent span, pass id]
        self.counts: dict[str, int] = {}
        self.pass_id = -1
        self._stack = [-1]
        self._restore: list[tuple] = []

    def start_pass(self) -> None:
        self.pass_id += 1
        self.counts = dict.fromkeys(COUNTERS + [f + ".calls" for f in FUNCTIONS], 0)

    def _open(self, fid: int) -> list:
        span = [fid, 0.0, 0.0, self._stack[-1], self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        return span

    def _close(self, span: list) -> None:
        span[2] = self.clock()
        self._stack.pop()

    def _wrap(self, fid: int, name: str, fn):
        calls = name + ".calls"

        if name in GENERATORS:
            maps = name + ".maps"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.counts[calls] += 1
                it = fn(*args, **kwargs)
                while True:
                    span = self._open(fid)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    self.counts[maps] += 1
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            span = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            _observe(self.counts, name, args, result)
            return result
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for fid, name in enumerate(FUNCTIONS):
            mod, attr = name.split(".")
            fn = getattr(importlib.import_module("homdual." + mod), attr)
            wrappers[id(fn)] = self._wrap(fid, name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "homdual" and not modname.startswith("homdual."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def self_times(self) -> list[dict[str, list[float]]]:
        """Per pass: function -> durations and self times of its spans."""
        child = [0.0] * len(self.spans)
        for fid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: list[dict] = [{} for _ in range(self.pass_id + 1)]
        for i, (fid, t0, t1, _, pid) in enumerate(self.spans):
            entry = out[pid].setdefault(FUNCTIONS[fid], [[], 0.0])
            entry[0].append(t1 - t0)
            entry[1] += t1 - t0 - child[i]
        return out
