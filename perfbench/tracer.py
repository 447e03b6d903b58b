"""Spans around calls into pocfvs, recorded from outside the package.

``install`` wraps each public function named in ``TARGETS`` and rebinds the
wrapper under every name that holds the original in a ``pocfvs.*`` module
namespace, so calls between modules (``harness -> canonical_form``,
``min_fvs -> shortest_cycle``) are caught as well as the benchmark's own.
Spans stay in flat arrays while the pass runs; ``layer_metrics`` derives
the per-layer figures from them and ``write_spans`` writes them out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

# (module, attribute, span name, what the wrapper keeps from the call)
TARGETS = [
    ("iso", "canonical_form", "iso.canonical_form", None),
    ("iso", "find_induced_embedding", "iso.find_induced_embedding", "found"),
    ("iso", "is_free", "iso.is_free", None),
    ("harness", "enumerate_connected", "harness.enumerate_connected", "level"),
    ("harness", "evaluate_graphs", "harness.evaluate_graphs", None),
    ("harness", "unboundedness_witnesses", "harness.unboundedness_witnesses", None),
    ("solvers", "min_fvs", "solvers.min_fvs", "explored"),
    ("solvers", "shortest_cycle", "solvers.shortest_cycle", None),
    ("solvers", "min_cfvs", "solvers.min_cfvs", "explored"),
    ("solvers", "min_ds", "solvers.min_ds", "explored"),
    ("solvers", "min_cds", "solvers.min_cds", "explored"),
    ("solvers", "is_fvs", "solvers.is_fvs", None),
    ("solvers", "is_cfvs", "solvers.is_cfvs", None),
    ("constructive", "connectify_sp3", "constructive.connectify_sp3", None),
    ("constructive", "move_step", "constructive.move_step", None),
    ("constructive", "connectify_p5sp1", "constructive.connectify_p5sp1", None),
    ("constructive", "connectify_by_paths", "constructive.connectify_by_paths", None),
    ("cover", "covers_bruteforce", "cover.covers_bruteforce", None),
    ("cover", "covered_pairs", "cover.covered_pairs", None),
    ("cover", "family_covers_all", "cover.family_covers_all", None),
    ("cover", "classify_pair", "cover.classify_pair", None),
    ("generators", "from_spec", "generators.from_spec", None),
    ("graph6", "encode", "graph6.encode", None),
    ("graph6", "decode", "graph6.decode", None),
]
CONSTRUCTIVE = [name for _, _, name, _ in TARGETS if name.startswith("constructive.")]
MATCHER = ["iso.is_free", "iso.find_induced_embedding"]
COUNTED = {  # span name -> the per-layer fields reported for it
    "iso.canonical_form": ("calls", "busy_s", "self_s", "max_ms"),
    "iso.find_induced_embedding": ("calls", "busy_s"),
    "iso.is_free": ("calls", "busy_s"),
    "harness.enumerate_connected": ("busy_s", "self_s"),
    "harness.evaluate_graphs": ("busy_s", "self_s"),
    "harness.unboundedness_witnesses": ("busy_s",),
    "solvers.min_fvs": ("calls", "busy_s", "self_s"),
    "solvers.shortest_cycle": ("calls", "busy_s"),
    "solvers.min_cfvs": ("calls", "busy_s"),
    "solvers.min_ds": ("calls", "busy_s"),
    "solvers.min_cds": ("calls", "busy_s"),
    "solvers.is_fvs": ("calls", "busy_s"),
    "solvers.is_cfvs": ("calls", "busy_s"),
    **{name: ("calls", "busy_s", "self_s") for name in CONSTRUCTIVE},
    "cover.covers_bruteforce": ("calls", "busy_s"),
    "cover.covered_pairs": ("calls", "busy_s"),
    "cover.family_covers_all": ("calls", "busy_s"),
    "cover.classify_pair": ("calls", "busy_s"),
    "graph.rmul": ("calls", "busy_s"),
    "generators.from_spec": ("busy_s",),
    "graph6.encode": ("calls", "busy_s"),
    "graph6.decode": ("calls", "busy_s"),
}
EXPLORED = ["solvers.min_fvs", "solvers.min_cfvs", "solvers.min_ds", "solvers.min_cds"]
LEVELS = range(1, 9)
CRITERIA = range(1, 14)


def metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in report order."""
    names = [f"{span}.{field}" for span, fields in COUNTED.items() for field in fields]
    names += [f"{span}.explored" for span in EXPLORED]
    names += [
        "iso.find_induced_embedding.found_ratio",
        "harness.enumerate_connected.kept_ratio",
        "solvers.min_fvs.cycle_cache_hit_ratio",
        "constructive.precheck_s",
    ]
    names += [f"harness.level{n}.{f}" for n in LEVELS for f in ("graphs", "tried")]
    names += [f"verification.criterion{c:02d}.wall_s" for c in CRITERIA]
    return names


class Tracer:
    """Flat span store: name id, parent index, start, end, plus kept values."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.values: dict[int, object] = {}
        self._stack: list[int] = []
        self._active: list[int] = []
        self.absent: dict[str, str] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._active[self.name[i]] -= 1

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; the benchmark uses this for root spans."""
        i = self.open(self.intern(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def wrap(self, name: str, fn, keep=None):
        nid = self.intern(name)
        seen_levels: dict[int, list] = {}  # holds each list so its id stays unique

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if keep == "explored":
                self.values[i] = result.explored
            elif keep == "found":
                self.values[i] = result is not None
            elif keep == "level":
                # a level list is built once and then served from the cache,
                # so a list object not seen before marks a computed level
                computed = id(result) not in seen_levels
                seen_levels[id(result)] = result
                self.values[i] = (args[0], len(result), computed)
            return result

        return traced

    # -- after the pass ----------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def roots_s(self) -> float:
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def layer_metrics(self) -> dict[str, float]:
        dur = self.durations()
        n_names = len(self.names)
        calls = [0] * n_names
        busy = [0.0] * n_names
        self_s = [0.0] * n_names
        max_s = [0.0] * n_names
        for i, (nid, p, d) in enumerate(zip(self.name, self.parent, dur)):
            calls[nid] += 1
            if self.outer[i]:
                busy[nid] += d
            self_s[nid] += d
            if p >= 0:
                self_s[self.name[p]] -= d
            if d > max_s[nid]:
                max_s[nid] = d

        def ids(*names):
            return {self._ids[n] for n in names if n in self._ids}

        def get(name, table):
            nid = self._ids.get(name)
            return table[nid] if nid is not None else 0

        out: dict[str, float] = {}
        for span, fields in COUNTED.items():
            for field in fields:
                table = {"calls": calls, "busy_s": busy, "self_s": self_s}.get(field)
                out[f"{span}.{field}"] = (
                    get(span, table) if table is not None else get(span, max_s) * 1e3
                )
        explored = {span: 0 for span in EXPLORED}
        found = 0
        graphs = {n: 0 for n in LEVELS}
        tried = {n: 0 for n in LEVELS}
        level_of: dict[int, int] = {}
        for i, value in self.values.items():
            span = self.names[self.name[i]]
            if span in explored:
                explored[span] += value
            elif span == "iso.find_induced_embedding":
                found += value
            else:
                n, size, computed = value
                level_of[i] = n
                if computed and n in graphs:
                    graphs[n] += size
        canon, fvs, cycle = ids("iso.canonical_form"), ids("solvers.min_fvs"), ids("solvers.shortest_cycle")
        constructive, matcher = ids(*CONSTRUCTIVE), ids(*MATCHER)
        cycle_misses = 0
        precheck = 0.0
        for nid, p, d in zip(self.name, self.parent, dur):
            if p < 0:
                continue
            if nid in canon and p in level_of and level_of[p] in tried:
                tried[level_of[p]] += 1
            elif nid in cycle and self.name[p] in fvs:
                cycle_misses += 1
            elif nid in matcher and self.name[p] in constructive:
                precheck += d
        for span in EXPLORED:
            out[f"{span}.explored"] = explored[span]
        fie_calls = get("iso.find_induced_embedding", calls)
        out["iso.find_induced_embedding.found_ratio"] = self._ratio(
            "iso.find_induced_embedding.found_ratio", found, fie_calls, "no matcher calls"
        )
        out["harness.enumerate_connected.kept_ratio"] = self._ratio(
            "harness.enumerate_connected.kept_ratio",
            sum(graphs[n] for n in LEVELS if n > 1),
            sum(tried[n] for n in LEVELS if n > 1),
            "no level above 1 was computed",
        )
        name = "solvers.min_fvs.cycle_cache_hit_ratio"
        # min_fvs memoises shortest_cycle per mask, so each call under it is a miss
        miss = self._ratio(name, cycle_misses, explored["solvers.min_fvs"], "min_fvs never ran")
        out[name] = 1 - miss if explored["solvers.min_fvs"] else miss
        out["constructive.precheck_s"] = precheck
        for n in LEVELS:
            out[f"harness.level{n}.graphs"] = graphs[n]
            out[f"harness.level{n}.tried"] = tried[n]
        for c in CRITERIA:
            out[f"verification.criterion{c:02d}.wall_s"] = get(f"verification.criterion{c:02d}", busy)
        return out

    def _ratio(self, name: str, num: float, den: float, reason: str) -> float:
        if den:
            return num / den
        self.absent[name] = f"no base, reported as 0: {reason}"
        return 0.0

    def write_spans(self, path) -> None:
        """Write every span as ``index name parent start end`` (gzip, tab-separated)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tparent\tstart_s\tend_s\n")
            for i, (nid, p, s, e) in enumerate(zip(self.name, self.parent, self.start, self.end)):
                out.write(f"{i}\t{self.names[nid]}\t{p}\t{s:.9f}\t{e:.9f}\n")


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind it wherever a pocfvs module holds it."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "pocfvs" and m]
    for module_name, attr, span, keep in TARGETS:
        owner = importlib.import_module(f"pocfvs.{module_name}")
        original = getattr(owner, attr, None)
        if original is None:
            tracer.absent[span] = f"pocfvs.{module_name}.{attr} does not exist"
            continue
        wrapped = tracer.wrap(span, original, keep)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    graph_cls = importlib.import_module("pocfvs.graph").Graph
    graph_cls.__rmul__ = tracer.wrap("graph.rmul", graph_cls.__rmul__)
    verification = importlib.import_module("pocfvs.verification")
    # run_suite reads the criterion functions from this table, not from names
    verification.CRITERIA = [
        (num, name, tag, tracer.wrap(f"verification.criterion{num:02d}", fn))
        for num, name, tag, fn in verification.CRITERIA
    ]
