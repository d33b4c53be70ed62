"""Spans around the public functions of every ``cisgraphs`` module.

The tracer works from outside the package: it replaces each public
module-level function with a wrapper that records a span (name, parent
span, start, end), and it rebinds every copy of that function that
``from .x import y`` left in another module.  Nothing under ``src/``
changes.

Functions left unwrapped, with the reason:

* generator functions (``bits``, ``induced_p4s``, ...): the call returns
  before the work is done, so a span would time nothing;
* ``graphs.mask_of``: a bit-packing helper called once per 4-subset by the
  forbidden-subgraph scans (about 10^5 calls per 36-vertex graph).  Its
  time stays in the caller's self time.

``hasse.MembershipCache.base`` is wrapped as well, because the scan's
cache hit ratio is measured there.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

MODULES = (
    "graphs", "cliques", "recognizers", "lp", "equistable", "search",
    "linegraph", "gallery", "hasse", "cli",
)
SKIPPED = frozenset({"graphs.mask_of"})


class Tracer:
    """In-memory span store.  Spans are kept as parallel arrays; a span's
    parent is the span that was open when it started (single thread)."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")     # name id, negated when nested in itself
        self.parent = array("i")   # index of the parent span, -1 at the root
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._depth = []           # open spans per name id
        self.errors = {}           # (name, exception type) -> count
        self.truthy = {}           # name -> calls that returned a true value
        self.family_size_max = 0   # largest maximal_cliques result

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names) + 1  # 0 cannot be negated
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped so that each call records one span."""
        nid = self._id(name)
        names, parents = self.name, self.parent
        starts, ends = self.start, self.end
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            depth[nid - 1] += 1
            names.append(nid if depth[nid - 1] == 1 else -nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = (name, type(exc).__name__)
                self.errors[key] = self.errors.get(key, 0) + 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                depth[nid - 1] -= 1
            if on_result is not None:
                on_result(name, result)
            return result

        return traced

    def _count_truthy(self, name, result):
        if result:
            self.truthy[name] = self.truthy.get(name, 0) + 1

    def _family_size(self, name, result):
        if len(result) > self.family_size_max:
            self.family_size_max = len(result)

    def install(self):
        """Wrap the public functions of every module and rebind the copies.

        Must run before the first ``recognizers.base_predicate`` call,
        because that call captures the predicate functions in a table.
        """
        mods = {m: importlib.import_module(f"cisgraphs.{m}") for m in MODULES}
        if mods["recognizers"]._PREDICATES is not None:
            raise RuntimeError("tracer installed after base_predicate ran")
        hooks = {
            "graphs.is_isomorphic": self._count_truthy,
            "cliques.maximal_cliques": self._family_size,
        }
        wrapped = {}  # id(original) -> wrapper
        for m, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{m}.{attr}"
                if (attr.startswith("_") or name in SKIPPED
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapped[id(obj)] = self.span(name, obj, hooks.get(name))
        package = importlib.import_module("cisgraphs")
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        cache = mods["hasse"].MembershipCache
        cache.base = self.span("hasse.MembershipCache.base", cache.base)

    # -- aggregation ----------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost calls only)
        and self seconds (duration minus the time its child spans cover);
        per module: seconds inside it, entered from another module; and
        per (parent name, child name): calls."""
        n = len(self.start)
        child_cover = [0.0] * n
        durations = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_cover[p] += durations[i]
        per_name = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names
        }
        edges = {}
        module_s = {}
        for i in range(n):
            nid = self.name[i]
            name = self.names[abs(nid) - 1]
            rec = per_name[name]
            rec["calls"] += 1
            if nid > 0:
                rec["s"] += durations[i]
            rec["self_s"] += durations[i] - child_cover[i]
            module = name.split(".", 1)[0]
            p = self.parent[i]
            parent = self.names[abs(self.name[p]) - 1] if p >= 0 else ""
            if parent:
                key = f"{parent}>{name}"
                edges[key] = edges.get(key, 0) + 1
            if parent.split(".", 1)[0] != module:
                module_s[module] = module_s.get(module, 0.0) + durations[i]
        return {
            "spans": n,
            "names": per_name,
            "module_s": module_s,
            "edges": edges,
            "errors": {f"{k[0]}:{k[1]}": v for k, v in self.errors.items()},
            "truthy": dict(self.truthy),
            "family_size_max": self.family_size_max,
        }


# ---------------------------------------------------------------------------
# per-layer metrics, each with the end-to-end metric it should move
#
#   graphs.*            setup_s on scan7 (graph generation); no move elsewhere
#   cliques.*           wall_s on scan7 (tiny families), latency_p50_ms on
#                       lpfree-queries (large families)
#   recognizers.*       latency_p90_ms on lpfree-queries (split oracle) and
#                       lp-queries (is_perfect's odd-hole scan)
#   lp.*, equistable.*  latency on lp-queries, wall_s on scan7; lp.* reads 0
#                       on lpfree-queries
#   search.*            latency_p90_ms on lpfree-queries
#   linegraph.*         latency on lpfree-queries (cis-line requests)
#   hasse.*             wall_s on scan7
#   cli.*, gallery.*    query latency and setup_s
#
# The names and units are declared in BENCHMARK.json.


def layer_metrics(summary: dict, graphs: int, overhead_s: float) -> dict:
    """The per-layer metrics of one traced pass over ``graphs`` input
    graphs, as {name: value}; ratios with an empty base read 0."""
    names = summary["names"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def seconds(name):
        return names.get(name, {}).get("s", 0.0)

    def self_s(module):
        return sum(r["self_s"] for n, r in names.items()
                   if n.startswith(module + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    checks = calls("equistable.is_equistable") + \
        calls("equistable.is_strongly_equistable")
    base_calls = calls("hasse.MembershipCache.base")
    misses = summary["edges"].get(
        "hasse.MembershipCache.base>recognizers.base_predicate", 0)
    out = {
        # generation lives in hasse; it is the graphs layer's main client
        "graphs.nonisomorphic_graphs.s": seconds("hasse.nonisomorphic_graphs"),
        "graphs.is_isomorphic.calls": calls("graphs.is_isomorphic"),
        "graphs.is_isomorphic.true_ratio": ratio(
            summary["truthy"].get("graphs.is_isomorphic", 0),
            calls("graphs.is_isomorphic")),
        "cliques.maximal_cliques.calls": calls("cliques.maximal_cliques"),
        "cliques.maximal_cliques.s": seconds("cliques.maximal_cliques"),
        "cliques.maximal_cliques.calls_per_graph": ratio(
            calls("cliques.maximal_cliques"), graphs),
        "cliques.maximal_cliques.family_size_max": summary["family_size_max"],
        "recognizers.count_split_partitions.calls":
            calls("recognizers.count_split_partitions"),
        "recognizers.count_split_partitions.s":
            seconds("recognizers.count_split_partitions"),
        "recognizers.is_perfect.s": seconds("recognizers.is_perfect"),
        "lp.solve_equality_lp.calls": calls("lp.solve_equality_lp"),
        "lp.solve_equality_lp.s": seconds("lp.solve_equality_lp"),
        "lp.solves_per_check": ratio(calls("lp.solve_equality_lp"), checks),
        "lp.null_space.calls": calls("lp.null_space"),
        "lp.null_space.s": seconds("lp.null_space"),
        "equistable.checks": checks,
        "equistable.checks_per_graph": ratio(checks, graphs),
        "search.exists_cross_intersecting.calls":
            calls("search.exists_cross_intersecting"),
        "search.exists_cross_intersecting.s":
            seconds("search.exists_cross_intersecting"),
        "search.undecided": summary["errors"].get(
            "search.exists_cross_intersecting:SearchUndecided", 0),
        "linegraph.root_graph.s": seconds("linegraph.root_graph"),
        "linegraph.is_cis_line_root.s": seconds("linegraph.is_cis_line_root"),
        "linegraph.max_weight_matching.brute":
            calls("linegraph.max_weight_matching_brute"),
        "linegraph.max_weight_matching.blossom":
            calls("linegraph.max_weight_matching_blossom"),
        "linegraph.check_condition_vii.s":
            seconds("linegraph.check_condition_vii"),
        "hasse.cache_hit_ratio": ratio(base_calls - misses, base_calls),
        "gallery.s": summary["module_s"].get("gallery", 0.0),
        "trace.spans": summary["spans"],
        "trace.overhead_s": overhead_s,
    }
    for module in MODULES:
        out[f"{module}.self_s"] = self_s(module)
    return out
