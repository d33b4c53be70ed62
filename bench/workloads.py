"""Seeded request streams for the three workloads, and the checks that
decide whether each output is correct.

A request is ``(kind, argv, stdin_text)`` for ``cisgraphs.cli.main``.  The
stream depends only on the workload name and the seed: graphs are built
with ``random.Random(f"{workload}/{seed}")`` and the program's own graph
constructors, and handed to the CLI as graph6 text on stdin.

Stream composition is stratified: every stratum (graph family, order,
density) holds a fixed number of graphs, and the seed only picks the
members and the order.  That keeps the cost of a stream close across
seeds while every seed still brings new graphs.
"""

from __future__ import annotations

import hashlib
import json
import random

from cisgraphs import gallery, hasse, linegraph
from cisgraphs.graphs import Graph, encode_graph6, random_graph

CLASSIFY = ["classify", "-i", "-", "--format", "json"]
EQUISTABLE = ["equistable", "-i", "-", "--verify", "--format", "json"]
CIS_LINE = ["cis-line", "-i", "-", "--verify", "--format", "json"]

# scan7: `cisgraphs scan --max-n 7`; the smoke size keeps the self-test short.
SCAN_MAX_N = 7
SMOKE_SCAN_MAX_N = 5

# lp-queries.  Gallery witnesses at 8..16 vertices get both requests;
# each seeded graph gets one request, so that no graph's cost counts
# twice.  Per request kind: (order, edge probability, graphs) and
# (order, graphs) for random split graphs.  Split graphs of one order
# cost about the same, so the 14-vertex ones fill the band around the
# 90th percentile latency, below the heaviest gallery graphs.
LP_GALLERY = ("FK", "F", "G12", "C5Star", "Cir9", "LK33", "C9", "SK")
LP_GNP = [(9, p, 8) for p in (0.3, 0.5, 0.7)]
LP_SPLIT = [(n, 3) for n in (9, 10, 11, 12)] + [(14, 8)]

# lpfree-queries.  Orders 17..36 stay above the LP and perfect-graph
# limits (16) and well inside the weakly-CIS search budget; split graphs
# at 18..20 vertices run the 2^n split-partition oracle.  The cost of a
# split graph's request hardly varies at a given order, so the 36-vertex
# split graphs sit at the median latency and the 18-vertex ones at the
# 90th percentile: the percentiles then move with the program, not with
# the seed.
LPFREE_PROJECTIVE = (3, 5)
LPFREE_GNP = [(n, p, k)  # (order, edge probability, graphs)
              for n, k in ((17, 4), (20, 4), (22, 4), (24, 4), (26, 3),
                           (28, 2))
              for p in (0.3, 0.5, 0.7)]
LPFREE_SPLIT = [(36, 32), (18, 20), (19, 1), (20, 1)]  # (order, graphs)
# cis-line roots: ("bipartite", left, right, p) roots are bull-free, so the
# matching condition runs (dense ones on the blossom backend);
# ("gnp", n, p) roots usually stop at a bull; ("tree", n) and ("cycle", n)
# roots, the cycle length drawn from 9..n.
LPFREE_ROOTS = [
    (("bipartite", 3, 4, 0.6), 6), (("bipartite", 4, 4, 0.6), 6),
    (("gnp", 7, 0.4), 6), (("gnp", 8, 0.5), 6), (("tree", 8), 6),
    (("bipartite", 6, 6, 0.5), 5), (("bipartite", 7, 7, 0.5), 5),
    (("tree", 16), 2), (("cycle", 20), 2),
    (("bipartite", 8, 8, 0.8), 3), (("bipartite", 6, 10, 0.8), 3),
]

WORKLOADS = ("scan7", "lp-queries", "lpfree-queries")


def _split(n: int, rng: random.Random) -> Graph:
    return gallery.random_split(n // 2, n - n // 2, rng.randrange(1 << 30))


def _root(spec, rng: random.Random) -> Graph:
    """A seeded root graph with at least one edge and at most 64 edges."""
    while True:
        kind = spec[0]
        if kind == "bipartite":
            _, a, b, p = spec
            h = Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)
                              if rng.random() < p])
        elif kind == "gnp":
            h = random_graph(spec[1], spec[2], rng)
        elif kind == "tree":
            n = spec[1]
            h = Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])
        else:
            h = gallery.cycle(rng.randint(9, spec[1]))
        if 1 <= h.edge_count() <= 64:
            return h


def build_stream(workload: str, seed: int, smoke: bool = False):
    """The workload's requests, in the order they are sent."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "scan7":
        max_n = SMOKE_SCAN_MAX_N if smoke else SCAN_MAX_N
        hasse.nonisomorphic_graphs(max_n)
        return [("scan", ["scan", "--max-n", str(max_n), "--format", "json"],
                 "")]
    if workload == "lp-queries":
        if smoke:
            graphs = [gallery.gallery("C9"), random_graph(9, 0.5, rng)]
        else:
            graphs = [gallery.gallery(name) for name in LP_GALLERY]
        kinds = (("classify", CLASSIFY), ("equistable", EQUISTABLE))
        reqs = [(kind, argv, encode_graph6(g))
                for g in graphs for kind, argv in kinds]
        if not smoke:
            for kind, argv in kinds:
                seeded = [random_graph(n, p, rng) for n, p, k in LP_GNP
                          for _ in range(k)]
                seeded += [_split(n, rng) for n, k in LP_SPLIT
                           for _ in range(k)]
                reqs += [(kind, argv, encode_graph6(g)) for g in seeded]
    elif workload == "lpfree-queries":
        if smoke:
            graphs = [gallery.projective_split(3), random_graph(17, 0.5, rng)]
            roots = [_root(("bipartite", 3, 4, 0.6), rng)]
        else:
            graphs = [gallery.projective_split(q) for q in LPFREE_PROJECTIVE]
            graphs += [random_graph(n, p, rng) for n, p, k in LPFREE_GNP
                       for _ in range(k)]
            graphs += [_split(n, rng) for n, k in LPFREE_SPLIT
                       for _ in range(k)]
            roots = [_root(spec, rng) for spec, k in LPFREE_ROOTS
                     for _ in range(k)]
        reqs = [("classify", CLASSIFY, encode_graph6(g)) for g in graphs]
        reqs += [("cis-line", CIS_LINE,
                  encode_graph6(linegraph.line_graph(h))) for h in roots]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is correct, else a reason


def _combine(modifier: str, on_g, on_co):
    if "unsupported" in (on_g, on_co):
        return "unsupported"
    if modifier == "plain":
        return on_g
    if modifier == "cap":
        return on_g and on_co
    return on_g or on_co


def check_classify(payload: dict):
    for side in ("base", "complement_base"):
        vec = payload[side]
        for a, b in hasse.BASE_ARROWS:
            if vec[a] is True and vec[b] is False:
                return f"{side} violates {a} -> {b}"
    base, co = payload["base"], payload["complement_base"]
    for prop in hasse.PROPERTY_ORDER:
        name, modifier = hasse.PROPERTY_DEFS[prop]
        on_g = _combine(modifier, base[name], co[name])
        if payload["properties"][prop] != on_g:
            return f"property {prop} disagrees with the base vectors"
        if _combine(modifier, co[name], base[name]) != on_g:
            return f"property {prop} differs on the complement"
    return None


def check_equistable(payload: dict):
    if payload.get("verified") is not True:
        return "certificates not re-verified"
    return None


def check_cis_line(payload: dict):
    for entry in payload["verdicts"]:
        root_n = ord(entry["root_graph6"][0]) - 63
        # the CLI runs the maximal-matching oracle on roots of <= 8 vertices
        crosscheck = entry.get("maximal_matching_crosscheck")
        if root_n <= 8 and crosscheck is not True:
            return f"no maximal-matching crosscheck for {entry['root_graph6']}"
    return None


def check_scan(payload: dict, max_n: int):
    expected = {str(n): c for n, c in hasse.EXPECTED_GRAPH_COUNTS.items()
                if n <= max_n}
    if payload["counts"] != expected:
        return f"graph counts {payload['counts']} != {expected}"
    if payload["ok"] is not True:
        return "scan reported failures"
    return None


def check_output(kind: str, argv, rc, stdout: str):
    """None if the request succeeded and its output is correct."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if kind == "scan":
        return check_scan(payload, int(argv[argv.index("--max-n") + 1]))
    return {
        "classify": check_classify,
        "equistable": check_equistable,
        "cis-line": check_cis_line,
    }[kind](payload)


def items(stream) -> int:
    """Work items in a stream: graph classes for a scan, else requests."""
    if stream[0][0] == "scan":
        max_n = int(stream[0][1][2])
        return sum(c for n, c in hasse.EXPECTED_GRAPH_COUNTS.items()
                   if n <= max_n)
    return len(stream)


def scan_failed_classes(stdout: str) -> int:
    """Distinct graph classes named in a scan's failure lists."""
    payload = json.loads(stdout)
    failed = set()
    for group in ("arrows", "subset_cells", "collapse"):
        for result in payload[group].values():
            failed.update(result["failures"])
    return len(failed)


def digest(outputs) -> str:
    """SHA-256 over every request's kind, exit code and standard output."""
    h = hashlib.sha256()
    for kind, rc, stdout in outputs:
        h.update(f"{kind}\0{rc}\0{stdout}\0".encode())
    return h.hexdigest()
