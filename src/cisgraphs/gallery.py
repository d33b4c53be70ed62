"""Named separating graphs, projective-plane split graphs, random split graphs.

Vertex numbering is fixed: graphs given in the source by 1-based labels are
shifted to 0-based, split constructions put the clique side first.
"""

from __future__ import annotations

import itertools
import random

from .graphs import Graph, GraphError, complement, disjoint_union
from .linegraph import line_graph

# G12: adjacency is "u,v lie together in some listed maximal clique"
# (1-based labels shifted to 0-based).
G12_CLIQUES = [
    frozenset(s)
    for s in (
        {1, 4, 7}, {2, 4, 5, 6}, {2, 4, 6, 7}, {2, 4, 6, 9}, {2, 4, 9, 12},
        {2, 5, 8}, {2, 6, 7, 11}, {2, 11, 12}, {3, 6, 9}, {4, 5, 6, 10},
        {4, 10, 12}, {6, 10, 11}, {10, 11, 12},
    )
]
G12_STABLE_SETS = [
    frozenset(s)
    for s in (
        {1, 2, 3, 10}, {1, 3, 5, 11}, {1, 3, 5, 12}, {1, 3, 8, 10},
        {1, 3, 8, 11}, {1, 3, 8, 12}, {1, 5, 9, 11}, {1, 6, 8, 12},
        {1, 8, 9, 10}, {1, 8, 9, 11}, {3, 4, 8, 11}, {3, 5, 7, 12},
        {3, 7, 8, 10}, {3, 7, 8, 12}, {5, 7, 9}, {7, 8, 9, 10},
    )
]
# The weakly-CIS certificate subfamilies for G12.
G12_CLIQUE_SUBFAMILY = [
    frozenset(s)
    for s in (
        {1, 4, 7}, {2, 4, 9, 12}, {2, 5, 8}, {2, 6, 7, 11}, {3, 6, 9},
        {4, 5, 6, 10}, {10, 11, 12},
    )
]
G12_STABLE_SUBFAMILY = [
    frozenset(s)
    for s in (
        {1, 2, 3, 10}, {1, 5, 9, 11}, {1, 6, 8, 12}, {3, 4, 8, 11},
        {3, 5, 7, 12}, {7, 8, 9, 10},
    )
]

# Cir9: the complement of the graph whose cliques are these sets, so u and
# v are adjacent iff no listed maximal stable set contains both.
CIR9_STABLE_SETS = [
    frozenset(s)
    for s in ({1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 4, 7}, {3, 6, 9})
]

GALLERY_NAMES = (
    "K1", "P4", "C4", "TwoK2", "Bull", "Net", "S3", "SK", "CK", "C5Star",
    "C9", "Cir9", "F", "FK", "G12", "LK33", "L", "LLbar",
)


def _shift(sets):
    return [frozenset(v - 1 for v in s) for s in sets]


def _graph_from_cliques(n: int, cliques) -> Graph:
    edges = set()
    for c in cliques:
        edges.update(itertools.combinations(sorted(c), 2))
    return Graph(n, edges)


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _sun3() -> Graph:
    # clique {0,1,2}; vertex 3+k is the private pair vertex of edge k
    edges = [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (4, 0), (4, 2), (5, 1), (5, 2)]
    return Graph(6, edges)


def _glue_triangles(base: Graph) -> Graph:
    """New apex vertex adjacent to both endpoints of every edge of ``base``."""
    edges = list(base.edges())
    n = base.n + len(edges)
    out = list(base.edges())
    for k, (u, v) in enumerate(edges):
        a = base.n + k
        out += [(a, u), (a, v)]
    return Graph(n, out)


def _projective_points(q: int):
    """Points of PG(2, q) as normalized homogeneous triples over GF(q)."""
    pts = []
    for x in range(q):
        for y in range(q):
            pts.append((1, x, y))
    for y in range(q):
        pts.append((0, 1, y))
    pts.append((0, 0, 1))
    return pts


def projective_split(q: int) -> Graph:
    """Split incidence graph of the projective plane over GF(q), q prime.

    Points come first and form a clique, lines follow and form a stable set;
    a point is adjacent to the lines through it.  Coordinates are taken
    modulo q, which gives a plane only for prime q; the accepted orders
    {2, 3, 5} are the ones the witnesses and tests use.
    """
    if q not in (2, 3, 5):
        raise GraphError("projective plane order must be a prime in {2, 3, 5}")
    pts = _projective_points(q)
    npt = len(pts)  # q^2 + q + 1; lines are indexed by the same triples
    edges = list(itertools.combinations(range(npt), 2))
    for i, p in enumerate(pts):
        for j, line in enumerate(pts):
            if sum(a * b for a, b in zip(p, line)) % q == 0:
                edges.append((i, npt + j))
    return Graph(2 * npt, edges)


def _cross_adjacency(k: int, l: int, seed: int):
    """Clique-to-stable adjacency rows of the random split graph, as masks."""
    rng = random.Random(seed)
    return [
        sum(rng.getrandbits(1) << s for s in range(l)) for _ in range(k)
    ]


def random_split(k: int, l: int, seed: int) -> Graph:
    """Random split graph: clique of size k, stable set of size l, each
    cross pair an edge with probability 1/2 under the seeded PRNG."""
    if k < 1 or l < 1:
        raise GraphError("both sides of the split must be nonempty")
    rows = _cross_adjacency(k, l, seed)
    edges = list(itertools.combinations(range(k), 2))
    edges += [(c, k + s) for c in range(k) for s in range(l) if rows[c] >> s & 1]
    return Graph(k + l, edges)


def _big_L() -> Graph:
    """Line graph of K_{5,6} with a new triangle apex glued on every edge."""
    return _glue_triangles(line_graph(complete_bipartite(5, 6)))


def gallery(name: str) -> Graph:
    """The named graph from the separating-example list."""
    try:
        return _GALLERY_BUILDERS[name]()
    except KeyError:
        raise GraphError(f"unknown gallery graph {name!r}") from None


_GALLERY_BUILDERS = {
    "K1": lambda: Graph(1),
    "P4": lambda: path(4),
    "C4": lambda: cycle(4),
    "TwoK2": lambda: Graph(4, [(0, 1), (2, 3)]),
    "Bull": lambda: Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4)]),
    "S3": _sun3,
    "Net": lambda: complement(_sun3()),
    "SK": lambda: disjoint_union(_sun3(), complete(2)),
    "CK": lambda: disjoint_union(cycle(4), complete(2)),
    "C5Star": lambda: _glue_triangles(cycle(5)),
    "C9": lambda: cycle(9),
    "Cir9": lambda: complement(
        _graph_from_cliques(9, _shift(CIR9_STABLE_SETS))),
    "F": lambda: projective_split(2),
    "FK": lambda: disjoint_union(projective_split(2), complete(2)),
    "G12": lambda: _graph_from_cliques(12, _shift(G12_CLIQUES)),
    "LK33": lambda: line_graph(complete_bipartite(3, 3)),
    "L": _big_L,
    "LLbar": lambda: disjoint_union(_big_L(), complement(_big_L())),
}
