"""Line graphs: construction, root reconstruction from forced Krausz
cells, maximum weight matching (branch and bound, and Edmonds' blossom
algorithm from ``_blossom``), and the CIS-line-graph recognizer.

The recognizer tests, for a root graph H: no bull subgraph, and for every
relevant vertex x no matching of H(x) with at least two edges covering all
of N(x), where H(x) is the subgraph induced by the edges incident with a
neighbor of x but not with x.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .cliques import maximal_stable_sets
from .graphs import Graph, GraphError, bits, components, mask_of


def line_graph(h: Graph) -> Graph:
    """Line graph of h; vertex k is the k-th edge of h in sorted order."""
    edges = sorted(h.edges())
    if not edges:
        raise GraphError("line graph of an edgeless graph is empty")
    lg_edges = [
        (i, j)
        for (i, e), (j, f) in itertools.combinations(enumerate(edges), 2)
        if set(e) & set(f)
    ]
    return Graph(len(edges), lg_edges)


def tilde(h: Graph) -> Graph:
    """h with a new private (pendant) neighbor added to every vertex."""
    edges = list(h.edges()) + [(v, h.n + v) for v in range(h.n)]
    return Graph(2 * h.n, edges)


# ---------------------------------------------------------------------------
# root graph via forced Krausz cells


class RootResult(NamedTuple):
    kind: str  # "root" | "not-line-graph" | "ambiguous"
    roots: tuple = ()


def _krausz_partition(g: Graph):
    """Partition of E(g) into cliques with every vertex in at most two
    cells, or None.  Isolated vertices get singleton cells.

    A triangle uvw is odd when some vertex sees one or three of u, v, w.
    A triangle of a root graph is even, so an odd triangle is a star and
    w shares the cell of uv.  Of the even common neighbours of u and v,
    only the root-triangle edge can lie outside that cell, and apart from
    K3, L(K4), L(K4 - e) and L(K1,3 + e) every star triangle is odd (van
    Rooij & Wilf 1965; Whitney 1932).  So in a component of more than 6
    vertices the cell of the first uncovered edge uv is forced: u, v and
    their odd common neighbours.  A smaller component also tries the
    cells that hold all but at most one even common neighbour, in sorted
    order.  Each component is searched on its own, and the cells are
    those of the first partition found by a backtracking search over all
    sub-cliques, which the tests keep as the oracle.
    """
    adj = g.adj
    free = list(adj)  # neighbours not yet in a cell with v
    room = [2] * g.n  # cells v may still join
    placed = []  # (first edge, cell)

    def options(u, v, small):
        common = list(bits(adj[u] & adj[v]))
        even = [w for w in common if not adj[u] ^ adj[v] ^ adj[w]]
        if not small:
            return [tuple(w for w in common if w not in even)]
        return sorted({tuple(w for w in common if w != x)
                       for x in [None, *even]})

    def fits(cell):
        m = mask_of(cell)
        return all(room[w] and m & ~(1 << w) & ~free[w] == 0 for w in cell)

    def join(cell, step):
        m = mask_of(cell)
        for w in cell:
            free[w] ^= m & ~(1 << w)
            room[w] -= step

    def solve(comp, small):
        u = next((x for x in bits(comp) if free[x] >> x + 1), None)
        if u is None:
            return True
        later = free[u] >> u + 1
        v = u + (later & -later).bit_length()
        for extra in options(u, v, small):
            cell = (u, v, *extra)
            if fits(cell):
                join(cell, 1)
                placed.append(((u, v), cell))
                if solve(comp, small):
                    return True
                placed.pop()
                join(cell, -1)
        return False

    for comp in components(g):
        if not solve(comp, comp.bit_count() <= 6):
            return None
    cells = [cell for _, cell in sorted(placed)]
    cells += [(v,) for v in range(g.n) if not adj[v]]
    return cells


def _root_from_cells(g: Graph, cells) -> Graph:
    membership = [[] for _ in range(g.n)]
    for cid, cell in enumerate(cells):
        for v in cell:
            membership[v].append(cid)
    nh = len(cells)
    edges = []
    for v in range(g.n):
        cs = membership[v]
        if len(cs) == 2:
            edges.append((cs[0], cs[1]))
        else:
            edges.append((cs[0], nh))
            nh += 1
    return Graph(nh, edges)


def root_graph(g: Graph) -> RootResult:
    """Root graph H with L(H) isomorphic to g, via forced Krausz cells.

    The K3 ambiguity (roots K3 and K_{1,3}) is reported explicitly.
    """
    if g.n == 3 and g.edge_count() == 3:
        k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
        k13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
        return RootResult("ambiguous", (k3, k13))
    cells = _krausz_partition(g)
    if cells is None:
        return RootResult("not-line-graph")
    return RootResult("root", (_root_from_cells(g, cells),))


# ---------------------------------------------------------------------------
# maximum weight matching


def max_weight_matching_brute(h: Graph, weight) -> tuple:
    """Exhaustive branch and bound; the testing oracle, and the primary
    solver at the sizes this package meets."""
    edges = sorted(h.edges())
    weights = [weight(e) for e in edges]
    suffix = [0] * (len(edges) + 1)
    for i in range(len(edges) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + max(weights[i], 0)
    best = {"total": 0, "edges": []}

    def rec(i, used, total, chosen):
        if total > best["total"]:
            best["total"] = total
            best["edges"] = list(chosen)
        if i == len(edges) or total + suffix[i] <= best["total"]:
            return
        u, v = edges[i]
        m = 1 << u | 1 << v
        if not used & m:
            chosen.append(edges[i])
            rec(i + 1, used | m, total + weights[i], chosen)
            chosen.pop()
        rec(i + 1, used, total, chosen)

    rec(0, 0, 0, [])
    return best["total"], best["edges"]


def max_weight_matching_blossom(h: Graph, weight) -> tuple:
    """Edmonds' blossom algorithm for integer weights, with its optimum
    checked against the dual solution; the solver above 24 edges.

    ``_blossom`` is imported on first use: most processes never match
    more than 24 edges, and without cached bytecode its compilation
    would add to every start.
    """
    from . import _blossom

    twice = _blossom.twice_weights(h, weight)
    state = _blossom.blossom_matching(h, twice)
    _blossom.check_optimum(h, twice, *state)
    pairs = sorted((v, w) for v, w in state[0].items() if v < w)
    return sum(weight(p) for p in pairs), pairs


def max_weight_matching(h: Graph, weight) -> tuple:
    """Exact maximum weight matching; returns (total, edge list, backend).
    Branch and bound up to 24 edges, the blossom solver above."""
    if h.edge_count() <= 24:
        return (*max_weight_matching_brute(h, weight), "brute")
    return (*max_weight_matching_blossom(h, weight), "blossom")


# ---------------------------------------------------------------------------
# CIS line graph recognizer


def find_bull_subgraph(h: Graph):
    """A (not necessarily induced) bull: triangle plus pendant edges at two
    distinct triangle vertices with distinct outside endpoints.  Returns
    (a, u, v, b, w), pendant a at u and b at v, w the third triangle
    vertex; or None.  The triangles x < y < z are walked in ascending
    order, z in N(x) & N(y) above y."""
    adj = h.adj
    for x in range(h.n):
        ys = adj[x] & -(2 << x)
        while ys:
            ly = ys & -ys
            ys ^= ly
            y = ly.bit_length() - 1
            zs = adj[x] & adj[y] & -(ly << 1)
            while zs:
                lz = zs & -zs
                zs ^= lz
                z = lz.bit_length() - 1
                bull = _bull_at(adj, x, y, z)
                if bull is not None:
                    return bull
    return None


def _bull_at(adj, x: int, y: int, z: int):
    """The first bull on the triangle xyz, as ``find_bull_subgraph``
    returns it, or None."""
    tri = 1 << x | 1 << y | 1 << z
    for u, v in itertools.permutations((x, y, z), 2):
        outside_u = adj[u] & ~tri
        outside_v = adj[v] & ~tri
        for a in bits(outside_u):
            b_opts = outside_v & ~(1 << a)
            if b_opts:
                b = (b_opts & -b_opts).bit_length() - 1
                return (a, u, v, b) + tuple(
                    w for w in (x, y, z) if w not in (u, v)
                )
    return None


def neighborhood_subgraph(h: Graph, x: int):
    """H(x): edges of H incident with a neighbor of x but not with x.

    Returns (edge list, weight per edge): weight 2 between two neighbors
    of x, weight 1 otherwise.
    """
    nx_ = h.adj[x]
    edges = []
    weights = {}
    for u, v in h.edges():
        if u == x or v == x:
            continue
        inside = (nx_ >> u & 1) + (nx_ >> v & 1)
        if inside:
            edges.append((u, v))
            weights[(u, v)] = 2 if inside == 2 else 1
    return edges, weights


def is_cis_line_root(h: Graph):
    """Decide whether L(h) is CIS, working on the root graph h.

    Returns (verdict, certificate, backend); the certificate on failure
    is ("bull", vertices) or ("matching", x, edges), and the backend is
    that of the last H(x) matched, or None when no matching ran.
    """
    bull = find_bull_subgraph(h)
    if bull is not None:
        return False, ("bull", bull), None
    backend_used = None
    for x in range(h.n):
        deg = h.degree(x)
        if deg <= 1:
            continue
        if deg == 2 and h.is_clique(h.closed_nbhd(x)):
            continue
        edges, weights = neighborhood_subgraph(h, x)
        if not edges:
            continue
        total, matching, backend_used = max_weight_matching(
            Graph(h.n, edges), lambda e: weights[e]
        )
        if total == deg:
            return False, ("matching", x, matching), backend_used
    return True, None, backend_used


def maximal_matchings(h: Graph):
    """All maximal matchings of h (maximal stable sets of its line graph)."""
    edges = sorted(h.edges())
    if not edges:
        return [[]]
    lg = line_graph(h)
    return [
        [edges[i] for i in bits(s)] for s in maximal_stable_sets(lg)
    ]


def check_condition_vii(h: Graph) -> bool:
    """Brute-force oracle: bull-freeness plus, for every maximal matching M
    and every uncovered vertex x, N(x) inside a single edge of M."""
    if find_bull_subgraph(h) is not None:
        return False
    for matching in maximal_matchings(h):
        covered = 0
        for u, v in matching:
            covered |= 1 << u | 1 << v
        for x in range(h.n):
            if covered >> x & 1:
                continue
            nb = h.adj[x]
            if not nb:
                continue
            if not any(nb & ~(1 << u | 1 << v) == 0 for u, v in matching):
                return False
    return True
