"""Class predicates: CIS and relatives, split/threshold/cograph, triangle
conditions, edge simplicial, perfect, and the lookup of the 15 base
predicates by name (lifted to cap/cup forms by ``hasse.MembershipCache``).
``COMPLEMENT_INVARIANT`` names the bases that give a graph and its
complement the same verdict, which ``classify`` therefore decides once.

Split, threshold, cograph and edge simplicial enumerate no clique family:
split is the degree-sequence test of Hammer and Simeone (1981), threshold
peels isolated or dominating vertices (Chvátal and Hammer 1977), cograph
peels twins (Corneil, Lerchs and Stewart Burlingham 1981), and edge
simplicial asks every edge for a common simplicial neighbour.

Semi-weakly CIS and weakly triangle read their coverage clauses off the
disjointness relation (``search.disjointness``).

The triangle walk is lazy: each maximal stable set is tested for the
triangle property at most once per graph, when a verdict first needs
it.  Triangle stops at the first set that fails, and weakly triangle
asks each non-edge for its lowest admissible holder and stops at the
first non-edge that has none.  ``classify`` reads neither when the
proven arrows settle them (``hasse.settled_by_arrows``).

Degenerate verdicts are fixed: edgeless graphs are edge simplicial,
semi-weakly CIS and triangle vacuously; K1 is CIS and not almost CIS.
"""

from __future__ import annotations

from .graphs import Graph, bits, complement, mask_of
from .search import disjointness, is_normal, is_weakly_cis


class UnsupportedSize(ValueError):
    """Input too large for an exact predicate (perfect and the
    equistability decisions: n <= 16)."""


# ---------------------------------------------------------------------------
# split / threshold / cograph


def is_split(g: Graph) -> bool:
    """With degrees d1 >= ... >= dn and m the largest i with d_i >= i - 1,
    g is split iff d1 + ... + dm = m(m - 1) + d(m+1) + ... + dn (Hammer
    and Simeone 1981)."""
    d = sorted((row.bit_count() for row in g.adj), reverse=True)
    m = sum(1 for i, di in enumerate(d) if di >= i)
    return sum(d[:m]) == m * (m - 1) + sum(d[m:])


def is_threshold(g: Graph) -> bool:
    """Deleting isolated or dominating vertices empties the graph.

    Threshold graphs are built from K1 by adding isolated or dominating
    vertices, and the class is hereditary, so the first such vertex found
    may always be deleted.
    """
    alive = g.full
    while alive:
        for v in bits(alive):
            nb = g.adj[v] & alive
            if not nb or nb == alive ^ 1 << v:
                alive ^= 1 << v
                break
        else:
            return False
    return True


def is_cograph(g: Graph) -> bool:
    """Deleting one of two twins at a time leaves one vertex.

    Every cograph on two or more vertices has twins, and deleting a twin
    keeps the graph a cograph or not (P4 has no twins).  Twins have equal
    open (false twins) or equal closed (true twins) neighbourhoods; an
    open neighbourhood never equals a closed one, so one set holds both.
    """
    alive = g.full
    while alive.bit_count() > 1:
        seen = set()
        for v in bits(alive):
            nb = g.adj[v] & alive
            closed = nb | 1 << v
            if nb in seen or closed in seen:
                alive ^= 1 << v
                break
            seen.add(nb)
            seen.add(closed)
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# CIS family


def disjoint_pairs(g: Graph):
    """The first two disjoint (maximal clique, maximal stable set) pairs in
    canonical order, as a tuple; walked once per graph.  CIS, almost CIS
    and quasi CIS only ask whether there are none, one, or more."""
    return g.memo("disjoint_pairs", _first_disjoint_pairs)


def _first_disjoint_pairs(g: Graph):
    rel = disjointness(g)
    out = []
    for c, missing in zip(rel.cliques, rel.clique_excl):
        for j in bits(missing):
            out.append((c, rel.stables[j]))
            if len(out) == 2:
                return tuple(out)
    return tuple(out)


def is_cis(g: Graph) -> bool:
    return len(disjoint_pairs(g)) == 0


def is_almost_cis(g: Graph) -> bool:
    """Exactly one disjoint pair; equivalently, g is split and has a
    unique split partition."""
    return len(disjoint_pairs(g)) == 1


def is_quasi_cis(g: Graph) -> bool:
    return len(disjoint_pairs(g)) < 2


# ---------------------------------------------------------------------------
# edge simplicial / semi-weakly CIS


def is_edge_simplicial(g: Graph) -> bool:
    """Every edge uv lies in some N[w] with w simplicial, i.e. has a
    simplicial vertex in N[u] & N[v]; the N[w] are the simplicial
    maximal cliques.

    v is simplicial when N[v] lies in N[u] for each neighbour u.  An edge
    with a simplicial end is covered by that end, so only edges between
    two non-simplicial ends need a simplicial common neighbour.
    """
    adj = g.adj
    closed = [row | 1 << v for v, row in enumerate(adj)]
    simplicial = 0
    for v, nv in enumerate(closed):
        m = adj[v]
        while m:
            low = m & -m
            if nv & ~closed[low.bit_length() - 1]:
                break
            m ^= low
        else:
            simplicial |= 1 << v
    rest = g.full & ~simplicial
    m = rest
    while m:
        low = m & -m
        m ^= low
        u = low.bit_length() - 1
        shared = adj[u] & simplicial
        partners = adj[u] & rest & -(low << 1)  # v > u, v not simplicial
        while partners:
            lv = partners & -partners
            partners ^= lv
            if not adj[lv.bit_length() - 1] & shared:
                return False
    return True


def is_semi_weakly_cis(g: Graph) -> bool:
    """Edge covering family of strong cliques exists.

    Restricting to *maximal* strong cliques is safe: a clique contained in
    a maximal clique meets every stable set the bigger clique misses, so
    strength is monotone under taking clique supersets.  An edge is
    covered when the mask of the cliques holding both its ends meets the
    mask of the strong cliques.
    """
    rel = disjointness(g)
    strong = mask_of(i for i, x in enumerate(rel.clique_excl) if not x)
    return all(m & strong for m in rel.edge_clauses)


# ---------------------------------------------------------------------------
# triangle conditions


def _triangle_violating_edge(g: Graph, s: int):
    """First edge, in ``g.edges()`` order, that misses the stable set s and
    has no common neighbor in it, or None if s has the triangle property."""
    adj = g.adj
    outside = g.full & ~s
    m = outside
    while m:
        low = m & -m
        m ^= low
        u = low.bit_length() - 1
        partners = adj[u] & outside & -(low << 1)  # v > u, v not in s
        if not partners:
            continue
        reached = 0
        w = adj[u] & s
        while w:
            lw = w & -w
            w ^= lw
            reached |= adj[lw.bit_length() - 1]
        bad = partners & ~reached
        if bad:
            return (u, (bad & -bad).bit_length() - 1)
    return None


def _triangle_walk(g: Graph):
    """The triangle tests made so far on g's maximal stable sets, numbered
    as in ``disjointness(g).stables``: {number: first violating edge, or
    None when the set has the triangle property}.  Kept once per graph
    and filled on demand, so each set is tested at most once."""
    return {}


def triangle_violation(g: Graph):
    """First (stable set, edge) violating the triangle condition, or None:
    the first maximal stable set, in ``disjointness(g).stables`` order,
    that fails, with its first violating edge."""
    tested = g.memo("triangle_walk", _triangle_walk)
    for j, s in enumerate(disjointness(g).stables):
        if j not in tested:
            tested[j] = _triangle_violating_edge(g, s)
        if tested[j] is not None:
            return s, tested[j]
    return None


def is_triangle(g: Graph) -> bool:
    return triangle_violation(g) is None


def is_weakly_triangle(g: Graph) -> bool:
    """Non-edge covering family of maximal stable sets, each with the
    triangle property.

    The property is per-set, so the family of *all* admissible maximal
    stable sets is the unique inclusion-maximal candidate; coverage by it
    decides the class.  Each non-edge clause is searched for its lowest
    admissible holder, unless a set already found admissible holds it,
    and the walk stops at the first non-edge that has none.
    """
    rel = disjointness(g)
    tested = g.memo("triangle_walk", _triangle_walk)
    admissible = 0  # the sets found admissible by this walk
    for clause in rel.nonedge_clauses:
        if clause & admissible:
            continue
        m = clause
        while m:
            low = m & -m
            m ^= low
            j = low.bit_length() - 1
            if j not in tested:
                tested[j] = _triangle_violating_edge(g, rel.stables[j])
            if tested[j] is None:
                admissible |= low
                break
        else:
            return False
    return True


def induced_p4s(g: Graph):
    """All induced paths a-b-c-d, with (b, c) ranging over ordered edges."""
    for b in range(g.n):
        for c in bits(g.adj[b]):
            for a in bits(g.adj[b] & ~g.closed_nbhd(c)):
                for d in bits(g.adj[c] & ~g.closed_nbhd(b) & ~(1 << a)):
                    if not g.has_edge(a, d):
                        yield (a, b, c, d)


def has_bad_p4(g: Graph) -> bool:
    """Induced a-b-c-d with a maximal stable set containing a, d and no
    common neighbor of b, c inside it."""
    rel = disjointness(g)
    sh = rel.stable_holders
    for a, b, c, d in induced_p4s(g):
        common = g.adj[b] & g.adj[c]
        for j in bits(sh[a] & sh[d]):
            if not common & rel.stables[j]:
                return True
    return False


# ---------------------------------------------------------------------------
# perfect (Berge: no odd hole in g or its complement), n <= 16
#
# An odd hole is found by a depth-first search over chordless paths
# s = p0, p1, ..., pk grown from its smallest vertex s through larger
# vertices.  The path's vertex set determines the path, so the search
# visits at most as many states as there are vertex subsets, and in
# practice far fewer.


def _has_odd_hole(g: Graph) -> bool:
    """An induced cycle of odd length >= 5.

    ``blocked`` holds {0..s} and N[p1], ..., N[p(k-1)].  A neighbour of pk
    outside it extends the path without a chord if it is not adjacent to
    s, and closes a hole of length k + 2 if it is.  Once ``blocked``
    covers N(s), no extension can close, so the path is dropped.
    """
    adj = g.adj

    def grow(p, blocked, k, ns):
        cand = adj[p] & ~blocked
        if k >= 3 and k & 1 and cand & ns:
            return True
        blocked |= adj[p] | 1 << p
        if ns & ~blocked:
            for q in bits(cand & ~ns):
                if grow(q, blocked, k + 1, ns):
                    return True
        return False

    for s in range(g.n - 4):
        low = (2 << s) - 1
        ns = adj[s] & ~low
        for p1 in bits(ns):
            if grow(p1, low, 1, ns):
                return True
    return False


def is_perfect(g: Graph) -> bool:
    """No odd hole in g or in its complement (Chudnovsky, Robertson,
    Seymour and Thomas 2006)."""
    if g.n > 16:
        raise UnsupportedSize("perfect test limited to n <= 16")
    return not (g.memo("odd_hole", _has_odd_hole)
                or complement(g).memo("odd_hole", _has_odd_hole))


# ---------------------------------------------------------------------------
# base predicates by name

BASE_NAMES = (
    "threshold", "cograph", "split", "edge_simplicial", "cis", "almost_cis",
    "quasi_cis", "semi_weakly_cis", "weakly_cis", "triangle",
    "weakly_triangle", "normal", "perfect", "equistable",
    "strongly_equistable",
)

# The bases whose verdict on complement(g) is the verdict on g.  The CIS
# family, weakly CIS and normal are symmetric in the maximal cliques and
# the maximal stable sets, which complementing swaps; split, threshold and
# cograph have forbidden induced subgraphs closed under complement; perfect
# by Lovász's perfect graph theorem (1972).  Weakly triangle is not
# invariant: HCQeeXe is not weakly triangle, and its complement HQovb]^ is.
COMPLEMENT_INVARIANT = frozenset({
    "threshold", "cograph", "split", "cis", "almost_cis", "quasi_cis",
    "weakly_cis", "normal", "perfect",
})


def _base_predicates():
    # imported here, since equistable imports this module
    from . import equistable

    return {
        "threshold": is_threshold,
        "cograph": is_cograph,
        "split": is_split,
        "edge_simplicial": is_edge_simplicial,
        "cis": is_cis,
        "almost_cis": is_almost_cis,
        "quasi_cis": is_quasi_cis,
        "semi_weakly_cis": is_semi_weakly_cis,
        "weakly_cis": is_weakly_cis,
        "triangle": is_triangle,
        "weakly_triangle": is_weakly_triangle,
        "normal": is_normal,
        "perfect": is_perfect,
        # the verdicts alone: no weighting walk behind a predicate
        "equistable": lambda g: equistable.decision(g, False).verdict,
        "strongly_equistable": lambda g: equistable.decision(g, True).verdict,
    }


_PREDICATES = None


def base_predicate(name: str):
    global _PREDICATES
    if _PREDICATES is None:
        _PREDICATES = _base_predicates()
    return _PREDICATES[name]
