"""Reference implementations that the tests compare the package against.

None of this runs in the CLI: each function is a slower or more direct
version of something ``src/cisgraphs`` does, kept here as an oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from cisgraphs import equistable, hasse
from cisgraphs.cliques import maximal_cliques, maximal_stable_sets
from cisgraphs.gallery import _cross_adjacency
from cisgraphs.graphs import (
    Graph,
    _refine,
    _relabel,
    bits,
    canonical_form,
    complement,
    encode_graph6,
    is_isomorphic,
    mask_of,
)
from cisgraphs.hasse import MembershipCache, nonisomorphic_graphs
from cisgraphs.recognizers import has_bad_p4, induced_p4s
from cisgraphs.linegraph import line_graph, root_graph
from cisgraphs.lp import Unbounded
from cisgraphs.search import disjointness

# ---------------------------------------------------------------------------
# the exact simplex over Fraction entries (the integer tableau's reference)


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [x / piv for x in tab[row]]
    for i, r in enumerate(tab):
        if i != row and r[col]:
            f = r[col]
            tab[i] = [a - f * b for a, b in zip(r, tab[row])]
    basis[row] = col


def _iterate(tab, basis, ncols):
    """Run simplex steps on a tableau whose last row is the (minimization)
    objective in reduced form.  Bland's rule throughout."""
    m = len(tab) - 1
    while True:
        obj = tab[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return
        best = None
        for i in range(m):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            raise Unbounded("no leaving variable")
        _pivot(tab, basis, best[1], col)


def _feasible_tableau(a_rows, b, n):
    """Phase 1: a basic feasible tableau of a_rows @ x == b, x >= 0, or
    None when the system is infeasible.  Redundant rows are dropped."""
    m = len(a_rows)
    fr = Fraction
    rows = []
    rhs = []
    for ai, bi in zip(a_rows, b):
        ai = [fr(x) for x in ai]
        bi = fr(bi)
        if bi < 0:
            ai = [-x for x in ai]
            bi = -bi
        rows.append(ai)
        rhs.append(bi)

    # artificial variable per row
    width = n + m
    tab = []
    for i in range(m):
        row = rows[i] + [fr(0)] * m + [rhs[i]]
        row[n + i] = fr(1)
        tab.append(row)
    basis = list(range(n, n + m))
    objrow = [fr(0)] * (width + 1)
    for i in range(m):
        objrow = [a - b_ for a, b_ in zip(objrow, tab[i])]
    for j in range(n, n + m):
        objrow[j] = fr(0)
    tab.append(objrow)
    _iterate(tab, basis, width)
    if -tab[-1][-1] != 0:
        return None
    # drive artificials out of the basis where possible; rows that cannot
    # be pivoted are redundant and get dropped
    tab.pop()
    drop = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                _pivot(tab, basis, i, col)
    for i in reversed(drop):
        tab.pop(i)
        basis.pop(i)
    return [row[:n] + [row[-1]] for row in tab], basis


def _optimize(start, c, n, maximize):
    """Phase 2 from a feasible tableau, which is left unchanged."""
    rows, basis = start
    tab = list(rows)  # _pivot replaces rows, it never edits one in place
    basis = list(basis)
    objrow = [Fraction(x) for x in c] + [Fraction(0)]
    if maximize:
        objrow = [-x for x in objrow]
    for i, bv in enumerate(basis):
        if objrow[bv]:
            f = objrow[bv]
            objrow = [a - f * b_ for a, b_ in zip(objrow, tab[i])]
    tab.append(objrow)
    _iterate(tab, basis, n)
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        x[bv] = tab[i][-1]
    value = -tab[-1][-1]
    if maximize:
        value = -value
    return value, x


def solve_equality_lp(a_rows, b, objectives, maximize=False):
    """Same contract as :func:`cisgraphs.lp.solve_equality_lp`."""
    objectives = list(objectives)
    n = len(objectives[0]) if objectives else (len(a_rows[0]) if a_rows else 0)
    start = _feasible_tableau(a_rows, b, n)
    if start is None:
        return None
    return [_optimize(start, c, n, maximize) for c in objectives]


def rref(rows, ncols):
    """Reduced row echelon form over the rationals, dividing as it goes.

    Returns (reduced rows, pivot column list).
    """
    fr = Fraction
    mat = [[fr(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r][col]
        mat[r] = [x / piv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def null_space(rows, ncols):
    """Same contract as :func:`cisgraphs.lp.null_space`, from :func:`rref`."""
    red, pivots = rref(rows, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# forced subsets, one sweep per null direction


def subset_sums_indexed(values, n):
    """What :func:`cisgraphs.equistable._subset_sums` returns, by the
    indexed double loop: the masks holding vertex v are the smaller masks
    with bit v set."""
    out = [0] * (1 << n)
    for v in range(n):
        val = values[v]
        lo = 1 << v
        for m in range(lo):
            out[lo | m] = out[m] + val
    return out


def forced_subsets_per_direction(point, directions, stable_sets, n):
    """What :func:`cisgraphs.equistable._forced_subsets` returns, from the
    same analysis: a subset is forced when every direction, on its own,
    sums to 0 over it.  Returns the first forced T of value 1 and the
    first of value at most 1 (fewest vertices, then smallest mask)."""
    live = bytearray([1]) * (1 << n)
    for d in directions:
        scale = lcm(*[x.denominator for x in d])
        ints = [int(x * scale) for x in d]
        sums = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            sums[m] = sums[m ^ low] + ints[low.bit_length() - 1]
            if sums[m]:
                live[m] = 0
    stable = set(stable_sets)
    value = {
        m: sum((point[v] for v in bits(m)), Fraction(0))
        for m in range(1, 1 << n) if live[m] and m not in stable
    }

    def first(masks):
        m = min(masks, key=lambda m: (m.bit_count(), m), default=None)
        return None if m is None else (m, value[m])

    return (first(m for m in value if value[m] == 1),
            first(m for m in value if value[m] <= 1))


# ---------------------------------------------------------------------------
# the 2^n sweeps that the meet-in-the-middle joins of equistable replaced


def scaled_subset_sums(vec, n):
    """Subset sums of a rational vector over all 2^n masks, scaled to
    integers: (denom, sums) with sums[mask] = denom * vec-sum."""
    denom = lcm(*[f.denominator for f in vec])
    return denom, subset_sums_indexed(
        [f.numerator * (denom // f.denominator) for f in vec], n)


def forced_subsets_by_sweep(point, directions, stable_sets, n):
    """What :func:`cisgraphs.equistable._forced_subsets` returns, from one
    pass over every mask of the packed directions' subset sums."""
    stable = set(stable_sets)
    denom, base = scaled_subset_sums(point, n)
    moving = subset_sums_indexed(equistable._packed(directions, n), n)
    at_most_one = [
        m for m in range(1, 1 << n)
        if not moving[m] and base[m] <= denom and m not in stable
    ]

    def first(masks):
        m = min(masks, key=lambda m: (m.bit_count(), m), default=None)
        return None if m is None else (m, Fraction(base[m], denom))

    equal_one = [m for m in at_most_one if base[m] == denom]
    return first(equal_one), first(at_most_one)


def collides_by_sweep(denom_p, base, dsums, stable):
    """Whether some non-stable T stays at w(T) = 1 along the direction,
    from the full subset sums of the point and of the direction."""
    return any(
        base[m] == denom_p and dsums[m] == 0
        for m in range(1, len(base))
        if m not in stable
    )


def meets_hyperplane_by_sweep(t, denom_p, base, denom_d, dsums):
    """Whether some T that moves along the direction has w(T) = 1 at step
    t, from the full subset sums of the point and of the direction."""
    num = t.numerator * denom_p
    den = t.denominator * denom_d
    return any(
        d and d * num == (denom_p - b) * den for d, b in zip(dsums, base)
    )


def find_weighting_by_sweeps(g: Graph, point, directions, stable_sets):
    """What :func:`cisgraphs.equistable._find_weighting` returns, by the
    walk it replaced: each attempt's generic direction is dropped up front
    when :func:`collides_by_sweep` finds a non-stable T at 1 along it, and
    the step is the first step/k that :func:`meets_hyperplane_by_sweep`
    clears.  Returns (weights or None, directions dropped, steps tried
    past k = 2)."""
    n = g.n
    if not directions:
        return point, 0, 0
    stable = set(stable_sets)
    denom_p, base = scaled_subset_sums(point, n)
    dropped = extra = 0
    for attempt in range(1, 32):
        dvec = [Fraction(0)] * n
        w = Fraction(1)
        for d in directions:
            dvec = [a + w * b for a, b in zip(dvec, d)]
            w *= attempt + 1
        denom_d, dsums = scaled_subset_sums(dvec, n)
        if collides_by_sweep(denom_p, base, dsums, stable):
            dropped += 1
            continue
        limits = [p / -d for p, d in zip(point, dvec) if d < 0]
        step = min(limits, default=Fraction(1))
        k = 2
        while meets_hyperplane_by_sweep(step / k, denom_p, base, denom_d,
                                        dsums):
            k += 1
        extra += k - 2
        cand = [p + step / k * d for p, d in zip(point, dvec)]
        if verify_weighting_by_sweep(g, cand):
            return cand, dropped, extra
    return None, dropped, extra


def verify_weighting_by_sweep(g: Graph, weights) -> bool:
    """What :func:`cisgraphs.equistable.verify_weighting` returns, by
    testing every nonempty mask."""
    weights = [Fraction(w) for w in weights]
    if any(w < 0 for w in weights):
        return False
    denom, sums = scaled_subset_sums(weights, g.n)
    stable = set(maximal_stable_sets(g))
    return all(
        (sums[m] == denom) == (m in stable) for m in range(1, 1 << g.n)
    )


def verify_forced_subset(g: Graph, combination):
    """Check a signed combination of maximal stable sets in the style of
    the hand-written non-equistability certificates.

    ``combination`` is a list of (vertex mask, +1/-1).  The signed sum of
    characteristic vectors must be 0/1-valued; the subset it selects is
    returned (its polytope value is then forced to the signed sign-sum).
    """
    stable = set(maximal_stable_sets(g))
    coeff = [0] * g.n
    for mask, sign in combination:
        if sign not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        if mask not in stable:
            raise ValueError("combination member is not a maximal stable set")
        for v in bits(mask):
            coeff[v] += sign
    if any(c not in (0, 1) for c in coeff):
        raise ValueError("signed combination is not 0/1-valued")
    out = 0
    for v, c in enumerate(coeff):
        if c:
            out |= 1 << v
    return out


# ---------------------------------------------------------------------------
# graphs, cliques, line graphs and scans


def induced_subgraph(g: Graph, mask: int) -> Graph:
    """Induced subgraph on the vertices of ``mask``, relabeled 0..k-1."""
    verts = list(bits(mask))
    pos = {v: i for i, v in enumerate(verts)}
    edges = [
        (pos[u], pos[v])
        for u, v in itertools.combinations(verts, 2)
        if g.has_edge(u, v)
    ]
    return Graph(max(len(verts), 1), edges)


def has_odd_hole_by_subsets(g: Graph) -> bool:
    """Odd hole by trying every vertex subset: an odd one of size >= 5
    that induces a connected 2-regular graph."""
    for m in range(1, 1 << g.n):
        k = m.bit_count()
        if k < 5 or k % 2 == 0:
            continue
        if any((g.adj[v] & m).bit_count() != 2 for v in bits(m)):
            continue
        # 2-regular: a single cycle iff connected
        seen = frontier = m & -m
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= g.adj[v] & m
            frontier = nxt & ~seen
            seen |= nxt
        if seen == m:
            return True
    return False


def count_split_partitions(g: Graph) -> int:
    """Number of partitions V = C + S with C a clique and S stable
    (clique side labeled); 2^n brute force."""
    return sum(
        1
        for c in range(1 << g.n)
        if g.is_clique(c) and g.is_stable(g.full & ~c)
    )


# The degree-sequence (four-subset) tests: the induced degree multiset
# identifies every 4-vertex graph.
_DEG_P4 = (1, 1, 2, 2)
_DEG_C4 = (2, 2, 2, 2)
_DEG_2K2 = (1, 1, 1, 1)


def _four_subset_degrees(g: Graph):
    for quad in itertools.combinations(range(g.n), 4):
        m = mask_of(quad)
        yield tuple(sorted((g.adj[v] & m).bit_count() for v in quad))


def is_cograph_by_four_subsets(g: Graph) -> bool:
    """No induced P4."""
    return all(d != _DEG_P4 for d in _four_subset_degrees(g))


def is_threshold_by_four_subsets(g: Graph) -> bool:
    """No induced P4, C4 or 2K2."""
    bad = (_DEG_P4, _DEG_C4, _DEG_2K2)
    return all(d not in bad for d in _four_subset_degrees(g))


def split_partition(g: Graph):
    """A split partition (clique mask, stable mask), or None.

    A graph is split iff some maximal clique has a stable complement.
    """
    for c in maximal_cliques(g):
        rest = g.full & ~c
        if g.is_stable(rest):
            return (c, rest)
    return None


def covers_edges(g: Graph, family) -> bool:
    return all(
        any(mask >> u & 1 and mask >> v & 1 for mask in family)
        for u, v in g.edges()
    )


def covers_nonedges(g: Graph, family) -> bool:
    return all(
        any(mask >> u & 1 and mask >> v & 1 for mask in family)
        for u, v in itertools.combinations(range(g.n), 2)
        if not g.has_edge(u, v)
    )


def covers_vertices(g: Graph, family) -> bool:
    covered = 0
    for mask in family:
        covered |= mask
    return covered & g.full == g.full


def simplicial_cliques(g: Graph):
    """All distinct closed neighborhoods N[v] that are cliques."""
    seen = set()
    out = []
    for v in range(g.n):
        nb = g.closed_nbhd(v)
        if nb not in seen and g.is_clique(nb):
            seen.add(nb)
            out.append(nb)
    out.sort()
    return out


def is_edge_simplicial_by_cliques(g: Graph) -> bool:
    """Every edge lies in a simplicial maximal clique."""
    return covers_edges(g, simplicial_cliques(g))


def maximal_cliques_brute(g: Graph):
    """Subset-lattice oracle for small n."""
    cliques = [m for m in range(1, 1 << g.n) if g.is_clique(m)]
    as_set = set(cliques)
    out = []
    for c in cliques:
        if not any(
            c | 1 << v in as_set for v in range(g.n) if not c >> v & 1
        ):
            out.append(c)
    return sorted(out)


def disjoint_pairs_pairwise(g: Graph):
    """What :func:`cisgraphs.recognizers.disjoint_pairs` returns, by
    testing every (maximal clique, maximal stable set) pair in turn."""
    stables = maximal_stable_sets(g)
    out = []
    for c in maximal_cliques(g):
        for s in stables:
            if not c & s:
                out.append((c, s))
                if len(out) == 2:
                    return tuple(out)
    return tuple(out)


def holders_by_member(family, n: int):
    """What :func:`cisgraphs.search._holders` returns, one bit per
    (member, vertex) pair: per vertex, the mask of the members holding
    it."""
    holders = [0] * n
    for i, mask in enumerate(family):
        for v in bits(mask):
            holders[v] |= 1 << i
    return holders


def strong_maximal_cliques(g: Graph):
    """The maximal cliques that meet every maximal stable set, read off
    the disjointness relation."""
    rel = disjointness(g)
    return [c for c, missing in zip(rel.cliques, rel.clique_excl)
            if not missing]


def strong_maximal_cliques_pairwise(g: Graph):
    """The maximal cliques that meet every maximal stable set, pair by
    pair."""
    stables = maximal_stable_sets(g)
    return [c for c in maximal_cliques(g) if all(c & s for s in stables)]


def verify_cover_certificate(
    g: Graph, chosen_cliques, chosen_stables, *, normal: bool,
) -> bool:
    """Re-verify a weakly-CIS or normal certificate (the subfamilies
    ``search.exists_cross_intersecting`` returns) by set arithmetic,
    independently of the search's clauses."""
    cliques = set(maximal_cliques(g))
    stables = set(maximal_stable_sets(g))
    if not all(c in cliques for c in chosen_cliques):
        return False
    if not all(s in stables for s in chosen_stables):
        return False
    if any(not c & s for c in chosen_cliques for s in chosen_stables):
        return False
    if normal:
        return covers_vertices(g, chosen_cliques) and covers_vertices(
            g, chosen_stables
        )
    return covers_edges(g, chosen_cliques) and covers_nonedges(
        g, chosen_stables
    )


def has_bad_p4_by_scan(g: Graph) -> bool:
    """What :func:`cisgraphs.recognizers.has_bad_p4` returns, by testing
    every maximal stable set against each induced P4."""
    stables = maximal_stable_sets(g)
    for a, b, c, d in induced_p4s(g):
        want = 1 << a | 1 << d
        for s in stables:
            if s & want == want and not g.adj[b] & g.adj[c] & s:
                return True
    return False


def triangle_violating_edge_by_edges(g: Graph, s: int):
    """What :func:`cisgraphs.recognizers._triangle_violating_edge`
    returns, by walking every edge in ``g.edges()`` order."""
    for u, v in g.edges():
        if s >> u & 1 or s >> v & 1:
            continue
        if not g.adj[u] & g.adj[v] & s:
            return (u, v)
    return None


def krausz_partition_by_subcliques(g: Graph):
    """What :func:`cisgraphs.linegraph._krausz_partition` returns, by
    backtracking over every sub-clique of each uncovered edge's usable
    common neighbours (exponential on large cliques)."""
    capacity = [2] * g.n
    edge_owner = {}
    cells = []
    edges = sorted(g.edges())

    def cliques_on(u, v):
        """All cliques containing edge (u, v) built from currently usable
        common neighbors."""
        pool = [
            w
            for w in bits(g.adj[u] & g.adj[v])
            if capacity[w] >= 1
            and (min(u, w), max(u, w)) not in edge_owner
            and (min(v, w), max(v, w)) not in edge_owner
        ]
        out = []

        def grow(cell, rest):
            out.append(tuple(cell))
            for idx, w in enumerate(rest):
                if all(
                    g.has_edge(w, z)
                    and (min(w, z), max(w, z)) not in edge_owner
                    for z in cell
                ):
                    grow(cell + [w], rest[idx + 1:])

        grow([u, v], pool)
        return out

    def place(cell_verts):
        cell_id = len(cells)
        cells.append(cell_verts)
        for w in cell_verts:
            capacity[w] -= 1
        pairs = list(itertools.combinations(sorted(cell_verts), 2))
        for p in pairs:
            edge_owner[p] = cell_id
        return pairs

    def unplace(pairs):
        cell_verts = cells.pop()
        for w in cell_verts:
            capacity[w] += 1
        for p in pairs:
            del edge_owner[p]

    def solve():
        target = next((e for e in edges if e not in edge_owner), None)
        if target is None:
            return True
        u, v = target
        if capacity[u] == 0 or capacity[v] == 0:
            return False
        for cell in cliques_on(u, v):
            pairs = place(cell)
            if solve():
                return True
            unplace(pairs)
        return False

    if not solve():
        return None
    for v in range(g.n):
        if capacity[v] == 2 and not g.adj[v]:
            cells.append((v,))
            capacity[v] -= 1
    return cells


def roots_agree(h: Graph) -> bool:
    """Root reconstruction inverts line_graph up to isomorphism.

    Isolated vertices of h are invisible to the line graph and ignored.
    Only a K1,3 component fails to round-trip (unless h is K1,3 itself,
    which root_graph reports as ambiguous): its line graph K3 gets the
    triangle root.
    """
    covered = 0
    for u, v in h.edges():
        covered |= 1 << u | 1 << v
    h = induced_subgraph(h, covered) if covered else Graph(1)
    res = root_graph(line_graph(h))
    if res.kind == "ambiguous":
        return any(is_isomorphic(r, h) for r in res.roots)
    return res.kind == "root" and is_isomorphic(res.root, h)


def all_extensions_graphs(max_n: int):
    """Class representatives with 1..max_n vertices, reducing every
    one-vertex extension of each smaller representative to its canonical
    form and keeping the first extension per form; {n: list of Graph},
    sorted by (edge count, rows) like ``hasse.nonisomorphic_graphs``."""
    reps = {1: [Graph(1)]}
    for n in range(2, max_n + 1):
        classes = {}
        for g in reps[n - 1]:
            for mask in range(1 << (n - 1)):
                adj = [row | ((mask >> v & 1) << (n - 1))
                       for v, row in enumerate(g.adj)]
                adj.append(mask)
                cand = Graph.from_adj(adj)
                classes.setdefault(canonical_form(cand), cand)
        reps[n] = sorted(classes.values(),
                         key=lambda g: (g.edge_count(), g.adj))
    return reps


def smallest_leaf_form(g: Graph) -> tuple:
    """The smallest leaf form of the whole search tree over ``g``, with
    nothing pruned: what ``canonical_form`` returns for a graph that is
    connected and has a connected complement."""
    adj = g.adj

    def leaves(cells):
        cells = _refine(adj, cells)
        if len(cells) == g.n:
            pos = [0] * g.n
            for i, c in enumerate(cells):
                pos[c.bit_length() - 1] = 1 << i
            yield _relabel([adj[c.bit_length() - 1] for c in cells], pos)
            return
        i, cell = next((i, c) for i, c in enumerate(cells) if c & (c - 1))
        for v in bits(cell):
            yield from leaves(cells[:i] + [1 << v, cell & ~(1 << v)]
                              + cells[i + 1:])

    return min(leaves([g.full]))


def group_order(n: int, generators) -> int:
    """The order of the group of permutations of range(n) that
    ``generators`` generate (``perm[v]`` is the image of v), by listing
    every element."""
    identity = tuple(range(n))
    met = {identity}
    elements = [identity]
    for elem in elements:
        for perm in generators:
            prod = tuple([perm[v] for v in elem])
            if prod not in met:
                met.add(prod)
                elements.append(prod)
    return len(met)


def connected_graphs(max_n: int):
    """Connected representatives only (for the line-graph sweeps)."""
    out = {}
    for n, graphs in nonisomorphic_graphs(max_n).items():
        out[n] = [g for g in graphs if _is_connected(g)]
    return out


def _is_connected(g: Graph) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in range(g.n):
            if frontier >> v & 1:
                nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == g.full


def find_separators(x: str, y: str, max_n: int):
    """All scanned graphs satisfying x but not y; empty is not a proof.

    ``x``/``y`` are table property ids, or plain base predicate names.
    """
    cache = MembershipCache()
    out = []
    reps = nonisomorphic_graphs(max_n)
    for n in range(1, max_n + 1):
        for g in reps[n]:
            if cache.holds(x, g) and not cache.holds(y, g):
                out.append(g)
    return out


def scan_per_graph(max_n: int, include_lp: bool = False):
    """What :func:`cisgraphs.hasse.scan` reports, evaluating every class
    on its own representative and that representative's complement, so
    each class is computed twice (once as itself, once as a complement)."""
    report = hasse._new_report(max_n, include_lp)
    arrows, collapse = report.arrows, report.collapse
    reps = nonisomorphic_graphs(max_n)
    for n in range(1, max_n + 1):
        report.counts[n] = len(reps[n])
        with_lp = n <= report.lp_max_n
        for rep in reps[n]:
            g = Graph.from_adj(rep.adj)
            cache = MembershipCache()
            g6 = encode_graph6(g)
            co = complement(g)

            for a, b in hasse.SCAN_ARROWS:
                if not with_lp and (hasse._lp_backed(a)
                                    or hasse._lp_backed(b)):
                    continue
                res = arrows[f"{a}->{b}"]
                res.checked += 1
                if cache.holds(a, g) and not cache.holds(b, g):
                    res.failures.append(g6)
            if with_lp:
                res = arrows["equistable->no-bad-p4"]
                res.checked += 1
                if cache.base("equistable", g) and has_bad_p4(g):
                    res.failures.append(g6)
            res = arrows["split<->aCIS-or-cap-es"]
            res.checked += 1
            rhs = cache.base("almost_cis", g) or cache.holds("cap-es", g)
            if cache.base("split", g) != rhs:
                res.failures.append(g6)

            vec = {}
            for p in hasse.PROPERTY_ORDER:
                if not with_lp and hasse._lp_backed(p):
                    continue
                vec[p] = cache.holds(p, g)
            for p, val in vec.items():
                res = collapse[p]
                res.checked += 1
                if val != cache.holds(p, co):
                    res.failures.append(g6)
            for (row, col), res in report.subset_cells.items():
                if row not in vec or col not in vec:
                    continue
                res.checked += 1
                if vec[row] and not vec[col]:
                    res.failures.append(g6)
    return report


# ---------------------------------------------------------------------------
# gallery constructions


def random_split_lemma_properties(k: int, l: int, seed: int):
    """The four structural properties of the random split construction:
    S maximal stable, C maximal clique, common neighbors in S for clique
    pairs, common non-neighbors in C for stable pairs.
    """
    rows = _cross_adjacency(k, l, seed)
    s_maximal = all(rows[c] != 0 for c in range(k))
    c_maximal = all(
        any(not rows[c] >> s & 1 for c in range(k)) for s in range(l)
    )
    common_nbr = all(
        rows[c1] & rows[c2]
        for c1, c2 in itertools.combinations(range(k), 2)
    )
    common_nonnbr = all(
        any((~rows[c] >> s1 & 1) and (~rows[c] >> s2 & 1) for c in range(k))
        for s1, s2 in itertools.combinations(range(l), 2)
    )
    return (s_maximal, c_maximal, common_nbr, common_nonnbr)


def big_L_clique_families():
    """The 5 disjoint 6-cliques and 6 disjoint 5-cliques of the gallery
    graph L covering its line-graph-of-K_{5,6} part (rows/columns of the
    rook's graph)."""
    verts = list(itertools.product(range(5), range(6)))
    pos = {p: i for i, p in enumerate(verts)}
    six_cliques = [
        {pos[(i, j)] for j in range(6)} for i in range(5)
    ]
    five_cliques = [
        {pos[(i, j)] for i in range(5)} for j in range(6)
    ]
    return six_cliques, five_cliques
