"""The module's two budgeted searches.

``exists_cross_intersecting`` looks for cross-intersecting
clique/stable-set subfamilies (weakly CIS and normal).  The candidates are
the maximal cliques, numbered 0..nc-1, and the maximal stable sets,
numbered nc..nc+ns-1; a set of candidates is an int mask over those
numbers.  There is one covering clause per edge, non-edge or vertex (the
mask of candidates containing it), and each candidate excludes the
candidates of the other family that are disjoint from it.  The search
state is two masks, the candidates chosen and the candidates ruled out.
It always branches on the first unsatisfied clause with the fewest open
candidates, in ascending candidate order, so certificates are
reproducible.

``dominated_clique`` decides CIS without listing the maximal stable sets.
A maximal stable set S misses a maximal clique C exactly when some stable
set outside C dominates C: S itself does, by maximality, and a stable
dominator extends greedily to a maximal stable set that still misses C,
since every vertex of C has a neighbour in it.  So g is CIS iff no
maximal clique has a stable dominator outside it.  One search per clique,
in ``maximal_cliques`` order, keeps two vertex masks: the clique vertices
not yet dominated, and the allowed vertices (outside C, not chosen, not
adjacent to a chosen vertex).  It branches on the undominated vertex with
the fewest allowed neighbours, trying them in ascending order; a
neighbour whose branch fails is no longer allowed for its later siblings.

Both searches raise ``SearchUndecided`` when their budget runs out, never
a silent "no".
"""

from __future__ import annotations

import itertools

from .cliques import (
    covers_edges,
    covers_nonedges,
    covers_vertices,
    maximal_cliques,
    maximal_stable_sets,
)
from .graphs import Graph, bits

DEFAULT_BACKTRACK_CAP = 1_000_000


class SearchUndecided(RuntimeError):
    """Search budget exhausted; never silently reported as 'no'."""


def _holders(family, n: int, first: int):
    """Per vertex, the mask of the candidates (numbered from ``first``)
    that contain it."""
    holders = [0] * n
    for i, mask in enumerate(family, first):
        for v in bits(mask):
            holders[v] |= 1 << i
    return holders


def _exclusions(family, other_holders, other_all: int):
    """Per member of ``family``, the mask of the other family's candidates
    disjoint from it."""
    out = []
    for mask in family:
        meets = 0
        for v in bits(mask):
            meets |= other_holders[v]
        out.append(other_all & ~meets)
    return out


def exists_cross_intersecting(
    g: Graph,
    *,
    normal: bool,
    backtrack_cap: int = DEFAULT_BACKTRACK_CAP,
):
    """Cross-intersecting covering subfamilies of the maximal clique and
    maximal stable set families, or None if none exist.

    The cliques cover the edges and the stable sets the non-edges (weakly
    CIS), or with ``normal`` both cover the vertices.  Returns (clique
    masks, stable masks) on success.  Restricting the candidates to
    maximal sets is what the definitions ask for, so the search is
    complete.
    """
    cliques = maximal_cliques(g)
    stables = maximal_stable_sets(g)
    nc, ns = len(cliques), len(stables)
    ch = _holders(cliques, g.n, 0)
    sh = _holders(stables, g.n, nc)
    if normal:
        clauses = ch + sh
    else:
        clauses = [ch[u] & ch[v] for u, v in g.edges()]
        clauses += [
            sh[u] & sh[v]
            for u, v in itertools.combinations(range(g.n), 2)
            if not g.has_edge(u, v)
        ]
    if not all(clauses):
        return None
    excl = _exclusions(cliques, sh, ((1 << ns) - 1) << nc) + _exclusions(
        stables, ch, (1 << nc) - 1
    )
    backtracks = 0

    def solve(true: int, false: int):
        """The chosen mask of a solution extending (true, false), or None."""
        nonlocal backtracks
        branch, fewest = 0, None
        for clause in clauses:
            if clause & true:
                continue
            open_ = clause & ~false
            k = open_.bit_count()
            if fewest is None or k < fewest:
                branch, fewest = open_, k
                if k <= 1:
                    break
        if fewest is None:
            return true
        for v in bits(branch):
            if not excl[v] & true:
                found = solve(true | 1 << v, false | excl[v])
                if found is not None:
                    return found
            backtracks += 1
            if backtracks > backtrack_cap:
                raise SearchUndecided("backtrack cap exceeded")
            false |= 1 << v
        return None

    chosen = solve(0, 0)
    if chosen is None:
        return None
    return (
        [c for i, c in enumerate(cliques) if chosen >> i & 1],
        [s for j, s in enumerate(stables) if chosen >> nc + j & 1],
    )


def verify_cover_certificate(
    g: Graph, chosen_cliques, chosen_stables, *, normal: bool,
) -> bool:
    """Re-verify an (externally supplied) certificate by set arithmetic,
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


def dominated_clique(g: Graph):
    """A maximal clique of g and a stable set outside it that dominates
    it, as (clique mask, stable mask), or None iff g is CIS.

    The searches of all cliques share one node budget,
    ``DEFAULT_BACKTRACK_CAP`` read at call time; past it the call raises
    ``SearchUndecided``.
    """
    adj = g.adj
    cap = DEFAULT_BACKTRACK_CAP
    nodes = 0

    def solve(undominated: int, allowed: int):
        """A stable set of allowed vertices dominating ``undominated``, or
        None."""
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise SearchUndecided(f"dominator search exceeded {cap} nodes")
        if not undominated:
            return 0
        branch, fewest = 0, len(adj) + 1
        m = undominated
        while m:
            low = m & -m
            m ^= low
            options = adj[low.bit_length() - 1] & allowed
            k = options.bit_count()
            if not k:
                return None
            if k < fewest:
                branch, fewest = options, k
        while branch:
            low = branch & -branch
            branch ^= low
            nb = adj[low.bit_length() - 1]
            found = solve(undominated & ~nb, allowed & ~nb & ~low)
            if found is not None:
                return found | low
            allowed ^= low
        return None

    for clique in maximal_cliques(g):
        stable = solve(clique, g.full & ~clique)
        if stable is not None:
            return clique, stable
    return None


def is_weakly_cis(g: Graph) -> bool:
    return exists_cross_intersecting(g, normal=False) is not None


def is_normal(g: Graph) -> bool:
    return exists_cross_intersecting(g, normal=True) is not None
