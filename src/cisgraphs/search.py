"""Existence search for cross-intersecting clique/stable-set subfamilies.

The candidates are the maximal cliques, numbered 0..nc-1, and the maximal
stable sets, numbered nc..nc+ns-1; a set of candidates is an int mask over
those numbers.  There is one covering clause per edge, non-edge or vertex
(the mask of candidates containing it), and each candidate excludes the
candidates of the other family that are disjoint from it.  The search
state is two masks, the candidates chosen and the candidates ruled out.
It always branches on the first unsatisfied clause with the fewest open
candidates, in ascending candidate order, so certificates are
reproducible.
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
    """Backtrack budget exhausted; never silently reported as 'no'."""


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


def is_weakly_cis(g: Graph) -> bool:
    return exists_cross_intersecting(g, normal=False) is not None


def is_normal(g: Graph) -> bool:
    return exists_cross_intersecting(g, normal=True) is not None
