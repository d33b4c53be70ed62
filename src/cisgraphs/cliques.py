"""Maximal clique / maximal stable set enumeration and clique predicates.

Families are returned as lists of bitmasks in ascending mask order, so
every caller sees the same deterministic family for a given graph.
"""

from __future__ import annotations

import itertools

from .graphs import Graph, bits, complement

DEFAULT_FAMILY_CAP = 1 << 20


class FamilyCapExceeded(RuntimeError):
    """Raised when a graph has more maximal cliques than the configured cap."""


def maximal_cliques(g: Graph, cap: int = DEFAULT_FAMILY_CAP):
    """All inclusion-maximal cliques of g, as a fresh list of bitmasks
    sorted ascending; enumerated once per graph object."""
    family = g.memo("maximal_cliques", lambda g: _bron_kerbosch(g, cap))
    if len(family) > cap:
        raise FamilyCapExceeded(f"more than {cap} maximal cliques")
    return list(family)


def _bron_kerbosch(g: Graph, cap: int):
    """Bron-Kerbosch with a max-degree pivot; deterministic for a given
    graph.  Returns the sorted family as a tuple."""
    out = []
    closed = [g.closed_nbhd(v) for v in range(g.n)]

    def expand(clique: int, cand: int, excl: int):
        if not cand and not excl:
            if len(out) >= cap:
                raise FamilyCapExceeded(f"more than {cap} maximal cliques")
            out.append(clique)
            return
        # pivot: vertex of cand|excl covering the most candidates
        pivot = max(
            bits(cand | excl), key=lambda v: (g.adj[v] & cand).bit_count()
        )
        for v in bits(cand & ~g.adj[pivot]):
            expand(clique | 1 << v, cand & g.adj[v], excl & g.adj[v])
            cand &= ~(1 << v)
            excl |= 1 << v

    expand(0, g.full, 0)
    return tuple(sorted(out))


def maximal_stable_sets(g: Graph, cap: int = DEFAULT_FAMILY_CAP):
    return maximal_cliques(complement(g), cap)


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
