"""Maximal clique / maximal stable set enumeration.

Families are returned as lists of bitmasks in ascending mask order, so
every caller sees the same deterministic family for a given graph.
"""

from __future__ import annotations

from .graphs import Graph, complement

DEFAULT_FAMILY_CAP = 1 << 20


class FamilyCapExceeded(RuntimeError):
    """Raised when a graph has more maximal cliques than the configured cap."""


def maximal_cliques(g: Graph):
    """All inclusion-maximal cliques of g, as a fresh list of bitmasks
    sorted ascending; enumerated once per graph object.  The family may
    hold at most ``DEFAULT_FAMILY_CAP`` members, read at call time."""
    family = g.memo("maximal_cliques", _bron_kerbosch)
    if len(family) > DEFAULT_FAMILY_CAP:
        raise FamilyCapExceeded(
            f"more than {DEFAULT_FAMILY_CAP} maximal cliques")
    return list(family)


def _bron_kerbosch(g: Graph):
    """Bron-Kerbosch with the Tomita pivot: the vertex of cand | excl with
    the most neighbours in cand, the lowest such vertex on ties; branches
    in ascending vertex order.  Returns the sorted family as a tuple."""
    out = []
    _expand(g.adj, out, 0, g.full, 0)
    return tuple(sorted(out))


def _expand(adj, out: list, clique: int, cand: int, excl: int):
    """One Bron-Kerbosch node; appends the maximal cliques below it to out.
    A module-level function rather than a closure, so no reference cycle
    keeps out alive after the enumeration.

    When cand is a clique (each of its k vertices sees the other k - 1),
    clique | cand is the only candidate below the node, and it is maximal
    unless a vertex of excl sees all of cand; then the node closes in one
    step.  Both tests read the counts the pivot loop takes: the counts
    over cand sum to k(k - 1), and no count reaches k."""
    if not cand:
        if not excl:
            if len(out) >= DEFAULT_FAMILY_CAP:
                raise FamilyCapExceeded(
                    f"more than {DEFAULT_FAMILY_CAP} maximal cliques")
            out.append(clique)
        return
    best = -1
    inside = 0  # the counts of the vertices of cand, summed
    m = cand | excl
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        covered = (adj[v] & cand).bit_count()
        if low & cand:
            inside += covered
        if covered > best:
            best, pivot = covered, v
    k = cand.bit_count()
    if best < k and inside == k * (k - 1):
        if len(out) >= DEFAULT_FAMILY_CAP:
            raise FamilyCapExceeded(
                f"more than {DEFAULT_FAMILY_CAP} maximal cliques")
        out.append(clique | cand)
        return
    m = cand & ~adj[pivot]
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        _expand(adj, out, clique | low, cand & adj[v], excl & adj[v])
        cand ^= low
        excl |= low


def maximal_stable_sets(g: Graph):
    return maximal_cliques(complement(g))

