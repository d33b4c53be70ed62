"""The clique/stable-set disjointness relation and two budgeted searches.

``disjointness`` is the one fact behind the CIS family, semi-weakly CIS,
weakly triangle, weakly CIS and normal, built once per complement pair
(complementing swaps the families): the maximal cliques and the maximal
stable sets, each numbered from 0, and masks of them: per vertex, the
members holding it; per member, the other family's members disjoint from
it; per edge, the cliques holding it, and per non-edge, the stable sets
holding it (the coverage clauses).

``exists_cross_intersecting`` looks for cross-intersecting
clique/stable-set subfamilies (weakly CIS and normal).  The candidates are
the maximal cliques, numbered 0..nc-1, and the maximal stable sets,
numbered nc..nc+ns-1; a set of candidates is an int mask over those
numbers.  There is one covering clause per edge, non-edge or vertex (the
mask of candidates containing it), and each candidate excludes the
candidates of the other family that are disjoint from it.  Every clause
is non-empty: an edge lies in a maximal clique, a non-edge in a maximal
stable set, a vertex in both.  The search state is two masks, the
candidates chosen and the candidates ruled out; choosing a candidate
rules out what it excludes, so no open candidate excludes a chosen one
(exclusion is symmetric).  Each node branches on the first unsatisfied
clause with the fewest open candidates, its options (the clique clauses
come before the stable-set ones).  When there are two or more, every
child chooses one of them, so a candidate that each option excludes can
never be chosen below the node: those are ruled out at the node
(forward checking on the branching clause, after Haralick and Elliott
1980), and the clause is selected again if any of them was still open.
The children try the options least constraining first: fewest excluded
candidates, the lowest number on ties, so certificates are
reproducible.  A backtrack is a node below the root left without
options, by an emptied clause or because every option failed; a
candidate ruled out at a node is not one.

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

Both searches raise ``SearchUndecided`` when their budget,
``DEFAULT_BACKTRACK_CAP`` read at call time, runs out, never a silent
"no".
"""

from __future__ import annotations

from typing import NamedTuple

from .cliques import maximal_cliques, maximal_stable_sets
from .graphs import Graph, bits

DEFAULT_BACKTRACK_CAP = 1_000_000


class SearchUndecided(RuntimeError):
    """Search budget exhausted; never silently reported as 'no'."""


class Disjointness(NamedTuple):
    """The disjointness relation of one graph (module docstring)."""

    cliques: list  # the maximal cliques, in maximal_cliques(g) order
    stables: list  # the maximal stable sets, in maximal_stable_sets(g) order
    clique_holders: list  # per vertex, the cliques holding it
    stable_holders: list  # per vertex, the stable sets holding it
    clique_excl: list  # per clique, the stable sets disjoint from it
    stable_excl: list  # per stable set, the cliques disjoint from it
    edge_clauses: list  # per edge, in g.edges() order, the cliques holding it
    nonedge_clauses: list  # the same per non-edge (complement(g).edges())


def disjointness(g: Graph) -> Disjointness:
    """The disjointness relation of g (module docstring), built once per
    graph or read off the complement's."""
    return g.memo("disjointness", _disjointness)


def _disjointness(g: Graph) -> Disjointness:
    co = g.known("complement")
    rel = co.known("disjointness") if co is not None else None
    if rel is not None:
        # complementing swaps the families and the edges with the non-edges
        return Disjointness(
            rel.stables, rel.cliques, rel.stable_holders,
            rel.clique_holders, rel.stable_excl, rel.clique_excl,
            rel.nonedge_clauses, rel.edge_clauses,
        )
    cliques, stables = maximal_cliques(g), maximal_stable_sets(g)
    ch, sh = _holders(cliques, g.n), _holders(stables, g.n)
    return Disjointness(
        cliques, stables, ch, sh,
        _exclusions(cliques, sh, (1 << len(stables)) - 1),
        _exclusions(stables, ch, (1 << len(cliques)) - 1),
        _coverage_clauses(g, ch, True), _coverage_clauses(g, sh, False),
    )


def _holders(family, n: int):
    """Per vertex, the mask of the members of ``family`` that contain it.

    The members are taken 64 at a time, so every bit is set in a word of
    at most 64 bits; each vertex's words are then joined once, which
    keeps the build linear in the family's size.
    """
    words = []  # per block of 64 members, per vertex, the holders' bits
    for start in range(0, len(family), 64):
        block = [0] * n
        bit = 1
        for mask in family[start:start + 64]:
            while mask:
                low = mask & -mask
                block[low.bit_length() - 1] |= bit
                mask ^= low
            bit <<= 1
        words.append(block)
    if len(words) <= 1:
        return words[0] if words else [0] * n
    return [
        int.from_bytes(b"".join(w.to_bytes(8, "little") for w in column),
                       "little")
        for column in zip(*words)
    ]


def _coverage_clauses(g: Graph, holders, edges: bool):
    """Per edge of g (``edges``) or per non-edge, pairs u < v ascending,
    the mask ``holders[u] & holders[v]`` of the members holding both."""
    flip = 0 if edges else g.full
    out = []
    for u, hu in enumerate(holders):
        m = (g.adj[u] ^ flip) & -(2 << u)
        while m:
            low = m & -m
            m ^= low
            out.append(hu & holders[low.bit_length() - 1])
    return out


def _exclusions(family, other_holders, other_all: int):
    """Per member of ``family``, the mask of the other family's members
    disjoint from it."""
    out = []
    for mask in family:
        meets = 0
        while mask:
            low = mask & -mask
            mask ^= low
            meets |= other_holders[low.bit_length() - 1]
        out.append(other_all & ~meets)
    return out


def exists_cross_intersecting(g: Graph, *, normal: bool):
    """Cross-intersecting covering subfamilies of the maximal clique and
    maximal stable set families, or None if none exist.

    The cliques cover the edges and the stable sets the non-edges (weakly
    CIS), or with ``normal`` both cover the vertices.  Returns (clique
    masks, stable masks) on success.  Restricting the candidates to
    maximal sets is what the definitions ask for, so the search is
    complete.
    """
    cap = DEFAULT_BACKTRACK_CAP
    rel = disjointness(g)
    nc = len(rel.cliques)
    # the clique clauses, then the stable-set clauses (candidates nc, ...)
    ch, sh = ((rel.clique_holders, rel.stable_holders) if normal
              else (rel.edge_clauses, rel.nonedge_clauses))
    families = ch, [h << nc for h in sh]
    excl = [x << nc for x in rel.clique_excl] + rel.stable_excl
    every = (1 << len(excl)) - 1
    backtracks = 0

    def branch(true: int, false: int, clauses=families[0] + families[1],
               best=None, fewest=len(excl) + 1):
        """The open candidates of the first unsatisfied clause of
        ``clauses`` with the fewest, if fewer than ``fewest``, else
        ``best`` (None when every clause is satisfied)."""
        keep = every & ~false  # a negative mask would be copied per clause
        for clause in clauses:
            if clause & true:
                continue
            open_ = clause & keep
            k = open_.bit_count()
            if k < fewest:
                if k <= 1:
                    return open_
                best, fewest = open_, k
        return best

    # an explicit stack, since a solution may choose over a thousand
    # candidates (K32,32 has 1024 maximal cliques): one frame per
    # branching, [chosen, ruled out, candidates not yet tried, the next
    # last], where a tried candidate is ruled out for the later ones
    true = false = 0
    stack = []
    while (options := branch(true, false)) is not None:
        # every child chooses one of the options, so a candidate that
        # they all exclude is ruled out here
        while options & options - 1:
            order, common, m = [], -1, options
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                order.append(v)
                common &= excl[v]
            if not common & ~false:
                order.sort(key=lambda c: excl[c].bit_count())
                order.reverse()
                break
            false |= common
            # only the other family's clauses lost open candidates; the
            # clique clauses come first, so they also win a tie
            k = len(order)
            if options >> nc:
                options = branch(true, false, families[0], options, k + 1)
            else:
                options = branch(true, false, families[1], options, k)
        else:  # at most one option
            order = [options.bit_length() - 1] if options else []
        stack.append([true, false, order])
        while not order:
            stack.pop()
            if not stack:
                return None
            backtracks += 1  # the parent's candidate led nowhere
            if backtracks > cap:
                raise SearchUndecided(
                    f"cross-intersecting search exceeded {cap} backtracks"
                )
            true, false, order = stack[-1]
        # an open candidate excludes no chosen one, since exclusion is
        # symmetric and what a chosen candidate excludes is ruled out
        v = order.pop()
        stack[-1][1] |= 1 << v
        true, false = true | 1 << v, false | excl[v]
    return (
        [rel.cliques[i] for i in bits(true & (1 << nc) - 1)],
        [rel.stables[j] for j in bits(true >> nc)],
    )


def dominated_clique(g: Graph):
    """A maximal clique of g and a stable set outside it that dominates
    it, as (clique mask, stable mask), or None iff g is CIS.

    The searches of all cliques share one node budget; past it the call
    raises ``SearchUndecided``.
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
