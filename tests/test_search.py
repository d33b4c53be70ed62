import functools
import hashlib
import itertools
import json
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisgraphs import search
from cisgraphs.cliques import maximal_cliques, maximal_stable_sets
from cisgraphs.gallery import (
    G12_CLIQUE_SUBFAMILY,
    G12_STABLE_SUBFAMILY,
    _shift,
    complete_bipartite,
    cycle,
    gallery,
    path,
)
from cisgraphs.graphs import Graph, bits, complement, mask_of, random_graph
from cisgraphs.hasse import nonisomorphic_graphs
from cisgraphs.linegraph import line_graph
from cisgraphs.recognizers import disjoint_pairs, is_cis
from cisgraphs.search import (
    Disjointness,
    SearchUndecided,
    disjointness,
    dominated_clique,
    exists_cross_intersecting,
    is_normal,
    is_weakly_cis,
)
import oracles
from oracles import verify_cover_certificate


def brute_weakly_cis(g):
    """Subfamily-enumeration oracle for tiny graphs."""
    cliques = maximal_cliques(g)
    stables = maximal_stable_sets(g)
    nonedges = [
        (u, v) for u, v in itertools.combinations(range(g.n), 2)
        if not g.has_edge(u, v)
    ]
    for ci in range(1, 1 << len(cliques)):
        cc = [c for i, c in enumerate(cliques) if ci >> i & 1]
        if not all(
            any(c >> u & 1 and c >> v & 1 for c in cc) for u, v in g.edges()
        ):
            continue
        for si in range(1, 1 << len(stables)):
            ss = [s for j, s in enumerate(stables) if si >> j & 1]
            if not all(
                any(s >> u & 1 and s >> v & 1 for s in ss)
                for u, v in nonedges
            ):
                continue
            if all(c & s for c in cc for s in ss):
                return True
    return False


def brute_normal(g):
    """Subfamily-enumeration oracle: vertex-covering families of maximal
    cliques and of maximal stable sets that cross-intersect."""

    def covering(family):
        return [
            sub
            for k in range(1, len(family) + 1)
            for sub in itertools.combinations(family, k)
            if functools.reduce(operator.or_, sub) == g.full
        ]

    stable_covers = covering(maximal_stable_sets(g))
    return any(
        all(c & s for c in cc for s in ss)
        for cc in covering(maximal_cliques(g))
        for ss in stable_covers
    )


def test_examples():
    assert not is_weakly_cis(path(4))
    assert is_weakly_cis(cycle(4))
    assert is_weakly_cis(Graph(1))
    assert is_normal(cycle(4))
    assert is_normal(Graph(1))
    # C5 is not normal (smallest non-normal graph)
    assert not is_normal(cycle(5))
    assert is_normal(cycle(9))


def test_g12_certificate():
    g = gallery("G12")
    cc = [sum(1 << v for v in s) for s in _shift(G12_CLIQUE_SUBFAMILY)]
    ss = [sum(1 << v for v in s) for s in _shift(G12_STABLE_SUBFAMILY)]
    assert verify_cover_certificate(g, cc, ss, normal=False)
    assert is_weakly_cis(g)


def test_search_returns_valid_certificate():
    g = gallery("G12")
    res = exists_cross_intersecting(g, normal=False)
    assert res is not None
    assert verify_cover_certificate(g, *res, normal=False)


def test_verify_cover_certificate_rejects():
    g = cycle(4)
    cliques = maximal_cliques(g)
    stables = maximal_stable_sets(g)
    assert verify_cover_certificate(g, cliques, stables, normal=False)
    # non-maximal member
    assert not verify_cover_certificate(g, [1], stables, normal=False)
    # missing edge coverage
    assert not verify_cover_certificate(g, cliques[:1], stables,
                                        normal=False)
    # cross-intersection failure on P4
    p = path(4)
    pc = maximal_cliques(p)
    ps = maximal_stable_sets(p)
    assert not verify_cover_certificate(p, pc, ps, normal=False)
    # normal target on P4: the stable family must cover every vertex
    ends = [mask_of([0, 1]), mask_of([2, 3])]
    ps = [mask_of([0, 2]), mask_of([0, 3]), mask_of([1, 3])]
    assert verify_cover_certificate(p, ends, ps, normal=True)
    # misses vertex 1
    assert not verify_cover_certificate(p, ends, ps[:2], normal=True)


def test_cis_implies_weakly_cis_small():
    for seed in range(40):
        g = random_graph(6, 0.5, random.Random(seed))
        if is_cis(g):
            assert is_weakly_cis(g)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_against_subfamily_oracle(seed, n):
    g = random_graph(n, 0.5, random.Random(seed))
    assert is_weakly_cis(g) == brute_weakly_cis(g)


def test_backtrack_cap(monkeypatch):
    # the forced core refutes weakly CIS on P4 before any branching; C5
    # is not normal, and its search still backtracks
    cores = []
    forced_core = search._forced_core

    def recorded(*args):
        cores.append(forced_core(*args))
        return cores[-1]

    monkeypatch.setattr(search, "_forced_core", recorded)
    monkeypatch.setattr(search, "DEFAULT_BACKTRACK_CAP", 0)
    assert exists_cross_intersecting(path(4), normal=False) is None
    assert cores == [None]
    with pytest.raises(SearchUndecided):
        exists_cross_intersecting(cycle(5), normal=True)
    # a budget large enough to finish gives the definite "no"
    monkeypatch.undo()
    assert exists_cross_intersecting(cycle(5), normal=True) is None


def test_weakly_cis_search_never_backtracks_to_seven_vertices(monkeypatch):
    # from its forced core, the weakly-CIS search decides every class
    # with n <= 7 and its complement without a backtrack (at the search
    # without the core, 1,764 of these 2,504 sides backtracked)
    monkeypatch.setattr(search, "DEFAULT_BACKTRACK_CAP", 0)
    sides = [x for reps in nonisomorphic_graphs(7).values() for g in reps
             for x in (g, complement(g))]
    assert len(sides) == 2504
    for g in sides:
        found = exists_cross_intersecting(g, normal=False)
        assert found is None or verify_cover_certificate(
            g, *found, normal=False)


def test_normal_against_subfamily_oracle():
    for graphs in nonisomorphic_graphs(5).values():
        for g in graphs:
            assert is_normal(g) == brute_normal(g)


def _digest(results):
    return hashlib.sha256(json.dumps(results).encode()).hexdigest()


def test_results_and_budget_pinned(monkeypatch):
    # certificates of both searches on seeded graphs of 8-24 vertices;
    # the search without branching-clause pruning, trying candidates in
    # ascending order, found the certificates of digest a7012a69...
    results, plain = [], []
    for n in range(8, 25, 2):
        for k in (1, 3, 5, 7, 9):
            g = random_graph(n, k / 10, random.Random(100 * n + k))
            for normal in (False, True):
                found = exists_cross_intersecting(g, normal=normal)
                assert found is None or verify_cover_certificate(
                    g, *found, normal=normal)
                results.append(found)
                plain.append(oracles.exists_cross_intersecting_plain(
                    g, normal=normal))
    assert _digest(plain) == (
        "a7012a6961dc5659989fbc448a565e4ad97313e5b9509f5a824e31c821923154"
    )
    assert _digest(results) == (
        "82110c8d96e3ae3f6fe7a1a59d565d22d47cb08027494a5a60e6ee3cba22798b"
    )
    # the search refutes normality of this graph in exactly 50
    # backtracks (the plain search in 108)
    g = random_graph(24, 0.5, random.Random(1))
    monkeypatch.setattr(search, "DEFAULT_BACKTRACK_CAP", 49)
    with pytest.raises(SearchUndecided,
                       match="cross-intersecting search exceeded 49 "
                             "backtracks"):
        exists_cross_intersecting(g, normal=True)
    monkeypatch.setattr(search, "DEFAULT_BACKTRACK_CAP", 50)
    assert exists_cross_intersecting(g, normal=True) is None


def _check_against_plain_search(g):
    for normal in (False, True):
        found = exists_cross_intersecting(g, normal=normal)
        plain = oracles.exists_cross_intersecting_plain(g, normal=normal)
        assert (found is None) == (plain is None), normal
        for certificate in (found, plain):
            assert certificate is None or verify_cover_certificate(
                g, *certificate, normal=normal)


def test_pruned_search_matches_plain_search():
    checked = 0
    for graphs in nonisomorphic_graphs(7).values():
        for g in graphs:
            _check_against_plain_search(g)
            _check_against_plain_search(complement(g))
            checked += 1
    assert checked == 1252
    for n in range(17, 29):
        for p in (0.3, 0.5, 0.7):
            for seed in range(2):
                rng = random.Random(f"{n}/{p}/{seed}")
                _check_against_plain_search(random_graph(n, p, rng))


# ---------------------------------------------------------------------------
# dominated_clique: the direct CIS test of cis-line --verify


def check_dominated_clique(g):
    """dominated_clique agrees with the disjoint-pair walk, and its
    certificate checks out by set arithmetic."""
    found = dominated_clique(g)
    assert (found is None) == (disjoint_pairs(g) == ())
    if found is None:
        return
    clique, stable = found
    assert clique in maximal_cliques(g)
    assert g.is_stable(stable) and not clique & stable
    assert all(g.adj[v] & stable for v in bits(clique))
    extended = stable
    for v in range(g.n):
        if not (g.adj[v] | 1 << v) & extended:
            extended |= 1 << v
    assert extended in maximal_stable_sets(g) and not extended & clique


def test_dominated_clique_all_small_classes():
    checked = 0
    for graphs in nonisomorphic_graphs(7).values():
        for g in graphs:
            check_dominated_clique(g)
            checked += 1
    assert checked == 1252


def test_dominated_clique_random_graphs():
    rng = random.Random(14)
    for _ in range(150):
        check_dominated_clique(
            random_graph(rng.randint(8, 20), rng.random(), rng)
        )


def _random_tree(n, rng):
    return Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])


def _random_bipartite(a, b, p, rng):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)
                         if rng.random() < p])


def test_dominated_clique_line_graphs():
    # line graphs are what cis-line --verify runs it on; the complete
    # bipartite roots are the largest inputs the CLI takes (64 vertices)
    rng = random.Random(7)
    k88 = complete_bipartite(8, 8)
    roots = [k88, complete_bipartite(7, 9),
             Graph(16, [e for e in k88.edges() if e != (0, 8)])]
    roots += [_random_bipartite(rng.randint(2, 8), rng.randint(2, 8),
                                rng.uniform(0.3, 0.9), rng)
              for _ in range(20)]
    roots += [_random_tree(rng.randint(2, 40), rng) for _ in range(20)]
    roots += [cycle(n) for n in range(3, 40, 4)]
    roots += [random_graph(rng.randint(4, 12), rng.uniform(0.2, 0.6), rng)
              for _ in range(20)]
    for h in roots:
        if 0 < h.edge_count() <= 64:
            check_dominated_clique(line_graph(h))


def test_dominated_clique_budget(monkeypatch):
    # L(K8,8) is CIS and is decided in 219,200 nodes, within the default
    # budget; the budget is read at call time
    lg = line_graph(complete_bipartite(8, 8))
    assert dominated_clique(lg) is None
    monkeypatch.setattr(search, "DEFAULT_BACKTRACK_CAP", 219_199)
    with pytest.raises(SearchUndecided):
        dominated_clique(lg)
    monkeypatch.setattr(search, "DEFAULT_BACKTRACK_CAP", 219_200)
    assert dominated_clique(lg) is None


def _swap_test_graphs():
    for graphs in nonisomorphic_graphs(7).values():
        yield from graphs
    rng = random.Random(17)
    for _ in range(100):
        yield random_graph(rng.randint(1, 20), rng.random(), rng)


def test_disjointness_read_off_the_complement():
    # the relation of a graph's complement, in either build order, is
    # the graph's own with the families swapped, field by field equal to
    # a relation built from scratch, whose coverage clauses are the
    # holders shared by the ends of each edge and of each non-edge
    checked = 0
    for rep in _swap_test_graphs():
        for first_complement in (False, True):
            g = Graph.from_adj(rep.adj)
            co = complement(g)
            first, second = (co, g) if first_complement else (g, co)
            built = disjointness(first)
            swapped = disjointness(second)
            assert swapped.cliques is built.stables
            fresh = search._disjointness(Graph.from_adj(second.adj))
            for field in Disjointness._fields:
                assert getattr(swapped, field) == getattr(fresh, field), field
            ch, sh = fresh.clique_holders, fresh.stable_holders
            assert fresh.edge_clauses == [
                ch[u] & ch[v] for u, v in second.edges()]
            assert fresh.nonedge_clauses == [
                sh[u] & sh[v] for u, v in complement(second).edges()]
        checked += 1
    assert checked == 1252 + 100


def test_holders_match_per_member_loop():
    # the blocked build against the one-bit-per-pair loop it replaced, on
    # families around the 64-member block size and on the 4,096 maximal
    # cliques of the complement of a perfect matching on 24 vertices
    rng = random.Random(18)
    families = [([], 5)]
    for size in (1, 63, 64, 65, 130):
        n = rng.randint(1, 20)
        families.append(([rng.randrange(1 << n) for _ in range(size)], n))
    matching = complement(Graph(24, [(i, i + 1) for i in range(0, 24, 2)]))
    families.append((maximal_cliques(matching), 24))
    for family, n in families:
        assert search._holders(family, n) == \
            oracles.holders_by_member(family, n)
    assert len(families[-1][0]) == 4096
