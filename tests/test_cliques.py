import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisgraphs import cliques
from cisgraphs.cliques import (
    FamilyCapExceeded,
    maximal_cliques,
    maximal_stable_sets,
)
from cisgraphs.gallery import complete_bipartite
from cisgraphs.graphs import Graph, bits, complement, mask_of, random_graph
from cisgraphs.linegraph import line_graph
from oracles import (
    covers_edges,
    covers_nonedges,
    covers_vertices,
    maximal_cliques_brute,
    simplicial_cliques,
    to_nx,
)


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        yield Graph(n, [p for p, keep in zip(pairs, picks) if keep])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bron_kerbosch_matches_brute_exhaustive(n):
    for g in all_graphs(n):
        assert maximal_cliques(g) == maximal_cliques_brute(g)


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(6, 11))
def test_bron_kerbosch_matches_brute_random(seed, n):
    g = random_graph(n, 0.5, random.Random(seed))
    assert maximal_cliques(g) == maximal_cliques_brute(g)


def test_maximal_cliques_sorted_and_maximal():
    g = random_graph(12, 0.5, random.Random(5))
    fam = maximal_cliques(g)
    assert fam == sorted(fam)
    for c in fam:
        assert g.is_clique(c)
        for v in range(g.n):
            if not c >> v & 1:
                assert not g.is_clique(c | 1 << v)
    # each call returns a fresh list; the memoized family stays intact
    expected = list(fam)
    fam.clear()
    maximal_stable_sets(complement(g)).append(-1)
    assert maximal_cliques(g) == expected


def test_stable_sets_are_complement_cliques():
    g = random_graph(10, 0.5, random.Random(2))
    assert maximal_stable_sets(g) == maximal_cliques(complement(g))
    for s in maximal_stable_sets(g):
        assert g.is_stable(s)


def networkx_cliques(g):
    return sorted(mask_of(c) for c in nx.find_cliques(to_nx(g)))


@pytest.mark.parametrize("n", [20, 30, 40])
@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_bron_kerbosch_matches_networkx_random(n, p):
    g = random_graph(n, p, random.Random(1000 * n + int(10 * p)))
    assert maximal_cliques(g) == networkx_cliques(g)


def test_bron_kerbosch_matches_networkx_many_cliques():
    # maximal cliques of the complement of L(K_{7,7}) are the maximal
    # matchings of K_{7,7}: its 7! perfect matchings
    g = complement(line_graph(complete_bipartite(7, 7)))
    fam = maximal_cliques(g)
    assert len(fam) == 5040
    assert fam == networkx_cliques(g)


def test_family_cap(monkeypatch):
    # complement of a perfect matching on 2k vertices has 2^k maximal
    # cliques; the cap is read at call time
    k = 8

    def fresh():
        return complement(Graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)]))

    def cap(value):
        monkeypatch.setattr(cliques, "DEFAULT_FAMILY_CAP", value)

    cap(2 ** k)
    assert len(maximal_cliques(fresh())) == 2 ** k
    cap(2 ** k - 1)
    with pytest.raises(FamilyCapExceeded):
        maximal_cliques(fresh())
    g = fresh()
    cap(100)
    with pytest.raises(FamilyCapExceeded):
        maximal_cliques(g)
    monkeypatch.undo()
    assert len(maximal_cliques(g)) == 2 ** k
    # the cap applies to a family already enumerated, too
    cap(2 ** k - 1)
    with pytest.raises(FamilyCapExceeded):
        maximal_cliques(g)
    cap(2 ** k)
    assert len(maximal_cliques(g)) == 2 ** k


def test_simplicial_cliques():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert simplicial_cliques(p4) == [mask_of([0, 1]), mask_of([2, 3])]
    k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert simplicial_cliques(k3) == [0b111]
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert simplicial_cliques(c4) == []


def test_covers_helpers():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    edges_fam = [mask_of([0, 1]), mask_of([1, 2]), mask_of([2, 3])]
    assert covers_edges(p4, edges_fam)
    assert not covers_edges(p4, edges_fam[:2])
    assert covers_nonedges(p4, [mask_of([0, 1, 2, 3])])  # whole vertex set
    assert not covers_nonedges(p4, [mask_of([0, 2])])
    assert covers_vertices(p4, edges_fam)
    assert not covers_vertices(p4, edges_fam[:1])


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_every_vertex_in_some_maximal_clique(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(1, 12), 0.4, rng)
    fam = maximal_cliques(g)
    assert covers_vertices(g, fam)
    assert covers_edges(g, fam)
    for v in range(g.n):
        assert any(c >> v & 1 for c in fam)
