import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisgraphs.gallery import complete, complete_bipartite, cycle, gallery, path
from cisgraphs.graphs import Graph, GraphError, is_isomorphic, random_graph
from cisgraphs.hasse import nonisomorphic_graphs
from cisgraphs._blossom import blossom_matching, check_optimum, twice_weights
from cisgraphs.linegraph import (
    _krausz_partition,
    check_condition_vii,
    find_bull_subgraph,
    is_cis_line_root,
    line_graph,
    max_weight_matching,
    max_weight_matching_blossom,
    max_weight_matching_brute,
    maximal_matchings,
    neighborhood_subgraph,
    root_graph,
    tilde,
)
from cisgraphs.recognizers import is_cis
from oracles import (
    connected_graphs,
    find_bull_subgraph_by_triples,
    krausz_partition_by_subcliques,
    max_weight_matching_networkx,
    relabelled,
    roots_agree,
)


def test_line_graph_basics():
    assert is_isomorphic(line_graph(path(4)), path(3))
    assert is_isomorphic(line_graph(cycle(5)), cycle(5))
    claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert is_isomorphic(line_graph(claw), complete(3))
    with pytest.raises(GraphError):
        line_graph(Graph(3))
    # beyond 64 vertices: 72 edges, each meeting 7 + 8 others
    lg = line_graph(complete_bipartite(8, 9))
    assert lg.n == 72 and lg.edge_count() == 72 * 15 // 2


def test_tilde():
    t = tilde(path(2))
    assert t.n == 4 and t.edge_count() == 3
    for v in range(2):
        assert t.degree(2 + v) == 1
    t = tilde(Graph(33, [(0, 32)]))
    assert t.n == 66 and t.edge_count() == 34
    assert t.has_edge(32, 65)


def test_root_graph_known_cases():
    claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert root_graph(claw).kind == "not-line-graph"
    # K3 has two non-isomorphic roots
    res = root_graph(complete(3))
    assert res.kind == "ambiguous"
    kinds = sorted(r.n for r in res.roots)
    assert kinds == [3, 4]
    # line graph of P5 is P4
    res = root_graph(path(4))
    assert res.kind == "root"
    assert is_isomorphic(res.roots[0], path(5))
    # the 4-rim wheel is L(K4 minus an edge); the 5-rim wheel is a
    # minimal non-line graph
    w4 = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4),
                   (4, 1)])
    assert root_graph(w4).kind == "root"
    w5 = Graph(6, [(0, i) for i in range(1, 6)]
               + [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert root_graph(w5).kind == "not-line-graph"


def test_root_graph_inverts_line_graph():
    samples = [
        path(2), path(5), cycle(4), cycle(6), complete(4),
        complete_bipartite(2, 3), complete_bipartite(3, 3),
        gallery("Bull"), gallery("S3"), gallery("C9"), tilde(path(3)),
    ]
    for h in samples:
        assert roots_agree(h), h
    assert roots_agree(complete(3))  # the ambiguous case


def test_root_graph_random_roots():
    rng = random.Random(5)
    done = 0
    while done < 25:
        h = random_graph(rng.randint(2, 7), 0.45, rng)
        if h.edge_count() == 0:
            continue
        assert roots_agree(h)
        done += 1


def test_non_line_graphs_rejected():
    # the nine minimal forbidden subgraphs all contain K1,3; a quick spot
    # check with two of them
    k13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert root_graph(k13).kind == "not-line-graph"
    k5_minus_pm = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4),
                            (1, 3), (2, 4)])
    # contains an induced claw? build one explicitly instead: K1,4
    k14 = Graph(5, [(0, i) for i in range(1, 5)])
    assert root_graph(k14).kind == "not-line-graph"
    del k5_minus_pm


def test_claw_check_agrees_with_krausz_search():
    # root_graph may only reject what the sub-clique search rejects
    rejected = 0
    for g in itertools.chain(*nonisomorphic_graphs(6).values()):
        not_line = root_graph(g).kind == "not-line-graph"
        assert not_line == (krausz_partition_by_subcliques(g) is None), g
        rejected += not_line
    assert rejected > 0


def test_forced_cells_match_subclique_search():
    # the same cells in the same order, so every root_graph6 byte stays
    def agree(g):
        assert _krausz_partition(g) == krausz_partition_by_subcliques(g), g

    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for m in range(1 << len(pairs)):
            agree(Graph(n, [p for i, p in enumerate(pairs) if m >> i & 1]))
    rng = random.Random(7)
    for g in itertools.chain(*nonisomorphic_graphs(7).values()):
        agree(relabelled(g, rng))
        agree(relabelled(g, rng))
    done = 0
    while done < 300:
        h = random_graph(rng.randint(2, 12), rng.choice([0.25, 0.4, 0.6]), rng)
        if not 0 < h.edge_count() <= 24:
            continue
        agree(relabelled(line_graph(h), rng))
        done += 1


def test_matching_backends_agree():
    rng = random.Random(1)
    for _ in range(40):
        h = random_graph(rng.randint(2, 8), 0.5, rng)
        if h.edge_count() == 0:
            continue
        wts = {e: rng.randint(-2, 5) for e in h.edges()}
        t1, m1 = max_weight_matching_brute(h, wts.get)
        t2, m2 = max_weight_matching_blossom(h, wts.get)
        assert t1 == t2
        # returned matchings are valid and achieve the total
        for m in (m1, m2):
            used = set()
            for u, v in m:
                assert h.has_edge(u, v)
                assert u not in used and v not in used
                used.update((u, v))
        assert sum(wts[e] for e in m1) == t1


def test_matching_dispatch():
    # branch and bound up to 24 edges, blossom above
    total, edges, backend = max_weight_matching(path(4), lambda e: 1)
    assert total == 2 and backend == "brute"
    h = complete(8)
    assert h.edge_count() == 28
    rng = random.Random(3)
    wts = {e: rng.randint(-2, 5) for e in h.edges()}
    total, edges, backend = max_weight_matching(h, wts.get)
    assert backend == "blossom"
    assert total == max_weight_matching_brute(h, wts.get)[0]
    assert sum(wts[e] for e in edges) == total


def test_blossom_port_matches_networkx():
    # the same total and the same pairs as networkx's solver, so that
    # every blossom-backed certificate keeps its bytes; the branch and
    # bound gives the same total wherever it runs
    def agree(h, weight):
        found = max_weight_matching_blossom(h, weight)
        assert found == max_weight_matching_networkx(h, weight), (
            sorted(h.edges()))
        if h.edge_count() <= 24:
            assert found[0] == max_weight_matching_brute(h, weight)[0]
        return h.edge_count() > 24

    def every_hx(h):
        above = 0
        for x in range(h.n):
            edges, weights = neighborhood_subgraph(h, x)
            if edges:
                above += agree(Graph(h.n, edges), weights.get)
        return above

    for graphs in connected_graphs(7).values():
        for h in graphs:
            every_hx(h)
    # the bench's dense bipartite root families, at most 64 edges
    rng = random.Random(11)
    roots = [Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)
                           if rng.random() < 0.8])
             for a, b in ((8, 8), (6, 10)) for _ in range(6)]
    assert sum(map(every_hx, roots)) > 0  # the blossom's own range
    for _ in range(150):
        h = random_graph(rng.randint(2, 12), rng.choice([0.3, 0.5, 0.8]), rng)
        wts = {e: rng.randint(-2, 5) for e in h.edges()}
        agree(h, wts.get)
    k8 = complete(8)  # the case of test_matching_dispatch
    k8_rng = random.Random(3)
    wts = {e: k8_rng.randint(-2, 5) for e in k8.edges()}
    assert agree(k8, wts.get)


def test_blossom_optimality_check_refuses_perturbations():
    # the duals prove the matching optimal; moving one vertex or blossom
    # dual by 1 or unmatching one pair of positive dual breaks that proof
    # (a blossom of 2k + 1 vertices holds k matched edges at slack 0)
    rng = random.Random(4)
    unmatched = blossoms = 0
    for _ in range(30):
        h = random_graph(rng.randint(4, 14), 0.5, rng)
        twice = twice_weights(h, lambda e: rng.randint(-2, 5))
        mate, dualvar, blossomdual, parent = blossom_matching(h, twice)
        check_optimum(h, twice, mate, dualvar, blossomdual, parent)
        for v in range(h.n):
            for step in (-1, 1):
                moved = list(dualvar)
                moved[v] += step
                with pytest.raises(RuntimeError):
                    check_optimum(h, twice, mate, moved, blossomdual, parent)
        for b in blossomdual:
            for step in (-1, 1):
                moved = dict(blossomdual)
                moved[b] += step
                with pytest.raises(RuntimeError):
                    check_optimum(h, twice, mate, dualvar, moved, parent)
            blossoms += 1
        for v, w in mate.items():
            if v < w and dualvar[v] + dualvar[w] > 0:
                fewer = {u: m for u, m in mate.items() if u not in (v, w)}
                with pytest.raises(RuntimeError):
                    check_optimum(h, twice, fewer, dualvar, blossomdual,
                                   parent)
                unmatched += 1
        if mate:
            v = next(iter(mate))
            lopsided = dict(mate)
            lopsided[v] = next(u for u in range(h.n) if u not in (v, mate[v]))
            with pytest.raises(RuntimeError):
                check_optimum(h, twice, lopsided, dualvar, blossomdual,
                               parent)
    assert unmatched and blossoms


def test_blossom_refuses_non_integer_weights():
    h = complete(8)
    for bad in (1.0, 0.5, Fraction(1), True):
        with pytest.raises(ValueError, match="integer weights"):
            max_weight_matching_blossom(h, lambda e, w=bad: w)


def test_find_bull():
    assert find_bull_subgraph(gallery("Bull")) is not None
    assert find_bull_subgraph(cycle(5)) is None
    assert find_bull_subgraph(complete(4)) is None  # no outside endpoints
    # bull as a non-induced subgraph
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4), (0, 4)])
    a, u, v, b, w = find_bull_subgraph(g)
    tri = {u, v, w}
    assert g.is_clique(sum(1 << x for x in tri))
    assert a not in tri and b not in tri and a != b
    assert g.has_edge(a, u) and g.has_edge(b, v)


def test_find_bull_matches_triple_scan():
    # the bitmask triangle walk returns the bull the scan of every vertex
    # triple returns, so every bull certificate keeps its bytes
    roots = [h for graphs in connected_graphs(7).values() for h in graphs]
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(3, 20)
        h = random_graph(n, rng.choice((0.1, 0.2, 0.4, 0.7)), rng)
        if 0 < h.edge_count() <= 64:
            roots.append(h)
    found = 0
    for h in roots:
        bull = find_bull_subgraph(h)
        assert bull == find_bull_subgraph_by_triples(h), sorted(h.edges())
        found += bull is not None
    assert 0 < found < len(roots)
    assert max(h.edge_count() for h in roots) > 40


def test_neighborhood_subgraph_weights():
    # star K1,3 with an extra edge between two leaves
    h = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    edges, weights = neighborhood_subgraph(h, 3)
    # vertex 3 sees only vertex 0; H(3) = edges meeting N(3)={0} minus
    # those through 3
    assert sorted(edges) == [(0, 1), (0, 2)]
    assert weights == {(0, 1): 1, (0, 2): 1}
    # from the triangle vertex 1: N(1) = {0, 2}
    edges, weights = neighborhood_subgraph(h, 1)
    assert weights[(0, 2)] == 2
    assert weights[(0, 3)] == 1


def test_maximal_matchings():
    ms = maximal_matchings(path(4))
    as_sets = {frozenset(m) for m in ms}
    assert as_sets == {
        frozenset({(0, 1), (2, 3)}),
        frozenset({(1, 2)}),
    }
    assert maximal_matchings(Graph(3)) == [[]]


def test_condition_agreement_small_random():
    rng = random.Random(9)
    done = 0
    while done < 60:
        h = random_graph(rng.randint(2, 6), 0.5, rng)
        if h.edge_count() == 0:
            continue
        direct = is_cis(line_graph(h))
        verdict, cert, _ = is_cis_line_root(h)
        oracle = check_condition_vii(h)
        assert direct == verdict == oracle, sorted(h.edges())
        done += 1


def test_known_verdicts():
    # L(K3,3) is CIS
    assert is_cis_line_root(complete_bipartite(3, 3))[0]
    # the bull root fails immediately
    verdict, cert, _ = is_cis_line_root(gallery("Bull"))
    assert not verdict and cert[0] == "bull"
    # tilde of a triangle-free graph always passes
    for h in (path(3), cycle(5), complete_bipartite(2, 3)):
        assert is_cis_line_root(tilde(h))[0]
        assert is_cis(line_graph(tilde(h)))


def test_matching_certificate_reported():
    # P5 root: L(P5) = P4 is not CIS; the middle vertex certificate
    verdict, cert, _ = is_cis_line_root(path(5))
    assert not verdict
    assert cert[0] == "matching"
    x, matching = cert[1], cert[2]
    h = path(5)
    covered = set()
    for u, v in matching:
        covered.update((u, v))
    nbrs = {w for w in range(h.n) if h.has_edge(x, w)}
    assert nbrs <= covered
    assert len(matching) >= 2
