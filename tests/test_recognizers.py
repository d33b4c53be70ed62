import functools
import io
import itertools
import json
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.threshold import is_threshold_graph

from cisgraphs.cli import main
from cisgraphs.cliques import maximal_cliques, maximal_stable_sets
from cisgraphs.equistable import is_equistable
from cisgraphs.gallery import (
    complete,
    complete_bipartite,
    cycle,
    gallery,
    path,
    random_split,
)
from cisgraphs.graphs import (
    Graph,
    bits,
    complement,
    encode_graph6,
    is_isomorphic,
    mask_of,
    parse_graph6,
    random_graph,
)
from cisgraphs.hasse import nonisomorphic_graphs
from cisgraphs.search import exists_cross_intersecting
from cisgraphs.recognizers import (
    BASE_NAMES,
    COMPLEMENT_INVARIANT,
    UnsupportedSize,
    _base_predicates,
    _has_odd_hole,
    _triangle_violating_edge,
    base_predicate,
    disjoint_pairs,
    has_bad_p4,
    induced_p4s,
    is_almost_cis,
    is_cis,
    is_cograph,
    is_edge_simplicial,
    is_perfect,
    is_quasi_cis,
    is_semi_weakly_cis,
    is_split,
    is_threshold,
    is_triangle,
    is_weakly_triangle,
    triangle_violation,
)
from oracles import (
    count_split_partitions,
    covers_edges,
    disjoint_pairs_pairwise,
    has_bad_p4_by_scan,
    has_odd_hole_by_subsets,
    induced_subgraph,
    is_cograph_by_four_subsets,
    is_edge_simplicial_by_cliques,
    is_threshold_by_four_subsets,
    relabelled,
    split_partition,
    strong_maximal_cliques,
    strong_maximal_cliques_pairwise,
    to_nx,
    triangle_violating_edge_by_edges,
    verify_cover_certificate,
)


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        yield Graph(n, [p for p, keep in zip(pairs, picks) if keep])


def induced_copies(g, h):
    """Does g contain an induced copy of h (brute force)."""
    from cisgraphs.graphs import is_isomorphic

    for sub in itertools.combinations(range(g.n), h.n):
        if is_isomorphic(induced_subgraph(g, mask_of(sub)), h):
            return True
    return False


P4 = path(4)
C4 = cycle(4)
TWO_K2 = Graph(4, [(0, 1), (2, 3)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cograph_threshold_against_induced_scan(n):
    for g in all_graphs(n):
        assert is_cograph(g) == (not induced_copies(g, P4))
        expect = not (induced_copies(g, P4) or induced_copies(g, C4)
                      or induced_copies(g, TWO_K2))
        assert is_threshold(g) == expect


def test_induced_p4s():
    found = {tuple(sorted((a, d))) + tuple(sorted((b, c)))
             for a, b, c, d in induced_p4s(path(4))}
    assert found == {(0, 3, 1, 2)}
    assert list(induced_p4s(cycle(4))) == []
    for a, b, c, d in induced_p4s(cycle(5)):
        g = cycle(5)
        assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
        assert not (g.has_edge(a, c) or g.has_edge(b, d) or g.has_edge(a, d))


def test_split_partition_brute():
    for g in all_graphs(4):
        expect = any(
            g.is_clique(m) and g.is_stable(g.full & ~m)
            for m in range(1 << g.n)
        )
        assert is_split(g) == expect
        part = split_partition(g)
        assert (part is not None) == expect
        if part is not None:
            c, s = part
            assert c | s == g.full and not c & s
            assert g.is_clique(c) and g.is_stable(s)


def _from_nx(h):
    h = nx.convert_node_labels_to_integers(h)
    return Graph(h.number_of_nodes(), h.edges())


def _assert_shortcuts_match_oracles(g):
    """The four predicates against the clique-family and four-subset
    code they replace (fresh copies, so no memo is shared), and
    threshold against networkx.  Returns the four verdicts."""
    fresh = Graph.from_adj(g.adj)
    verdicts = (is_split(g), is_threshold(g), is_cograph(g),
                is_edge_simplicial(g))
    assert verdicts == (
        split_partition(fresh) is not None,
        is_threshold_by_four_subsets(fresh),
        is_cograph_by_four_subsets(fresh),
        is_edge_simplicial_by_cliques(fresh),
    ), g.adj
    assert verdicts[1] == is_threshold_graph(to_nx(g)), g.adj
    return verdicts


def test_shortcuts_match_oracles_on_small_classes():
    seen = set()
    for graphs in nonisomorphic_graphs(7).values():
        for g in graphs:
            seen.add(_assert_shortcuts_match_oracles(g))
    # every verdict of each predicate occurs
    assert all({v[i] for v in seen} == {False, True} for i in range(4))


def test_shortcuts_match_oracles_on_random_graphs():
    rng = random.Random(12)
    for i in range(150):
        g = random_graph(8 + i % 17, (0.1, 0.3, 0.5, 0.7, 0.9)[i % 5], rng)
        _assert_shortcuts_match_oracles(g)
    for seed in range(60):
        g = random_split(rng.randint(1, 12), rng.randint(1, 12), seed)
        assert _assert_shortcuts_match_oracles(g)[0]
    for seed in range(60):
        g = _from_nx(nx.random_cograph(rng.randint(1, 5), seed=seed))
        assert _assert_shortcuts_match_oracles(g)[2]


def _toggled(g, u, v):
    """g with the pair uv flipped between edge and non-edge."""
    adj = list(g.adj)
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    return Graph.from_adj(adj)


def test_edge_simplicial_matches_oracle_beyond_seven_vertices():
    # the bit-loop kernel against the simplicial-clique oracle on seeded
    # G(n, p) and random split graphs, their complements, and every graph
    # one vertex pair away from two split graphs, each relabelled, where a
    # single uncovered edge, at any vertex, can decide the verdict
    rng = random.Random(29)
    graphs = [random_graph(n, p, rng)
              for n in range(8, 25) for p in (0.3, 0.5, 0.7)]
    splits = []
    for seed in range(40):
        n = rng.randint(18, 36)
        k = rng.randint(1, n - 1)
        splits.append(random_split(k, n - k, seed))
    graphs += splits
    for g in splits[:2]:
        graphs += [relabelled(_toggled(g, u, v), rng)
                   for u, v in itertools.combinations(range(g.n), 2)]
    verdicts = set()
    for g in graphs:
        for h in (g, complement(g)):
            found = is_edge_simplicial(h)
            assert found == is_edge_simplicial_by_cliques(
                Graph.from_adj(h.adj)), h.adj
            verdicts.add(found)
    assert verdicts == {False, True}


def _threshold_graph(n, rng):
    """Each vertex joins isolated or dominating, then a random relabelling."""
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[u], label[v]) for v in range(1, n) if rng.random() < 0.5
             for u in range(v)]
    return Graph(n, edges)


def test_shortcuts_are_fast_on_64_vertices():
    # the four-subset scans took 1.7 s per call on the threshold graph,
    # and the clique walk ran out of its 2^20 cap on the matching
    # complement, which has 2^32 maximal cliques
    inputs = {
        "threshold": _threshold_graph(64, random.Random(1)),
        "matching complement": complement(
            Graph(64, [(2 * i, 2 * i + 1) for i in range(32)])),
        "cograph": _from_nx(nx.random_cograph(6, seed=1)),
        "G(64, 0.5)": random_graph(64, 0.5, random.Random(1)),
    }
    for label, g in inputs.items():
        assert g.n == 64
        for predicate in (is_split, is_threshold, is_cograph,
                          is_edge_simplicial):
            start = time.perf_counter()
            predicate(Graph.from_adj(g.adj))
            elapsed = time.perf_counter() - start
            assert elapsed < 0.1, (label, predicate.__name__, elapsed)
    assert is_threshold(inputs["threshold"])
    assert is_cograph(inputs["cograph"])


def test_classify_threshold_graph_is_fast(capsys, monkeypatch):
    # 3.3 s with the four-subset scans
    g = _threshold_graph(64, random.Random(1))
    monkeypatch.setattr("sys.stdin", io.StringIO(encode_graph6(g)))
    start = time.perf_counter()
    code = main(["classify", "-i", "-", "--format", "json"])
    elapsed = time.perf_counter() - start
    assert code == 0
    base = json.loads(capsys.readouterr().out)["base"]
    assert base["threshold"] and base["cograph"] and base["split"]
    assert elapsed < 1.0, elapsed


def test_count_split_partitions():
    assert count_split_partitions(path(4)) == 1  # clique {b,c}, stable {a,d}
    # all of K3 as the clique, or any vertex moved to the stable side
    assert count_split_partitions(complete(3)) == 4
    assert count_split_partitions(cycle(4)) == 0


def test_cis_examples():
    assert not is_cis(path(4))
    assert is_cis(cycle(4))
    assert is_cis(Graph(1))
    assert is_cis(gallery("Bull"))
    assert not is_cis(gallery("S3"))
    c, s = disjoint_pairs(path(4))[0]
    assert not c & s
    assert disjoint_pairs(cycle(4)) == ()


def test_cis_closed_under_complement_small():
    for g in all_graphs(4):
        assert is_cis(g) == is_cis(complement(g))


def test_almost_and_quasi_cis():
    assert is_almost_cis(path(4))
    assert not is_almost_cis(Graph(1))
    assert not is_almost_cis(cycle(4))
    assert is_quasi_cis(path(4)) and is_quasi_cis(cycle(4))
    # C5 has five disjoint pairs; the walk stops at the first two
    c5 = cycle(5)
    product = [
        (c, s)
        for c, s in itertools.product(maximal_cliques(c5),
                                      maximal_stable_sets(c5))
        if not c & s
    ]
    assert len(product) == 5
    assert disjoint_pairs(c5) == tuple(product[:2])
    assert not is_quasi_cis(c5)


def test_edge_simplicial():
    assert is_edge_simplicial(path(3))
    # the middle edge of P4 is in no simplicial clique
    assert not is_edge_simplicial(path(4))
    assert is_edge_simplicial(complete(4))
    assert not is_edge_simplicial(cycle(4))
    assert is_edge_simplicial(Graph(2))  # edgeless: vacuous
    assert is_edge_simplicial(gallery("F"))


def test_strong_cliques_and_semi_weakly_cis():
    c4 = cycle(4)
    assert strong_maximal_cliques(c4) == [
        m for m in __import__("cisgraphs.cliques", fromlist=["maximal_cliques"])
        .maximal_cliques(c4)
    ]
    # the middle edge of P4 misses the stable set {0, 3}
    assert strong_maximal_cliques(path(4)) == [mask_of([0, 1]), mask_of([2, 3])]
    assert is_semi_weakly_cis(c4)
    assert not is_semi_weakly_cis(path(4))
    assert is_semi_weakly_cis(Graph(3))  # edgeless: vacuous


def _relation_test_graphs():
    """Fresh copies of every class with n <= 7 and of its complement,
    seeded G(n, p) and random split graphs, and the complements of
    perfect matchings on 16-24 vertices (2^8 to 2^12 maximal cliques)."""
    for graphs in nonisomorphic_graphs(7).values():
        for g in graphs:
            fresh = Graph.from_adj(g.adj)
            yield fresh
            yield complement(fresh)
    rng = random.Random(16)
    for _ in range(150):
        yield random_graph(rng.randint(8, 30), rng.random(), rng)
    for seed in range(60):
        yield random_split(rng.randint(1, 12), rng.randint(1, 12), seed)
    for n in range(16, 25, 2):
        yield complement(Graph(n, [(i, i + 1) for i in range(0, n, 2)]))


def test_disjointness_readers_match_pairwise_loops():
    # the readers of search.disjointness against the clique x stable set
    # loops they replaced
    checked = 0
    for g in _relation_test_graphs():
        strong = strong_maximal_cliques_pairwise(g)
        assert disjoint_pairs(g) == disjoint_pairs_pairwise(g)
        assert strong_maximal_cliques(g) == strong
        assert is_semi_weakly_cis(g) == covers_edges(g, strong)
        checked += 1
    assert checked == 2 * 1252 + 150 + 60 + 5


def test_triangle_condition():
    assert is_triangle(complete(3))
    assert not is_triangle(path(4))
    s, e = triangle_violation(path(4))
    u, v = e
    assert path(4).has_edge(u, v) and not s >> u & 1 and not s >> v & 1
    assert not path(4).adj[u] & path(4).adj[v] & s
    assert is_triangle(cycle(4))  # no stable set misses an edge's closure
    assert not is_triangle(cycle(5))


def test_triangle_violating_edge_matches_edge_walk():
    # the per-vertex bit test finds the edge the edge walk finds, or None,
    # for every maximal stable set
    reps = nonisomorphic_graphs(7)
    assert sum(map(len, reps.values())) == 1252

    def graphs():
        for graphs_n in reps.values():
            yield from graphs_n
        rng = random.Random(13)
        for n in range(17, 37):
            yield random_graph(n, rng.choice((0.2, 0.5, 0.8)), rng)
        for seed in range(30):
            yield random_split(2 + seed % 9, 2 + seed * 7 % 11, seed)

    violations = admissible = 0
    for g in graphs():
        for s in maximal_stable_sets(g):
            edge = _triangle_violating_edge(g, s)
            assert edge == triangle_violating_edge_by_edges(g, s)
            violations += edge is not None
            admissible += edge is None
    assert violations and admissible


def test_weakly_triangle():
    assert is_weakly_triangle(cycle(4))
    assert not is_weakly_triangle(path(4))
    # triangle implies weakly triangle on all 5-vertex graphs
    for g in all_graphs(5):
        if is_triangle(g):
            assert is_weakly_triangle(g)


def _weakly_triangle_nx(g):
    """(weakly triangle, maximal stable sets with the triangle property,
    maximal stable sets), by networkx."""
    h = to_nx(g)
    stables = [set(s) for s in nx.find_cliques(nx.complement(h))]
    admissible = [
        s for s in stables
        if all(set(h[u]) & set(h[v]) & s for u, v in h.edges()
               if u not in s and v not in s)
    ]
    covered = all(any(u in s and v in s for s in admissible)
                  for u, v in nx.non_edges(h))
    return covered, len(admissible), len(stables)


def test_weakly_triangle_is_not_complement_invariant():
    # 6 of the 13 maximal stable sets of HCQeeXe have the triangle
    # property and miss a non-edge; all 5 of its complement's have it
    g = parse_graph6("HCQeeXe")
    co = parse_graph6("HQovb]^")
    assert is_isomorphic(complement(g), co)
    assert _weakly_triangle_nx(g) == (False, 6, 13)
    assert _weakly_triangle_nx(co) == (True, 5, 5)
    assert not is_weakly_triangle(g)
    assert is_weakly_triangle(co)
    assert "weakly_triangle" not in COMPLEMENT_INVARIANT


def test_holder_mask_readers_match_oracles():
    # weakly triangle, the bad-P4 test and the weakly-CIS clauses, which
    # read the stable-set holder masks, against networkx, a scan of every
    # stable set per P4 and a set-arithmetic certificate check (edge
    # simplicial and semi-weakly CIS have theirs above).  Each complement
    # of a class reads its relation off the class's, which pins the
    # triangle walk's mask to the numbering of disjointness(g).stables.
    read_off = 0
    for g in _relation_test_graphs():
        read_off += complement(g).known("disjointness") is not None
        verdicts = (is_weakly_triangle(g), has_bad_p4(g))
        assert verdicts == (_weakly_triangle_nx(g)[0],
                            has_bad_p4_by_scan(g)), encode_graph6(g)
        found = exists_cross_intersecting(g, normal=False)
        if found is not None:
            assert verify_cover_certificate(g, *found, normal=False)
    assert read_off == 1252


def test_bad_p4():
    assert has_bad_p4(path(4))
    assert not has_bad_p4(cycle(4))
    # adding a common neighbor of b,c adjacent to nothing else keeps the
    # bad P4 (the stable set {a, d, e} still avoids N(b) & N(c))
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4)])  # bull
    assert not has_bad_p4(g)


def test_perfect():
    assert is_perfect(path(4))
    assert is_perfect(complete_bipartite(3, 3))
    assert not is_perfect(cycle(5))
    assert not is_perfect(cycle(7))
    assert not is_perfect(complement(cycle(7)))
    assert is_perfect(cycle(6))
    with pytest.raises(UnsupportedSize):
        is_perfect(Graph(17))


def _has_odd_hole_nx(g):
    return any(len(c) >= 5 and len(c) % 2
               for c in nx.chordless_cycles(to_nx(g)))


def _assert_odd_hole_oracles_agree(g):
    found = _has_odd_hole(g)
    assert found == has_odd_hole_by_subsets(g) == _has_odd_hole_nx(g), g.adj
    return found


def test_odd_hole_matches_oracles_on_small_classes():
    found = 0
    for graphs in nonisomorphic_graphs(7).values():
        for g in graphs:
            found += _assert_odd_hole_oracles_agree(g)
            found += _assert_odd_hole_oracles_agree(complement(g))
    assert found > 0


def test_odd_hole_matches_oracles_on_random_graphs():
    rng = random.Random(8)
    densities = (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)
    outcomes = set()
    for i in range(2000):
        g = random_graph(5 + i % 9, densities[i % len(densities)], rng)
        outcomes.add(_assert_odd_hole_oracles_agree(g))
    assert outcomes == {False, True}


def test_odd_hole_on_long_cycles_and_bipartite():
    # C15 is its own odd hole; its complement and the other graphs have
    # none (an odd antihole on 7 or more vertices needs degree >= 4)
    for g, expect in ((cycle(15), True), (cycle(16), False),
                      (complete_bipartite(8, 8), False)):
        assert _assert_odd_hole_oracles_agree(g) is expect
        assert _assert_odd_hole_oracles_agree(complement(g)) is False


def test_perfect_class_counts():
    # OEIS A052431: perfect graphs on n unlabeled vertices
    reps = nonisomorphic_graphs(7)
    counts = [sum(map(is_perfect, reps[n])) for n in range(1, 8)]
    assert counts == [1, 2, 4, 11, 33, 148, 906]


# Classes (n <= 7; n <= 6 for the two LP bases) on which each base's
# verdicts on g and complement(g) differ.  Weakly triangle agrees on every
# class, but it is not proven complement invariant, so it stays per graph.
COMPLEMENT_DISAGREEMENTS = {
    "edge_simplicial": 186, "semi_weakly_cis": 16, "triangle": 16,
    "equistable": 2, "strongly_equistable": 2, "weakly_triangle": 0,
}


@functools.cache
def _complement_disagreements():
    """Per base, the classes whose verdicts on fresh copies of g and of
    complement(g), sharing no memo, differ."""
    differ = dict.fromkeys(BASE_NAMES, 0)
    for n, graphs in nonisomorphic_graphs(7).items():
        for g in graphs:
            a = Graph.from_adj(g.adj)
            b = Graph.from_adj(complement(g).adj)
            for name in BASE_NAMES:
                if n > 6 and "equistable" in name:
                    continue
                predicate = base_predicate(name)
                differ[name] += predicate(a) != predicate(b)
    return differ


def test_complement_invariant_bases_agree_on_small_classes():
    differ = _complement_disagreements()
    assert [n for n in sorted(COMPLEMENT_INVARIANT) if differ[n]] == []


def test_bases_outside_the_invariant_set():
    per_graph = set(COMPLEMENT_DISAGREEMENTS)
    assert set(BASE_NAMES) == COMPLEMENT_INVARIANT | per_graph
    assert not COMPLEMENT_INVARIANT & per_graph
    differ = _complement_disagreements()
    assert {n: differ[n] for n in per_graph} == COMPLEMENT_DISAGREEMENTS


def _omega_equals_chi(h):
    omega = max(m.bit_count() for m in range(1 << h.n) if h.is_clique(m))
    for coloring in itertools.product(range(omega), repeat=h.n):
        if all(coloring[u] != coloring[v] for u, v in h.edges()):
            return True
    return False


def test_perfect_against_chromatic_definition():
    # perfect iff every induced subgraph has chromatic number equal to
    # clique number; brute-checked on random 6-vertex graphs
    rng = random.Random(11)
    for _ in range(15):
        g = random_graph(6, 0.5, rng)
        expect = all(
            _omega_equals_chi(induced_subgraph(g, m))
            for m in range(1, 1 << g.n)
        )
        assert is_perfect(g) == expect


def test_dispatch():
    assert base_predicate("cis") is is_cis
    assert tuple(_base_predicates()) == BASE_NAMES
    with pytest.raises(KeyError):
        base_predicate("bogus")
    with pytest.raises(UnsupportedSize):
        is_equistable(Graph(17))


def _almost_cis_by_split_partitions(g):
    return is_split(g) and count_split_partitions(g) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_almost_cis_is_unique_split_partition(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(1, 9), 0.5, rng)
    assert is_almost_cis(g) == _almost_cis_by_split_partitions(g)


def test_almost_cis_is_unique_split_partition_exhaustive():
    for graphs in nonisomorphic_graphs(6).values():
        for g in graphs:
            assert is_almost_cis(g) == _almost_cis_by_split_partitions(g)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_edge_simplicial_implies_triangle(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(1, 9), 0.4, rng)
    if is_edge_simplicial(g):
        assert is_triangle(g)
