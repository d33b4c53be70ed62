import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cisgraphs.gallery import gallery
from cisgraphs.graphs import (
    MAX_ORDER,
    Graph,
    GraphError,
    bits,
    canonical_form,
    complement,
    components,
    disjoint_union,
    encode_graph6,
    is_isomorphic,
    join,
    mask_of,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    random_graph,
)
from cisgraphs.hasse import EXPECTED_GRAPH_COUNTS, nonisomorphic_graphs
from cisgraphs.recognizers import is_edge_simplicial
from oracles import induced_subgraph


def graphs(max_n=10):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = list(itertools.combinations(range(n), 2))
        picks = draw(st.lists(st.booleans(), min_size=len(pairs),
                              max_size=len(pairs)))
        return Graph(n, [p for p, keep in zip(pairs, picks) if keep])

    return build()


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_bits_and_mask():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(bits(0)) == []


def test_construction_and_basics():
    g = Graph(4, [(0, 1), (1, 2)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    assert g.edge_count() == 2
    assert g.closed_nbhd(3) == 0b1000
    assert g.is_clique(0b0011)
    assert not g.is_clique(0b0101)
    assert g.is_stable(0b1001)
    assert not g.is_stable(0b0011)


def test_construction_errors():
    with pytest.raises(GraphError):
        Graph(0)
    assert Graph(65).n == 65  # no word-size cap
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])


def test_subgraph_relabels():
    g = Graph(5, [(0, 2), (2, 4), (1, 3)])
    h = induced_subgraph(g, mask_of([0, 2, 4]))
    assert h.n == 3
    assert sorted(h.edges()) == [(0, 1), (1, 2)]


def test_complement_involution():
    g = Graph(5, [(0, 1), (2, 3), (3, 4)])
    assert complement(complement(g)) == g
    cg = complement(g)
    # built once and paired both ways
    assert complement(g) is cg and complement(cg) is g
    for u, v in itertools.combinations(range(5), 2):
        assert g.has_edge(u, v) != cg.has_edge(u, v)


def test_disjoint_union_and_join():
    k2 = Graph(2, [(0, 1)])
    g = disjoint_union(k2, k2)
    assert g.n == 4 and sorted(g.edges()) == [(0, 1), (2, 3)]
    j = join(k2, k2)
    assert j.edge_count() == 2 + 4
    # beyond 64 vertices: every cross pair of the join is an edge
    big = join(Graph(40), Graph(30, [(0, 29)]))
    assert big.n == 70 and big.edge_count() == 40 * 30 + 1
    assert big.has_edge(0, 69) and big.has_edge(40, 69)
    assert not big.has_edge(0, 39)


@given(graphs())
def test_graph6_round_trip(g):
    assert parse_graph6(encode_graph6(g)) == g


def test_graph6_known_strings():
    # standard encodings: P4 is "Ch", C4 is "Cl" in canonical labelings
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert parse_graph6(encode_graph6(p4)) == p4
    assert parse_graph6("D?{") == Graph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    # header prefix accepted
    assert parse_graph6(">>graph6<<Ch") == parse_graph6("Ch")


def test_graph6_against_networkx():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng.randint(1, 20), 0.4, rng)
        theirs = nx.from_graph6_bytes(encode_graph6(g).encode())
        assert sorted(theirs.edges()) == sorted(g.edges())
        ours = parse_graph6(nx.to_graph6_bytes(to_nx(g), header=False)
                            .decode().strip())
        assert ours == g


def test_graph6_extended_order():
    rng = random.Random(1)
    for g in (random_graph(63, 0.3, rng), random_graph(64, 0.3, rng),
              random_graph(70, 0.3, rng), gallery("L"), gallery("LLbar")):
        s = encode_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s) == g
        theirs = nx.from_graph6_bytes(s.encode())
        assert sorted(theirs.edges()) == sorted(g.edges())


def test_graph6_errors():
    with pytest.raises(GraphError):
        parse_graph6("")
    with pytest.raises(GraphError):
        parse_graph6("C")  # truncated payload
    with pytest.raises(GraphError):
        parse_graph6("Chh")  # trailing bytes
    with pytest.raises(GraphError):
        parse_graph6("~~????")  # order too large


def test_order_limit():
    # graph6 has no four-byte header above MAX_ORDER; the encoder refuses
    # before its quadratic loop, and the edge-list parser before allocating
    with pytest.raises(GraphError):
        encode_graph6(Graph(MAX_ORDER + 1))
    assert parse_edge_list(f"{MAX_ORDER}\n").n == MAX_ORDER
    for text in (f"{MAX_ORDER + 1}\n", "1000000000\n", f"0 {MAX_ORDER}\n"):
        with pytest.raises(GraphError):
            parse_edge_list(text)


def test_parse_edge_list():
    g = parse_edge_list("0 1\n1 2\n")
    assert g.n == 3 and g.edge_count() == 2
    g = parse_edge_list("5\n0 1\n# comment\n\n3 4\n")
    assert g.n == 5 and g.edge_count() == 2
    with pytest.raises(GraphError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(GraphError):
        parse_edge_list("")


def test_parse_edge_list_bad_tokens():
    for text, line in (("a b\n", 1), ("x\n0 1\n", 1), ("3\n0 1\n\n1 y\n", 4),
                       ("0 1.5\n", 1)):
        with pytest.raises(GraphError, match=f"line {line}: "):
            parse_edge_list(text)


def test_parse_graph_dispatch():
    assert parse_graph("Ch").n == 4
    assert parse_graph("0 1\n1 2").n == 3


def test_is_isomorphic_basic():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    p4b = Graph(4, [(2, 0), (0, 3), (3, 1)])
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert is_isomorphic(p4, p4b)
    assert not is_isomorphic(p4, c4)


def test_is_isomorphic_against_networkx():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 8)
        g1 = random_graph(n, 0.5, rng)
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            g2 = Graph(n, [(perm[u], perm[v]) for u, v in g1.edges()])
        else:
            g2 = random_graph(n, 0.5, rng)
        expect = nx.is_isomorphic(to_nx(g1), to_nx(g2))
        assert is_isomorphic(g1, g2) == expect
        assert is_isomorphic(g2, g1) == expect


def test_canonical_forms_match_graph_atlas():
    # the atlas lists every graph on 0..7 vertices once; drop the null graph
    atlas = nx.graph_atlas_g()[1:]
    forms = {canonical_form(Graph(len(h), h.edges())) for h in atlas}
    counts = {n: c for n, c in EXPECTED_GRAPH_COUNTS.items() if n <= 7}
    assert len(forms) == len(atlas) == sum(counts.values())
    reps = nonisomorphic_graphs(7)
    assert {canonical_form(g) for gs in reps.values() for g in gs} == forms
    for n, count in counts.items():
        assert sum(len(form) == n for form in forms) == count


@st.composite
def repeated_components(draw, max_n=24):
    """Disjoint unions of a few small graphs, each repeated: many
    symmetric parts, which random graphs of this size rarely have."""
    parts = draw(st.lists(st.tuples(graphs(5), st.integers(1, 8)),
                          min_size=1, max_size=3))
    g = None
    for part, copies in parts:
        for _ in range(copies):
            if g is not None and g.n + part.n > max_n:
                break
            g = part if g is None else disjoint_union(g, part)
    return g


def triangles(k):
    g = tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    for _ in range(k - 1):
        g = disjoint_union(g, tri)
    return g


@settings(max_examples=150, deadline=None)
@given(graphs(9) | repeated_components(), st.randoms(use_true_random=False))
@example(Graph(9), random.Random(0))
@example(complement(Graph(9)), random.Random(0))
@example(triangles(8), random.Random(0))
def test_canonical_form_invariant_and_isomorphic(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    form = canonical_form(g)
    assert canonical_form(h) == form
    assert nx.is_isomorphic(to_nx(Graph.from_adj(form)), to_nx(g))


def test_canonical_form_many_components():
    # each component is formed on its own; a single search over all 21
    # vertices took seconds, and every further triangle multiplied that
    g = triangles(7)
    perm = list(range(21))
    random.Random(7).shuffle(perm)
    h = Graph(21, [(perm[u], perm[v]) for u, v in g.edges()])
    hexagon = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    other = disjoint_union(triangles(5), hexagon)  # also 2-regular
    start = time.perf_counter()
    assert is_isomorphic(g, h)
    assert not is_isomorphic(h, other)
    assert time.perf_counter() - start < 1.0
    assert canonical_form(h) == tuple(
        (0b111 ^ 1 << i % 3) << 3 * (i // 3) for i in range(21))


@given(graphs(12))
def test_components_against_networkx(g):
    comps = components(g)
    assert sorted(comps) == sorted(
        mask_of(c) for c in nx.connected_components(to_nx(g)))
    firsts = [c & -c for c in comps]
    assert firsts == sorted(firsts)


def test_big_graph_basics():
    g = Graph(70, [(0, 1), (1, 2), (68, 69)])
    assert g.has_edge(1, 0) and g.has_edge(69, 68)
    assert g.degree(1) == 2
    assert g.edge_count() == 3
    assert g.is_clique(mask_of([0, 1]))
    assert not g.is_clique(mask_of([0, 2]))
    assert g.is_stable(mask_of([0, 2, 68]))
    assert g.is_clique(mask_of([68, 69]))
    co = complement(g)
    assert co.has_edge(0, 2) and not co.has_edge(0, 1)
    assert co.has_edge(3, 69) and not co.has_edge(68, 69)
    assert co.edge_count() == 70 * 69 // 2 - 3
    both = disjoint_union(g, g)
    assert both.n == 140 and both.edge_count() == 6
    assert both.has_edge(138, 139) and not both.has_edge(69, 70)


def test_big_graph_edge_simplicial():
    # the triangle and the C4 sit above bit 64
    pad = Graph(64)
    tri = disjoint_union(pad, Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert is_edge_simplicial(tri)
    c4 = disjoint_union(pad, Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert not is_edge_simplicial(c4)


@settings(max_examples=30)
@given(graphs(max_n=8))
def test_complement_degree_sum(g):
    for v in range(g.n):
        assert g.degree(v) + complement(g).degree(v) == g.n - 1
