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
    canonical_search,
    complement,
    components,
    disjoint_union,
    encode_graph6,
    is_isomorphic,
    join,
    mask_of,
    orbit,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    random_graph,
)
from networkx.algorithms.isomorphism import GraphMatcher

from cisgraphs import hasse
from cisgraphs.hasse import EXPECTED_GRAPH_COUNTS, nonisomorphic_graphs
from cisgraphs.recognizers import is_edge_simplicial
from oracles import (
    complement_rows,
    group_order,
    induced_subgraph,
    relabelled,
    smallest_leaf_form,
    to_nx,
)


def graphs(max_n=10):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = list(itertools.combinations(range(n), 2))
        picks = draw(st.lists(st.booleans(), min_size=len(pairs),
                              max_size=len(pairs)))
        return Graph(n, [p for p, keep in zip(pairs, picks) if keep])

    return build()


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


def test_graph6_rows_read_off_the_bit_stream():
    # the rows built straight from the payload are those of the edge-list
    # constructor, on every class with n <= 7, its complement and seeded
    # graphs of up to 100 vertices (the "~" header from 63 on)
    graphs = [x for reps in nonisomorphic_graphs(7).values() for g in reps
              for x in (g, complement(g))]
    rng = random.Random(23)
    graphs += [random_graph(rng.randint(1, 100), rng.random(), rng)
               for _ in range(60)]
    assert any(g.n >= 63 for g in graphs)
    for g in graphs:
        parsed = parse_graph6(encode_graph6(g))
        assert parsed == Graph(g.n, list(g.edges()))
        assert parsed.n == g.n and type(parsed.adj) is tuple
    # the same errors, with the same messages
    for text, message in (
            ("C", "truncated graph6 bit payload"),
            ("Chh", "trailing bytes after graph6 payload"),
            ("~?@c" + "?" * 824, "truncated graph6 bit payload"),
            ("~?@c" + "?" * 826, "trailing bytes after graph6 payload"),
            ("C!", "bad graph6 payload byte '!'")):
        with pytest.raises(GraphError) as err:
            parse_graph6(text)
        assert str(err.value) == message


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
    # no graph6 string starts with a digit: a lone count is an edge list
    g = parse_graph("5")
    assert g.n == 5 and g.edge_count() == 0
    assert parse_graph(" 12\n").n == 12


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


def hub_triangles(k):
    """k triangles, each hung by one corner from the hub vertex 0."""
    edges = []
    for t in range(k):
        a, b, c = 3 * t + 1, 3 * t + 2, 3 * t + 3
        edges += [(0, a), (a, b), (b, c), (a, c)]
    return Graph(3 * k + 1, edges)


def circulant(n, jumps):
    """C_n(jumps): vertex i joined to i ± s for each jump s."""
    return Graph(n, {(i, (i + s) % n) for i in range(n) for s in jumps
                     if s % n})


@st.composite
def circulants(draw, max_n=24):
    """Circulants: vertex-transitive, so refinement splits nothing and
    the search meets many leaves with one form."""
    n = draw(st.integers(1, max_n))
    return circulant(n, draw(st.sets(st.integers(1, max(1, n // 2)))))


def is_automorphism(g, perm):
    return sorted(perm) == list(range(g.n)) and all(
        mask_of(perm[u] for u in bits(g.adj[v])) == g.adj[perm[v]]
        for v in range(g.n))


@settings(max_examples=150, deadline=None)
@given(graphs(9) | repeated_components() | circulants(),
       st.randoms(use_true_random=False))
@example(Graph(9), random.Random(0))
@example(complement(Graph(9)), random.Random(0))
@example(triangles(8), random.Random(0))
@example(circulant(18, (1, 3, 5, 7)), random.Random(0))  # K_9,9 - 9K_2
@example(circulant(24, (1, 5, 7, 11)), random.Random(0))
@example(hub_triangles(7), random.Random(0))
def test_canonical_form_invariant_and_isomorphic(g, rng):
    h = relabelled(g, rng)
    form, order, gens = canonical_search(h)
    assert canonical_form(g) == form
    # networkx's VF2 ran for minutes on a relabelled complement of C23;
    # two graphs are isomorphic iff their complements are, so it is given
    # the sparser side
    pair = [Graph.from_adj(form), g]
    if 4 * g.edge_count() > g.n * (g.n - 1):
        pair = [complement(x) for x in pair]
    assert nx.is_isomorphic(*map(to_nx, pair))
    # order relabels h to its form, and every generator is an automorphism
    pos = [0] * h.n
    for i, v in enumerate(order):
        pos[v] = i
    assert Graph(h.n, [(pos[u], pos[v]) for u, v in h.edges()]).adj == form
    assert all(is_automorphism(h, p) for p in gens)


def leaf_form(g):
    """The smallest leaf form of g, or for a graph with more than half of
    the possible edges, the complement of its complement's."""
    if 4 * g.edge_count() <= g.n * (g.n - 1):
        return smallest_leaf_form(g)
    co = Graph.from_adj(complement_rows(g.adj))
    return complement_rows(smallest_leaf_form(co))


def test_canonical_form_is_the_smallest_leaf():
    # pruning skips only images of explored subtrees, so every graph keeps
    # the form of the unpruned search, disconnected or with a disconnected
    # complement too; a graph with more than half of the edges has the
    # complement of its complement's
    rng = random.Random(5)
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)]
                     + [(i + 5, (i + 2) % 5 + 5) for i in range(5)])
    cube = Graph(8, [(v, v ^ 1 << b) for v in range(8) for b in range(3)])
    cases = [g for graphs in nonisomorphic_graphs(7).values() for g in graphs]
    cases += [circulant(n, (1, 3)) for n in range(7, 13)]
    matching8 = complement(Graph(8, [(2 * i, 2 * i + 1) for i in range(4)]))
    cases += [hub_triangles(3), petersen, cube, triangles(4),
              complement(triangles(4)), matching8]
    for g in cases:
        h = relabelled(g, rng)
        assert canonical_form(h) == leaf_form(h)
    # a 3-regular graph on 10 vertices times P3 (vertex 3u + x): its cells
    # hold several orbits, so returning past the node where two equal
    # leaves' paths part loses forms on some labellings
    r = Graph(10, [(0, 3), (0, 4), (0, 8), (1, 2), (1, 3), (1, 5), (2, 6),
                   (2, 7), (3, 7), (4, 5), (4, 7), (5, 9), (6, 8), (6, 9),
                   (8, 9)])
    prism = Graph(30, [(3 * u + x, 3 * v + x) for u, v in r.edges()
                       for x in range(3)]
                  + [(3 * u + x, 3 * u + x + 1) for u in range(10)
                     for x in range(2)])
    for _ in range(20):
        h = relabelled(prism, rng)
        assert canonical_form(h) == leaf_form(h)


def test_canonical_form_commutes_with_complement():
    # the form of the complement is the complemented form, unless the
    # graph has exactly half of the possible edges; generation takes the
    # denser half of each order, and the scan its pairing, from this
    rng = random.Random(36)
    cases = [g for graphs in nonisomorphic_graphs(8).values() for g in graphs]
    cases += [relabelled(random_graph(n, p, rng), rng)
              for n in range(9, 65, 5) for p in (0.1, 0.5, 0.9)]
    cases += [circulant(n, (1, 3)) for n in range(10, 65, 11)]
    cases += [triangles(21), Graph(64)]
    half = 0
    for g in cases:
        if 4 * g.edge_count() == g.n * (g.n - 1):
            half += 1
            continue
        co = Graph.from_adj(complement_rows(g.adj))
        assert canonical_form(co) == complement_rows(canonical_form(g))
    assert half == 1 + 3 + 6 + 1646  # the classes with n = 1, 4, 5, 8


def test_canonical_form_many_components():
    # one search over all 21 vertices: swapping two triangles is an
    # automorphism found from two equal leaves, and the bound catches a
    # search that loses that pruning, whose leaves multiply with every
    # further triangle
    g = triangles(7)
    h = relabelled(g, random.Random(7))
    hexagon = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    other = disjoint_union(triangles(5), hexagon)  # also 2-regular
    start = time.perf_counter()
    assert is_isomorphic(g, h)
    assert not is_isomorphic(h, other)
    assert time.perf_counter() - start < 1.0
    # triangle t is {t, 19 - 2t, 20 - 2t}
    expect = []
    for t in range(7):
        expect += [(t, 19 - 2 * t), (t, 20 - 2 * t), (19 - 2 * t, 20 - 2 * t)]
    assert canonical_form(h) == Graph(21, expect).adj


def test_canonical_form_hub_triangles():
    # one component with 8! * 2^8 automorphisms; pruned by twins alone,
    # the search took 0.175 s at k = 7 and about 8 times more per triangle
    g = hub_triangles(8)
    h = relabelled(g, random.Random(8))
    # the same degrees: two triangles' far corners joined into a 6-cycle
    other = Graph(25, [e for e in g.edges() if e not in ((1, 3), (4, 6))]
                  + [(3, 4), (6, 1)])
    assert sorted(map(other.degree, range(25))) == sorted(
        map(g.degree, range(25)))
    start = time.perf_counter()
    assert is_isomorphic(g, h)
    assert not is_isomorphic(h, other)
    assert time.perf_counter() - start < 1.0
    # triangle t is {t, 15 - t, 23 - t}; the hub 24 holds 16..23
    expect = [(24, 16 + t) for t in range(8)]
    for t in range(8):
        expect += [(t, 15 - t), (15 - t, 23 - t), (t, 23 - t)]
    assert canonical_form(h) == Graph(25, expect).adj


def test_canonical_form_complement_disconnected():
    # K_2k minus a perfect matching: its non-adjacent pairs are twins and
    # swapping two of them is an automorphism, so the pruned search stays
    # small; the bound catches a search that loses either pruning
    rng = random.Random(18)
    start = time.perf_counter()
    for k in range(2, 10):
        n = 2 * k
        g = complement(Graph(n, [(2 * i, 2 * i + 1) for i in range(k)]))
        h = relabelled(g, rng)
        assert canonical_form(h) == canonical_form(g)
        assert nx.is_isomorphic(to_nx(h), to_nx(g))
        # near misses with as many edges: a P3, or a triangle, missing
        # in place of two or three of the matching's edges
        misses = [[(0, 1), (1, 2)] + [(2 * i + 1, 2 * i + 2)
                                      for i in range(1, k - 1)]]
        if k >= 3:
            misses.append([(0, 1), (1, 2), (0, 2)]
                          + [(2 * i + 1, 2 * i + 2) for i in range(1, k - 2)])
        for missing in misses:
            miss = relabelled(complement(Graph(n, missing)), rng)
            assert miss.edge_count() == g.edge_count()
            assert not nx.is_isomorphic(to_nx(miss), to_nx(g))
            assert canonical_form(miss) != canonical_form(h)
    assert time.perf_counter() - start < 1.0


def test_canonical_form_at_64_vertices():
    # the CLI's order limit, on the most symmetric graphs of that order:
    # edgeless, complete, two cliques, K_32,32, K_64 minus a perfect
    # matching and 21 triangles, each against a relabelled copy, and
    # near misses with as many edges; the per-call bound catches
    # exponential growth, not host noise
    rng = random.Random(64)
    k32 = complement(Graph(32))
    matching = complement(Graph(64, [(2 * i, 2 * i + 1) for i in range(32)]))
    hexagon = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    # a P3 missing in place of two of the matching's edges
    p3 = complement(Graph(64, [(0, 1), (1, 2)]
                          + [(2 * i + 1, 2 * i + 2) for i in range(1, 31)]))
    pairs = [(g, relabelled(g, rng), True) for g in (
        Graph(64), complement(Graph(64)), disjoint_union(k32, k32),
        complement(disjoint_union(k32, k32)), matching, triangles(21))]
    pairs += [(triangles(21), relabelled(disjoint_union(triangles(19),
                                                       hexagon), rng), False),
              (matching, relabelled(p3, rng), False)]
    for g, h, same in pairs:
        assert h.edge_count() == g.edge_count()
        start = time.perf_counter()
        assert is_isomorphic(g, h) == same
        assert time.perf_counter() - start < 5.0


def test_automorphism_generators_against_networkx():
    # every class with n <= 7: the generators that generation reads off
    # a class's search, and those of a relabelled copy, are automorphisms
    # and generate the whole group
    rng = random.Random(7)
    for n, reps in nonisomorphic_graphs(7).items():
        for g in reps:
            h = relabelled(g, rng)
            count = sum(1 for _ in GraphMatcher(to_nx(g), to_nx(g))
                        .isomorphisms_iter())
            for graph in (g, h):
                perms = canonical_search(graph)[2]
                assert all(is_automorphism(graph, p) for p in perms)
                assert group_order(n, perms) == count


def test_form_index_and_complement_pairing():
    # the scan pairs class i with the class of its complement, as the
    # pairing helper reads it off the form index; when every class passes
    # every arrow the scan's output cannot show a wrong pairing, so it is
    # checked here (on a copy of each representative, so that the cached
    # one keeps no fact).  The classes paired with themselves are the
    # self-complementary ones: 1, 0, 0, 1, 2, 0, 0, 10 (OEIS A000171)
    fixed = []
    for n, reps in nonisomorphic_graphs(8).items():
        index = hasse._LEVELS[n].index
        assert len(index) == len(reps)
        partner = hasse._complement_classes(n)
        assert [partner[j] for j in partner] == list(range(len(reps)))
        fixed.append(sum(j == i for i, j in enumerate(partner)))
        if n == 8:
            continue
        for i, rep in enumerate(reps):
            assert index[canonical_form(rep)] == i
            co = complement(Graph.from_adj(rep.adj))
            assert nx.is_isomorphic(to_nx(reps[partner[i]]), to_nx(co))
    assert fixed == [1, 0, 0, 1, 2, 0, 0, 10]


def test_automorphism_generators_of_circulants():
    # a circulant is vertex-transitive, so the generators must move
    # vertex 0 to every vertex
    rng = random.Random(24)
    for _ in range(60):
        n = rng.randint(3, 24)
        g = circulant(n, rng.sample(range(1, n // 2 + 1),
                                    rng.randint(1, n // 2)))
        h = relabelled(g, rng)
        gens = canonical_search(h)[2]
        assert all(is_automorphism(h, p) for p in gens)
        assert sorted(orbit(1, gens)) == [1 << v for v in range(n)]


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
