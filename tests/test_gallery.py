import itertools

import pytest

from cisgraphs.cliques import maximal_cliques, maximal_stable_sets
from cisgraphs.gallery import (
    CIR9_STABLE_SETS,
    G12_CLIQUE_SUBFAMILY,
    G12_CLIQUES,
    G12_STABLE_SETS,
    G12_STABLE_SUBFAMILY,
    GALLERY_NAMES,
    _shift,
    complete,
    complete_bipartite,
    cycle,
    gallery,
    path,
    projective_split,
    random_split,
)
from cisgraphs.graphs import (
    Graph,
    GraphError,
    complement,
    disjoint_union,
    encode_graph6,
    mask_of,
)
from oracles import (
    big_L_clique_families,
    induced_subgraph,
    random_split_lemma_properties,
)


def masks(sets_1based):
    return sorted(sum(1 << (v - 1) for v in s) for s in sets_1based)


# frozen orders and sizes of every gallery graph
EXPECTED_SIZES = {
    "K1": (1, 0), "P4": (4, 3), "C4": (4, 4), "TwoK2": (4, 2),
    "Bull": (5, 5), "Net": (6, 6), "S3": (6, 9), "SK": (8, 10),
    "CK": (6, 5), "C5Star": (10, 15), "C9": (9, 9), "Cir9": (9, 21),
    "F": (14, 42), "FK": (16, 43), "G12": (12, 30), "LK33": (9, 18),
    "L": (165, 405), "LLbar": (330, 13530),
}


def test_gallery_sizes_frozen():
    for name in GALLERY_NAMES:
        g = gallery(name)
        assert (g.n, g.edge_count()) == EXPECTED_SIZES[name], name


def test_gallery_unknown_name():
    with pytest.raises(GraphError):
        gallery("nope")


def test_g12_maximal_families_match_definition():
    g = gallery("G12")
    assert maximal_cliques(g) == masks(G12_CLIQUES)
    assert maximal_stable_sets(g) == masks(G12_STABLE_SETS)
    # every vertex pair is in some listed clique or stable set, never both
    for u, v in itertools.combinations(range(1, 13), 2):
        in_c = any({u, v} <= s for s in G12_CLIQUES)
        in_s = any({u, v} <= s for s in G12_STABLE_SETS)
        assert in_c != in_s, (u, v)


def test_g12_subfamilies_are_subfamilies():
    assert set(G12_CLIQUE_SUBFAMILY) <= set(G12_CLIQUES)
    assert set(G12_STABLE_SUBFAMILY) <= set(G12_STABLE_SETS)


def test_cir9_stable_sets_match_definition():
    g = gallery("Cir9")
    assert maximal_stable_sets(g) == masks(CIR9_STABLE_SETS)


def test_cir9_graph6_pinned():
    # the adjacency of Cir9, whichever builder produces it
    assert encode_graph6(gallery("Cir9")) == "HBzB^zW"


def test_shift_is_zero_based():
    assert _shift([frozenset({1, 3})]) == [frozenset({0, 2})]


def test_small_builders():
    assert cycle(5).edge_count() == 5
    assert path(5).edge_count() == 4
    assert complete(5).edge_count() == 10
    assert complete_bipartite(2, 3).edge_count() == 6


def test_net_and_s3_are_complements():
    from cisgraphs.graphs import complement, is_isomorphic

    assert is_isomorphic(gallery("Net"), complement(gallery("S3")))


def test_lk33_is_line_graph_of_k33():
    from cisgraphs.graphs import is_isomorphic
    from cisgraphs.linegraph import line_graph

    assert is_isomorphic(gallery("LK33"),
                         line_graph(complete_bipartite(3, 3)))


def test_projective_split_structure():
    for q in (2, 3, 5):
        g = projective_split(q)
        npt = q * q + q + 1
        assert g.n == 2 * npt
        clique = (1 << npt) - 1
        stable = ((1 << npt) - 1) << npt
        assert g.is_clique(clique)
        assert g.is_stable(stable)
        # every point lies on q+1 lines, every line carries q+1 points
        for i in range(npt):
            assert (g.adj[i] >> npt).bit_count() == q + 1
            assert (g.adj[npt + i] & clique).bit_count() == q + 1
        # two distinct lines share exactly one point
        for i, j in itertools.combinations(range(npt), 2):
            common = g.adj[npt + i] & g.adj[npt + j] & clique
            assert common.bit_count() == 1
    with pytest.raises(GraphError):
        projective_split(4)


def test_random_split_small_matches_masks():
    g = random_split(5, 6, seed=42)
    assert isinstance(g, Graph)
    assert g.is_clique((1 << 5) - 1)
    assert g.is_stable(((1 << 6) - 1) << 5)
    props = random_split_lemma_properties(5, 6, seed=42)
    # recompute the four properties straight from the graph
    stables = maximal_stable_sets(g)
    cliques = maximal_cliques(g)
    stable_side = ((1 << 6) - 1) << 5
    clique_side = (1 << 5) - 1
    assert props[0] == (stable_side in stables)
    assert props[1] == (clique_side in cliques)
    common_nbr = all(
        g.adj[c1] & g.adj[c2] & stable_side
        for c1, c2 in itertools.combinations(range(5), 2)
    )
    assert props[2] == common_nbr
    full = (1 << g.n) - 1
    common_non = all(
        (full ^ g.adj[s1]) & (full ^ g.adj[s2]) & clique_side
        for s1, s2 in itertools.combinations(range(5, 11), 2)
    )
    assert props[3] == common_non


def test_random_split_big_and_errors():
    g = random_split(40, 40, seed=0)
    assert g.n == 80
    assert g.is_clique((1 << 40) - 1)
    assert g.is_stable(((1 << 40) - 1) << 40)
    with pytest.raises(GraphError):
        random_split(0, 4, seed=0)


def test_random_split_deterministic():
    a = random_split(6, 6, seed=9)
    b = random_split(6, 6, seed=9)
    assert sorted(a.edges()) == sorted(b.edges())


def test_L_structure():
    from cisgraphs.linegraph import line_graph

    L = gallery("L")
    # L(K_{5,6}) on the first 30 vertices, then one apex per rook edge
    rook = (1 << 30) - 1
    assert induced_subgraph(L, rook) == line_graph(complete_bipartite(5, 6))
    for a in range(30, 165):
        assert L.degree(a) == 2 and L.adj[a] & ~rook == 0
        assert L.is_clique(L.closed_nbhd(a))
    assert gallery("LLbar") == disjoint_union(L, complement(L))


def test_big_L_clique_families():
    cliques = maximal_cliques(gallery("L"))
    six, five = big_L_clique_families()
    assert len(six) == 5 and all(len(c) == 6 for c in six)
    assert len(five) == 6 and all(len(c) == 5 for c in five)
    rook = set().union(*six)
    assert rook == set().union(*five) == set(range(30))
    for fam in (six, five):
        for a, b in itertools.combinations(fam, 2):
            assert not a & b
        for c in fam:
            assert mask_of(c) in cliques
