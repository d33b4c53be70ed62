import functools
import hashlib
import itertools
import json
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisgraphs.cliques import maximal_cliques, maximal_stable_sets
from cisgraphs.gallery import (
    G12_CLIQUE_SUBFAMILY,
    G12_STABLE_SUBFAMILY,
    _shift,
    cycle,
    gallery,
    path,
)
from cisgraphs.graphs import Graph, mask_of, random_graph
from cisgraphs.hasse import nonisomorphic_graphs
from cisgraphs.recognizers import is_cis
from cisgraphs.search import (
    SearchUndecided,
    exists_cross_intersecting,
    is_normal,
    is_weakly_cis,
    verify_cover_certificate,
)


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


def test_backtrack_cap():
    with pytest.raises(SearchUndecided):
        exists_cross_intersecting(path(4), normal=False, backtrack_cap=0)
    # a budget large enough to finish gives the definite "no"
    assert exists_cross_intersecting(path(4), normal=False) is None


def test_normal_against_subfamily_oracle():
    for graphs in nonisomorphic_graphs(5).values():
        for g in graphs:
            assert is_normal(g) == brute_normal(g)


def test_results_and_budget_pinned():
    # certificates of both searches on seeded graphs of 8-24 vertices,
    # recorded before the search kept its state in bitmasks
    results = []
    for n in range(8, 25, 2):
        for k in (1, 3, 5, 7, 9):
            g = random_graph(n, k / 10, random.Random(100 * n + k))
            results.append(exists_cross_intersecting(g, normal=False))
            results.append(exists_cross_intersecting(g, normal=True))
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == (
        "a7012a6961dc5659989fbc448a565e4ad97313e5b9509f5a824e31c821923154"
    )
    # the search refutes normality of this graph in exactly 108 backtracks
    g = random_graph(24, 0.5, random.Random(1))
    with pytest.raises(SearchUndecided):
        exists_cross_intersecting(g, normal=True, backtrack_cap=107)
    assert exists_cross_intersecting(
        g, normal=True, backtrack_cap=108
    ) is None
