import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cisgraphs import equistable, lp
from cisgraphs.cliques import maximal_stable_sets
from cisgraphs.equistable import (
    MAX_LP_VERTICES,
    forced_value,
    is_equistable,
    is_strongly_equistable,
    verify_weighting,
)
from cisgraphs.gallery import complete, cycle, gallery, path
from cisgraphs.graphs import Graph, bits, complement, mask_of, random_graph
from cisgraphs.hasse import nonisomorphic_graphs
from cisgraphs.recognizers import base_predicate

import oracles
from oracles import verify_forced_subset


def brute_constant_subsets(g):
    """Independent oracle: per-subset min/max LPs over the polytope.

    Returns {mask: constant value} for the non-stable nonempty subsets
    whose weight is constant, or None if the polytope is empty.
    """
    stable_sets = maximal_stable_sets(g)
    rows = [[s >> v & 1 for v in range(g.n)] for s in stable_sets]
    ones = [1] * len(stable_sets)
    stable = set(stable_sets)
    subsets = [m for m in range(1, 1 << g.n) if m not in stable]
    coeffs = [[m >> v & 1 for v in range(g.n)] for m in subsets]
    lows = lp.solve_equality_lp(rows, ones, coeffs, maximize=False)
    if lows is None:
        return None
    highs = lp.solve_equality_lp(rows, ones, coeffs, maximize=True)
    return {
        m: lo
        for m, (lo, _), (hi, _) in zip(subsets, lows, highs)
        if lo == hi
    }


def brute_equistable(g, strongly):
    forced = brute_constant_subsets(g)
    if forced is None:
        return False
    if strongly:
        return not any(v <= 1 for v in forced.values())
    return not any(v == 1 for v in forced.values())


def test_complete_graphs():
    for n in (1, 2, 3, 4):
        cert = is_equistable(complete(n))
        assert cert.verdict
        assert cert.weights == tuple([F(1)] * n)
        assert is_strongly_equistable(complete(n)).verdict


def test_p4_forced_subset():
    cert = is_equistable(path(4))
    assert not cert.verdict
    assert cert.reason == "forced-subset"
    # the two middle vertices always weigh exactly 1
    assert sorted(bits(cert.forced_subset)) == [1, 2]
    assert cert.forced_value == 1
    assert not is_strongly_equistable(path(4)).verdict
    d = cert.to_dict()
    assert d["forced_subset"] == [1, 2] and d["forced_value"] == "1"


def test_c4_and_2k2():
    for g in (cycle(4), Graph(4, [(0, 1), (2, 3)])):
        cert = is_equistable(g)
        assert cert.verdict
        assert verify_weighting(g, cert.weights)
        assert is_strongly_equistable(g).verdict


def test_c5_not_equistable():
    # the polytope is the single point w = 1/2 everywhere, where every
    # edge also sums to 1
    cert = is_equistable(cycle(5))
    assert not cert.verdict
    assert cert.reason == "forced-subset"
    assert cert.forced_value == 1
    assert cert.forced_subset.bit_count() == 2


def test_cir9():
    g = gallery("Cir9")
    cert = is_equistable(g)
    assert not cert.verdict and cert.reason == "forced-subset"
    assert not is_strongly_equistable(g).verdict


def test_co_cir9_forced_subset():
    co = complement(gallery("Cir9"))
    assert not is_equistable(co).verdict
    # vertices {3, 4, 9} (1-based) are forced to total weight 1
    t = mask_of([2, 3, 8])
    assert forced_value(co, t) == 1
    # the analysis shared with is_equistable gives a fresh graph's value
    assert forced_value(co, t) == forced_value(Graph.from_adj(co.adj), t)


def test_co_cir9_hand_certificate():
    # signed combination of maximal stable sets of the complement
    # (cliques {1,5,9}, {2,6,7}, {3,4,8} minus {1,6,8}, {2,5,7})
    co = complement(gallery("Cir9"))
    combo = [
        (mask_of([0, 4, 8]), 1),
        (mask_of([1, 5, 6]), 1),
        (mask_of([2, 3, 7]), 1),
        (mask_of([0, 5, 7]), -1),
        (mask_of([1, 4, 6]), -1),
    ]
    t = verify_forced_subset(co, combo)
    assert sorted(bits(t)) == [2, 3, 8]
    assert forced_value(co, t) == 1  # = +1 +1 +1 -1 -1


def test_verify_forced_subset_rejects_bad_input():
    g = path(4)
    with pytest.raises(ValueError):
        verify_forced_subset(g, [(mask_of([0, 1]), 1)])  # not stable
    with pytest.raises(ValueError):
        verify_forced_subset(g, [(mask_of([0, 2]), 2)])  # bad sign
    with pytest.raises(ValueError):
        # {a,c} + {a,d} counts a twice
        verify_forced_subset(
            g, [(mask_of([0, 2]), 1), (mask_of([0, 3]), 1)]
        )


def test_analysis_runs_phase_one_once(monkeypatch):
    # the n coordinate maxima share one constraint system, so one LP call
    # and one phase 1 serve them all
    calls = {"solve": 0, "phase1": 0}

    def counting(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(equistable, "solve_equality_lp", "solve")
    counting(lp, "_feasible_tableau", "phase1")
    g = gallery("G12")
    assert equistable._analysis(g) is not None
    assert calls == {"solve": 1, "phase1": 1}


def test_size_cap():
    with pytest.raises(ValueError):
        is_equistable(Graph(MAX_LP_VERTICES + 1))


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        yield Graph(n, [p for p, keep in zip(pairs, picks) if keep])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_against_per_subset_lp_oracle_exhaustive(n):
    for g in all_graphs(n):
        assert is_equistable(g).verdict == brute_equistable(g, False)
        assert is_strongly_equistable(g).verdict == brute_equistable(g, True)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_against_per_subset_lp_oracle_random(seed):
    rng = random.Random(seed)
    g = random_graph(5, 0.5, rng)
    assert is_equistable(g).verdict == brute_equistable(g, False)
    assert is_strongly_equistable(g).verdict == brute_equistable(g, True)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 7))
def test_certificates_verify(seed, n):
    g = random_graph(n, 0.5, random.Random(seed))
    cert = is_equistable(g)
    if cert.verdict:
        assert cert.weights is not None
        assert verify_weighting(g, cert.weights)
    else:
        if cert.reason == "forced-subset":
            assert not g.is_stable(cert.forced_subset) or \
                cert.forced_subset not in set(maximal_stable_sets(g))
            assert forced_value(g, cert.forced_subset) == cert.forced_value
            assert cert.forced_value == 1
    strong = is_strongly_equistable(g)
    if strong.verdict:
        assert cert.verdict  # strongly equistable implies equistable
    if strong.reason == "forced-subset":
        assert strong.forced_value <= 1
        assert forced_value(g, strong.forced_subset) == strong.forced_value


def subset_sum(vec, mask):
    return sum(vec[v] for v in bits(mask))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9) | st.integers(-10**15, 10**15),
             min_size=n, max_size=n),
    max_size=5,
)))
@example([[1], [-1]])  # one digit's sum cancels the next one's
@example([[3, 4, 5], [-2, -7, 1], [1, 1, 1]])  # full-mask sums at ±(B-1)/2
@example([[-5, -5], [5, 5], [-10**15, 10**15]])
def test_packed_sweep_zero_exactly_where_every_direction_is(directions):
    n = len(directions[0]) if directions else 3
    sums = equistable._subset_sums(equistable._packed(directions, n), n)
    for m in range(1 << n):
        assert (sums[m] == 0) == all(
            subset_sum(d, m) == 0 for d in directions
        )


LP_GALLERY = ("FK", "F", "G12", "C5Star", "Cir9", "LK33", "C9", "SK")


def test_forced_subsets_match_per_direction_sweeps():
    graphs = [g for gs in nonisomorphic_graphs(6).values() for g in gs]
    graphs += [gallery(name) for name in LP_GALLERY]
    packed = 0
    for g in graphs:
        res = equistable._analysis(g)
        if res is None:
            continue
        packed += len(res[1]) > 1
        assert equistable._forced_subsets(g) == \
            oracles.forced_subsets_per_direction(*res, g.n)
    assert packed > 0


def test_subset_sums_match_indexed_loop():
    # the doubling sweep against the indexed double loop it replaced, on
    # negative and 10^40-sized values
    rng = random.Random(18)
    for n in range(13):
        for bound in (9, 10**40):
            values = [rng.randint(-bound, bound) for _ in range(n)]
            assert equistable._subset_sums(values, n) == \
                oracles.subset_sums_indexed(values, n)


def test_base_predicates_read_the_decision():
    # the equistable bases give the certificates' verdicts, each read on
    # a fresh graph so that no memoized fact is shared
    graphs = [g for gs in nonisomorphic_graphs(7).values() for g in gs]
    graphs += [complement(g) for g in graphs]
    rng = random.Random(18)
    graphs += [random_graph(rng.randint(1, 12), rng.random(), rng)
               for _ in range(40)]
    for g in graphs:
        for name, certify in (("equistable", is_equistable),
                              ("strongly_equistable", is_strongly_equistable)):
            assert base_predicate(name)(Graph.from_adj(g.adj)) == \
                certify(Graph.from_adj(g.adj)).verdict
    assert len(graphs) == 2 * 1252 + 40
