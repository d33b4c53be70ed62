import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cisgraphs import equistable, lp
from cisgraphs.cli import main
from cisgraphs.cliques import maximal_stable_sets
from cisgraphs.equistable import (
    MAX_LP_VERTICES,
    forced_value,
    is_equistable,
    is_strongly_equistable,
    verify_weighting,
)
from cisgraphs.gallery import complete, cycle, gallery, path, random_split
from cisgraphs.graphs import Graph, bits, complement, mask_of, random_graph
from cisgraphs.hasse import nonisomorphic_graphs
from cisgraphs.recognizers import UnsupportedSize, base_predicate

import oracles
from oracles import verify_forced_subset


def brute_constant_subsets(g):
    """Independent oracle: per-subset min/max LPs over the polytope, by
    the Fraction simplex of the oracles.

    Returns {mask: constant value} for the non-stable nonempty subsets
    whose weight is constant, or None if the polytope is empty.
    """
    stable_sets = maximal_stable_sets(g)
    rows = [[s >> v & 1 for v in range(g.n)] for s in stable_sets]
    ones = [1] * len(stable_sets)
    stable = set(stable_sets)
    subsets = [m for m in range(1, 1 << g.n) if m not in stable]
    coeffs = [[m >> v & 1 for v in range(g.n)] for m in subsets]
    lows = oracles.solve_equality_lp(rows, ones, coeffs, maximize=False)
    if lows is None:
        return None
    highs = oracles.solve_equality_lp(rows, ones, coeffs, maximize=True)
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
    # and one phase 1 per graph serve both decisions and the weighting
    # walk, and no coordinate is optimised twice; G12's decisions solve 6
    # of its 12 maxima, and LK33's walk reads the 4 its decision skipped
    calls = {"solve": 0, "phase1": 0}
    phase2 = []

    def counting(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(equistable, "solve_equality_lp", "solve")
    counting(lp, "_feasible_tableau", "phase1")
    optimize = lp._optimize
    monkeypatch.setattr(lp, "_optimize", lambda start, c, n: (
        phase2.append(tuple(c)) or optimize(start, c, n)))
    g = gallery("G12")
    assert not equistable.decision(g, False).verdict
    assert not equistable.decision(g, True).verdict
    assert not is_equistable(g).verdict
    assert calls == {"solve": 1, "phase1": 1}
    assert len(phase2) == len(set(phase2)) == 6
    calls.update(solve=0, phase1=0)
    phase2.clear()
    g = gallery("LK33")
    assert equistable.decision(g, False).verdict
    assert len(phase2) == 5
    assert is_equistable(g).weights
    assert calls == {"solve": 1, "phase1": 1}
    assert len(phase2) == len(set(phase2)) == g.n == 9


def test_size_cap():
    with pytest.raises(ValueError):
        is_equistable(Graph(MAX_LP_VERTICES + 1))
    # the cap guards the analysis itself, so forced_value refuses C17 at
    # once instead of solving its LP
    with pytest.raises(UnsupportedSize):
        forced_value(cycle(MAX_LP_VERTICES + 1), 0b11)


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


def rationals(weights):
    """The rationals ints[v] / den of an integer point (den, ints)."""
    den, ints = weights
    return [F(x, den) for x in ints]


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


def _join_test_graphs():
    """Fresh copies of every class with n <= 7 and of its complement, the
    LP gallery graphs, and seeded G(n, p) and random split graphs with
    8 <= n <= 16."""
    for graphs in nonisomorphic_graphs(7).values():
        for g in graphs:
            fresh = Graph.from_adj(g.adj)
            yield fresh
            yield complement(fresh)
    for name in LP_GALLERY:
        yield gallery(name)
    rng = random.Random(20)
    for _ in range(12):
        yield random_graph(rng.randint(8, 16), rng.random(), rng)
    for seed in range(8):
        n = rng.randint(8, 16)
        k = rng.randint(1, n - 1)
        yield random_split(k, n - k, seed)


def test_forced_subsets_match_per_direction_sweeps():
    # each meet-in-the-middle join of the equistable module against the
    # 2^n sweep it replaced, on the polytope of every test graph: the
    # forced subsets, and the weight check on the analysis' point, on the
    # walk's weights and on points of a mixed null direction's line at
    # steps that put a set at 1 and that miss
    lp_gallery = [gallery(name) for name in LP_GALLERY]
    rng = random.Random(20)
    seen = {"graphs": 0, "infeasible": 0, "fixed point": 0, "n = 1": 0,
            "packed": 0, "verifies": set()}
    for g in _join_test_graphs():
        n = g.n
        seen["graphs"] += 1
        seen["n = 1"] += n == 1
        res = g.memo("equistable", equistable._analysis)
        if res is None:
            seen["infeasible"] += 1
            continue
        directions = res.directions
        point = rationals(res.point)
        seen["fixed point"] += not directions
        seen["packed"] += len(directions) > 1
        forced = res.equal_one, res.at_most_one
        analysis = res.point, directions, res.stable_sets, n
        assert forced == oracles.forced_subsets_by_sweep(*analysis)
        if n <= 6 or g in lp_gallery:
            assert forced == oracles.forced_subsets_per_direction(*analysis)

        denom_p, base = oracles.scaled_subset_sums(point, n)
        mixed = [F(0)] * n
        for d in directions:
            c = rng.randint(-3, 3)
            mixed = [a + c * b for a, b in zip(mixed, d)]
        denom_d, dsums = oracles.scaled_subset_sums(mixed, n)
        steps = [F(1, 2), F(-3, 7)]
        moving = [m for m in range(1, 1 << n) if dsums[m]]
        for m in rng.sample(moving, min(3, len(moving))):
            hit = F((denom_p - base[m]) * denom_d, dsums[m] * denom_p)
            steps += [hit, hit + F(1, 1009)]
        # points of the walk's line; some put a non-stable set at 1 with
        # every maximal stable set still at 1
        weightings = [point]
        weightings += [[p + t * d for p, d in zip(point, mixed)]
                       for t in steps]
        cert = is_equistable(g)
        if cert.verdict:
            weightings.append(cert.weights)
        for w in weightings:
            verifies = verify_weighting(g, w)
            assert verifies == oracles.verify_weighting_by_sweep(g, w)
            seen["verifies"].add(verifies)
    assert seen["graphs"] == 2 * 1252 + len(LP_GALLERY) + 20
    assert seen["infeasible"] and seen["fixed point"] and seen["n = 1"]
    assert seen["packed"]
    assert seen["verifies"] == {False, True}


def test_analysis_matches_all_maxima_oracle(monkeypatch):
    # the analysis solves only the coordinate maxima its verdict needs; on
    # every test graph it agrees with the analysis that solved all n: the
    # same emptiness, implicit zeros, directions and forced subsets, with
    # a point of the polytope; the walk's point is the oracle's mean, and
    # the whole set solves fewer maxima than it has vertices
    phase2 = []
    optimize = lp._optimize
    monkeypatch.setattr(lp, "_optimize", lambda start, c, n: (
        phase2.append(c) or optimize(start, c, n)))
    solved = vertices = 0
    seen = {"empty": 0, "zeros": 0, "directions": 0}
    for g in _join_test_graphs():
        n = g.n
        phase2.clear()
        res = g.memo("equistable", equistable._analysis)
        assert len(phase2) <= n
        solved += len(phase2)
        vertices += n
        want = oracles.equistable_analysis_all_maxima(g)
        if want is None:
            assert res is None
            seen["empty"] += 1
            continue
        interior, zeros, want_directions, want_sets = want
        (den, ints), directions = res.point, res.directions
        assert res.stable_sets == want_sets
        # the integer directions are one positive multiple of the oracle's
        # rational ones
        scale = 1
        if directions:
            j = next(j for j, x in enumerate(want_directions[0]) if x)
            scale = directions[0][j] / want_directions[0][j]
        assert scale > 0
        assert directions == [[scale * x for x in d] for d in want_directions]
        # a vertex is an implicit zero iff the point and every direction
        # are 0 there, as the directions span the affine hull around it
        assert zeros == [v for v in range(n) if ints[v] == 0
                         and all(d[v] == 0 for d in directions)]
        assert den > 0 and min(ints) >= 0
        assert all(sum(ints[v] for v in bits(s)) == den for s in want_sets)
        # the forced subsets, read from the oracle's point and directions
        assert (res.equal_one, res.at_most_one) == equistable._forced_subsets(
            oracles.integral(interior),
            [oracles.integral(d)[1] for d in want_directions], want_sets, n)
        assert rationals(equistable._interior_point(g)) == interior
        seen["zeros"] += bool(zeros)
        seen["directions"] += bool(directions)
    assert min(seen.values()) > 0, seen
    assert solved < vertices


def test_weighting_walk_matches_hyperplane_walk():
    # the walk whose steps the weight check's join tests, against the walk
    # it replaced, on every equistable test graph: the same weights, with
    # directions dropped for a set stuck at 1 and steps past k = 2
    seen = {"walks": 0, "dropped": 0, "past k = 2": 0}
    for g in _join_test_graphs():
        cert = is_equistable(g)
        if not cert.verdict:
            continue
        res = g.memo("equistable", equistable._analysis)
        weights, dropped, extra = oracles.find_weighting_by_sweeps(
            g, rationals(equistable._interior_point(g)), res.directions,
            res.stable_sets)
        assert cert.weights == tuple(weights)
        seen["walks"] += bool(res.directions)
        seen["dropped"] += dropped
        seen["past k = 2"] += extra
    assert seen["walks"] and seen["dropped"] and seen["past k = 2"]


def _broken_conditions(g, weights):
    """Which conditions of a weighting fail, read off the full sweep."""
    if any(w < 0 for w in weights):
        return {"negative"}
    denom, sums = oracles.scaled_subset_sums(weights, g.n)
    stable = set(maximal_stable_sets(g))
    broken = set()
    if any(sums[s] != denom for s in stable):
        broken.add("stable set off 1")
    if any(sums[m] == denom for m in range(1, 1 << g.n) if m not in stable):
        broken.add("non-stable set at 1")
    return broken


def test_verify_weighting_matches_sweep_on_perturbed_certificates():
    # every weight of every positive certificate on seeded graphs, moved a
    # little, halved, and set so that an edge through it weighs 1 (a
    # maximal stable set then leaves 1); and points of the walk's line
    # where a non-stable set meets 1 while every maximal stable set stays
    # at 1.  The join must give the full sweep's answer on each
    rng = random.Random(20)
    seen = {}
    certified = 0
    while certified < 30:
        g = random_graph(rng.randint(4, 12), rng.random(), rng)
        cert = is_equistable(g)
        if not cert.verdict:
            continue
        certified += 1
        w = list(cert.weights)
        weightings = [w]
        for v in range(g.n):
            for moved in (w[v] + F(1, 101), w[v] / 2,
                          *(1 - w[u] for u in bits(g.adj[v]))):
                weightings.append([*w[:v], moved, *w[v + 1:]])
        res = g.memo("equistable", equistable._analysis)
        point = rationals(res.point)
        for d in res.directions[:1]:
            denom_p, base = oracles.scaled_subset_sums(point, g.n)
            denom_d, dsums = oracles.scaled_subset_sums(d, g.n)
            for m in range(1, 1 << g.n):
                if dsums[m]:
                    t = F((denom_p - base[m]) * denom_d, dsums[m] * denom_p)
                    line = [p + t * x for p, x in zip(point, d)]
                    if min(line) >= 0:
                        weightings.append(line)
        for weights in weightings:
            verifies = verify_weighting(g, weights)
            assert verifies == oracles.verify_weighting_by_sweep(g, weights)
            broken = frozenset(_broken_conditions(g, weights))
            assert verifies == (not broken)
            seen[broken] = seen.get(broken, 0) + 1
    for only in ("stable set off 1", "non-stable set at 1"):
        assert seen.get(frozenset([only]))
    assert seen[frozenset()] >= certified


def test_weighting_walk_joins_each_candidate_once(monkeypatch):
    # the walk's listing of an accepted candidate's masks at 1 is the one
    # the weight check reads, so no candidate is joined twice; every
    # returned weighting still meets the three conditions, by full sweep
    joined = []
    original = equistable._ones

    def recording(weights, n):
        joined.append(tuple(rationals(weights)))
        return original(weights, n)

    monkeypatch.setattr(equistable, "_ones", recording)
    rng = random.Random(23)
    graphs = [g for gs in nonisomorphic_graphs(6).values() for g in gs]
    graphs += [random_graph(rng.randint(7, 12), rng.random(), rng)
               for _ in range(20)]
    walks = 0
    for g in graphs:
        cert = is_equistable(g)
        if not cert.verdict:
            continue
        joined.clear()
        res = g.memo("equistable", equistable._analysis)
        weights = rationals(equistable._find_weighting(
            g, equistable._interior_point(g), res.directions,
            res.stable_sets))
        assert tuple(weights) == cert.weights
        assert len(joined) == len(set(joined))
        assert not joined or joined[-1] == tuple(weights)
        assert not _broken_conditions(g, weights)
        walks += bool(joined)
    assert walks


def test_weighting_builds_no_full_subset_sums(capsys, monkeypatch):
    # FK has 16 vertices; the decision, the weighting walk and the weight
    # check of --verify each build subset sums over half the vertices only
    sizes = []
    original = equistable._subset_sums

    def recording(values, n):
        out = original(values, n)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(equistable, "_subset_sums", recording)
    assert main(["equistable", "-i", "gallery:FK", "--verify",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] and "weights" in payload["equistable"]
    assert sizes and max(sizes) <= 1 << 8


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
