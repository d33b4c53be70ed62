"""Exact decision procedures for equistable and strongly equistable graphs.

The feasible region is the polytope  P = { w >= 0 : w(S) = 1 for every
maximal stable set S }.  For a nonempty convex set, a linear functional
w(T) takes a single value on all of P iff it is constant on the affine
hull of P, which equals the solution set of the stable-set equalities
together with the implicitly tight bounds w(v) = 0.  So:

* not equistable  iff P is empty or some other nonempty subset T has
  w(T) identically 1 on P;
* not strongly equistable iff P is empty or some such T has w(T)
  identically equal to a value <= 1.

The implicit zeros and one point of P come from the maxima of the n
coordinates over P, which share one phase 1; phase 2 runs only for the
maxima the verdict reads, and two facts keep that set small:

* v is an implicit zero iff max w_v over P is 0, and every optimum
  already solved shows max w_u > 0 for each u positive in it; so the
  coordinates are read in ascending order, skipping each u that an
  earlier optimum made positive;
* a subset T on which every null direction sums to 0 has the same w(T)
  at every point of P, so the first optimum read serves as the point
  from which the forced values are read.

The LP hands back integers over one positive denominator, and the
module keeps that form: a point or a weighting is (den, ints), and the
null-space basis is integer vectors that share one positive scale, so
every zero test and every comparison with den is exact.  Constancy of
w(T) is tested against that basis, with all directions packed into one
integer vector.  The subsets T are never enumerated: each question
about them (which T are forced, which T the weights put at 1) is a
meet-in-the-middle join (Horowitz and Sahni 1974).  Subset sums over
the low n // 2 vertices are indexed by key, and each of the
2^(n - n // 2) high-half sums looks up the low key that completes the
target, so a question costs about 2^(n/2) steps plus one per mask that
hits.

One record per graph holds the analysis: the stable sets, the
coordinate maxima, the point, the directions and the forced subsets.
``decision`` gives both verdicts from it alone; it is what the base
predicates read, so ``classify``, ``table`` and ``scan`` never build
weights.  Only ``is_equistable`` (the ``equistable`` command) adds the
relative-interior walk that turns a positive verdict into explicit
weights.  It starts from the mean of all n coordinate maxima, solving
the ones the verdict skipped, and tests each step with the weight
check's join; when the walk gives up it raises ``WeightingUndecided``,
a certificate failure, never a verdict.

All arithmetic is exact; no floating point enters this module.
``Fraction`` appears only where a rational leaves or enters it: the
walk's weights, a forced subset's value, and the weights that
``verify_weighting`` reads.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .cliques import maximal_stable_sets
from .graphs import Graph, bits
from .lp import null_space, solve_equality_lp
from .recognizers import UnsupportedSize

MAX_LP_VERTICES = 16


class WeightingUndecided(RuntimeError):
    """The walk from the interior point found no weighting in its attempts;
    the graph is equistable (no forced subset), but no certificate was
    built."""


@dataclass(frozen=True)
class EquistableCertificate:
    verdict: bool
    reason: str  # "weights" | "infeasible" | "forced-subset"
    weights: tuple | None = None  # rational weight per vertex
    forced_subset: int | None = None  # bitmask
    forced_value: Fraction | None = None

    def to_dict(self):
        d = {"verdict": self.verdict, "reason": self.reason}
        if self.weights is not None:
            d["weights"] = [str(w) for w in self.weights]
        if self.forced_subset is not None:
            d["forced_subset"] = sorted(bits(self.forced_subset))
            d["forced_value"] = str(self.forced_value)
        return d


def _subset_sums(values, n):
    """values per vertex -> array indexed by vertex mask with the sums.

    Built by doubling: the masks holding vertex v are the earlier masks
    with bit v set, so each step appends the array with v's value added.
    """
    out = [0]
    for val in values[:n]:
        out += [s + val for s in out]
    return out


def _halves(values, n):
    """Subset sums over the low n // 2 vertices and over the other
    n - n // 2: mask l | h << n // 2 sums to lo[l] + hi[h]."""
    half = n // 2
    return _subset_sums(values, half), _subset_sums(values[half:], n - half)


def _join(lo, wanted):
    """The pairs (l, h) other than (0, 0) with lo[l] == wanted[h], where
    wanted[h] is the low-half key that brings high half h to the target.

    One index of the low half and one lookup per high half, so only the
    masks that hit are listed.
    """
    index = {}
    for l, key in enumerate(lo):
        index.setdefault(key, []).append(l)
    for h, key in enumerate(wanted):
        for l in index.get(key, ()):
            if l or h:
                yield l, h


class _Analysis(NamedTuple):
    """One graph's equistable analysis, in integers."""

    stable_sets: tuple
    optimum: Callable  # v -> the (value, x, den) that maximizes w_v
    point: tuple  # (den, ints): w_v = ints[v] / den
    directions: list  # integer vectors that share one positive scale
    equal_one: tuple | None  # the forced hits of _forced_subsets
    at_most_one: tuple | None


def _analysis(g: Graph):
    """A point of the polytope, the null-space directions of its affine
    hull and the forced subsets, from as few coordinate maxima as the
    implicit zeros allow; None when the polytope is empty.

    One phase 1 serves every coordinate.  The coordinates are read in
    ascending order, and one that is positive in an optimum already read
    is skipped: max w_v > 0 there, so v is no implicit zero.  The point
    is the first optimum read.  Callers share one result per graph object
    and must not mutate it.
    """
    n = g.n
    if n > MAX_LP_VERTICES:
        raise UnsupportedSize(
            f"equistability decision limited to n <= {MAX_LP_VERTICES}"
        )
    stable_sets = tuple(maximal_stable_sets(g))
    rows = [[s >> v & 1 for v in range(n)] for s in stable_sets]
    units = [[int(u == v) for u in range(n)] for v in range(n)]
    optimum = solve_equality_lp(rows, [1] * len(rows), units)
    if optimum is None:
        return None
    _, x, den = optimum(0)  # coordinate 0 is never skipped
    point = den, x
    positive = 0  # coordinates positive in an optimum read so far
    zero_rows = []  # the implicitly tight bounds w_v = 0
    for v in range(n):
        if positive >> v & 1:
            continue
        value, x, _ = optimum(v)
        if value == 0:
            zero_rows.append(units[v])
        positive |= sum(1 << u for u, xu in enumerate(x) if xu)
    directions = null_space(rows + zero_rows, n)
    return _Analysis(stable_sets, optimum, point, directions,
                     *_forced_subsets(point, directions, stable_sets, n))


def _interior_point(g: Graph):
    """The mean of the n coordinate maxima, a relative-interior point of
    the (nonempty) polytope, as (den, ints): every maximum is read, and
    those that the analysis read are not solved again."""
    n = g.n
    optimum = g.memo("equistable", _analysis).optimum
    optima = [optimum(v) for v in range(n)]
    # summed per coordinate over the lcm of the optima's denominators
    den = lcm(*[d for _, _, d in optima])
    totals = [sum(x[v] * (den // d) for _, x, d in optima) for v in range(n)]
    return den * n, totals


def _packed(directions, n):
    """One integer vector whose subset sum is 0 exactly on the masks where
    every direction's subset sum is 0.

    Each integer direction d is one digit of a balanced mixed radix:
    packed = packed * B + d with B = 2 * sum(|d|) + 1, so every subset
    sum of d lies strictly between -B/2 and B/2.
    """
    packed = [0] * n
    for d in directions:
        radix = 2 * sum(map(abs, d)) + 1
        packed = [p * radix + x for p, x in zip(packed, d)]
    return packed


def _forced_subsets(point, directions, stable_sets, n):
    """The forced subsets that the certificates name.

    A subset T is forced when it is nonempty, not a maximal stable set,
    and w(T) is constant on the (nonempty) polytope.  Returns the first
    forced T of value 1 and the first of value at most 1, first meaning
    fewest vertices, then smallest mask; each as (mask, value) or None.
    The candidates are the masks where the packed directions sum to 0,
    from one join.
    """
    half = n // 2
    stable = set(stable_sets)
    denom, ints = point
    base_lo, base_hi = _halves(ints, n)
    move_lo, move_hi = _halves(_packed(directions, n), n)
    equal_one = at_most_one = None  # (vertices, mask, denom * value)
    for l, h in _join(move_lo, [-s for s in move_hi]):
        m = l | h << half
        b = base_lo[l] + base_hi[h]
        if b <= denom and m not in stable:
            hit = (m.bit_count(), m, b)
            at_most_one = min(at_most_one or hit, hit)
            if b == denom:
                equal_one = min(equal_one or hit, hit)

    def named(hit):
        return None if hit is None else (hit[1], Fraction(hit[2], denom))

    return named(equal_one), named(at_most_one)


def _find_weighting(g: Graph, point, directions, stable_sets):
    """A point of the polytope with w(T) != 1 for every non-stable T, as
    (den, ints) like the point it starts from.

    Walks from the relative interior point along a generic integer
    combination of the null directions, to the candidates
    point + step/k * direction for k = 2, 3, ..., where step is the
    largest that keeps w >= 0.  The join of the weight check lists what
    each candidate puts at 1; the maximal stable sets stay there, since
    the direction sums to 0 on each.  When no other T is at 1, the
    weight check decides the candidate on that same listing.  Otherwise
    take the first such T.  If the direction sums to 0 on T, then
    w(T) = 1 all along the line and no step dodges it, so the next
    attempt takes another direction.  Else the line crosses T's
    hyperplane at this step only, and step/(k + 1) is tried; the line
    crosses finitely many hyperplanes, so the walk along a direction
    ends.  On a direction that leaves no T at 1 along the whole line, the
    first k with no T at 1 is the first whose step meets no hyperplane.
    """
    n = g.n
    if not directions:
        return point
    den, ints = point
    stable = set(stable_sets)
    for attempt in range(1, 32):
        # deterministic "generic" combination of the null directions
        dvec = [0] * n
        w = 1
        for d in directions:
            dvec = [a + w * b for a, b in zip(dvec, d)]
            w *= attempt + 1
        # largest step keeping w >= 0, step = p / (den * q) for the least
        # ratio p / q = ints[v] / -dvec[v]; dvec sums to 0 on each maximal
        # stable set, and every vertex lies in one, so some entry is < 0
        p, q = None, 1
        for x, d in zip(ints, dvec):
            if d < 0 and (p is None or x * q < p * -d):
                p, q = x, -d
        k = 2
        while True:
            cand = den * q * k, [x * q * k + p * d for x, d in zip(ints, dvec)]
            ones = []
            t = None
            for m in _ones(cand, n):
                if m not in stable:
                    t = m
                    break
                ones.append(m)
            if t is None or not sum(dvec[v] for v in bits(t)):
                break
            k += 1
        if t is None and _verify_weighting(cand, stable_sets, ones):
            return cand
    raise WeightingUndecided(
        "weight construction failed to avoid all hyperplanes"
    )


def _ones(weights, n):
    """The nonempty masks that the weights (den, ints), w_v = ints[v] / den,
    put at sum 1, from one join of the half sums."""
    den, ints = weights
    lo, hi = _halves(ints, n)
    for l, h in _join(lo, [den - s for s in hi]):
        yield l | h << n // 2


def _verify_weighting(weights, stable_sets, ones) -> bool:
    """w >= 0 for the weights (den, ints), den > 0, and w(S) = 1 exactly
    for maximal stable sets and for nothing else: ``ones``, every mask
    that the join of ``_ones`` finds at sum 1, are exactly the maximal
    stable sets.  The check is exhaustive, since the join lists every
    hit."""
    if any(x < 0 for x in weights[1]):
        return False
    stable = set(stable_sets)
    hits = 0
    for m in ones:
        if m not in stable:
            return False
        hits += 1
    return hits == len(stable)


def verify_weighting(g: Graph, weights) -> bool:
    weights = [Fraction(w) for w in weights]
    den = lcm(*[w.denominator for w in weights])
    scaled = den, [w.numerator * (den // w.denominator) for w in weights]
    return _verify_weighting(scaled, maximal_stable_sets(g),
                             _ones(scaled, g.n))


def decision(g: Graph, strongly: bool) -> EquistableCertificate:
    """The (strongly) equistable verdict, from the polytope analysis and
    its forced-subset join alone: the graph is equistable iff the
    polytope is nonempty and no subset is forced to 1 (strongly: to a
    value at most 1).  A negative verdict names the forced subset; a
    positive one carries no weights."""
    res = g.memo("equistable", _analysis)
    if res is None:
        return EquistableCertificate(False, "infeasible")
    hit = res.at_most_one if strongly else res.equal_one
    if hit is not None:
        m, val = hit
        return EquistableCertificate(
            False, "forced-subset", forced_subset=m, forced_value=val
        )
    return EquistableCertificate(True, "weights")


def is_equistable(g: Graph) -> EquistableCertificate:
    """Equistable decision with a fully verified weight certificate: the
    weighting walk runs only after a positive decision."""
    cert = decision(g, strongly=False)
    if not cert.verdict:
        return cert
    res = g.memo("equistable", _analysis)
    den, ints = _find_weighting(g, _interior_point(g), res.directions,
                                res.stable_sets)
    return EquistableCertificate(
        True, "weights", weights=tuple(Fraction(x, den) for x in ints))


def is_strongly_equistable(g: Graph) -> EquistableCertificate:
    return decision(g, strongly=True)


def forced_value(g: Graph, subset: int):
    """The constant value of w(subset) over the polytope, or None if the
    value varies (or the polytope is empty)."""
    res = g.memo("equistable", _analysis)
    if res is None:
        return None
    if any(sum(d[v] for v in bits(subset)) for d in res.directions):
        return None
    den, ints = res.point
    return Fraction(sum(ints[v] for v in bits(subset)), den)
