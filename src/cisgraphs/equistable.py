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

Constancy of w(T) is tested against a null-space basis of the equality
system, with all directions packed into one integer vector.  The subsets
T are never enumerated: each question about them (which T are forced,
which T the weights put at 1) is a meet-in-the-middle join (Horowitz and
Sahni 1974).  Subset sums over the low n // 2 vertices are indexed by
key, and each of the 2^(n - n // 2) high-half sums looks up the low key
that completes the target, so a question costs about 2^(n/2) steps plus
one per mask that hits.

``decision`` gives both verdicts from that analysis and join alone; it
is what the base predicates read, so ``classify``, ``table`` and
``scan`` never build weights.  Only ``is_equistable`` (the
``equistable`` command) adds the relative-interior walk that turns a
positive verdict into explicit weights, testing each step with the
weight check's join; when the walk gives up it raises
``WeightingUndecided``, a certificate failure, never a verdict.

All arithmetic is exact; no floating point enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cliques import maximal_stable_sets
from .graphs import Graph, bits
from .lp import null_space, scaled_ints, solve_equality_lp
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


def _analysis(g: Graph):
    """Relative-interior point and null-space directions of the polytope.

    Returns None when the polytope is empty, else (point, directions,
    stable_sets); the directions span the affine hull around the point.
    Callers share one result per graph object and must not mutate it.
    """
    n = g.n
    stable_sets = tuple(maximal_stable_sets(g))
    rows = [[s >> v & 1 for v in range(n)] for s in stable_sets]
    # implicitly tight bounds and a relative interior point, from the
    # maxima of the n coordinates
    units = [[int(u == v) for u in range(n)] for v in range(n)]
    optima = solve_equality_lp(rows, [1] * len(rows), units, maximize=True)
    if optima is None:
        return None
    implicit_zero = [v for v, (value, _) in enumerate(optima) if value == 0]
    # the mean of the n optima, summed per coordinate in integers over
    # one common denominator
    point = []
    for coords in zip(*(p for _, p in optima)):
        den = lcm(*[c.denominator for c in coords])
        total = sum(c.numerator * (den // c.denominator) for c in coords)
        point.append(Fraction(total, den * n))
    for v in implicit_zero:
        row = [0] * n
        row[v] = 1
        rows.append(row)
    directions = null_space(rows, n)
    return point, directions, stable_sets


def _packed(directions, n):
    """One integer vector whose subset sum is 0 exactly on the masks where
    every direction's subset sum is 0.

    Each direction d, scaled to integers, is one digit of a balanced
    mixed radix: packed = packed * B + d with B = 2 * sum(|d|) + 1, so
    every subset sum of d lies strictly between -B/2 and B/2.
    """
    packed = [0] * n
    for d in directions:
        _, ints = scaled_ints(d)
        radix = 2 * sum(map(abs, ints)) + 1
        packed = [p * radix + x for p, x in zip(packed, ints)]
    return packed


def _forced_subsets(g: Graph):
    """The forced subsets that the certificates name.

    A subset T is forced when it is nonempty, not a maximal stable set,
    and w(T) is constant on the (nonempty) polytope.  Returns the first
    forced T of value 1 and the first of value at most 1, first meaning
    fewest vertices, then smallest mask; each as (mask, value) or None.
    The candidates are the masks where the packed directions sum to 0,
    from one join.
    """
    point, directions, stable_sets = g.memo("equistable_analysis", _analysis)
    n = g.n
    half = n // 2
    stable = set(stable_sets)
    denom, ints = scaled_ints(point)
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
    """A point of the polytope with w(T) != 1 for every non-stable T.

    Walks from the relative interior point along a generic null
    direction, to the candidates point + step/k * direction for
    k = 2, 3, ..., where step is the largest that keeps w >= 0.  The
    join of the weight check lists what each candidate puts at 1; the
    maximal stable sets stay there, since the direction sums to 0 on
    each.  When no other T is at 1, the weight check decides the
    candidate.  Otherwise take the first such T.  If the direction sums
    to 0 on T, then w(T) = 1 all along the line and no step dodges it, so
    the next attempt takes another direction.  Else the line crosses T's
    hyperplane at this step only, and step/(k + 1) is tried; the line
    crosses finitely many hyperplanes, so the walk along a direction
    ends.  On a direction that leaves no T at 1 along the whole line, the
    first k with no T at 1 is the first whose step meets no hyperplane.
    """
    n = g.n
    if not directions:
        return point
    stable = set(stable_sets)
    for attempt in range(1, 32):
        # deterministic "generic" combination of the null directions
        dvec = [Fraction(0)] * n
        w = Fraction(1)
        for d in directions:
            dvec = [a + w * b for a, b in zip(dvec, d)]
            w *= attempt + 1
        _, dints = scaled_ints(dvec)
        # largest step keeping w >= 0
        step = None
        for v in range(n):
            if dvec[v] < 0:
                lim = point[v] / -dvec[v]
                if step is None or lim < step:
                    step = lim
        if step is None:
            step = Fraction(1)
        k = 2
        while True:
            eps = step / k
            cand = [p + eps * d for p, d in zip(point, dvec)]
            t = next((m for m in _ones(cand, n) if m not in stable), None)
            if t is None or not sum(dints[v] for v in bits(t)):
                break
            k += 1
        if t is None and _verify_weighting(g, cand, stable_sets):
            return cand
    raise WeightingUndecided(
        "weight construction failed to avoid all hyperplanes"
    )


def _ones(weights, n):
    """The nonempty masks that the weights put at sum 1, from one join of
    the half sums scaled to integers."""
    denom, ints = scaled_ints(weights)
    lo, hi = _halves(ints, n)
    for l, h in _join(lo, [denom - s for s in hi]):
        yield l | h << n // 2


def _verify_weighting(g: Graph, weights, stable_sets) -> bool:
    """w(S) = 1 exactly for maximal stable sets and for nothing else: the
    masks that the join finds at sum 1 are exactly the maximal stable
    sets.  The check is exhaustive, since the join lists every hit."""
    if any(w < 0 for w in weights):
        return False
    stable = set(stable_sets)
    hits = 0
    for m in _ones(weights, g.n):
        if m not in stable:
            return False
        hits += 1
    return hits == len(stable)


def verify_weighting(g: Graph, weights) -> bool:
    return _verify_weighting(g, [Fraction(w) for w in weights],
                             maximal_stable_sets(g))


def decision(g: Graph, strongly: bool) -> EquistableCertificate:
    """The (strongly) equistable verdict, from the polytope analysis and
    the forced-subset join alone: the graph is equistable iff the
    polytope is nonempty and no subset is forced to 1 (strongly: to a
    value at most 1).  A negative verdict names the forced subset; a
    positive one carries no weights."""
    if g.n > MAX_LP_VERTICES:
        raise UnsupportedSize(
            f"equistability decision limited to n <= {MAX_LP_VERTICES}"
        )
    if g.memo("equistable_analysis", _analysis) is None:
        return EquistableCertificate(False, "infeasible")
    # both decisions read the same join, so it is kept with the analysis
    equal_one, at_most_one = g.memo("forced_subsets", _forced_subsets)
    hit = at_most_one if strongly else equal_one
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
    weights = _find_weighting(g, *g.memo("equistable_analysis", _analysis))
    return EquistableCertificate(True, "weights", weights=tuple(weights))


def is_strongly_equistable(g: Graph) -> EquistableCertificate:
    return decision(g, strongly=True)


def forced_value(g: Graph, subset: int):
    """The constant value of w(subset) over the polytope, or None if the
    value varies (or the polytope is empty)."""
    res = g.memo("equistable_analysis", _analysis)
    if res is None:
        return None
    point, directions, _ = res
    if any(
        sum(d[v] for v in bits(subset)) != 0 for d in directions
    ):
        return None
    return sum((point[v] for v in bits(subset)), Fraction(0))

