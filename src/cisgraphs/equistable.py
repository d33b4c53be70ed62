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
system, which replaces the per-subset LP loop with subset-sum sweeps (one
for the point, one for all directions packed into one integer vector)
and keeps the 14-16 vertex gallery graphs inside the time budget.

``decision`` gives both verdicts from that analysis and sweep alone; it
is what the base predicates read, so ``classify``, ``table`` and
``scan`` never build weights.  Only ``is_equistable`` (the
``equistable`` command) adds the relative-interior walk that turns a
positive verdict into explicit weights; when the walk gives up it
raises ``WeightingUndecided``, a certificate failure, never a verdict.

All arithmetic is exact; no floating point enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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


def _scaled_ints(vec):
    """A rational vector scaled to integers: (denominator, ints)."""
    denom = lcm(*[f.denominator for f in vec])
    return denom, [f.numerator * (denom // f.denominator) for f in vec]


def _scaled_int_sums(vec, n):
    """Subset sums of a rational vector, scaled to integers.

    Returns (denominator, sums) with sums[mask] = denom * vec-sum."""
    denom, ints = _scaled_ints(vec)
    return denom, _subset_sums(ints, n)


def _packed(directions, n):
    """One integer vector whose subset sum is 0 exactly on the masks where
    every direction's subset sum is 0.

    Each direction d, scaled to integers, is one digit of a balanced
    mixed radix: packed = packed * B + d with B = 2 * sum(|d|) + 1, so
    every subset sum of d lies strictly between -B/2 and B/2.
    """
    packed = [0] * n
    for d in directions:
        _, ints = _scaled_ints(d)
        radix = 2 * sum(map(abs, ints)) + 1
        packed = [p * radix + x for p, x in zip(packed, ints)]
    return packed


def _forced_subsets(g: Graph):
    """The forced subsets that the certificates name.

    A subset T is forced when it is nonempty, not a maximal stable set,
    and w(T) is constant on the (nonempty) polytope.  Returns the first
    forced T of value 1 and the first of value at most 1, first meaning
    fewest vertices, then smallest mask; each as (mask, value) or None.
    """
    point, directions, stable_sets = g.memo("equistable_analysis", _analysis)
    n = g.n
    stable = set(stable_sets)
    denom, base = _scaled_int_sums(point, n)
    moving = _subset_sums(_packed(directions, n), n)
    at_most_one = [
        m for m in range(1, 1 << n)
        if not moving[m] and base[m] <= denom and m not in stable
    ]

    def first(masks):
        m = min(masks, key=lambda m: (m.bit_count(), m), default=None)
        return None if m is None else (m, Fraction(base[m], denom))

    equal_one = [m for m in at_most_one if base[m] == denom]
    return first(equal_one), first(at_most_one)


def _find_weighting(g: Graph, point, directions, stable_sets):
    """A point of the polytope with w(T) != 1 for every non-stable T.

    Walks from the relative interior point along a generic null direction;
    the step length dodges the finitely many hyperplane hits.
    """
    n = g.n
    if not directions:
        return point
    denom_p, base = _scaled_int_sums(point, n)
    stable = set(stable_sets)
    for attempt in range(1, 32):
        # deterministic "generic" combination of the null directions
        dvec = [Fraction(0)] * n
        w = Fraction(1)
        for d in directions:
            dvec = [a + w * b for a, b in zip(dvec, d)]
            w *= attempt + 1
        denom_d, dsums = _scaled_int_sums(dvec, n)
        # the direction must move every currently-colliding functional
        if any(
            base[m] == denom_p and dsums[m] == 0
            for m in range(1, 1 << n)
            if m not in stable
        ):
            continue
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
        while _meets_hyperplane(step / k, denom_p, base, denom_d, dsums):
            k += 1
        eps = step / k
        cand = [p + eps * d for p, d in zip(point, dvec)]
        if _verify_weighting(g, cand, stable_sets):
            return cand
    raise WeightingUndecided(
        "weight construction failed to avoid all hyperplanes"
    )


def _meets_hyperplane(t, denom_p, base, denom_d, dsums):
    """Whether some non-stable T has w(T) = 1 at step t of the walk.

    w(T) at step t is base/denom_p + t * dsums/denom_d, so it equals 1
    iff dsums * t * denom_p == (denom_p - base) * denom_d, a test in
    integers.  A T with dsums = 0 does not move along the walk and is
    skipped; every maximal stable set is one, and the caller has already
    rejected each direction that leaves a non-stable one at 1.
    """
    num = t.numerator * denom_p
    den = t.denominator * denom_d
    return any(
        d and d * num == (denom_p - b) * den for d, b in zip(dsums, base)
    )


def _verify_weighting(g: Graph, weights, stable_sets) -> bool:
    """w(S) = 1 exactly for maximal stable sets and for nothing else."""
    n = g.n
    if any(w < 0 for w in weights):
        return False
    denom, sums = _scaled_int_sums(list(weights), n)
    stable = set(stable_sets)
    for m in range(1, 1 << n):
        if (sums[m] == denom) != (m in stable):
            return False
    return True


def verify_weighting(g: Graph, weights) -> bool:
    return _verify_weighting(g, [Fraction(w) for w in weights],
                             maximal_stable_sets(g))


def decision(g: Graph, strongly: bool) -> EquistableCertificate:
    """The (strongly) equistable verdict, from the polytope analysis and
    the forced-subset sweep alone: the graph is equistable iff the
    polytope is nonempty and no subset is forced to 1 (strongly: to a
    value at most 1).  A negative verdict names the forced subset; a
    positive one carries no weights."""
    if g.n > MAX_LP_VERTICES:
        raise UnsupportedSize(
            f"equistability decision limited to n <= {MAX_LP_VERTICES}"
        )
    if g.memo("equistable_analysis", _analysis) is None:
        return EquistableCertificate(False, "infeasible")
    # both decisions read the same sweep, so it is kept with the analysis
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

