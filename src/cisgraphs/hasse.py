"""The 17x17 inclusion/separation table between the self-complementary
graph properties, its re-verification, and exhaustive small-graph scans
of the inclusion arrows.

Cell values: "=" on the diagonal, "subset" for a proven inclusion, "?"
for an open inclusion question, a gallery id for a separating witness,
or a skip id for witnesses that are out of desk scale (FL, G14, G22,
LLbar).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from . import gallery as gal
from .graphs import (
    Graph,
    canonical_form,
    canonical_search,
    complement,
    encode_graph6,
    mask_of,
    orbit,
)
from .recognizers import UnsupportedSize, base_predicate, has_bad_p4

# ---------------------------------------------------------------------------
# the 17 self-complementary properties, in table column order

PROPERTY_DEFS = {
    "aCIS": ("almost_cis", "plain"),
    "cap-es": ("edge_simplicial", "cap"),
    "split": ("split", "plain"),
    "CIS": ("cis", "plain"),
    "qCIS": ("quasi_cis", "plain"),
    "cap-swCIS": ("semi_weakly_cis", "cap"),
    "wCIS": ("weakly_cis", "plain"),
    "cap-seq": ("strongly_equistable", "cap"),
    "cap-eq": ("equistable", "cap"),
    "cap-tri": ("triangle", "cap"),
    "cap-wtri": ("weakly_triangle", "cap"),
    "cup-es": ("edge_simplicial", "cup"),
    "cup-swCIS": ("semi_weakly_cis", "cup"),
    "cup-seq": ("strongly_equistable", "cup"),
    "cup-eq": ("equistable", "cup"),
    "cup-tri": ("triangle", "cup"),
    "cup-wtri": ("weakly_triangle", "cup"),
}
PROPERTY_ORDER = tuple(PROPERTY_DEFS)

LP_BASES = ("equistable", "strongly_equistable")

# Cells whose printed witness is refuted by exact computation (the G12
# polytope forces w = 0 on vertices 10-12, hence weight 1 on the
# non-maximal stable set {1,2,3}, so G12 is not cap-equistable; the same
# source lists "cap-equistable => cap-general-partition" as open).  They
# are reported as open questions instead of verified separations.
ERRATA = {
    ("cap-seq", "cap-swCIS"): "G12",
    ("cap-eq", "cap-swCIS"): "G12",
}

# Witnesses that cannot be checked at desk scale, with the reason.
SKIPPED_WITNESSES = {
    "FL": "construction not available in the gallery",
    "G14": "22-vertex equistability decision out of desk scale",
    "G22": "22-vertex equistability decision out of desk scale",
    "LLbar": "330 vertices; only decomposed structural checks are run",
}

# Row id -> 17 cells in PROPERTY_ORDER.
TABLE = {
    "aCIS": ("=", "P4", "subset", "P4", "subset", "P4", "P4", "P4", "P4",
             "P4", "P4", "P4", "P4", "P4", "P4", "P4", "P4"),
    "cap-es": ("K1", "=", "subset", "F", "subset", "subset", "subset",
               "subset", "subset", "subset", "subset", "subset", "subset",
               "subset", "subset", "subset", "subset"),
    "split": ("K1", "P4", "=", "P4", "subset", "P4", "P4", "P4", "P4",
              "P4", "P4", "P4", "P4", "P4", "P4", "P4", "P4"),
    "CIS": ("K1", "C4", "C4", "=", "subset", "subset", "subset", "subset",
            "subset", "subset", "subset", "CK", "subset", "subset",
            "subset", "subset", "subset"),
    "qCIS": ("K1", "C4", "C4", "P4", "=", "P4", "P4", "P4", "P4", "P4",
             "P4", "P4", "P4", "P4", "P4", "P4", "P4"),
    "cap-swCIS": ("K1", "C4", "C4", "F", "FK", "=", "subset", "subset",
                  "subset", "subset", "subset", "CK", "subset", "subset",
                  "subset", "subset", "subset"),
    "wCIS": ("K1", "C4", "C4", "F", "G12", "G12", "=", "G12", "G12",
             "G12", "subset", "LK33", "G12", "G12", "G12", "G12",
             "subset"),
    "cap-seq": ("K1", "C4", "C4", "F", "FL", "G12", "?", "=", "subset",
                "subset", "subset", "LK33", "?", "subset", "subset",
                "subset", "subset"),
    "cap-eq": ("K1", "C4", "C4", "F", "FL", "G12", "?", "?", "=",
               "subset", "subset", "LK33", "?", "?", "subset", "subset",
               "subset"),
    "cap-tri": ("K1", "C4", "C4", "F", "FL", "LLbar", "?", "LLbar",
                "LLbar", "=", "subset", "LK33", "LLbar", "LLbar",
                "LLbar", "subset", "subset"),
    "cap-wtri": ("K1", "C4", "C4", "F", "FL", "LLbar", "?", "LLbar",
                 "LLbar", "G12", "=", "LK33", "LLbar", "LLbar", "LLbar",
                 "G12", "subset"),
    "cup-es": ("K1", "C4", "C4", "S3", "SK", "S3", "subset", "S3", "S3",
               "S3", "subset", "=", "subset", "subset", "subset",
               "subset", "subset"),
    "cup-swCIS": ("K1", "C4", "C4", "S3", "SK", "S3", "subset", "S3",
                  "S3", "S3", "subset", "LK33", "=", "subset", "subset",
                  "subset", "subset"),
    "cup-seq": ("K1", "C4", "C4", "S3", "SK", "S3", "?", "S3", "S3",
                "S3", "?", "LK33", "G22", "=", "subset", "subset",
                "subset"),
    "cup-eq": ("K1", "C4", "C4", "S3", "SK", "S3", "?", "S3", "S3", "S3",
               "?", "LK33", "G22", "G14", "=", "subset", "subset"),
    "cup-tri": ("K1", "C4", "C4", "S3", "SK", "S3", "Cir9", "S3", "S3",
                "S3", "Cir9", "LK33", "Cir9", "Cir9", "Cir9", "=",
                "subset"),
    "cup-wtri": ("K1", "C4", "C4", "S3", "SK", "S3", "Cir9", "S3", "S3",
                 "S3", "Cir9", "LK33", "Cir9", "Cir9", "Cir9", "G12",
                 "="),
}


class MembershipCache:
    """The package's evaluator: memoized base predicates, and their lifts
    to the table properties.  A verdict is True, False, or "unsupported"
    when the graph is too large for an exact predicate; that depends only
    on n, so a graph and its complement always agree on it."""

    def __init__(self):
        self._vals = {}

    def base(self, name: str, g: Graph):
        key = (name, g)
        if key not in self._vals:
            try:
                self._vals[key] = base_predicate(name)(g)
            except UnsupportedSize:
                self._vals[key] = "unsupported"
        return self._vals[key]

    def holds(self, prop: str, g: Graph):
        """A table property id (cap = on g and its complement, cup = on
        either), or a plain base predicate name."""
        name, modifier = PROPERTY_DEFS.get(prop, (prop, "plain"))
        on_g = self.base(name, g)
        if modifier == "plain" or on_g == "unsupported":
            return on_g
        if on_g == (modifier == "cup"):  # cap of False, cup of True
            return on_g
        return self.base(name, complement(g))


# ---------------------------------------------------------------------------
# table verification


@dataclass
class CellResult:
    row: str
    col: str
    kind: str  # "equal" | "subset" | "unknown" | "skipped" | "witness"
    witness: str | None = None
    passed: bool | None = None
    detail: str = ""

    def to_dict(self):
        d = {"row": self.row, "col": self.col, "kind": self.kind}
        if self.witness:
            d["witness"] = self.witness
        if self.passed is not None:
            d["passed"] = self.passed
        if self.detail:
            d["detail"] = self.detail
        return d


def _lp_backed(prop: str) -> bool:
    """A table property id or a base name whose base needs the exact LP."""
    return PROPERTY_DEFS.get(prop, (prop,))[0] in LP_BASES


def verify_table(include_lp: bool = True):
    """Check every witness cell: the named graph must satisfy the row
    property and violate the column property.  Returns all 289 cells."""
    cache = MembershipCache()
    results = []
    for row in PROPERTY_ORDER:
        for col, cell in zip(PROPERTY_ORDER, TABLE[row]):
            if (row, col) in ERRATA:
                results.append(
                    CellResult(
                        row, col, "erratum", witness=cell,
                        detail="printed witness fails the row property; "
                               "treated as an open inclusion",
                    )
                )
            elif cell == "=":
                results.append(CellResult(row, col, "equal"))
            elif cell == "subset":
                results.append(CellResult(row, col, "subset"))
            elif cell == "?":
                results.append(CellResult(row, col, "unknown"))
            elif cell in SKIPPED_WITNESSES:
                results.append(
                    CellResult(row, col, "skipped", witness=cell,
                               detail=SKIPPED_WITNESSES[cell])
                )
            elif not include_lp and (_lp_backed(row) or _lp_backed(col)):
                results.append(
                    CellResult(row, col, "skipped", witness=cell,
                               detail="lp-backed cell disabled")
                )
            else:
                g = gal.gallery(cell)
                in_row = cache.holds(row, g)
                not_in_col = not cache.holds(col, g)
                results.append(
                    CellResult(
                        row, col, "witness", witness=cell,
                        passed=in_row and not_in_col,
                        detail="" if in_row and not_in_col else (
                            f"in_row={in_row} in_col={not not_in_col}"
                        ),
                    )
                )
    return results


# ---------------------------------------------------------------------------
# exhaustive generation of small graphs up to isomorphism

EXPECTED_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044,
                         8: 12346}
# scans stop at the largest order whose class count is checked
MAX_SCAN_N = max(EXPECTED_GRAPH_COUNTS)


class _Level(NamedTuple):
    """The classes of one order, kept from generation: their
    representatives, {canonical form: index of its class}, and the
    generators of each representative's automorphism group, which extend
    the next order."""

    reps: list
    index: dict
    groups: list


_LEVELS = {1: _Level([Graph(1)], {(0,): 0}, [()])}


def nonisomorphic_graphs(max_n: int):
    """Representatives of all isomorphism classes with 1..max_n vertices.

    Built by canonical augmentation on degree (after McKay, "Isomorph-free
    exhaustive generation", 1998): each (n-1)-vertex representative g is
    extended by a new vertex w attached by every possible neighbourhood,
    except that an extension is skipped when some old vertex has a higher
    degree than w.  Deleting that vertex leaves a graph with fewer edges
    than g, whose class comes earlier in the sorted list, so an earlier
    extension already has this class; the first extension of a class is
    therefore never skipped, and it represents the class.  Of the
    neighbourhoods in one orbit of g's automorphism group only the first,
    in ascending order, is formed: an automorphism of g that maps one
    neighbourhood to another, with w fixed, is an isomorphism between the
    two extensions, and the first extension of a class is the first of
    its orbit.  The degree rule skips whole orbits, since automorphisms
    keep degrees.  Returns {n: list of Graph}, each list sorted by (edge
    count, adjacency rows).
    """
    levels = _LEVELS
    for n in range(2, max_n + 1):
        if n in levels:
            continue
        classes = {}
        prev = levels[n - 1]
        for g, group in zip(prev.reps, prev.groups):
            # at_least[d]: the old vertices of degree at least d.  With
            # k = |mask|, an old vertex ends above w's degree k when its
            # degree exceeds k, or equals k and w joins it.
            at_least = [mask_of(v for v in range(n - 1) if g.degree(v) >= d)
                        for d in range(n + 1)]
            met = set()  # masks met in the orbit of an earlier one
            for mask in range(1 << (n - 1)):
                k = mask.bit_count()
                if at_least[k + 1] or mask & at_least[k] or mask in met:
                    continue
                met.update(orbit(mask, group))
                adj = [row | ((mask >> v & 1) << (n - 1))
                       for v, row in enumerate(g.adj)]
                adj.append(mask)
                cand = Graph.from_adj(adj)
                form, _, gens = canonical_search(cand)
                classes.setdefault(form, (cand, gens))
        ordered = sorted(classes.items(), key=lambda item: (
            item[1][0].edge_count(), item[1][0].adj))
        expect = EXPECTED_GRAPH_COUNTS.get(n)
        if expect is not None and len(ordered) != expect:
            raise RuntimeError(
                f"graph generation produced {len(ordered)} classes at n={n}, "
                f"expected {expect}"
            )
        levels[n] = _Level(
            [g for _, (g, _) in ordered],
            {form: i for i, (form, _) in enumerate(ordered)},
            [gens for _, (_, gens) in ordered],
        )
    return {n: levels[n].reps for n in range(1, max_n + 1)}


# ---------------------------------------------------------------------------
# inclusion arrow scan

# Arrows between plain base predicates (each graph tested on itself only;
# the self-complementarity collapse check covers the complement side).
BASE_ARROWS = (
    ("edge_simplicial", "semi_weakly_cis"),
    ("semi_weakly_cis", "strongly_equistable"),
    ("strongly_equistable", "equistable"),
    ("equistable", "triangle"),
    ("triangle", "weakly_triangle"),
    ("cis", "semi_weakly_cis"),
    ("perfect", "normal"),
    ("threshold", "cograph"),
    ("cograph", "cis"),
)
# the arrows the scan checks: the base arrows and two from weakly CIS
SCAN_ARROWS = BASE_ARROWS + (
    ("weakly_cis", "normal"), ("weakly_cis", "cap-wtri"),
)

@dataclass
class ArrowResult:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)  # graph6 strings

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class ScanReport:
    max_n: int
    lp_max_n: int
    counts: dict = field(default_factory=dict)
    arrows: dict = field(default_factory=dict)
    subset_cells: dict = field(default_factory=dict)  # (row, col) -> ArrowResult
    collapse: dict = field(default_factory=dict)  # prop -> ArrowResult

    @property
    def ok(self) -> bool:
        return (
            all(a.ok for a in self.arrows.values())
            and all(a.ok for a in self.subset_cells.values())
            and all(a.ok for a in self.collapse.values())
        )

    def to_dict(self):
        return {
            "max_n": self.max_n,
            "lp_max_n": self.lp_max_n,
            "counts": self.counts,
            "ok": self.ok,
            "arrows": _results_dict(self.arrows),
            "subset_cells": _results_dict(self.subset_cells),
            "collapse": _results_dict(self.collapse),
        }


def _results_dict(results: dict):
    return {
        a.name: {"checked": a.checked, "failures": a.failures}
        for a in results.values()
    }


def _new_report(max_n: int, include_lp: bool) -> ScanReport:
    """An empty report, one result per arrow, subset cell and property."""
    if not 1 <= max_n <= MAX_SCAN_N:
        raise ValueError(
            f"exhaustive scan supported for 1 <= max_n <= {MAX_SCAN_N}"
        )
    report = ScanReport(max_n=max_n,
                        lp_max_n=max_n if include_lp else min(max_n, 6))
    names = [f"{a}->{b}" for a, b in SCAN_ARROWS]
    names += ["equistable->no-bad-p4", "split<->aCIS-or-cap-es"]
    report.arrows = {name: ArrowResult(name) for name in names}
    for row in PROPERTY_ORDER:
        for col, cell in zip(PROPERTY_ORDER, TABLE[row]):
            if cell == "subset":
                report.subset_cells[(row, col)] = ArrowResult(f"{row}->{col}")
    report.collapse = {p: ArrowResult(p) for p in PROPERTY_ORDER}
    return report


def scan(max_n: int = 6, include_lp: bool = False) -> ScanReport:
    """Evaluate all classes on every graph up to max_n (up to isomorphism)
    and assert every inclusion arrow and every "subset" table cell.

    The complement of a class is a class, so the scan walks complement
    pairs: class i's representative g, its complement co, a copy of the
    class j that the canonical form of co names, and one
    ``MembershipCache`` serve class i's checks on (g, co) and, if j != i,
    class j's checks on (co, g).  Each base thus runs once per class, and
    the collapse check compares two classes' verdicts.  Each pair gets a
    fresh graph and cache, so no fact outlives it.  A failure is named by
    the graph6 of its class representative, listed in class order.

    LP-backed classes (equistable, strongly equistable) are always run
    for n <= 6; ``include_lp`` extends them to larger n.
    """
    report = _new_report(max_n, include_lp)
    arrows, collapse = report.arrows, report.collapse
    reps = nonisomorphic_graphs(max_n)
    for n in range(1, max_n + 1):
        classes = reps[n]
        report.counts[n] = len(classes)
        with_lp = n <= report.lp_max_n
        implications = [
            (a, b, arrows[f"{a}->{b}"]) for a, b in SCAN_ARROWS
            if with_lp or not (_lp_backed(a) or _lp_backed(b))
        ]
        props = [p for p in PROPERTY_ORDER if with_lp or not _lp_backed(p)]
        cells = [(row, col, res)
                 for (row, col), res in report.subset_cells.items()
                 if row in props and col in props]
        checked = [res for _, _, res in implications + cells]
        checked += [collapse[p] for p in props]
        checked.append(arrows["split<->aCIS-or-cap-es"])
        if with_lp:
            checked.append(arrows["equistable->no-bad-p4"])

        def failures(cache, g, co):
            """The results that g's class fails; co is g's complement."""
            out = [res for a, b, res in implications
                   if cache.holds(a, g) and not cache.holds(b, g)]
            if with_lp and cache.base("equistable", g) and has_bad_p4(g):
                out.append(arrows["equistable->no-bad-p4"])
            rhs = cache.base("almost_cis", g) or cache.holds("cap-es", g)
            if cache.base("split", g) != rhs:
                out.append(arrows["split<->aCIS-or-cap-es"])
            vec = {p: cache.holds(p, g) for p in props}
            out += [collapse[p] for p in props if vec[p] != cache.holds(p, co)]
            out += [res for row, col, res in cells if vec[row] and not vec[col]]
            return tuple(out)

        index = _LEVELS[n].index
        failed = [None] * len(classes)
        for i, rep in enumerate(classes):
            if failed[i] is not None:
                continue
            g = Graph.from_adj(rep.adj)
            co = complement(g)
            cache = MembershipCache()
            failed[i] = failures(cache, g, co)
            j = index[canonical_form(co)]
            if j != i:
                failed[j] = failures(cache, co, g)
        for res in checked:
            res.checked += len(classes)
        for rep, results in zip(classes, failed):
            if results:
                g6 = encode_graph6(rep)
                for res in results:
                    res.failures.append(g6)
    return report
