"""The 17x17 inclusion/separation table between the self-complementary
graph properties, its re-verification, and exhaustive small-graph scans
of the inclusion arrows.

Cell values: "=" on the diagonal, "subset" for a proven inclusion, "?"
for an open inclusion question, a gallery id for a separating witness,
or a skip id for witnesses that are out of desk scale (FL, G14, G22,
LLbar).
"""

from __future__ import annotations

from typing import NamedTuple

from . import gallery as gal
from .graphs import (
    Graph,
    _complement_rows,
    canonical_form,
    canonical_search,
    complement,
    encode_graph6,
    mask_of,
    orbit,
)
from .recognizers import (
    BASE_NAMES,
    UnsupportedSize,
    base_predicate,
    has_bad_p4,
)

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


def lift(source, prop: str, g: Graph):
    """A table property id (cap = on g and its complement, cup = on
    either), or a plain base predicate name, from ``source.base(name,
    h)``: a base's verdict on h, which is g or ``complement(g)``.  The
    complement is read only when g's own verdict does not settle the
    property.  ``MembershipCache.holds`` is this rule with the cache as
    its source."""
    name, modifier = PROPERTY_DEFS.get(prop, (prop, "plain"))
    on_g = source.base(name, g)
    if modifier == "plain" or on_g == "unsupported":
        return on_g
    if on_g == (modifier == "cup"):  # cap of False, cup of True
        return on_g
    return source.base(name, complement(g))


class MembershipCache:
    """The package's evaluator: memoized base predicates, and their lifts
    to the table properties.  A verdict is True, False, or "unsupported"
    when the graph is too large for an exact predicate; that depends only
    on n, so a graph and its complement always agree on it.

    Verdicts are kept as one dict per graph, {graph: {base name:
    verdict}}, each filled on the base's first read.  ``holds`` lifts
    them lazily: a cap or cup property reads the complement's base only
    when the graph's own verdict does not settle it."""

    def __init__(self):
        self._verdicts = {}

    def base(self, name: str, g: Graph):
        verdicts = self._verdicts.get(g)
        if verdicts is None:
            verdicts = self._verdicts[g] = {}
        if name not in verdicts:
            try:
                verdicts[name] = base_predicate(name)(g)
            except UnsupportedSize:
                verdicts[name] = "unsupported"
        return verdicts[name]

    # holds(prop, g): the table property prop on g, by lift
    holds = lift


# ---------------------------------------------------------------------------
# table verification


class CellResult(NamedTuple):
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


def verify_table():
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
                         8: 12346, 9: 274668}  # OEIS A000088
# the arrow scan stops at 8 although the count at 9 is checked: order 9
# alone takes 14-17 s and 200 MB peak RSS to generate on a 2-core
# host, and with the LP properties the scan would run about 550,000
# exact LP analyses
MAX_SCAN_N = 8


class _Level(NamedTuple):
    """The classes of one order, kept from generation: their
    representatives and {canonical form: index of its class}."""

    reps: list
    index: dict


_LEVELS = {1: _Level([Graph(1)], {(0,): 0})}


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
    keep degrees.  The generators of g's group come from one canonical
    search of g, just before its extensions, so no generators are kept
    between orders.

    Only the sparser half of each order is built this way.  With E(n) =
    n(n - 1)/2, only representatives with at most E(n - 1)/2 edges are
    extended, and only extensions with at most E(n)/2 edges are formed.
    The bound on the parents loses no class with m <= E(n)/2 edges: an
    extension the degree rule keeps has its new vertex at the largest
    degree D, so its parent has m - D edges.  If D >= (n - 1)/2, then
    m - D <= E(n)/2 - (n - 1)/2 = E(n - 1)/2.  Otherwise every degree is
    below (n - 1)/2, so m <= nD/2 and m - D <= (n - 2)D/2 < E(n - 1)/2.
    Such a class thus keeps the first extension it had without the
    bounds, since the classes of each order are sorted by edge count
    first.  The denser half is the complements of the classes with
    fewer than E(n)/2 edges: each is represented by the complement of its
    partner's representative, under the complemented form, which is its
    canonical form (see ``graphs.canonical_search``).  The class counts
    are checked against ``EXPECTED_GRAPH_COUNTS``, which covers the
    pairing as well.  Returns {n: list of Graph}, each list sorted by
    (edge count, adjacency rows).
    """
    levels = _LEVELS
    for n in range(2, max_n + 1):
        if n in levels:
            continue
        top = n * (n - 1) // 4  # the most edges an extension may have
        classes = {}  # canonical form -> its first extension
        for g in levels[n - 1].reps:
            m = g.edge_count()
            if 4 * m > (n - 1) * (n - 2):
                break  # sorted by edge count: the rest are denser too
            group = canonical_search(g)[2]
            # at_least[d]: the old vertices of degree at least d.  With
            # k = |mask|, an old vertex ends above w's degree k when its
            # degree exceeds k, or equals k and w joins it.
            at_least = [mask_of(v for v in range(n - 1) if g.degree(v) >= d)
                        for d in range(n + 1)]
            met = set()  # masks met in the orbit of an earlier one
            for mask in range(1 << (n - 1)):
                k = mask.bit_count()
                if (m + k > top or at_least[k + 1] or mask & at_least[k]
                        or mask in met):
                    continue
                met.update(orbit(mask, group))
                adj = [row | ((mask >> v & 1) << (n - 1))
                       for v, row in enumerate(g.adj)]
                adj.append(mask)
                cand = Graph.from_adj(adj)
                classes.setdefault(canonical_form(cand), cand)
        for form, rep in list(classes.items()):
            if 4 * rep.edge_count() < n * (n - 1):
                classes[_complement_rows(form)] = Graph.from_adj(
                    _complement_rows(rep.adj))
        expect = EXPECTED_GRAPH_COUNTS.get(n)
        if expect is not None and len(classes) != expect:
            raise RuntimeError(
                f"graph generation produced {len(classes)} classes at n={n}, "
                f"expected {expect}"
            )
        forms = sorted(classes, key=lambda form: (
            classes[form].edge_count(), classes[form].adj))
        reps = [classes[form] for form in forms]
        for i, form in enumerate(forms):
            classes[form] = i  # the dict becomes the form index
        levels[n] = _Level(reps, classes)
    return {n: levels[n].reps for n in range(1, max_n + 1)}


def _complement_classes(n: int) -> list:
    """The class of each class's complement, by index, over the classes
    with n vertices (generated already).  The form of the complement of
    a class is the complement of its form unless the class has exactly
    half of the possible edges, so only such a class searches its
    complement, and only if the class it pairs with is not known yet."""
    reps, index = _LEVELS[n]
    forms = [None] * len(reps)
    for form, i in index.items():
        forms[i] = form
    partner = [None] * len(reps)
    for i, form in enumerate(forms):
        if partner[i] is None:
            co = _complement_rows(form)
            if 4 * reps[i].edge_count() == n * (n - 1):
                co = canonical_form(Graph.from_adj(co))
            partner[i] = index[co]
            partner[index[co]] = i
    return partner


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

# The arrows that classify reads: the base-to-base arrows of SCAN_ARROWS,
# and two that the scan checks in lifted form, by the subset cell
# (cup-swCIS, wCIS) and the arrow weakly_cis->cap-wtri.
PROVEN_ARROWS = BASE_ARROWS + (
    ("weakly_cis", "normal"), ("semi_weakly_cis", "weakly_cis"),
    ("weakly_cis", "weakly_triangle"),
)

# The bases that classify may settle by the arrows instead of computing
# them; the cheaper bases before them in BASE_NAMES are always computed.
COSTLY_BASES = frozenset({
    "weakly_cis", "triangle", "weakly_triangle", "normal", "perfect",
    "equistable", "strongly_equistable",
})


def _reached(arrows, name: str) -> set:
    """The bases that ``name`` reaches by one or more of ``arrows``, an
    acyclic list of (a, b) read a => b."""
    out = set()
    for a, b in arrows:
        if a == name:
            out |= {b} | _reached(arrows, b)
    return out


# per base, the bases that reach it and the bases it reaches
_ABOVE = {name: tuple(_reached([(b, a) for a, b in PROVEN_ARROWS], name))
          for name in BASE_NAMES}
_BELOW = {name: tuple(_reached(PROVEN_ARROWS, name)) for name in BASE_NAMES}


def settled_by_arrows(verdicts: dict, name: str):
    """The verdict on the base ``name`` that ``PROVEN_ARROWS`` give from
    the verdicts already known (a dict over base names), read
    transitively: True when a base that is True reaches ``name``, False
    when ``name`` reaches a base that is False, and None otherwise (an
    "unsupported" verdict is neither, so it settles nothing).

    Each arrow is a theorem, and the scan checks each on every graph up
    to 8 vertices, as it stands or lifted to the table properties:

    - threshold => cograph: threshold graphs have no induced P4
      (Chvátal and Hammer 1977).
    - cograph => CIS: P4-free graphs are CIS (Gurvich).
    - CIS => semi-weakly CIS: in a CIS graph every maximal clique is
      strong, and the maximal cliques cover the edges.
    - edge simplicial => semi-weakly CIS: the closed neighbourhood N[w]
      of a simplicial vertex w is a strong clique, since a stable set
      missing N[w] extends by w.
    - semi-weakly CIS => strongly equistable => equistable => triangle:
      semi-weakly CIS graphs are the general partition graphs (McAvaney,
      Robertson and DeTemple 1993), and the chain is the one the source
      paper (arXiv 1505.05683) draws from the literature; strongly
      equistable graphs (Mahadev, Peled and Sun 1994) are equistable.
    - triangle => weakly triangle: every non-edge lies in a maximal
      stable set, and in a triangle graph all of them are admissible.
    - perfect => normal: perfect graphs are normal (Körner 1973).
    - weakly CIS => normal: the clique family of a weakly-CIS pair
      covers every vertex with an edge, and the stable-set family every
      vertex with a non-edge.  An isolated vertex v is in every maximal
      stable set, so the maximal clique {v} can join the clique family;
      a universal vertex u is in every maximal clique, so the maximal
      stable set {u} can join the stable-set family.  With n >= 2 no
      vertex is both, so the families stay cross-intersecting and now
      cover every vertex; K1 is normal.
    - semi-weakly CIS => weakly CIS: each strong clique meets every
      maximal stable set, so the strong cliques and all the maximal
      stable sets are cross-intersecting; the strong cliques cover the
      edges by definition, and the maximal stable sets cover the
      non-edges.
    - weakly CIS => weakly triangle: take a set S of the stable-set
      family of a weakly-CIS pair, and an edge uv outside S.  A clique of
      the family holds uv and meets S in a vertex w, a common neighbour
      of u and v.  So every set of the family has the triangle property,
      and the family covers the non-edges.
    """
    # no verdict is a 1 or 0 that ``in`` would take for True or False
    if True in map(verdicts.get, _ABOVE[name]):
        return True
    if False in map(verdicts.get, _BELOW[name]):
        return False
    return None


class ArrowResult:
    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failures = []  # graph6 strings

    @property
    def ok(self) -> bool:
        return not self.failures


class ScanReport:
    def __init__(self, max_n: int, lp_max_n: int):
        self.max_n = max_n
        self.lp_max_n = lp_max_n
        self.counts = {}
        self.arrows = {}
        self.subset_cells = {}  # (row, col) -> ArrowResult
        self.collapse = {}  # prop -> ArrowResult

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
    """Evaluate all classes on every graph up to max_n (up to isomorphism),
    check every inclusion arrow and every "subset" table cell, and record
    each class that fails one.

    The complement of a class is a class, so the scan walks complement
    pairs: class i's representative g, its complement co, and one
    ``MembershipCache`` serve class i's checks on (g, co) and, if the
    class j of co is not i, class j's checks on (co, g).  The pairing
    comes from ``_complement_classes``, which reads j off the complement
    of class i's form, so only a class with exactly half of the possible
    edges searches its complement.  Each base and each table property in
    play is read from the cache once per graph of a pair, into one dict
    per graph that every check of both classes reads; so each base runs
    once per class, and the collapse check compares two classes'
    verdicts.  Each pair gets a fresh graph and cache, so no fact
    outlives it.  A failure is named by the graph6 of its class
    representative, listed in class order.

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
        # every base and property a check below reads, in a fixed order
        keys = dict.fromkeys([*props, "almost_cis", *(
            x for a, b, _ in implications for x in (a, b))])

        def failures(v, v_co, g):
            """The results that g's class fails, read from its verdicts v
            and those of its complement, v_co."""
            out = [res for a, b, res in implications if v[a] and not v[b]]
            if with_lp and v["equistable"] and has_bad_p4(g):
                out.append(arrows["equistable->no-bad-p4"])
            if v["split"] != (v["almost_cis"] or v["cap-es"]):
                out.append(arrows["split<->aCIS-or-cap-es"])
            out += [collapse[p] for p in props if v[p] != v_co[p]]
            out += [res for row, col, res in cells if v[row] and not v[col]]
            return tuple(out)

        partner = _complement_classes(n)
        failed = [None] * len(classes)
        for i, rep in enumerate(classes):
            if failed[i] is not None:
                continue
            g = Graph.from_adj(rep.adj)
            co = complement(g)
            cache = MembershipCache()
            v_g = {x: cache.holds(x, g) for x in keys}
            v_co = {x: cache.holds(x, co) for x in keys}
            failed[i] = failures(v_g, v_co, g)
            j = partner[i]
            if j != i:
                failed[j] = failures(v_co, v_g, co)
        for res in checked:
            res.checked += len(classes)
        for rep, results in zip(classes, failed):
            if results:
                g6 = encode_graph6(rep)
                for res in results:
                    res.failures.append(g6)
    return report
