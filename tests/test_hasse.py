import hashlib
from collections import Counter

import pytest

from cisgraphs import cliques, hasse, recognizers
from cisgraphs.gallery import cycle, gallery, path
from cisgraphs.graphs import (
    Graph,
    canonical_form,
    canonical_search,
    complement,
    encode_graph6,
    is_isomorphic,
)
from cisgraphs.hasse import (
    ERRATA,
    EXPECTED_GRAPH_COUNTS,
    PROPERTY_DEFS,
    PROPERTY_ORDER,
    SKIPPED_WITNESSES,
    TABLE,
    MembershipCache,
    nonisomorphic_graphs,
    scan,
    verify_table,
)
from oracles import (
    all_extensions_graphs,
    complement_rows,
    connected_graphs,
    find_separators,
    scan_per_graph,
)


def test_table_shape():
    assert len(PROPERTY_ORDER) == 17
    assert set(TABLE) == set(PROPERTY_ORDER)
    for row, cells in TABLE.items():
        assert len(cells) == 17
        # diagonal is "="
        assert cells[PROPERTY_ORDER.index(row)] == "="
    assert set(PROPERTY_DEFS) == set(PROPERTY_ORDER)


def test_property_holds_examples():
    cache = MembershipCache()
    p4 = path(4)
    assert cache.holds("aCIS", p4)
    assert cache.holds("split", p4)
    assert not cache.holds("CIS", p4)
    assert not cache.holds("cup-wtri", p4)
    c4 = cycle(4)
    assert cache.holds("CIS", c4)
    # C4 is not edge simplicial, its complement 2K2 is
    assert cache.holds("cap-es", c4) is False
    assert cache.holds("cup-es", c4) is True
    # plain base predicate names pass through
    assert cache.holds("split", p4) is cache.base("split", p4) is True
    # self-complementarity by construction
    for prop in ("cap-es", "cup-tri"):
        assert cache.holds(prop, p4) == cache.holds(prop, complement(p4))
    # size-capped predicates read "unsupported", on both sides alike
    big = Graph(17)
    for prop in ("perfect", "equistable", "cap-eq", "cup-seq"):
        assert cache.holds(prop, big) == "unsupported"


# The proven arrows that the scan checks in lifted form, each with the
# scan result that checks it: a subset cell (row, col), or an arrow name.
# semi-weakly CIS on g gives cup-swCIS, and cup-swCIS <= wCIS; cap-wtri
# on g holds weakly triangle on g.
LIFTED_ARROW_CHECKS = {
    ("semi_weakly_cis", "weakly_cis"): ("cup-swCIS", "wCIS"),
    ("weakly_cis", "weakly_triangle"): "weakly_cis->cap-wtri",
}


def unchecked_arrows(arrows):
    """The arrows among ``arrows`` that the scan does not check: neither a
    base-to-base arrow of SCAN_ARROWS nor checked in lifted form by a
    result that the scan to n = 8 reports."""
    bases = set(recognizers.BASE_NAMES)
    direct = {(a, b) for a, b in hasse.SCAN_ARROWS
              if a in bases and b in bases}
    report = hasse._new_report(8, True)
    results = {**report.arrows, **report.subset_cells}
    return [arrow for arrow in arrows if arrow not in direct
            and LIFTED_ARROW_CHECKS.get(arrow) not in results]


def test_lp_arrows_are_base_arrows():
    # the rule classify settles its costly bases by reads only arrows
    # that the scan checks: every base-to-base arrow of SCAN_ARROWS, and
    # the arrows it checks in lifted form, read transitively
    bases = set(recognizers.BASE_NAMES)
    assert {(a, b) for a, b in hasse.SCAN_ARROWS
            if a in bases and b in bases} <= set(hasse.PROVEN_ARROWS)
    assert unchecked_arrows(hasse.PROVEN_ARROWS) == []
    assert set(LIFTED_ARROW_CHECKS) <= set(hasse.PROVEN_ARROWS)
    # a true arrow that the scan does not check is refused
    assert unchecked_arrows(
        hasse.PROVEN_ARROWS + (("split", "perfect"),)) == [
        ("split", "perfect")]
    assert hasse.COSTLY_BASES <= bases
    rule = hasse.settled_by_arrows
    # the LP bases: semi-weakly CIS gives both, not triangle denies both
    for lp in hasse.LP_BASES:
        assert rule({"semi_weakly_cis": True, "triangle": True}, lp) is True
        assert rule({"semi_weakly_cis": False, "triangle": False},
                    lp) is False
        assert rule({"semi_weakly_cis": False, "triangle": True},
                    lp) is None
    # transitively, and never against an arrow
    assert rule({"threshold": True}, "weakly_triangle") is True
    assert rule({"weakly_triangle": False}, "semi_weakly_cis") is False
    assert rule({"weakly_triangle": True}, "triangle") is None
    assert rule({"weakly_cis": True}, "normal") is True
    assert rule({"normal": False}, "weakly_cis") is False
    assert rule({"normal": False}, "perfect") is False
    assert rule({"normal": True}, "weakly_cis") is None
    assert rule({"normal": True}, "perfect") is None
    # semi-weakly CIS => weakly CIS => weakly triangle
    assert rule({"semi_weakly_cis": True}, "weakly_triangle") is True
    assert rule({"semi_weakly_cis": True}, "weakly_cis") is True
    assert rule({"semi_weakly_cis": True}, "normal") is True
    assert rule({"weakly_cis": True}, "weakly_triangle") is True
    assert rule({"weakly_cis": True}, "triangle") is None
    assert rule({"weakly_triangle": False}, "weakly_cis") is False
    assert rule({"normal": False}, "semi_weakly_cis") is False
    assert rule({"weakly_cis": False}, "semi_weakly_cis") is False
    assert rule({"weakly_cis": False}, "triangle") is None
    assert rule({"semi_weakly_cis": False}, "weakly_cis") is None
    # an unsupported verdict settles nothing
    assert rule({"equistable": "unsupported"}, "triangle") is None
    assert rule({"perfect": "unsupported"}, "normal") is None
    assert rule({}, "weakly_cis") is None


def test_verify_table_cells():
    cells = verify_table()
    assert len(cells) == 17 * 17
    kinds = {c.kind for c in cells}
    assert kinds <= {"equal", "subset", "unknown", "skipped", "witness",
                     "erratum"}
    for c in cells:
        if c.kind == "witness":
            assert c.passed is not None
        if c.kind == "skipped":
            assert c.witness in SKIPPED_WITNESSES
        if c.kind == "erratum":
            assert (c.row, c.col) in ERRATA
    # every witness cell verifies, the LP-backed ones too
    witness = [c for c in cells if c.kind == "witness"]
    assert len(witness) == 163
    assert all(c.passed for c in witness)
    d = cells[1].to_dict()
    assert d["row"] == "aCIS" and d["witness"] == "P4"


def test_generation_counts():
    reps = nonisomorphic_graphs(7)
    for n, graphs in reps.items():
        assert len(graphs) == EXPECTED_GRAPH_COUNTS[n]
        # pairwise non-isomorphic within each order
        assert len({canonical_form(g) for g in graphs}) == len(graphs)
        keys = [(g.edge_count(), g.adj) for g in graphs]
        assert keys == sorted(keys)


def test_generation_matches_all_extensions():
    # the degree rule and the edge bounds skip only extensions whose class
    # an earlier one has, so each class with at most half of the edges
    # keeps its representative, at its index; each denser one is the
    # complement of the representative of a class with fewer than half
    oracle = all_extensions_graphs(7)
    for n, graphs in nonisomorphic_graphs(7).items():
        sparse = [g.adj for g in oracle[n]
                  if 4 * g.edge_count() <= n * (n - 1)]
        assert [g.adj for g in graphs[:len(sparse)]] == sparse
        dense = [complement_rows(adj) for adj in sparse
                 if 2 * sum(map(int.bit_count, adj)) < n * (n - 1)]
        dense.sort(key=lambda adj: (sum(map(int.bit_count, adj)), adj))
        assert [g.adj for g in graphs[len(sparse):]] == dense


def test_representatives_pinned():
    # every representative through n = 8, in order: one graph6 line each
    reps = nonisomorphic_graphs(8)
    text = "".join(encode_graph6(g) + "\n"
                   for n in range(1, 9) for g in reps[n])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1cc04ee3726a6efd9949b6400bc095364fc2d820299ab2675da483f4897971fa")


def count_searches(monkeypatch):
    """Fresh generation caches, and the graphs that generation forms
    (candidates) and searches for generators (parents), as lists."""
    forms, searches = [], []

    def counted_form(g):
        forms.append(g)
        return canonical_form(g)

    def counted_search(g):
        searches.append(g)
        return canonical_search(g)

    monkeypatch.setattr(hasse, "_LEVELS", {1: hasse._LEVELS[1]})
    monkeypatch.setattr(hasse, "canonical_form", counted_form)
    monkeypatch.setattr(hasse, "canonical_search", counted_search)
    return forms, searches


def test_generation_form_count_pinned(monkeypatch):
    # 2,418 forms without the degree rule and 1,874 without the orbit
    # rule; a rise means one of them regressed, or the search found only
    # part of some automorphism group, or an edge bound let denser graphs
    # through.  Each of the 109 classes with n <= 6 and at most half of
    # the edges is searched once, as the parent of its extensions
    forms, searches = count_searches(monkeypatch)
    reps = hasse.nonisomorphic_graphs(7)
    assert len(forms) == 809
    assert searches == [g for n in range(1, 7) for g in reps[n]
                        if 4 * g.edge_count() <= n * (n - 1)]
    assert len(searches) == 109
    assert [len(reps[n]) for n in range(1, 8)] == [
        EXPECTED_GRAPH_COUNTS[n] for n in range(1, 8)]


def test_generation_count_check_not_cached(monkeypatch):
    monkeypatch.setattr(hasse, "_LEVELS", {1: hasse._LEVELS[1]})
    monkeypatch.setitem(hasse.EXPECTED_GRAPH_COUNTS, 4, 12)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="11 classes at n=4"):
            hasse.nonisomorphic_graphs(5)
    assert 4 not in hasse._LEVELS


def test_generation_wrong_count_caches_no_form_index(monkeypatch):
    monkeypatch.setattr(hasse, "_LEVELS", {1: hasse._LEVELS[1]})
    monkeypatch.setitem(hasse.EXPECTED_GRAPH_COUNTS, 4, 12)
    with pytest.raises(RuntimeError, match="11 classes at n=4"):
        hasse.nonisomorphic_graphs(4)
    assert sorted(hasse._LEVELS) == [1, 2, 3]


def test_generation_counts_n8(monkeypatch):
    # on fresh caches, so that the 12,346 classes are dropped after
    forms, searches = count_searches(monkeypatch)
    reps = nonisomorphic_graphs(8)
    assert len(reps[8]) == EXPECTED_GRAPH_COUNTS[8] == 12346
    assert len(forms) == 11105  # 20,626 without the orbit rule
    # one per class with n <= 7 and at most half of the edges
    assert len(searches) == 631
    # the classes generated before the orbit rule, at the same places
    assert [encode_graph6(reps[8][i]) for i in (0, 6000, 12345)] == [
        "G?????", "GQovFo", "G~~~~{"]
    assert hasse._LEVELS[8]._fields == ("reps", "index")
    index = hasse._LEVELS[8].index
    assert len(index) == 12346
    assert sorted(index.values()) == list(range(12346))
    for i in (0, 6000, 12345):
        assert index[canonical_form(reps[8][i])] == i


def test_connected_counts():
    # connected graph counts: 1, 1, 2, 6, 21, 112
    reps = connected_graphs(6)
    assert [len(reps[n]) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]


def test_scan_small():
    report = scan(max_n=5, include_lp=True)
    assert report.ok
    assert report.counts == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    assert all(a.checked for a in report.arrows.values())
    d = report.to_dict()
    assert d["ok"] is True
    assert "split<->aCIS-or-cap-es" in d["arrows"]


def test_scan_keeps_no_fact_on_the_representatives(monkeypatch):
    # each class is evaluated on a fresh copy of its representative, so
    # the cached representatives gain no fact from a scan
    monkeypatch.setattr(hasse, "_LEVELS", {1: hasse._LEVELS[1]})
    reps = [g for graphs in nonisomorphic_graphs(5).values() for g in graphs]
    before = [dict(g._facts or {}) for g in reps]
    assert scan(5).ok
    assert [dict(g._facts or {}) for g in reps] == before


def test_scan_matches_per_graph_oracle():
    for n in range(1, 7):
        assert scan(n, True).to_dict() == scan_per_graph(n, True).to_dict()
    assert scan(7).to_dict() == scan_per_graph(7).to_dict()


def test_scan_reports_a_fault_like_the_oracle(monkeypatch):
    # a fault that ignores vertex labels: CIS flips on graphs with five
    # edges; a pair evaluation must name the same classes in the same order
    original = hasse.base_predicate

    def faulty(name):
        pred = original(name)
        if name != "cis":
            return pred
        return lambda g: pred(g) != (g.edge_count() == 5)

    monkeypatch.setattr(hasse, "base_predicate", faulty)
    report = scan(6).to_dict()
    assert not report["ok"]
    assert report["collapse"]["CIS"]["failures"]
    assert report == scan_per_graph(6).to_dict()


def test_scan_evaluates_each_class_once(monkeypatch):
    # 1,252 classes, 4 of them self-complementary: 628 pairs and one
    # clique enumeration per graph of a pair.  A canonical form is
    # searched only where the form's complement does not name the pair:
    # for K1, and for one class of each pair with exactly half of the
    # edges (2 pairs at n = 4, 4 at n = 5)
    monkeypatch.setattr(hasse, "_LEVELS", {1: hasse._LEVELS[1]})
    nonisomorphic_graphs(7)
    calls = {"_bron_kerbosch": 0, "canonical_form": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(g):
            calls[name] += 1
            return original(g)

        monkeypatch.setattr(module, name, wrapper)

    counting(cliques, "_bron_kerbosch")
    counting(hasse, "canonical_form")
    assert scan(7).ok
    assert calls == {"_bron_kerbosch": 1256, "canonical_form": 7}


def test_scan_reads_each_verdict_once_per_graph(monkeypatch):
    # in scan(7) each base predicate runs at most once per graph of a
    # complement pair, and perfect's odd-hole scan once per graph: 1,256
    # scans, where testing both graphs on every call of perfect made 2,358
    monkeypatch.setattr(hasse, "_LEVELS", {1: hasse._LEVELS[1]})
    nonisomorphic_graphs(7)
    runs, scans = [], []  # the graphs are kept, so no id is reused
    original = hasse.base_predicate

    def counted(name):
        pred = original(name)

        def wrapper(g):
            runs.append((name, g))
            return pred(g)

        return wrapper

    def counted_scan(g, scan=recognizers._has_odd_hole):
        scans.append(g)
        return scan(g)

    monkeypatch.setattr(hasse, "base_predicate", counted)
    monkeypatch.setattr(recognizers, "_has_odd_hole", counted_scan)
    assert scan(7).ok
    per_graph = Counter((name, id(g)) for name, g in runs)
    assert max(per_graph.values()) == 1
    assert len({id(g) for g in scans}) == len(scans) == 1256


def test_scan_rejects_large():
    for max_n in (9, 0, -1):
        with pytest.raises(ValueError):
            scan(max_n=max_n)


def test_find_separators():
    seps = find_separators("split", "CIS", 4)
    assert any(is_isomorphic(g, path(4)) for g in seps)
    seps = find_separators("CIS", "split", 4)
    assert any(is_isomorphic(g, cycle(4)) for g in seps)
    assert find_separators("threshold", "cis", 6) == []
    # table property ids also work
    seps = find_separators("aCIS", "cup-wtri", 4)
    assert any(is_isomorphic(g, path(4)) for g in seps)
