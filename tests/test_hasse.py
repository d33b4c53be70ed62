import pytest

from cisgraphs import cliques, hasse
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


def test_verify_table_cells():
    cells = verify_table(include_lp=False)
    assert len(cells) == 17 * 17
    kinds = {c.kind for c in cells}
    assert kinds <= {"equal", "subset", "unknown", "skipped", "witness",
                     "erratum"}
    for c in cells:
        if c.kind == "witness":
            assert c.passed is not None
        if c.kind == "skipped":
            assert c.witness in SKIPPED_WITNESSES or "lp" in c.detail
        if c.kind == "erratum":
            assert (c.row, c.col) in ERRATA
    # the non-LP witness cells all verify
    assert all(c.passed for c in cells if c.kind == "witness")
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
    # the degree rule skips only extensions whose class an earlier one has
    oracle = all_extensions_graphs(7)
    for n, graphs in nonisomorphic_graphs(7).items():
        assert [g.adj for g in graphs] == [g.adj for g in oracle[n]]


def test_generation_form_count_pinned(monkeypatch):
    # 11,290 forms without the degree rule and 3,131 without the orbit
    # rule; a rise means one of them regressed, or the search found only
    # part of some automorphism group
    calls = []

    def counted(g):
        calls.append(g.n)
        return canonical_search(g)

    monkeypatch.setattr(hasse, "_LEVELS", {1: hasse._LEVELS[1]})
    monkeypatch.setattr(hasse, "canonical_search", counted)
    reps = hasse.nonisomorphic_graphs(7)
    assert len(calls) == 1639
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
    calls = []

    def counted(g):
        calls.append(g.n)
        return canonical_search(g)

    monkeypatch.setattr(hasse, "_LEVELS", {1: hasse._LEVELS[1]})
    monkeypatch.setattr(hasse, "canonical_search", counted)
    reps = nonisomorphic_graphs(8)
    assert len(reps[8]) == EXPECTED_GRAPH_COUNTS[8] == 12346
    assert len(calls) == 19911  # 32,886 without the orbit rule
    # the classes generated before the orbit rule, at the same places
    assert [encode_graph6(reps[8][i]) for i in (0, 6000, 12345)] == [
        "G?????", "GQovFo", "G~~~~{"]
    index = hasse._LEVELS[8].index
    assert len(index) == 12346
    groups = hasse._LEVELS[8].groups
    assert len(groups) == 12346
    for i in (0, 6000, 12345):
        g = reps[8][i]
        assert index[canonical_form(g)] == i
        assert groups[i] == canonical_search(g)[2]


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
    # 1,252 classes, 4 of them self-complementary: 628 pairs, one clique
    # enumeration per graph of a pair and one canonical form per pair
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
    assert calls == {"_bron_kerbosch": 1256, "canonical_form": 628}


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
