import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from cisgraphs import (
    cli, cliques, equistable, hasse, linegraph, recognizers, search,
)
from cisgraphs import gallery as gallery_module
from cisgraphs.cli import main
from cisgraphs.cliques import maximal_stable_sets
from cisgraphs.gallery import complete_bipartite, cycle, gallery
from cisgraphs.graphs import (
    Graph,
    complement,
    encode_graph6,
    parse_graph6,
    random_graph,
)
from cisgraphs.hasse import MembershipCache
from cisgraphs.linegraph import line_graph
from cisgraphs.recognizers import BASE_NAMES


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "-i", "gallery:P4")
    assert code == 0
    assert "split" in out and "aCIS" in out


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, "classify", "-i", "gallery:P4", "--format",
                       "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["base"]["split"] is True
    assert data["base"]["almost_cis"] is True
    assert data["base"]["cis"] is False
    assert data["base"]["weakly_triangle"] is False
    assert data["properties"]["aCIS"] is True
    assert "disjoint_pair" in data["certificates"]


def test_classify_cir9(capsys):
    code, out, _ = run(capsys, "classify", "-i", "gallery:Cir9", "--format",
                       "json")
    data = json.loads(out)
    assert data["base"]["triangle"] is True
    assert data["base"]["equistable"] is False
    assert data["complement_base"]["weakly_triangle"] is False


def test_classify_computes_each_fact_once(capsys, monkeypatch):
    # one clique enumeration, one disjointness relation and one triangle
    # walk per graph object (G12 and its complement), however many
    # predicates read them; two holder builds and two coverage-clause
    # builds in all, both on G12, as the second relation is the first with
    # its families and clause lists swapped; one disjoint-pair walk, on G12
    # only, as the CIS family is complement-invariant.  Neither G12 nor its
    # complement is triangle, so the arrows deny both LP bases and no
    # polytope analysis runs
    calls = {}
    graphs = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(g, *args):
            key = (name, id(g))
            calls[key] = calls.get(key, 0) + 1
            graphs[key] = g
            return original(g, *args)

        monkeypatch.setattr(module, name, wrapper)

    counting(cliques, "_bron_kerbosch")
    counting(equistable, "_analysis")
    counting(recognizers, "_first_disjoint_pairs")
    counting(recognizers, "_triangle_walk")
    counting(search, "_disjointness")
    counting(search, "_holders")  # keyed by the family, not the graph
    counting(search, "_coverage_clauses")
    counting(equistable, "_find_weighting")  # classify prints no weights
    code, _, _ = run(capsys, "classify", "-i", "gallery:G12")
    assert code == 0
    assert sorted(name for name, _ in calls) == [
        "_bron_kerbosch", "_bron_kerbosch",
        "_coverage_clauses",
        "_disjointness", "_disjointness",
        "_first_disjoint_pairs",
        "_holders", "_holders",
        "_triangle_walk", "_triangle_walk"]
    assert {name: k for (name, _), k in calls.items() if k != 1} == {
        "_coverage_clauses": 2}
    g12 = gallery("G12")
    assert [g for (name, _), g in graphs.items()
            if name == "_coverage_clauses"] == [g12]
    assert [g for (name, _), g in graphs.items()
            if name == "_first_disjoint_pairs"] == [g12]
    assert [g for (name, _), g in graphs.items()
            if name == "_disjointness"] == [g12, complement(g12)]
    # Cir9 is triangle and not semi-weakly CIS, so the LP decides both of
    # its LP bases from one analysis; its complement is not triangle
    calls.clear()
    graphs.clear()
    code, out, _ = run(capsys, "classify", "-i", "gallery:Cir9",
                       "--format", "json")
    assert code == 0 and json.loads(out)["base"]["equistable"] is False
    assert {name: k for (name, _), k in calls.items()
            if name == "_analysis"} == {"_analysis": 1}
    assert [g for (name, _), g in graphs.items()
            if name == "_analysis"] == [gallery("Cir9")]
    assert all(k == 1 for (name, _), k in calls.items()
               if name not in ("_coverage_clauses", "_holders"))
    assert "_find_weighting" not in [name for name, _ in calls]
    # C4 and its complement 2K2 are semi-weakly CIS, so the arrows give
    # both LP bases, triangle and weakly triangle on both sides: no
    # analysis, no weighting walk and no triangle walk
    calls.clear()
    code, out, _ = run(capsys, "classify", "-i", "gallery:C4",
                       "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["base"]["equistable"] is True
    assert data["complement_base"]["weakly_triangle"] is True
    names = [name for name, _ in calls]
    assert "_analysis" not in names and "_find_weighting" not in names
    assert "_triangle_walk" not in names


def test_classify_reads_invariant_bases_once_per_pair(capsys, monkeypatch):
    # weakly CIS and perfect are decided on G12 only, not again on its
    # complement; G12 is weakly CIS, so normal follows by the arrow
    # weakly CIS => normal and its search does not run
    searches, scans = [], []

    def counting(module, name, log):
        original = getattr(module, name)

        def wrapper(g, *args, **kwargs):
            log.append((g, kwargs))
            return original(g, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(search, "exists_cross_intersecting", searches)
    counting(recognizers, "_has_odd_hole", scans)
    code, _, _ = run(capsys, "classify", "-i", "gallery:G12")
    assert code == 0
    g12 = gallery("G12")
    assert [kwargs["normal"] for _, kwargs in searches] == [False]
    assert all(g == g12 for g, _ in searches)
    assert len(scans) <= 2


def count_searches(monkeypatch):
    """The graphs and keyword arguments of every cross-intersecting
    search from here on."""
    searches = []
    original = search.exists_cross_intersecting

    def wrapper(g, *args, **kwargs):
        searches.append((g, kwargs))
        return original(g, *args, **kwargs)

    monkeypatch.setattr(search, "exists_cross_intersecting", wrapper)
    return searches


def test_classify_settles_weakly_cis_from_the_complement(capsys, monkeypatch):
    # SK is semi-weakly CIS and its complement is not: classify on the
    # complement reads semi-weakly CIS => weakly CIS on SK's side, so
    # weakly CIS, and with it normal, need no search on either side
    sk = gallery("SK")
    g = complement(sk)
    assert not recognizers.is_semi_weakly_cis(g)
    assert recognizers.is_semi_weakly_cis(sk)
    searches = count_searches(monkeypatch)
    fields = classify_fields(capsys, monkeypatch, g)
    assert searches == []
    for key in ("base", "complement_base"):
        assert fields[key]["weakly_cis"] is True
        assert fields[key]["normal"] is True


def test_classify_semi_weakly_cis_split_graph_runs_no_search(
        capsys, monkeypatch):
    # a 36-vertex random split graph that is semi-weakly CIS: weakly CIS
    # and normal follow by the arrows
    searches = count_searches(monkeypatch)
    code, out, _ = run(capsys, "classify", "-i", "random-split:18,18",
                       "--seed", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 36 and data["base"]["semi_weakly_cis"] is True
    assert data["base"]["weakly_cis"] is True
    assert data["base"]["normal"] is True
    assert searches == []


def fresh_classify_fields(g):
    """classify's ``base``, ``complement_base`` and ``properties`` as a
    fresh ``MembershipCache`` decides them directly: every base computed,
    the LP bases by the LP up to 16 vertices, and no arrow read."""
    g = Graph.from_adj(g.adj)
    co = Graph.from_adj(complement(g).adj)
    cache = MembershipCache()
    return {
        "base": {name: cache.base(name, g) for name in BASE_NAMES},
        "complement_base": {name: cache.base(name, co) for name in BASE_NAMES},
        "properties": {p: cache.holds(p, g) for p in hasse.PROPERTY_ORDER},
    }


def classify_fields(capsys, monkeypatch, g):
    monkeypatch.setattr("sys.stdin", io.StringIO(encode_graph6(g)))
    code, out, _ = run(capsys, "classify", "-i", "-", "--format", "json")
    assert code == 0
    data = json.loads(out)
    return {key: data[key]
            for key in ("base", "complement_base", "properties")}


@pytest.mark.parametrize("source", [
    "FK", "F", "G12", "C5Star", "Cir9", "LK33", "C9", "SK", 1, 2])
def test_classify_complement_base_matches_fresh_evaluation(
        capsys, monkeypatch, source):
    if isinstance(source, str):
        g = gallery(source)
    else:
        g = random_graph(20, 0.5, random.Random(source))
    assert classify_fields(capsys, monkeypatch, g) == fresh_classify_fields(g)


def test_classify_arrows_match_fresh_evaluation(capsys, monkeypatch):
    # classify settles the costly bases by the proven arrows where they
    # can; on every class with n <= 7 and its complement, and on seeded
    # G(n, p) and random split graphs with 8 <= n <= 16 and with
    # 17 <= n <= 40 (where only perfect and the LP bases stay
    # "unsupported"), its verdicts equal the ones computed directly
    graphs = [x for reps in hasse.nonisomorphic_graphs(7).values()
              for g in reps for x in (g, complement(g))]
    rng = random.Random(20260)
    graphs += [random_graph(n, p, rng) for n in range(8, 17)
               for p in (0.3, 0.5, 0.7)]
    graphs += [gallery_module.random_split(n // 2, n - n // 2, 700 + n)
               for n in range(8, 17)]
    rng = random.Random(20261)
    graphs += [random_graph(n, p, rng) for n in range(17, 41, 3)
               for p in (0.3, 0.5, 0.7)]
    graphs += [gallery_module.random_split(n // 2, n - n // 2, 800 + n)
               for n in range(17, 41, 3)]
    assert len(graphs) == 2 * 1252 + 27 + 9 + 24 + 8
    mismatched = [encode_graph6(g) for g in graphs
                  if classify_fields(capsys, monkeypatch, g)
                  != fresh_classify_fields(g)]
    assert mismatched == []


def test_classify_runs_the_lp_where_semi_weakly_cis_fails(
        capsys, monkeypatch):
    # the arrows give no LP verdict from a failed semi-weakly CIS (that
    # direction is Orlin's open conjecture): with semi_weakly_cis read as
    # False everywhere, classify must still find the LP-equistable graphs
    # (C4 and 117 classes with n <= 6) equistable and strongly
    # equistable; P4, not triangle, stays neither
    original = hasse.base_predicate

    def faulty(name):
        return (lambda g: False) if name == "semi_weakly_cis" \
            else original(name)

    lp_equistable = [gallery("C4")] + [
        g for reps in hasse.nonisomorphic_graphs(6).values() for g in reps
        if equistable.decision(g, strongly=False).verdict
        and equistable.decision(g, strongly=True).verdict]
    assert len(lp_equistable) == 1 + 117
    monkeypatch.setattr(hasse, "base_predicate", faulty)
    cases = [(g, True) for g in lp_equistable] + [(gallery("P4"), False)]
    for g, expected in cases:
        fields = classify_fields(capsys, monkeypatch, g)
        assert fields["base"]["semi_weakly_cis"] is False
        assert {fields["base"][name] for name in hasse.LP_BASES} == {expected}
        assert fields == fresh_classify_fields(g), encode_graph6(g)


def test_classify_k1(capsys):
    code, out, _ = run(capsys, "classify", "-i", "gallery:K1", "--format",
                       "json")
    data = json.loads(out)
    assert data["base"]["cis"] is True
    assert data["base"]["almost_cis"] is False


@pytest.mark.parametrize("flip", [False, True], ids=["K32,32", "2K32"])
def test_classify_weakly_cis_with_a_thousand_chosen_cliques(
        capsys, monkeypatch, flip):
    # every edge of K32,32 is its own maximal clique, so a weakly-CIS
    # certificate chooses 1024 cliques (on 2K32, 1024 stable sets); the
    # search keeps them on a stack, not in nested calls
    g = complete_bipartite(32, 32)
    monkeypatch.setattr("sys.stdin",
                        io.StringIO(encode_graph6(complement(g) if flip
                                                  else g)))
    code, out, _ = run(capsys, "classify", "-i", "-", "--format", "json")
    assert code == 0
    data = json.loads(out)
    for base in (data["base"], data["complement_base"]):
        assert base["weakly_cis"] is True and base["normal"] is True


def test_classify_unsupported_lp(capsys):
    # 17 vertices: LP-backed predicates report "unsupported"
    import tempfile

    from cisgraphs.graphs import Graph

    with tempfile.NamedTemporaryFile("w", suffix=".g6", delete=False) as fh:
        fh.write(encode_graph6(Graph(17, [(0, 1)])))
        name = fh.name
    code, out, _ = run(capsys, "classify", "-i", name, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["base"]["equistable"] == "unsupported"
    assert data["base"]["perfect"] == "unsupported"
    assert data["properties"]["cap-eq"] == "unsupported"
    # both sides of the 16-vertex gate on the arrows: the one-edge graph
    # is semi-weakly CIS and C17 is not triangle, yet past 16 vertices
    # neither implies an LP verdict
    for graph in (Graph(17, [(0, 1)]), cycle(17)):
        with open(name, "w") as fh:
            fh.write(encode_graph6(graph))
        code, out, _ = run(capsys, "classify", "-i", name, "--format",
                           "json")
        assert code == 0
        data = json.loads(out)
        for key in ("base", "complement_base"):
            assert {lp: data[key][lp] for lp in hasse.LP_BASES} == {
                "equistable": "unsupported",
                "strongly_equistable": "unsupported"}
        for prop in ("cap-seq", "cap-eq", "cup-seq", "cup-eq"):
            assert data["properties"][prop] == "unsupported"
    os.unlink(name)


def test_classify_random_split(capsys):
    code, out, _ = run(capsys, "classify", "-i", "random-split:4,4",
                       "--seed", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["base"]["split"] is True


def test_closed_stdout_exits_quietly():
    # a reader that has gone (``| head``) ends the run with 128 + SIGPIPE
    # and nothing on stderr, not a BrokenPipeError traceback; stdout is
    # buffered, as by default, so the exit-time flush is exercised too
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(cli.__file__)),
        env.get("PYTHONPATH"),
    ]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cisgraphs.cli", "gallery", "list",
             "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_scan_stops_at_order_8(capsys):
    # the class count at order 9 is checked, but the scan stays at 8
    assert hasse.EXPECTED_GRAPH_COUNTS[9] == 274668
    with pytest.raises(ValueError, match=r"^exhaustive scan supported for "
                                         r"1 <= max_n <= 8$"):
        hasse.scan(max_n=9)
    code, out, err = run(capsys, "scan", "--max-n", "9")
    assert (code, out, err) == (
        2, "", "error: --max-n must be between 1 and 8\n")


def test_input_errors(capsys, monkeypatch, tmp_path):
    code, _, err = run(capsys, "classify", "-i", "no/such/file")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "classify", "-i", "gallery:nope")
    assert code == 2
    code, _, err = run(capsys, "classify")
    assert code == 2
    code, _, err = run(capsys, "classify", "-i", "random-split:oops")
    assert code == 2
    for max_n in ("9", "0", "-1"):
        code, out, err = run(capsys, "scan", "--max-n", max_n)
        assert code == 2 and "error" in err and "passed" not in out
    bad_utf8 = tmp_path / "bad.txt"
    bad_utf8.write_bytes(b"0 1\n\xff\n")
    code, _, err = run(capsys, "classify", "-i", str(bad_utf8))
    assert code == 2 and "error" in err
    for text in ("a b\n", "0 1\n1 x\n"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, err = run(capsys, "classify", "-i", "-")
        assert code == 2 and "line" in err


def test_commands_take_only_their_options(capsys):
    for argv in (["classify", "-i", "gallery:P4", "--verify"],
                 ["classify", "-i", "gallery:P4", "--format", "csv"],
                 ["table", "--seed", "1"],
                 ["table", "--include-lp"],
                 ["table", "--no-include-lp"],
                 ["scan", "--verify"],
                 ["gallery", "list", "--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err


@pytest.mark.parametrize("module, name, error", [
    (search, "exists_cross_intersecting", search.SearchUndecided),
    (cliques, "_bron_kerbosch", cliques.FamilyCapExceeded),
    (equistable, "_verify_weighting", equistable.WeightingUndecided),
])
def test_budget_exhaustion_is_undecided(capsys, monkeypatch, module, name,
                                        error):
    # a budget that runs out is one stderr line and exit code 3, not a
    # traceback
    def exhausted(*args, **kwargs):
        raise error("budget spent")

    reason = "budget spent"
    requests = [(["classify"], "5\n0 1\n1 2\n2 3\n3 4\n4 0\n", reason)]  # C5
    if error is search.SearchUndecided:
        # the dominator search of cis-line --verify has its own node
        # budget; L(K8,8) needs 219,200 nodes
        monkeypatch.setattr(search, "DEFAULT_BACKTRACK_CAP", 1000)
        lk88 = encode_graph6(line_graph(complete_bipartite(8, 8)))
        requests.append((["cis-line", "--verify"], lk88,
                         "dominator search exceeded 1000 nodes"))
    if error is equistable.WeightingUndecided:
        # the weighting walk gives up when no candidate verifies; C4 is
        # equistable and its polytope has two null directions, so it walks
        def exhausted(*args, **kwargs):
            return False

        c4 = "4\n0 1\n1 2\n2 3\n3 0\n"
        reason = "weight construction failed to avoid all hyperplanes"
        requests = [(["equistable"], c4, reason)]
    monkeypatch.setattr(module, name, exhausted)
    if error is equistable.WeightingUndecided:
        # classify prints no weights, so its verdict does not depend on
        # the walk: with the walk broken it still finds C4 equistable
        monkeypatch.setattr("sys.stdin", io.StringIO(c4))
        code, out, _ = run(capsys, "classify", "-i", "-", "--format", "json")
        assert code == 0
        assert json.loads(out)["base"]["equistable"] is True
    for command, text, reason in requests:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, *command, "-i", "-")
        assert code == 3
        assert out == ""
        assert err == f"undecided: {reason}\n"


def test_vertex_limit(capsys, monkeypatch):
    # the CLI's one size bound: at most 64 vertices from every source
    code, _, err = run(capsys, "classify", "-i", "gallery:L")
    assert code == 2 and "165 vertices" in err
    monkeypatch.setattr("sys.stdin", io.StringIO(encode_graph6(Graph(65))))
    code, _, err = run(capsys, "classify", "-i", "-")
    assert code == 2 and "65 vertices" in err
    # a line graph on 40 vertices, 39 of them isolated, has a 79-vertex root
    monkeypatch.setattr("sys.stdin", io.StringIO("40\n0 1\n"))
    code, _, err = run(capsys, "cis-line", "-i", "-")
    assert code == 2 and "79 vertices" in err

    # random-split sizes are refused before the graph is built
    def unreachable(*args):
        raise AssertionError("random_split called for an oversized spec")

    monkeypatch.setattr(gallery_module, "random_split", unreachable)
    for spec in ("random-split:40,40", "random-split:100000,100000"):
        code, _, err = run(capsys, "classify", "-i", spec)
        assert code == 2 and "error" in err


def test_gallery_list_and_emit(capsys):
    code, out, _ = run(capsys, "gallery", "list")
    assert code == 0
    assert "G12" in out
    assert out.splitlines()[-1] == "LLbar    n=330 m=13530"  # no "(big)"
    code, out, _ = run(capsys, "gallery", "list", "--format", "json")
    assert json.loads(out)["graphs"][-2:] == ["L", "LLbar"]
    code, out, _ = run(capsys, "gallery", "emit", "G12")
    assert code == 0
    assert parse_graph6(out.strip()) == gallery("G12")
    code, out, _ = run(capsys, "gallery", "emit", "L")
    assert code == 0
    assert out.startswith("~")
    assert parse_graph6(out.strip()) == gallery("L")
    code, _, err = run(capsys, "gallery", "emit", "nope")
    assert code == 2


def test_table_text_and_csv(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert out.splitlines()[-1] == "163 witness cells verified, 0 failures"
    code, out, _ = run(capsys, "table", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "row,col,kind,witness,passed,detail"
    assert len(out.splitlines()) == 1 + 17 * 17


def test_scan_cli(capsys):
    code, out, _ = run(capsys, "scan", "--max-n", "4")
    assert code == 0
    assert "scan passed" in out
    code, out, _ = run(capsys, "scan", "--max-n", "4", "--format", "json")
    data = json.loads(out)
    assert data["ok"] is True
    assert data["counts"]["4"] == 11 or data["counts"][4] == 11


def test_cis_line_root_input(capsys):
    # a claw is not a line graph, so it is treated as the root graph
    import tempfile

    with tempfile.NamedTemporaryFile("w", delete=False) as fh:
        fh.write("0 1\n0 2\n0 3\n")
        name = fh.name
    code, out, _ = run(capsys, "cis-line", "-i", name, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["input_role"] == "root"
    assert data["verdicts"][0]["cis"] is True


def test_cis_line_line_graph_input(capsys):
    code, out, _ = run(capsys, "cis-line", "-i", "gallery:LK33", "--verify",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["input_role"] == "line-graph"
    assert data["verdicts"][0]["cis"] is True
    # P4 = L(P5) is not CIS and yields a matching certificate
    code, out, _ = run(capsys, "cis-line", "-i", "gallery:P4", "--verify",
                       "--format", "json")
    data = json.loads(out)
    assert data["input_role"] == "line-graph"
    assert data["verdicts"][0]["cis"] is False
    assert "violating_vertex" in data["verdicts"][0]


def test_cis_line_verify_catches_a_wrong_verdict(capsys, monkeypatch):
    # a root-graph verdict that disagrees with the direct test on the
    # input fails the request; flipping the maximal-matching oracle too
    # leaves --verify as the only check that can notice
    root_verdict = linegraph.is_cis_line_root
    oracle = linegraph.check_condition_vii

    def wrong_root_verdict(h):
        verdict, cert, backend = root_verdict(h)
        return not verdict, cert, backend

    monkeypatch.setattr(linegraph, "is_cis_line_root", wrong_root_verdict)
    code, out, err = run(capsys, "cis-line", "-i", "gallery:LK33",
                         "--verify")
    assert code == 1 and out == ""
    assert "maximal-matching oracle" in err
    monkeypatch.setattr(linegraph, "check_condition_vii",
                        lambda h: not oracle(h))
    code, out, err = run(capsys, "cis-line", "-i", "gallery:LK33",
                         "--verify")
    assert code == 1 and out == ""
    assert err == ("internal error: line-graph verdict does not match "
                   "the direct CIS test\n")
    # without --verify nothing compares the verdict with the input
    code, _, _ = run(capsys, "cis-line", "-i", "gallery:LK33")
    assert code == 0


def test_cis_line_verify_lists_no_stable_sets_of_the_input(
        capsys, monkeypatch):
    # the direct check searches for stable dominators of the input's
    # maximal cliques; listing its maximal stable sets (the root's
    # maximal matchings) is what it replaced.  The root has 9 vertices,
    # above the maximal-matching oracle's bound.
    g = line_graph(complete_bipartite(4, 5))
    seen = []

    def spy(h, *args, **kwargs):
        seen.append(h)
        return maximal_stable_sets(h, *args, **kwargs)

    # every module that calls it (recognizers reads the stable sets off
    # search.disjointness)
    for module in (cliques, equistable, linegraph, search):
        monkeypatch.setattr(module, "maximal_stable_sets", spy)
    assert not hasattr(recognizers, "maximal_stable_sets")
    monkeypatch.setattr("sys.stdin", io.StringIO(encode_graph6(g)))
    code, out, _ = run(capsys, "cis-line", "-i", "-", "--verify",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["input_role"] == "line-graph"
    assert g not in seen


def test_equistable_cli(capsys):
    code, out, _ = run(capsys, "equistable", "-i", "gallery:C4", "--verify",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["equistable"]["verdict"] is True
    assert data["verified"] is True
    code, out, _ = run(capsys, "equistable", "-i", "gallery:Cir9",
                       "--format", "json")
    data = json.loads(out)
    assert data["equistable"]["verdict"] is False
    assert data["equistable"]["reason"] == "forced-subset"
    code, _, err = run(capsys, "equistable", "-i", "gallery:LLbar")
    assert code == 2


def test_equistable_size_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(encode_graph6(Graph(17))))
    code, out, err = run(capsys, "equistable", "-i", "-")
    assert (code, out) == (2, "")
    assert err == "error: equistability decision limited to n <= 16\n"


# SHA-256 of `equistable --verify --format json` stdout.  The printed
# weights and forced subsets follow from the simplex pivot sequence (the
# interior point) and the weighting walk's step; neither may drift.
EQUISTABLE_PINS = {
    "gallery:C5Star":
        "f74d1fa7d168b91666cc61e97ca24fcb58881f13ceac78e09efbf9f3b860877e",
    "gallery:Cir9":
        "09e0a997e90f9345d5044cf2db138b61898c385702b9a7f70507acf5ac926fca",
    "gallery:FK":
        "2cda8692296771d2d588338b231b3801b7f016b6ef900bc91a6bd1f5d7594305",
    # equistable, with a 3-dimensional polytope to walk in
    "random:9,0.5,28":
        "bd701b00ee7f14898dc909a0634ddd4083ffed5b3d5f7210026f30deeb5ef328",
}


@pytest.mark.parametrize("source,digest", sorted(EQUISTABLE_PINS.items()))
def test_equistable_certificates_pinned(capsys, tmp_path, source, digest):
    spec = source
    if source.startswith("random:"):
        n, p, seed = source.split(":")[1].split(",")
        g = random_graph(int(n), float(p), random.Random(int(seed)))
        spec = str(tmp_path / "g.g6")
        with open(spec, "w") as fh:
            fh.write(encode_graph6(g))
    code, out, _ = run(capsys, "equistable", "-i", spec, "--verify",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["verified"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cis_line_rejects_claw_before_krausz_search(capsys):
    # not a line graph (it has a claw), with cliques of 13: the Krausz
    # search alone took over 10 s to reject it
    start = time.perf_counter()
    code, out, _ = run(capsys, "cis-line", "-i", "random-split:13,13",
                       "--seed", "2", "--verify", "--format", "json")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9c2c4fb2c041f925abef78adeee0eb10d39398a66803f6750a3aa62ea8b5a09a")
    assert json.loads(out)["input_role"] == "root"
    assert elapsed < 1.0


def _complete_minus_edge(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if (u, v) != (0, 1)])


def _triangles_beside_k5_minus_edge(k):
    edges = [(3 * t + a, 3 * t + b) for t in range(k)
             for a, b in ((0, 1), (0, 2), (1, 2))]
    k5e = _complete_minus_edge(5)
    return Graph(3 * k + 5, edges + [(3 * k + u, 3 * k + v)
                                     for u, v in k5e.edges()])


@pytest.mark.parametrize("g", [
    _complete_minus_edge(18),
    _complete_minus_edge(64),
    _triangles_beside_k5_minus_edge(14),
], ids=["K18-e", "K64-e", "14K3+K5-e"])
def test_cis_line_rejects_claw_free_non_line_graphs_quickly(
        capsys, tmp_path, g):
    # claw-free and not line graphs (each contains K5 - e): the sub-clique
    # Krausz search took from seconds to minutes on these
    path = tmp_path / "g.g6"
    path.write_text(encode_graph6(g))
    start = time.perf_counter()
    code, out, _ = run(capsys, "cis-line", "-i", str(path), "--verify",
                       "--format", "json")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["input_role"] == "root"
    assert elapsed < 1.0


def test_parser_is_built_once_and_shared(capsys):
    # one parser per process; a request argparse rejects leaves it as it
    # was for the requests after it
    assert cli.build_parser() is cli.build_parser()
    rejected = ["classify", "-i", "gallery:G12", "--format", "xml"]

    def send(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    cli.build_parser.cache_clear()
    first = send(rejected)
    assert first[:2] == (2, "") and "invalid choice" in first[2]
    cli.build_parser.cache_clear()
    a = send(["classify", "-i", "gallery:G12"])
    assert send(rejected) == first
    b = send(["classify", "-i", "gallery:G12"])
    assert a[0] == 0 and a == b


def test_byte_determinism(capsys):
    a = run(capsys, "classify", "-i", "gallery:G12", "--format", "json")
    b = run(capsys, "classify", "-i", "gallery:G12", "--format", "json")
    assert a == b
