"""Acceptance suite: nine end-to-end criteria, one PASS/FAIL line each."""

import random
import time

from cisgraphs.cliques import maximal_cliques, maximal_stable_sets
from cisgraphs.equistable import forced_value, is_equistable
from cisgraphs.gallery import (
    G12_CLIQUE_SUBFAMILY,
    G12_CLIQUES,
    G12_STABLE_SETS,
    G12_STABLE_SUBFAMILY,
    GALLERY_NAMES,
    _shift,
    gallery,
    projective_split,
)
from cisgraphs.graphs import complement, mask_of, random_graph
from cisgraphs.hasse import (
    SKIPPED_WITNESSES,
    TABLE,
    nonisomorphic_graphs,
    scan,
    verify_table,
)
from cisgraphs.linegraph import (
    check_condition_vii,
    is_cis_line_root,
    line_graph,
    tilde,
)
from cisgraphs.recognizers import (
    is_almost_cis,
    is_cis,
    is_edge_simplicial,
    is_split,
    is_triangle,
    is_weakly_triangle,
)
from cisgraphs.search import dominated_clique
from oracles import (
    big_L_clique_families,
    connected_graphs,
    random_split_lemma_properties,
    verify_cover_certificate,
)


def report(num, title, ok):
    print(f"\nACCEPTANCE {num} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed"


def test_acceptance_1_table_reproduction():
    t0 = time.time()
    cells = verify_table()
    elapsed = time.time() - t0
    witness = [c for c in cells if c.kind == "witness"]
    ok = bool(witness) and all(c.passed for c in witness)
    ok &= elapsed < 300
    report(1, f"table reproduction, {len(witness)} witness cells in "
              f"{elapsed:.1f}s", ok)


def test_acceptance_2_g12_certificates():
    g = gallery("G12")
    ok = maximal_cliques(g) == sorted(
        sum(1 << v for v in s) for s in _shift(G12_CLIQUES)
    )
    ok &= maximal_stable_sets(g) == sorted(
        sum(1 << v for v in s) for s in _shift(G12_STABLE_SETS)
    )
    cc = [sum(1 << v for v in s) for s in _shift(G12_CLIQUE_SUBFAMILY)]
    ss = [sum(1 << v for v in s) for s in _shift(G12_STABLE_SUBFAMILY)]
    ok &= verify_cover_certificate(g, cc, ss, normal=False)

    # triangle failure: stable set {5,7,9} and edge {10,11} (1-based)
    ok &= not is_triangle(g)
    s = mask_of([4, 6, 8])
    u, v = 9, 10
    ok &= s in maximal_stable_sets(g)
    ok &= g.has_edge(u, v) and not s >> u & 1 and not s >> v & 1
    ok &= not g.adj[u] & g.adj[v] & s

    # co-triangle failure: clique {4,10,12} and non-edge {5,9}
    co = complement(g)
    ok &= not is_triangle(co)
    c = mask_of([3, 9, 11])
    u, v = 4, 8
    ok &= c in maximal_stable_sets(co)
    ok &= co.has_edge(u, v) and not c >> u & 1 and not c >> v & 1
    ok &= not co.adj[u] & co.adj[v] & c
    report(2, "G12 certificates", ok)


def test_acceptance_3_cir9_suite():
    g = gallery("Cir9")
    co = complement(g)
    ok = is_triangle(g)
    ok &= is_weakly_triangle(g)
    ok &= not is_equistable(g).verdict
    ok &= not is_equistable(co).verdict
    # forced subset {3,4,9} (1-based) on the complement
    ok &= forced_value(co, mask_of([2, 3, 8])) == 1
    ok &= not is_weakly_triangle(co)
    report(3, "Cir9 suite", ok)


def test_acceptance_4_split_characterization():
    def characterization_holds(g):
        rhs = is_almost_cis(g) or (
            is_edge_simplicial(g) and is_edge_simplicial(complement(g))
        )
        return is_split(g) == rhs

    ok = True
    reps = nonisomorphic_graphs(7)
    checked = 0
    for n in range(1, 8):
        for g in reps[n]:
            ok &= characterization_holds(g)
            checked += 1
    for name in GALLERY_NAMES:
        g = gallery(name)
        if g.n <= 16:
            ok &= characterization_holds(g)
            checked += 1
    report(4, f"split characterization on {checked} graphs", ok)


def test_acceptance_5_inclusion_scan():
    rep = scan(max_n=6, include_lp=True)
    needed = (
        "edge_simplicial->semi_weakly_cis",
        "semi_weakly_cis->strongly_equistable",
        "strongly_equistable->equistable",
        "equistable->triangle",
        "triangle->weakly_triangle",
        "cis->semi_weakly_cis",
        "weakly_cis->normal",
        "weakly_cis->cap-wtri",
        "perfect->normal",
        "equistable->no-bad-p4",
    )
    ok = rep.ok
    for name in needed:
        arrow = rep.arrows[name]
        ok &= arrow.checked > 0 and not arrow.failures
    ok &= rep.counts[6] == 156
    report(5, "inclusion chain scan n<=6 with LP", ok)


def test_acceptance_6_line_graph_theorem():
    ok = True
    checked = 0
    for n, graphs in connected_graphs(7).items():
        for h in graphs:
            if h.edge_count() == 0:
                continue
            lg = line_graph(h)
            direct = is_cis(lg)
            verdict, _, _ = is_cis_line_root(h)
            oracle = check_condition_vii(h)
            cap_tri = is_triangle(lg) and is_triangle(complement(lg))
            dominated = dominated_clique(lg) is None
            ok &= direct == verdict == oracle == cap_tri == dominated
            checked += 1

    rng = random.Random(2024)
    done = 0
    while done < 50:
        h = random_graph(rng.randint(1, 6), 0.4, rng)
        has_triangle = any(
            h.adj[u] & h.adj[v] for u, v in h.edges()
        )
        if has_triangle:
            continue
        ok &= is_cis(line_graph(tilde(h)))
        done += 1
    report(6, f"line graph theorem on {checked} connected roots "
              f"+ 50 tilde graphs", ok)


def test_acceptance_7_projective_and_random_split():
    ok = True
    for q in (2, 3):
        g = projective_split(q)
        ok &= is_edge_simplicial(g)
        ok &= is_edge_simplicial(complement(g))
        ok &= not is_cis(g)
    good = sum(
        all(random_split_lemma_properties(40, 40, seed))
        for seed in range(100)
    )
    ok &= good >= 95
    report(7, f"projective q=2,3 + random split ({good}/100 seeds)", ok)


def test_acceptance_8_llbar_decomposed_checks():
    L = gallery("L")
    ok = is_edge_simplicial(L)
    cliques = maximal_cliques(L)
    six, five = big_L_clique_families()
    ok &= len(six) == 5 and len(five) == 6
    for fam, size in ((six, 6), (five, 5)):
        covered = set()
        for cl in fam:
            ok &= len(cl) == size
            ok &= mask_of(cl) in cliques
            ok &= not covered & cl
            covered |= cl
        ok &= covered == set(range(30))
    # the full equistability decision for LLbar (330 vertices) is
    # deliberately NOT attempted: out of desk scale
    report(8, "L edge simplicial + disjoint clique families "
              "(LLbar equistability not attempted)", ok)


def test_acceptance_9_out_of_scope_stated():
    # the equistable-but-not-strongly-equistable separations require
    # 22-vertex graphs whose construction is unavailable at desk scale;
    # they are excluded and the table marks them skipped
    ok = "G14" in SKIPPED_WITNESSES and "G22" in SKIPPED_WITNESSES
    printed = [cell for row in TABLE.values() for cell in row]
    ok &= "G14" in printed and "G22" in printed
    cells = verify_table()
    for c in cells:
        if c.witness in ("G14", "G22"):
            ok &= c.kind == "skipped"
    report(9, "G14/G22 separations explicitly excluded (skipped)", ok)
