"""Command line front end: classify graphs, reproduce the relation table,
run exhaustive scans, emit gallery graphs, recognize CIS line graphs, and
decide equistability.

Exit codes: 0 success, 1 internal verification failure, 2 input error,
3 undecided (a search or clique-family budget ran out, or the weighting
walk of ``equistable`` found no weighting; the other commands read the
equistable verdicts from the forced-subset join and never walk), 141
(128 + SIGPIPE) when standard output is closed before the output is
written, as by ``| head``; nothing is printed on standard error then.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from types import SimpleNamespace

from . import equistable as eq
from . import gallery as gal
from . import hasse, linegraph
from .cliques import FamilyCapExceeded
from .graphs import Graph, GraphError, bits, complement, encode_graph6, parse_graph
from .recognizers import (
    BASE_NAMES,
    COMPLEMENT_INVARIANT,
    UnsupportedSize,
    disjoint_pairs,
    triangle_violation,
)
from .search import SearchUndecided, dominated_clique

JSON_SCHEMA_VERSION = 1


class InputError(ValueError):
    pass


# The commands' clique-family caps and search budgets are sized for graphs
# of at most this many vertices.
MAX_VERTICES = 64


def _check_order(n: int, what: str) -> None:
    if n > MAX_VERTICES:
        raise InputError(
            f"{what} has {n} vertices; the limit is {MAX_VERTICES}"
        )


def _read_input(spec: str) -> Graph:
    if spec.startswith("gallery:"):
        return gal.gallery(spec.split(":", 1)[1])
    try:
        if spec == "-":
            text = sys.stdin.read()
        else:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {spec}: {exc}") from exc
    return parse_graph(text)


def _load_graph(args) -> Graph:
    spec = args.input
    if spec is None:
        raise InputError("an --input/-i source is required")
    if spec.startswith("random-split:"):
        try:
            k, l = (int(x) for x in spec.split(":", 1)[1].split(","))
        except ValueError as exc:
            raise InputError("random-split spec must be random-split:K,L") from exc
        # checked before building, which takes time quadratic in k + l
        _check_order(k + l, "random-split graph")
        return gal.random_split(k, l, args.seed)
    g = _read_input(spec)
    _check_order(g.n, "input graph")
    return g


def _emit(args, payload, text_render):
    if args.format == "json":
        payload = dict(payload)
        payload["schema_version"] = JSON_SCHEMA_VERSION
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text_render)


def _set(mask: int):
    return sorted(bits(mask))


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    """Print every base on the graph and on its complement, and the 17
    table properties.  The bases are decided on both sides in one pass,
    in ``BASE_NAMES`` order; the cheap ones are always computed, and a
    costly one (``hasse.COSTLY_BASES``) is computed only when the proven
    arrows do not settle it from the verdicts before it
    (``hasse.settled_by_arrows``).  A complement-invariant base takes one
    verdict for both sides: a costly one is settled from either side's
    verdicts, and otherwise it is computed on the graph only.  So
    triangle and weakly triangle follow from semi-weakly CIS, weakly CIS
    and with it normal from semi-weakly CIS on either side, weakly
    triangle from weakly CIS, perfect is denied by a failed normal, and
    the exact LP runs only between semi-weakly CIS and triangle.  Past
    ``MAX_LP_VERTICES`` vertices perfect and the LP bases are
    "unsupported", never settled.  The table properties are lifted from
    the two verdict dicts, so no base is decided twice."""
    g = _load_graph(args)
    cache = hasse.MembershipCache()
    # the bases that refuse graphs past 16 vertices (UnsupportedSize)
    refused = () if g.n <= eq.MAX_LP_VERTICES else (
        "perfect", *hasse.LP_BASES)
    base, co = {}, {}
    sides = (g, base), (complement(g), co)
    for name in BASE_NAMES:
        settles = name in hasse.COSTLY_BASES and name not in refused
        known = [hasse.settled_by_arrows(v, name) if settles else None
                 for _, v in sides]
        if name in COMPLEMENT_INVARIANT:
            # one verdict for both sides, settled from either
            x = known[0] if known[0] is not None else known[1]
            base[name] = co[name] = cache.base(name, g) if x is None else x
            continue
        for (h, v), x in zip(sides, known):
            v[name] = cache.base(name, h) if x is None else x

    # the source that lift reads: h is g or complement(g)
    read = SimpleNamespace(base=lambda name, h: (base if h is g else co)[name])
    table_props = {p: hasse.lift(read, p, g) for p in hasse.PROPERTY_ORDER}
    certs = {}
    pairs = disjoint_pairs(g)
    if pairs:
        clique, stable = pairs[0]
        certs["disjoint_pair"] = {
            "clique": _set(clique), "stable_set": _set(stable),
        }
    tv = triangle_violation(g) if base["triangle"] is not True else None
    if tv is not None:
        certs["triangle_violation"] = {
            "stable_set": _set(tv[0]), "edge": list(tv[1]),
        }
    payload = {
        "graph6": encode_graph6(g),
        "n": g.n,
        "m": g.edge_count(),
        "base": base,
        "complement_base": co,
        "properties": table_props,
        "certificates": certs,
    }
    lines = [f"graph {payload['graph6']}  (n={g.n}, m={payload['m']})"]
    for name in sorted(base):
        lines.append(f"  {name:<22} {base[name]!s:<12} co: {co[name]}")
    lines.append("table properties:")
    for prop in hasse.PROPERTY_ORDER:
        lines.append(f"  {prop:<12} {table_props[prop]}")
    for key, val in certs.items():
        lines.append(f"certificate {key}: {val}")
    _emit(args, payload, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# table / scan


def cmd_table(args) -> int:
    cells = hasse.verify_table()
    failures = [c for c in cells if c.kind == "witness" and not c.passed]
    payload = {
        "cells": [c.to_dict() for c in cells],
        "witness_cells": sum(c.kind == "witness" for c in cells),
        "failures": len(failures),
    }
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["row", "col", "kind", "witness", "passed", "detail"])
        for c in cells:
            writer.writerow(
                [c.row, c.col, c.kind, c.witness or "",
                 "" if c.passed is None else c.passed, c.detail]
            )
        print(buf.getvalue(), end="")
    else:
        by_row = {}
        for c in cells:
            by_row.setdefault(c.row, []).append(c)

        def cell_text(c):
            if c.kind == "equal":
                return "="
            if c.kind == "subset":
                return "<="
            if c.kind == "unknown":
                return "?"
            if c.kind == "erratum":
                return f"?[{c.witness}]"
            if c.kind == "skipped":
                return f"skip[{c.witness}]"
            return f"{c.witness}{'' if c.passed else '!FAIL'}"

        lines = ["row: " + " ".join(hasse.PROPERTY_ORDER)]
        for row in hasse.PROPERTY_ORDER:
            lines.append(
                f"{row:<10} " + " ".join(cell_text(c) for c in by_row[row])
            )
        lines.append(
            f"{payload['witness_cells']} witness cells verified, "
            f"{len(failures)} failures"
        )
        _emit(args, payload, "\n".join(lines))
    return 1 if failures else 0


def cmd_scan(args) -> int:
    if not 1 <= args.max_n <= hasse.MAX_SCAN_N:
        raise InputError(f"--max-n must be between 1 and {hasse.MAX_SCAN_N}")
    report = hasse.scan(max_n=args.max_n, include_lp=args.include_lp)
    payload = report.to_dict()
    lines = [
        f"scan n <= {report.max_n} (lp properties up to n = {report.lp_max_n})",
        f"graph counts: {report.counts}",
    ]
    for name, a in sorted(report.arrows.items()):
        lines.append(
            f"  arrow {name:<32} checked {a.checked:<6} "
            + ("ok" if a.ok else f"FAIL {a.failures[:3]}")
        )
    bad_subset = [k for k, a in report.subset_cells.items() if not a.ok]
    bad_collapse = [k for k, a in report.collapse.items() if not a.ok]
    lines.append(
        f"  table subset cells: {len(report.subset_cells)} checked, "
        f"failures: {bad_subset or 'none'}"
    )
    lines.append(
        f"  complement collapse: failures: {bad_collapse or 'none'}"
    )
    lines.append("scan " + ("passed" if report.ok else "FAILED"))
    _emit(args, payload, "\n".join(lines))
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# gallery


def cmd_gallery(args) -> int:
    if args.action == "list":
        payload = {"graphs": list(gal.GALLERY_NAMES)}
        lines = []
        for name in gal.GALLERY_NAMES:
            g = gal.gallery(name)
            lines.append(f"{name:<8} n={g.n:<3} m={g.edge_count()}")
        _emit(args, payload, "\n".join(lines))
        return 0
    g = gal.gallery(args.id)
    payload = {"id": args.id, "n": g.n, "graph6": encode_graph6(g)}
    _emit(args, payload, encode_graph6(g))
    return 0


# ---------------------------------------------------------------------------
# cis-line


def cmd_cis_line(args) -> int:
    g = _load_graph(args)
    res = linegraph.root_graph(g)
    if res.kind == "not-line-graph":
        # the input is not a line graph: treat it as the root graph H
        role = "root"
        roots = [g]
    else:
        role = "line-graph"
        roots = res.roots
        for h in roots:
            # up to twice the input's order: an isolated vertex's root is K2
            _check_order(h.n, "root graph")
    verdicts = []
    for h in roots:
        verdict, cert, backend = linegraph.is_cis_line_root(h)
        entry = {
            "root_graph6": encode_graph6(h),
            "cis": verdict,
            "matching_backend": backend,
        }
        if cert is not None:
            if cert[0] == "bull":
                entry["bull_vertices"] = list(cert[1])
            else:
                entry["violating_vertex"] = cert[1]
                entry["violating_matching"] = [list(e) for e in cert[2]]
        if h.n <= 8:
            agree = linegraph.check_condition_vii(h) == verdict
            entry["maximal_matching_crosscheck"] = agree
            if not agree:
                print("internal error: recognizer disagrees with the "
                      "maximal-matching oracle", file=sys.stderr)
                return 1
        verdicts.append(entry)
    if role == "line-graph" and args.verify:
        # the verdict must match a direct CIS test on the input: no
        # maximal clique has a stable dominator outside it
        direct = dominated_clique(g) is None
        if any(e["cis"] != direct for e in verdicts):
            print("internal error: line-graph verdict does not match the "
                  "direct CIS test", file=sys.stderr)
            return 1
    payload = {
        "input_graph6": encode_graph6(g),
        "input_role": role,
        "ambiguous_root": len(roots) > 1,
        "verdicts": verdicts,
        "conditions_checked": ["bull-subgraph", "weighted-matching"],
    }
    lines = [f"input interpreted as: {role}"]
    for e in verdicts:
        lines.append(
            f"root {e['root_graph6']}: line graph is "
            + ("CIS" if e["cis"] else "not CIS")
        )
        if "bull_vertices" in e:
            lines.append(f"  bull subgraph on vertices {e['bull_vertices']}")
        if "violating_vertex" in e:
            lines.append(
                f"  vertex {e['violating_vertex']} has a neighborhood-"
                f"covering matching {e['violating_matching']}"
            )
    _emit(args, payload, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# equistable


def cmd_equistable(args) -> int:
    g = _load_graph(args)
    cert = eq.is_equistable(g)
    strong = eq.is_strongly_equistable(g)
    payload = {
        "graph6": encode_graph6(g),
        "equistable": cert.to_dict(),
        "strongly_equistable": strong.to_dict(),
    }
    if args.verify:
        ok = True
        if cert.weights is not None:
            ok &= eq.verify_weighting(g, cert.weights)
        if cert.forced_subset is not None:
            ok &= eq.forced_value(g, cert.forced_subset) == cert.forced_value
        if strong.forced_subset is not None:
            ok &= eq.forced_value(g, strong.forced_subset) == strong.forced_value
        if not ok:
            print("internal error: certificate failed re-verification",
                  file=sys.stderr)
            return 1
        payload["verified"] = True
    lines = [f"graph {payload['graph6']}"]
    for label, c in (("equistable", cert), ("strongly equistable", strong)):
        lines.append(f"{label}: {c.verdict} ({c.reason})")
        if c.weights is not None:
            lines.append(
                "  weights: " + " ".join(str(w) for w in c.weights)
            )
        if c.forced_subset is not None:
            lines.append(
                f"  subset {_set(c.forced_subset)} forced to "
                f"{c.forced_value}"
            )
    _emit(args, payload, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later ``main`` call in the process.  ``set_defaults(fn=...)`` captures
    the ``cmd_*`` functions bound at that first call."""
    parser = argparse.ArgumentParser(
        prog="cisgraphs",
        description="exact recognition of clique/stable-set graph classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("json", "text")):
        p.add_argument("--format", choices=choices, default="text")

    def add_input(p):
        p.add_argument(
            "--input", "-i",
            help="graph source: path, '-' for stdin, gallery:ID, "
                 "or random-split:K,L",
        )
        p.add_argument("--seed", type=int, default=0)
        add_format(p)

    def add_verify(p):
        p.add_argument("--verify", action="store_true",
                       help="re-verify emitted certificates")

    p = sub.add_parser("classify", help="full membership vector for a graph")
    add_input(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("table", help="reproduce and verify the relation table")
    add_format(p, ("json", "csv", "text"))
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("scan", help="exhaustive inclusion-arrow scan")
    add_format(p)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--include-lp", action="store_true",
                   help="run LP-backed classes above n = 6 too")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("gallery", help="list or emit the named graphs")
    p_sub = p.add_subparsers(dest="action", required=True)
    p_list = p_sub.add_parser("list")
    add_format(p_list)
    p_list.set_defaults(fn=cmd_gallery, action="list")
    p_emit = p_sub.add_parser("emit")
    p_emit.add_argument("id")
    add_format(p_emit)
    p_emit.set_defaults(fn=cmd_gallery, action="emit")

    p = sub.add_parser("cis-line",
                       help="CIS recognition for line graphs / root graphs")
    add_input(p)
    add_verify(p)
    p.set_defaults(fn=cmd_cis_line)

    p = sub.add_parser("equistable", help="exact equistability decision")
    add_input(p)
    add_verify(p)
    p.set_defaults(fn=cmd_equistable)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull, so that the flush
        # at interpreter exit finds no closed pipe either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InputError, GraphError, UnsupportedSize) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SearchUndecided, FamilyCapExceeded, eq.WeightingUndecided) as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
