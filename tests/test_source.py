import ast
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import cisgraphs

PACKAGE_DIR = pathlib.Path(cisgraphs.__file__).parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _run_python(code):
    """``code`` run in a fresh interpreter with the package's source on
    the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)


def test_no_runtime_check_uses_assert():
    # python -O strips assert statements, so no check in the package
    # may depend on one
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def imported_modules(path):
    """(line, top-level module name) of each import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.split(".")[0]


def test_oracles_import_no_private_graph_code():
    # the canonical-form oracle keeps its own refinement and relabelling,
    # so that a change to the package's refinement cannot pass by
    # changing the oracle with it
    path = pathlib.Path(__file__).with_name("oracles.py")
    found = [
        f"{node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and node.module == "cisgraphs.graphs"
        for alias in node.names if alias.name.startswith("_")
    ]
    assert found == []


def test_only_equistable_imports_fractions():
    # the LP hands back integers over one denominator; Fraction is built
    # only where the equistable module prints a rational or reads one in
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "equistable.py"
        for line, name in imported_modules(path) if name == "fractions"
    ]
    assert found == []


def test_equistable_builds_fractions_only_at_its_edges():
    # the equistable analysis and the weighting walk compute in integers
    # over one denominator; a Fraction is built only for a rational that
    # the module prints (a certificate's weights or forced value) or reads
    # in (the weights verify_weighting checks)
    path = PACKAGE_DIR / "equistable.py"
    tree = ast.parse(path.read_text(), str(path))
    found = set()
    for top in tree.body:
        owner = getattr(top, "name", f"line {top.lineno}")
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and node.module == "fractions":
                # an alias would hide the name from the check below
                found.update(f"{owner}: as {a.asname}" for a in node.names
                             if a.asname)
            elif (isinstance(node, ast.Name) and node.id == "Fraction"
                  or isinstance(node, ast.Attribute)
                  and node.attr == "Fraction"):
                found.add(owner)
    allowed = {"EquistableCertificate", "_forced_subsets", "is_equistable",
               "forced_value", "verify_weighting"}
    assert found - allowed == set()


def test_oracle_evaluators_read_no_arrow():
    # classify decides the LP bases by the proven arrows; the evaluator,
    # the table check and the scan decide every base directly, since at
    # n <= 8 they are the oracle that the arrows are checked against
    path = PACKAGE_DIR / "hasse.py"
    tree = ast.parse(path.read_text(), str(path))
    owners = {"MembershipCache", "verify_table", "scan"}
    found = []
    for top in tree.body:
        if getattr(top, "name", None) not in owners:
            continue
        owners.remove(top.name)
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            if name in ("lp_bases_by_arrows", "LP_CHAIN"):
                found.append(f"{top.name}:{node.lineno}")
    assert owners == set()
    assert found == []


def traced_layer_names():
    """The span names that bench/tracer.py reads with ``calls(...)`` or
    ``seconds(...)``, from its source."""
    path = BENCH_DIR / "tracer.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("calls", "seconds")):
            yield node.args[0].value


def test_bench_layer_names_resolve():
    # a span name that names nothing in the package reads 0 in the bench
    # without failing anything; the one such name today is a metric the
    # next benchmark change drops
    missing = []
    names = sorted(set(traced_layer_names()))
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"cisgraphs.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj) or inspect.isgeneratorfunction(obj):
            missing.append(name)
    assert len(names) > 10
    assert missing == ["recognizers.count_split_partitions"]


def test_cli_import_leaves_networkx_out():
    # networkx is a test oracle only: no package module imports it, and
    # a blossom-backed request (every H(x) of K6,6 has 30 edges) ends
    # without it loaded; importing it would take about 0.15 s
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for line, name in imported_modules(path) if name == "networkx"
    ]
    assert found == []
    code = """
import contextlib, io, json, sys
from cisgraphs import cli
from cisgraphs.gallery import complete_bipartite
from cisgraphs.graphs import encode_graph6
from cisgraphs.linegraph import line_graph
sys.stdin = io.StringIO(encode_graph6(line_graph(complete_bipartite(6, 6))))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["cis-line", "--verify", "-i", "-", "--format", "json"])
verdicts = json.loads(out.getvalue())["verdicts"]
backends = [v["matching_backend"] for v in verdicts]
print(json.dumps([code, backends, "networkx" in sys.modules]))
"""
    assert json.loads(_run_python(code).stdout) == [0, ["blossom"], False]


def test_bench_tracer_installs():
    # bench/tracer.py wraps the package's public functions by name and
    # hooks MembershipCache.base; renaming either breaks ``--trace 1``.
    # The LP and equistable spans must record calls too: a generator or a
    # call that bypasses the wrapped name would read 0 in the bench's LP
    # counters without failing anything else.  Cir9 is triangle and not
    # semi-weakly CIS, so classify runs the LP on it
    code = f"""
import contextlib, io, json, sys
sys.dont_write_bytecode = True  # read bench/, write nothing there
sys.path.insert(0, {str(BENCH_DIR)!r})
import tracer
t = tracer.Tracer()
t.install()
from cisgraphs import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["classify", "-i", "gallery:Cir9"])
print(json.dumps([code, t.summary()["names"]]))
"""
    code, names = json.loads(_run_python(code).stdout)
    assert code == 0
    for name in ("hasse.MembershipCache.base", "search.disjointness",
                 "lp.solve_equality_lp", "equistable.decision"):
        assert names[name]["calls"] > 0


def test_bench_digests_reproduced():
    # the seed-1 outputs of every bench workload, sent through cli.main
    # as bench/worker.py sends them, hash to the digests the benchmark
    # checks; a changed output byte fails here, not only in a bench run
    code = f"""
import json, sys
sys.dont_write_bytecode = True  # read bench/, write nothing there
sys.path.insert(0, {str(BENCH_DIR)!r})
import workloads, worker
from cisgraphs import cli
found = {{}}
for name in workloads.WORKLOADS:
    stream = workloads.build_stream(name, 1)
    outputs = [worker._send(cli, argv, text) for _, argv, text in stream]
    key = name if name == "scan7" else name + "/1"
    found[key] = workloads.digest(
        (req[0], rc, out) for req, (rc, out, _) in zip(stream, outputs))
print(json.dumps(found))
"""
    found = json.loads(_run_python(code).stdout)
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())
    assert found == recorded
