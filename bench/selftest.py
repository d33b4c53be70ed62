"""The benchmark's own tests: a minimal-size pass of every workload, traced
and untraced, plus the output checks on outputs known to be wrong.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the package's default test run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from reference import (  # noqa: E402
    REFERENCE_S, WARMUP_SLICES, WINDOW_S, Probe,
)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    """``python3 bench/run.py ARGS`` in ``cwd``, as the benchmark is run."""
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace:
        lp_calls = result["metrics"]["lp.solve_equality_lp.calls"]["value"]
        assert (lp_calls == 0) == (workload == "lpfree-queries")
        # maximal_cliques is reached through names copied into other modules
        assert result["metrics"]["cliques.maximal_cliques.calls"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_streams_follow_the_seed():
    for workload in ("lp-queries", "lpfree-queries"):
        first = workloads.build_stream(workload, 5)
        assert first == workloads.build_stream(workload, 5)
        assert first != workloads.build_stream(workload, 6)
        assert len(first) >= 100


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "lp-queries", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_broken_program_fails_its_checks(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for tree in ("src", "bench"):
        shutil.copytree(os.path.join(ROOT, tree), tmp_path / tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "cisgraphs" / "cli.py"
    source = cli.read_text()
    assert 'payload["verified"] = True' in source
    cli.write_text(source.replace('payload["verified"] = True',
                                  'payload["verified"] = False'))
    proc = _run("--workload", "lp-queries", "--seed", "1", "--seconds", "1",
                "--trace", "0", "--smoke", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    # every equistable request fails, and they are half of the smoke stream
    assert result["failed"] * 2 == result["attempted"] > 0
    assert "certificates not re-verified" in proc.stdout


def test_worker_refuses_python_O():
    spec = {"workload": "lp-queries", "seed": 1, "trace": False, "smoke": True,
            "half": False, "mode": "setup", "spawned": 0.0}
    proc = subprocess.run(
        [sys.executable, "-O", os.path.join(BENCH, "worker.py"),
         json.dumps(spec)],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert proc.returncode != 0 and "-O" in proc.stderr


def _classify_payload():
    out = subprocess.run(
        [sys.executable, "-m", "cisgraphs.cli", "classify", "-i", "gallery:C9",
         "--format", "json"],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )
    return json.loads(out.stdout)


def test_checks_accept_good_and_reject_bad_outputs():
    payload = _classify_payload()
    assert workloads.check_classify(payload) is None
    broken = json.loads(json.dumps(payload))
    broken["base"]["threshold"], broken["base"]["cograph"] = True, False
    assert "threshold -> cograph" in workloads.check_classify(broken)
    broken = json.loads(json.dumps(payload))
    broken["complement_base"]["cis"] = not payload["base"]["cis"]
    assert workloads.check_classify(broken) is not None

    assert workloads.check_equistable({"verified": True}) is None
    assert workloads.check_equistable({}) is not None

    entry = {"root_graph6": "Es\\o", "maximal_matching_crosscheck": True}
    assert workloads.check_cis_line({"verdicts": [entry]}) is None
    entry["maximal_matching_crosscheck"] = False
    assert workloads.check_cis_line({"verdicts": [entry]}) is not None

    scan = {"ok": True, "counts": {"1": 1, "2": 2, "3": 4}}
    assert workloads.check_scan(scan, 3) is None
    assert workloads.check_scan(dict(scan, ok=False), 3) is not None
    assert workloads.check_scan(scan, 4) is not None
    assert workloads.check_output("scan", ["scan", "--max-n", "3"], 1,
                                  json.dumps(scan)) == "exit code 1"
    assert workloads.check_output("equistable", [], 0, "Traceback") == \
        "output is not JSON"


def test_speed_factor_uses_the_slices_around_an_interval():
    probe = Probe()
    probe.stamps = [0.0, 1.0, 2.0, 10.0]
    probe.cpu = [REFERENCE_S, REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S]
    assert probe.factor(0.5, 1.5) == 1.0
    assert probe.factor(10.0 - WINDOW_S / 2, 10.0) == 0.5
    # no slice near the interval: all slices
    assert probe.factor(5.0, 5.0) == pytest.approx(4 / 5)
    live = Probe()
    live.start()
    live.stop()
    assert len(live.cpu) >= WARMUP_SLICES and min(live.cpu) > 0
