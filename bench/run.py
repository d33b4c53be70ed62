"""The cisgraphs benchmark: one command, three workloads, every metric
printed by name with its unit, and every output checked.

    python3 bench/run.py --workload scan7 --seed 1 --seconds 30 --trace 0

Run it from the repository root; it needs nothing beyond the repository's
own dependencies.  Each pass runs in a fresh interpreter
(``bench/worker.py``), without ``-O`` and without cached bytecode.

Workloads (closed loop, one client, one process at a time; the program
runs in the worker's main thread):

* ``scan7``: ``cisgraphs scan --max-n 7``, the exhaustive check of the
  inclusion arrows over all 1,252 graph classes on up to 7 vertices.  The
  inputs are exhaustive, so the seed changes nothing.  Generating the
  classes happens in every fresh interpreter and counts as set-up.
* ``lp-queries``: ``classify`` and ``equistable --verify`` requests on
  gallery witnesses and seeded graphs of 8..16 vertices, where the exact
  LP decides equistability.
* ``lpfree-queries``: ``classify`` requests on graphs of 17..62 vertices,
  where the LP and the perfect-graph test report "unsupported", and
  ``cis-line --verify`` requests on line graphs of seeded roots.

With ``--trace 0`` the run makes as many passes as fit in ``--seconds``
(at least the workload's minimum) and reports the end-to-end metrics:
medians over passes, latency percentiles over all requests, set-up time
as the median over several fresh interpreters.  These times are in
reference seconds: each set-up and each request time is multiplied by
the machine's speed factor around it, which a probe thread in the worker
measures with a fixed kernel (``bench/reference.py``), so that the
host's own drift in speed does not read as a change of the program.  The
measured seconds are printed next to the metrics.  With ``--trace 1`` it
makes one untraced and one traced pass over the same requests and
reports the per-layer metrics of ``bench/tracer.py``: span times in
measured seconds, and the tracing overhead in reference seconds.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A request fails when
it raises, exits with a code other than 0, or its output fails its
check; for the default seed the outputs must also match the digest
recorded in ``bench/digests.json`` (update it there, from the digest this
script prints, only when the program's output is meant to change).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from tracer import layer_metrics  # noqa: E402

WORKER = os.path.join(BENCH_DIR, "worker.py")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
# workloads, metric names and units, and run length
with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"),
          encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
DEFAULT_SEED = 1
RUN_DEADLINE_S = 170  # a run must end within 180 s

# Passes and set-up samples per run, at the least.  A query pass takes
# most of a run; a scan pass is shorter, and its set-up is seconds long.
MIN_PASSES = {"scan7": 3, "lp-queries": 1, "lpfree-queries": 1}
MIN_SETUPS = {"scan7": 3, "lp-queries": 7, "lpfree-queries": 7}


class BenchError(RuntimeError):
    pass


def _spawn(spec: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON record."""
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONHASHSEED"] = "0"  # the same str hashing in every pass
    # every set-up compiles the package from source, whatever the caller's
    # environment, and nothing is written into the checkout
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    spec = dict(spec, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            capture_output=True, text=True, env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {spec}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker failed with exit code {proc.returncode}: {proc.stderr}")
    return json.loads(lines[-1])


def _reference_latencies(record: dict) -> list:
    """A pass's request latencies in reference seconds."""
    return [x * f for x, f in zip(record["latencies_s"], record["factors"])]


def _percentile(samples, q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _expected_digest(workload: str, seed: int):
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    # a scan's inputs do not depend on the seed
    key = workload if workload == "scan7" else f"{workload}/{seed}"
    return digests.get(key)


def _machine() -> list:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nx_version = metadata.version("networkx")
    except metadata.PackageNotFoundError:
        nx_version = "not installed"
    return [
        f"nproc: {len(os.sched_getaffinity(0))}",
        f"cpu: {model}",
        f"python: {platform.python_version()}",
        f"networkx: {nx_version}",
    ]


def measure(workload: str, seed: int, seconds: float, smoke: bool):
    """Untraced passes and set-up samples.  Returns the pass records, the
    end-to-end metrics, a note per metric and the expected digest."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    spec = {"workload": workload, "seed": seed, "trace": False,
            "smoke": smoke, "half": False}
    passes, setups = [], []
    min_passes = 1 if smoke else MIN_PASSES[workload]
    min_setups = 2 if smoke else MIN_SETUPS[workload]
    while True:
        passes.append(_spawn(dict(spec, mode="pass"), deadline))
        setups.append(passes[-1])
        elapsed = time.monotonic() - start
        # stop when the next pass would end after --seconds
        if len(passes) >= min_passes and \
                elapsed + elapsed / len(passes) > seconds:
            break
    while len(setups) < min_setups:
        setups.append(_spawn(dict(spec, mode="setup"), deadline))

    per_pass = [_reference_latencies(p) for p in passes]
    latencies = [x for lats in per_pass for x in lats]
    wall = statistics.median(sum(lats) for lats in per_pass)
    items = passes[0]["attempted"]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * s["setup_factor"]
                                     for s in setups),
        "wall_s": wall,
        "items_per_s": items / wall,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * _percentile(latencies, 90),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    unit = "graph classes" if workload == "scan7" else "requests"
    measured = statistics.median(s["setup_s"] for s in setups)
    measured_wall = statistics.median(p["wall_s"] for p in passes)
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters; "
                   f"measured {measured:.4f} s",
        "wall_s": f"median of {len(passes)} passes; measured "
                  f"{measured_wall:.4f} s",
        "items_per_s": f"{items} {unit} per pass",
        "latency_p50_ms": f"{len(latencies)} requests",
        "latency_p90_ms": f"{len(latencies)} requests",
        "peak_rss_mb": f"median of {len(passes)} passes",
    }
    expected = None if smoke else _expected_digest(workload, seed)
    return passes, metrics, notes, expected


def traced(workload: str, seed: int, smoke: bool):
    """An untraced and a traced pass over the same requests: the first
    half of a query stream, so that both passes fit in one run."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec = {"workload": workload, "seed": seed, "smoke": smoke,
            "mode": "pass", "half": not smoke}
    plain = _spawn(dict(spec, trace=False), deadline)
    with_trace = _spawn(dict(spec, trace=True), deadline)
    walls = [sum(_reference_latencies(p)) for p in (with_trace, plain)]
    metrics = layer_metrics(with_trace["trace"], with_trace["attempted"],
                            walls[0] - walls[1])
    notes = {"trace.overhead_s": f"reference seconds: {walls[0]} traced, "
                                 f"{walls[1]} untraced, "
                                 f"{with_trace['attempted']} items"}
    # the traced pass must not change a single output byte
    return [plain, with_trace], metrics, notes, plain["digest"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WHY))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal pass, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cisgraphs", "__init__.py")):
        print("error: run from the repository root (src/cisgraphs not found)",
              file=sys.stderr)
        return 2

    try:
        if args.trace:
            passes, metrics, notes, expected = traced(
                args.workload, args.seed, args.smoke)
        else:
            passes, metrics, notes, expected = measure(
                args.workload, args.seed, args.seconds, args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["digest"] for p in passes}
    problems = [f for p in passes for f in p["failures"]]
    if len(digests) > 1:
        problems.append("passes over the same requests gave different outputs")
    if expected is not None and digests != {expected}:
        problems.append(f"outputs do not match the recorded digest {expected}")

    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(f"workload: {args.workload} (seed {args.seed}): "
          f"{WHY[args.workload]}")
    for line in _machine():
        print(line)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value} {units[name]}{note}")
    print(f"fail_frac = {failed / attempted} ({failed} of {attempted})")
    print(f"output digest: {' '.join(sorted(digests))}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
