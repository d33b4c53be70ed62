"""One pass of a workload in a fresh interpreter.

``bench/run.py`` starts this script from the checkout root as

    python3 bench/worker.py '<json spec>'

The spec holds the workload, seed, mode ("setup" or "pass"), whether to
trace, the smoke flag, whether to send only the first half of the
stream, and the parent's ``time.monotonic()`` at spawn.  The script
prints one JSON line.

A pass sends every request of the stream to ``cisgraphs.cli.main`` in
this process, one after the other (closed loop, one client), with the
graph on stdin and stdout captured.  Its wall time is the sum of the
request latencies.  The outputs are checked after the timed pass, so
checking costs nothing in the latencies.  A probe thread
(``bench/reference.py``) times the machine's speed throughout, which
gives a speed factor for the set-up and for each request.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import monotonic, perf_counter

from reference import Probe


def _send(cli, argv, text):
    """One request; returns (exit code, or how it ended without one,
    stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = f"SystemExit({exc.code})"
    except Exception:  # a traceback is a failed request, not a failed run
        rc = "exception"
        err.write(traceback.format_exc())
    finally:
        sys.stdin = sys.__stdin__
    return rc, out.getvalue(), err.getvalue()


def run(spec: dict) -> dict:
    if sys.flags.optimize:
        # is_almost_cis runs its split-partition oracle through assert
        raise SystemExit("the benchmark must run without python -O")
    started = perf_counter()
    probe = Probe()
    probe.start()
    try:
        return _run(spec, started, probe)
    finally:
        probe.stop()


def _run(spec: dict, started: float, probe: Probe) -> dict:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from cisgraphs import cli

    import workloads

    tracer = None
    build = workloads.build_stream
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        build = tracer.span("bench.setup", build)
    stream = build(spec["workload"], spec["seed"], spec["smoke"])
    if spec["half"] and len(stream) > 1:
        stream = stream[:len(stream) // 2]
    result = {"setup_s": monotonic() - spec["spawned"]}
    ready = perf_counter()
    if spec["mode"] == "setup":
        probe.stop()
        result["setup_factor"] = probe.factor(started, ready)
        return result

    send = _send if tracer is None else tracer.span("bench.request", _send)
    intervals, outputs = [], []
    for _, argv, text in stream:
        t = perf_counter()
        outputs.append(send(cli, argv, text))
        intervals.append((t, perf_counter()))
    probe.stop()
    latencies = [end - start for start, end in intervals]

    failures = []
    failed = 0
    attempted = workloads.items(stream)
    for (kind, argv, text), (rc, stdout, stderr) in zip(stream, outputs):
        reason = workloads.check_output(kind, argv, rc, stdout)
        if reason is None:
            continue
        if kind == "scan":
            try:
                failed += workloads.scan_failed_classes(stdout) or attempted
            except (ValueError, KeyError):
                failed += attempted
        else:
            failed += 1
        failures.append(f"{kind} {text.strip()}: {reason} {stderr[-300:]}")

    result.update(
        setup_factor=probe.factor(started, ready),
        wall_s=sum(latencies),
        latencies_s=latencies,
        factors=[probe.factor(start, end) for start, end in intervals],
        attempted=attempted,
        failed=failed,
        failures=failures[:5],
        digest=workloads.digest((req[0], rc, stdout) for req, (rc, stdout, _)
                                in zip(stream, outputs)),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
