"""One workload process: set up like a CLI user, then issue every command.

    python3 worker.py MANIFEST RESULT [--setup-only]

Imports `evoq.cli` from the checkout's `src/`, loads the manifest the
runner generated, prints "ready" (the runner times set-up up to that line),
then calls `evoq.cli.main(argv)` once per command in a closed loop with one
client, checks each output and writes latencies, CPU times, failures and
(in a traced run) the spans to RESULT as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "EVOQ_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _call(cli, argv):
    """Run one command; returns (exit code or None, stdout, error, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a command must never take the run down
        error = f"uncaught {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    return code, out.getvalue(), error, wall, cpu


def main(argv) -> int:
    manifest_path, result_path = argv[0], argv[1]
    setup_only = "--setup-only" in argv[2:]

    import evoq
    import evoq.cli
    import evoq.config
    import evoq.control
    import evoq.signals
    import evoq.solver

    with open(manifest_path) as fh:
        manifest = json.load(fh)
    expected_src = os.path.realpath(manifest["src"])
    if os.path.dirname(os.path.realpath(os.path.dirname(evoq.__file__))) != expected_src:
        print(f"worker: imported evoq from {evoq.__file__}, not from {expected_src}",
              file=sys.stderr)
        return 2
    print("ready", flush=True)
    if setup_only:
        return 0

    from checks import check

    tracer = None
    if manifest["trace"]:
        from tracing import Tracer
        tracer = Tracer()

    result = {"environment": _environment(), "latency_s": [], "cpu_s": [],
              "untraced_s": [], "passed": 0, "failures": []}
    deadline = time.perf_counter() + manifest["cap_seconds"]
    for i, cmd in enumerate(manifest["commands"]):
        if time.perf_counter() > deadline:
            result["truncated"] = True
            break
        ctx = {"evoq": evoq, "config": cmd["config"], "out": cmd.get("out")}
        # A traced run issues each command twice, traced and untraced, in
        # alternating order, so the overhead share compares like with like.
        modes = [False] if tracer is None else ([True, False] if i % 2 else [False, True])
        reason = None
        for traced in modes:
            if traced:
                tracer.command = i
                tracer.install()
            try:
                code, stdout, error, wall, cpu = _call(evoq.cli, cmd["argv"])
            finally:
                if traced:
                    tracer.uninstall()
            reason = reason or error or check(cmd["expect"], code, stdout, ctx)
            if traced or tracer is None:
                result["latency_s"].append(wall)
                result["cpu_s"].append(cpu)
            else:
                result["untraced_s"].append(wall)
            if ctx["out"]:
                shutil.rmtree(ctx["out"], ignore_errors=True)
        if reason is None:
            result["passed"] += 1
        else:
            result["failures"].append({"command": i, "cell": cmd["cell"], "reason": reason})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        # Spans stay in memory during the run and are written out once, here.
        result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
