"""The evoq benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--threads T]

Run from the root of a checkout.  The runner generates the workload's JSON
configs from the seed, starts a fresh worker process that imports
`evoq.cli` from `src/` and issues the commands one at a time through
`evoq.cli.main(argv)`, checks every output, and prints the metrics named in
BENCHMARK.json, the last line being one JSON object.  `--trace 0` gives the
end-to-end metrics, `--trace 1` the per-layer ones from a traced run.
`--threads T` pins the BLAS pools to T threads (information-only runs).
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import summarize  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 2           # set-up-only launches before and again after the worker
IMPORT_SAMPLES = 3         # `python -X importtime` probes in a traced run
RUN_TIMEOUT_S = 170        # the whole run must end within 180 s


class BenchError(RuntimeError):
    pass


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.CELLS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--threads", type=int, default=None,
                   help="pin OPENBLAS/OMP/EVOQ threads (information-only baseline)")
    return p.parse_args(argv)


def _worker_env(root, threads):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if threads is not None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "EVOQ_THREADS"):
            env[var] = str(threads)
    return env


def _write_inputs(work, root, args):
    # A traced run issues every command twice (traced and untraced), so it
    # takes half the cycles to last about as long as an untraced run.
    cycles = workloads.cycles_for(args.workload, args.seconds / (1 + args.trace))
    commands = workloads.generate(args.workload, args.seed, cycles)
    for i, cmd in enumerate(commands):
        cfg_path = os.path.join(work, f"config-{i:04d}.json")
        with open(cfg_path, "w") as fh:
            json.dump(cmd.pop("config"), fh)
        argv = cmd.pop("args")
        argv = argv[:1] + ["--config", cfg_path] + argv[1:]
        if cmd.pop("out"):
            cmd["out"] = os.path.join(work, f"out-{i:04d}")
            argv += ["--out", cmd["out"]]
        cmd.update(argv=argv, config=cfg_path)
    manifest = os.path.join(work, "manifest.json")
    with open(manifest, "w") as fh:
        json.dump({"src": os.path.join(root, "src"), "trace": bool(args.trace),
                   "cap_seconds": RUN_TIMEOUT_S - 30, "commands": commands}, fh)
    return manifest, len(commands)


def _launch(manifest, result, env, deadline, setup_only):
    """Start a worker; returns (process, seconds from launch to "ready")."""
    cmd = [sys.executable, WORKER, manifest, result] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise BenchError("the worker could not set up (is src/evoq in this checkout?)")
    return proc, ready


def _finish(proc, deadline):
    """Wait for a worker until the run's deadline; a late worker is killed."""
    try:
        proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"the worker exited with code {proc.returncode} "
                         "or ran out of time")


def _import_times(env) -> dict:
    """Median cumulative import times (ms) of evoq.cli and evoq.transform."""
    samples = {"evoq.cli": [], "evoq.transform": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import evoq.cli"],
                              env=env, capture_output=True, text=True, timeout=60)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)$", line.rstrip())
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1e3)
    if any(len(v) != IMPORT_SAMPLES for v in samples.values()):
        raise BenchError("could not read import times of evoq.cli")
    return {"import.evoq_cli.cum_ms": statistics.median(samples["evoq.cli"]),
            "import.evoq_transform.cum_ms": statistics.median(samples["evoq.transform"])}


def end_to_end(res, setups) -> dict:
    lat = res["latency_s"]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["passed"] / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        "cpu_s": sum(res["cpu_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "passed_share": res["passed"] / len(lat),
    }


def per_layer(res, names, env) -> dict:
    rows = summarize(res["spans"])
    values = {"trace.overhead_share": sum(res["latency_s"]) / sum(res["untraced_s"]) - 1.0,
              **_import_times(env)}
    stat_of = {"calls": "calls", "self_ms": "self_ms", "repeat_share": "repeat_share",
               "bytes": "value", "gflop": "value"}
    for name in names:
        if name in values:
            continue
        span, stat = name.rsplit(".", 1)
        if stat not in stat_of:
            raise BenchError(f"no rule computes per-layer metric {name!r}")
        values[name] = rows[span][stat_of[stat]] if span in rows else 0
    return values


def run(args, root) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = _worker_env(root, args.threads)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        manifest, issued = _write_inputs(work, root, args)
        result_path = os.path.join(work, "result.json")
        probes = 0 if args.trace else SETUP_PROBES

        def set_up_alone():
            proc, ready = _launch(manifest, result_path, env, deadline, setup_only=True)
            _finish(proc, deadline)
            return ready

        setups = [set_up_alone() for _ in range(probes)]
        proc, ready = _launch(manifest, result_path, env, deadline, setup_only=False)
        setups.append(ready)
        _finish(proc, deadline)
        setups += [set_up_alone() for _ in range(probes)]
        with open(result_path) as fh:
            res = json.load(fh)
        if args.trace:
            values = per_layer(res, [m["name"] for m in wanted], env)
        else:
            values = end_to_end(res, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(work))

    attempted = len(res["latency_s"])
    failed = len(res["failures"])
    print(f"environment: {json.dumps({**res['environment'], 'seed': args.seed})}")
    print(f"workload {args.workload}: {attempted} of {issued} commands attempted "
          f"(the latency samples), {failed} failed, trace={args.trace}")
    for f in res["failures"]:
        print(f"  FAILED command {f['command']} ({f['cell']}): {f['reason']}")
    if res.get("truncated"):
        print("  WARNING: the run hit its time cap; figures cover fewer commands")
    for m in wanted:
        print(f"  {m['name']:48s} {values[m['name']]:>14.6g} {m['unit']}")
    return {
        "correct": failed == 0 and not res.get("truncated", False),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "evoq", "cli.py")):
        print("run.py: no src/evoq in this checkout; nothing to benchmark", file=sys.stderr)
        return 2
    try:
        result = run(args, root)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
