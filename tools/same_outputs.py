"""Check that two source trees of evoq produce byte-identical CLI outputs.

    python3 tools/same_outputs.py OLD_SRC NEW_SRC [--workload NAME --seed S]
                                  [--only REGEX] [--old-env KEY=VALUE ...]

OLD_SRC and NEW_SRC are the `src` directories of two checkouts.  Each
command runs in its own process, once with each tree alone on PYTHONPATH,
in a per-tree working directory with the same relative config and output
paths, so messages that name a path are comparable.  Exit codes, stdout,
stderr and every file the commands wrote are compared byte for byte; the
script prints each difference and exits 0 only if there is none (1 if some
output differs, 2 if a tree holds no `evoq` package).

The default command set (65 commands):
  - `solve`, `adjoint` and the four `verify` suites on each bundled config;
  - `control` and `control --certify-duality` on `heat_small` and
    `pointwise_decay`;
  - both on 18 dense-control configs drawn by the benchmark's generator
    (heat, wave, Maxwell x n in {32, 64} x B in {I, e1, zero});
  - `suite acceptance --json`.
`--workload NAME --seed S` runs one cycle of a benchmark workload from
`perfbench/workloads.py` instead.  `--only REGEX` keeps the commands whose
label matches.  `--old-env KEY=VALUE` (repeatable) sets an environment
variable for the OLD tree's commands only, say `OPENBLAS_NUM_THREADS=1` to
compare a change against its parent run on one BLAS thread.  Run from
anywhere; configs are read from this checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUNDLED = ("heat_small", "wave_small", "maxwell_small", "pointwise_decay")
SUITES = ("duality", "causality", "reversal", "nu-independence")


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bundled(name):
    with open(os.path.join(ROOT, "configs", f"{name}.json")) as fh:
        return json.load(fh)


def default_commands():
    """(label, argv without --config/--out, config dict or None) triples."""
    commands = []
    for name in BUNDLED:
        config = _bundled(name)
        commands.append((f"solve/{name}", ["solve"], config))
        commands.append((f"adjoint/{name}", ["adjoint"], config))
        commands += [(f"verify-{suite}/{name}", ["verify", "--suite", suite], config)
                     for suite in SUITES]
    for name in ("heat_small", "pointwise_decay"):
        config = _bundled(name)
        commands.append((f"control/{name}", ["control"], config))
        commands.append((f"certify/{name}", ["control", "--certify-duality"], config))
    workloads = _workloads()
    rng = random.Random("same-outputs")
    for kind in workloads.KINDS:
        for n in (32, 64):
            for b in ("I", "e1", "zero"):
                config = workloads._command(("control", kind, n, b), rng)["config"]
                label = f"dense-{kind}-n{n}-{b}"
                commands.append((f"control/{label}", ["control", "--json"], config))
                commands.append((f"certify/{label}",
                                 ["control", "--certify-duality", "--json"], config))
    commands.append(("suite-acceptance", ["suite", "acceptance", "--json"], None))
    return commands


def workload_commands(name, seed):
    commands = []
    for i, entry in enumerate(_workloads().generate(name, seed, 1)):
        commands.append((f"{i:03d}-{entry['cell']}", entry["args"], entry["config"]))
    return commands


def _run(env, workdir, index, argv, config):
    """Run one command in `workdir`; returns (exit code, stdout, stderr)."""
    argv = list(argv)
    out = os.path.join("out", f"{index:03d}")
    if config is not None:
        cfg = os.path.join("configs", f"{index:03d}.json")
        with open(os.path.join(workdir, cfg), "w") as fh:
            json.dump(config, fh)
        argv[1:1] = ["--config", cfg]
    argv += ["--out", out]
    proc = subprocess.run([sys.executable, "-m", "evoq.cli", *argv], cwd=workdir,
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def _files(top):
    found = {}
    for dirpath, _, names in os.walk(top):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, top)] = fh.read()
    return found


def compare(old_src, new_src, commands, work, old_env=None):
    """Run every command on both trees, the old one with `old_env` added to
    its environment; returns the list of differences."""
    envs = {"old": {**os.environ, **(old_env or {}), "PYTHONPATH": old_src},
            "new": {**os.environ, "PYTHONPATH": new_src}}
    sides = {}
    for side in ("old", "new"):
        workdir = os.path.join(work, side)
        os.makedirs(os.path.join(workdir, "configs"))
        os.makedirs(os.path.join(workdir, "out"))
        sides[side] = workdir
    differences = []
    for index, (label, argv, config) in enumerate(commands):
        old = _run(envs["old"], sides["old"], index, argv, config)
        new = _run(envs["new"], sides["new"], index, argv, config)
        found = [what for what, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                 if a != b]
        out = os.path.join("out", f"{index:03d}")
        old_files = _files(os.path.join(sides["old"], out))
        new_files = _files(os.path.join(sides["new"], out))
        found += [f"file {name}" for name in sorted(set(old_files) | set(new_files))
                  if old_files.get(name) != new_files.get(name)]
        status = "DIFFERS: " + ", ".join(found) if found else "same"
        print(f"[{index + 1}/{len(commands)}] {label} (exit {old[0]}, "
              f"{len(old_files)} files): {status}", flush=True)
        differences += [f"{label}: {what}" for what in found]
    return differences


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src")
    p.add_argument("new_src")
    p.add_argument("--workload", help="one cycle of this benchmark workload")
    p.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    p.add_argument("--only", help="keep the commands whose label matches this regex")
    p.add_argument("--old-env", action="append", default=[], metavar="KEY=VALUE",
                   help="set an environment variable for the old tree's commands "
                        "(repeatable)")
    args = p.parse_args(argv)
    old_env = {}
    for item in args.old_env:
        key, sep, value = item.partition("=")
        if not key or not sep:
            p.error(f"--old-env needs KEY=VALUE, got {item!r}")
        old_env[key] = value

    old_src, new_src = (os.path.realpath(s) for s in (args.old_src, args.new_src))
    # With the tree first on PYTHONPATH and a working directory without an
    # `evoq` of its own, this is the package every command imports.
    missing = [src for src in (old_src, new_src)
               if not os.path.isfile(os.path.join(src, "evoq", "__init__.py"))]
    if missing:
        print(f"no evoq package in {', '.join(missing)}", file=sys.stderr)
        return 2
    commands = (workload_commands(args.workload, args.seed) if args.workload
                else default_commands())
    if args.only:
        commands = [c for c in commands if re.search(args.only, c[0])]
    if not commands:
        print("no command selected", file=sys.stderr)
        return 2

    work = tempfile.mkdtemp(prefix="same_outputs_")
    try:
        differences = compare(old_src, new_src, commands, work, old_env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if differences:
        print(f"{len(differences)} difference(s) over {len(commands)} commands:")
        print("\n".join(f"  {d}" for d in differences))
        return 1
    print(f"all outputs identical over {len(commands)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
