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

The default command set (96 commands):
  - `solve`, `adjoint` and the four `verify` suites on each bundled config;
  - `control` and `control --certify-duality` on `heat_small` and
    `pointwise_decay`, and on `heat_small` at n = 32 with B[1][0] = 1e100,
    whose sigma_max(L_G) ~ 7e99 sends the Douglas check through its scaling;
  - two whose sums of squares leave the float range, so that their norms
    are taken on data scaled by a power of two: `verify --suite causality`
    on `heat_small` at nu = 1e-300, and `control` on `pointwise_decay` at
    n = 64 with U0 = [[1e308, 0]];
  - three whose solves or SVDs take their data into range by a power of
    two: `solve` on `heat_small` with rhs amplitude 1e306, and `control` on
    `pointwise_decay` at n = 64 with B = [[1.7e308, 1.7e308]] and on
    `heat_small` at n = 32 with B[0][0] = [1.7e308, 1.7e308];
  - both on `wave_small` at n = 512, whose end maps would pass their size
    guard of 4,000,000 entries: B = I takes the B route, which assembles none;
  - both on `heat_small` (B = e1) and `maxwell_small` (B = 0) at n = 512,
    past the same guard: certify's separating route decides these
    rank-deficient B with no end map, and `control`'s L_G route builds
    L_G alone, a ninth of the end maps' entries;
  - both on 18 dense-control configs drawn by the benchmark's generator
    (heat, wave, Maxwell x n in {32, 64} x B in {I, e1, zero});
  - both on heat, wave and Maxwell at n = 32 with a seeded random 9 x 9 B
    of condition number 10, so that a c_obs other than 1 is compared, and
    both with the same B at n = 96, where they take the B route under a B
    that is not orthonormal: the least-norm control comes from conjugate
    gradients, and certify's feasibility from the explicit control;
  - both on heat, wave and Maxwell at n = 32 with a seeded random 9 x 9 B
    of condition number 99, just under the B route's limit of 100: certify
    decides it from B alone, and `control` needs the datum's bracket;
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

import numpy as np

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


def _conditioned(rng, m, kappa):
    """A random m x m complex B with singular values from 1 down to
    1/kappa, drawn from `rng`, as the config's rows of [re, im] pairs."""
    left, right = (np.linalg.qr(rng.standard_normal((m, m))
                                + 1j * rng.standard_normal((m, m)))[0] for _ in range(2))
    B = (left * np.geomspace(1.0, 1.0 / kappa, m)) @ right.conj().T
    return [[[float(v.real), float(v.imag)] for v in row] for row in B]


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
    config = _bundled("heat_small")
    config["grid"]["n"] = 32
    config["control"]["B"][1][0] = [1e100, 0.0]
    commands.append(("control/heat_small-huge-B", ["control"], config))
    commands.append(("certify/heat_small-huge-B", ["control", "--certify-duality"], config))
    config = _bundled("heat_small")
    config["nu"] = 1e-300
    commands.append(("verify-causality/heat_small-tiny-nu", ["verify", "--suite", "causality"],
                     config))
    config = _bundled("pointwise_decay")
    config["grid"]["n"] = 64
    config["control"]["U0"] = [[1e308, 0.0]]
    commands.append(("control/pointwise_decay-huge-U0", ["control"], config))
    config = _bundled("heat_small")
    config["rhs"]["amplitude"] = 1e306
    commands.append(("solve/heat_small-huge-amplitude", ["solve"], config))
    config = _bundled("pointwise_decay")
    config["grid"]["n"] = 64
    config["control"]["B"] = [[[1.7e308, 1.7e308]]]
    commands.append(("control/pointwise_decay-huge-B", ["control"], config))
    config = _bundled("heat_small")
    config["grid"]["n"] = 32
    config["control"]["B"][0][0] = [1.7e308, 1.7e308]
    commands.append(("control/heat_small-huge-B00", ["control"], config))
    config = _bundled("wave_small")
    config["grid"]["n"] = 512
    commands.append(("control/wave_small-n512", ["control"], config))
    commands.append(("certify/wave_small-n512", ["control", "--certify-duality"], config))
    for name in ("heat_small", "maxwell_small"):
        config = _bundled(name)
        config["grid"]["n"] = 512
        commands.append((f"control/{name}-n512", ["control"], config))
        commands.append((f"certify/{name}-n512", ["control", "--certify-duality"], config))
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
    b_rng = np.random.default_rng(10)
    kappa10 = {}
    for kind in workloads.KINDS:
        config = workloads._command(("control", kind, 32, "I"), rng)["config"]
        config["control"]["B"] = kappa10[kind] = _conditioned(b_rng, workloads.M_DIM, 10)
        label = f"kappa10-{kind}-n32"
        commands.append((f"control/{label}", ["control", "--json"], config))
        commands.append((f"certify/{label}", ["control", "--certify-duality", "--json"], config))
    for kind in workloads.KINDS:
        config = workloads._command(("control", kind, 96, "I"), rng)["config"]
        config["control"]["B"] = kappa10[kind]
        label = f"kappa10-{kind}-n96"
        commands.append((f"control/{label}", ["control", "--json"], config))
        commands.append((f"certify/{label}", ["control", "--certify-duality", "--json"], config))
    b_rng = np.random.default_rng(99)
    for kind in workloads.KINDS:
        config = workloads._command(("control", kind, 32, "I"), rng)["config"]
        config["control"]["B"] = _conditioned(b_rng, workloads.M_DIM, 99)
        label = f"kappa99-{kind}-n32"
        commands.append((f"control/{label}", ["control", "--json"], config))
        commands.append((f"certify/{label}", ["control", "--certify-duality", "--json"], config))
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
