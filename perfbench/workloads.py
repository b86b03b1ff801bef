"""Seeded generator of the benchmark's command lists.

Each workload is a fixed cycle of cells (command, spatial kind, grid size,
control injection).  A run issues whole cycles; the seed draws every
continuous parameter of every command (weight, coefficients, forcing bump,
horizon, probe seed) and the order of the cells inside each cycle.  So the
mix of work is the same for every seed, no two commands share a problem, and
each command's correct outcome is known before it runs.

The program under test only ever sees the generated JSON configs.
"""

from __future__ import annotations

import math
import random

KINDS = ("heat", "wave", "maxwell")
M_DIM = 9          # k = 4 gives 2k + 1 = 9 state components for every kind
T_HALF = 8.0       # symmetric grids [-8, 8): the reversal suite needs them
HORIZON = 2.0      # a sample of every control grid: n * 3/8 samples lie at or after it


def _cells_verify():
    # Per kind, three duality commands (64 solves on one operator, n = 512),
    # one reversal and one weight-independence command (n = 1024).  Sorted
    # by latency a cycle is six cheap commands and then nine duality ones,
    # so the median sits in the middle of the wave duality commands and the
    # 90th percentile among the heat and Maxwell ones.  At the default two
    # BLAS threads the weight-independence suite keeps the second core busy
    # (CPU time 1.8x its wall time) and slows 1.4-1.9x when another process
    # takes that core; duality commands do not.  With the median among the
    # duality commands, that host contention does not decide op_p50_ms.
    return [("verify", kind, n, suite)
            for kind in KINDS
            for suite, n, copies in (("duality", 512, 3), ("reversal", 1024, 1),
                                     ("nu-independence", 1024, 1))
            for _ in range(copies)]


def _cells_control():
    # Every supported control command writes its CSV signals (save_signal);
    # six pointwise commands per cycle run the initial-value variant and the
    # trapezoidal stepper.  One `solve --out` per kind uses its operator once,
    # so these commands give a reuse mechanism nothing to hit.
    return ([(cmd, kind, n, b)
             for kind in KINDS
             for n in (32, 48, 64)
             for b in ("I", "e1", "zero")
             for cmd in ("control", "certify")]
            + [("pointwise", "matrix", 1024, None)] * 6
            + [("solve", kind, 2048, None) for kind in KINDS])


CELLS = {
    "verify-repeat": _cells_verify,
    "control-dense": _cells_control,
}

# Seconds one cycle takes on the seed commit on the reference machine
# (2-core Xeon, OpenBLAS 0.3.31, default threads).  Only used to turn
# --seconds into a whole number of cycles; the work per run is then fixed.
NOMINAL_CYCLE_S = {
    "verify-repeat": 3.5,
    "control-dense": 20.0,
}

MIN_COMMANDS = 100


def cycles_for(workload: str, seconds: float) -> int:
    """Whole cycles for a run of about `seconds`, and never fewer than
    MIN_COMMANDS commands (so at least ten lie beyond the 90th percentile)."""
    per_cycle = len(CELLS[workload]())
    floor = math.ceil(MIN_COMMANDS / per_cycle)
    return max(floor, round(seconds / NOMINAL_CYCLE_S[workload]))


def _pair(x: float) -> list:
    return [float(x), 0.0]


def _injection(kind: str, m: int) -> list:
    if kind == "I":
        return [[_pair(1.0 if i == j else 0.0) for j in range(m)] for i in range(m)]
    if kind == "e1":
        return [[_pair(1.0 if i == 0 else 0.0)] for i in range(m)]
    if kind == "zero":
        return [[_pair(0.0)] for _ in range(m)]
    raise ValueError(f"unknown injection {kind!r}")


def _spatial(kind: str, rng: random.Random) -> dict:
    base = {"kind": kind, "k": 4, "dx": 1.0}
    if kind == "heat":
        base["a"] = rng.uniform(1.0, 3.0)
    elif kind == "wave":
        base["T_elast"] = rng.uniform(1.0, 3.0)
    else:
        base.update(eps=rng.uniform(0.5, 2.0), mu=rng.uniform(0.5, 2.0),
                    sigma=rng.uniform(0.0, 1.0))
    return base


def _bump(rng: random.Random, m: int) -> dict:
    # The nu-independence suite meets its 1e-4 rung only on resolved data.
    # At n = 512 it misses through resolution when the bump sits right of
    # about +1; at n = 1024 it misses (1.4e-4, heat) for a bump of width 0.67
    # centred at -2.8, near the left edge of its comparison window.  In
    # [-2, 0] x [1.0, 1.5] the worst of 240 draws at n = 1024 was 3.9e-6.
    return {"shape": "bump", "component": rng.randrange(m),
            "center": rng.uniform(-2.0, 0.0), "width": rng.uniform(1.0, 1.5),
            "amplitude": rng.uniform(0.5, 2.0)}


def _evolution_config(kind: str, n: int, rng: random.Random) -> dict:
    return {
        "seed": rng.randrange(2 ** 31),
        "nu": rng.uniform(0.5, 2.0),
        "grid": {"t_min": -T_HALF, "t_max": T_HALF, "n": n, "padding_fraction": 0.25},
        "spatial": _spatial(kind, rng),
        "rhs": _bump(rng, M_DIM),
    }


def _pointwise_config(n: int, rng: random.Random) -> dict:
    # Scalar law M0 + z^{-1} M1 with A = 0 and B = 1: every initial state
    # can be steered to zero, so the command must report feasible.
    return {
        "seed": rng.randrange(2 ** 31),
        "nu": rng.uniform(0.5, 2.0),
        "grid": {"t_min": -2.0, "t_max": 6.0, "n": n, "padding_fraction": 0.25},
        "spatial": {"kind": "matrix", "matrix": [[_pair(0.0)]]},
        "law": {"coeffs": [[[_pair(1.0)]], [[_pair(rng.uniform(0.5, 2.0))]]]},
        "rhs": {"shape": "zero"},
        "control": {"B": [[_pair(1.0)]], "T": rng.uniform(1.0, 3.0),
                    "variant": "pointwise",
                    "U0": [[rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]]},
    }


def _command(cell, rng: random.Random) -> dict:
    """One command: CLI arguments (config and output paths filled in by the
    runner), the generated config and the expected outcome."""
    cmd, kind, n, extra = cell
    if cmd == "verify":
        return {"args": ["verify", "--suite", extra, "--json"],
                "config": _evolution_config(kind, n, rng),
                "expect": {"kind": "verify", "suite": extra}, "out": False}
    if cmd == "solve":
        return {"args": ["solve", "--json"], "config": _evolution_config(kind, n, rng),
                "expect": {"kind": "solve"}, "out": True}
    if cmd == "pointwise":
        return {"args": ["control"], "config": _pointwise_config(n, rng),
                "expect": {"kind": "pointwise"}, "out": True}
    config = _evolution_config(kind, n, rng)
    # T is drawn inside the grid cell (HORIZON - dt, HORIZON], so the first
    # sample at or after T, and with it the end maps' size and the
    # command's cost, is the same for every draw of a cell.
    dt = 2 * T_HALF / n
    config["control"] = {"B": _injection(extra, M_DIM),
                         "T": HORIZON - dt * rng.random(), "variant": "supported"}
    if cmd == "control":
        return {"args": ["control", "--json"], "config": config,
                "expect": {"kind": "control", "B": extra}, "out": True}
    return {"args": ["control", "--certify-duality", "--json"], "config": config,
            "expect": {"kind": "certify", "B": extra}, "out": False}


def generate(workload: str, seed: int, cycles: int) -> list:
    """The run's commands: `cycles` shuffled copies of the workload's cycle."""
    if workload not in CELLS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    commands = []
    for _ in range(cycles):
        cells = CELLS[workload]()
        rng.shuffle(cells)
        for cell in cells:
            entry = _command(cell, rng)
            entry["cell"] = "/".join(str(c) for c in cell if c is not None)
            commands.append(entry)
    return commands
