"""`verify --suite duality` and acceptance criterion 3 solve their pairs in
batches; their values must equal, bit for bit, the one-pair-at-a-time loop
kept here as the reference."""

import importlib.util
import json
import os

import numpy as np
import pytest

from evoq.acceptance import criterion_3_duality_pairing
from evoq.cli import _verify_duality, main
from evoq.config import load_config
from evoq.errors import PreconditionError
from evoq.instances import bundled_instances
from evoq.signals import nu_product
from evoq.solver import SpectralOperator
from evoq.waveforms import random_signal

ROOT = os.path.join(os.path.dirname(__file__), "..")
BUNDLED = ("heat_small", "wave_small", "maxwell_small")


def reference_duality(op, rng, count):
    """The largest relative pairing gap over `count` random pairs drawn
    f1, g1, f2, g2, ..., solving one pair at a time with full solve reports."""
    worst = 0.0
    for _ in range(count):
        f = random_signal(op.grid, op.nu, op.A.m, rng)
        g = random_signal(op.grid, -op.nu, op.A.m, rng)
        uf, vg = op.solve(f), op.solve(g)
        gap = abs(nu_product(uf.solution, g) - nu_product(f, vg.solution))
        worst = max(worst, gap / (f.norm * g.norm))
    return worst


def _generated_configs():
    """The first n = 512 duality config per kind of one benchmark cycle."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = {}
    for cmd in workloads.generate("verify-repeat", 1, 1):
        cfg = cmd["config"]
        if cmd["args"][2] == "duality" and cfg["grid"]["n"] == 512:
            configs.setdefault(f"generated-{cfg['spatial']['kind']}-512", cfg)
    assert len(configs) == 3
    return configs


def _cases():
    cases = []
    for name in BUNDLED:
        with open(os.path.join(ROOT, "configs", f"{name}.json")) as fh:
            cases.append(pytest.param(json.load(fh), id=name))
    cases += [pytest.param(cfg, id=name) for name, cfg in _generated_configs().items()]
    return cases


@pytest.mark.parametrize("payload", _cases())
def test_batched_suite_equals_per_pair_loop(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    cfg = load_config(str(path))
    batched = _verify_duality(cfg, np.random.default_rng(cfg.seed))
    op = SpectralOperator(cfg.law, cfg.A, cfg.nu, cfg.grid, cfg.pad_fraction)
    worst = reference_duality(op, np.random.default_rng(cfg.seed), 32)
    tol = cfg.tolerances["pairing"]
    assert batched == {"suite": "duality", "pairs": 32, "max_relative_gap": worst,
                       "tolerance": tol, "passed": worst <= tol}
    assert batched["passed"]


def test_criterion_3_equals_per_pair_loop():
    rng = np.random.default_rng(303)
    worst = max(reference_duality(SpectralOperator(inst.law, inst.A, inst.nu, inst.grid,
                                                   inst.pad_fraction), rng, 100)
                for inst in bundled_instances(n=512))
    assert criterion_3_duality_pairing().measured == {"max_relative_gap": worst}


def test_singular_block_in_a_batch_exits_1(tmp_path, capsys):
    # Maxwell's blocks with mu = 1e-308 pass the certificate, but LU meets an
    # exactly zero pivot in some frequency block, as in a single solve.  The
    # maxwell kind refuses that mu at load, so the blocks are written out as
    # a matrix kind with its law
    from evoq.spatial import build_maxwell_block

    with open(os.path.join(ROOT, "configs", "maxwell_small.json")) as fh:
        payload = json.load(fh)
    payload["grid"]["n"] = 64
    payload["spatial"]["mu"] = 1e-308
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    assert main(["solve", "--config", str(path)]) == 2
    assert "spatial.mu" in capsys.readouterr().err
    op, law = build_maxwell_block(4, 1.0, 1e-308, 0.5)
    pairs = lambda M: [[[float(v.real), float(v.imag)] for v in row] for row in M]
    del payload["control"]
    payload["spatial"] = {"kind": "matrix", "matrix": pairs(op.A)}
    payload["law"] = {"coeffs": [pairs(c) for c in law.coeffs]}
    path.write_text(json.dumps(payload))
    for argv in (["solve"], ["verify", "--suite", "duality"]):
        assert main(argv + ["--config", str(path)]) == 1
        assert "(SolverError): singular frequency block" in capsys.readouterr().err


def test_solutions_refuse_a_batch_of_mixed_weights():
    cfg = load_config(os.path.join(ROOT, "configs", "heat_small.json"))
    op = SpectralOperator(cfg.law, cfg.A, cfg.nu, cfg.grid, cfg.pad_fraction)
    rng = np.random.default_rng(0)
    f, g = (random_signal(cfg.grid, w, cfg.m, rng) for w in (cfg.nu, -cfg.nu))
    with pytest.raises(PreconditionError, match="one weight"):
        op.solutions([f, g])
    with pytest.raises(PreconditionError, match="one weight"):
        op.solutions([])
