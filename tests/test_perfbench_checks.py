"""The benchmark's own output checks pass on a slice of its control workload.

`perfbench/checks.py` decides whether a benchmarked command was right: it
reloads the `control_G` and `solution` CSVs bit for bit against a library
recompute and checks that the control verdicts are consistent.  Here the
n = 32 control and duality cells of one `control-dense` cycle, one pointwise
and one solve command, and the first duality, reversal and weight-independence
command per kind of one `verify-repeat` cycle run through `evoq.cli.main`
in-process and must all pass those checks, so a change that breaks them
fails here rather than in a benchmark run.
"""

import importlib.util
import json
import os

import pytest

import evoq
import evoq.config
import evoq.control
import evoq.signals
import evoq.solver
from evoq.cli import main

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _commands():
    commands = _load("workloads").generate("control-dense", 1, 1)
    dense = [c for c in commands
             if c["cell"].split("/")[0] in ("control", "certify") and "/32/" in c["cell"]]
    first = {kind: next(c for c in commands if c["cell"].startswith(kind))
             for kind in ("pointwise", "solve")}
    return dense + [first["pointwise"], first["solve"]]


def _verify_commands():
    first = {}
    for c in _load("workloads").generate("verify-repeat", 1, 1):
        _, kind, _, suite = c["cell"].split("/")
        first.setdefault((kind, suite), c)
    return list(first.values())


COMMANDS = _commands()
VERIFY_COMMANDS = _verify_commands()
CHECKS = _load("checks")


def test_slice_covers_every_dense_cell():
    assert len(COMMANDS) == 20
    assert len({c["cell"] for c in COMMANDS}) == 20


def test_verify_slice_covers_every_kind_and_suite():
    assert len(VERIFY_COMMANDS) == 9


@pytest.mark.parametrize("cmd", COMMANDS + VERIFY_COMMANDS,
                         ids=[c["cell"] for c in COMMANDS + VERIFY_COMMANDS])
def test_command_passes_benchmark_checks(tmp_path, capsys, cmd):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cmd["config"]))
    argv = cmd["args"][:1] + ["--config", str(config)] + cmd["args"][1:]
    out = str(tmp_path / "out") if cmd["out"] else None
    if out:
        argv += ["--out", out]
    code = main(argv)
    ctx = {"evoq": evoq, "config": str(config), "out": out}
    assert CHECKS.check(cmd["expect"], code, capsys.readouterr().out, ctx) is None
