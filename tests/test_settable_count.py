"""`tools/settable_count.py` counts this checkout's public surface, and the
count stays under its ceiling: a new parameter or dataclass field must pay
for itself by removing another."""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
TOOL = os.path.join(ROOT, "tools", "settable_count.py")
MAX_PARAMETERS = 131
MAX_FIELDS = 85


def test_prints_per_module_rows_and_their_totals():
    proc = subprocess.run([sys.executable, TOOL], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = [line.split() for line in lines[:-2]]
    assert {"control", "config", "solver"} <= {name for name, _, _ in rows}
    assert "_blas" not in {name for name, _, _ in rows}
    params = re.fullmatch(r"parameters (\d+)", lines[-2])
    fields = re.fullmatch(r"fields (\d+)", lines[-1])
    assert params and fields, proc.stdout
    assert int(params.group(1)) == sum(int(p) for _, p, _ in rows) > 0
    assert int(fields.group(1)) == sum(int(f) for _, _, f in rows) > 0
    assert int(params.group(1)) <= MAX_PARAMETERS
    assert int(fields.group(1)) <= MAX_FIELDS


def test_refuses_a_tree_without_evoq(tmp_path):
    proc = subprocess.run([sys.executable, TOOL, str(tmp_path)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2
    assert "no evoq package" in proc.stderr
