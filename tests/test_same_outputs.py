"""`tools/same_outputs.py` reports equal trees as equal and a changed output
as a difference."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
TOOL = os.path.join(ROOT, "tools", "same_outputs.py")
SRC = os.path.join(ROOT, "src")


def run_tool(old_src, new_src, only, *options):
    return subprocess.run([sys.executable, TOOL, old_src, new_src, "--only", only,
                           *options], capture_output=True, text=True, timeout=300)


def test_same_tree_matches():
    proc = run_tool(SRC, SRC, r"^(solve|verify-reversal)/heat_small$")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all outputs identical over 2 commands" in proc.stdout


def test_changed_report_is_found(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "evoq" / "cli.py"
    text = cli.read_text()
    assert "indent=2" in text
    cli.write_text(text.replace("indent=2", "indent=3"))
    proc = run_tool(SRC, str(changed), r"^solve/heat_small$")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "solve/heat_small: file report.json" in proc.stdout


def test_old_env_reaches_the_old_tree_only():
    # a verbose interpreter on one side only changes stderr and nothing else
    proc = run_tool(SRC, SRC, r"^solve/heat_small$", "--old-env", "PYTHONVERBOSE=1")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 difference(s) over 1 commands" in proc.stdout
    assert "solve/heat_small: stderr" in proc.stdout
    proc = run_tool(SRC, SRC, r"^solve/heat_small$", "--old-env", "PYTHONVERBOSE")
    assert proc.returncode == 2
    assert "KEY=VALUE" in proc.stderr


def test_default_command_count_is_the_documented_one():
    # README and the tool's docstring state how many commands it runs; the
    # stated count drifted from the real one twice before
    import importlib.util
    import re

    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    assert len(tool.default_commands()) == 96
    assert re.findall(r"\((\d+) commands\)", tool.__doc__) == ["96"]
    assert re.findall(r"tools/same_outputs\.py .*# (\d+) commands", readme) == ["96"]
