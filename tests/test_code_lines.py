"""`tools/code_lines.py` counts the code lines of each evoq module, without
comments, docstrings or blank lines, and their total."""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
TOOL = os.path.join(ROOT, "tools", "code_lines.py")


def run(*args):
    return subprocess.run([sys.executable, TOOL, *args], capture_output=True, text=True,
                          timeout=120)


def test_prints_per_module_rows_and_their_total():
    proc = run()
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = [line.split() for line in lines[:-1]]
    assert {"control", "solver", "cli", "_blas", "__init__"} <= {name for name, _ in rows}
    total = re.fullmatch(r"lines (\d+)", lines[-1])
    assert total, proc.stdout
    assert int(total.group(1)) == sum(int(n) for _, n in rows) > 0


def test_counts_only_lines_of_code(tmp_path):
    package = tmp_path / "evoq"
    package.mkdir()
    (package / "__init__.py").write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "def f():\n"
        '    """Function docstring."""\n'
        '    return """a string\n'
        'that is not a docstring"""\n'
    )
    proc = run(str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["  __init__        4", "lines 4"]


def test_refuses_a_tree_without_evoq(tmp_path):
    proc = run(str(tmp_path))
    assert proc.returncode == 2
    assert "no evoq package" in proc.stderr
