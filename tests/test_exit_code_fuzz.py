"""Fuzzed exit codes: one mutated number or section in a small config never
escapes `evoq.cli.main`, and a rejected config names the field it rejected.

The first test takes a bundled heat, wave or Maxwell config, or a 1 x 1
matrix config, at n = 64 and without a control section, swaps one numeric
field for a value of another type, a non-finite number, its negative or an
extreme magnitude, and runs `solve`, `adjoint` or one of the four `verify`
suites on it.  The second takes `heat_small` at n = 32 or `pointwise_decay`
at n = 64, mutates one number of the control section the same way or
replaces a whole section by null, a number, a list or a string, and runs
`control` or `control --certify-duality`.
"""

import contextlib
import copy
import io
import json
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from evoq.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def shrunk_config(kind):
    name = "heat_small" if kind == "matrix" else kind
    with open(os.path.join(CONFIG_DIR, f"{name}.json")) as fh:
        payload = json.load(fh)
    payload["grid"]["n"] = 64
    del payload["control"]
    if kind == "matrix":
        payload["spatial"] = {"kind": "matrix", "matrix": [[[0.0, 0.0]]]}
        payload["law"] = {"coeffs": [[[[1.0, 0.0]]]]}
    return payload


def numeric_fields(obj, path=""):
    """Paths of every number in `obj`, written as the config errors write
    them: `grid.n`, `spatial.matrix[0][0][1]`."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from numeric_fields(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from numeric_fields(value, f"{path}[{i}]")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path


def _steps(path):
    return [int(tok[1:-1]) if tok.startswith("[") else tok
            for tok in re.findall(r"\[\d+\]|[^.\[\]]+", path)]


CONFIGS = {kind: shrunk_config(kind)
           for kind in ("heat_small", "wave_small", "maxwell_small", "matrix")}
FIELDS = [(kind, path) for kind, payload in CONFIGS.items()
          for path in numeric_fields(payload)]
MUTATIONS = {
    "string": lambda v: "x",
    "bool": lambda v: True,
    "null": lambda v: None,
    "list": lambda v: [v],
    "nan": lambda v: float("nan"),
    "infinity": lambda v: float("inf"),
    "-infinity": lambda v: float("-inf"),
    "negated": lambda v: -v,
    "-1": lambda v: -1,
    "1e308": lambda v: 1e308,
    "-1e308": lambda v: -1e308,
    "1e-308": lambda v: 1e-308,
}


def mutated(payload, path, mutation):
    """A copy of `payload` with the number at `path` mutated."""
    payload = copy.deepcopy(payload)
    *parents, last = _steps(path)
    target = payload
    for step in parents:
        target = target[step]
    target[last] = MUTATIONS[mutation](target[last])
    return payload


def run_on(payload, argv):
    """(exit code, stderr) of `main` on `payload` written as the config."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "cfg.json")
        with open(config, "w") as fh:
            json.dump(payload, fh)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--config", config])  # anything raised fails the test
    return code, err.getvalue()


COMMANDS = (["solve"], ["adjoint"], ["verify", "--suite", "duality"],
            ["verify", "--suite", "causality"], ["verify", "--suite", "reversal"],
            ["verify", "--suite", "nu-independence"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS), st.sampled_from(sorted(MUTATIONS)), st.sampled_from(COMMANDS))
def test_mutated_number_exits_with_a_defined_code(field, mutation, argv):
    kind, path = field
    code, err = run_on(mutated(CONFIGS[kind], path, mutation), argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        named = path.split("[")[0]
        if named == "law.coeffs":
            named = "law"  # coercivity judges the law as a whole
        assert named in err, (path, mutation, err)


def control_config(name, n):
    with open(os.path.join(CONFIG_DIR, f"{name}.json")) as fh:
        payload = json.load(fh)
    payload["grid"]["n"] = n
    return payload


CONTROL_CONFIGS = {"heat_small": control_config("heat_small", 32),
                   "pointwise_decay": control_config("pointwise_decay", 64)}
SECTIONS = ("grid", "spatial", "law", "rhs", "control", "tolerances")
SECTION_VALUES = {"null": None, "number": 5, "list": [], "string": "x"}
CONTROL_EDITS = (
    [(kind, path, mutation) for kind, payload in CONTROL_CONFIGS.items()
     for path in numeric_fields(payload["control"], "control")
     for mutation in sorted(MUTATIONS)]
    + [(kind, section, value) for kind in CONTROL_CONFIGS
       for section in SECTIONS for value in sorted(SECTION_VALUES)]
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(CONTROL_EDITS), st.booleans())
def test_mutated_control_config_exits_with_a_defined_code(edit, certify):
    kind, path, mutation = edit
    if path in SECTIONS:
        payload = {**CONTROL_CONFIGS[kind], path: SECTION_VALUES[mutation]}
    else:
        payload = mutated(CONTROL_CONFIGS[kind], path, mutation)
    argv = ["control", "--certify-duality"] if certify else ["control"]
    code, err = run_on(payload, argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert path.split("[")[0] in err, (kind, path, mutation, err)
