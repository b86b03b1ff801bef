"""Spans at the library's module boundaries, recorded from outside.

`Tracer` wraps every binding of each traced function: the defining module's
attribute and every name imported into another `evoq` module (so
`solver.coercivity` and `control.forward_blocks` are traced too), plus the
numpy kernels, including `numpy.linalg._linalg.svd` so that the spectral
norms `np.linalg.norm(M, 2)` count as SVDs.  Spans stay in memory while the
run goes on; `summarize` turns them into per-layer figures afterwards.

A span is [name, start, end, parent, command, key, value, overhead]:
`key` identifies the call's input (hashed bytes, or the operator key
(law, A, nu, grid)) for the repeat share, `value` is the span's byte count
or computed GFLOP, and `overhead` is the tracer's own time spent directly
inside the span (hashing children's inputs), which self time excludes.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
import zlib

import numpy as np


def _digest(*parts) -> str:
    """Fingerprint of the call's input: CRC-32 of the bytes and their sum as
    64-bit words (a hashlib digest costs several times more per byte)."""
    key = []
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            words = arr.reshape(-1).view(np.uint8)
            words = words[: words.size - words.size % 8].view(np.uint64)
            key += [arr.shape, arr.dtype.str, zlib.crc32(arr.data),
                    int(words.sum(dtype=np.uint64))]
        else:
            key.append(part)
    return repr(key)


def _law_parts(law) -> tuple:
    if law.coeffs is None:
        return (id(law.sample), law.nu0)
    return (*law.coeffs, law.conjugate_argument, law.nu0)


def _coercivity_key(law, nu, grid):
    return _digest(*_law_parts(law), nu, grid.t_min, grid.t_max, grid.n)


def _operator_key(law, A, nu, grid):
    return _digest(*_law_parts(law), A.A, nu, grid.t_min, grid.t_max, grid.n)


def _first_array_key(a, *args, **kwargs):
    return _digest(np.asarray(a))


def _saved_bytes(_result, sig, basepath):
    return sum(os.path.getsize(basepath + suffix) for suffix in (".csv", ".json"))


def _endmap_bytes(maps, *args, **kwargs):
    return maps.L_F.nbytes + maps.L_G.nbytes


def svd_gflop(shape, complex_input: bool, full_matrices: bool = True,
              compute_uv: bool = True) -> float:
    """Operation count of one (batched) SVD, computed from its shape.

    Golub-Reinsch counts from Golub & Van Loan, Matrix Computations (4th ed.,
    Fig. 8.6.1), for an m x n matrix with m >= n, times 4 for complex input.
    """
    *batch, m, n = shape
    m, n = max(m, n), min(m, n)
    if not compute_uv:
        flops = 4 * m * n ** 2 - 4 * n ** 3 / 3
    elif full_matrices:
        flops = 4 * m ** 2 * n + 8 * m * n ** 2 + 9 * n ** 3
    else:
        flops = 14 * m * n ** 2 + 8 * n ** 3
    return flops * (4 if complex_input else 1) * int(np.prod(batch)) / 1e9


def _svd_gflop(_result, a, full_matrices=True, compute_uv=True, *args, **kwargs):
    a = np.asarray(a)
    return svd_gflop(a.shape, np.iscomplexobj(a), full_matrices, compute_uv)


# (span name, defining module, attribute, input key, value).  Span names are
# <layer>.<function>, where the layer is the evoq module or the numpy kernel.
TARGETS = (
    ("cli.main", "evoq.cli", "main", None, None),
    ("config.load_config", "evoq.config", "load_config", None, None),
    ("signals.save_signal", "evoq.signals", "save_signal", None, _saved_bytes),
    ("material.coercivity", "evoq.material", "coercivity", _coercivity_key, None),
    ("material.eval_law_many", "evoq.material", "eval_law_many", None, None),
    ("solver.forward_blocks", "evoq.solver", "forward_blocks", _operator_key, None),
    ("solver.solve_forward", "evoq.solver", "solve_forward", None, None),
    ("solver.solve_adjoint", "evoq.solver", "solve_adjoint", None, None),
    ("solver.timestep_oracle", "evoq.solver", "timestep_oracle", None, None),
    ("solver.time_reversal_conjugation_check", "evoq.solver",
     "time_reversal_conjugation_check", None, None),
    ("solver.nu_independence_check", "evoq.solver", "nu_independence_check", None, None),
    ("control.assemble_endmaps", "evoq.control", "assemble_endmaps", None, _endmap_bytes),
    ("control.null_control", "evoq.control", "null_control", None, None),
    ("control.douglas_check", "evoq.control", "douglas_check", None, None),
    ("control.observability_constant", "evoq.control", "observability_constant", None, None),
    ("control.pointwise_null_control", "evoq.control", "pointwise_null_control", None, None),
    ("numpy.linalg.svd", "numpy.linalg._linalg", "svd", _first_array_key, _svd_gflop),
    ("numpy.linalg.solve", "numpy.linalg._linalg", "solve", _first_array_key, None),
    ("numpy.linalg.eigvalsh", "numpy.linalg._linalg", "eigvalsh", None, None),
    ("numpy.fft", "numpy.fft", "fft", None, None),
    ("numpy.fft", "numpy.fft", "ifft", None, None),
)

# Modules whose bindings are rewritten besides the evoq package.
NUMPY_MODULES = ("numpy.linalg", "numpy.linalg._linalg", "numpy.fft")


class Tracer:
    """Records spans while installed; `install`/`uninstall` swap bindings."""

    def __init__(self):
        self.spans = []
        self.command = -1
        self._stack = []
        self._wrappers = {}      # id(original) -> (original, wrapper)
        for name, module, attr, key, value in TARGETS:
            original = getattr(importlib.import_module(module), attr)
            self._wrappers[id(original)] = (original, self.wrap(name, original, key, value))
        self._patched = []       # (namespace dict, attribute, original)

    def wrap(self, name, fn, key_fn=None, value_fn=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            key = key_fn(*args, **kwargs) if key_fn else None
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.command, key, None, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = t2 = clock()
                stack.pop()
            if value_fn:
                record[6] = value_fn(result, *args, **kwargs)
            if parent >= 0:
                spans[parent][7] += (t1 - t0) + (clock() - t2)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        names = [m for m in list(sys.modules)
                 if m == "evoq" or m.startswith("evoq.") or m in NUMPY_MODULES]
        for modname in names:
            namespace = vars(sys.modules[modname])
            for attr, value in list(namespace.items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    namespace[attr] = entry[1]
                    self._patched.append((namespace, attr, value))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()


def self_times(spans) -> list:
    """Each span's duration minus its direct children's and the tracer's own time."""
    own = [end - start - overhead for _, start, end, _, _, _, _, overhead in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans) -> dict:
    """Per span name: calls, self_ms, repeat_share (calls whose key was seen
    before within the same command) and the summed value."""
    own = self_times(spans)
    seen = set()
    out = {}
    for (name, _, _, _, command, key, value, _), self_s in zip(spans, own):
        row = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "repeats": 0,
                                    "keyed": 0, "value": 0.0})
        row["calls"] += 1
        row["self_ms"] += 1e3 * self_s
        if key is not None:
            row["keyed"] += 1
            if (name, command, key) in seen:
                row["repeats"] += 1
            seen.add((name, command, key))
        if value is not None:
            row["value"] += value
    for row in out.values():
        row["repeat_share"] = row["repeats"] / row["keyed"] if row["keyed"] else 0.0
    return out
