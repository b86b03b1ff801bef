"""Instance configuration: a single JSON file describing weight, grid, law,
spatial block, forcing and (optionally) a control section.

Matrices are written inline, row major, every entry an explicit [re, im]
pair; times are in seconds and weights in 1/seconds.  Validation failures
raise `SchemaError` with a pointer to the offending field.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SchemaError
from .material import MaterialLaw, finite_sum_law
from .signals import (TimeGrid, WeightedSignal, _weight_exponents, load_signal,
                      signal_from_values)
from .spatial import (
    SpatialOperator,
    build_heat_block,
    build_maxwell_block,
    build_wave_block,
    check_skew,
)
from .waveforms import indicator, smooth_bump

__all__ = ["InstanceConfig", "ControlSpec", "load_config", "DEFAULT_TOLERANCES"]

# One rung per extra discretisation error source.
DEFAULT_TOLERANCES = {
    "algebraic": 1e-12,
    "pairing": 1e-10,
    "conjugation": 1e-8,
    "cross_method": 1e-6,
    "cross_nu": 1e-4,
    "feasibility": 1e-6,
    "pointwise_feasibility": 1e-8,
    "svd_cutoff": 1e-10,
}


# Bytes allowed for the padded frequency blocks (N_pad, m, m) complex that
# every operator builds; a config beyond it is refused before any array of
# grid or spatial size is allocated.
_BLOCK_BUDGET = 256 * 2 ** 20


def _fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def _check_block_budget(n_pad: int, m: int, path: str) -> None:
    need = n_pad * m * m * 16
    if need > _BLOCK_BUDGET:
        _fail(path, f"the padded blocks ({n_pad} x {m} x {m} complex) need {need} "
                    f"bytes, over the {_BLOCK_BUDGET}-byte budget; lower spatial.k "
                    "or grid.n")


def _expect(obj: dict, key: str, path: str):
    if key not in obj:
        _fail(path, f"missing required field {key!r}")
    return obj[key]


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        _fail(path, f"expected a finite number, got {value!r}")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _parse_complex_matrix(value, path: str) -> np.ndarray:
    """Rows of [re, im] pairs."""
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            _fail(f"{path}[{i}]", "expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(f"{path}[{i}]", f"ragged row (expected {width} entries)")
        entries = []
        for j, pair in enumerate(row):
            if (not isinstance(pair, list)) or len(pair) != 2:
                _fail(f"{path}[{i}][{j}]", "expected an explicit [re, im] pair")
            entries.append(complex(_as_number(pair[0], f"{path}[{i}][{j}][0]"),
                                   _as_number(pair[1], f"{path}[{i}][{j}][1]")))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def _parse_complex_vector(value, path: str) -> np.ndarray:
    mat = _parse_complex_matrix([value] if value and isinstance(value[0], list)
                                and len(value[0]) == 2
                                and not isinstance(value[0][0], list) else value, path)
    return mat.reshape(-1)


@dataclass(frozen=True)
class ControlSpec:
    B: np.ndarray
    T: float
    variant: str
    U0: Optional[np.ndarray] = None
    forcing: Optional[dict] = None


@dataclass(frozen=True)
class InstanceConfig:
    nu: float
    grid: TimeGrid
    pad_fraction: float
    law: MaterialLaw
    A: SpatialOperator
    rhs_spec: dict
    seed: int
    tolerances: dict
    control: Optional[ControlSpec] = None
    source_path: Optional[str] = None

    @property
    def m(self) -> int:
        return self.A.m

    def build_rhs(self, weight: Optional[float] = None) -> WeightedSignal:
        """Materialise the configured forcing at the given weight (default +nu)."""
        return _build_signal(self.rhs_spec, self.grid, self.m,
                             self.nu if weight is None else weight,
                             self.source_path)


def _build_signal(spec: dict, grid: TimeGrid, m: int, weight: float,
                  source_path: Optional[str]) -> WeightedSignal:
    shape = spec.get("shape", "bump")
    if shape == "custom":
        base = spec["csv"]
        if source_path is not None and not os.path.isabs(base):
            base = os.path.join(os.path.dirname(source_path), base)
        sig = load_signal(base)
        if sig.grid != grid or sig.m != m:
            raise SchemaError("custom rhs does not match the configured grid/dimension")
        if sig.nu != weight:
            raise SchemaError(f"custom rhs carries weight {sig.nu}, expected {weight}")
        return sig
    component = spec.get("component", 0)
    amplitude = spec.get("amplitude", 1.0)
    values = np.zeros((grid.n, m), dtype=complex)
    if shape == "bump":
        values[:, component] = amplitude * smooth_bump(
            grid.times, spec.get("center", 0.0), spec.get("width", 1.0))
    elif shape == "indicator":
        values[:, component] = amplitude * indicator(
            grid.times, spec.get("lo", 0.0), spec.get("hi", 1.0))
    elif shape == "zero":
        pass
    else:
        raise SchemaError(f"rhs.shape: unknown shape {shape!r}")
    return signal_from_values(grid, weight, values)


def _check_forcing(spec, path: str, m: int, config_path: str) -> None:
    """Parse-time check of a forcing object (`rhs` or `control.F`), so that
    `_build_signal` never meets a value it cannot use."""
    if not isinstance(spec, dict):
        _fail(path, "must be a forcing object")
    shape = spec.get("shape", "bump")
    if shape not in ("bump", "indicator", "zero", "custom"):
        _fail(f"{path}.shape", f"unknown shape {shape!r}")
    if shape == "custom":
        base = spec.get("csv")
        if not isinstance(base, str):
            _fail(f"{path}.csv", "custom forcing needs a csv path")
        resolved = (base if os.path.isabs(base)
                    else os.path.join(os.path.dirname(config_path), base))
        for suffix in (".csv", ".json"):
            if not os.path.exists(resolved + suffix):
                _fail(f"{path}.csv", f"referenced file {resolved + suffix} does not exist")
    for key in ("center", "width", "amplitude", "lo", "hi"):
        if key in spec:
            _as_number(spec[key], f"{path}.{key}")
    if spec.get("width", 1.0) <= 0:
        _fail(f"{path}.width", f"must be positive, got {spec['width']}")
    component = _as_int(spec.get("component", 0), f"{path}.component")
    if not 0 <= component < m:
        _fail(f"{path}.component", f"must be an index in [0, {m}), got {component}")


def _parse_spatial(section: dict, nu: float, n_pad: int):
    kind = _expect(section, "kind", "spatial")
    if kind == "matrix":
        A = check_skew(_parse_complex_matrix(_expect(section, "matrix", "spatial"),
                                             "spatial.matrix"), label="matrix")
        _check_block_budget(n_pad, A.m, "spatial.matrix")
        return A, None
    k = _as_int(_expect(section, "k", "spatial"), "spatial.k")
    if k < 1:
        _fail("spatial.k", f"must be at least 1, got {k}")
    _check_block_budget(n_pad, 2 * k + 1, "spatial.k")  # every builder has m = 2k + 1
    dx = _as_number(section.get("dx", 1.0), "spatial.dx")
    if dx <= 0:
        _fail("spatial.dx", f"must be positive, got {dx}")

    def coeff(name, size, default=None):
        if name not in section:
            if default is None:
                _fail("spatial", f"kind {kind!r} requires field {name!r}")
            return default
        value = section[name]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        return _parse_complex_matrix(value, f"spatial.{name}")

    if kind == "heat":
        return build_heat_block(k, coeff("a", k), dx=dx, nu=nu)
    if kind == "wave":
        return build_wave_block(k, coeff("T_elast", k + 1), dx=dx, nu=nu)
    if kind == "maxwell":
        return build_maxwell_block(k, coeff("eps", k, 1.0), coeff("mu", k + 1, 1.0),
                                   coeff("sigma", k, 0.0), dx=dx, nu=nu)
    _fail("spatial.kind", f"unknown kind {kind!r}")


def load_config(path: str) -> InstanceConfig:
    """Parse and validate an instance configuration file."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("config root must be an object")

    nu = _as_number(_expect(raw, "nu", "config"), "nu")
    if nu <= 0:
        _fail("nu", "weight must be positive")

    gsec = _expect(raw, "grid", "config")
    t_min = _as_number(_expect(gsec, "t_min", "grid"), "grid.t_min")
    t_max = _as_number(_expect(gsec, "t_max", "grid"), "grid.t_max")
    if not t_min < t_max:
        _fail("grid.t_min", f"must be below grid.t_max, got [{t_min}, {t_max}]")
    n = _as_int(_expect(gsec, "n", "grid"), "grid.n")
    if n < 2:
        _fail("grid.n", f"need at least 2 samples, got {n}")
    grid = TimeGrid(t_min, t_max, n)
    pad = _as_number(gsec.get("padding_fraction", 0.25), "grid.padding_fraction")
    if not 0 <= pad <= 1:
        _fail("grid.padding_fraction", f"must lie in [0, 1], got {pad}")
    n_pad = grid.padded(pad)[0].n
    _check_block_budget(n_pad, 1, "grid.n")
    try:
        _weight_exponents(nu, grid)
    except OverflowError as exc:
        _fail("nu", f"too large for the grid [grid.t_min, grid.t_max): {exc}")

    A, law = _parse_spatial(_expect(raw, "spatial", "config"), nu, n_pad)
    if law is None:
        lsec = _expect(raw, "law", "config")
        coeffs = [_parse_complex_matrix(c, f"law.coeffs[{i}]")
                  for i, c in enumerate(_expect(lsec, "coeffs", "law"))]
        for i, c in enumerate(coeffs):
            if c.shape != (A.m, A.m):
                _fail(f"law.coeffs[{i}]", f"shape {c.shape} != ({A.m}, {A.m})")
        law = finite_sum_law(coeffs, nu0=_as_number(lsec.get("nu0", 0.0), "law.nu0"))
    elif "law" in raw:
        _fail("law", "builder kinds define their own law; drop the law section")

    rhs_spec = raw.get("rhs", {"shape": "bump"})
    _check_forcing(rhs_spec, "rhs", A.m, path)

    control = None
    if "control" in raw:
        csec = raw["control"]
        B = _parse_complex_matrix(_expect(csec, "B", "control"), "control.B")
        if B.shape[0] != A.m:
            _fail("control.B", f"needs {A.m} rows, got {B.shape[0]}")
        T = _as_number(_expect(csec, "T", "control"), "control.T")
        if not grid.t_min <= T <= grid.t_max:
            _fail("control.T", "horizon must lie inside the grid")
        variant = csec.get("variant", "supported")
        if variant not in ("supported", "pointwise"):
            _fail("control.variant", f"unknown variant {variant!r}")
        U0 = None
        if variant == "pointwise":
            U0 = _parse_complex_vector(_expect(csec, "U0", "control"), "control.U0")
            if U0.shape != (A.m,):
                _fail("control.U0", f"must have {A.m} entries")
            if T <= 0:
                _fail("control.T", "pointwise horizon must be positive")
        forcing = csec.get("F")
        if forcing is not None:
            _check_forcing(forcing, "control.F", A.m, path)
        control = ControlSpec(B=B, T=T, variant=variant, U0=U0, forcing=forcing)

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        _fail("seed", "must be a non-negative integer")

    tolerances = dict(DEFAULT_TOLERANCES)
    user_tols = raw.get("tolerances", {})
    if not isinstance(user_tols, dict):
        _fail("tolerances", "must be an object")
    for key, value in user_tols.items():
        if key not in DEFAULT_TOLERANCES:
            _fail(f"tolerances.{key}", "unknown tolerance name")
        tolerances[key] = _as_number(value, f"tolerances.{key}")
        if tolerances[key] <= 0:
            _fail(f"tolerances.{key}", f"must be > 0, got {value!r}")

    return InstanceConfig(nu=nu, grid=grid, pad_fraction=pad, law=law, A=A,
                          rhs_spec=rhs_spec, seed=seed, tolerances=tolerances,
                          control=control, source_path=os.path.abspath(path))
