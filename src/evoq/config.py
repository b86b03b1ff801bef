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

from .errors import DefinitenessError, EvoqError, NonCoerciveError, NotSkewError, SchemaError
from .material import MaterialLaw, finite_sum_law
from .signals import TimeGrid, WeightedSignal, _weight_exponents, load_signal, zero_signal
from .spatial import (
    SpatialOperator,
    build_heat_block,
    build_maxwell_block,
    build_wave_block,
    check_skew,
)
from .waveforms import bump_signal, indicator_signal

__all__ = ["InstanceConfig", "ControlSpec", "Forcing", "load_config", "DEFAULT_TOLERANCES"]

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


def _as_section(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"must be an object, got {value!r}")
    return value


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
    if not isinstance(value, list):
        _fail(path, f"expected a list of [re, im] pairs, got {value!r}")
    mat = _parse_complex_matrix([value] if value and isinstance(value[0], list)
                                and len(value[0]) == 2
                                and not isinstance(value[0][0], list) else value, path)
    return mat.reshape(-1)


@dataclass(frozen=True)
class Forcing:
    """A forcing object (`rhs` or `control.F`), parsed and checked once.

    `path` is the config field it came from; the numbers carry their
    defaults.  A custom forcing holds the signal read from its CSV at load
    time, already checked against the grid and the dimension.
    """

    path: str
    shape: str
    component: int
    amplitude: float = 1.0
    center: float = 0.0
    width: float = 1.0
    lo: float = 0.0
    hi: float = 1.0
    custom: Optional[WeightedSignal] = None

    def signal(self, grid: TimeGrid, m: int, weight: float) -> WeightedSignal:
        """The forcing on `grid` in m components, stored at `weight`."""
        if self.shape == "custom":
            if self.custom.nu != weight:
                _fail(f"{self.path}.csv", f"custom forcing carries weight "
                                          f"{self.custom.nu}, expected {weight}")
            return self.custom
        if self.shape == "zero":
            return zero_signal(grid, weight, m)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if self.shape == "bump":
                    return bump_signal(grid, weight, m, self.component, self.center,
                                       self.width, self.amplitude)
                return indicator_signal(grid, weight, m, self.component, self.lo, self.hi,
                                        self.amplitude)
        except ValueError:
            # profiles peak at 1 and the weight at e^700: only the amplitude
            # can make a sample overflow
            _fail(f"{self.path}.amplitude", f"{self.amplitude} overflows the forcing "
                                            f"at weight {weight}")


@dataclass(frozen=True)
class ControlSpec:
    B: np.ndarray
    T: float
    variant: str
    forcing: Forcing
    U0: Optional[np.ndarray] = None


@dataclass(frozen=True)
class InstanceConfig:
    nu: float
    grid: TimeGrid
    pad_fraction: float
    law: MaterialLaw
    A: SpatialOperator
    rhs: Forcing
    seed: int
    tolerances: dict
    control: Optional[ControlSpec] = None
    source_path: Optional[str] = None

    @property
    def m(self) -> int:
        return self.A.m

    def build_rhs(self, weight: Optional[float] = None) -> WeightedSignal:
        """Materialise the configured forcing at the given weight (default +nu)."""
        return self.rhs.signal(self.grid, self.m, self.nu if weight is None else weight)


def _read_custom(base, path: str, grid: TimeGrid, m: int, config_path: str):
    if not isinstance(base, str):
        _fail(path, "custom forcing needs a csv path")
    resolved = os.path.join(os.path.dirname(os.path.abspath(config_path)), base)
    for suffix in (".csv", ".json"):
        if not os.path.exists(resolved + suffix):
            _fail(path, f"referenced file {resolved + suffix} does not exist")
    try:
        sig = load_signal(resolved)
    except (ValueError, KeyError, TypeError, EvoqError) as exc:
        _fail(path, f"cannot read {resolved}: {type(exc).__name__}: {exc}")
    if sig.grid != grid or sig.m != m:
        _fail(path, "custom forcing does not match the configured grid/dimension")
    return sig


def _parse_forcing(spec, path: str, grid: TimeGrid, m: int, config_path: str) -> Forcing:
    if not isinstance(spec, dict):
        _fail(path, "must be a forcing object")
    shape = spec.get("shape", "bump")
    if shape not in ("bump", "indicator", "zero", "custom"):
        _fail(f"{path}.shape", f"unknown shape {shape!r}")
    numbers = {key: _as_number(spec[key], f"{path}.{key}")
               for key in ("amplitude", "center", "width", "lo", "hi") if key in spec}
    if numbers.get("width", 1.0) <= 0:
        _fail(f"{path}.width", f"must be positive, got {spec['width']}")
    component = _as_int(spec.get("component", 0), f"{path}.component")
    if not 0 <= component < m:
        _fail(f"{path}.component", f"must be an index in [0, {m}), got {component}")
    custom = (_read_custom(spec.get("csv"), f"{path}.csv", grid, m, config_path)
              if shape == "custom" else None)
    return Forcing(path, shape, component, custom=custom, **numbers)


def _parse_spatial(section: dict, nu: float, n_pad: int):
    kind = _expect(section, "kind", "spatial")
    if kind == "matrix":
        matrix = _parse_complex_matrix(_expect(section, "matrix", "spatial"), "spatial.matrix")
        try:
            A = check_skew(matrix)
        except NotSkewError as exc:
            _fail("spatial.matrix", str(exc))
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
        if isinstance(value, list):
            return _parse_complex_matrix(value, f"spatial.{name}")
        return _as_number(value, f"spatial.{name}")

    try:
        if kind == "heat":
            return build_heat_block(k, coeff("a", k), dx=dx, nu=nu)
        if kind == "wave":
            return build_wave_block(k, coeff("T_elast", k + 1), dx=dx, nu=nu)
        if kind == "maxwell":
            return build_maxwell_block(k, coeff("eps", k, 1.0), coeff("mu", k + 1, 1.0),
                                       coeff("sigma", k, 0.0), dx=dx, nu=nu)
    except (DefinitenessError, NonCoerciveError) as exc:
        # the builders' messages open with the coefficient's name
        raise SchemaError(f"spatial.{exc}") from None
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

    gsec = _as_section(_expect(raw, "grid", "config"), "grid")
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

    A, law = _parse_spatial(_as_section(_expect(raw, "spatial", "config"), "spatial"),
                            nu, n_pad)
    if law is None:
        lsec = _as_section(_expect(raw, "law", "config"), "law")
        raw_coeffs = _expect(lsec, "coeffs", "law")
        if not isinstance(raw_coeffs, list) or not raw_coeffs:
            _fail("law.coeffs", f"expected a non-empty list of matrices, got {raw_coeffs!r}")
        coeffs = [_parse_complex_matrix(c, f"law.coeffs[{i}]")
                  for i, c in enumerate(raw_coeffs)]
        for i, c in enumerate(coeffs):
            if c.shape != (A.m, A.m):
                _fail(f"law.coeffs[{i}]", f"shape {c.shape} != ({A.m}, {A.m})")
        law = finite_sum_law(coeffs, nu0=_as_number(lsec.get("nu0", 0.0), "law.nu0"))
    elif "law" in raw:
        _fail("law", "builder kinds define their own law; drop the law section")

    rhs = _parse_forcing(raw.get("rhs", {"shape": "bump"}), "rhs", grid, A.m, path)

    control = None
    if "control" in raw:
        csec = _as_section(raw["control"], "control")
        B = _parse_complex_matrix(_expect(csec, "B", "control"), "control.B")
        if B.shape[0] != A.m:
            _fail("control.B", f"needs {A.m} rows, got {B.shape[0]}")
        T = _as_number(_expect(csec, "T", "control"), "control.T")
        last = grid.t_min + (grid.n - 1) * grid.dt
        if not grid.t_min <= T <= last:
            _fail("control.T", f"horizon must lie between the first and the last "
                               f"sample, [{grid.t_min!r}, {last!r}], got {T!r}")
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
        forcing = rhs if csec.get("F") is None else _parse_forcing(
            csec["F"], "control.F", grid, A.m, path)
        control = ControlSpec(B=B, T=T, variant=variant, forcing=forcing, U0=U0)

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        _fail("seed", "must be a non-negative integer")

    tolerances = dict(DEFAULT_TOLERANCES)
    user_tols = _as_section(raw.get("tolerances", {}), "tolerances")
    for key, value in user_tols.items():
        if key not in DEFAULT_TOLERANCES:
            _fail(f"tolerances.{key}", "unknown tolerance name")
        tolerances[key] = _as_number(value, f"tolerances.{key}")
        if tolerances[key] <= 0:
            _fail(f"tolerances.{key}", f"must be > 0, got {value!r}")

    return InstanceConfig(nu=nu, grid=grid, pad_fraction=pad, law=law, A=A,
                          rhs=rhs, seed=seed, tolerances=tolerances,
                          control=control, source_path=os.path.abspath(path))
