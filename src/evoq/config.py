"""Instance configuration: a single JSON file describing weight, grid, law,
spatial block, forcing and (optionally) a control section.

Matrices are written inline, row major, every entry an explicit [re, im]
pair; times are in seconds and weights in 1/seconds.  Validation failures
raise `SchemaError` with a pointer to the offending field, and so does a
key the parser would not read.  The tolerance ladder is fixed, so no
config sets it.  A control section is built into its `ControlProblem` at
load time, so every command refuses one that cannot be built.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from types import MappingProxyType
from typing import Optional

import numpy as np

from .control import (DEFAULT_SVD_RTOL, FEASIBILITY_TOL, POINTWISE_FEASIBILITY_TOL,
                      ControlProblem)
from .errors import (DefinitenessError, EvoqError, NonCoerciveError, NotSkewError,
                     PreconditionError, SchemaError, UnsupportedLawError)
from .material import MaterialLaw, finite_sum_law
from .signals import TimeGrid, WeightedSignal, _weight_exponents, load_signal, zero_signal
from .solver import CROSS_METHOD_TOL, DEFAULT_PAD_FRACTION, EvoProblem
from .spatial import (
    SpatialOperator,
    build_heat_block,
    build_maxwell_block,
    build_wave_block,
    check_skew,
)
from .waveforms import bump_signal, indicator_signal

__all__ = ["InstanceConfig", "Forcing", "load_config", "DEFAULT_TOLERANCES"]

# The one tolerance ladder, a rung per extra discretisation error source.  It
# is fixed: every verdict of every config is decided on the same rungs.
DEFAULT_TOLERANCES = MappingProxyType({
    "algebraic": 1e-12,
    "pairing": 1e-10,
    "conjugation": 1e-8,
    "cross_method": CROSS_METHOD_TOL,
    "cross_nu": 1e-4,
    "feasibility": FEASIBILITY_TOL,
    "pointwise_feasibility": POINTWISE_FEASIBILITY_TOL,
    "svd_cutoff": DEFAULT_SVD_RTOL,
})


# Bytes allowed for the padded frequency blocks (N_pad, m, m) complex that
# every operator builds; a config beyond it is refused before any array of
# grid or spatial size is allocated.
_BLOCK_BUDGET = 256 * 2 ** 20


# The keys the parser reads, per section; any other key is refused.
_ROOT_FIELDS = ("seed", "nu", "grid", "spatial", "law", "rhs", "control")
_GRID_FIELDS = ("t_min", "t_max", "n", "padding_fraction")
_SPATIAL_FIELDS = {
    "matrix": ("kind", "matrix"),
    "heat": ("kind", "k", "dx", "a"),
    "wave": ("kind", "k", "dx", "T_elast"),
    "maxwell": ("kind", "k", "dx", "eps", "mu", "sigma"),
}
_LAW_FIELDS = ("coeffs", "nu0")
_FORCING_FIELDS = ("shape", "component", "amplitude", "center", "width", "lo", "hi", "csv")
_CONTROL_FIELDS = ("B", "T", "variant", "U0", "F")


def _fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def _known(section: dict, path: str, fields) -> None:
    """Refuse a key of `section` (at `path`, "" for the root) that is not
    in `fields`, so that a misspelt key cannot silently fall back to a default."""
    for key in section:
        if key not in fields:
            _fail(f"{path}.{key}" if path else key, "unknown field")


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
class InstanceConfig:
    nu: float
    grid: TimeGrid
    pad_fraction: float
    law: MaterialLaw
    A: SpatialOperator
    rhs: Forcing
    seed: int
    control: Optional[ControlProblem] = None
    source_path: Optional[str] = None

    @property
    def m(self) -> int:
        return self.A.m

    @property
    def tolerances(self) -> MappingProxyType:
        """The fixed tolerance ladder, `DEFAULT_TOLERANCES`."""
        return DEFAULT_TOLERANCES

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
    _known(spec, path, _FORCING_FIELDS)
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
    if not isinstance(kind, str) or kind not in _SPATIAL_FIELDS:
        _fail("spatial.kind", f"unknown kind {kind!r}")
    _known(section, "spatial", _SPATIAL_FIELDS[kind])
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

    def coeff(name, default=None):
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
            return build_heat_block(k, coeff("a"), dx=dx, nu=nu)
        if kind == "wave":
            return build_wave_block(k, coeff("T_elast"), dx=dx, nu=nu)
        return build_maxwell_block(k, coeff("eps", 1.0), coeff("mu", 1.0),
                                   coeff("sigma", 0.0), dx=dx, nu=nu)
    except (DefinitenessError, NonCoerciveError) as exc:
        # the builders' messages open with the coefficient's name, and a
        # singular block's message names the step as "dx="
        raise SchemaError(f"spatial.{exc}".replace("dx=", "spatial.dx=")) from None


def _parse_control(csec: dict, nu: float, grid: TimeGrid, law: MaterialLaw,
                   A: SpatialOperator, rhs: Forcing, config_path: str) -> ControlProblem:
    """The control section as the problem it poses: its forcing (`control.F`,
    else `rhs`) at +nu on the forward instance, with B, T, variant and U0."""
    _known(csec, "control", _CONTROL_FIELDS)
    B = _parse_complex_matrix(_expect(csec, "B", "control"), "control.B")
    T = _as_number(_expect(csec, "T", "control"), "control.T")
    variant = csec.get("variant", "supported")
    # a U0 given to the supported variant is refused by ControlProblem
    U0 = (_parse_complex_vector(_expect(csec, "U0", "control"), "control.U0")
          if variant == "pointwise" or "U0" in csec else None)
    forcing = rhs if csec.get("F") is None else _parse_forcing(
        csec["F"], "control.F", grid, A.m, config_path)
    base = EvoProblem(nu, grid, law, A, forcing.signal(grid, A.m, nu), "forward")
    try:
        return ControlProblem(base=base, B=B, T=T, variant=variant, U0=U0)
    except (PreconditionError, UnsupportedLawError) as exc:
        # ControlProblem's messages open with the field's name
        raise SchemaError(f"control.{exc}") from None


def load_config(path: str) -> InstanceConfig:
    """Parse and validate an instance configuration file."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("config root must be an object")
    _known(raw, "", _ROOT_FIELDS)

    nu = _as_number(_expect(raw, "nu", "config"), "nu")
    if nu <= 0:
        _fail("nu", "weight must be positive")

    gsec = _as_section(_expect(raw, "grid", "config"), "grid")
    _known(gsec, "grid", _GRID_FIELDS)
    t_min = _as_number(_expect(gsec, "t_min", "grid"), "grid.t_min")
    t_max = _as_number(_expect(gsec, "t_max", "grid"), "grid.t_max")
    if not t_min < t_max:
        _fail("grid.t_min", f"must be below grid.t_max, got [{t_min}, {t_max}]")
    n = _as_int(_expect(gsec, "n", "grid"), "grid.n")
    if n < 2:
        _fail("grid.n", f"need at least 2 samples, got {n}")
    grid = TimeGrid(t_min, t_max, n)
    pad = _as_number(gsec.get("padding_fraction", DEFAULT_PAD_FRACTION),
                     "grid.padding_fraction")
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
        _known(lsec, "law", _LAW_FIELDS)
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
        control = _parse_control(_as_section(raw["control"], "control"), nu, grid, law, A,
                                 rhs, path)

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        _fail("seed", "must be a non-negative integer")

    return InstanceConfig(nu=nu, grid=grid, pad_fraction=pad, law=law, A=A,
                          rhs=rhs, seed=seed, control=control,
                          source_path=os.path.abspath(path))
