"""Time grids, exponentially weighted signals and support windows.

A function f with e^{-nu t} f(t) square integrable over the real line is
stored through its flat coordinates phi_j = e^{-nu t_j} f(t_j).  In flat
coordinates every weighted operation (norms, the cross-weight pairing,
restrictions, time reversal) becomes a plain array operation, and the
exponential weight never has to be materialised.  Only converting samples
to flat coordinates and back evaluates it, under one rule: |nu * t| <= 700
on every grid sample, below where e^{nu t} overflows double precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridError, NonFiniteSignalError, PairingError, WindowError

NORM_FLOOR = 1e-300


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n samples t_j = t_min + j*dt covering [t_min, t_max).

    Cells follow the half-open convention [t_j, t_{j+1}), so
    dt = (t_max - t_min) / n and t_max itself is not a sample.
    """

    t_min: float
    t_max: float
    n: int

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise GridError(f"need t_min < t_max, got [{self.t_min}, {self.t_max}]")
        if self.n < 2:
            raise GridError(f"need at least 2 samples, got n={self.n}")

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / self.n

    @property
    def times(self) -> np.ndarray:
        return self.t_min + self.dt * np.arange(self.n)

    @property
    def symmetric(self) -> bool:
        """True when the grid is centred on 0 (t_min == -t_max)."""
        return abs(self.t_min + self.t_max) <= 1e-12 * (self.t_max - self.t_min)

    def index_at_or_after(self, T: float) -> int:
        """First sample index j with t_j >= T, clipped to [0, n].

        Times within 1e-9*dt of a sample are snapped onto it, so a T that is
        meant to be a grid point is not pushed to the next cell by roundoff.
        """
        raw = (T - self.t_min) / self.dt
        return min(max(math.ceil(raw - 1e-9), 0), self.n)

    def index_below(self, T: float) -> int:
        """Largest j with t_j <= T (within the same snapping tolerance)."""
        raw = (T - self.t_min) / self.dt
        return min(max(math.floor(raw + 1e-9), 0), self.n - 1)

    def padded(self, fraction: float) -> tuple["TimeGrid", int]:
        """Extend the grid by ceil(fraction*n) cells of the same dt per side.

        Returns the padded grid together with the pad width in samples.
        """
        if fraction < 0:
            raise GridError("padding fraction must be >= 0")
        p = math.ceil(self.n * fraction)
        if p == 0:
            return self, 0
        dt = self.dt
        return TimeGrid(self.t_min - p * dt, self.t_max + p * dt, self.n + 2 * p), p


@dataclass(frozen=True)
class WeightedSignal:
    """A time-discretised element of the nu-weighted L2 space.

    Attributes
    ----------
    grid : TimeGrid
        Sample locations.
    nu : float
        Weight exponent (1/time).
    phi : ndarray of shape (n, m), complex
        Flat coordinates phi_j = e^{-nu t_j} f(t_j), one m-vector per sample.
    """

    grid: TimeGrid
    nu: float
    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=complex)
        if phi.ndim == 1:
            phi = phi[:, None]
        if phi.ndim != 2 or phi.shape[0] != self.grid.n:
            raise GridError(
                f"phi must have shape (n, m) with n={self.grid.n}, got {phi.shape}"
            )
        if not np.isfinite(phi).all():
            raise NonFiniteSignalError("signal entries must be finite")
        phi = np.ascontiguousarray(phi)
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)

    @property
    def m(self) -> int:
        return self.phi.shape[1]

    @property
    def norm(self) -> float:
        """Weighted L2 norm, dt-quadrature of the flat coordinates; +inf where
        finite samples square past the float range."""
        with np.errstate(over="ignore", invalid="ignore"):
            return math.sqrt(self.grid.dt) * float(np.linalg.norm(self.phi))

    def values(self) -> np.ndarray:
        """Reconstruct the unweighted samples f(t_j) = e^{nu t_j} phi_j.

        Only safe while |nu * t| stays below the exp overflow threshold; the
        flat representation itself never has this restriction.
        """
        return np.exp(_weight_exponents(self.nu, self.grid))[:, None] * self.phi

    def with_phi(self, phi: np.ndarray) -> "WeightedSignal":
        return WeightedSignal(self.grid, self.nu, phi)

    def __add__(self, other: "WeightedSignal") -> "WeightedSignal":
        if self.grid != other.grid or self.nu != other.nu:
            raise PairingError("can only add signals on the same grid and weight")
        return WeightedSignal(self.grid, self.nu, self.phi + other.phi)

    def __sub__(self, other: "WeightedSignal") -> "WeightedSignal":
        if self.grid != other.grid or self.nu != other.nu:
            raise PairingError("can only subtract signals on the same grid and weight")
        return WeightedSignal(self.grid, self.nu, self.phi - other.phi)

    def __mul__(self, scalar) -> "WeightedSignal":
        return WeightedSignal(self.grid, self.nu, self.phi * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "WeightedSignal":
        return WeightedSignal(self.grid, self.nu, -self.phi)


_EXPONENT_LIMIT = 700.0


def _weight_exponents(nu: float, grid: TimeGrid) -> np.ndarray:
    """The weight's exponents nu * t_j on the grid: the one overflow rule.

    Raises `OverflowError` when some |nu * t_j| exceeds 700, just below where
    e^{|nu t|} overflows double precision.
    """
    with np.errstate(over="ignore"):
        exponents = nu * grid.times
        peak = float(np.max(np.abs(exponents)))
    if peak > _EXPONENT_LIMIT:
        raise OverflowError(f"|nu t| reaches {peak:.6g} on this grid and e^(nu t) "
                            f"overflows above {_EXPONENT_LIMIT:g}")
    return exponents


def zero_signal(grid: TimeGrid, nu: float, m: int) -> WeightedSignal:
    return WeightedSignal(grid, nu, np.zeros((grid.n, m), dtype=complex))


def signal_from_values(grid: TimeGrid, nu: float, values: np.ndarray) -> WeightedSignal:
    """Build a signal from unweighted samples f(t_j); stores e^{-nu t_j} f(t_j)."""
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None]
    return WeightedSignal(grid, nu, np.exp(_weight_exponents(-nu, grid))[:, None] * values)


def signal_from_function(grid: TimeGrid, nu: float, fn: Callable[[np.ndarray], np.ndarray]) -> WeightedSignal:
    """Sample fn on the grid (fn maps a time array to (n,) or (n, m) values)."""
    return signal_from_values(grid, nu, np.asarray(fn(grid.times)))


def nu_product(f: WeightedSignal, g: WeightedSignal) -> complex:
    """Duality pairing of f at weight nu against g at weight -nu.

    Antilinear in f, linear in g.  In flat coordinates the opposite weights
    cancel and the pairing is the plain dt-weighted inner product of the
    stored arrays.
    """
    if f.grid != g.grid:
        raise PairingError("signals live on different grids")
    if g.nu != -f.nu:
        raise PairingError(f"weights must be exact negatives, got {f.nu} and {g.nu}")
    if f.m != g.m:
        raise PairingError(f"spatial dimensions differ: {f.m} vs {g.m}")
    return complex(f.grid.dt * np.vdot(f.phi, g.phi))


def weight_flip(f: WeightedSignal) -> WeightedSignal:
    """Multiply by e^{-2 nu t}, mapping weight nu to weight -nu.

    Unitary between the two weighted spaces; in flat coordinates the stored
    array is unchanged and only the weight tag flips.
    """
    return WeightedSignal(f.grid, -f.nu, f.phi)


def time_reverse(f: WeightedSignal) -> WeightedSignal:
    """Reflect time, f(-.) at weight -nu; requires a symmetric grid.

    Sample j moves to n-1-j, which pairs the cell [t_j, t_{j+1}) with
    [-t_{j+1}, -t_j); the half-cell offset is absorbed into discretisation
    tolerances so the operation stays an exact array reversal.
    """
    if not f.grid.symmetric:
        raise GridError("time reversal needs a grid symmetric about 0 (t_min == -t_max)")
    return WeightedSignal(f.grid, -f.nu, f.phi[::-1])


@dataclass(frozen=True)
class SupportWindow:
    """A one-sided time window, either (-inf, T) or [T, inf) on the grid.

    The half-open cell convention assigns a time T to the first sample index
    with t_j >= T; `at_least` keeps exactly those samples and `at_most` keeps
    the complement, so the two restrictions add up to the identity.
    """

    kind: str  # "at_most" | "at_least"
    T: float

    def __post_init__(self):
        if self.kind not in ("at_most", "at_least"):
            raise WindowError(f"unknown window kind {self.kind!r}")

    @classmethod
    def at_most(cls, T: float) -> "SupportWindow":
        return cls("at_most", T)

    @classmethod
    def at_least(cls, T: float) -> "SupportWindow":
        return cls("at_least", T)

    def mask(self, grid: TimeGrid) -> np.ndarray:
        if not (grid.t_min <= self.T <= grid.t_max):
            raise WindowError(
                f"window time {self.T} outside grid [{grid.t_min}, {grid.t_max}]"
            )
        j = grid.index_at_or_after(self.T)
        keep = np.zeros(grid.n, dtype=bool)
        if self.kind == "at_least":
            keep[j:] = True
        else:
            keep[:j] = True
        return keep


def restrict(f: WeightedSignal, window: SupportWindow) -> WeightedSignal:
    """Zero all samples outside the window.  Idempotent and self-paired:
    restricting either factor of the nu-product gives the same value."""
    keep = window.mask(f.grid)
    phi = np.where(keep[:, None], f.phi, 0.0)
    return WeightedSignal(f.grid, f.nu, phi)


def support_leakage(f: WeightedSignal, window: SupportWindow) -> float:
    """Relative mass of f outside the window, in [0, 1].

    Returns ||f - restrict(f, window)|| / max(||f||, floor); a zero signal
    reports zero leakage.
    """
    inside = restrict(f, window)
    return (f - inside).norm / max(f.norm, NORM_FLOOR)


def save_signal(sig: WeightedSignal, basepath: str) -> None:
    """Write `<basepath>.csv` and `<basepath>.json`.

    The CSV is columnar: t, Re phi_1..m, Im phi_1..m, printed with 17
    significant digits so a round trip reproduces the doubles exactly.  The
    JSON header carries (nu, grid, m).
    """
    header = {
        "nu": sig.nu,
        "grid": {"t_min": sig.grid.t_min, "t_max": sig.grid.t_max, "n": sig.grid.n},
        "m": sig.m,
    }
    with open(basepath + ".json", "w") as fh:
        json.dump(header, fh, sort_keys=True, indent=2)
        fh.write("\n")
    cols = [sig.grid.times] + [sig.phi[:, i].real for i in range(sig.m)] \
        + [sig.phi[:, i].imag for i in range(sig.m)]
    names = ["t"] + [f"re_phi_{i + 1}" for i in range(sig.m)] \
        + [f"im_phi_{i + 1}" for i in range(sig.m)]
    data = np.column_stack(cols)
    np.savetxt(basepath + ".csv", data, fmt="%.17g", delimiter=",",
               header=",".join(names), comments="")


def load_signal(basepath: str) -> WeightedSignal:
    """Read a signal written by `save_signal`."""
    with open(basepath + ".json") as fh:
        header = json.load(fh)
    grid = TimeGrid(header["grid"]["t_min"], header["grid"]["t_max"], header["grid"]["n"])
    m = header["m"]
    data = np.loadtxt(basepath + ".csv", delimiter=",", skiprows=1, ndmin=2)
    phi = data[:, 1:1 + m] + 1j * data[:, 1 + m:1 + 2 * m]
    return WeightedSignal(grid, header["nu"], phi)
