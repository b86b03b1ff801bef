"""Reference signal shapes used by configs, demos and verification suites."""

from __future__ import annotations

import numpy as np

from .signals import TimeGrid, WeightedSignal, signal_from_values


def smooth_bump(t: np.ndarray, center: float = 0.0, width: float = 1.0) -> np.ndarray:
    """C-infinity bump supported on (center-width, center+width), peak 1."""
    with np.errstate(divide="ignore", over="ignore"):  # a tiny width sends s to inf
        s = (np.asarray(t, dtype=float) - center) / width
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def indicator(t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Half-open indicator of [lo, hi)."""
    t = np.asarray(t, dtype=float)
    return ((t >= lo) & (t < hi)).astype(float)


def bump_signal(grid: TimeGrid, nu: float, m: int, component: int = 0,
                center: float = 0.0, width: float = 1.0,
                amplitude: complex = 1.0) -> WeightedSignal:
    """Smooth bump in one component, stored at weight nu."""
    values = np.zeros((grid.n, m), dtype=complex)
    values[:, component] = amplitude * smooth_bump(grid.times, center, width)
    return signal_from_values(grid, nu, values)


def indicator_signal(grid: TimeGrid, nu: float, m: int, component: int = 0,
                     lo: float = 0.0, hi: float = 1.0,
                     amplitude: complex = 1.0) -> WeightedSignal:
    """Indicator of [lo, hi) in one component, stored at weight nu."""
    values = np.zeros((grid.n, m), dtype=complex)
    values[:, component] = amplitude * indicator(grid.times, lo, hi)
    return signal_from_values(grid, nu, values)


def random_signal(grid: TimeGrid, nu: float, m: int,
                  rng: np.random.Generator) -> WeightedSignal:
    """Complex standard-normal flat coordinates."""
    phi = rng.standard_normal((grid.n, m)) + 1j * rng.standard_normal((grid.n, m))
    return WeightedSignal(grid, nu, phi)


def band_limited_signal(grid: TimeGrid, nu: float, m: int,
                        rng: np.random.Generator) -> WeightedSignal:
    """Random signal with spectral content only on low frequency bins.

    Keeps bins |k| <= max(n // 8, 1), and never Nyquist, so multiplier
    identities that are exact away from the Nyquist tie-break hold at
    rounding level on these signals.
    """
    n = grid.n
    max_bin = min(max(n // 8, 1), (n - 1) // 2)
    hat = np.zeros((n, m), dtype=complex)
    idx = np.r_[0:max_bin + 1, n - max_bin:n]
    hat[idx] = rng.standard_normal((len(idx), m)) + 1j * rng.standard_normal((len(idx), m))
    phi = np.fft.ifft(hat, axis=0)
    return WeightedSignal(grid, nu, phi)
