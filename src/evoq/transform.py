"""Discrete transform to the frequency side and the functional calculus built
on it: time derivative, causal antiderivative and general matrix multipliers.

In flat coordinates the weighted transform is the plain DFT of the stored
array, and the shifted derivative acts as the multiplier (i*xi + nu).  The
antiderivative deliberately avoids the spectral inverse: it is an
exponentially weighted cumulative trapezoid rule, which is exactly causal
(anticausal for negative weights) where a periodic inverse would wrap around
the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.signal import lfilter

from .errors import NotInvertibleError, SolverError, SymbolError
from .signals import NORM_FLOOR, TimeGrid, WeightedSignal

__all__ = [
    "Spectrum",
    "grid_frequencies",
    "fourier_laplace",
    "inverse_fourier_laplace",
    "time_derivative",
    "antiderivative",
    "spectral_multiplier",
]


def grid_frequencies(grid: TimeGrid) -> np.ndarray:
    """DFT angular frequencies of the grid, wrapped to (-pi/dt, pi/dt].

    The Nyquist bin of an even-length grid is assigned to the positive
    branch, a deterministic tie-break.
    """
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dt)
    if grid.n % 2 == 0:
        xi = xi.copy()
        xi[grid.n // 2] = abs(xi[grid.n // 2])
    return xi


@dataclass(frozen=True)
class Spectrum:
    """DFT of a weighted signal's flat coordinates, unitary dt-normalisation.

    With hat = sqrt(dt/n) * DFT(phi) the plain l2 norm of `hat` equals the
    weighted L2 norm of the signal (Parseval).
    """

    grid: TimeGrid
    nu: float
    hat: np.ndarray

    @property
    def m(self) -> int:
        return self.hat.shape[1]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.hat))


def fourier_laplace(f: WeightedSignal) -> Spectrum:
    """Transform to the frequency side (DFT of the flat coordinates)."""
    scale = np.sqrt(f.grid.dt / f.grid.n)
    return Spectrum(f.grid, f.nu, np.fft.fft(f.phi, axis=0) * scale)


def inverse_fourier_laplace(s: Spectrum) -> WeightedSignal:
    """Inverse of `fourier_laplace`."""
    scale = np.sqrt(s.grid.dt / s.grid.n)
    return WeightedSignal(s.grid, s.nu, np.fft.ifft(s.hat, axis=0) / scale)


def time_derivative(f: WeightedSignal) -> WeightedSignal:
    """Apply the shifted derivative: multiplier (i*xi + nu) per frequency.

    Equivalently (d/dt + nu) acting on the flat coordinates.  Spectrally
    exact on grid frequencies; accuracy degrades only next to Nyquist.
    """
    sym = 1j * grid_frequencies(f.grid) + f.nu
    hat = np.fft.fft(f.phi, axis=0)
    return WeightedSignal(f.grid, f.nu, np.fft.ifft(sym[:, None] * hat, axis=0))


def antiderivative(g: WeightedSignal) -> WeightedSignal:
    """Bounded inverse of the shifted derivative, by cumulative quadrature.

    For nu > 0 this is the running integral from the left (causal); for
    nu < 0 it is minus the running integral to the right (anticausal).  Both
    branches are trapezoid rules written as an exponentially damped
    recurrence on the flat coordinates, so no weight is ever exponentiated
    and the support can only grow in the causal direction.
    """
    nu = g.nu
    if nu == 0:
        raise NotInvertibleError("the shifted derivative has no bounded inverse at nu=0")
    dt = g.grid.dt
    if nu > 0:
        decay = np.exp(-nu * dt)
        b = (dt / 2.0) * np.array([1.0, decay])
        a = np.array([1.0, -decay])
        phi = lfilter(b, a, g.phi, axis=0)
    else:
        growth = np.exp(nu * dt)  # < 1 for nu < 0
        b = (dt / 2.0) * np.array([1.0, growth])
        a = np.array([1.0, -growth])
        phi = -lfilter(b, a, g.phi[::-1], axis=0)[::-1]
    return WeightedSignal(g.grid, nu, phi)


def block_apply(blocks: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Multiply each frequency of `phi` by its block: ifft(blocks_k fft(phi)_k).

    `blocks` has shape (N, m, m); `phi` holds flat coordinates of shape
    (N, m) or a batch of shape (N, m, b).
    """
    hat = np.fft.fft(phi, axis=0)
    # an overflow is refused where the result becomes a `WeightedSignal`
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.ifft(np.einsum("kij,kj...->ki...", blocks, hat), axis=0)


def block_solve(blocks: np.ndarray, phi: np.ndarray):
    """Solve one m-by-m system per frequency (LU with partial pivoting).

    Same shapes as `block_apply`; a batch shares one factorization per block.
    Returns the solution in flat coordinates together with the relative
    frequency-domain residual of the assembled operator.
    """
    hat = np.fft.fft(phi, axis=0)
    try:
        uhat = np.linalg.solve(blocks, hat[..., None] if hat.ndim == 2 else hat)
    except np.linalg.LinAlgError as exc:  # unreachable under a positive certificate
        raise SolverError(f"singular frequency block: {exc}") from exc
    uhat = uhat.reshape(hat.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # as in `block_apply`
        defect = np.einsum("kij,kj...->ki...", blocks, uhat) - hat
        residual = float(np.linalg.norm(defect) / max(np.linalg.norm(hat), NORM_FLOOR))
        return np.fft.ifft(uhat, axis=0), residual


def spectral_multiplier(
    f: WeightedSignal, sym: Callable[[float], np.ndarray]
) -> WeightedSignal:
    """Apply a frequency-dependent matrix symbol: hat_k <- sym(xi_k) hat_k.

    Parameters
    ----------
    f : WeightedSignal
    sym : callable
        Maps a frequency xi to an (m, m) matrix, or to a scalar which is
        treated as a multiple of the identity.

    Raises
    ------
    SymbolError
        If the symbol returns a non-finite entry at some grid frequency.
    """
    xi = grid_frequencies(f.grid)
    m = f.m
    blocks = np.empty((f.grid.n, m, m), dtype=complex)
    eye = np.eye(m)
    for k, x in enumerate(xi):
        val = np.asarray(sym(x), dtype=complex)
        blocks[k] = val * eye if val.ndim == 0 else val
    if not np.isfinite(blocks).all():
        bad = np.argwhere(~np.isfinite(blocks))[0]
        raise SymbolError(f"symbol returned a non-finite entry at frequency index {bad[0]}")
    return WeightedSignal(f.grid, f.nu, block_apply(blocks, f.phi))
