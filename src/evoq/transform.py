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

from .errors import NotInvertibleError, SolverError, SymbolError
from .signals import NORM_FLOOR, TimeGrid, WeightedSignal, _into_range, _ldexp, _norm2

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
        return float(_norm2(self.hat))


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
    decay = np.exp(-abs(nu) * dt)
    # the direct-form-II-transposed filter (dt/2) [1, decay] / [1, -decay],
    # run from the left for nu > 0 and from the right for nu < 0
    x = g.phi if nu > 0 else g.phi[::-1]
    fresh, carried = (dt / 2.0) * x, ((dt / 2.0) * decay) * x
    y = np.empty_like(x)
    z = np.zeros_like(x[0])
    for j in range(len(x)):
        y[j] = fresh[j] + z
        z = carried[j] + decay * y[j]
    phi = y if nu > 0 else -y[::-1]
    return WeightedSignal(g.grid, nu, phi)


def block_apply(blocks: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Multiply each frequency of `phi` by its block: ifft(blocks_k fft(phi)_k).

    `blocks` has shape (N, m, m); `phi` holds flat coordinates of shape
    (N, m) or a batch of shape (N, m, b).
    """
    # an overflow is refused where the result becomes a `WeightedSignal`
    with np.errstate(over="ignore", invalid="ignore"):
        hat = np.fft.fft(phi, axis=0)
        return np.fft.ifft(np.einsum("kij,kj...->ki...", blocks, hat), axis=0)


def block_solve(blocks: np.ndarray, phi: np.ndarray, residual: bool = False):
    """Solve one m-by-m system per frequency (LU with partial pivoting).

    Same shapes as `block_apply`; a batch shares one factorization per block
    and one `_into_range` power, and each of its columns gets the bits it
    would get solved alone where the doubles stay normal.  Returns the flat
    solution; with `residual`, also the relative frequency-domain residual.
    """
    phi, k = _into_range(phi)
    # as in `block_apply`; `np.linalg.solve` sets its own error state
    with np.errstate(over="ignore", invalid="ignore"):
        hat = np.fft.fft(phi, axis=0)
        try:
            uhat = np.linalg.solve(blocks, hat[..., None] if hat.ndim == 2 else hat)
        except np.linalg.LinAlgError as exc:
            # reached under a positive certificate too, when it is so small
            # against the block's other entries that LU meets an exactly zero
            # pivot: Maxwell's blocks at mu = 1e-308, say, which the maxwell
            # kind refuses at load but a matrix kind can pose
            raise SolverError(f"singular frequency block: {exc}") from exc
        uhat = uhat.reshape(hat.shape)
        u = _ldexp(np.fft.ifft(uhat, axis=0), -k)
        if not residual:
            return u
        defect = np.einsum("kij,kj...->ki...", blocks, uhat) - hat
        return u, float(_norm2(defect)) / max(float(_norm2(hat)), NORM_FLOOR)


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
