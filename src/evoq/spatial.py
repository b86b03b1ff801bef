"""Finite-dimensional skew-selfadjoint spatial operators.

Generic matrices are wrapped through a skewness check; the builders assemble
heat-, wave- and Maxwell-style block stencils from 1D finite differences.
The adjoint pair (D, -D^T) stands in for the continuum gradient/divergence
pair, which is exactly the structure the skew blocks need; the boundary
condition sits with whichever factor carries the homogeneous constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DefinitenessError, NonCoerciveError, NotSkewError
from .material import finite_sum_law

__all__ = [
    "SpatialOperator",
    "check_skew",
    "build_heat_block",
    "build_wave_block",
    "build_maxwell_block",
]


@dataclass(frozen=True)
class SpatialOperator:
    """A skew-selfadjoint matrix acting pointwise in time."""

    A: np.ndarray
    label: str = ""

    def __post_init__(self):
        A = np.ascontiguousarray(self.A, dtype=complex)
        A.setflags(write=False)
        object.__setattr__(self, "A", A)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.A, 2))

    def negated(self) -> "SpatialOperator":
        return SpatialOperator(-self.A, label=f"-({self.label})" if self.label else "")


def check_skew(A: np.ndarray, label: str = "") -> SpatialOperator:
    """Wrap a matrix after verifying A^* = -A entrywise.

    The tolerance is 1e-12 * (1 + max|A|).  On failure the error carries the
    worst offending entry.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSkewError(f"matrix must be square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NotSkewError("matrix entries must be finite")
    defect = A + A.conj().T
    tol = 1e-12 * (1.0 + np.abs(A).max())
    worst = np.abs(defect).max()
    if worst > tol:
        i, j = np.unravel_index(np.argmax(np.abs(defect)), defect.shape)
        raise NotSkewError(
            f"matrix is not skew-selfadjoint: |(A + A^*)[{i},{j}]| = {worst:.3e} > {tol:.3e}",
            entry=(int(i), int(j)),
        )
    return SpatialOperator(A, label=label)


def _as_matrix(value, size: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.ndim == 0:
        arr = arr * np.eye(size)
    if arr.shape != (size, size):
        raise DefinitenessError(f"{name} must be scalar or ({size}, {size}), got {arr.shape}")
    return arr


def _hermitian_part(mat: np.ndarray, name: str) -> np.ndarray:
    """0.5 (mat + mat^*) as the block's coercivity check forms it, which must
    be finite: a finite coefficient can still overflow it."""
    with np.errstate(over="ignore", invalid="ignore"):
        herm = 0.5 * (mat + mat.conj().T)
    if not np.isfinite(herm).all():
        raise DefinitenessError(f"{name} has a Hermitian part that is not finite")
    return herm


def _require_positive_hermitian_part(mat: np.ndarray, name: str) -> None:
    lam = np.linalg.eigvalsh(_hermitian_part(mat, name))
    if not lam[0] > 0:
        raise DefinitenessError(
            f"{name} needs a positive definite Hermitian part, lambda_min={lam[0]:.3e}"
        )


def _inverse(mat: np.ndarray, name: str) -> np.ndarray:
    inv = np.linalg.inv(mat)
    if not np.isfinite(inv).all():
        raise DefinitenessError(f"{name} is too close to singular to invert")
    _hermitian_part(inv, f"{name} is too close to singular: its inverse")
    return inv


def _require_spd(mat: np.ndarray, name: str) -> None:
    if np.abs(mat - mat.conj().T).max() > 1e-12 * (1.0 + np.abs(mat).max()):
        raise DefinitenessError(f"{name} must be Hermitian")
    _require_positive_hermitian_part(mat, name)


def _forward_difference(k: int, dx: float) -> np.ndarray:
    """Cell differences of k+1 node values: D has shape (k, k+1)."""
    D = np.zeros((k, k + 1))
    idx = np.arange(k)
    D[idx, idx] = -1.0 / dx
    D[idx, idx + 1] = 1.0 / dx
    return D


def _clamped_difference(k: int, dx: float) -> np.ndarray:
    """Differences of k interior node values padded with zero ends: (k+1, k)."""
    D0 = np.zeros((k + 1, k))
    idx = np.arange(k)
    D0[idx, idx] = 1.0 / dx
    D0[idx + 1, idx] = -1.0 / dx
    return D0


def build_heat_block(k: int, a, dx: float = 1.0, nu: Optional[float] = None):
    """Heat-style block on k+1 temperature nodes and k flux cells.

    Returns the skew block [[0, div0], [grad, 0]] with grad the plain node
    difference D and div0 = -D^T (the no-flux condition sits in the
    divergence factor), plus the law with M0 = diag(I, 0), M1 = diag(0, 1/a).

    Parameters
    ----------
    k : int
        Interior cell count; the state dimension is 2k+1.
    a : scalar or (k, k) array
        Conductivity; its Hermitian part must be positive definite.
    dx : float
        Spatial step of the difference stencils.
    nu : float, optional
        When given, check coercivity of the returned law at this weight.
    """
    a = _as_matrix(a, k, "a")
    _require_positive_hermitian_part(a, "a")
    D = _forward_difference(k, dx)
    A = np.block([
        [np.zeros((k + 1, k + 1)), -D.T],
        [D, np.zeros((k, k))],
    ])
    op = check_skew(A, label=f"heat(k={k})")
    m = 2 * k + 1
    M0 = np.zeros((m, m), dtype=complex)
    M0[:k + 1, :k + 1] = np.eye(k + 1)
    M1 = np.zeros((m, m), dtype=complex)
    M1[k + 1:, k + 1:] = _inverse(a, "a")
    law = finite_sum_law([M0, M1])
    if nu is not None:
        _check_block_coercivity(M0, M1, nu, "heat block")
    return op, law


def build_wave_block(k: int, T_elast, dx: float = 1.0, nu: Optional[float] = None):
    """Wave-style block on k clamped velocity nodes and k+1 stress cells.

    Returns the skew block -[[0, div], [grad0, 0]] with grad0 the clamped
    difference D0 and div = -D0^T, plus the law M0 = diag(I, T_elast^{-1})
    with no memory term.
    """
    T_elast = _as_matrix(T_elast, k + 1, "T_elast")
    _require_spd(T_elast, "T_elast")
    D0 = _clamped_difference(k, dx)
    A = -np.block([
        [np.zeros((k, k)), -D0.T],
        [D0, np.zeros((k + 1, k + 1))],
    ])
    op = check_skew(A, label=f"wave(k={k})")
    m = 2 * k + 1
    M0 = np.zeros((m, m), dtype=complex)
    M0[:k, :k] = np.eye(k)
    M0[k:, k:] = _inverse(T_elast, "T_elast")
    law = finite_sum_law([M0])
    if nu is not None:
        _check_block_coercivity(M0, np.zeros_like(M0), nu, "wave block")
    return op, law


def build_maxwell_block(k: int, eps, mu, sigma, dx: float = 1.0,
                        nu: Optional[float] = None):
    """Maxwell-style block: k interior electric and k+1 magnetic components.

    The 1D reduction uses the adjoint stencil pair (curl0, curl) = (D0, D0^T)
    so the assembled [[0, -curl], [curl0, 0]] block is exactly skew; this is
    an analogue of the 3D operator, not a 3D discretisation.  The law is
    M0 = diag(eps, mu), M1 = diag(sigma, 0); when `nu` is given the combined
    certificate (covering nu*eps + Re sigma > 0 and nu*mu > 0) is checked.
    """
    eps = _as_matrix(eps, k, "eps")
    mu = _as_matrix(mu, k + 1, "mu")
    sigma = _as_matrix(sigma, k, "sigma")
    _require_spd(eps, "eps")
    _require_spd(mu, "mu")
    _hermitian_part(sigma, "sigma")
    D0 = _clamped_difference(k, dx)
    A = np.block([
        [np.zeros((k, k)), -D0.T],
        [D0, np.zeros((k + 1, k + 1))],
    ])
    op = check_skew(A, label=f"maxwell(k={k})")
    m = 2 * k + 1
    M0 = np.zeros((m, m), dtype=complex)
    M0[:k, :k] = eps
    M0[k:, k:] = mu
    M1 = np.zeros((m, m), dtype=complex)
    M1[:k, :k] = sigma
    law = finite_sum_law([M0, M1])
    if nu is not None:
        _check_block_coercivity(M0, M1, nu, "maxwell block")
    return op, law


def _check_block_coercivity(M0: np.ndarray, M1: np.ndarray, nu: float, what: str) -> None:
    # For laws M0 + z^{-1} M1 with Hermitian M0 the Hermitian part of
    # z M(z) is nu*M0 + Herm(M1) at every frequency, so one eigensolve
    # certifies the whole line.
    H = nu * 0.5 * (M0 + M0.conj().T) + 0.5 * (M1 + M1.conj().T)
    lam = np.linalg.eigvalsh(H) if np.isfinite(H).all() else [np.nan]
    if not lam[0] > 0:
        raise NonCoerciveError(
            f"{what} is not coercive at nu={nu}: lambda_min={lam[0]:.3e}",
            min_value=float(lam[0]),
        )
