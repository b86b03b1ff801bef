"""Material laws M(z), their coercivity certificates and the induced
frequency-domain operators on weighted signals.

A law is either a finite sum sum_k z^{-k} M_k of coefficient matrices or a
sampled map z -> M(z) declared bounded on a half plane Re z >= nu0.  The dual
law z -> M(z)^* of a finite sum is again a finite sum with adjointed
coefficients, but evaluated at the conjugate argument (the dual of a
holomorphic law is antiholomorphic); the `conjugate_argument` flag records
this so that evaluation of the dual law at z returns exactly M(z)^*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonCoerciveError, PoleError, PreconditionError
from .signals import TimeGrid, WeightedSignal
from .transform import block_apply, grid_frequencies

__all__ = [
    "MaterialLaw",
    "CoercivityCertificate",
    "finite_sum_law",
    "sampled_law",
    "eval_law",
    "adjoint_law",
    "coercivity",
    "apply_material_op",
    "apply_adjoint_material_op",
]


@dataclass(frozen=True)
class MaterialLaw:
    """A material law on spatial dimension m.

    Exactly one of `coeffs` (finite sum) and `sample` (sampled map) is set.
    `nu0` is the declared lower bound of admissible weights.
    """

    m: int
    coeffs: Optional[tuple] = None
    sample: Optional[Callable[[complex], np.ndarray]] = None
    nu0: float = 0.0
    conjugate_argument: bool = False

    def __post_init__(self):
        if (self.coeffs is None) == (self.sample is None):
            raise ValueError("exactly one of coeffs and sample must be given")
        if self.coeffs is not None:
            coeffs = tuple(np.ascontiguousarray(c, dtype=complex) for c in self.coeffs)
            if not coeffs:
                raise ValueError("a finite-sum law needs at least one coefficient")
            for c in coeffs:
                if c.shape != (self.m, self.m):
                    raise ValueError(f"coefficient shape {c.shape} != ({self.m}, {self.m})")
                if not np.isfinite(c).all():
                    raise ValueError("coefficient matrices must be finite")
                c.setflags(write=False)
            object.__setattr__(self, "coeffs", coeffs)

    @property
    def is_finite_sum(self) -> bool:
        return self.coeffs is not None

    @property
    def order(self) -> int:
        """Largest inverse power of z carried by a finite-sum law."""
        if not self.is_finite_sum:
            raise PreconditionError("order is only defined for finite-sum laws")
        return len(self.coeffs) - 1


def finite_sum_law(coeffs: Sequence[np.ndarray], nu0: float = 0.0) -> MaterialLaw:
    """Law sum_k z^{-k} M_k from coefficient matrices M_0, M_1, ..."""
    first = np.atleast_2d(np.asarray(coeffs[0]))
    return MaterialLaw(m=first.shape[0],
                       coeffs=tuple(np.atleast_2d(np.asarray(c)) for c in coeffs),
                       nu0=nu0)


def sampled_law(sample: Callable[[complex], np.ndarray], m: int, nu0: float) -> MaterialLaw:
    """Law given by a point evaluator, declared bounded on Re z >= nu0."""
    return MaterialLaw(m=m, sample=sample, nu0=nu0)


def _eval_finite_sum(law: MaterialLaw, z: np.ndarray) -> np.ndarray:
    """Horner evaluation in z^{-1} over an array of points; returns (N, m, m)."""
    if np.any(z == 0) and law.order >= 1:
        raise PoleError("finite-sum law with negative powers evaluated at z=0")
    if law.conjugate_argument:
        z = np.conj(z)
    w = np.zeros_like(z) if law.order == 0 else 1.0 / z
    out = np.broadcast_to(law.coeffs[-1], (len(z), law.m, law.m)).copy()
    for c in reversed(law.coeffs[:-1]):
        out = out * w[:, None, None] + c
    return out


def eval_law_many(law: MaterialLaw, z: np.ndarray) -> np.ndarray:
    """Evaluate the law at an array of points; returns (N, m, m)."""
    z = np.asarray(z, dtype=complex)
    if law.is_finite_sum:
        return _eval_finite_sum(law, z)
    if np.any(z.real < law.nu0 - 1e-12):
        raise PreconditionError(
            f"sampled law declared bounded only on Re z >= {law.nu0}"
        )
    out = np.empty((len(z), law.m, law.m), dtype=complex)
    for k, zk in enumerate(z):
        out[k] = np.asarray(law.sample(complex(zk)), dtype=complex)
    return out


def eval_law(law: MaterialLaw, z: complex) -> np.ndarray:
    """Evaluate M(z) as an (m, m) matrix."""
    return eval_law_many(law, np.array([z], dtype=complex))[0]


def adjoint_law(law: MaterialLaw) -> MaterialLaw:
    """The dual law z -> M(z)^*.

    Finite sums keep the finite-sum structure with conjugate-transposed
    coefficients (and conjugated argument); sampled laws wrap the evaluator
    with a pointwise conjugate transpose.  Involution: applying twice gives
    back a law with the original evaluations.  The bound nu0 is preserved.
    """
    if law.is_finite_sum:
        return MaterialLaw(
            m=law.m,
            coeffs=tuple(c.conj().T for c in law.coeffs),
            nu0=law.nu0,
            conjugate_argument=not law.conjugate_argument,
        )
    inner = law.sample
    return MaterialLaw(m=law.m, sample=lambda z: np.asarray(inner(z)).conj().T, nu0=law.nu0)


@dataclass(frozen=True)
class CoercivityCertificate:
    """Minimum over grid frequencies of the smallest eigenvalue of the
    Hermitian part of (i xi + nu) M(i xi + nu)."""

    nu: float
    c_est: float
    sample_count: int
    min_location: float


def coercivity(law: MaterialLaw, nu: float, grid: TimeGrid) -> CoercivityCertificate:
    """Certify the discrete coercivity constant of the law at weight nu.

    Uses a dense Hermitian eigensolve per grid frequency.  Raises
    `NonCoerciveError` (carrying the offending frequency) when the estimate
    is not positive (NaN included), and `PreconditionError` when nu is
    inadmissible.
    """
    if nu <= 0:
        raise PreconditionError(f"coercivity requires nu > 0, got {nu}")
    if nu < law.nu0:
        raise PreconditionError(f"nu={nu} below the declared bound nu0={law.nu0}")
    xi = grid_frequencies(grid)
    z = 1j * xi + nu
    blocks = z[:, None, None] * eval_law_many(law, z)
    herm = 0.5 * (blocks + np.conj(np.swapaxes(blocks, 1, 2)))
    lam = np.linalg.eigvalsh(herm)[:, 0]
    k = int(np.argmin(lam))
    c_est = float(lam[k])
    if not c_est > 0:  # a NaN minimum certifies nothing either
        raise NonCoerciveError(
            f"law is not coercive at nu={nu}: lambda_min={c_est:.3e} at xi={xi[k]:.6g}",
            min_location=float(xi[k]),
            min_value=c_est,
        )
    return CoercivityCertificate(nu=nu, c_est=c_est, sample_count=len(xi),
                                 min_location=float(xi[k]))


def apply_material_op(law: MaterialLaw, f: WeightedSignal) -> WeightedSignal:
    """Apply the material-law operator at f's weight: multiplier M(i xi + nu)."""
    if f.nu < law.nu0:
        raise PreconditionError(f"weight {f.nu} below the declared bound nu0={law.nu0}")
    z = 1j * grid_frequencies(f.grid) + f.nu
    return f.with_phi(block_apply(eval_law_many(law, z), f.phi))


def apply_adjoint_material_op(law: MaterialLaw, g: WeightedSignal) -> WeightedSignal:
    """Apply the paired operator on the opposite weight.

    For g at weight -nu this is the multiplier M(i xi + nu)^* applied to the
    flat coordinates, the unique operator satisfying
    <M f, g>_nu = <f, (this)(g)>_nu for all f at weight nu.
    """
    nu = -g.nu
    if nu < law.nu0:
        raise PreconditionError(f"weight {nu} below the declared bound nu0={law.nu0}")
    z = 1j * grid_frequencies(g.grid) + nu
    blocks = np.conj(np.swapaxes(eval_law_many(law, z), 1, 2))
    return g.with_phi(block_apply(blocks, g.phi))
