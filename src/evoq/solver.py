"""Forward and backward solution operators for evolution systems
(d/dt,nu applied to M(d/dt,nu) plus a skew block A), with an independent
time-stepping oracle and the verification harnesses built on the pair.

The primary path solves one m-by-m block per grid frequency; the blocks of
the backward (adjoint) system are the exact conjugate transposes of the
forward blocks, which makes the duality pairing identity hold to rounding.
All block arithmetic goes through `transform.block_apply` and
`transform.block_solve`, so the two directions differ only in their blocks
and in the region their solutions must leave empty.  The trapezoidal
stepper is exactly causal by construction and serves as the cross-check for
the spectral path, whose periodic wrap-around is measured on a zero-padded
margin and reported alongside every solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    OracleError,
    PreconditionError,
    UnsupportedLawError,
)
from .material import CoercivityCertificate, MaterialLaw, coercivity, eval_law_many, finite_sum_law
from .signals import NORM_FLOOR, TimeGrid, WeightedSignal, time_reverse
from .spatial import SpatialOperator
from .transform import block_apply, block_solve, grid_frequencies

__all__ = [
    "EvoProblem",
    "SolveReport",
    "solve_forward",
    "solve_adjoint",
    "apply_forward_operator",
    "apply_adjoint_operator",
    "timestep_oracle",
    "timestep_adjoint_oracle",
    "time_reversal_conjugation_check",
    "nu_independence_check",
    "ConjugationReport",
    "NuIndependenceReport",
]


@dataclass(frozen=True)
class EvoProblem:
    """One discrete instance: weight, grid, law, skew block and right-hand side.

    The right-hand side lives at weight +nu for the forward system and at
    weight -nu for the backward system.
    """

    nu: float
    grid: TimeGrid
    law: MaterialLaw
    A: SpatialOperator
    rhs: WeightedSignal
    direction: str = "forward"  # "forward" | "adjoint"

    def __post_init__(self):
        if self.direction not in ("forward", "adjoint"):
            raise PreconditionError(f"unknown direction {self.direction!r}")
        if self.nu <= 0:
            raise PreconditionError("the weight must be positive")
        if self.law.m != self.A.m:
            raise PreconditionError(
                f"law dimension {self.law.m} != spatial dimension {self.A.m}"
            )
        if self.rhs.grid != self.grid:
            raise PreconditionError("rhs grid differs from the problem grid")
        if self.rhs.m != self.A.m:
            raise PreconditionError("rhs dimension differs from the spatial dimension")
        expected = self.nu if self.direction == "forward" else -self.nu
        if self.rhs.nu != expected:
            raise PreconditionError(
                f"{self.direction} rhs must carry weight {expected}, got {self.rhs.nu}"
            )


@dataclass(frozen=True)
class SolveReport:
    """Solution plus the diagnostics every solve ships with.

    `wraparound_tolerance` is the relative mass the periodic spectral path
    leaves in the region that causality (forward) or amnesia (adjoint) pins
    to zero on the padded grid; cross-method comparisons should not expect
    agreement below it.
    """

    solution: WeightedSignal
    residual_rel: float
    norm_ratio: float
    wraparound_tolerance: float
    certificate: CoercivityCertificate
    causality_leakage: Optional[float] = None
    amnesia_leakage: Optional[float] = None


def forward_blocks(law: MaterialLaw, A: SpatialOperator, nu: float,
                   grid: TimeGrid) -> np.ndarray:
    """Frequency blocks (i xi + nu) M(i xi + nu) + A, shape (n, m, m)."""
    z = 1j * grid_frequencies(grid) + nu
    return z[:, None, None] * eval_law_many(law, z) + A.A


def adjoint_blocks(law: MaterialLaw, A: SpatialOperator, nu: float,
                   grid: TimeGrid) -> np.ndarray:
    """Frequency blocks of the backward system, -(i xi - nu) M(i xi + nu)^* - A.

    Computed as the conjugate transpose of the forward blocks, which they
    equal identically; sharing the arithmetic keeps the discrete duality
    pairing exact.  Like the forward blocks, they are applied and solved only
    through `transform.block_apply` and `transform.block_solve`.
    """
    P = forward_blocks(law, A, nu, grid)
    return np.conj(np.swapaxes(P, 1, 2))


def _direction_blocks(law: MaterialLaw, A: SpatialOperator, nu: float,
                      grid: TimeGrid, direction: str) -> np.ndarray:
    if direction == "forward":
        return forward_blocks(law, A, nu, grid)
    return adjoint_blocks(law, A, nu, grid)


def _first_nonzero(phi: np.ndarray) -> int:
    nz = np.flatnonzero(np.abs(phi).max(axis=1) > 0.0)
    return int(nz[0]) if nz.size else phi.shape[0]


def _last_nonzero(phi: np.ndarray) -> int:
    nz = np.flatnonzero(np.abs(phi).max(axis=1) > 0.0)
    return int(nz[-1]) if nz.size else -1


def _spectral_solve(p: EvoProblem, pad_fraction: float) -> SolveReport:
    """Solve either direction on a zero-padded grid; leakage and wrap-around
    are measured before the rhs support (forward) or after it (adjoint)."""
    forward = p.direction == "forward"
    pad_grid, npad = p.grid.padded(pad_fraction)
    cert = coercivity(p.law, p.nu, pad_grid)
    blocks = _direction_blocks(p.law, p.A, p.nu, pad_grid, p.direction)

    phi_pad = np.zeros((pad_grid.n, p.rhs.m), dtype=complex)
    phi_pad[npad:npad + p.grid.n] = p.rhs.phi
    u_pad, residual = block_solve(blocks, phi_pad)

    if forward:
        first = _first_nonzero(p.rhs.phi)
        pinned_pad, pinned = slice(0, npad + first), slice(0, first)
    else:
        last = _last_nonzero(p.rhs.phi)
        pinned_pad, pinned = slice(npad + last + 1, pad_grid.n), slice(last + 1, p.grid.n)
    total = max(float(np.linalg.norm(u_pad)), NORM_FLOOR)
    wraparound = float(np.linalg.norm(u_pad[pinned_pad])) / total

    u = u_pad[npad:npad + p.grid.n]
    solution = WeightedSignal(p.grid, p.rhs.nu, u)
    crop_total = max(float(np.linalg.norm(u)), NORM_FLOOR)
    leakage = float(np.linalg.norm(u[pinned])) / crop_total

    return SolveReport(
        solution=solution,
        residual_rel=residual,
        norm_ratio=solution.norm / max(p.rhs.norm, NORM_FLOOR),
        wraparound_tolerance=wraparound,
        certificate=cert,
        causality_leakage=leakage if forward else None,
        amnesia_leakage=None if forward else leakage,
    )


def solve_forward(p: EvoProblem, pad_fraction: float = 0.25) -> SolveReport:
    """Solve the forward system per frequency block on a zero-padded grid.

    The solution operator is bounded by 1/c with c the certified coercivity
    constant, so `norm_ratio` cannot exceed 1/c_est up to rounding.  Reports
    the relative mass before the right-hand side's support start (causality
    leakage) and the wrap-around measured on the same region of the padded
    grid.
    """
    if p.direction != "forward":
        raise PreconditionError("solve_forward needs direction='forward'")
    return _spectral_solve(p, pad_fraction)


def solve_adjoint(p: EvoProblem, pad_fraction: float = 0.25) -> SolveReport:
    """Solve the backward system; the mirror image of `solve_forward`.

    The right-hand side lives at weight -nu; a support bound (-inf, a] on it
    is inherited by the solution (amnesia), so the reported leakage sits
    after the support end.
    """
    if p.direction != "adjoint":
        raise PreconditionError("solve_adjoint needs direction='adjoint'")
    return _spectral_solve(p, pad_fraction)


def _apply_operator(law: MaterialLaw, A: SpatialOperator, f: WeightedSignal,
                    direction: str) -> WeightedSignal:
    nu = f.nu if direction == "forward" else -f.nu
    if nu <= 0:
        raise PreconditionError(f"{direction} application needs nu > 0, got weight {f.nu}")
    return f.with_phi(block_apply(_direction_blocks(law, A, nu, f.grid, direction), f.phi))


def apply_forward_operator(law: MaterialLaw, A: SpatialOperator,
                           f: WeightedSignal) -> WeightedSignal:
    """Apply the assembled forward operator (no inversion) to f at weight nu."""
    return _apply_operator(law, A, f, "forward")


def apply_adjoint_operator(law: MaterialLaw, A: SpatialOperator,
                           g: WeightedSignal) -> WeightedSignal:
    """Apply the assembled backward operator to g at weight -nu."""
    return _apply_operator(law, A, g, "adjoint")


def _split_law(law: MaterialLaw):
    if not law.is_finite_sum or law.order > 1:
        raise UnsupportedLawError(
            "the stepper handles finite-sum laws M0 + z^{-1} M1 only"
        )
    M0 = law.coeffs[0]
    M1 = law.coeffs[1] if law.order == 1 else np.zeros_like(M0)
    if law.conjugate_argument:
        # M0 + conj(z)^{-1} M1 is not an evolution in t; reject rather than guess.
        raise UnsupportedLawError("the stepper needs a plain (holomorphic) finite sum")
    return M0, M1


def timestep_oracle(p: EvoProblem) -> WeightedSignal:
    """Integrate the forward system by implicit trapezoidal stepping.

    Works in flat coordinates, (d/dt + nu) M0 phi + (M1 + A) phi = rhs,
    marching from the left grid edge with zero incoming state.  Exactly
    causal by construction: a sample of the output can only depend on
    right-hand-side samples at or before it.  Independent of the spectral
    path, which it cross-checks.
    """
    if p.direction != "forward":
        raise PreconditionError("the stepper integrates the forward system")
    M0, M1 = _split_law(p.law)
    dt = p.grid.dt
    K = p.nu * M0 + M1 + p.A.A
    step = M0 / dt + 0.5 * K
    lam = np.linalg.eigvalsh(0.5 * (step + step.conj().T))[0]
    if lam <= 0:
        raise OracleError(
            f"step matrix not positive: lambda_min(Herm)={lam:.3e}; "
            "the half-step regularisation cannot invert M0"
        )
    try:
        propagate = np.linalg.solve(step, M0 / dt - 0.5 * K)
        inject = np.linalg.solve(step, 0.5 * np.eye(p.A.m, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"singular step matrix: {exc}") from exc

    psi = p.rhs.phi
    out = np.zeros_like(psi)
    # Virtual step into the first sample from a zero state and zero rhs
    # before the grid, so the recurrence is shift invariant in the rhs.
    state = inject @ psi[0]
    out[0] = state
    for j in range(1, p.grid.n):
        state = propagate @ state + inject @ (psi[j - 1] + psi[j])
        out[j] = state
    return WeightedSignal(p.grid, p.nu, out)


def timestep_adjoint_oracle(p: EvoProblem) -> WeightedSignal:
    """Backward solve along the exactly amnesic route.

    Reverses the data, integrates the conjugated forward system (adjointed
    coefficients, negated spatial block) with the causal stepper, and
    reverses back.  A support bound (-inf, a] on the right-hand side is
    inherited exactly, sample by sample.  Needs a symmetric grid and a
    finite-sum law of order at most one.
    """
    if p.direction != "adjoint":
        raise PreconditionError("timestep_adjoint_oracle needs direction='adjoint'")
    if not p.grid.symmetric:
        raise PreconditionError("the reversal route needs a symmetric grid")
    if not p.law.is_finite_sum or p.law.conjugate_argument:
        raise UnsupportedLawError("the reversal route needs a plain finite-sum law")
    law_rev = finite_sum_law([c.conj().T for c in p.law.coeffs], nu0=p.law.nu0)
    reversed_rhs = time_reverse(p.rhs)
    forward = EvoProblem(p.nu, p.grid, law_rev, p.A.negated(), reversed_rhs, "forward")
    return time_reverse(timestep_oracle(forward))


@dataclass(frozen=True)
class ConjugationReport:
    """Discrepancies between the directly assembled backward operator and its
    time-reversed forward realisation."""

    discrepancies: tuple
    max_discrepancy: float


def time_reversal_conjugation_check(law: MaterialLaw, A: SpatialOperator,
                                    signals: Sequence[WeightedSignal]) -> ConjugationReport:
    """Check that conjugating by time reversal turns the backward system into
    a forward one with adjointed coefficients and negated spatial block.

    For each test signal g at weight -nu, compares (a) the assembled backward
    operator applied to g against (b) reverse, apply the forward-type
    operator with law sum_k z^{-k} M_k^* and spatial block -A, reverse back.
    The two agree exactly on every frequency bin except possibly Nyquist, so
    band-limited signals see discrepancies at rounding level.
    """
    if not law.is_finite_sum or law.conjugate_argument:
        raise UnsupportedLawError("the conjugation identity needs a plain finite-sum law")
    if not signals:
        raise PreconditionError("need at least one test signal")
    nu = -signals[0].nu
    if nu <= 0:
        raise PreconditionError("test signals must carry weight -nu with nu > 0")
    grid = signals[0].grid
    if not grid.symmetric:
        raise PreconditionError("time reversal needs a symmetric grid")

    blocks_a = _direction_blocks(law, A, nu, grid, "adjoint")
    reversed_law = finite_sum_law([c.conj().T for c in law.coeffs], nu0=law.nu0)
    blocks_b = forward_blocks(reversed_law, A.negated(), nu, grid)

    discrepancies = []
    for g in signals:
        if g.grid != grid or g.nu != -nu:
            raise PreconditionError("all test signals must share one grid and weight")
        direct = g.with_phi(block_apply(blocks_a, g.phi))
        w = time_reverse(g)
        roundtrip = time_reverse(w.with_phi(block_apply(blocks_b, w.phi)))
        discrepancies.append((direct - roundtrip).norm / max(direct.norm, NORM_FLOOR))
    return ConjugationReport(tuple(discrepancies), max(discrepancies))


@dataclass(frozen=True)
class NuIndependenceReport:
    nu1: float
    nu2: float
    window: tuple
    sup_rel_diff: float


def nu_independence_check(law: MaterialLaw, A: SpatialOperator,
                          rhs_fn: Callable[[np.ndarray], np.ndarray],
                          grid: TimeGrid, nu1: float, nu2: float,
                          direction: str = "forward",
                          window: Optional[tuple] = None,
                          pad_fraction: float = 0.25) -> NuIndependenceReport:
    """Solve the same unweighted problem at two admissible weights and compare
    the reconstructed (unweighted) solutions on an interior window.

    The right-hand side is given as a function of time so that it defines an
    element of both weighted spaces.  The default window starts a quarter
    span in from the left and ends slightly past the grid centre: further
    right, reconstructing e^{nu t} phi at the larger weight amplifies the
    truncation tail exponentially and the comparison would measure noise.
    """
    from .signals import signal_from_function

    if window is None:
        span = grid.t_max - grid.t_min
        mid = 0.5 * (grid.t_min + grid.t_max)
        window = (grid.t_min + span / 4.0, mid + span / 8.0)
    lo = grid.index_at_or_after(window[0])
    hi = grid.index_at_or_after(window[1])
    if hi <= lo:
        raise PreconditionError("comparison window contains no samples")

    values = []
    for nu in (nu1, nu2):
        weight = nu if direction == "forward" else -nu
        rhs = signal_from_function(grid, weight, rhs_fn)
        prob = EvoProblem(nu=nu, grid=grid, law=law, A=A, rhs=rhs, direction=direction)
        values.append(_spectral_solve(prob, pad_fraction).solution.values()[lo:hi])
    scale = max(float(np.abs(values[0]).max()), NORM_FLOOR)
    diff = float(np.abs(values[0] - values[1]).max()) / scale
    return NuIndependenceReport(nu1=nu1, nu2=nu2, window=window, sup_rel_diff=diff)
