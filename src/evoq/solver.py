"""Forward and backward solution operators for evolution systems
(d/dt,nu applied to M(d/dt,nu) plus a skew block A), with an independent
time-stepping oracle and the verification harnesses built on the pair.

The primary path solves one m-by-m block per grid frequency.  One
`SpectralOperator` per (law, A, nu, padded grid) builds the forward blocks
and the coercivity certificate once and serves both directions; the
backward (adjoint) blocks are their exact conjugate transposes, which makes
the duality pairing identity hold to rounding.  All block arithmetic goes
through `transform.block_apply` and `transform.block_solve`.  The
trapezoidal stepper is exactly causal by construction and serves as the
cross-check for the spectral path, whose periodic wrap-around is measured on
a zero-padded margin and reported alongside every solution.

The checks the CLI's `verify` suites and the acceptance criteria share:
`causality_check` (causality forward, amnesia backward, on one operator),
`time_reversal_conjugation_check` and `nu_independence_check`.  The
duality pairing is checked twice on purpose: per pair by `verify --suite
duality`, batched by acceptance criterion 3 (see `cli._verify_duality`).
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
    "causality_check",
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


def _pinned(phi: np.ndarray, forward: bool) -> slice:
    """Samples that causality (forward: before the support of the data `phi`)
    or amnesia (backward: after it) pins to zero."""
    nz = np.flatnonzero(np.abs(phi).max(axis=1) > 0.0)
    n = phi.shape[0]
    if forward:
        return slice(0, int(nz[0]) if nz.size else n)
    return slice(int(nz[-1]) + 1 if nz.size else 0, n)


def _leakage(u: np.ndarray, pinned: slice) -> float:
    """Relative mass of u on the pinned samples."""
    return float(np.linalg.norm(u[pinned])) / max(float(np.linalg.norm(u)), NORM_FLOOR)


@dataclass(frozen=True)
class SpectralOperator:
    """The operator of (law, A, nu) on `grid` padded by `pad_fraction`.

    The certificate, the forward blocks and their conjugate transposes (the
    backward blocks, equal to them identically, which keeps the duality
    pairing exact) are each built on first use and kept.  Data at weight +nu
    goes to the forward system, data at -nu to the backward system.
    """

    law: MaterialLaw
    A: SpatialOperator
    nu: float
    grid: TimeGrid
    pad_fraction: float

    def __post_init__(self):
        if self.nu <= 0:
            raise PreconditionError(f"the operator needs nu > 0, got {self.nu}")
        pad_grid, npad = self.grid.padded(self.pad_fraction)
        object.__setattr__(self, "pad_grid", pad_grid)
        object.__setattr__(self, "npad", npad)

    def _cached(self, key: str, build: Callable):
        # a frozen dataclass leaves its instance dict writable
        if key not in self.__dict__:
            self.__dict__[key] = build()
        return self.__dict__[key]

    @property
    def certificate(self) -> CoercivityCertificate:
        return self._cached("_cert", lambda: coercivity(self.law, self.nu, self.pad_grid))

    @property
    def blocks(self) -> np.ndarray:
        return self._cached("_fwd", lambda: forward_blocks(self.law, self.A, self.nu,
                                                           self.pad_grid))

    @property
    def adjoint_blocks(self) -> np.ndarray:
        return self._cached("_adj", lambda: np.conj(np.swapaxes(self.blocks, 1, 2)))

    def _is_forward(self, f: WeightedSignal) -> bool:
        if f.grid != self.grid or abs(f.nu) != self.nu or f.m != self.A.m:
            raise PreconditionError(f"signal must live on the operator's grid at weight "
                                    f"+-{self.nu} with dimension {self.A.m}")
        return f.nu > 0

    def _embed(self, phi: np.ndarray) -> np.ndarray:
        padded = np.zeros((self.pad_grid.n,) + phi.shape[1:], dtype=complex)
        padded[self.npad:self.npad + self.grid.n] = phi
        return padded

    def padded_solve(self, phi: np.ndarray, forward: bool):
        """(padded solution, relative residual) for flat data (n, m) or a batch
        (n, m, b) embedded at `npad`; takes no certificate."""
        return block_solve(self.blocks if forward else self.adjoint_blocks, self._embed(phi))

    def apply(self, f: WeightedSignal) -> WeightedSignal:
        """The operator (no inversion, no certificate) on f zero-extended to the
        padded grid, cropped back."""
        out = block_apply(self.blocks if self._is_forward(f) else self.adjoint_blocks,
                          self._embed(f.phi))
        return f.with_phi(out[self.npad:self.npad + self.grid.n])

    def solve(self, rhs: WeightedSignal) -> SolveReport:
        """Certified solve; leakage and wrap-around are measured before the rhs
        support (forward) or after it (backward)."""
        forward = self._is_forward(rhs)
        cert = self.certificate
        u_pad, residual = self.padded_solve(rhs.phi, forward)
        npad, n = self.npad, self.grid.n
        pinned = _pinned(rhs.phi, forward)
        pinned_pad = (slice(0, npad + pinned.stop) if forward
                      else slice(npad + pinned.start, self.pad_grid.n))
        wraparound = _leakage(u_pad, pinned_pad)
        u = u_pad[npad:npad + n]
        solution = WeightedSignal(self.grid, rhs.nu, u)
        leakage = _leakage(u, pinned)
        return SolveReport(solution, residual, solution.norm / max(rhs.norm, NORM_FLOOR),
                           wraparound, cert, leakage if forward else None,
                           None if forward else leakage)


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
    return SpectralOperator(p.law, p.A, p.nu, p.grid, pad_fraction).solve(p.rhs)


def solve_adjoint(p: EvoProblem, pad_fraction: float = 0.25) -> SolveReport:
    """Solve the backward system; the mirror image of `solve_forward`.

    The right-hand side lives at weight -nu; a support bound (-inf, a] on it
    is inherited by the solution (amnesia), so the reported leakage sits
    after the support end.
    """
    if p.direction != "adjoint":
        raise PreconditionError("solve_adjoint needs direction='adjoint'")
    return SpectralOperator(p.law, p.A, p.nu, p.grid, pad_fraction).solve(p.rhs)


def apply_forward_operator(law: MaterialLaw, A: SpatialOperator,
                           f: WeightedSignal) -> WeightedSignal:
    """Apply the assembled forward operator (no inversion) to f at weight nu."""
    return SpectralOperator(law, A, f.nu, f.grid, 0.0).apply(f)


def apply_adjoint_operator(law: MaterialLaw, A: SpatialOperator,
                           g: WeightedSignal) -> WeightedSignal:
    """Apply the assembled backward operator to g at weight -nu."""
    return SpectralOperator(law, A, -g.nu, g.grid, 0.0).apply(g)


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


def causality_check(op: SpectralOperator, rhs: WeightedSignal, back: WeightedSignal,
                    tol: float) -> dict:
    """Causality of the forward system and amnesia of the backward one, on one
    operator.

    `rhs` (weight +nu) and `back` (weight -nu) are solved spectrally; the
    mass each solution leaves where its data's support pins it to zero must
    stay within the measured wrap-around.  Where the law is a finite sum of
    order at most one, the exactly causal stepper must leak less than `tol`;
    the backward stepper also needs a symmetric grid.  Returns the measured
    values and `passed`.
    """
    out = {}
    ok = True
    steppable = op.law.is_finite_sum and op.law.order <= 1
    for prefix, data, forward in (("", rhs, True), ("adjoint_", back, False)):
        rep = op.solve(data)
        leak = rep.causality_leakage if forward else rep.amnesia_leakage
        out[prefix + "spectral_leakage"] = leak
        out[prefix + "wraparound_tolerance"] = rep.wraparound_tolerance
        ok = ok and leak <= rep.wraparound_tolerance + 1e-12
        if steppable and (forward or op.grid.symmetric):
            prob = EvoProblem(op.nu, op.grid, op.law, op.A, data,
                              "forward" if forward else "adjoint")
            stepped = (timestep_oracle if forward else timestep_adjoint_oracle)(prob)
            out[prefix + "stepper_leakage"] = _leakage(stepped.phi, _pinned(data.phi, forward))
            ok = ok and out[prefix + "stepper_leakage"] < tol
    out["passed"] = bool(ok)
    return out


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

    direct_op = SpectralOperator(law, A, nu, grid, 0.0)
    reversed_law = finite_sum_law([c.conj().T for c in law.coeffs], nu0=law.nu0)
    reversed_op = SpectralOperator(reversed_law, A.negated(), nu, grid, 0.0)

    discrepancies = []
    for g in signals:
        if g.grid != grid or g.nu != -nu:
            raise PreconditionError("all test signals must share one grid and weight")
        direct = direct_op.apply(g)
        roundtrip = time_reverse(reversed_op.apply(time_reverse(g)))
        discrepancies.append((direct - roundtrip).norm / max(direct.norm, NORM_FLOOR))
    return ConjugationReport(tuple(discrepancies), max(discrepancies))


@dataclass(frozen=True)
class NuIndependenceReport:
    """`sup_rel_diff` maps "forward" and "adjoint" to that direction's sup
    difference, relative to the solution at `nu1`."""

    nu1: float
    nu2: float
    window: tuple
    sup_rel_diff: dict


def nu_independence_check(law: MaterialLaw, A: SpatialOperator,
                          rhs_fn: Callable[[np.ndarray], np.ndarray],
                          grid: TimeGrid, nu1: float, nu2: float,
                          window: Optional[tuple] = None,
                          pad_fraction: float = 0.25) -> NuIndependenceReport:
    """Solve the same unweighted problem at two admissible weights, forward
    and backward, and compare the reconstructed (unweighted) solutions on an
    interior window.  One operator per weight serves both directions.

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

    # SpectralOperator checks the weight and the rhs but not this
    if law.m != A.m:
        raise PreconditionError(f"law dimension {law.m} != spatial dimension {A.m}")

    values = {"forward": [], "adjoint": []}
    for nu in (nu1, nu2):
        op = SpectralOperator(law, A, nu, grid, pad_fraction)
        for direction, weight in (("forward", nu), ("adjoint", -nu)):
            rhs = signal_from_function(grid, weight, rhs_fn)
            values[direction].append(op.solve(rhs).solution.values()[lo:hi])
    diffs = {}
    for direction, (at_nu1, at_nu2) in values.items():
        scale = max(float(np.abs(at_nu1).max()), NORM_FLOOR)
        diffs[direction] = float(np.abs(at_nu1 - at_nu2).max()) / scale
    return NuIndependenceReport(nu1=nu1, nu2=nu2, window=window, sup_rel_diff=diffs)
