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

`SpectralOperator.solve` ships a full `SolveReport`, computed on one
OpenBLAS thread: at large n its norms pass OpenBLAS's threading cut, where a
second thread changes their last digits and costs more than it saves.  So
`solve_forward` and `solve_adjoint` return the bits the CLI writes.  Callers
that read only the solution call `solutions` (certified signals: the
duality pairs, the weight comparison) or `padded_solve` (padded arrays:
end-map kernels, acceptance batches); neither computes a residual.  A batch
of right-hand sides shares one factorization per block, and each of its
columns comes out with the bits of a one-column solve.

The checks the CLI's `verify` suites and the acceptance criteria share:
`_pairing_gap` (the duality pairing of forward and backward solves, and of
the assembled operators), `causality_check` (causality forward, amnesia
backward, on one operator), `time_reversal_conjugation_check` and
`nu_independence_check`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, Sequence

import numpy as np

from ._blas import one_blas_thread
from .errors import (
    OracleError,
    PreconditionError,
    UnsupportedLawError,
)
from .material import (CoercivityCertificate, MaterialLaw, _coercivity, _law_blocks,
                       finite_sum_law)
from .signals import (NORM_FLOOR, TimeGrid, WeightedSignal, _into_range, _ldexp, _norm2,
                      nu_product, time_reverse)
from .spatial import SpatialOperator
from .transform import block_apply, block_solve

__all__ = [
    "EvoProblem",
    "SolveReport",
    "solve_forward",
    "solve_adjoint",
    "apply_operator",
    "timestep_oracle",
    "causality_check",
    "time_reversal_conjugation_check",
    "nu_independence_check",
]

# Largest disagreement two independent solution methods may show, where the
# periodic wrap-around is not the bound (the stepper's leakage, say).
CROSS_METHOD_TOL = 1e-6
# Share of the grid's samples added as zeros on each side of a spectral solve,
# unless a config or caller names another.
DEFAULT_PAD_FRACTION = 0.25


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

    `leakage` is the relative mass of the solution where causality (forward,
    before the rhs support) or amnesia (backward, after it) pins it to zero;
    the solution's weight says which.  `wraparound_tolerance` is the mass the
    periodic spectral path leaves in that region on the padded grid;
    cross-method comparisons should not expect agreement below it.
    """

    solution: WeightedSignal
    residual_rel: float
    norm_ratio: float
    wraparound_tolerance: float
    certificate: CoercivityCertificate
    leakage: float


def forward_blocks(law: MaterialLaw, A: SpatialOperator, nu: float,
                   grid: TimeGrid) -> np.ndarray:
    """Frequency blocks (i xi + nu) M(i xi + nu) + A, shape (n, m, m).
    `SpectralOperator.blocks` adds A to its certificate's z M(z) instead,
    when it has one, with the same bits."""
    return _with_skew(_law_blocks(law, nu, grid), A)


def _with_skew(law_blocks: np.ndarray, A: SpatialOperator) -> np.ndarray:
    # an overflowing block fails the certificate, or the signal an apply makes
    with np.errstate(over="ignore", invalid="ignore"):
        return law_blocks + A.A


def _pinned(phi: np.ndarray, forward: bool) -> slice:
    """Samples that causality (forward: before the support of the data `phi`)
    or amnesia (backward: after it) pins to zero."""
    nz = np.flatnonzero(np.abs(phi).max(axis=1) > 0.0)
    n = phi.shape[0]
    if forward:
        return slice(0, int(nz[0]) if nz.size else n)
    return slice(int(nz[-1]) + 1 if nz.size else 0, n)


def _leakage(u: np.ndarray, pinned: slice) -> float:
    """Relative mass of u on the pinned samples, by `_norm2`, so it does not
    depend on the scale of u."""
    return float(_norm2(u[pinned])) / max(float(_norm2(u)), NORM_FLOOR)


@dataclass(frozen=True)
class SpectralOperator:
    """The operator of (law, A, nu) on `grid` padded by `pad_fraction`.

    The certificate, the forward blocks and their conjugate transposes (the
    backward blocks, equal to them identically, which keeps the duality
    pairing exact) are each built on first use and kept.  The certificate
    leaves its evaluation of z M(z) on the padded grid's frequencies to the
    forward blocks, when they come later; blocks built first evaluate it
    themselves and keep none.  Data at weight +nu goes to the forward
    system, data at -nu to the backward system.
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

    # cached_property writes the instance dict, which a frozen dataclass leaves
    # writable
    @cached_property
    def certificate(self) -> CoercivityCertificate:
        def law_blocks():
            evaluated = _law_blocks(self.law, self.nu, self.pad_grid)
            if "blocks" not in self.__dict__:
                self.__dict__["_law_blocks"] = evaluated  # until `blocks` takes it
            return evaluated
        return _coercivity(self.law, self.nu, self.pad_grid, law_blocks)

    @cached_property
    def blocks(self) -> np.ndarray:
        law_blocks = self.__dict__.pop("_law_blocks", None)
        if law_blocks is None:
            return forward_blocks(self.law, self.A, self.nu, self.pad_grid)
        return _with_skew(law_blocks, self.A)

    @cached_property
    def adjoint_blocks(self) -> np.ndarray:
        return np.conj(np.swapaxes(self.blocks, 1, 2))

    def _is_forward(self, f: WeightedSignal) -> bool:
        if f.grid != self.grid or abs(f.nu) != self.nu or f.m != self.A.m:
            raise PreconditionError(f"signal must live on the operator's grid at weight "
                                    f"+-{self.nu} with dimension {self.A.m}")
        return f.nu > 0

    def _embed(self, phi: np.ndarray) -> np.ndarray:
        padded = np.zeros((self.pad_grid.n,) + phi.shape[1:], dtype=complex)
        padded[self.npad:self.npad + self.grid.n] = phi
        return padded

    def padded_solve(self, phi: np.ndarray, forward: bool) -> np.ndarray:
        """The padded solution for flat data (n, m) or a batch (n, m, b)
        embedded at `npad`; takes no certificate and computes no residual."""
        return block_solve(self.blocks if forward else self.adjoint_blocks, self._embed(phi))

    def solutions(self, signals: Sequence[WeightedSignal]) -> list:
        """Certified solutions of signals at one weight from one batched solve,
        with no residual and no report; each has the bits of its own solve."""
        if len({self._is_forward(f) for f in signals}) != 1:
            raise PreconditionError("a batch needs signals at one weight")
        self.certificate  # refuses a law that is not coercive at nu, as `solve` does
        u = self.padded_solve(np.stack([f.phi for f in signals], axis=-1), signals[0].nu > 0)
        # a signal refuses a non-finite solution and copies its column
        # contiguously, so sums over it run in a one-column solve's order
        return [f.with_phi(u[self.npad:self.npad + self.grid.n, :, b])
                for b, f in enumerate(signals)]

    def apply(self, f: WeightedSignal) -> WeightedSignal:
        """The operator (no inversion, no certificate) on f zero-extended to the
        padded grid, cropped back."""
        out = block_apply(self.blocks if self._is_forward(f) else self.adjoint_blocks,
                          self._embed(f.phi))
        return f.with_phi(out[self.npad:self.npad + self.grid.n])

    @one_blas_thread
    def solve(self, rhs: WeightedSignal) -> SolveReport:
        """Certified solve; leakage, on the grid, and wrap-around, on the
        padded grid, are measured before the rhs support (forward) or after
        it (backward)."""
        forward = self._is_forward(rhs)
        cert = self.certificate
        padded = self._embed(rhs.phi)
        u_pad, residual = block_solve(self.blocks if forward else self.adjoint_blocks,
                                      padded, residual=True)
        u = u_pad[self.npad:self.npad + self.grid.n]
        solution = WeightedSignal(self.grid, rhs.nu, u)
        return SolveReport(solution, residual, solution.norm / max(rhs.norm, NORM_FLOOR),
                           _leakage(u_pad, _pinned(padded, forward)), cert,
                           _leakage(u, _pinned(rhs.phi, forward)))


def solve_forward(p: EvoProblem, pad_fraction: float = DEFAULT_PAD_FRACTION) -> SolveReport:
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


def solve_adjoint(p: EvoProblem, pad_fraction: float = DEFAULT_PAD_FRACTION) -> SolveReport:
    """Solve the backward system; the mirror image of `solve_forward`.

    The right-hand side lives at weight -nu; a support bound (-inf, a] on it
    is inherited by the solution (amnesia), so the reported leakage sits
    after the support end.
    """
    if p.direction != "adjoint":
        raise PreconditionError("solve_adjoint needs direction='adjoint'")
    return SpectralOperator(p.law, p.A, p.nu, p.grid, pad_fraction).solve(p.rhs)


def apply_operator(law: MaterialLaw, A: SpatialOperator,
                   f: WeightedSignal) -> WeightedSignal:
    """Apply the assembled operator (no inversion) to f: the forward one at
    weight +nu, the backward one at -nu."""
    return SpectralOperator(law, A, abs(f.nu), f.grid, 0.0).apply(f)


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
    """Integrate the system by implicit trapezoidal stepping, independent of
    the spectral path, which it cross-checks.

    Forward: works in flat coordinates, (d/dt + nu) M0 phi + (M1 + A) phi =
    rhs, marching from the left grid edge with zero incoming state, and is
    exactly causal by construction: a sample of the output can only depend
    on right-hand-side samples at or before it.

    Backward: the exactly amnesic reversal route.  Reverses the data,
    integrates the conjugated forward system (adjointed coefficients,
    negated spatial block) and reverses back, so a support bound (-inf, a]
    on the right-hand side is inherited exactly, sample by sample.  Needs a
    symmetric grid and a plain finite-sum law.  Both routes need a law of
    order at most one.
    """
    if p.direction == "forward":
        return _trapezoidal(p.law, p.A.A, p.rhs)
    if not p.grid.symmetric:
        raise PreconditionError("the reversal route needs a symmetric grid")
    if not p.law.is_finite_sum or p.law.conjugate_argument:
        raise UnsupportedLawError("the reversal route needs a plain finite-sum law")
    law_rev = finite_sum_law([c.conj().T for c in p.law.coeffs], nu0=p.law.nu0)
    return time_reverse(_trapezoidal(law_rev, -p.A.A, time_reverse(p.rhs)))


def _trapezoidal(law: MaterialLaw, A: np.ndarray, rhs: WeightedSignal) -> WeightedSignal:
    """The forward stepper on `rhs` at its (positive) weight, under `_into_range`."""
    M0, M1 = _split_law(law)
    grid, nu = rhs.grid, rhs.nu
    dt = grid.dt
    K = nu * M0 + M1 + A
    step = M0 / dt + 0.5 * K
    lam = np.linalg.eigvalsh(0.5 * (step + step.conj().T))[0]
    if lam <= 0:
        raise OracleError(
            f"step matrix not positive: lambda_min(Herm)={lam:.3e}; "
            "the half-step regularisation cannot invert M0"
        )
    try:
        propagate = np.linalg.solve(step, M0 / dt - 0.5 * K)
        inject = np.linalg.solve(step, 0.5 * np.eye(rhs.m, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"singular step matrix: {exc}") from exc

    psi, k = _into_range(rhs.phi)
    out = np.zeros_like(psi)
    # Every step's injection in one stacked product, each with the bits of
    # its own matrix-vector product (a 2-D product with inject.T is not).
    drive = (inject @ (psi[:-1] + psi[1:])[:, :, None])[..., 0]
    # Virtual step into the first sample from a zero state and zero rhs
    # before the grid, so the recurrence is shift invariant in the rhs.
    state = inject @ psi[0]
    out[0] = state
    for j in range(1, grid.n):
        state = propagate @ state + drive[j - 1]
        out[j] = state
    with np.errstate(over="ignore"):  # a signal refuses a solution that is not a double
        return WeightedSignal(grid, nu, _ldexp(out, -k))


def causality_check(op: SpectralOperator, rhs: WeightedSignal,
                    back: WeightedSignal) -> dict:
    """Causality of the forward system and amnesia of the backward one, on one
    operator.

    `rhs` (weight +nu) and `back` (weight -nu) are solved spectrally; the
    mass each solution leaves where its data's support pins it to zero must
    stay within the measured wrap-around.  Where the law is a finite sum of
    order at most one, the exactly causal stepper must leak less than
    `CROSS_METHOD_TOL`; the backward stepper also needs a symmetric grid.
    Returns the measured values and `passed`.
    """
    out = {}
    ok = True
    steppable = op.law.is_finite_sum and op.law.order <= 1
    for prefix, data, forward in (("", rhs, True), ("adjoint_", back, False)):
        rep = op.solve(data)
        out[prefix + "spectral_leakage"] = rep.leakage
        out[prefix + "wraparound_tolerance"] = rep.wraparound_tolerance
        ok = ok and rep.leakage <= rep.wraparound_tolerance + 1e-12
        if steppable and (forward or op.grid.symmetric):
            prob = EvoProblem(op.nu, op.grid, op.law, op.A, data,
                              "forward" if forward else "adjoint")
            stepped = timestep_oracle(prob)
            out[prefix + "stepper_leakage"] = _leakage(stepped.phi, _pinned(data.phi, forward))
            ok = ok and out[prefix + "stepper_leakage"] < CROSS_METHOD_TOL
    out["passed"] = bool(ok)
    return out


# Pairs per batch of `_pairing_gap`.  Each column of a batched solve has the
# bits of a one-column solve, so the width changes no output.  At n = 512,
# m = 9 on a 2-core Xeon (OpenBLAS 0.3.31) the duality suite took 212 ms one
# pair at a time, 94 ms at 4 and 87 ms at 8 or 16, while each column added
# about 0.7 MB to its peak memory.
_DUALITY_BATCH = 8


def _pairing_gap(pairs: Iterable[tuple], images: Callable[[Sequence], list]) -> float:
    """The largest |<S f, g> - <f, S* g>| / (||f|| ||g||) over `pairs` (f at
    weight +nu, g at -nu), where `images` maps signals at one weight to their
    images under S or S*.  The pairs are drawn `_DUALITY_BATCH` at a time, and
    each batch is mapped once per weight."""
    pairs = iter(pairs)
    worst = 0.0
    while batch := list(islice(pairs, _DUALITY_BATCH)):
        fs, gs = zip(*batch)
        for f, g, sf, sg in zip(fs, gs, images(fs), images(gs)):
            gap = abs(nu_product(sf, g) - nu_product(f, sg))
            worst = max(worst, gap / (f.norm * g.norm))
    return worst


def time_reversal_conjugation_check(law: MaterialLaw, A: SpatialOperator,
                                    signals: Sequence[WeightedSignal]) -> float:
    """Check that conjugating by time reversal turns the backward system into
    a forward one with adjointed coefficients and negated spatial block.

    For each test signal g at weight -nu, compares (a) the assembled backward
    operator applied to g against (b) reverse, apply the forward-type
    operator with law sum_k z^{-k} M_k^* and spatial block -A, reverse back.
    Returns the largest discrepancy |a - b| / |a| over the signals.  The two
    agree exactly on every frequency bin except possibly Nyquist, so
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
    return max(discrepancies)


def nu_independence_check(law: MaterialLaw, A: SpatialOperator,
                          rhs_fn: Callable[[np.ndarray], np.ndarray],
                          grid: TimeGrid, nu1: float, nu2: float,
                          pad_fraction: float = DEFAULT_PAD_FRACTION) -> dict:
    """Solve the same unweighted problem at two admissible weights, forward
    and backward, and compare the reconstructed (unweighted) solutions on an
    interior window.  One operator per weight serves both directions.
    Returns {"forward": d, "adjoint": d} with d the direction's sup
    difference relative to the solution at `nu1`.

    The right-hand side is given as a function of time so that it defines an
    element of both weighted spaces.  The window starts a quarter span in
    from the left and ends slightly past the grid centre: further right,
    reconstructing e^{nu t} phi at the larger weight amplifies the
    truncation tail exponentially and the comparison would measure noise.
    """
    from .signals import signal_from_function

    span = grid.t_max - grid.t_min
    mid = 0.5 * (grid.t_min + grid.t_max)
    lo = grid.index_at_or_after(grid.t_min + span / 4.0)
    hi = grid.index_at_or_after(mid + span / 8.0)
    if hi <= lo:
        raise PreconditionError("comparison window contains no samples")

    # SpectralOperator checks the weight and the rhs but not this
    if law.m != A.m:
        raise PreconditionError(f"law dimension {law.m} != spatial dimension {A.m}")

    values = {"forward": [], "adjoint": []}
    for nu in (nu1, nu2):
        op = SpectralOperator(law, A, nu, grid, pad_fraction)
        for direction, weight in (("forward", nu), ("adjoint", -nu)):
            (u,) = op.solutions([signal_from_function(grid, weight, rhs_fn)])
            values[direction].append(u.values()[lo:hi])
    diffs = {}
    for direction, (at_nu1, at_nu2) in values.items():
        scale = max(float(np.abs(at_nu1).max()), NORM_FLOOR)
        diffs[direction] = float(np.abs(at_nu1 - at_nu2).max()) / scale
    return diffs
