"""Null-controllability machinery: range-inclusion checks in the style of
Douglas' lemma, dense end-map assembly, least-norm control synthesis,
observability constants for the backward system, and the pointwise
(initial-value) variant for laws M0 + z^{-1} M1.

Range inclusion over the reals is ill-posed in floating point, so every
decision here is made relative to a declared truncated-SVD cutoff
(sigma_max * 1e-10 by default) which is reported with each result.
Infeasibility is a finding, not an error: certifying that a system cannot be
controlled (say, B = 0) is part of the job.

Every dense entry point (`douglas_check`, `assemble_endmaps`, `null_control`,
`observability_constant`, the pointwise pair and the duality verdicts) runs
on one OpenBLAS thread whatever the caller's thread count or `EVOQ_THREADS`
says, then restores the caller's count.  Mid-size complex SVDs are faster
that way than on two threads, and the results no longer depend on the
thread count (bitwise reproducibility still assumes the same numpy/OpenBLAS
build and CPU kernel).  Other stages still follow the caller's count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ._blas import one_blas_thread
from .errors import (
    ConsistencyError,
    PreconditionError,
    SizeGuardError,
    UnsupportedLawError,
)
from .signals import NORM_FLOOR, TimeGrid, WeightedSignal
from .solver import (CoercivityCertificate, EvoProblem, SpectralOperator, _split_law,
                     timestep_oracle)
from .waveforms import random_signal

__all__ = [
    "ControlProblem",
    "ControlResult",
    "DouglasReport",
    "EndMaps",
    "ObservabilityEstimate",
    "PointwiseSolution",
    "RegularizationReport",
    "douglas_check",
    "assemble_endmaps",
    "null_control",
    "observability_constant",
    "random_search_lower_bound",
    "pointwise_solve",
    "pointwise_null_control",
    "pointwise_duality_check",
]

DEFAULT_SVD_RTOL = 1e-10
DEFAULT_SIZE_GUARD = 4_000_000


@dataclass(frozen=True)
class ControlProblem:
    """A forward instance plus an injection B, a horizon T and a variant.

    The supported variant reads the forcing F from `base.rhs`; the pointwise
    variant carries an initial state U0 instead and requires a law of the
    form M0 + z^{-1} M1.
    """

    base: EvoProblem
    B: np.ndarray
    T: float
    variant: str = "supported"  # "supported" | "pointwise"
    U0: Optional[np.ndarray] = None

    def __post_init__(self):
        B = np.ascontiguousarray(np.atleast_2d(self.B), dtype=complex)
        if B.shape[0] != self.base.A.m:
            raise PreconditionError(
                f"B must have {self.base.A.m} rows, got {B.shape[0]}"
            )
        if B.shape[1] < 1:
            raise PreconditionError("B needs at least one column")
        B.setflags(write=False)
        object.__setattr__(self, "B", B)
        if self.base.direction != "forward":
            raise PreconditionError("control problems build on a forward instance")
        grid = self.base.grid
        if not (grid.t_min <= self.T <= grid.t_max):
            raise PreconditionError("horizon T must lie inside the grid")
        if self.variant == "supported":
            if self.U0 is not None:
                raise PreconditionError("the supported variant takes no initial state")
        elif self.variant == "pointwise":
            law = self.base.law
            if not law.is_finite_sum or law.order > 1 or law.conjugate_argument:
                raise UnsupportedLawError(
                    "pointwise control needs a law of the form M0 + z^{-1} M1"
                )
            if self.T <= 0:
                raise PreconditionError("the pointwise horizon must be positive")
            U0 = np.ascontiguousarray(np.asarray(self.U0, dtype=complex).ravel())
            if U0.shape != (self.base.A.m,):
                raise PreconditionError("U0 must be an m-vector")
            if not np.isfinite(U0).all():
                raise PreconditionError("U0 must be finite")
            U0.setflags(write=False)
            object.__setattr__(self, "U0", U0)
        else:
            raise PreconditionError(f"unknown variant {self.variant!r}")

    @property
    def F(self) -> WeightedSignal:
        return self.base.rhs

    @property
    def q(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class RegularizationReport:
    rank: int
    cutoff: float
    sigma_max: float


@dataclass(frozen=True)
class ControlResult:
    """Outcome of a control synthesis.  `feasible=False` is a finding."""

    G: WeightedSignal
    terminal_residual: float
    control_norm: float
    feasible: bool
    regularization: RegularizationReport


@dataclass(frozen=True)
class DouglasReport:
    """Verdict of the range-inclusion check ran(A) subseteq ran(B).

    The four classically equivalent conditions are evaluated on every call:
    range inclusion via the SVD range projector, existence of a factor C with
    A = BC, inclusion of A(unit ball) in B(ball of radius c), and the adjoint
    domination ||A^* x|| <= c ||B^* x||.  Their verdicts are returned so
    callers can assert agreement.
    """

    included: bool
    constant: Optional[float]
    factor: Optional[np.ndarray]
    witness: Optional[np.ndarray]
    cutoff: float
    factor_residual: Optional[float]
    conditions: dict


def _truncation(s: np.ndarray, rtol: float) -> tuple:
    """(sigma_max, cutoff, rank) of descending singular values `s`: the one
    truncation rule, a cutoff `rtol` relative to sigma_max."""
    sigma_max = float(s[0]) if s.size else 0.0
    cutoff = sigma_max * rtol
    return sigma_max, cutoff, int(np.sum(s > cutoff))


@one_blas_thread
def douglas_check(Amat: np.ndarray, Bmat: np.ndarray,
                  rtol: float = DEFAULT_SVD_RTOL,
                  inclusion_rtol: float = 1e-8,
                  probes: int = 8,
                  rng: Optional[np.random.Generator] = None) -> DouglasReport:
    """Decide ran(A) subseteq ran(B) for matrices with a common row space.

    When included, returns the factor C = B^+ A (verified to satisfy A = BC)
    and the constant c = ||C||_2, which is simultaneously the smallest ball
    radius and the smallest adjoint-domination constant.  When excluded,
    returns a witness x with B^* x ~ 0 but A^* x != 0.

    The conditions `range_inclusion` and `factorization` are not
    independent: both measure the mass of A - B B^+ A (the first through the
    range projector, the second through the factor), so their agreement
    checks the arithmetic rather than a second property.
    """
    Bmat = np.atleast_2d(np.asarray(Bmat, dtype=complex))
    return _douglas(Amat, Bmat, np.linalg.svd(Bmat, full_matrices=False),
                    rtol, inclusion_rtol, probes, rng)


def _douglas(Amat: np.ndarray, Bmat: np.ndarray, svd_b: tuple, rtol: float,
             inclusion_rtol: float = 1e-8, probes: int = 8,
             rng: Optional[np.random.Generator] = None) -> DouglasReport:
    """Body of `douglas_check` for a complex 2-D `Bmat` whose thin SVD
    (U, s, Vh) the caller already holds; the constant ||V_r core||_2 is ||core||_2."""
    Amat = np.atleast_2d(np.asarray(Amat, dtype=complex))
    if Amat.shape[0] != Bmat.shape[0]:
        raise PreconditionError("A and B must share their codomain dimension")
    rng = rng or np.random.default_rng(0)

    Ub, sb, Vbh = svd_b
    sigma_max_b, cutoff, rank_b = _truncation(sb, rtol)
    Ur = Ub[:, :rank_b]

    # Mass of A outside the numerical range of B.
    outside = Amat - Ur @ (Ur.conj().T @ Amat)
    norm_a = float(np.linalg.norm(Amat, 2))
    scale = max(norm_a, sigma_max_b, NORM_FLOOR)
    outside_norm = float(np.linalg.norm(outside, 2))
    included = outside_norm <= inclusion_rtol * scale

    conditions = {"range_inclusion": included}

    core = (Ur.conj().T @ Amat) / sb[:rank_b, None]
    factor = Vbh[:rank_b].conj().T @ core
    factor_residual = float(np.linalg.norm(Amat - Bmat @ factor, 2))
    conditions["factorization"] = factor_residual <= max(1e-10 * scale, 10 * cutoff)
    constant = float(np.linalg.norm(core, 2)) if core.size else 0.0

    # Ball inclusion, probed: the min-norm preimage of A y must fit in the
    # c-ball and reproduce A y.
    ball_ok = True
    for _ in range(probes):
        y = rng.standard_normal(Amat.shape[1]) + 1j * rng.standard_normal(Amat.shape[1])
        y /= np.linalg.norm(y)
        g = factor @ y
        reach = float(np.linalg.norm(Bmat @ g - Amat @ y))
        ball_ok &= reach <= max(inclusion_rtol * scale, 10 * cutoff)
        ball_ok &= np.linalg.norm(g) <= constant * (1 + 1e-8) + 1e-12
    conditions["ball_inclusion"] = bool(ball_ok)

    # Adjoint domination on random probes; meaningful constant only when the
    # factorisation holds.
    dom_ok = True
    for _ in range(probes):
        x = rng.standard_normal(Amat.shape[0]) + 1j * rng.standard_normal(Amat.shape[0])
        lhs = float(np.linalg.norm(Amat.conj().T @ x))
        rhs = float(np.linalg.norm(Bmat.conj().T @ x))
        dom_ok &= lhs <= constant * rhs * (1 + 1e-8) + inclusion_rtol * scale * np.linalg.norm(x)

    witness = None
    if not included:
        # Strongest direction of A orthogonal to ran(B): B^* x ~ 0, A^* x != 0,
        # so the witness defeats every candidate constant.
        Uo, _, _ = np.linalg.svd(outside, full_matrices=False)
        witness = Uo[:, 0]
        lhs = float(np.linalg.norm(Amat.conj().T @ witness))
        rhs = float(np.linalg.norm(Bmat.conj().T @ witness))
        defeated = lhs > max(constant, 1.0) * rhs * (1 + 1e-8) + inclusion_rtol * scale
        conditions["adjoint_domination"] = not defeated
    else:
        conditions["adjoint_domination"] = bool(dom_ok)

    verdicts = set(conditions.values())
    if len(verdicts) != 1:
        raise ConsistencyError(f"the four range-inclusion conditions disagree: {conditions}")

    return DouglasReport(
        included=included,
        constant=constant if included else None,
        factor=factor if included else None,
        witness=witness,
        cutoff=cutoff,
        factor_residual=factor_residual if included else None,
        conditions=conditions,
    )


@dataclass(frozen=True)
class EndMaps:
    """Both sides of the duality for one supported control problem, cut from
    the forward and backward impulse kernels of one `SpectralOperator`.

    Primal: L_F and L_G map F, and G through B, to the post-horizon response;
    rows are the samples with t_j >= T stacked time-major, columns the
    full-grid flat arrays of F (dimension n*m) and G (dimension n*q).
    Dual: K1 and K2 map a backward datum supported at or after T (columns,
    dimension n_post*m) to the backward solution (rows n*m) and to its
    B^*-filtered observation (rows n*q).  `certificate` is the operator's
    padded-grid certificate, the one that bounds every solve behind the maps.
    """

    L_F: np.ndarray
    L_G: np.ndarray
    K1: np.ndarray
    K2: np.ndarray
    certificate: CoercivityCertificate
    post_start: int
    grid: TimeGrid
    nu: float
    m: int
    q: int

    @cached_property
    def _svd_G(self) -> tuple:
        """Thin SVD (U, s, Vh) of L_G, taken on first use and shared by every
        null-control solve and range-inclusion check on these maps."""
        return np.linalg.svd(self.L_G, full_matrices=False)


def _kernel_blocks(op: SpectralOperator, forward: bool, rows: np.ndarray,
                   cols: np.ndarray) -> np.ndarray:
    """Blocks (len(rows), len(cols), m, m) of the forward or backward solution
    operator of `op` between original sample indices `rows` and `cols`.

    The solve is a circulant on the padded grid, so one impulse solve per
    component (impulse at padded index npad) gives every block: the entry
    for padded row npad+r and padded source npad+c sits at kernel index
    (npad + r - c) mod N.
    """
    m = op.A.m
    impulse = np.zeros((op.grid.n, m, m), dtype=complex)
    impulse[0] = np.eye(m)
    kernel, _ = op.padded_solve(impulse, forward)
    return kernel[(op.npad + rows[:, None] - cols[None, :]) % op.pad_grid.n]


def _time_major(blocks: np.ndarray) -> np.ndarray:
    """Blocks (r, c, a, b) as the dense (r*a, c*b) matrix."""
    r, c, a, b = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(r * a, c * b)


@one_blas_thread
def assemble_endmaps(cp: ControlProblem, pad_fraction: float = 0.25,
                     size_guard: int = DEFAULT_SIZE_GUARD) -> EndMaps:
    """Assemble the primal and the backward end maps as dense matrices.

    Columns are exact index shifts of one set of impulse solves per direction
    on one operator; linearity of L_F against direct solves is verified on
    random probes to 1e-10 before returning.
    """
    base = cp.base
    grid, m, q = base.grid, base.A.m, cp.q
    n = grid.n
    post = grid.index_at_or_after(cp.T)
    n_post = n - post
    if n_post < 1:
        raise PreconditionError("no samples at or after the horizon T")
    if n_post * m * n * max(m, q) > size_guard:
        raise SizeGuardError(
            f"dense end maps need {n_post * m * n * max(m, q)} entries "
            f"(> guard {size_guard}); use observability_constant with "
            "method='power-iteration' or coarsen the grid"
        )

    op = SpectralOperator(base.law, base.A, base.nu, grid, pad_fraction)
    full, after = np.arange(n), post + np.arange(n_post)
    forward = _kernel_blocks(op, True, after, full)     # (n_post, n, m, m)
    L_F = _time_major(forward)
    L_G = _time_major(np.einsum("pjik,kl->pjil", forward, cp.B))
    backward = _kernel_blocks(op, False, full, after)   # (n, n_post, m, m)
    K1 = _time_major(backward)
    K2 = _time_major(np.einsum("kl,ipkj->iplj", np.conj(cp.B), backward))

    rng = np.random.default_rng(7)
    for _ in range(2):
        f = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        direct = op.solve(WeightedSignal(grid, base.nu, f)).solution.phi[post:]
        via_matrix = (L_F @ f.reshape(-1)).reshape(n_post, m)
        err = np.linalg.norm(via_matrix - direct) / max(np.linalg.norm(direct), NORM_FLOOR)
        if err > 1e-10:
            raise ConsistencyError(f"end-map assembly disagrees with a direct solve: {err:.3e}")

    return EndMaps(L_F=L_F, L_G=L_G, K1=K1, K2=K2, certificate=op.certificate,
                   post_start=post, grid=grid, nu=base.nu, m=m, q=q)


def _truncated_lstsq(svd: tuple, b: np.ndarray, rtol: float):
    """Least-norm solution of M x = b through a truncated SVD, given the
    factorization `svd` = (U, s, Vh) of M rather than M itself, so one
    factorization serves every right-hand side, `b` or each column of it."""
    U, s, Vh = svd
    sigma_max, cutoff, r = _truncation(s, rtol)
    coeffs = ((U[:, :r].conj().T @ b).T / s[:r]).T  # rank axis last to broadcast
    x = Vh[:r].conj().T @ coeffs
    return x, RegularizationReport(rank=r, cutoff=cutoff, sigma_max=sigma_max)


def _null_solve(maps: EndMaps, f: np.ndarray, rtol: float,
                feasibility_tol: float) -> tuple:
    """`null_control`'s solve and verdict for one flattened forcing `f` or,
    feasible only if each is, for every column of `f`."""
    target = -(maps.L_F @ f)
    g, reg = _truncated_lstsq(maps._svd_G, target, rtol)
    residual = maps.L_G @ g - target
    rel = (np.linalg.norm(residual, axis=0)
           / np.maximum(np.linalg.norm(target, axis=0), NORM_FLOOR))
    return g, residual, reg, bool(np.all(rel < feasibility_tol))


@one_blas_thread
def null_control(cp: ControlProblem, endmaps: Optional[EndMaps] = None,
                 pad_fraction: float = 0.25,
                 rtol: float = DEFAULT_SVD_RTOL,
                 feasibility_tol: float = 1e-6) -> ControlResult:
    """Least-norm control removing the post-horizon response to F.

    Solves L_G g = -L_F f by truncated-SVD pseudoinverse; feasible iff the
    relative residual stays below `feasibility_tol`.  With B = 0 and a
    nonvanishing post-horizon response this reports feasible=False together
    with the best-effort control.
    """
    if cp.variant != "supported":
        raise PreconditionError("null_control drives the supported variant")
    maps = endmaps or assemble_endmaps(cp, pad_fraction)
    g_flat, residual, reg, feasible = _null_solve(maps, cp.F.phi.reshape(-1), rtol, feasibility_tol)

    grid = maps.grid
    G = WeightedSignal(grid, maps.nu, g_flat.reshape(grid.n, maps.q))
    terminal = float(np.sqrt(grid.dt) * np.linalg.norm(residual))
    return ControlResult(
        G=G,
        terminal_residual=terminal,
        control_norm=G.norm,
        feasible=feasible,
        regularization=reg,
    )


@dataclass(frozen=True)
class ObservabilityEstimate:
    """Smallest constant bounding the backward solution by its B-filtered
    observation, over right-hand sides supported at or after the horizon.

    `c_obs` is +inf exactly when the filtered map has a kernel direction the
    unfiltered map still sees, which by duality is the uncontrollable case.
    """

    c_obs: float
    witness: WeightedSignal
    method: str
    cutoff: float


@one_blas_thread
def observability_constant(cp: ControlProblem, endmaps: Optional[EndMaps] = None,
                           pad_fraction: float = 0.25,
                           rtol: float = DEFAULT_SVD_RTOL,
                           method: str = "generalized-svd") -> ObservabilityEstimate:
    """Largest generalized singular value of the backward end-map K1 against
    its B-filtered counterpart K2.

    Assembles the end maps (under their size guard) unless `endmaps` is
    given.  Flags +inf when a post-horizon datum is invisible to the
    observation but not to the state (one thin SVD of K1 on ker K2 is test
    and witness), then cross-checks the verdict against the primal range
    inclusion ran L_F in ran L_G of the same maps; a disagreement raises, as
    the two are equivalent.
    """
    grid = cp.base.grid
    if grid.n - grid.index_at_or_after(cp.T) < 1:
        raise PreconditionError("no samples at or after the horizon T")

    if method == "power-iteration":
        return _observability_power_iteration(cp, pad_fraction, rtol)
    if method != "generalized-svd":
        raise PreconditionError(f"unknown method {method!r}")

    maps = endmaps or assemble_endmaps(cp, pad_fraction)
    estimate = _observability(maps, rtol)
    report = _douglas(maps.L_F, maps.L_G, maps._svd_G, rtol=rtol)
    finite = math.isfinite(estimate.c_obs)
    if finite != report.included:
        raise ConsistencyError(
            f"observability verdict (finite={finite}) disagrees with the "
            f"primal range inclusion (included={report.included})"
        )
    return estimate


def _observability(maps: EndMaps, rtol: float) -> ObservabilityEstimate:
    """`observability_constant`'s generalized-SVD estimate on `maps`, with no
    primal cross-check."""
    K1 = maps.K1
    U2, s2, V2h = np.linalg.svd(maps.K2, full_matrices=True)
    _, cutoff, r = _truncation(s2, rtol)

    if r < V2h.shape[0]:
        null_basis = V2h[r:].conj().T
        blind = K1 @ null_basis
        _, s_blind, Vbh = np.linalg.svd(blind, full_matrices=False)
        if float(s_blind[0]) > 1e-8 * max(float(np.linalg.norm(K1, 2)), NORM_FLOOR):
            witness = _embed_post(null_basis @ Vbh[0].conj(), maps.grid, -maps.nu,
                                  maps.post_start, maps.m)
            return ObservabilityEstimate(math.inf, witness, "generalized-svd", cutoff)

    W = K1 @ (V2h[:r].conj().T / s2[:r][None, :])
    Uw, sw, Vwh = np.linalg.svd(W, full_matrices=False)
    c_obs = float(sw[0]) if sw.size else 0.0
    witness_flat = (V2h[:r].conj().T / s2[:r][None, :]) @ Vwh[0].conj()
    wnorm = np.linalg.norm(witness_flat)
    if wnorm > 0:
        witness_flat = witness_flat / wnorm
    witness = _embed_post(witness_flat, maps.grid, -maps.nu, maps.post_start, maps.m)
    return ObservabilityEstimate(c_obs, witness, "generalized-svd", cutoff)


def _embed_post(flat_post: np.ndarray, grid: TimeGrid, nu: float,
                post: int, m: int) -> WeightedSignal:
    phi = np.zeros((grid.n, m), dtype=complex)
    phi[post:] = flat_post.reshape(grid.n - post, m)
    return WeightedSignal(grid, nu, phi)


@one_blas_thread
def _duality_verdicts(cp: ControlProblem, maps: EndMaps,
                      rng: np.random.Generator,
                      rtol: float = DEFAULT_SVD_RTOL,
                      feasibility_tol: float = 1e-6) -> tuple:
    """(feasible, douglas, observability) on one set of end maps: null control
    of max(m, 3) forcings drawn from `rng` (one right-hand side of as many
    columns), ran(L_F) in ran(L_G), and the backward observability estimate.
    By duality the three verdicts agree."""
    base = cp.base
    probes = np.stack([random_signal(base.grid, base.nu, base.A.m, rng).phi.reshape(-1)
                       for _ in range(max(base.A.m, 3))], axis=1)
    feasible = _null_solve(maps, probes, rtol, feasibility_tol)[3]
    douglas = _douglas(maps.L_F, maps.L_G, maps._svd_G, rtol=rtol)
    return feasible, douglas, _observability(maps, rtol)


def random_search_lower_bound(apply_K1, apply_K2, dim: int,
                              budget: int = 10_000,
                              rng: Optional[np.random.Generator] = None) -> tuple:
    """Maximise ||K1 x|| / ||K2 x|| by random sampling plus exact line
    maximisation along random directions.

    Each refinement step solves the 2x2 generalized eigenproblem restricted
    to span{x, d} in closed form, so the search spends its budget on
    evaluations only.  Returns (best ratio, best x); the value is a valid
    lower bound for the supremum by construction.
    """
    rng = rng or np.random.default_rng(1234)
    n_seed = max(budget // 4, 1)
    best_x, best_val = None, -1.0
    for _ in range(n_seed):
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        a = np.linalg.norm(apply_K1(x))
        b = np.linalg.norm(apply_K2(x))
        val = math.inf if b == 0 else a / b
        if val > best_val:
            best_val, best_x = val, x
    x = best_x / np.linalg.norm(best_x)
    k1x, k2x = apply_K1(x), apply_K2(x)
    for _ in range(budget - n_seed):
        d = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        d /= np.linalg.norm(d)
        k1d, k2d = apply_K1(d), apply_K2(d)
        # Generalized eigenproblem of the 2x2 pencil on span{x, d}.
        A2 = np.array([[np.vdot(k1x, k1x), np.vdot(k1x, k1d)],
                       [np.vdot(k1d, k1x), np.vdot(k1d, k1d)]])
        B2 = np.array([[np.vdot(k2x, k2x), np.vdot(k2x, k2d)],
                       [np.vdot(k2d, k2x), np.vdot(k2d, k2d)]])
        B2 += 1e-300 * np.eye(2)
        try:
            import scipy.linalg as sla
            vals, vecs = sla.eigh(A2, B2)
        except Exception:
            continue
        w = vecs[:, -1]
        cand = w[0] * x + w[1] * d
        nc = np.linalg.norm(cand)
        if nc == 0:
            continue
        cand /= nc
        k1c, k2c = w[0] * k1x + w[1] * k1d, w[0] * k2x + w[1] * k2d
        denom = np.linalg.norm(k2c)
        val = math.inf if denom == 0 else float(np.linalg.norm(k1c) / denom)
        if val > best_val:
            best_val, x, k1x, k2x = val, cand, k1c / nc, k2c / nc
    return best_val, x


def _observability_power_iteration(cp: ControlProblem, pad_fraction: float,
                                   rtol: float) -> ObservabilityEstimate:
    """Matrix-free fallback: each evaluation is one backward solve."""
    base = cp.base
    grid, m = base.grid, base.A.m
    post = grid.index_at_or_after(cp.T)
    n_post = grid.n - post
    Bh = cp.B.conj().T
    op = SpectralOperator(base.law, base.A, base.nu, grid, pad_fraction)

    def apply_K1(flat_post):
        g = _embed_post(flat_post, grid, -base.nu, post, m)
        return op.solve(g).solution.phi.reshape(-1)

    def apply_K2(flat_post):
        sol = apply_K1(flat_post).reshape(grid.n, m)
        return (sol @ Bh.T).reshape(-1)

    best, x = random_search_lower_bound(apply_K1, apply_K2, n_post * m, budget=400)
    c_obs = math.inf if best > 1.0 / rtol else best
    witness = _embed_post(x, grid, -base.nu, post, m)
    return ObservabilityEstimate(c_obs, witness, "power-iteration", rtol)


# ---------------------------------------------------------------------------
# Pointwise (initial-value) variant for laws M0 + z^{-1} M1.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointwiseSolution:
    """State trajectory with a pointwise readout at the horizon.

    `M0U_at_T` is the M0-weighted state at T (linear interpolation between
    flat samples); `hminus_norm` reports the same vector measured in the
    smoothing norm ||(I + A^* A)^{-1/2} . || for fidelity to weak point
    values, and `max_jump` tracks the largest jump of M0 (U - step U0)
    between adjacent samples (a continuity diagnostic that must shrink
    with dt).
    """

    U: WeightedSignal
    M0U_at_T: np.ndarray
    hminus_norm: float
    max_jump: float


def _step_indicator_mask(grid: TimeGrid) -> np.ndarray:
    return grid.times >= -1e-9 * grid.dt


def _step_indicator_weights(grid: TimeGrid) -> np.ndarray:
    """Samples of the unit step at 0 with the half-value convention.

    A sample sitting exactly on the jump carries the mean of the one-sided
    limits; under the trapezoidal stepper this cancels the startup error of
    the discontinuous integrand to second order.
    """
    w = _step_indicator_mask(grid).astype(float)
    j = grid.index_at_or_after(0.0)
    if j < grid.n and abs(grid.times[j]) <= 1e-9 * grid.dt:
        w[j] = 0.5
    return w


def _bracket(grid: TimeGrid, T: float) -> tuple:
    """(jlo, theta) with T = t_jlo + theta dt, jlo clamped so that sample
    jlo + 1 exists; the linear readout at T weighs jlo by 1 - theta."""
    jlo = grid.index_below(T)
    if jlo >= grid.n - 1:
        jlo = grid.n - 2
    return jlo, (T - (grid.t_min + jlo * grid.dt)) / grid.dt


def _interp_at(grid: TimeGrid, phi: np.ndarray, T: float) -> np.ndarray:
    jlo, theta = _bracket(grid, T)
    return (1.0 - theta) * phi[jlo] + theta * phi[jlo + 1]


def pointwise_solve(cp: ControlProblem, G: Optional[WeightedSignal] = None) -> PointwiseSolution:
    """Initial-value solve for laws M0 + z^{-1} M1.

    Computes V as the causal response to B G - step(M1 + A) U0 with the
    trapezoidal stepper (exactly causal) and returns U = V + step U0 together
    with the M0-weighted state read out at the horizon.
    """
    if cp.variant != "pointwise":
        raise PreconditionError("pointwise_solve needs the pointwise variant")
    base = cp.base
    grid, m, nu = base.grid, base.A.m, base.nu
    M0, M1 = _split_law(base.law)
    if not (0.0 < cp.T <= grid.t_min + (grid.n - 1) * grid.dt):
        raise PreconditionError("horizon must satisfy 0 < T <= last sample time")

    mask = _step_indicator_mask(grid)
    flat_weight = np.exp(-nu * grid.times)
    drift = (M1 + base.A.A) @ cp.U0
    rhs_phi = -_step_indicator_weights(grid)[:, None] * flat_weight[:, None] * drift[None, :]
    if G is not None:
        if G.grid != grid or G.nu != nu or G.m != cp.q:
            raise PreconditionError("G must live on the problem grid at weight nu")
        rhs_phi = rhs_phi + G.phi @ cp.B.T
    rhs = WeightedSignal(grid, nu, rhs_phi)
    V = timestep_oracle(EvoProblem(nu, grid, base.law, base.A, rhs, "forward"))

    step_u0 = mask[:, None] * flat_weight[:, None] * cp.U0[None, :]
    U = WeightedSignal(grid, nu, V.phi + step_u0)

    v_at_T = math.exp(nu * cp.T) * _interp_at(grid, V.phi, cp.T)
    m0u = M0 @ (v_at_T + cp.U0)

    smooth = np.eye(m) + base.A.A.conj().T @ base.A.A
    y = np.linalg.solve(smooth, m0u)
    hminus = float(math.sqrt(max(np.vdot(m0u, y).real, 0.0)))

    m0v_vals = (V.phi * np.exp(nu * grid.times)[:, None]) @ M0.T
    jumps = np.abs(np.diff(m0v_vals, axis=0)).max() if grid.n > 1 else 0.0
    return PointwiseSolution(U=U, M0U_at_T=m0u, hminus_norm=hminus,
                             max_jump=float(jumps))


def _pointwise_response_matrix(cp: ControlProblem) -> tuple:
    """Columns of G -> M0 (response to B G)(T), exploiting shift invariance.

    One stepper run per control component gives the response to an impulse at
    the first nonnegative sample; responses to later impulses are index
    shifts of it.  Unknowns are the flat G samples with t_j >= 0 (the support
    constraint on admissible controls), time-major.
    """
    base = cp.base
    grid, m, nu, q = base.grid, base.A.m, base.nu, cp.q
    M0 = base.law.coeffs[0]
    j0 = int(np.argmax(_step_indicator_mask(grid)))
    if not _step_indicator_mask(grid).any():
        raise PreconditionError("the grid has no samples with t >= 0")
    active = np.arange(j0, grid.n)

    kernels = np.zeros((q, grid.n, m), dtype=complex)
    for l in range(q):
        phi = np.zeros((grid.n, q), dtype=complex)
        phi[j0, l] = 1.0
        rhs = WeightedSignal(grid, nu, phi @ cp.B.T)
        kernels[l] = timestep_oracle(
            EvoProblem(nu, grid, base.law, base.A, rhs, "forward")
        ).phi

    jlo, theta = _bracket(grid, cp.T)
    scale = math.exp(nu * cp.T)

    def kernel_at(l, kidx):
        shifted = kidx + j0
        valid = (shifted >= 0) & (shifted < grid.n)
        out = np.zeros((len(kidx), m), dtype=complex)
        out[valid] = kernels[l][shifted[valid]]
        return out

    cols = np.zeros((m, len(active), q), dtype=complex)
    for l in range(q):
        lo = kernel_at(l, jlo - active)
        hi = kernel_at(l, jlo + 1 - active)
        resp = scale * ((1.0 - theta) * lo + theta * hi)
        cols[:, :, l] = (resp @ M0.T).T
    Phi = cols.reshape(m, len(active) * q)
    return Phi, active


def _pointwise_target(cp: ControlProblem) -> np.ndarray:
    """b = M0 (response to step (M1+A) U0)(T) - M0 U0; the control must
    produce exactly this readout for the closed loop to vanish at T."""
    base = cp.base
    grid, nu = base.grid, base.nu
    M0, M1 = _split_law(base.law)
    drift = (M1 + base.A.A) @ cp.U0
    rhs_phi = _step_indicator_weights(grid)[:, None] \
        * np.exp(-nu * grid.times)[:, None] * drift[None, :]
    V2 = timestep_oracle(EvoProblem(nu, grid, base.law, base.A,
                                    WeightedSignal(grid, nu, rhs_phi), "forward"))
    v2_at_T = math.exp(nu * cp.T) * _interp_at(grid, V2.phi, cp.T)
    return M0 @ v2_at_T - M0 @ cp.U0


@one_blas_thread
def pointwise_null_control(cp: ControlProblem,
                           rtol: float = DEFAULT_SVD_RTOL,
                           feasibility_tol: float = 1e-8) -> ControlResult:
    """Least-norm control steering the M0-weighted state to zero at T.

    Admissible controls are supported on t >= 0.  Feasibility means the
    m-dimensional readout equation Phi g = b is consistent at the SVD cutoff;
    the returned terminal residual is the closed-loop ||M0 U(T)|| from an
    actual re-solve with the synthesised control.
    """
    if cp.variant != "pointwise":
        raise PreconditionError("pointwise_null_control needs the pointwise variant")
    Phi, active = _pointwise_response_matrix(cp)
    b = _pointwise_target(cp)

    # Linearity probe: the assembled response must match a direct solve.
    rng = np.random.default_rng(11)
    grid, q, nu = cp.base.grid, cp.q, cp.base.nu
    probe = np.zeros((grid.n, q), dtype=complex)
    probe[active] = (rng.standard_normal((len(active), q))
                     + 1j * rng.standard_normal((len(active), q)))
    zero_cp = ControlProblem(base=cp.base, B=cp.B, T=cp.T, variant="pointwise",
                             U0=np.zeros(cp.base.A.m))
    direct = pointwise_solve(zero_cp, WeightedSignal(grid, nu, probe)).M0U_at_T
    via = Phi @ probe[active].reshape(-1)
    if np.linalg.norm(via - direct) > 1e-10 * max(np.linalg.norm(direct), 1.0):
        raise ConsistencyError("pointwise response assembly disagrees with a direct solve")

    g_active, reg = _truncated_lstsq(np.linalg.svd(Phi, full_matrices=False), b, rtol)
    residual = float(np.linalg.norm(Phi @ g_active - b))
    feasible = residual < feasibility_tol * (1.0 + float(np.linalg.norm(b)))

    phi_G = np.zeros((grid.n, q), dtype=complex)
    phi_G[active] = g_active.reshape(len(active), q)
    G = WeightedSignal(grid, nu, phi_G)
    closed_loop = pointwise_solve(cp, G)
    return ControlResult(
        G=G,
        terminal_residual=float(np.linalg.norm(closed_loop.M0U_at_T)),
        control_norm=G.norm,
        feasible=feasible,
        regularization=reg,
    )


@one_blas_thread
def pointwise_duality_check(cp: ControlProblem,
                            rtol: float = DEFAULT_SVD_RTOL,
                            feasibility_tol: float = 1e-8) -> dict:
    """Feasibility for a basis of initial states against the range inclusion
    of the assembled pair; the two verdicts must agree."""
    base = cp.base
    m = base.A.m
    Phi, active = _pointwise_response_matrix(cp)
    Psi = np.zeros((m, m), dtype=complex)
    for i in range(m):
        probe = ControlProblem(base=base, B=cp.B, T=cp.T, variant="pointwise",
                               U0=np.eye(m)[i])
        Psi[:, i] = _pointwise_target(probe)
    svd_phi = np.linalg.svd(Phi, full_matrices=False)
    feasible = []
    for i in range(m):
        g, _ = _truncated_lstsq(svd_phi, Psi[:, i], rtol)
        resid = float(np.linalg.norm(Phi @ g - Psi[:, i]))
        feasible.append(resid < feasibility_tol * (1.0 + float(np.linalg.norm(Psi[:, i]))))
    report = _douglas(Psi, Phi, svd_phi, rtol=rtol)
    return {
        "feasible_for_basis": all(feasible),
        "range_included": report.included,
        "agree": all(feasible) == report.included,
        "douglas": report,
    }
