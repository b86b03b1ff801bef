"""Null-controllability machinery: range-inclusion checks in the style of
Douglas' lemma, dense end-map assembly, least-norm control synthesis,
observability constants for the backward system, and the pointwise
(initial-value) variant for laws M0 + z^{-1} M1.

Range inclusion over the reals is ill-posed in floating point, so every
decision here is made relative to a declared truncated-SVD cutoff
(sigma_max * 1e-10, fixed) which is reported with each result.  A threshold
on a spectral norm is first decided from cheap bounds,
||M||_F / sqrt(min(shape)) <= ||M||_2 <= ||M||_F widened for rounding; the
exact norm (an SVD) is taken only when the bounds straddle the threshold,
so a verdict is the one the exact norms give.  A threshold built from
several norms takes their exact values one at a time, in order, and stops
as soon as the bounds decide (`_at_most`).  Every dense SVD and the
Douglas check first take their matrices into range by a power of two
(`signals._into_range`), which is exact, so no verdict depends on the scale
of the data.  Observability is read off that
check: the backward (nu-adjoint) end maps are the adjoints of L_F and L_G,
so by Douglas' lemma in its control/observation form c_obs is finite
exactly when ran L_F lies in ran L_G, and is then the norm of the Douglas
core.  The maps keep their `SpectralOperator`, whose backward solves check
that adjointness at assembly.  The Douglas check reads B only through its
truncated SVD (U_r, s_r) and decides each condition once over its probe
family, without forming the dense factor C = V_r core.  Its report owns the
values behind them, exact and computed when first read: the constant
||C||_2 = ||core||_2, which is c_obs, and its extremal datum, the witness,
both from one thin SVD of the core, and the residual ||A - U_r U_r^* A||_2,
the mass outside ran(B) that `factorization` was judged on.
Infeasibility is a finding, not an error: certifying that a system cannot
be controlled (say, B = 0) is part of the job.

The supported variant's control acts on the whole grid, so its verdicts
and c_obs follow B: for B of full row rank, c_obs = 1/sigma_min(B), an
upper bound for any law, and ||v|| / ||B^* v|| bounds it from below for
the backward solution v of any post-horizon datum (Dolecki & Russell).
When B has full row rank with condition number below `_KAPPA_LIMIT`
(`_well_conditioned`), the range inclusion holds for every law, so
certify's B route decides from B's SVD (`_b_svd`) alone, with its
feasibility from the explicit control g = -(I x B^+) f.  `control`'s B
route (`_b_route`) also reports c_obs, so it solves one such datum, along
B's weakest direction, and is taken when the datum closes that bracket:
c_obs is 1/sigma_min(B) and the datum its witness.  Then no end map is
assembled, and no SVD but B's runs.  `control`'s least-norm control
comes from the Hilbert Uniqueness Method (`_hum_control`): preconditioned
conjugate gradients on the Gramian L_G L_G^H, whose every product is one
backward and one forward solve.  The route's forward and backward solves
are one pair, L_F and L_F^H solved (`_response`, `_observation`), and both
commands pair them in a dot test (`_dot_test`) on the assembly's backward
data (`_backward_data`).  Certify has a third route, the separating one
(`_separated`), for the pairs the B route declines: the same kind of
datum, where B^* misses its direction and L_F^H sees it, makes every
verdict False when its bounds close, from B's SVD, the datum, one more
forward solve, the probes' forward solves and the operator's certificate.
Each command has at most one route that reads a datum, so it solves it at
most once (`_datum`).  With no end map there is no end-map size guard: it sits in
`_assemble`, the one code that builds both end maps.  For B without full
row rank both commands have the L_G route (`_lg_route`), which builds L_G
alone, past a guard on its own entries: its thin SVD gives the truncated
control of the targets -L_F f, each one forward solve, and a datum that
L_G^H misses and L_F^H sees makes the inclusion False when its bound
closes.  Every other pair, and every library entry point above, takes
the dense route; `null_control` is the reference the HUM and L_G controls
are tested against, and `_duality_verdicts` the one the separating and
L_G routes are.  The
`control` command chooses between the variants and the routes in one
place: `_certify` for its duality table, `_synthesize` for its control and
observability.  The rules the routes share are written once: feasibility
(`_feasible`), the backward data of the dot tests, the probes of certify's
feasibility (`_probes`, drawn once per command), B's SVD (`_b_svd`) and
its gate (`_well_conditioned`), the bracket of c_obs (`_bracket`), and
finite observability, which is the range inclusion.

Every dense entry point (`douglas_check`, `assemble_endmaps`, `null_control`,
`observability_constant`, the pointwise pair and the duality verdicts) runs
on one OpenBLAS thread whatever the caller's thread count says, then
restores the caller's count, as every CLI command does.  The routes that
assemble no end map run only inside a command, so they take no pin of
their own.  Mid-size complex
SVDs are faster that way than on two threads, and the results no longer
depend on the thread count (bitwise reproducibility still assumes the same
numpy/OpenBLAS build and CPU kernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, ClassVar, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._blas import one_blas_thread
from .errors import (
    ConsistencyError,
    PreconditionError,
    SizeGuardError,
    UnsupportedLawError,
)
from .material import coercivity
from .signals import (NORM_FLOOR, TimeGrid, WeightedSignal, _exponent, _finite, _into_range,
                      _ldexp, _norm2, signal_from_values)
from .solver import (DEFAULT_PAD_FRACTION, EvoProblem, SpectralOperator, _split_law,
                     timestep_oracle)
from .transform import block_apply
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
    "pointwise_solve",
    "pointwise_null_control",
    "pointwise_duality_check",
]

DEFAULT_SVD_RTOL = 1e-10
FEASIBILITY_TOL = 1e-6            # null control: residual relative to the target
POINTWISE_FEASIBILITY_TOL = 1e-8  # pointwise: readout residual over 1 + ||target||
DEFAULT_SIZE_GUARD = 4_000_000
_INCLUSION_RTOL = 1e-8  # mass outside ran(B) that still counts as inside, relative
_PROBES = 8             # random probes per ball-inclusion and adjoint-domination check
_ROUNDING = 1e-10       # relative widening of each cheap norm bound, for its rounding
# kappa(B) below which B of full row rank decides the inclusion for every law
# (`_well_conditioned`): a unit x orthogonal to the kept left singular vectors
# of L_G = L_F (I x B) has sigma_min(B) ||L_F^* x|| <= ||L_G^* x|| <= 1e-10
# sigma_max(B) ||L_F||_2, so the Douglas mass is at most 1e-10 kappa(B) ||L_F||_2,
# under the inclusion rung, and the dense check could only say "included"
_KAPPA_LIMIT = _INCLUSION_RTOL / DEFAULT_SVD_RTOL  # 100.0
_DOT_TEST_FAILURE = "the adjoint of L_F disagrees with a backward solve"


@dataclass(frozen=True)
class ControlProblem:
    """A forward instance plus an injection B, a horizon T and a variant.

    T lies between the first and the last sample.  The supported variant
    reads the forcing F from `base.rhs`; the pointwise variant carries an
    initial state U0 instead, needs T > 0 and requires a law of the form
    M0 + z^{-1} M1.
    """

    base: EvoProblem
    B: np.ndarray
    T: float
    variant: str = "supported"  # "supported" | "pointwise"
    U0: Optional[np.ndarray] = None

    def __post_init__(self):
        # each message opens with its field, which the config prefixes with
        # its section
        B = np.ascontiguousarray(np.atleast_2d(self.B), dtype=complex)
        if B.shape[0] != self.base.A.m:
            raise PreconditionError(f"B: needs {self.base.A.m} rows, got {B.shape[0]}")
        if B.shape[1] < 1:
            raise PreconditionError("B: needs at least one column")
        if not np.isfinite(B).all():
            raise PreconditionError("B: must be finite")
        B.setflags(write=False)
        object.__setattr__(self, "B", B)
        if self.base.direction != "forward":
            raise PreconditionError("base: control problems build on a forward instance")
        grid = self.base.grid
        last = grid.t_min + (grid.n - 1) * grid.dt
        if not grid.t_min <= self.T <= last:
            raise PreconditionError(f"T: horizon must lie between the first and the last "
                                    f"sample, [{grid.t_min!r}, {last!r}], got {self.T!r}")
        if self.variant == "supported":
            if self.U0 is not None:
                raise PreconditionError("U0: the supported variant takes no initial state")
        elif self.variant == "pointwise":
            law = self.base.law
            if not law.is_finite_sum or law.order > 1 or law.conjugate_argument:
                raise UnsupportedLawError(
                    "variant: pointwise control needs a law of the form M0 + z^{-1} M1"
                )
            if self.T <= 0:
                raise PreconditionError("T: pointwise horizon must be positive")
            if self.U0 is None:
                raise PreconditionError("U0: the pointwise variant needs an initial state")
            U0 = np.ascontiguousarray(np.asarray(self.U0, dtype=complex).ravel())
            if U0.shape != (self.base.A.m,):
                raise PreconditionError(f"U0: must have {self.base.A.m} entries")
            if not np.isfinite(U0).all():
                raise PreconditionError("U0: must be finite")
            U0.setflags(write=False)
            object.__setattr__(self, "U0", U0)
        else:
            raise PreconditionError(f"variant: unknown variant {self.variant!r}")

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
    """Outcome of a control synthesis.  `feasible=False` is a finding.
    `regularization` is the truncation of the SVD behind the control, or on
    the B route the report of its conjugate-gradient solve."""

    G: WeightedSignal
    terminal_residual: float
    feasible: bool
    regularization: RegularizationReport | _HumReport

    @property
    def control_norm(self) -> float:
        return self.G.norm


@dataclass(frozen=True)
class DouglasReport:
    """Verdict of the range-inclusion check ran(A) subseteq ran(B).

    The four classically equivalent conditions are evaluated on every call:
    range inclusion via the SVD range projector, existence of a factor C with
    A = BC, inclusion of A(unit ball) in B(ball of radius c), and the adjoint
    domination ||A^* x|| <= c ||B^* x||, each decided once over its probe
    family.  Their verdicts are returned so callers can assert agreement.

    B enters only as its truncated SVD U_r diag(s_r) V_r^*, and the check
    never forms the factor C = V_r core.  Its values are exact, taken on
    first read, on one BLAS thread; the verdicts need only bounds on them.
    `constant` (c = ||C||_2, None when excluded) is the top singular value
    of the core, and `witness` the extremal datum: when included the unit
    x = U_r s_r^{-1} u_1 (normalised) for the core's top left singular
    vector u_1, which attains ||A^* x|| = c ||B^* x|| (zero when B keeps
    nothing), both from one thin SVD of the core; when excluded a unit x
    that B^* misses and A^* sees.  `factor_residual` (None when excluded)
    is ||A - U_r U_r^* A||_2 = ||A - BC||_2, the residual `factorization`
    was judged on, recomputed on read.
    """

    included: bool
    cutoff: float
    conditions: dict
    _witness: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    # when included: the bounds of ||core||_2 for the core U_r^* A / s_r, the
    # core, its thin SVD (u, s) on first call, U_r, s_r, the bounds of the
    # mass ||A - U_r U_r^* A||_2 with A in range, and the powers of two ka
    # and kb that took A and B there
    _parts: Optional[tuple] = field(default=None, repr=False, compare=False)

    @cached_property
    @one_blas_thread
    def constant(self) -> Optional[float]:
        if not self.included:
            return None
        norm_core, *_, ka, kb = self._parts
        return _ldexp(norm_core.exact, kb - ka)  # ||C||_2, scaled back

    @cached_property
    @one_blas_thread
    def witness(self) -> np.ndarray:
        if not self.included:
            return self._witness
        _, core, svd_core, Ur, sr = self._parts[:5]
        if not core.size:  # B keeps nothing, and A is negligible
            return np.zeros(Ur.shape[0], dtype=complex)
        datum = Ur @ (svd_core()[0][:, 0] / sr)
        return datum / _norm2(datum)

    @cached_property
    @one_blas_thread
    def factor_residual(self) -> Optional[float]:
        if not self.included:
            return None
        return _ldexp(self._parts[5].exact, -self._parts[6])  # ||A - U_r U_r^* A||_2


class _Norm:
    """lo <= x <= hi for a norm x whose exact value is costly; `exact`
    computes it on first read."""

    def __init__(self, lo: float, hi: float, exact: Callable[[], float]):
        self.lo, self.hi, self._exact = lo, hi, exact

    @cached_property
    def exact(self) -> float:
        return self._exact()


def _at_most(value: float | _Norm, threshold: Callable[..., float], *norms: _Norm) -> bool:
    """value <= threshold(*norms), for a `threshold` that does not decrease
    in any norm: from the norms' bounds when they decide it, then with their
    exact values taken one at a time, in order, and when no bound decides it
    from the exact values, the threshold's before the value's."""
    lo, hi = (value.lo, value.hi) if isinstance(value, _Norm) else (value, value)
    for i in range(len(norms)):
        exact = [n.exact for n in norms[:i]]
        if hi <= threshold(*exact, *(n.lo for n in norms[i:])):
            return True
        if lo > threshold(*exact, *(n.hi for n in norms[i:])):
            return False
    limit = threshold(*(n.exact for n in norms))
    return (value.exact if isinstance(value, _Norm) else value) <= limit


def _norm_bracket(M: np.ndarray, exact: Optional[Callable[[], float]] = None) -> _Norm:
    """||M||_2 between ||M||_F / sqrt(min(shape)) and ||M||_F, each widened by
    `_ROUNDING`; ||M||_F above the largest double is inf.  The exact value is
    `exact()`, by default an SVD of M without vectors."""
    fro = float(_norm2(M))
    return _Norm(fro / math.sqrt(min(M.shape)) * (1 - _ROUNDING), fro * (1 + _ROUNDING),
                 exact or (lambda: float(np.linalg.norm(M, 2))))


def _svd(M: np.ndarray) -> tuple:
    """The thin SVD under the range rule: (U, s, Vh, k) with 2^k M = U diag(s) Vh."""
    scaled, k = _into_range(M)
    return (*np.linalg.svd(scaled, full_matrices=False), k)


def _truncation(s: np.ndarray, rtol: float) -> tuple:
    """(sigma_max, cutoff, rank) of descending singular values `s`: the one
    truncation rule, a cutoff `rtol` relative to sigma_max."""
    sigma_max = float(s[0]) if s.size else 0.0
    cutoff = sigma_max * rtol
    return sigma_max, cutoff, int(np.sum(s > cutoff))


@one_blas_thread
def douglas_check(Amat: np.ndarray, Bmat: np.ndarray,
                  rng: Optional[np.random.Generator] = None) -> DouglasReport:
    """Decide ran(A) subseteq ran(B) for matrices with a common row space.

    When included, A = BC holds for C = B^+ A to the factorization rung, and
    the report gives the constant c = ||C||_2, which is simultaneously the
    smallest ball radius and the smallest adjoint-domination constant, and
    the witness that attains it; C itself is never formed.  When excluded,
    the witness is a unit x with B^* x ~ 0 but A^* x != 0: the normalized
    largest column of the part of A outside ran(B), or its top left singular
    vector only when that column does not defeat the factor's constant.

    B is read only through its truncated SVD: C = V_r core for the core
    U_r^* A / s_r, so A - BC = A - U_r U_r^* A, ||C y|| = ||core y|| and
    ||B^* x|| = ||s_r (U_r^* x)||, and no verdict sees a singular value of B
    below the cutoff or the rounding of a product with B, which grows with
    ||B||_2 ||C||_2.  Each threshold on a 2-norm (of A, of that outside part
    and of C) is decided from cheap bounds, and from the exact norm only
    when the bounds straddle it, so the verdicts are those of the exact
    norms.  The thresholds scale with ||A||_2 alone, and A and B are taken
    into range by powers of two, so neither verdicts nor witness depend on
    the scale of either.  `range_inclusion` and `factorization` judge the
    same mass of A - B B^+ A at the rungs 1e-8 and 1e-10 ||A||_2, so a pair
    whose mass lies between them raises `ConsistencyError`.
    """
    return _douglas(Amat, _svd(np.atleast_2d(np.asarray(Bmat, dtype=complex))), rng)


def _douglas(Amat: np.ndarray, svd_b: tuple,
             rng: Optional[np.random.Generator] = None) -> DouglasReport:
    """Body of `douglas_check` given `_svd(B)`, which the caller holds,
    rather than B: B is read only as its kept left singular vectors U_r and
    values s_r, the truncated B the cutoff defines.

    Range rule: A goes into range by `_into_range`, B by its SVD's power,
    and read values scale back.  With largest parts below 2^200 the core is
    below about 2^445 (2^400 from the ranges, 2^33 from the cutoff, 2^12 from
    sqrt(2 rows cols) under the size guard): no square in a norm overflows,
    and its SVD stays in LAPACK's unscaled range (2^+-457), where bits scale.

    Every comparison goes through `_at_most`, and the probes draw from `rng`
    in the same order whichever way a comparison is decided: 8 (re, im)
    pairs of width cols for the ball, then 8 of width rows for the adjoint
    domination, each family drawn in one call (the same numbers) and applied
    as one matrix product.  The ball is decided on the family's largest miss
    and then its largest length, so a pair that misses never reads the
    radius and takes no SVD of its core; adjoint domination is one predicate.

    The factor C = V_r core (N x cols for N columns of B) is never formed.
    B V_r = U_r S_r, so A - BC is `outside` = A - U_r U_r^* A: `factorization`
    is judged on its mass, a ball probe y misses A y by ||outside y||, and
    ||C y|| = ||core y||.  ||B^* x|| is ||s_r (U_r^* x)||.  The core's thin
    SVD is taken once, when `constant` is first needed, here or on read.
    """
    Amat = np.atleast_2d(np.asarray(Amat, dtype=complex))
    Ub, sb, _, kb = svd_b
    if Amat.shape[0] != Ub.shape[0]:
        raise PreconditionError("A and B must share their codomain dimension")
    rng = rng or np.random.default_rng(0)
    rows, cols = Amat.shape

    _, cutoff, rank_b = _truncation(sb, DEFAULT_SVD_RTOL)
    Ur, sr = Ub[:, :rank_b], sb[:rank_b]

    Amat, ka = _into_range(Amat)
    norm_a = _norm_bracket(Amat)

    # Mass of A outside the numerical range of B, against the scale of A
    # alone: scaling B moves neither ran(B) nor a verdict.  In range,
    # ||A||_2 >= 2^-200 unless A = 0, where every condition holds as 0 <= 0.
    core = Ur.conj().T @ Amat  # divided by the kept singular values below
    outside = Amat - Ur @ core
    mass = _norm_bracket(outside)
    included = _at_most(mass, lambda s: _INCLUSION_RTOL * s, norm_a)

    conditions = {"range_inclusion": included,
                  "factorization": _at_most(mass, lambda s: 1e-10 * s, norm_a)}
    core /= sr[:, None]
    svd_core = cache(lambda: np.linalg.svd(core, full_matrices=False)[:2])  # (u, s)
    constant = (_norm_bracket(core, lambda: float(svd_core()[1][0]))
                if core.size else _Norm(0.0, 0.0, lambda: 0.0))  # ||core||_2 = 2^(ka - kb) ||C||_2

    # Ball inclusion, probed: the min-norm preimage of A y must fit in the
    # c-ball and reproduce A y.  One probe per column; the largest miss, then
    # the largest length, decides.
    draws = rng.standard_normal((_PROBES, 2, cols))
    Y = (draws[:, 0] + 1j * draws[:, 1]).T
    Y /= np.linalg.norm(Y, axis=0)
    conditions["ball_inclusion"] = bool(
        _at_most(np.linalg.norm(outside @ Y, axis=0).max(), lambda s: _INCLUSION_RTOL * s,
                 norm_a)
        and _at_most(np.linalg.norm(core @ Y, axis=0).max(),
                     lambda c: c * (1 + 1e-8) + 1e-12, constant))

    def dominated(lhs, rhs, xn=1.0) -> bool:
        """||A^* x|| = lhs <= c ||B^* x|| = c rhs, for ||x|| = xn, to the rungs."""
        return _at_most(lhs, lambda c, s: c * rhs * (1 + 1e-8) + _INCLUSION_RTOL * s * xn,
                        constant, norm_a)

    def adjoint_norms(X) -> tuple:
        """(||A^* x||, ||B^* x||) of each column x of X: the columns of
        A^T conj(X) are the conjugates of A^* x, so no adjoint is formed."""
        Xc = X.conj()
        return (np.linalg.norm(Amat.T @ Xc, axis=0),
                np.linalg.norm(sr[:, None] * (Ur.T @ Xc), axis=0))

    # Adjoint domination on random probes, drawn whatever the verdict;
    # meaningful constant only when the factorisation holds, so decided only
    # then.  One probe per column of X.
    draws = rng.standard_normal((_PROBES, 2, rows))
    if included:
        X = (draws[:, 0] + 1j * draws[:, 1]).T
        conditions["adjoint_domination"] = all(map(
            dominated, *adjoint_norms(X), np.linalg.norm(X, axis=0)))
    else:
        # A direction of A orthogonal to ran(B): B^* x ~ 0, A^* x != 0, so
        # ||A^* x|| > c ||B^* x|| defeats the factor's constant c.  The largest column
        # of `outside` has ||A^* x|| >= ||outside||_F / sqrt(cols); the
        # strongest direction, an SVD, is taken only when it fails.
        def candidates():
            columns = np.linalg.norm(outside, axis=0)
            j = int(np.argmax(columns))
            if columns[j] > 0:
                yield outside[:, j] / columns[j]
            yield np.linalg.svd(outside, full_matrices=False)[0][:, 0]

        for witness in candidates():
            held = dominated(*(float(v[0]) for v in adjoint_norms(witness[:, None])))
            if not held:
                break
        conditions["adjoint_domination"] = held

    verdicts = set(conditions.values())
    if len(verdicts) != 1:
        raise ConsistencyError(f"the four range-inclusion conditions disagree: {conditions}")

    return DouglasReport(
        included=included,
        cutoff=_ldexp(cutoff, -kb),
        conditions=conditions,
        _witness=None if included else witness,
        _parts=(constant, core, svd_core, Ur, sr, mass, ka, kb) if included else None,
    )


@dataclass(frozen=True)
class EndMaps:
    """The primal end maps of one supported control problem, cut from the
    forward impulse kernel of one `SpectralOperator`.

    L_F and L_G map F, and G through B, to the post-horizon response; rows
    are the samples with t_j >= T stacked time-major, columns the full-grid
    flat arrays of F (dimension n*m) and G (dimension n*q).  Their adjoints
    are the backward end maps: L_F^H maps a backward datum supported at or
    after T to the backward solution, L_G^H to its B^*-filtered observation
    (checked against backward solves at assembly).  `op` is that operator,
    the one owner of the grid, nu, m and the certificate behind the maps.
    """

    L_F: np.ndarray
    L_G: np.ndarray
    op: SpectralOperator
    post_start: int

    @cached_property
    @one_blas_thread
    def _svd_G(self) -> tuple:
        """Thin SVD (U, s, Vh, k) of 2^k L_G (`_svd`), taken on first use and
        shared by every null-control solve and range-inclusion check on these maps."""
        return _svd(self.L_G)

    @cached_property
    @one_blas_thread
    def _inclusion(self) -> DouglasReport:
        """The range-inclusion check ran L_F in ran L_G on `_svd_G`, taken on
        first use and shared by the duality verdicts and the observability
        estimate."""
        return _douglas(self.L_F, self._svd_G)


def _time_major(blocks: np.ndarray) -> np.ndarray:
    """Blocks (r, c, a, b) as the dense (r*a, c*b) matrix."""
    r, c, a, b = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(r * a, c * b)


def _check_agrees(via: np.ndarray, direct: np.ndarray, what: str) -> None:
    """Raise `ConsistencyError` unless `via` matches `direct` to 1e-10
    relative; a norm above the largest double fails."""
    err = float(_norm2(via - direct)) / max(float(_norm2(direct)), NORM_FLOOR)
    if not err <= 1e-10:
        raise ConsistencyError(f"{what}: {err:.3e}")


@one_blas_thread
def assemble_endmaps(cp: ControlProblem,
                     pad_fraction: float = DEFAULT_PAD_FRACTION) -> EndMaps:
    """Assemble the primal end maps as dense matrices.

    Columns are exact index shifts of one set of impulse solves on one
    operator.  Before returning, two checks run on random probes to 1e-10:
    linearity of L_F against direct solves, and a dot test of L_F^H against
    backward solves of post-horizon data at weight -nu, the nu-adjoint system
    whose observability the maps decide.  Maps of more than
    `DEFAULT_SIZE_GUARD` entries raise `SizeGuardError` before any solve,
    in `_assemble`, the one code that builds end maps; a pointwise
    problem, whose U0 they would ignore, is refused.
    """
    if cp.variant != "supported":
        raise PreconditionError("assemble_endmaps cuts the supported variant's maps")
    base = cp.base
    return _assemble(cp, SpectralOperator(base.law, base.A, base.nu, base.grid, pad_fraction))


def _guard(entries: int, maps: str) -> None:
    """Refuse dense `maps` ("... need") of `entries` entries past
    `DEFAULT_SIZE_GUARD` with `SizeGuardError`, before any solve."""
    if entries > DEFAULT_SIZE_GUARD:
        raise SizeGuardError(
            f"{maps} {entries} entries (> guard {DEFAULT_SIZE_GUARD}); "
            f"coarsen the grid or move the horizon T later"
        )


def _forward_blocks(op: SpectralOperator, post: int, B: Optional[np.ndarray] = None):
    """The blocks (n_post, n, m, m) of L_F on `op` with horizon sample `post`,
    or with B (m, q) those (n_post, n, m, q) of L_F (I x B).

    The solve is a circulant on the padded grid, so one impulse solve per
    component (impulse at padded index npad) gives every block: the entry
    for padded row npad+r and padded source npad+c sits at kernel index
    (npad + r - c) mod N.  B multiplies the kernel before the cut, which
    gives each entry the bits of the cut blocks times B."""
    n, m = op.grid.n, op.A.m
    impulse = np.zeros((n, m, m), dtype=complex)
    impulse[0] = np.eye(m)
    kernel = op.padded_solve(impulse, True)
    if B is not None:
        kernel = np.einsum("sik,kl->sil", kernel, B)
    rows, cols = post + np.arange(n - post), np.arange(n)
    return kernel[(op.npad + rows[:, None] - cols[None, :]) % op.pad_grid.n]


def _assemble(cp: ControlProblem, op: SpectralOperator) -> EndMaps:
    """`assemble_endmaps`' body on the operator `op` of `cp`, and the only
    code that builds both end maps: maps of more than `DEFAULT_SIZE_GUARD`
    entries raise `SizeGuardError` here, before the impulse solve."""
    base = cp.base
    grid, m = base.grid, base.A.m
    n = grid.n
    post = grid.index_at_or_after(cp.T)
    n_post = n - post  # at least 1: T is at or before the last sample
    _guard(n_post * m * n * max(m, cp.q), "dense end maps need")
    forward = _forward_blocks(op, post)
    L_F = _time_major(forward)
    L_G = _time_major(np.einsum("pjik,kl->pjil", forward, cp.B))

    rng = np.random.default_rng(7)
    probes = [WeightedSignal(grid, base.nu, rng.standard_normal((n, m))
                             + 1j * rng.standard_normal((n, m))) for _ in range(2)]
    for f, u in zip(probes, op.solutions(probes)):
        _check_agrees((L_F @ f.phi.reshape(-1)).reshape(n_post, m), u.phi[post:],
                      "end-map assembly disagrees with a direct solve")
    # Dot test: L_F^H y is the backward solve of a post-horizon datum y.
    Y, V = _backward_data(op, post)
    for y, v in zip(Y.T, V.T):
        _check_agrees(np.conj(y.conj() @ L_F), v, _DOT_TEST_FAILURE)

    return EndMaps(L_F=L_F, L_G=L_G, op=op, post_start=post)


def _truncated_lstsq(svd: tuple, b: np.ndarray, rtol: float):
    """Least-norm solution of M x = b through a truncated SVD, given the
    factorization `_svd(M)` rather than M itself, so one factorization serves
    every right-hand side, `b` or each column of it.  Rank and cutoff are read
    off the scaled values; x, sigma_max and the cutoff are scaled back."""
    U, s, Vh, k = svd
    sigma_max, cutoff, r = _truncation(s, rtol)
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _finite_solution
        coeffs = ((U[:, :r].conj().T @ b).T / s[:r]).T  # rank axis last to broadcast
        x = _finite_solution(_ldexp(Vh[:r].conj().T @ coeffs, k), _ldexp(s[:r], -k))
    return x, RegularizationReport(rank=r, cutoff=_ldexp(cutoff, -k),
                                   sigma_max=_ldexp(sigma_max, -k))


def _norm(v: np.ndarray) -> float:
    """||v||_2 by `_norm2`, refused when it is not finite: a norm above the
    largest double decides nothing."""
    value = float(_norm2(v))
    if not math.isfinite(value):
        raise np.linalg.LinAlgError("a norm is above the largest double")
    return value


def _finite_solution(x: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """`x`, a solution through the kept singular values `kept`, if it is
    finite.  The cutoff is relative, so a map that is tiny as a whole keeps
    singular values whose inverses overflow."""
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError(
            f"the truncated least-norm solution overflows: the kept singular values "
            f"fall to {kept[-1]:.3e}")
    return x


def _feasible(residual: np.ndarray, target: np.ndarray) -> bool:
    """The null-control feasibility rule: each column of `residual` (or a
    flat one) below `FEASIBILITY_TOL` relative to its column of `target`."""
    rel = _norm2(residual, axis=0) / np.maximum(_norm2(target, axis=0), NORM_FLOOR)
    return bool(np.all(rel < FEASIBILITY_TOL))


def _least_norm(L_G: np.ndarray, svd_G: tuple, target: np.ndarray, k: int = 0) -> tuple:
    """(g, residual, report, feasible) of the truncated least-norm solve of
    L_G g = target, for L_G given as 2^k L_G and `svd_G`, the SVD `_svd` of
    L_G itself; the residual multiplies 2^k L_G by 2^-k g, which has the
    bits of L_G g."""
    g, reg = _truncated_lstsq(svd_G, target, DEFAULT_SVD_RTOL)
    residual = L_G @ _ldexp(g, -k) - target
    return g, residual, reg, _feasible(residual, target)


def _null_solve(maps: EndMaps, f: np.ndarray) -> tuple:
    """`null_control`'s solve and verdict for one flattened forcing `f` or,
    feasible only if each is, for every column of `f`."""
    return _least_norm(maps.L_G, maps._svd_G, -(maps.L_F @ f))


def _control_result(op: SpectralOperator, solve: tuple) -> ControlResult:
    """The `ControlResult` on `op`'s grid of a flat `_least_norm` solve."""
    g, residual, reg, feasible = solve
    return ControlResult(
        G=WeightedSignal(op.grid, op.nu, g.reshape(op.grid.n, -1)),
        terminal_residual=float(_norm2(residual, factor=math.sqrt(op.grid.dt))),
        feasible=feasible,
        regularization=reg,
    )


@one_blas_thread
def null_control(cp: ControlProblem, endmaps: Optional[EndMaps] = None) -> ControlResult:
    """Least-norm control removing the post-horizon response to F.

    Solves L_G g = -L_F f by truncated-SVD pseudoinverse; feasible iff the
    relative residual stays below `FEASIBILITY_TOL`.  With B = 0 and a
    nonvanishing post-horizon response this reports feasible=False together
    with the best-effort control.  This is the dense route for every B.  The
    `control` command computes the B route's control by HUM instead
    (`_hum_control`, which reports no cutoff), and for B without full row
    rank solves the same truncated system on L_G alone, with the target
    from one forward solve (`_lg_route`); this function is the reference
    both are tested against.
    """
    if cp.variant != "supported":
        raise PreconditionError("null_control drives the supported variant")
    maps = endmaps or assemble_endmaps(cp)
    return _control_result(maps.op, _null_solve(maps, cp.F.phi.reshape(-1)))


@dataclass(frozen=True)
class ObservabilityEstimate:
    """Smallest constant bounding the backward solution by its B-filtered
    observation, over right-hand sides supported at or after the horizon,
    by the dense route.

    The backward end maps are L_F^H and L_G^H, so by Douglas' lemma (in the
    control/observation duality of Dolecki and Russell) `c_obs` is finite
    exactly when ran L_F lies in ran L_G, and then equals ||core||_2 for the
    Douglas core U_r^* L_F / s_r of the thin SVD of L_G.  Every value is read
    off the maps' one range-inclusion check, computed on first read:
    `finite` is its verdict, `c_obs` its constant (+inf when excluded, 0.0
    when L_G keeps nothing), `witness` its extremal datum at weight -nu (a
    unit datum that attains c_obs, or that L_G^H misses and L_F^H sees), and
    `cutoff` the truncation of L_G, sigma_max(L_G) * 1e-10.  The `control`
    command reads it only where its other routes decline (`_Observability`):
    for a well-conditioned B whose datum closes the bracket the B route
    gives this c_obs to 1e-12, with the datum as witness and no cutoff,
    and for B without full row rank the L_G
    route gives the excluded verdict, with L_G's cutoff and a datum that
    L_G^H misses as witness.  This estimate is the reference both are
    tested against.
    """

    method: ClassVar[str] = "douglas-core-svd"  # the dense route; `_Observability` the others
    _maps: EndMaps = field(repr=False, compare=False)

    @property
    def finite(self) -> bool:
        return self._maps._inclusion.included

    @property
    def c_obs(self) -> float:
        return self._maps._inclusion.constant if self.finite else math.inf

    @property
    def witness(self) -> WeightedSignal:
        maps, op = self._maps, self._maps.op
        phi = np.zeros((op.grid.n, op.A.m), dtype=complex)
        phi[maps.post_start:] = maps._inclusion.witness.reshape(-1, op.A.m)
        return WeightedSignal(op.grid, -op.nu, phi)

    @property
    def cutoff(self) -> float:
        return self._maps._inclusion.cutoff


def observability_constant(cp: ControlProblem,
                           endmaps: Optional[EndMaps] = None) -> ObservabilityEstimate:
    """Largest generalized singular value of the backward end map L_F^H
    against its B-filtered counterpart L_G^H: +inf when a post-horizon datum
    is invisible to the observation but not to the state.

    Assembles the end maps at the default padding unless `endmaps` is given
    (pass `assemble_endmaps(cp, pad_fraction)` for another); past their size
    guard this raises `SizeGuardError` before any solve.  This is the dense
    route for every B; the values are computed when first read.  The
    `control` command takes the B route (`_b_route`) where it decides, with
    no end maps and so no size guard, and for B without full row rank the
    L_G route (`_lg_route`), guarded on L_G's entries alone; this function
    only where neither decides (`_synthesize`), refused past the guard
    before any end map is assembled.
    """
    return ObservabilityEstimate(endmaps or assemble_endmaps(cp))


@one_blas_thread
def _duality_verdicts(maps: EndMaps, probes: np.ndarray) -> tuple:
    """(feasible, included) on one set of end maps, the dense route of
    certify: null control of the forcings `probes` (n, m, p), the batch
    `_probes` draws, solved as one right-hand side of p columns, and
    ran(L_F) in ran(L_G).  By duality the two agree; the backward
    observability is finite exactly when that inclusion holds
    (`ObservabilityEstimate.finite` is its verdict), so it adds none."""
    return _null_solve(maps, probes.reshape(-1, probes.shape[-1]))[3], maps._inclusion.included


def _probes(op: SpectralOperator, rng: np.random.Generator) -> np.ndarray:
    """The max(m, 3) random forcings of certify's feasibility, drawn from
    `rng` on `op`'s grid, as one batch (n, m, p)."""
    return np.stack([random_signal(op.grid, op.nu, op.A.m, rng).phi
                     for _ in range(max(op.A.m, 3))], axis=-1)


def _gaussian(op: SpectralOperator, post: int) -> np.ndarray:
    """The profile of the routes' data: a Gaussian on `op`'s grid centred on
    the samples `post` on (at least two), with a 14th of their span as its
    standard deviation."""
    t = op.grid.times
    lo, hi = t[post], t[-1]
    return np.exp(-0.5 * ((t - (lo + hi) / 2) / ((hi - lo) / 14)) ** 2)


def _datum(op: SpectralOperator, post: int, u: np.ndarray) -> tuple:
    """(y, v): a post-horizon datum y at -nu and its backward solution
    v = L_F^H y, certified (`op.solutions`).  y is the nu-adjoint operator
    applied to the Gaussian of `_gaussian` along the direction u, cut to
    t >= T (samples `post` on); for a law local in time v is that Gaussian
    up to the cut.  A Gaussian, not `smooth_bump`: the bump's slowly
    decaying spectrum leaks up to 1.4e-3 of the datum before T, where the
    Gaussian leaks 3.9e-12."""
    t = op.grid.times
    y = op.apply(signal_from_values(op.grid, -op.nu, np.outer(_gaussian(op, post), u)))
    datum = y.with_phi(np.where((t >= t[post])[:, None], y.phi, 0.0))
    return datum, op.solutions([datum])[0]


def _b_svd(B: np.ndarray) -> tuple:
    """(2^k B, k, U, s, Vh), which the routes share: the injection taken into
    range by a power of two and its full SVD 2^k B = U diag(s) Vh."""
    B, k = _into_range(B)
    return (B, k, *np.linalg.svd(B))


def _well_conditioned(svd_b: tuple) -> bool:
    """Whether B, given as `_b_svd(B)`, has full row rank m with
    kappa(B) < `_KAPPA_LIMIT`, where the dense check could only say
    "included" for any law (see `_KAPPA_LIMIT`): the gate of the B route."""
    B, _, _, s, _ = svd_b
    return s.size == B.shape[0] and s[0] < _KAPPA_LIMIT * s[-1]


def _bracket(op: SpectralOperator, post: int, svd_b: tuple) -> tuple:
    """(lower, upper, y): bounds of c_obs for B of full row rank, given as
    `_b_svd(B)`, from the duality alone (Dolecki & Russell 1977), and the
    datum y behind the lower one: `_datum` along B's weakest left singular
    vector, on `op` with horizon sample `post`, which leaves at least two
    samples after T.

    Lower: ||v|| / ||B^* v|| for the backward solution v of y, valid
    whatever the datum.  Upper: 1/sigma_min, since ||B^* x|| >=
    sigma_min(B) ||x||.  Both are read on 2^k B and scaled back.  Neither
    end touches L_F, L_G or the Douglas core.
    """
    B, k, U, s, _ = svd_b
    y, v = _datum(op, post, U[:, -1])
    return (_ldexp(float(_norm2(v.phi) / _norm2(v.phi @ B.conj())), k),
            _ldexp(float(1.0 / s[-1]), k), y)


@dataclass(frozen=True)
class _Observability:
    """The observability of a route that runs no Douglas check, read like
    `ObservabilityEstimate`: `c_obs`, its `witness`, a datum at -nu that is
    unit over the post-horizon rows, the `cutoff` of L_G (None where no SVD
    of L_G ran) and the route's `method`."""

    c_obs: float
    witness: WeightedSignal
    cutoff: Optional[float]
    method: str


def _b_route(op: SpectralOperator, post: int, svd_b: tuple) -> Optional[_Observability]:
    """`control`'s B route of a supported problem on `op` with injection B,
    given as `_b_svd(B)`, and horizon sample `post`, or None where another
    route decides.

    It is taken when B passes `_well_conditioned`, at least two samples
    follow T, and `_bracket` closes: lower >= upper (1 - 1e-12), the
    algebraic rung.  Both ends bound c_obs for any law, so a law that is
    not local in time fails to close it and takes another route; no law is
    tested.  Then c_obs is 1/sigma_min(B), and the cut datum that attains
    it is the witness.  Certify needs no c_obs, so it takes its B route on
    the gate alone and solves no datum.
    """
    if not (_well_conditioned(svd_b) and post < op.grid.n - 1):
        return None  # rank deficient, ill-conditioned, or one post-horizon sample
    lower, upper, y = _bracket(op, post, svd_b)
    if not lower >= upper * (1 - 1e-12):
        return None
    return _Observability(c_obs=upper, witness=y.with_phi(y.phi / _norm2(y.phi[post:])),
                          cutoff=None, method="b-sigma-min-datum")


def _pinv(svd_b: tuple) -> np.ndarray:
    """The pseudoinverse of `_b_svd`'s 2^k B, for B of full row rank: it
    gives certify its explicit control and `_hum_control` its
    preconditioner."""
    _, _, U, s, Vh = svd_b
    return (Vh[:s.size].conj().T / s) @ U.conj().T


def _response(op: SpectralOperator, post: int, phi: np.ndarray) -> np.ndarray:
    """L_F phi: the forward solve of flat data phi (n, m), or of a batch
    (n, m, b), read on the samples `post` on.  Like `op.solutions` it takes
    no residual and refuses a non-finite result (`NonFiniteSignalError`),
    but it takes no certificate: its callers have read `op.solutions` first."""
    return _finite(op.padded_solve(phi, True)[op.npad + post:op.npad + op.grid.n])


def _observation(op: SpectralOperator, post: int, z: np.ndarray) -> np.ndarray:
    """L_F^H z: the backward solve at -nu of data z (n - post, m), or of a
    batch (n - post, m, b), on the samples `post` on and zero before, read
    on the grid; as `_response`, a non-finite result is refused."""
    datum = np.zeros((op.grid.n,) + z.shape[1:], dtype=complex)
    datum[post:] = z
    return _finite(op.padded_solve(datum, False)[op.npad:op.npad + op.grid.n])


def _backward_data(op: SpectralOperator, post: int) -> tuple:
    """(Y, V): two random post-horizon data y (seed 7), a column each of Y
    flattened over the samples `post` on, and their backward solves L_F^H y
    at -nu, a column each of V flattened over the grid.  Both dot tests,
    the assembly's and `_dot_test`, compare L_F^H with these."""
    rng = np.random.default_rng(7)
    shape = (2, op.grid.n - post, op.A.m)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    V = _observation(op, post, np.moveaxis(data, 0, -1))
    return data.reshape(2, -1).T, V.reshape(-1, 2)


def _dot_test(op: SpectralOperator, post: int, X: np.ndarray, LX: np.ndarray) -> None:
    """Pair forward solves with backward ones: for flattened forcings X (a
    column each) and their post-horizon responses LX = L_F X, compare
    <L_F x, y> with <x, L_F^H y> for the data of `_backward_data` to 1e-10,
    so a wrong backward system raises `ConsistencyError`."""
    Y, V = _backward_data(op, post)
    _check_agrees(Y.conj().T @ LX, V.conj().T @ X, _DOT_TEST_FAILURE)


def _b_feasible(op: SpectralOperator, post: int, svd_b: tuple, F: np.ndarray) -> bool:
    """Certify's feasibility on the B route of `_route`'s values, with no
    end maps: for each of the probes f of `F` (n, m, p), the batch `_probes`
    draws, the explicit control g = -(I x B^+) f leaves the forcing
    f + B g = (I - B B^+) f, and one batched forward solve (`_response`) of
    the probes and of those forcings gives the target -L_F f and the
    residual, judged by `_feasible`.  Those forward solves pass `_dot_test`."""
    p = F.shape[-1]
    X = np.concatenate([F, F - svd_b[0] @ (_pinv(svd_b) @ F)], axis=-1)
    LX = _response(op, post, X).reshape(-1, 2 * p)
    _dot_test(op, post, X.reshape(-1, 2 * p), LX)
    return _feasible(LX[:, p:], -LX[:, :p])


def _solve_bound(op: SpectralOperator) -> float:
    """c with ||L_F||_2 <= 1/c where c > 0: L_F is a section of the padded
    solve, whose blocks' Hermitian parts are those of z M(z) plus that of A,
    so c = c_est - ||(A + A^*)/2||_F, each widened by `_ROUNDING`."""
    skew_defect = float(_norm2(op.A.A + op.A.A.conj().T)) / 2 * (1 + _ROUNDING)
    return op.certificate.c_est * (1 - _ROUNDING) - skew_defect


def _separated(op: SpectralOperator, post: int, svd_b: tuple, F: np.ndarray) -> bool:
    """True when one nu-adjoint datum that B^* misses and L_F^H sees
    decides certify's verdicts, all False, with no end map: the separating
    route of a supported problem with injection B, given as `_b_svd(B)`,
    horizon sample `post` and the probes `F` (n, m, p) that `_probes` drew.
    False where its bounds do not close, and the dense route decides.

    The datum y is `_datum`'s along B's last left singular vector u (a left
    null vector when B has fewer columns than rows), solved here, with its
    backward solution v = L_F^H y and beta = ||B^* v|| = ||L_G^H y||; no
    datum fits after T when only one sample follows it.
    One forward solve of the Gaussian along B's top left singular vector,
    sigma_max(B) times it being L_G x for x along the top right one, gives
    ell = 1e-10 ||L_G x|| / ||x||, at most the dense cutoff
    1e-10 sigma_max(L_G) (`DEFAULT_SVD_RTOL`), as a sound bound must be.
    A kept singular value of L_G exceeds that cutoff, so the dense truncated
    control of a target t has ||g|| < ||t|| / ell, and the kept left
    singular vectors U_r see ||U_r^* y|| <= beta / ell.  L_F is a section
    of the padded solve, so ||L_F||_2 <= 1/c for c of `_solve_bound`.
    Then, every norm widened by `_ROUNDING`:
      - excluded: the Douglas mass ||(I - U_r U_r^*) L_F||_2 is at least
        (||v|| - beta / (ell c)) / ||y||, and exceeds the inclusion rung
        1e-8 ||L_F||_2 when that exceeds 1e-8 / c;
      - infeasible: the residual L_G g + L_F f of any control g is at least
        (|<y, L_F f>| - beta ||g||) / ||y||, so a probe with
        (|<y, L_F f>| - beta ||L_F f|| / ell) / ||y|| at or above the
        feasibility rung relative to ||L_F f|| defeats the dense control.
    When beta = 0, as for B = 0, ell is not needed.  Both conditions need
    beta / ell < ||y||, checked before the probes' forward solves, and first
    against ell's own bound 1e-10 sigma_max(B) / c, before the forward solve
    behind ell; the inclusion is decided before the probes' solves too, and
    those solves pass `_dot_test`.
    """
    B, _, U, s, _ = svd_b
    if post == op.grid.n - 1:
        return False  # one post-horizon sample
    w, v = _datum(op, post, U[:, -1])
    y = w.phi[post:].reshape(-1)
    norm_y = float(_norm2(y)) * (1 + _ROUNDING)
    beta = float(_norm2(v.phi @ B.conj())) * (1 + _ROUNDING)
    c = _solve_bound(op)
    if not c > 0:
        return False
    blind = 0.0  # beta / ell, at least ||U_r^* y||
    if beta:
        if not beta < DEFAULT_SVD_RTOL * s[0] / c * norm_y:  # ell's own bound: no solve can close
            return False
        profile = _gaussian(op, post)
        reach = float(_norm2(_response(op, post, np.outer(profile, s[0] * U[:, 0]))))
        ell = (DEFAULT_SVD_RTOL * reach * (1 - _ROUNDING)
               / (float(_norm2(profile)) * (1 + _ROUNDING)))
        if not beta < ell * norm_y:
            return False
        blind = beta / ell
    if not (float(_norm2(v.phi)) * (1 - _ROUNDING) - blind / c) / norm_y > _INCLUSION_RTOL / c:
        return False
    p = F.shape[-1]
    LF = _response(op, post, F).reshape(-1, p)
    _dot_test(op, post, F.reshape(-1, p), LF)
    target = _norm2(LF, axis=0) * (1 + _ROUNDING)
    seen = np.abs(y.conj() @ LF) * (1 - _ROUNDING)
    return bool(np.any((seen - blind * target) / norm_y
                       >= FEASIBILITY_TOL * np.maximum(target, NORM_FLOOR)))


def _lg_route(op: SpectralOperator, post: int, svd_b: tuple, F: np.ndarray) -> Optional[tuple]:
    """(observability, solve): the L_G route of a supported problem with
    injection B, given as `_b_svd(B)`, horizon sample `post` and forcings
    F (n, m, p), or None where B keeps all m singular values above
    `DEFAULT_SVD_RTOL` sigma_max(B) or the route's bound does not close, and
    another route decides.  It takes B = e1, 0 or diag(1, ..., 1, 0), say.
    `solve` is `_least_norm`'s (g, residual, report, feasible) for the
    targets -L_F f, a column each: the dense truncated solve, with the
    dense cutoff and rank.

    Only L_G is built: 2^k L_G from `_b_svd`'s 2^k B (`_forward_blocks`),
    guarded on its n_post m x n q entries before any solve, and checked to
    1e-10 against direct solves of 2^k B g for two seeded probes g.  Those
    solves and the targets' are one batch (`_response`), which passes
    `_dot_test`.  The thin SVD of L_G (`_svd`, scaled back by 2^-k) serves
    the control; for B = 0, where 2^k L_G is zero, the SVD keeps nothing
    and none is taken.

    The verdict comes from one post-horizon datum: a seeded random y less
    its component along the kept left singular vectors U_r of L_G, solved
    backward, v = L_F^H y (`_observation`).  As
    L_F^H y = L_F^H (I - U_r U_r^*) y + L_F^H U_r U_r^* y and ||L_F||_2 <= 1/c
    (`_solve_bound`), the Douglas mass ||(I - U_r U_r^*) L_F||_2 is at least
    (||v|| - ||U_r^* y|| / c) / ||y||.  When that exceeds 1e-8 / c, itself at
    least the inclusion rung 1e-8 ||L_F||_2, every norm widened by
    `_ROUNDING`, the dense range inclusion is False: c_obs = inf, and y,
    unit over the post-horizon rows, is the witness that L_G^H misses to
    the cutoff and L_F^H sees.  No rung moves and no law is tested.
    """
    B, kb, _, s_b = svd_b[:4]
    c = _solve_bound(op)
    if _truncation(s_b, DEFAULT_SVD_RTOL)[2] == B.shape[0] or not c > 0:
        return None
    grid, m, q = op.grid, op.A.m, B.shape[1]
    n, n_post, p = grid.n, grid.n - post, F.shape[-1]
    _guard(n_post * m * n * q, "the end map L_G needs")
    L_G = _time_major(_forward_blocks(op, post, B))  # 2^kb L_G
    rng = np.random.default_rng(7)
    probes = rng.standard_normal((n, q, 2)) + 1j * rng.standard_normal((n, q, 2))
    X = np.concatenate([F, B @ probes], axis=-1)
    LX = _response(op, post, X).reshape(-1, p + 2)
    _dot_test(op, post, X.reshape(-1, p + 2), LX)
    _check_agrees(L_G @ probes.reshape(-1, 2), LX[:, p:],
                  "the end map L_G disagrees with a direct solve")

    # B = 0 leaves L_G zero: its SVD keeps nothing, and none is taken
    U, s, Vh, k = _svd(L_G) if s_b[0] else (L_G[:, :0], s_b[:0], L_G[:0], 0)
    Ur = U[:, :_truncation(s, DEFAULT_SVD_RTOL)[2]]
    y = rng.standard_normal(n_post * m) + 1j * rng.standard_normal(n_post * m)
    y -= Ur @ (Ur.conj().T @ y)
    v = _observation(op, post, y.reshape(n_post, m))
    blind = float(_norm2(Ur.conj().T @ y)) * (1 + _ROUNDING)  # ||U_r^* y||
    mass = (float(_norm2(v)) * (1 - _ROUNDING) - blind / c) / (float(_norm2(y)) * (1 + _ROUNDING))
    if not mass > _INCLUSION_RTOL / c:
        return None
    solve = _least_norm(L_G, (U, s, Vh, k + kb), -LX[:, :p], kb)
    witness = np.zeros((n, m), dtype=complex)
    witness[post:] = (y / _norm2(y)).reshape(n_post, m)
    return (_Observability(c_obs=math.inf, witness=WeightedSignal(grid, -op.nu, witness),
                           cutoff=solve[2].cutoff, method="lg-projected-datum"), solve)


@dataclass(frozen=True)
class _HumReport:
    """How `_hum_control` solved its Gramian equation: the conjugate-gradient
    steps it took and the relative residual it stopped at."""

    iterations: int
    relative_residual: float
    method: str = "hum-pcg"


def _hum_control(op: SpectralOperator, post: int, svd_b: tuple,
                 F: WeightedSignal) -> ControlResult:
    """`null_control` on the B route of `_route`'s values, with no end
    maps: the Hilbert Uniqueness Method (Lions 1988).  The least-norm g
    with L_G g = -L_F f is g = L_G^H z = (I x B^*) L_F^H z, the observation
    of the backward solution of one post-horizon datum z, and z solves the
    Gramian equation L_G L_G^H z = -L_F f, here by conjugate gradients.

    A Gramian product is a backward solve of z cut to t >= T
    (`_observation`), a product with B B^* and a forward solve read on the
    post-horizon rows R (`_response`).  The end maps are sections of the
    padded solve S = A^-1 of the operator's frequency blocks A, so the
    preconditioner is R A^H (I x (B B^*)^-1) A R^T (Strang 1986; Chan & Ng
    1996): two `block_apply` calls, (B B^*)^-1 from B's SVD.  CG stops at
    the algebraic rung, a relative residual of 1e-12, and raises `LinAlgError` when it
    has not reached it after as many steps as the Gramian has rows, where
    exact CG terminates.  Feasibility is judged by `_feasible` on the true
    residual L_F (f + B g) from one more forward solve.

    Range rule: f goes into range by `_into_range`, B is `_b_svd`'s
    2^k B, and the target -L_F f is scaled so its largest part lies in
    [1/2, 1), where no inner product of CG leaves the doubles; the control
    and the residual are scaled back exactly.  The forward solve of f
    passes `_dot_test`.
    """
    grid, (B, k) = op.grid, svd_b[:2]
    rows = slice(op.npad + post, op.npad + grid.n)
    # transposed, so that a flat array times them applies B B^* and
    # (B B^*)^-1 = (B^+)^* B^+ to each sample
    gram_b = (B @ B.conj().T).T
    pinv = _pinv(svd_b)
    inverse = (pinv.conj().T @ pinv).T

    def precondition(r):
        padded = np.zeros((op.pad_grid.n, op.A.m), dtype=complex)
        padded[rows] = r
        return block_apply(op.adjoint_blocks, block_apply(op.blocks, padded) @ inverse)[rows]

    f, kf = _into_range(F.phi)
    response = _response(op, post, f)
    _dot_test(op, post, f.reshape(-1, 1), response.reshape(-1, 1))
    j = _exponent(response)
    r = _ldexp(-response, j)  # the target, in [1/2, 1)
    scale = max(float(_norm2(r)), NORM_FLOOR)
    z, p, rho, iterations = np.zeros_like(r), None, 0.0, 0
    while (rel := _norm(r) / scale) > 1e-12:
        if iterations == r.size:
            raise np.linalg.LinAlgError(
                f"conjugate gradients on the HUM Gramian stalled at a relative residual "
                f"of {rel:.3e} after {iterations} iterations, its dimension")
        w = precondition(r)
        rho, last = np.vdot(r, w).real, rho
        p = w if p is None else w + (rho / last) * p
        q = _response(op, post, _observation(op, post, p) @ gram_b)
        curvature = np.vdot(p, q).real
        if not curvature > 0:
            raise np.linalg.LinAlgError(
                f"the HUM Gramian is not positive definite: <p, G p> = {curvature:.3e}")
        z += (rho / curvature) * p
        r -= (rho / curvature) * q
        iterations += 1

    g = _ldexp(_observation(op, post, z) @ B.conj(), -j)  # the control of f through 2^k B
    residual = _response(op, post, f + g @ B.T)
    feasible = _feasible(residual.reshape(-1), response.reshape(-1))
    with np.errstate(over="ignore"):
        G = _ldexp(g, k - kf)
    if not np.isfinite(G).all():
        raise np.linalg.LinAlgError("the least-norm control overflows")
    return ControlResult(
        G=WeightedSignal(grid, op.nu, G),
        terminal_residual=_ldexp(float(_norm2(residual, factor=math.sqrt(grid.dt))), -kf),
        feasible=feasible,
        regularization=_HumReport(iterations, rel),
    )


# ---------------------------------------------------------------------------
# Pointwise (initial-value) variant for laws M0 + z^{-1} M1.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointwiseSolution:
    """State trajectory with a pointwise readout at the horizon.

    `M0U_at_T` is the M0-weighted state at T (linear interpolation between
    flat samples), and `max_jump` tracks the largest jump of M0 (U - step U0)
    between adjacent samples (a continuity diagnostic that must shrink
    with dt).
    """

    U: WeightedSignal
    M0U_at_T: np.ndarray
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


def _stepped(base: EvoProblem, rhs_phi: np.ndarray) -> np.ndarray:
    """Flat samples of the causal response of `base`'s system to the flat
    forcing `rhs_phi`, by the trapezoidal stepper on `base`'s grid.

    The pointwise variant's one driver: the response to the initial state,
    to a control and to each impulse behind the response matrix is stepped
    here, and nowhere else."""
    grid, nu = base.grid, base.nu
    rhs = WeightedSignal(grid, nu, rhs_phi)
    return timestep_oracle(EvoProblem(nu, grid, base.law, base.A, rhs, "forward")).phi


def _drift(base: EvoProblem, U0: np.ndarray) -> np.ndarray:
    """Flat samples of step (M1 + A) U0, the forcing an initial state U0
    puts on the system: U = V + step U0 when V is the causal response to
    B G minus it."""
    grid = base.grid
    M1 = _split_law(base.law)[1]
    return (_step_indicator_weights(grid)[:, None] * np.exp(-base.nu * grid.times)[:, None]
            * ((M1 + base.A.A) @ U0)[None, :])


def _at_T(grid: TimeGrid, nu: float, T: float, phi: np.ndarray) -> np.ndarray:
    """The readout at T of flat samples `phi`, time on the first axis:
    e^{nu T} times the linear interpolation between the samples around T
    (the last two when T is the last sample)."""
    jlo = min(grid.index_below(T), grid.n - 2)
    theta = (T - (grid.t_min + jlo * grid.dt)) / grid.dt
    return math.exp(nu * T) * ((1.0 - theta) * phi[jlo] + theta * phi[jlo + 1])


def pointwise_solve(cp: ControlProblem, G: Optional[WeightedSignal] = None) -> PointwiseSolution:
    """Initial-value solve for laws M0 + z^{-1} M1.

    Steps V, the causal response to B G - step (M1 + A) U0, and returns
    U = V + step U0 together with the M0-weighted state read out at the
    horizon.
    """
    if cp.variant != "pointwise":
        raise PreconditionError("pointwise_solve needs the pointwise variant")
    base = cp.base
    grid, nu = base.grid, base.nu
    M0 = base.law.coeffs[0]

    rhs_phi = -_drift(base, cp.U0)
    if G is not None:
        if G.grid != grid or G.nu != nu or G.m != cp.q:
            raise PreconditionError("G must live on the problem grid at weight nu")
        with np.errstate(over="ignore", invalid="ignore"):  # WeightedSignal refuses inf
            rhs_phi = rhs_phi + G.phi @ cp.B.T
    V = _stepped(base, rhs_phi)

    flat_weight = np.exp(-nu * grid.times)
    step_u0 = _step_indicator_mask(grid)[:, None] * flat_weight[:, None] * cp.U0[None, :]
    U = WeightedSignal(grid, nu, V + step_u0)
    m0u = M0 @ (_at_T(grid, nu, cp.T, V) + cp.U0)

    m0v_vals = (V * np.exp(nu * grid.times)[:, None]) @ M0.T
    jumps = np.abs(np.diff(m0v_vals, axis=0)).max() if grid.n > 1 else 0.0
    return PointwiseSolution(U=U, M0U_at_T=m0u, max_jump=float(jumps))


def _pointwise_response_matrix(cp: ControlProblem) -> tuple:
    """Columns of G -> M0 (response to B G)(T), exploiting shift invariance.

    One stepper run per control component gives the response to an impulse at
    the first nonnegative sample j0; responses to later impulses are index
    shifts of it.  Unknowns are the flat G samples with t_j >= 0 (the support
    constraint on admissible controls), time-major.
    """
    base = cp.base
    grid, q = base.grid, cp.q
    j0 = int(np.argmax(_step_indicator_mask(grid)))  # a sample exists: 0 < T is on the grid
    active = np.arange(j0, grid.n)

    impulses = np.zeros((q, grid.n, q), dtype=complex)
    impulses[np.arange(q), j0, np.arange(q)] = 1.0
    kernels = np.stack([_stepped(base, phi @ cp.B.T) for phi in impulses], axis=1)
    # Row k of `responses` (n, q, active, m) holds the response at sample k to
    # an impulse at each active sample j0 + i: kernel sample k - i, zero for
    # k < i.  A window view of the kernels zero-extended in front, so only the
    # two rows the readout takes are read.
    padded = np.concatenate([np.zeros((len(active) - 1,) + kernels.shape[1:], dtype=complex),
                             kernels])
    responses = np.moveaxis(sliding_window_view(padded, len(active), axis=0)[..., ::-1], -1, 2)
    readout = _at_T(grid, base.nu, cp.T, responses) @ base.law.coeffs[0].T  # (q, active, m)
    Phi = readout.transpose(2, 1, 0).reshape(base.A.m, len(active) * q)
    return Phi, active


def _pointwise_target(base: EvoProblem, T: float, U0: np.ndarray) -> np.ndarray:
    """b = M0 (response to step (M1+A) U0)(T) - M0 U0; the control must
    produce exactly this readout for the closed loop from U0 to vanish at T."""
    M0 = base.law.coeffs[0]
    return M0 @ _at_T(base.grid, base.nu, T, _stepped(base, _drift(base, U0))) - M0 @ U0


def _readout_lstsq(Phi: np.ndarray, b: np.ndarray, rtol: float) -> tuple:
    """The pointwise variant's one solve: (g, Phi g - b, report, SVD) for the
    least-norm g of Phi g = b through the SVD of Phi under the range rule."""
    svd = _svd(Phi)
    g, reg = _truncated_lstsq(svd, b, rtol)
    return g, Phi @ g - b, reg, svd


@one_blas_thread
def pointwise_null_control(cp: ControlProblem,
                           rtol: float = DEFAULT_SVD_RTOL,
                           feasibility_tol: float = POINTWISE_FEASIBILITY_TOL) -> ControlResult:
    """Least-norm control steering the M0-weighted state to zero at T.

    Admissible controls are supported on t >= 0.  Feasibility means the
    m-dimensional readout equation Phi g = b is consistent at the SVD cutoff;
    the returned terminal residual is the closed-loop ||M0 U(T)|| from an
    actual re-solve with the synthesised control.
    """
    if cp.variant != "pointwise":
        raise PreconditionError("pointwise_null_control needs the pointwise variant")
    base, q = cp.base, cp.q
    grid, nu = base.grid, base.nu
    Phi, active = _pointwise_response_matrix(cp)
    b = _pointwise_target(base, cp.T, cp.U0)

    # Linearity probe: the assembled response must match a direct solve.  The
    # probe takes B's power of two from the range rule, so that B g stays finite.
    rng = np.random.default_rng(11)
    probe = np.zeros((grid.n, q), dtype=complex)
    probe[active] = _ldexp(rng.standard_normal((len(active), q))
                           + 1j * rng.standard_normal((len(active), q)), _into_range(cp.B)[1])
    direct = base.law.coeffs[0] @ _at_T(grid, nu, cp.T, _stepped(base, probe @ cp.B.T))
    via = Phi @ probe[active].reshape(-1)
    if _norm2(via - direct) > 1e-10 * max(_norm2(direct), 1.0):
        raise ConsistencyError("pointwise response assembly disagrees with a direct solve")

    g_active, misfit, reg, _ = _readout_lstsq(Phi, b, rtol)
    feasible = float(_norm2(misfit)) < feasibility_tol * (1.0 + _norm(b))

    phi_G = np.zeros((grid.n, q), dtype=complex)
    phi_G[active] = g_active.reshape(len(active), q)
    G = WeightedSignal(grid, nu, phi_G)
    closed_loop = pointwise_solve(cp, G)
    return ControlResult(
        G=G,
        terminal_residual=float(_norm2(closed_loop.M0U_at_T)),
        feasible=feasible,
        regularization=reg,
    )


@one_blas_thread
def pointwise_duality_check(cp: ControlProblem) -> dict:
    """Feasibility for a basis of initial states against the range inclusion
    of the assembled pair; the two verdicts must agree.

    The m basis targets are solved as one right-hand side of m columns,
    through the SVD of Phi under the range rule, which the Douglas check
    shares.
    """
    if cp.variant != "pointwise":
        raise PreconditionError("pointwise_duality_check needs the pointwise variant")
    base = cp.base
    Phi = _pointwise_response_matrix(cp)[0]
    Psi = np.stack([_pointwise_target(base, cp.T, U0)
                    for U0 in np.eye(base.A.m, dtype=complex)], axis=1)
    _, misfit, _, svd_phi = _readout_lstsq(Phi, Psi, DEFAULT_SVD_RTOL)
    feasible = bool(np.all(_norm2(misfit, axis=0) < POINTWISE_FEASIBILITY_TOL
                           * (1.0 + _norm2(Psi, axis=0))))
    report = _douglas(Psi, svd_phi)
    return {
        "feasible_for_basis": feasible,
        "range_included": report.included,
        "agree": feasible == report.included,
        "douglas": report,
    }

# ---------------------------------------------------------------------------
# The `control` command: where each variant and route is chosen.
# ---------------------------------------------------------------------------


def _route(cp: ControlProblem, pad_fraction: float) -> tuple:
    """(op, post, svd_b) of a supported problem: its one operator, with its
    certificate read first, so that its blocks reuse the law's evaluation,
    its horizon sample and `_b_svd(B)`.  The routes read these values and
    rebuild none of them; no datum is solved here.  No size guard runs
    here: the B route assembles no end map, the L_G route guards L_G, and
    `_assemble` the dense route."""
    base = cp.base
    op = SpectralOperator(base.law, base.A, base.nu, base.grid, pad_fraction)
    op.certificate
    return op, base.grid.index_at_or_after(cp.T), _b_svd(cp.B)


def _certify(cp: ControlProblem, pad_fraction: float, rng: np.random.Generator) -> dict:
    """The verdicts of `control --certify-duality`, which agree by duality.

    Pointwise: feasibility for a basis of initial states and the range
    inclusion of `pointwise_duality_check`, after the law's coercivity on
    the stepper's unpadded grid.  Supported: feasibility for a spanning set
    of forcings, the probes `_probes` draws once from `rng`, range
    inclusion, and finite observability, which is that inclusion
    (`ObservabilityEstimate.finite`).  Four routes, tried in this order,
    decide them on the same probes: the B route, for B that passes
    `_well_conditioned`, where B's SVD alone decides the inclusion and
    `_b_feasible` the feasibility, with no datum; the separating route
    (`_separated`), where one nu-adjoint datum that B^* misses makes all
    three False; for B without full row rank the L_G route (`_lg_route`),
    where a datum that L_G^H misses excludes the inclusion and the probes'
    truncated solves on L_G decide the feasibility.  None assembles both
    end maps.  Elsewhere `_duality_verdicts` decides on the assembled maps.
    """
    if cp.variant == "pointwise":
        coercivity(cp.base.law, cp.base.nu, cp.base.grid)
        check = pointwise_duality_check(cp)
        return {key: check[key] for key in ("feasible_for_basis", "range_included")}
    op, post, svd_b = _route(cp, pad_fraction)
    F = _probes(op, rng)
    if _well_conditioned(svd_b):
        feasible, included = _b_feasible(op, post, svd_b, F), True
    elif _separated(op, post, svd_b, F):
        feasible = included = False
    elif (decided := _lg_route(op, post, svd_b, F)) is not None:
        feasible, included = decided[1][3], False
    else:
        feasible, included = _duality_verdicts(_assemble(cp, op), F)
    return {"feasible_for_spanning_set": feasible, "range_included": included,
            "observability_finite": included}


def _synthesize(cp: ControlProblem, pad_fraction: float) -> tuple:
    """(certificate, control, observability) of the `control` command.

    Pointwise: the coercivity certificate on the stepper's unpadded grid,
    `pointwise_null_control`, and no observability.  Supported: the
    operator's certificate and, on the B route, the HUM control with the
    route as observability, with no end maps; for B without full row rank,
    where its bound closes, the L_G route's truncated control and excluded
    observability, from L_G alone.  Elsewhere `null_control` and
    `observability_constant` on the assembled maps.  Either way, a
    `cutoff` is the control's, from the one SVD of L_G.
    """
    if cp.variant == "pointwise":
        cert = coercivity(cp.base.law, cp.base.nu, cp.base.grid)
        return cert, pointwise_null_control(cp), None
    op, post, svd_b = _route(cp, pad_fraction)
    if (route := _b_route(op, post, svd_b)) is not None:
        return op.certificate, _hum_control(op, post, svd_b, cp.F), route
    decided = _lg_route(op, post, svd_b, cp.F.phi[..., None])
    if decided is not None:
        obs, solve = decided
        return op.certificate, _control_result(op, solve), obs
    maps = _assemble(cp, op)
    res, obs = null_control(cp, maps), observability_constant(cp, maps)
    return op.certificate, res, obs
