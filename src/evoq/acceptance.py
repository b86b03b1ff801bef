"""Acceptance suite: ten property-based criteria on desk-scale instances.

Each criterion function returns a `CriterionResult` with the measured
quantities it judged; `run_acceptance` executes all of them.  Tolerances
are the rungs of the library's one ladder, `config.DEFAULT_TOLERANCES`:
1e-10 pairing, 1e-8 conjugation on band-limited data, 1e-6 / 1e-4 for
cross-method and cross-weight comparisons, with cross-method bounds widened
to the measured wrap-around where the periodic spectral path is one of the
two sides, and the truncated-SVD cutoff and pointwise feasibility rungs of
`control`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES
from .control import (
    DEFAULT_SVD_RTOL,
    POINTWISE_FEASIBILITY_TOL,
    ControlProblem,
    assemble_endmaps,
    douglas_check,
    observability_constant,
    pointwise_null_control,
    pointwise_solve,
    _b_svd,
    _bracket,
    _duality_verdicts,
    _pointwise_response_matrix,
    _pointwise_target,
    _probes,
)
from .instances import (
    Instance,
    bundled_instances,
    make_heat_instance,
    make_maxwell_instance,
    make_wave_instance,
)
from .material import finite_sum_law
from .signals import (
    NORM_FLOOR,
    TimeGrid,
    WeightedSignal,
    zero_signal,
)
from .solver import (
    CROSS_METHOD_TOL,
    EvoProblem,
    SpectralOperator,
    _pairing_gap,
    causality_check,
    nu_independence_check,
    solve_forward,
    time_reversal_conjugation_check,
    timestep_oracle,
)
from .spatial import check_skew
from .waveforms import band_limited_signal, bump_signal, random_signal, smooth_bump

__all__ = ["CriterionResult", "run_acceptance", "ALL_CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)


def criterion_1_norm_bound() -> CriterionResult:
    """Solution-operator norm below 1/c on random data, both directions."""
    count = 100
    rng = np.random.default_rng(101)
    worst = 0.0
    details = {}
    for inst in bundled_instances(n=512):
        op = SpectralOperator(inst.law, inst.A, inst.nu, inst.grid, inst.pad_fraction)
        cert = op.certificate
        for direction in ("forward", "adjoint"):
            phis = rng.standard_normal((inst.grid.n, inst.m, count)) \
                + 1j * rng.standard_normal((inst.grid.n, inst.m, count))
            sols = op.padded_solve(phis, direction == "forward")
            # numpy's reductions sum in memory order, so the recorded last
            # digits come only from batch-major memory
            sols = np.ascontiguousarray(sols.transpose(0, 2, 1)).transpose(0, 2, 1)
            ratios = np.linalg.norm(sols, axis=(0, 1)) / np.linalg.norm(phis, axis=(0, 1))
            scaled = float(np.max(ratios)) * cert.c_est
            details[f"{inst.name}_{direction}_max_ratio_times_c"] = scaled
            worst = max(worst, scaled)
    return CriterionResult(1, "norm bound s <= 1/c (forward and adjoint)",
                           worst <= 1.05, {"worst_ratio_times_c": worst, **details})


def criterion_2_causality_amnesia() -> CriterionResult:
    """Spectral leakage within the reported wrap-around and exact support
    preservation on the stepping path, both directions, on one operator."""
    measured = {}
    ok = True
    for inst in bundled_instances(n=512):
        op = SpectralOperator(inst.law, inst.A, inst.nu, inst.grid, inst.pad_fraction)
        rhs, back = (bump_signal(inst.grid, weight, inst.m, component=0, center=-2.0,
                                 width=1.0) for weight in (inst.nu, -inst.nu))
        rep = causality_check(op, rhs, back)
        ok &= rep.pop("passed")
        for key, value in rep.items():
            # this criterion's keys name the wrap-around without "_tolerance"
            measured[f"{inst.name}_{key.removesuffix('_tolerance')}"] = value
    return CriterionResult(2, "causality (forward) and amnesia (adjoint)",
                           bool(ok), measured)


def criterion_3_duality_pairing() -> CriterionResult:
    """<S f, g> = <f, S* g> to 1e-10 relative over random pairs."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for inst in bundled_instances(n=512):
        op = SpectralOperator(inst.law, inst.A, inst.nu, inst.grid, inst.pad_fraction)
        pairs = ((random_signal(inst.grid, inst.nu, inst.m, rng),
                  random_signal(inst.grid, -inst.nu, inst.m, rng)) for _ in range(100))
        worst = max(worst, _pairing_gap(pairs, op.solutions))
    return CriterionResult(3, "duality pairing of forward and adjoint solves",
                           worst <= DEFAULT_TOLERANCES["pairing"],
                           {"max_relative_gap": worst})


def criterion_4_adjoint_system_formula() -> CriterionResult:
    """The assembled backward operator is the pairing adjoint of the
    assembled forward operator on smooth signals."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for inst in bundled_instances(n=512):
        op = SpectralOperator(inst.law, inst.A, inst.nu, inst.grid, 0.0)
        pairs = ((band_limited_signal(inst.grid, inst.nu, inst.m, rng),
                  band_limited_signal(inst.grid, -inst.nu, inst.m, rng)) for _ in range(10))
        worst = max(worst, _pairing_gap(pairs, lambda batch: [op.apply(f) for f in batch]))
    return CriterionResult(4, "backward system is the pairing adjoint",
                           worst <= DEFAULT_TOLERANCES["pairing"],
                           {"max_relative_gap": worst})


def criterion_5_time_reversal() -> CriterionResult:
    """Reversal conjugates the backward system into a forward one."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for inst in bundled_instances(n=512):
        signals = [band_limited_signal(inst.grid, -inst.nu, inst.m, rng)
                   for _ in range(5)]
        worst = max(worst, time_reversal_conjugation_check(inst.law, inst.A, signals))
    return CriterionResult(5, "time-reversal conjugation of the backward system",
                           worst <= DEFAULT_TOLERANCES["conjugation"],
                           {"max_discrepancy": worst})


def criterion_6_nu_independence() -> CriterionResult:
    """Reconstructed solutions agree between weights 1 and 2 on an interior
    window, both directions."""
    worst = 0.0
    measured = {}
    for inst in bundled_instances(n=512):
        def fn(t, m=inst.m):
            values = np.zeros((len(t), m))
            values[:, 0] = smooth_bump(t, 0.0, 1.0)
            return values

        diffs = nu_independence_check(inst.law, inst.A, fn, inst.grid, 1.0, 2.0,
                                      pad_fraction=inst.pad_fraction)
        for direction, diff in diffs.items():
            measured[f"{inst.name}_{direction}"] = diff
            worst = max(worst, diff)
    return CriterionResult(6, "eventual independence of the weight",
                           worst <= DEFAULT_TOLERANCES["cross_nu"],
                           {"worst_sup_rel_diff": worst, **measured})


def criterion_7_douglas() -> CriterionResult:
    """Four-way agreement of the range-inclusion conditions on constructed
    ground truth, with factor recovery."""
    rng = np.random.default_rng(707)
    pairs = 50
    agreements = 0
    worst_factor = 0.0
    for trial in range(pairs):
        p, r, s = 10, 4, 6
        B = rng.standard_normal((p, s)) + 1j * rng.standard_normal((p, s))
        R = rng.standard_normal((s, r)) + 1j * rng.standard_normal((s, r))
        A = B @ R
        should_include = trial % 2 == 0
        if not should_include:
            u = np.linalg.svd(B, full_matrices=True)[0][:, -1]
            w = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            A = A + np.outer(u, w)
        rep = douglas_check(A, B, rng=rng)
        if rep.included == should_include and len(set(rep.conditions.values())) == 1:
            agreements += 1
        if rep.included:
            worst_factor = max(worst_factor,
                               float(rep.factor_residual / max(np.linalg.norm(A, 2), 1.0)))
    ok = agreements == pairs and worst_factor <= DEFAULT_SVD_RTOL
    return CriterionResult(7, "range-inclusion conditions agree with ground truth",
                           bool(ok), {"agreements": agreements, "pairs": pairs,
                                      "worst_factor_residual": worst_factor})


def _control_instances():
    """Supported-variant control instances with decisive verdicts."""
    out = []
    for maker in (make_heat_instance, make_wave_instance, make_maxwell_instance):
        inst = maker(k=2, n=96, t_half=4.0)
        m = inst.m
        single = np.zeros((m, 1))
        single[0, 0] = 1.0
        out.append((inst, np.eye(m), f"{inst.name}/B=I"))
        out.append((inst, np.zeros((m, 1)), f"{inst.name}/B=0"))
        out.append((inst, single, f"{inst.name}/B=cell0"))
    rot = Instance("rotation", 1.0, TimeGrid(-4.0, 4.0, 128),
                   finite_sum_law([np.eye(2)]),
                   check_skew(np.array([[0.0, -1.0], [1.0, 0.0]])))
    out.append((rot, np.array([[1.0], [0.0]]), "rotation/B=e1"))
    out.append((rot, np.array([[1.0, 0.3], [0.0, 0.5]]), "rotation/B=tri"))
    scalar = Instance("scalar", 1.0, TimeGrid(-4.0, 4.0, 128),
                      finite_sum_law([np.eye(1)]), check_skew(np.zeros((1, 1))))
    out.append((scalar, np.array([[2.0]]), "scalar/B=2"))
    return out


def criterion_8_control_duality() -> CriterionResult:
    """Agreement of feasibility, range inclusion and finite observability;
    where finite, c_obs between the two ends of the B route's `_bracket`
    to the algebraic rung.  Finite observability is the range inclusion's
    verdict (`ObservabilityEstimate.finite`), so two of the three verdicts
    are independent."""
    rng = np.random.default_rng(808)
    tol = DEFAULT_TOLERANCES["algebraic"]
    measured = {}
    ok = True
    for inst, B, label in _control_instances():
        rhs = random_signal(inst.grid, inst.nu, inst.m, rng)
        base = EvoProblem(inst.nu, inst.grid, inst.law, inst.A, rhs, "forward")
        cp = ControlProblem(base=base, B=B, T=1.0)
        maps = assemble_endmaps(cp, inst.pad_fraction)

        feasible, included = _duality_verdicts(maps, _probes(maps.op, rng))
        obs = observability_constant(cp, maps)
        verdicts = {feasible, included, math.isfinite(obs.c_obs)}
        agree = len(verdicts) == 1
        measured[label] = {
            "feasible": feasible,
            "included": included,
            "c_obs": obs.c_obs if math.isfinite(obs.c_obs) else "inf",
            "agree": agree,
        }
        ok &= agree

        if math.isfinite(obs.c_obs):
            lower, upper, *_ = _bracket(maps.op, maps.post_start, _b_svd(B))
            measured[label].update(bracket_lower=lower, bracket_upper=upper)
            ok &= lower <= obs.c_obs * (1 + tol)
            ok &= obs.c_obs <= upper * (1 + tol)
            ok &= upper <= lower * (1 + tol)
    return CriterionResult(8, "null-control duality (three-way agreement)",
                           bool(ok), measured)


def _scalar_decay_problem(n: int):
    lam = 1.0
    law = finite_sum_law([np.eye(1), lam * np.eye(1)])
    A = check_skew(np.zeros((1, 1)))
    grid = TimeGrid(-2.0, 6.0, n)
    base = EvoProblem(1.0, grid, law, A, zero_signal(grid, 1.0, 1), "forward")
    return ControlProblem(base=base, B=np.eye(1), T=2.0, variant="pointwise",
                          U0=np.array([1.0]))


def _dirac_vs_regular_gap(n: int) -> float:
    """L2 gap between the one-cell impulse route and the shifted-state route
    for the free initial-value problem, measured after the jump cell.

    At the jump sample itself the one-cell quadrature of the point mass
    cannot converge pointwise (the state halves across the cell), so the
    convergence rate of the two formulations is read off the trajectory
    strictly after it.
    """
    cp = _scalar_decay_problem(n)
    base = cp.base
    grid, nu = base.grid, base.nu
    regular = pointwise_solve(cp, None).U

    M0 = base.law.coeffs[0]
    j0 = grid.index_at_or_after(0.0)
    phi = np.zeros((grid.n, 1), dtype=complex)
    phi[j0] = (M0 @ cp.U0) / grid.dt
    dirac = timestep_oracle(EvoProblem(nu, grid, base.law, base.A,
                                       WeightedSignal(grid, nu, phi), "forward"))
    d = dirac.phi[j0 + 1:] - regular.phi[j0 + 1:]
    ref = max(float(np.linalg.norm(regular.phi[j0 + 1:])), NORM_FLOOR)
    return float(np.linalg.norm(d)) / ref


def criterion_9_pointwise_control() -> CriterionResult:
    """Closed-loop pointwise null control, the first-order convergence of the
    impulse formulation towards the shifted-state one, and the scalar
    control's norm against the closed-form least norm to the algebraic rung."""
    measured = {}
    ok = True

    cp = _scalar_decay_problem(1024)
    res = pointwise_null_control(cp)
    bound = POINTWISE_FEASIBILITY_TOL * (1.0 + float(np.linalg.norm(cp.U0)))
    measured["scalar_closed_loop"] = res.terminal_residual
    ok &= res.feasible and res.terminal_residual < bound

    heat = make_heat_instance(k=3, n=1024, t_half=4.0)
    m = heat.m
    B = np.zeros((m, 1))
    B[1, 0] = 1.0
    rng = np.random.default_rng(909)
    U0 = np.zeros(m)
    U0[:4] = rng.standard_normal(4)
    base = EvoProblem(heat.nu, heat.grid, heat.law, heat.A,
                      zero_signal(heat.grid, heat.nu, m), "forward")
    cp_heat = ControlProblem(base=base, B=B, T=2.0, variant="pointwise", U0=U0)
    res_heat = pointwise_null_control(cp_heat)
    bound_heat = POINTWISE_FEASIBILITY_TOL * (1.0 + float(np.linalg.norm(U0)))
    measured["heat_closed_loop"] = res_heat.terminal_residual
    ok &= res_heat.feasible and res_heat.terminal_residual < bound_heat

    gaps = [_dirac_vs_regular_gap(n) for n in (512, 1024, 2048)]
    orders = [math.log2(gaps[i] / gaps[i + 1]) for i in range(len(gaps) - 1)]
    measured["dirac_gaps"] = gaps
    measured["dirac_orders"] = orders
    ok &= min(orders) >= 0.9

    # the scalar problem has one readout equation Phi g = b, Phi a single
    # row, so its least norm is |b| / ||Phi||_2
    Phi = _pointwise_response_matrix(cp)[0]
    b = _pointwise_target(cp.base, cp.T, cp.U0)
    least = float(np.abs(b[0])) / float(np.linalg.norm(Phi))
    gap = abs(float(np.linalg.norm(res.G.phi)) / least - 1.0)
    measured["scalar_min_norm_gap"] = gap
    ok &= gap <= DEFAULT_TOLERANCES["algebraic"]
    return CriterionResult(9, "pointwise null control", bool(ok), measured)


def criterion_10_oracle_equivalence() -> CriterionResult:
    """Spectral solve against the causal stepper on all finite-sum instances,
    and against the closed-form convolution oracle on the rotation system."""
    measured = {}
    ok = True
    for inst in bundled_instances(n=4096):
        rhs = bump_signal(inst.grid, inst.nu, inst.m, component=0,
                          center=4.0, width=1.5)
        prob = EvoProblem(inst.nu, inst.grid, inst.law, inst.A, rhs, "forward")
        rep = solve_forward(prob, inst.pad_fraction)
        u_step = timestep_oracle(prob)
        diff = (u_step - rep.solution).norm / max(rep.solution.norm, NORM_FLOOR)
        tol = max(CROSS_METHOD_TOL, rep.wraparound_tolerance)
        measured[f"{inst.name}_stepper_diff"] = diff
        measured[f"{inst.name}_tolerance"] = tol
        ok &= diff < tol

    diff_rot = _rotation_duhamel_gap(2048)
    measured["rotation_duhamel_diff"] = diff_rot
    ok &= diff_rot < CROSS_METHOD_TOL
    return CriterionResult(10, "spectral path against independent oracles",
                           bool(ok), measured)


def _rotation_duhamel_gap(n: int) -> float:
    """Spectral solve of the rotation system against composite-Simpson
    quadrature of the closed-form convolution kernel."""
    nu = 1.0
    grid = TimeGrid(-8.0, 8.0, n)
    law = finite_sum_law([np.eye(2)])
    A = check_skew(np.array([[0.0, -1.0], [1.0, 0.0]]))
    center, width = -4.0, 1.0
    rhs = bump_signal(grid, nu, 2, component=0, center=center, width=width)
    prob = EvoProblem(nu, grid, law, A, rhs, "forward")
    u = solve_forward(prob).solution

    refine = 4
    n_ref = grid.n * refine
    h = grid.dt / refine
    s = grid.t_min + h * np.arange(n_ref)
    psi = np.zeros((n_ref, 2))
    psi[:, 0] = np.exp(-nu * s) * smooth_bump(s, center, width)

    oracle = np.zeros((grid.n, 2), dtype=complex)
    for j in range(grid.n):
        tj = grid.times[j]
        k = j * refine
        if k < 2:
            continue
        tau = tj - s[:k + 1]
        decay = np.exp(-nu * tau)
        c, sn = np.cos(tau), np.sin(tau)
        integ0 = decay * (c[: len(tau)] * psi[:k + 1, 0] + sn * psi[:k + 1, 1])
        integ1 = decay * (-sn * psi[:k + 1, 0] + c * psi[:k + 1, 1])
        oracle[j, 0] = _simpson(integ0, h)
        oracle[j, 1] = _simpson(integ1, h)
    gap = np.sqrt(grid.dt) * np.linalg.norm(oracle - u.phi)
    return float(gap / max(u.norm, NORM_FLOOR))


def _simpson(y: np.ndarray, dx: float) -> float:
    """Composite Simpson rule on an odd number of equally spaced samples,
    summed in the order of `scipy.integrate.simpson`."""
    return np.sum(y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2]) * (dx / 3.0)


ALL_CRITERIA = [
    criterion_1_norm_bound,
    criterion_2_causality_amnesia,
    criterion_3_duality_pairing,
    criterion_4_adjoint_system_formula,
    criterion_5_time_reversal,
    criterion_6_nu_independence,
    criterion_7_douglas,
    criterion_8_control_duality,
    criterion_9_pointwise_control,
    criterion_10_oracle_equivalence,
]


def run_acceptance() -> list:
    """Run all criteria and return their results in order."""
    return [crit() for crit in ALL_CRITERIA]
