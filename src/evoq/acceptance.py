"""Acceptance suite: ten property-based criteria on desk-scale instances.

Each criterion function returns a `CriterionResult` with the measured
quantities it judged; `run_acceptance` executes all of them.  Tolerances
follow the ladder used across the library: 1e-12 algebraic, 1e-10 pairing,
1e-8 conjugation on band-limited data, 1e-6 / 1e-4 for cross-method and
cross-weight comparisons, with cross-method bounds widened to the measured
wrap-around where the periodic spectral path is one of the two sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson

from .control import (
    ControlProblem,
    assemble_endmaps,
    douglas_check,
    pointwise_null_control,
    pointwise_solve,
    random_search_lower_bound,
    _duality_verdicts,
    _pointwise_response_matrix,
    _pointwise_target,
    _truncated_lstsq,
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
    nu_product,
    zero_signal,
)
from .solver import (
    EvoProblem,
    SpectralOperator,
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


def _batched_solve(op: SpectralOperator, direction: str, phis: np.ndarray) -> np.ndarray:
    """Padded flat solutions (N, m, batch) for a batch (n, m, batch) of
    right-hand sides; used where per-call reports are not needed."""
    sols = op.padded_solve(phis, direction == "forward")[0]
    # numpy's reductions sum in memory order, so criteria 1 and 3 get their
    # recorded last digits only from batch-major memory.
    return np.ascontiguousarray(sols.transpose(0, 2, 1)).transpose(0, 2, 1)


def criterion_1_norm_bound(fast: bool = False) -> CriterionResult:
    """Solution-operator norm below 1/c on random data, both directions."""
    count = 20 if fast else 100
    rng = np.random.default_rng(101)
    worst = 0.0
    details = {}
    for inst in bundled_instances(n=512):
        op = SpectralOperator(inst.law, inst.A, inst.nu, inst.grid, inst.pad_fraction)
        cert = op.certificate
        for direction in ("forward", "adjoint"):
            phis = rng.standard_normal((inst.grid.n, inst.m, count)) \
                + 1j * rng.standard_normal((inst.grid.n, inst.m, count))
            sols = _batched_solve(op, direction, phis)
            ratios = np.linalg.norm(sols, axis=(0, 1)) / np.linalg.norm(phis, axis=(0, 1))
            scaled = float(np.max(ratios)) * cert.c_est
            details[f"{inst.name}_{direction}_max_ratio_times_c"] = scaled
            worst = max(worst, scaled)
    return CriterionResult(1, "norm bound s <= 1/c (forward and adjoint)",
                           worst <= 1.05, {"worst_ratio_times_c": worst, **details})


def criterion_2_causality_amnesia(fast: bool = False) -> CriterionResult:
    """Spectral leakage within the reported wrap-around and exact support
    preservation on the stepping path, both directions, on one operator."""
    measured = {}
    ok = True
    for inst in bundled_instances(n=512):
        op = SpectralOperator(inst.law, inst.A, inst.nu, inst.grid, inst.pad_fraction)
        rhs, back = (bump_signal(inst.grid, weight, inst.m, component=0, center=-2.0,
                                 width=1.0) for weight in (inst.nu, -inst.nu))
        rep = causality_check(op, rhs, back, 1e-6)
        ok &= rep.pop("passed")
        for key, value in rep.items():
            # this criterion's keys name the wrap-around without "_tolerance"
            measured[f"{inst.name}_{key.removesuffix('_tolerance')}"] = value
    return CriterionResult(2, "causality (forward) and amnesia (adjoint)",
                           bool(ok), measured)


def criterion_3_duality_pairing(fast: bool = False) -> CriterionResult:
    """<S f, g> = <f, S* g> to 1e-10 relative over random pairs."""
    count = 20 if fast else 100
    rng = np.random.default_rng(303)
    worst = 0.0
    for inst in bundled_instances(n=512):
        fs = rng.standard_normal((inst.grid.n, inst.m, count)) \
            + 1j * rng.standard_normal((inst.grid.n, inst.m, count))
        gs = rng.standard_normal((inst.grid.n, inst.m, count)) \
            + 1j * rng.standard_normal((inst.grid.n, inst.m, count))
        op = SpectralOperator(inst.law, inst.A, inst.nu, inst.grid, inst.pad_fraction)
        npad, n = op.npad, inst.grid.n
        sf = _batched_solve(op, "forward", fs)[npad:npad + n]
        sg = _batched_solve(op, "adjoint", gs)[npad:npad + n]
        dt = inst.grid.dt
        lhs = dt * np.einsum("jmb,jmb->b", np.conj(sf), gs)
        rhs = dt * np.einsum("jmb,jmb->b", np.conj(fs), sg)
        norms = dt * np.linalg.norm(fs, axis=(0, 1)) * np.linalg.norm(gs, axis=(0, 1))
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / norms)))
    return CriterionResult(3, "duality pairing of forward and adjoint solves",
                           worst <= 1e-10, {"max_relative_gap": worst})


def criterion_4_adjoint_system_formula(fast: bool = False) -> CriterionResult:
    """The assembled backward operator is the pairing adjoint of the
    assembled forward operator on smooth signals."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for inst in bundled_instances(n=512):
        op = SpectralOperator(inst.law, inst.A, inst.nu, inst.grid, 0.0)
        for _ in range(3 if fast else 10):
            f = band_limited_signal(inst.grid, inst.nu, inst.m, rng)
            g = band_limited_signal(inst.grid, -inst.nu, inst.m, rng)
            lhs = nu_product(op.apply(f), g)
            rhs = nu_product(f, op.apply(g))
            worst = max(worst, abs(lhs - rhs) / (f.norm * g.norm))
    return CriterionResult(4, "backward system is the pairing adjoint",
                           worst <= 1e-10, {"max_relative_gap": worst})


def criterion_5_time_reversal(fast: bool = False) -> CriterionResult:
    """Reversal conjugates the backward system into a forward one."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for inst in bundled_instances(n=512):
        signals = [band_limited_signal(inst.grid, -inst.nu, inst.m, rng)
                   for _ in range(2 if fast else 5)]
        rep = time_reversal_conjugation_check(inst.law, inst.A, signals)
        worst = max(worst, rep.max_discrepancy)
    return CriterionResult(5, "time-reversal conjugation of the backward system",
                           worst <= 1e-8, {"max_discrepancy": worst})


def criterion_6_nu_independence(fast: bool = False) -> CriterionResult:
    """Reconstructed solutions agree between weights 1 and 2 on an interior
    window, both directions."""
    worst = 0.0
    measured = {}
    for inst in bundled_instances(n=512):
        def fn(t, m=inst.m):
            values = np.zeros((len(t), m))
            values[:, 0] = smooth_bump(t, 0.0, 1.0)
            return values

        rep = nu_independence_check(inst.law, inst.A, fn, inst.grid, 1.0, 2.0,
                                    pad_fraction=inst.pad_fraction)
        for direction, diff in rep.sup_rel_diff.items():
            measured[f"{inst.name}_{direction}"] = diff
            worst = max(worst, diff)
    return CriterionResult(6, "eventual independence of the weight",
                           worst <= 1e-4, {"worst_sup_rel_diff": worst, **measured})


def criterion_7_douglas(fast: bool = False) -> CriterionResult:
    """Four-way agreement of the range-inclusion conditions on constructed
    ground truth, with factor recovery."""
    rng = np.random.default_rng(707)
    pairs = 10 if fast else 50
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
    ok = agreements == pairs and worst_factor <= 1e-10
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


def criterion_8_control_duality(fast: bool = False) -> CriterionResult:
    """Three-way agreement of feasibility, range inclusion and finite
    observability; random-search lower bound within 5% where finite."""
    rng = np.random.default_rng(808)
    measured = {}
    ok = True
    search_checked = 0
    for inst, B, label in _control_instances():
        rhs = random_signal(inst.grid, inst.nu, inst.m, rng)
        base = EvoProblem(inst.nu, inst.grid, inst.law, inst.A, rhs, "forward")
        cp = ControlProblem(base=base, B=B, T=1.0)
        maps = assemble_endmaps(cp, inst.pad_fraction)

        feasible, dgl, obs = _duality_verdicts(cp, maps, rng)
        verdicts = {feasible, dgl.included, math.isfinite(obs.c_obs)}
        agree = len(verdicts) == 1
        measured[label] = {
            "feasible": feasible,
            "included": dgl.included,
            "c_obs": obs.c_obs if math.isfinite(obs.c_obs) else "inf",
            "agree": agree,
        }
        ok &= agree

        finite_nontrivial = math.isfinite(obs.c_obs) and label.endswith(("B=tri", "B=2"))
        if finite_nontrivial and (search_checked < 1 or not fast):
            K1, K2 = maps.K1, maps.K2
            budget = 2000 if fast else 10_000
            lb, _ = random_search_lower_bound(
                lambda v: K1 @ v, lambda v: K2 @ v, K1.shape[1],
                budget=budget, rng=np.random.default_rng(4242))
            measured[label]["search_lower_bound"] = lb
            ok &= lb <= obs.c_obs * (1 + 1e-9)
            ok &= obs.c_obs <= 1.05 * lb
            search_checked += 1
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


def criterion_9_pointwise_control(fast: bool = False) -> CriterionResult:
    """Closed-loop pointwise null control plus the first-order convergence of
    the impulse formulation towards the shifted-state one."""
    measured = {}
    ok = True

    cp = _scalar_decay_problem(1024)
    res = pointwise_null_control(cp)
    bound = 1e-8 * (1.0 + float(np.linalg.norm(cp.U0)))
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
    bound_heat = 1e-8 * (1.0 + float(np.linalg.norm(U0)))
    measured["heat_closed_loop"] = res_heat.terminal_residual
    ok &= res_heat.feasible and res_heat.terminal_residual < bound_heat

    gaps = [_dirac_vs_regular_gap(n) for n in ((256, 512) if fast else (512, 1024, 2048))]
    orders = [math.log2(gaps[i] / gaps[i + 1]) for i in range(len(gaps) - 1)]
    measured["dirac_gaps"] = gaps
    measured["dirac_orders"] = orders
    ok &= min(orders) >= 0.9

    lstq = _brute_force_min_norm_excess(cp, fast)
    measured["scalar_min_norm_excess"] = lstq
    ok &= lstq <= 0.05
    return CriterionResult(9, "pointwise null control", bool(ok), measured)


def _brute_force_min_norm_excess(cp: ControlProblem, fast: bool = False) -> float:
    """Relative excess of a derivative-free piecewise-constant search over the
    synthesised least-norm control (a valid upper bound by construction).
    Scalar instances only: one readout equation."""
    Phi, active = _pointwise_response_matrix(cp)
    b = _pointwise_target(cp)
    if Phi.shape[0] != 1:
        raise ValueError("the piecewise-constant search handles one readout equation")
    g_min, _ = _truncated_lstsq(np.linalg.svd(Phi, full_matrices=False), b, 1e-10)
    min_norm = float(np.linalg.norm(g_min))

    grid = cp.base.grid
    times = grid.times[active]
    pieces = 8
    edges = np.linspace(0.0, cp.T, pieces + 1)
    basis = np.zeros((len(active), pieces))
    for k in range(pieces):
        inside = (times >= edges[k]) & (times < edges[k + 1])
        basis[inside, k] = 1.0
    phi_basis = Phi @ basis  # (m, pieces); scalar problem: (1, pieces)

    rng = np.random.default_rng(1717)
    budget = 2000 if fast else 10_000

    def score(directions):
        response = (directions @ phi_basis.T)[:, 0]
        norms = np.linalg.norm(directions @ basis.T, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = np.abs(b[0]) * norms / np.abs(response)
        scaled[~np.isfinite(scaled)] = np.inf
        return scaled

    # Global sampling, then local perturbations with shrinking radius.
    cand = rng.standard_normal((budget // 2, pieces))
    scores = score(cand)
    best_idx = int(np.argmin(scores))
    best, best_dir = float(scores[best_idx]), cand[best_idx]
    rounds, per_round = 5, budget // 10
    radius = 0.5
    for _ in range(rounds):
        local = best_dir[None, :] + radius * rng.standard_normal((per_round, pieces))
        scores = score(local)
        idx = int(np.argmin(scores))
        if scores[idx] < best:
            best, best_dir = float(scores[idx]), local[idx]
        radius *= 0.4
    return best / min_norm - 1.0


def criterion_10_oracle_equivalence(fast: bool = False) -> CriterionResult:
    """Spectral solve against the causal stepper on all finite-sum instances,
    and against the closed-form convolution oracle on the rotation system."""
    measured = {}
    ok = True
    n = 2048 if fast else 4096
    for inst in bundled_instances(n=n):
        rhs = bump_signal(inst.grid, inst.nu, inst.m, component=0,
                          center=4.0, width=1.5)
        prob = EvoProblem(inst.nu, inst.grid, inst.law, inst.A, rhs, "forward")
        rep = solve_forward(prob, inst.pad_fraction)
        u_step = timestep_oracle(prob)
        diff = (u_step - rep.solution).norm / max(rep.solution.norm, NORM_FLOOR)
        tol = max(1e-6, rep.wraparound_tolerance)
        measured[f"{inst.name}_stepper_diff"] = diff
        measured[f"{inst.name}_tolerance"] = tol
        ok &= diff < tol

    diff_rot = _rotation_duhamel_gap(1024 if fast else 2048)
    measured["rotation_duhamel_diff"] = diff_rot
    ok &= diff_rot < 1e-6
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
        oracle[j, 0] = simpson(integ0, dx=h)
        oracle[j, 1] = simpson(integ1, dx=h)
    gap = np.sqrt(grid.dt) * np.linalg.norm(oracle - u.phi)
    return float(gap / max(u.norm, NORM_FLOOR))


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


def run_acceptance(fast: bool = False) -> list:
    """Run all criteria and return their results in order."""
    return [crit(fast=fast) for crit in ALL_CRITERIA]
