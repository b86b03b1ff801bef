"""Forward/backward solves, the stepping oracle and the harnesses.

Oracles: the causal cumulative quadrature for scalar reductions, a
closed-form rotation kernel integrated by composite Simpson for the Duhamel
check, and hand recurrences for the stepper.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

import evoq
from evoq import (
    EvoProblem,
    OracleError,
    PreconditionError,
    TimeGrid,
    UnsupportedLawError,
    WeightedSignal,
    antiderivative,
    apply_adjoint_operator,
    apply_forward_operator,
    check_skew,
    finite_sum_law,
    nu_independence_check,
    nu_product,
    solve_adjoint,
    solve_forward,
    time_derivative,
    time_reversal_conjugation_check,
    timestep_adjoint_oracle,
    timestep_oracle,
    zero_signal,
)
from evoq.waveforms import band_limited_signal, bump_signal, random_signal, smooth_bump

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def scalar_problem(g, nu, rhs, direction="forward"):
    law = finite_sum_law([np.eye(1)])
    A = check_skew(np.zeros((1, 1)))
    return EvoProblem(nu, g, law, A, rhs, direction)


class TestSolveForward:
    def test_scalar_reduction_to_antiderivative(self):
        # the spectral wrap is negligible here (weight 2 on a wide grid), so
        # the gap is the trapezoid error of the quadrature oracle: O(dt^2)
        gaps = []
        for n in (1024, 2048):
            g = TimeGrid(-8.0, 8.0, n)
            nu = 2.0
            rhs = bump_signal(g, nu, 1, center=0.0, width=1.0)
            rep = solve_forward(scalar_problem(g, nu, rhs))
            causal = antiderivative(rhs)
            gaps.append((rep.solution - causal).norm / causal.norm)
        assert gaps[0] <= 1e-3
        assert gaps[1] <= gaps[0] / 3.0

    def test_zero_rhs(self):
        g = TimeGrid(-2.0, 2.0, 64)
        rep = solve_forward(scalar_problem(g, 1.0, zero_signal(g, 1.0, 1)))
        assert rep.solution.norm == 0.0
        assert rep.residual_rel == 0.0

    def test_duhamel_rotation_oracle(self):
        # closed-form kernel e^{-nu tau} R(-tau), composite Simpson on a
        # 4x refined grid; the bump sits early so the spectral wrap is tiny
        nu = 1.0
        g = TimeGrid(-8.0, 8.0, 2048)
        law = finite_sum_law([np.eye(2)])
        A = check_skew(ROT)
        center, width = -4.0, 1.0
        rhs = bump_signal(g, nu, 2, component=0, center=center, width=width)
        rep = solve_forward(EvoProblem(nu, g, law, A, rhs, "forward"))

        refine = 4
        h = g.dt / refine
        s = g.t_min + h * np.arange(g.n * refine)
        psi0 = np.exp(-nu * s) * smooth_bump(s, center, width)
        oracle = np.zeros((g.n, 2))
        for j in range(g.n):
            k = j * refine
            if k < 2:
                continue
            tau = g.times[j] - s[:k + 1]
            decay = np.exp(-nu * tau)
            oracle[j, 0] = simpson(decay * np.cos(tau) * psi0[:k + 1], dx=h)
            oracle[j, 1] = simpson(-decay * np.sin(tau) * psi0[:k + 1], dx=h)
        gap = np.sqrt(g.dt) * np.linalg.norm(oracle - rep.solution.phi)
        assert gap / rep.solution.norm <= 1e-6

    def test_norm_bound_random_rhs(self):
        inst = evoq.make_heat_instance(n=256)
        rng = np.random.default_rng(0)
        pad_grid, _ = inst.grid.padded(inst.pad_fraction)
        c = evoq.coercivity(inst.law, inst.nu, pad_grid).c_est
        for _ in range(20):
            rhs = random_signal(inst.grid, inst.nu, inst.m, rng)
            rep = solve_forward(EvoProblem(inst.nu, inst.grid, inst.law,
                                           inst.A, rhs, "forward"))
            assert rep.norm_ratio <= 1.05 / c

    def test_residual_small(self):
        inst = evoq.make_wave_instance(n=256)
        rhs = random_signal(inst.grid, inst.nu, inst.m, np.random.default_rng(1))
        rep = solve_forward(EvoProblem(inst.nu, inst.grid, inst.law,
                                       inst.A, rhs, "forward"))
        assert rep.residual_rel <= 1e-12

    def test_direction_and_weight_validation(self):
        g = TimeGrid(-2.0, 2.0, 64)
        rhs = zero_signal(g, 1.0, 1)
        prob = scalar_problem(g, 1.0, rhs)
        with pytest.raises(PreconditionError):
            solve_adjoint(prob)
        with pytest.raises(PreconditionError):
            EvoProblem(1.0, g, finite_sum_law([np.eye(1)]),
                       check_skew(np.zeros((1, 1))), rhs, "adjoint")


class TestSolveAdjoint:
    def test_scalar_reduction_to_anticausal_integral(self):
        gaps = []
        for n in (1024, 2048):
            g = TimeGrid(-8.0, 8.0, n)
            nu = 2.0
            rhs = bump_signal(g, -nu, 1, center=0.0, width=1.0)
            rep = solve_adjoint(scalar_problem(g, nu, rhs, "adjoint"))
            expected = -1.0 * antiderivative(rhs)
            gaps.append((rep.solution - expected).norm / expected.norm)
        assert gaps[0] <= 1e-3
        assert gaps[1] <= gaps[0] / 3.0

    def test_zero_rhs(self):
        g = TimeGrid(-2.0, 2.0, 64)
        rep = solve_adjoint(scalar_problem(g, 1.0, zero_signal(g, -1.0, 1), "adjoint"))
        assert rep.solution.norm == 0.0

    def test_duality_pairing(self):
        inst = evoq.make_maxwell_instance(n=256)
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(10):
            f = random_signal(inst.grid, inst.nu, inst.m, rng)
            h = random_signal(inst.grid, -inst.nu, inst.m, rng)
            uf = solve_forward(EvoProblem(inst.nu, inst.grid, inst.law,
                                          inst.A, f, "forward"))
            vg = solve_adjoint(EvoProblem(inst.nu, inst.grid, inst.law,
                                          inst.A, h, "adjoint"))
            gap = abs(nu_product(uf.solution, h) - nu_product(f, vg.solution))
            worst = max(worst, gap / (f.norm * h.norm))
        assert worst <= 1e-10

    def test_amnesia_leakage_within_wraparound(self):
        inst = evoq.make_heat_instance(n=512)
        rhs = bump_signal(inst.grid, -inst.nu, inst.m, center=-2.0, width=1.0)
        rep = solve_adjoint(EvoProblem(inst.nu, inst.grid, inst.law,
                                       inst.A, rhs, "adjoint"))
        assert rep.amnesia_leakage <= rep.wraparound_tolerance + 1e-12


class TestTimestepOracle:
    def test_scalar_matches_antiderivative_second_order(self):
        gaps = []
        for n in (512, 1024):
            g = TimeGrid(-8.0, 8.0, n)
            nu = 1.0
            rhs = bump_signal(g, nu, 1, center=0.0, width=1.0)
            stepped = timestep_oracle(scalar_problem(g, nu, rhs))
            causal = antiderivative(rhs)
            gaps.append((stepped - causal).norm / causal.norm)
        assert gaps[1] <= gaps[0] / 3.0

    def test_heat_block_against_spectral(self):
        inst = evoq.make_heat_instance(k=8, n=4096)
        rhs = bump_signal(inst.grid, inst.nu, inst.m, center=4.0, width=1.5)
        prob = EvoProblem(inst.nu, inst.grid, inst.law, inst.A, rhs, "forward")
        rep = solve_forward(prob, inst.pad_fraction)
        stepped = timestep_oracle(prob)
        gap = (stepped - rep.solution).norm / rep.solution.norm
        assert gap <= max(1e-6, rep.wraparound_tolerance)

    def test_zero_rhs(self):
        g = TimeGrid(-2.0, 2.0, 64)
        out = timestep_oracle(scalar_problem(g, 1.0, zero_signal(g, 1.0, 1)))
        assert np.all(out.phi == 0)

    def test_exactly_causal(self):
        inst = evoq.make_wave_instance(n=256)
        phi = np.zeros((inst.grid.n, inst.m), dtype=complex)
        start = 100
        phi[start:start + 30, 0] = 1.0
        prob = EvoProblem(inst.nu, inst.grid, inst.law, inst.A,
                          WeightedSignal(inst.grid, inst.nu, phi), "forward")
        out = timestep_oracle(prob)
        assert np.all(out.phi[:start] == 0)

    def test_singular_step_matrix_raises(self):
        g = TimeGrid(-2.0, 2.0, 64)
        law = finite_sum_law([np.zeros((2, 2))])
        A = check_skew(ROT)
        prob = EvoProblem(1.0, g, law, A, zero_signal(g, 1.0, 2), "forward")
        with pytest.raises(OracleError):
            timestep_oracle(prob)

    def test_memory_order_two_unsupported(self):
        g = TimeGrid(-2.0, 2.0, 64)
        law = finite_sum_law([np.eye(1), np.eye(1), np.eye(1)])
        prob = EvoProblem(1.0, g, law, check_skew(np.zeros((1, 1))),
                          zero_signal(g, 1.0, 1), "forward")
        with pytest.raises(UnsupportedLawError):
            timestep_oracle(prob)

    def test_adjoint_oracle_exactly_amnesic(self):
        inst = evoq.make_maxwell_instance(n=256)
        phi = np.zeros((inst.grid.n, inst.m), dtype=complex)
        phi[40:80, 0] = 1.0
        prob = EvoProblem(inst.nu, inst.grid, inst.law, inst.A,
                          WeightedSignal(inst.grid, -inst.nu, phi), "adjoint")
        out = timestep_adjoint_oracle(prob)
        assert np.all(out.phi[80:] == 0)


class TestConjugationCheck:
    def test_identity_law_reduces_to_derivative_intertwining(self):
        g = TimeGrid(-2.0, 2.0, 128)
        law = finite_sum_law([np.eye(1)])
        A = check_skew(np.zeros((1, 1)))
        signals = [band_limited_signal(g, -1.0, 1, np.random.default_rng(s))
                   for s in range(3)]
        worst = time_reversal_conjugation_check(law, A, signals)
        assert worst <= 1e-10

    def test_heat_block(self):
        inst = evoq.make_heat_instance(k=4, n=256)
        signals = [band_limited_signal(inst.grid, -inst.nu, inst.m,
                                       np.random.default_rng(s)) for s in range(3)]
        worst = time_reversal_conjugation_check(inst.law, inst.A, signals)
        assert worst <= 1e-8

    def test_random_skew_with_spd_mass(self):
        rng = np.random.default_rng(3)
        m = 4
        D = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        A = check_skew(D - D.conj().T)
        M0 = rng.standard_normal((m, m))
        M0 = M0 @ M0.T + m * np.eye(m)
        law = finite_sum_law([M0])
        g = TimeGrid(-2.0, 2.0, 128)
        signals = [band_limited_signal(g, -1.0, m, rng) for _ in range(3)]
        worst = time_reversal_conjugation_check(law, A, signals)
        assert worst <= 1e-8

    def test_asymmetric_grid_rejected(self):
        g = TimeGrid(0.0, 2.0, 64)
        law = finite_sum_law([np.eye(1)])
        A = check_skew(np.zeros((1, 1)))
        sig = band_limited_signal(g, -1.0, 1, np.random.default_rng(4))
        with pytest.raises(PreconditionError):
            time_reversal_conjugation_check(law, A, [sig])


class TestNuIndependence:
    @staticmethod
    def bump_fn(m):
        def fn(t):
            values = np.zeros((len(t), m))
            values[:, 0] = smooth_bump(t, 0.0, 1.0)
            return values
        return fn

    def test_equal_weights_give_zero(self):
        inst = evoq.make_heat_instance(n=256)
        diffs = nu_independence_check(inst.law, inst.A, self.bump_fn(inst.m),
                                      inst.grid, 1.5, 1.5)
        assert set(diffs) == {"forward", "adjoint"}
        for diff in diffs.values():
            assert diff <= 1e-13

    def test_heat_forward_and_adjoint(self):
        inst = evoq.make_heat_instance(n=512)
        diffs = nu_independence_check(inst.law, inst.A, self.bump_fn(inst.m),
                                      inst.grid, 1.0, 2.0)
        assert set(diffs) == {"forward", "adjoint"}
        for diff in diffs.values():
            assert diff <= 1e-4

    def test_suite_builds_one_operator_per_weight(self, monkeypatch, tmp_path):
        # the forward and the backward solve at one weight share its blocks
        # and its certificate
        from evoq import solver
        from evoq.cli import main

        calls = {"forward_blocks": 0, "coercivity": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(solver, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(solver, name, counted)
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "heat_small.json")
        code = main(["verify", "--config", config, "--suite", "nu-independence",
                     "--out", str(tmp_path)])
        assert code == 0
        assert calls == {"forward_blocks": 2, "coercivity": 2}


class TestRandomInstanceProperties:
    """Duality, norm bound and causality over randomly drawn instances,
    not just the bundled stencils."""

    @staticmethod
    def draw_instance(rng, m):
        D = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        A = check_skew(D - D.conj().T)
        R = rng.standard_normal((m, m))
        M0 = np.eye(m) + R @ R.T
        M1 = (0.1 / m) * (rng.standard_normal((m, m))
                          + 1j * rng.standard_normal((m, m)))
        law = finite_sum_law([M0, M1])
        grid = TimeGrid(-4.0, 4.0, 128)
        return law, A, grid

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_duality_and_norm_bound(self, seed, m):
        rng = np.random.default_rng(seed)
        law, A, grid = self.draw_instance(rng, m)
        nu = 1.0
        f = random_signal(grid, nu, m, rng)
        h = random_signal(grid, -nu, m, rng)
        uf = solve_forward(EvoProblem(nu, grid, law, A, f, "forward"))
        vg = solve_adjoint(EvoProblem(nu, grid, law, A, h, "adjoint"))
        gap = abs(nu_product(uf.solution, h) - nu_product(f, vg.solution))
        assert gap <= 1e-10 * f.norm * h.norm
        c = uf.certificate.c_est
        assert c > 0
        assert uf.norm_ratio <= 1.05 / c
        assert vg.norm_ratio <= 1.05 / c

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_stepper_exactly_causal(self, seed, m):
        rng = np.random.default_rng(seed)
        law, A, grid = self.draw_instance(rng, m)
        start = int(rng.integers(10, grid.n - 10))
        phi = np.zeros((grid.n, m), dtype=complex)
        phi[start:start + 5] = rng.standard_normal((5, m))
        out = timestep_oracle(EvoProblem(1.0, grid, law, A,
                                         WeightedSignal(grid, 1.0, phi), "forward"))
        assert np.all(out.phi[:start] == 0)


class TestOperatorApplications:
    def test_forward_adjoint_application_pairing(self):
        inst = evoq.make_wave_instance(n=256)
        rng = np.random.default_rng(5)
        f = band_limited_signal(inst.grid, inst.nu, inst.m, rng)
        g = band_limited_signal(inst.grid, -inst.nu, inst.m, rng)
        lhs = nu_product(apply_forward_operator(inst.law, inst.A, f), g)
        rhs = nu_product(f, apply_adjoint_operator(inst.law, inst.A, g))
        assert abs(lhs - rhs) <= 1e-10 * f.norm * g.norm

    def test_regularity_smoke_bounds(self):
        # smooth data: the derivative of the solution is controlled by the
        # derivative of the data, and A u by both (coarse constants)
        inst = evoq.make_maxwell_instance(n=512)
        rng = np.random.default_rng(6)
        f = band_limited_signal(inst.grid, inst.nu, inst.m, rng)
        rep = solve_forward(EvoProblem(inst.nu, inst.grid, inst.law,
                                       inst.A, f, "forward"), inst.pad_fraction)
        c = rep.certificate.c_est
        u = rep.solution
        df = time_derivative(f)
        du = time_derivative(u)
        assert du.norm <= (1.0 / c) * df.norm * (1 + 1e-6) + 1e-9
        au = u.with_phi(u.phi @ inst.A.A.T)
        budget = (2.0 + inst.A.norm / c) * (f.norm + df.norm)
        assert au.norm <= budget


class TestSpectralOperator:
    def test_duality_suite_builds_blocks_and_certificate_once(self, monkeypatch, tmp_path):
        from evoq import solver
        from evoq.cli import main

        calls = {"forward_blocks": 0, "coercivity": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(solver, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(solver, name, counted)
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "heat_small.json")
        code = main(["verify", "--config", config, "--suite", "duality",
                     "--out", str(tmp_path)])
        assert code == 0
        assert calls == {"forward_blocks": 1, "coercivity": 1}

    def test_solve_pair_matches_operator_bit_for_bit(self):
        from evoq.solver import SpectralOperator

        inst = evoq.make_heat_instance(n=256)
        rng = np.random.default_rng(11)
        f = random_signal(inst.grid, inst.nu, inst.m, rng)
        g = random_signal(inst.grid, -inst.nu, inst.m, rng)
        pair = (
            solve_forward(EvoProblem(inst.nu, inst.grid, inst.law, inst.A, f, "forward"),
                          inst.pad_fraction),
            solve_adjoint(EvoProblem(inst.nu, inst.grid, inst.law, inst.A, g, "adjoint"),
                          inst.pad_fraction),
        )
        op = SpectralOperator(inst.law, inst.A, inst.nu, inst.grid, inst.pad_fraction)
        for report, rhs in zip(pair, (f, g)):
            direct = op.solve(rhs)
            assert np.array_equal(report.solution.phi, direct.solution.phi)
            assert report.residual_rel == direct.residual_rel
            assert report.certificate == direct.certificate
