"""Null control: range checks, end maps, synthesis, observability and the
pointwise variant.

Oracles: construct-then-recover factorisations, closed-loop re-solves with
the synthesised control, closed-form decay trajectories, and direct impulse
solves against the assembled columns.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import evoq
from evoq import (
    ControlProblem,
    EvoProblem,
    PreconditionError,
    SizeGuardError,
    SupportWindow,
    TimeGrid,
    assemble_endmaps,
    check_skew,
    douglas_check,
    finite_sum_law,
    null_control,
    observability_constant,
    pointwise_duality_check,
    pointwise_null_control,
    pointwise_solve,
    solve_forward,
    support_leakage,
    zero_signal,
)
from evoq.waveforms import bump_signal, random_signal

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def write_heat_control_config(tmp_path, injection):
    """A heat k=2 (m=5), n=32 supported-control config with B = I or B = 0."""
    B = np.eye(5) if injection == "I" else np.zeros((5, 1))
    config = {
        "seed": 3, "nu": 1.0,
        "grid": {"t_min": -4.0, "t_max": 4.0, "n": 32, "padding_fraction": 0.25},
        "spatial": {"kind": "heat", "k": 2, "a": 2.0},
        "rhs": {"shape": "bump", "component": 0, "center": -1.0, "width": 1.0},
        "control": {"B": [[[float(v), 0.0] for v in row] for row in B],
                    "T": 1.0, "variant": "supported"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


def rotation_base(n=128, nu=1.0, rhs=None):
    g = TimeGrid(-4.0, 4.0, n)
    law = finite_sum_law([np.eye(2)])
    A = check_skew(ROT)
    rhs = rhs if rhs is not None else random_signal(g, nu, 2, np.random.default_rng(0))
    return EvoProblem(nu, g, law, A, rhs, "forward")


class TestDouglasCheck:
    def test_equal_diagonals_included_with_unit_constant(self):
        rep = douglas_check(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        assert rep.included and rep.constant == pytest.approx(1.0)

    def test_disjoint_diagonals_excluded_with_witness(self):
        rep = douglas_check(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert not rep.included
        x = rep.witness
        assert np.linalg.norm(np.diag([1.0, 0.0]).T @ x) > 0.5
        assert np.linalg.norm(np.diag([0.0, 1.0]).T @ x) < 1e-10

    def test_construct_then_recover(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
        R = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        rep = douglas_check(B @ R, B)
        assert rep.included
        assert np.linalg.norm(rep.factor - R, 2) <= 1e-8 * np.linalg.norm(R, 2)
        assert rep.factor_residual <= 1e-10 * np.linalg.norm(B @ R, 2)

    def test_all_four_conditions_share_a_verdict(self):
        rng = np.random.default_rng(2)
        for trial in range(12):
            B = rng.standard_normal((8, 5))
            A = B @ rng.standard_normal((5, 4))
            if trial % 2:
                u = np.linalg.svd(B, full_matrices=True)[0][:, -1]
                A = A + np.outer(u, rng.standard_normal(4))
            rep = douglas_check(A, B, rng=rng)
            assert len(set(rep.conditions.values())) == 1
            assert rep.included == (trial % 2 == 0)


class TestEndMaps:
    def test_identity_injection_contains_plain_range(self):
        base = rotation_base()
        cp = ControlProblem(base=base, B=np.eye(2), T=1.0)
        maps = assemble_endmaps(cp)
        rep = douglas_check(maps.L_F, maps.L_G)
        assert rep.included

    def test_zero_injection_gives_zero_map(self):
        base = rotation_base()
        cp = ControlProblem(base=base, B=np.zeros((2, 1)), T=1.0)
        maps = assemble_endmaps(cp)
        assert np.all(maps.L_G == 0)

    def test_columns_match_direct_impulse_solves(self):
        base = rotation_base(n=64)
        cp = ControlProblem(base=base, B=np.eye(2), T=0.5)
        maps = assemble_endmaps(cp)
        rng = np.random.default_rng(3)
        for _ in range(4):
            j = rng.integers(0, base.grid.n)
            i = rng.integers(0, 2)
            phi = np.zeros((base.grid.n, 2), dtype=complex)
            phi[j, i] = 1.0
            direct = solve_forward(
                EvoProblem(base.nu, base.grid, base.law, base.A,
                           evoq.WeightedSignal(base.grid, base.nu, phi), "forward"),
                0.25).solution.phi[maps.post_start:]
            col = maps.L_F[:, j * 2 + i].reshape(-1, 2)
            assert np.abs(col - direct).max() <= 1e-10 * max(np.abs(direct).max(), 1.0)

    def test_size_guard(self):
        base = rotation_base(n=128)
        cp = ControlProblem(base=base, B=np.eye(2), T=1.0)
        with pytest.raises(SizeGuardError):
            assemble_endmaps(cp, size_guard=1000)


class TestNullControl:
    def test_identity_injection_annihilates(self):
        F = bump_signal(TimeGrid(-4.0, 4.0, 128), 1.0, 2, center=0.0, width=1.0)
        base = rotation_base(rhs=F)
        cp = ControlProblem(base=base, B=np.eye(2), T=1.0)
        res = null_control(cp)
        assert res.feasible
        assert res.terminal_residual <= 1e-10
        assert res.control_norm <= F.norm * (1 + 1e-10)

    def test_zero_injection_infeasible(self):
        base = rotation_base()
        cp = ControlProblem(base=base, B=np.zeros((2, 1)), T=1.0)
        res = null_control(cp)
        assert not res.feasible

    def test_closed_loop_heat_identity_actuation(self):
        inst = evoq.make_heat_instance(k=4, n=128, t_half=4.0)
        F = bump_signal(inst.grid, inst.nu, inst.m, center=-1.0, width=1.0)
        base = EvoProblem(inst.nu, inst.grid, inst.law, inst.A, F, "forward")
        cp = ControlProblem(base=base, B=np.eye(inst.m), T=1.0)
        res = null_control(cp)
        assert res.feasible
        bg = evoq.WeightedSignal(inst.grid, inst.nu, res.G.phi @ cp.B.T)
        closed = solve_forward(EvoProblem(inst.nu, inst.grid, inst.law,
                                          inst.A, F + bg, "forward"))
        leak = support_leakage(closed.solution, SupportWindow.at_most(1.0))
        assert leak <= 1e-6

    def test_scale_covariance(self):
        F = bump_signal(TimeGrid(-4.0, 4.0, 128), 1.0, 2, center=0.0, width=1.0)
        base = rotation_base(rhs=F)
        cp = ControlProblem(base=base, B=np.array([[1.0, 0.3], [0.0, 0.5]]), T=1.0)
        maps = assemble_endmaps(cp)
        res1 = null_control(cp, maps)
        base3 = rotation_base(rhs=3.0 * F)
        res3 = null_control(ControlProblem(base=base3, B=cp.B, T=1.0), maps)
        assert np.abs(res3.G.phi - 3.0 * res1.G.phi).max() \
            <= 1e-10 * max(np.abs(res1.G.phi).max(), 1e-300)


    def test_end_maps_factor_L_G_once(self, monkeypatch):
        F = bump_signal(TimeGrid(-4.0, 4.0, 48), 1.0, 2, center=0.0, width=1.0)
        cp = ControlProblem(base=rotation_base(n=48, rhs=F),
                            B=np.array([[1.0, 0.3], [0.0, 0.5]]), T=1.0)
        maps = assemble_endmaps(cp)
        svd = np.linalg.svd
        factored = []

        def counting_svd(a, *args, **kwargs):
            if a is maps.L_G:
                factored.append(a)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        null_control(cp, maps)
        null_control(cp, maps)
        observability_constant(cp, maps)  # its primal Douglas check runs
        assert len(factored) == 1

    def test_batched_lstsq_matches_column_solves(self):
        from evoq.control import _truncated_lstsq

        rng = np.random.default_rng(5)
        M = (rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))) \
            @ (rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8)))
        b = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
        svd = np.linalg.svd(M, full_matrices=False)
        x, reg = _truncated_lstsq(svd, b, 1e-10)
        assert reg.rank == 4 and x.shape == (8, 5)
        for k in range(b.shape[1]):
            column, _ = _truncated_lstsq(svd, b[:, k], 1e-10)
            assert np.abs(x[:, k] - column).max() <= 1e-12 * np.abs(column).max()

    @pytest.mark.parametrize("command", [["control"], ["control", "--certify-duality"]],
                             ids=["control", "certify"])
    @pytest.mark.parametrize("injection, svds", [("I", 7), ("zero", 8)])
    def test_dense_svd_count_per_command(self, monkeypatch, tmp_path, command,
                                         injection, svds):
        # B = I: K2 has no null space, so ||K1||_2 is never needed.  B = 0:
        # the blind matrix is decomposed once, and the Douglas factor is zero.
        from evoq.cli import main

        path = write_heat_control_config(tmp_path, injection)
        svd = np.linalg.svd
        calls = []

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        # np.linalg.norm(., 2) reaches the implementation module's binding
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg._linalg, "svd", counting_svd)
        assert main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == svds

    @pytest.mark.parametrize("command", [["control"], ["control", "--certify-duality"]],
                             ids=["control", "certify"])
    def test_one_operator_per_command(self, monkeypatch, tmp_path, command):
        # primal and backward maps come from one operator's blocks, and the
        # reported certificate is that operator's own
        from evoq import material, solver
        from evoq.cli import main

        calls = {"forward_blocks": 0, "coercivity": 0}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        counting(solver, "forward_blocks")
        counting(solver, "coercivity")
        counting(material, "coercivity")  # the CLI's own import
        path = write_heat_control_config(tmp_path, "I")
        assert main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert calls == {"forward_blocks": 1, "coercivity": 1}

    def test_batched_probe_verdicts_match_per_probe_null_control(self, monkeypatch):
        # reference: one null_control per probe, over the same draws of the rng
        from evoq import control
        from evoq.acceptance import _control_instances

        solve_one = control.null_control
        monkeypatch.setattr(control, "null_control", lambda *a, **k: pytest.fail(
            "the certificate must solve its probes in one batch"))
        verdicts = set()
        for inst, B, label in _control_instances():
            rhs = random_signal(inst.grid, inst.nu, inst.m, np.random.default_rng(8))
            cp = ControlProblem(base=EvoProblem(inst.nu, inst.grid, inst.law, inst.A,
                                                rhs, "forward"), B=B, T=1.0)
            maps = assemble_endmaps(cp, inst.pad_fraction)
            batched_rng, loop_rng = np.random.default_rng(9), np.random.default_rng(9)
            batched, _, _ = control._duality_verdicts(cp, maps, batched_rng)
            looped = []
            for _ in range(max(inst.m, 3)):
                probe = random_signal(inst.grid, inst.nu, inst.m, loop_rng)
                base = EvoProblem(inst.nu, inst.grid, inst.law, inst.A, probe, "forward")
                looped.append(solve_one(ControlProblem(base=base, B=B, T=1.0),
                                        maps).feasible)
            assert batched == all(looped), label
            assert batched_rng.bit_generator.state == loop_rng.bit_generator.state
            verdicts.add(batched)
        assert verdicts == {True, False}


class TestObservability:
    def test_identity_injection_unit_constant(self):
        base = rotation_base()
        cp = ControlProblem(base=base, B=np.eye(2), T=1.0)
        obs = observability_constant(cp)
        assert obs.c_obs == pytest.approx(1.0, rel=1e-10)
        assert obs.method == "generalized-svd"

    def test_zero_injection_infinite(self):
        base = rotation_base()
        cp = ControlProblem(base=base, B=np.zeros((2, 1)), T=1.0)
        obs = observability_constant(cp)
        assert math.isinf(obs.c_obs)
        assert obs.witness.norm > 0

    def test_scaled_injection_inverse_scale(self):
        base = rotation_base()
        cp = ControlProblem(base=base, B=2.0 * np.eye(2), T=1.0)
        obs = observability_constant(cp)
        assert obs.c_obs == pytest.approx(0.5, rel=1e-10)

    def test_witness_achieves_reported_ratio(self):
        base = rotation_base()
        B = np.array([[1.0, 0.3], [0.0, 0.5]])
        cp = ControlProblem(base=base, B=B, T=1.0)
        obs = observability_constant(cp)
        prob = EvoProblem(base.nu, base.grid, base.law, base.A,
                          obs.witness, "adjoint")
        sol = evoq.solve_adjoint(prob).solution
        filtered = sol.with_phi(sol.phi @ np.conj(B))
        ratio = sol.norm / filtered.norm
        assert ratio == pytest.approx(obs.c_obs, rel=1e-8)

    def test_sampled_ratios_bounded_by_constant(self):
        # every post-horizon datum satisfies ||S* 1_{>=T} F|| <= c ||B* S* 1_{>=T} F||
        base = rotation_base()
        B = np.array([[1.0, 0.3], [0.0, 0.5]])
        cp = ControlProblem(base=base, B=B, T=1.0)
        obs = observability_constant(cp)
        g = base.grid
        post = g.index_at_or_after(1.0)
        rng = np.random.default_rng(11)
        for _ in range(20):
            phi = np.zeros((g.n, 2), dtype=complex)
            phi[post:] = rng.standard_normal((g.n - post, 2)) \
                + 1j * rng.standard_normal((g.n - post, 2))
            F = evoq.WeightedSignal(g, -base.nu, phi)
            sol = evoq.solve_adjoint(
                EvoProblem(base.nu, g, base.law, base.A, F, "adjoint")).solution
            filtered = sol.with_phi(sol.phi @ np.conj(B))
            assert sol.norm <= (1 + 1e-10) * obs.c_obs * filtered.norm

    def test_adjoint_factorization_identity(self):
        # the matrix adjoint of the primal end map equals the backward map
        # assembled from adjoint solves
        base = rotation_base(n=64)
        cp = ControlProblem(base=base, B=np.eye(2), T=0.5)
        maps = assemble_endmaps(cp)
        gap = np.linalg.norm(maps.L_F.conj().T - maps.K1, 2)
        assert gap <= 1e-10 * np.linalg.norm(maps.K1, 2)

    def test_power_iteration_matches_dense(self):
        base = rotation_base(n=48)
        B = np.array([[1.0, 0.3], [0.0, 0.5]])
        cp = ControlProblem(base=base, B=B, T=1.0)
        dense = observability_constant(cp)
        free = observability_constant(cp, method="power-iteration")
        assert free.method == "power-iteration"
        assert free.c_obs == pytest.approx(dense.c_obs, rel=1e-2)

    def test_size_guard_precedes_dense_work(self, monkeypatch):
        from evoq import control

        assemble = control.assemble_endmaps
        monkeypatch.setattr(control, "assemble_endmaps",
                            lambda cp, pad_fraction=0.25: assemble(cp, pad_fraction,
                                                                   size_guard=1000))
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail(
            "no SVD may run before the size guard"))
        cp = ControlProblem(base=rotation_base(n=128), B=np.eye(2), T=1.0)
        with pytest.raises(SizeGuardError):
            observability_constant(cp)

    def test_primal_consistency_enforced(self):
        base = rotation_base()
        cp = ControlProblem(base=base, B=np.array([[1.0], [0.0]]), T=1.0)
        maps = assemble_endmaps(cp)
        obs = observability_constant(cp, maps)  # raises on disagreement
        dgl = douglas_check(maps.L_F, maps.L_G)
        assert math.isinf(obs.c_obs) == (not dgl.included)


class TestPointwise:
    def scalar_cp(self, n=1024, lam=1.0, T=2.0, u0=1.0):
        law = finite_sum_law([np.eye(1), lam * np.eye(1)])
        A = check_skew(np.zeros((1, 1)))
        g = TimeGrid(-2.0, 6.0, n)
        base = EvoProblem(1.0, g, law, A, zero_signal(g, 1.0, 1), "forward")
        return ControlProblem(base=base, B=np.eye(1), T=T, variant="pointwise",
                              U0=np.array([u0]))

    def test_free_solution_matches_exponential_decay(self):
        lam, u0, T = 1.0, 1.0, 2.0
        cp = self.scalar_cp(lam=lam, T=T, u0=u0)
        sol = pointwise_solve(cp, None)
        g = cp.base.grid
        j0 = g.index_at_or_after(0.0)
        t = g.times[j0 + 1:]
        expected = u0 * np.exp(-lam * t)
        assert np.abs(sol.U.values()[j0 + 1:, 0] - expected).max() <= 5e-5
        assert np.linalg.norm(sol.M0U_at_T - u0 * math.exp(-lam * T)) <= 1e-4

    def test_zero_initial_state_zero_control(self):
        cp = self.scalar_cp(u0=0.0)
        sol = pointwise_solve(cp, None)
        assert sol.U.norm == 0.0

    def test_heat_block_matches_semigroup_oracle(self):
        import scipy.linalg as sla
        k = 4
        A, law = evoq.build_heat_block(k, 1.0, dx=2.0, nu=1.0)
        m = A.m
        g = TimeGrid(-1.0, 3.0, 4096)
        rng = np.random.default_rng(4)
        U0 = np.zeros(m)
        U0[:k + 1] = rng.standard_normal(k + 1)
        base = EvoProblem(1.0, g, law, A, zero_signal(g, 1.0, m), "forward")
        cp = ControlProblem(base=base, B=np.eye(m), T=2.0, variant="pointwise", U0=U0)
        sol = pointwise_solve(cp, None)
        D = np.zeros((k, k + 1))
        idx = np.arange(k)
        D[idx, idx] = -0.5
        D[idx, idx + 1] = 0.5
        generator = -(D.T @ D)  # conductivity 1, dx 2
        j0 = g.index_at_or_after(0.0)
        U = sol.U.values()
        worst = 0.0
        for j in range(j0 + 1, g.n, 64):
            theta = sla.expm(generator * g.times[j]) @ U0[:k + 1]
            q = -D @ theta
            worst = max(worst, float(np.linalg.norm(U[j] - np.concatenate([theta, q]))))
        assert worst <= 1e-6

    def test_continuity_diagnostic_shrinks_with_dt(self):
        jumps = [pointwise_solve(self.scalar_cp(n=n), None).max_jump
                 for n in (512, 1024)]
        assert jumps[1] <= jumps[0] / 1.5

    def test_closed_loop_null_control(self):
        cp = self.scalar_cp()
        res = pointwise_null_control(cp)
        assert res.feasible
        assert res.terminal_residual <= 1e-8 * (1 + 1.0)
        # the synthesised control is supported on t >= 0
        mask = cp.base.grid.times < 0
        assert np.all(res.G.phi[mask] == 0)

    def test_zero_injection_infeasible_when_state_moves(self):
        lam = 1.0
        law = finite_sum_law([np.eye(1), lam * np.eye(1)])
        A = check_skew(np.zeros((1, 1)))
        g = TimeGrid(-2.0, 6.0, 512)
        base = EvoProblem(1.0, g, law, A, zero_signal(g, 1.0, 1), "forward")
        cp = ControlProblem(base=base, B=np.zeros((1, 1)), T=2.0,
                            variant="pointwise", U0=np.array([1.0]))
        res = pointwise_null_control(cp)
        assert not res.feasible

    def test_duality_check_agrees(self):
        cp = self.scalar_cp(n=512)
        chk = pointwise_duality_check(cp)
        assert chk["agree"] and chk["feasible_for_basis"]

    def test_wrong_law_shape_rejected(self):
        law = finite_sum_law([np.eye(1), np.eye(1), np.eye(1)])
        A = check_skew(np.zeros((1, 1)))
        g = TimeGrid(-2.0, 6.0, 64)
        base = EvoProblem(1.0, g, law, A, zero_signal(g, 1.0, 1), "forward")
        with pytest.raises(evoq.UnsupportedLawError):
            ControlProblem(base=base, B=np.eye(1), T=2.0, variant="pointwise",
                           U0=np.array([1.0]))

    def test_horizon_validation(self):
        with pytest.raises(PreconditionError):
            self.scalar_cp(T=-1.0)


class TestOneBlasThread:
    """The dense control entry points run on one OpenBLAS thread and hand the
    caller's thread count back."""

    @pytest.fixture
    def two_threads(self):
        from evoq import _blas

        threads = _blas.blas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS exposes no OpenBLAS thread setter")
        get, set_ = threads
        before = get()
        set_(2)
        yield get
        set_(before)

    @staticmethod
    def record_svd_threads(monkeypatch, get):
        svd = np.linalg.svd
        seen = []

        def recording_svd(*args, **kwargs):
            seen.append(get())
            return svd(*args, **kwargs)

        # np.linalg.norm(., 2) reaches the implementation module's binding
        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(np.linalg._linalg, "svd", recording_svd)
        return seen

    @pytest.mark.parametrize("command", [["control"], ["control", "--certify-duality"]],
                             ids=["control", "certify"])
    def test_every_svd_runs_on_one_thread(self, monkeypatch, tmp_path, two_threads,
                                          command):
        from evoq.cli import main

        seen = self.record_svd_threads(monkeypatch, two_threads)
        path = write_heat_control_config(tmp_path, "zero")
        assert main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert seen and set(seen) == {1}
        assert two_threads() == 2

    def test_count_restored_after_an_exception(self, two_threads):
        cp = ControlProblem(base=rotation_base(), B=np.eye(2), T=1.0)
        with pytest.raises(SizeGuardError):
            assemble_endmaps(cp, size_guard=10)
        assert two_threads() == 2

    def test_without_a_setter_calls_straight_through(self, monkeypatch, two_threads):
        from evoq import _blas

        monkeypatch.setattr(_blas, "blas_threads", lambda: None)
        seen = self.record_svd_threads(monkeypatch, two_threads)
        report = douglas_check(np.eye(3), np.eye(3))
        assert report.included and seen and set(seen) == {2}

    def test_control_output_does_not_depend_on_the_thread_count(self, tmp_path):
        # a wave k=4 (m=9), n=32, B = I cell; on two threads the unpinned
        # SVDs gave other last digits in every control output file
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        config = {
            "seed": 5, "nu": 1.0,
            "grid": {"t_min": -4.0, "t_max": 4.0, "n": 32, "padding_fraction": 0.25},
            "spatial": {"kind": "wave", "k": 4, "dx": 1.0, "T_elast": 2.0},
            "rhs": {"shape": "bump", "component": 0, "center": -1.0, "width": 1.2},
            "control": {"B": [[[float(i == j), 0.0] for j in range(9)] for i in range(9)],
                        "T": 1.0, "variant": "supported"},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.path.abspath(src),
                   "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "evoq.cli", "control", "--config", "cfg.json",
                 "--json", "--out", f"out{threads}"],
                cwd=tmp_path, env=env, capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            out = tmp_path / f"out{threads}"
            runs.append((proc.stdout, {p.name: p.read_bytes() for p in out.iterdir()}))
        (stdout1, files1), (stdout2, files2) = runs
        assert len(files1) == 6  # two signals (csv + json header) and two reports
        assert stdout1 == stdout2
        assert files1 == files2
