"""Spatial blocks: skewness checking and the three builder stencils."""

import numpy as np
import pytest

import evoq
from evoq import (
    DefinitenessError,
    NonCoerciveError,
    NotSkewError,
    TimeGrid,
    build_heat_block,
    build_maxwell_block,
    build_wave_block,
    check_skew,
    coercivity,
    nu_product,
)
from evoq.waveforms import random_signal


class TestCheckSkew:
    def test_accepts_rotation(self):
        op = check_skew(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert op.m == 2

    def test_rejects_symmetric_part(self):
        with pytest.raises(NotSkewError) as err:
            check_skew(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert err.value.entry == (0, 0)

    def test_construction_forces_skewness(self):
        rng = np.random.default_rng(0)
        D = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        check_skew(D - D.conj().T)

    def test_lifted_pairing_adjoint_is_negation(self):
        # <A f, g> = <f, -A g> across opposite weights
        op = check_skew(np.array([[0.0, -2.0], [2.0, 0.0]]))
        g = TimeGrid(-2.0, 2.0, 64)
        rng = np.random.default_rng(1)
        f = random_signal(g, 1.0, 2, rng)
        h = random_signal(g, -1.0, 2, rng)
        lhs = nu_product(f.with_phi(f.phi @ op.A.T), h)
        rhs = nu_product(f, h.with_phi(h.phi @ (-op.A).T))
        assert abs(lhs - rhs) <= 1e-12 * f.norm * h.norm


class TestHeatBlock:
    def test_k1_stencil(self):
        op, law = build_heat_block(1, 1.0, dx=1.0)
        expected = np.array([
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
            [-1.0, 1.0, 0.0],
        ])
        assert np.allclose(op.A, expected)
        assert np.allclose(law.coeffs[0], np.diag([1.0, 1.0, 0.0]))
        assert np.allclose(law.coeffs[1], np.diag([0.0, 0.0, 1.0]))

    def test_certificate_min_nu_inverse_a(self):
        _, law = build_heat_block(3, 2.0)
        grid = TimeGrid(-2.0, 2.0, 64)
        cert = coercivity(law, 1.0, grid)
        assert cert.c_est == pytest.approx(min(1.0, 0.5), rel=1e-12)

    def test_random_spd_conductivity_is_skew(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 8))
        a = a @ a.T + 8 * np.eye(8)
        op, _ = build_heat_block(8, a)
        check_skew(op.A)

    def test_nonpositive_conductivity_rejected(self):
        with pytest.raises(DefinitenessError):
            build_heat_block(2, -1.0)


class TestWaveBlock:
    def test_k1_stencil_shape(self):
        op, law = build_wave_block(1, 1.0, dx=1.0)
        # state is (v in C^1, sigma in C^2); grad0 = D0 sits negated in the
        # lower left, div = -D0^T negated in the upper right
        D0 = np.array([[1.0], [-1.0]])
        expected = np.block([
            [np.zeros((1, 1)), D0.T],
            [-D0, np.zeros((2, 2))],
        ])
        assert np.allclose(op.A, expected)
        assert law.order == 0

    def test_certificate_scaling(self):
        t_elast = 2.0
        _, law = build_wave_block(3, t_elast)
        cert = coercivity(law, 1.5, TimeGrid(-2.0, 2.0, 64))
        assert cert.c_est == pytest.approx(1.5 * min(1.0, 1.0 / t_elast), rel=1e-12)

    def test_skew_random_spd_tensor(self):
        rng = np.random.default_rng(3)
        T = rng.standard_normal((5, 5))
        T = T @ T.T + 5 * np.eye(5)
        op, _ = build_wave_block(4, T)
        check_skew(op.A)

    def test_non_hermitian_tensor_rejected(self):
        with pytest.raises(DefinitenessError):
            build_wave_block(2, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_a_T_elast_that_leaves_the_wave_block_singular_is_refused(self):
        # the constant stress field lies in A's null space, so at z = nu the
        # wave block sees only nu T_elast^-1 on it, and from eps times A's
        # largest column norm, 3.1e-16 at dx = 1, down it is singular in
        # doubles; a finer dx raises that floor
        for T_elast, dx in ((1e20, 1.0), (1e16, 1.0), (1.0, 1e-200), (1.0, 1e-17)):
            with pytest.raises(DefinitenessError, match=r"^T_elast leaves the wave block"):
                build_wave_block(4, T_elast, dx=dx, nu=1.0)
        build_wave_block(4, 1e15, nu=1.0)
        build_wave_block(4, 1e20)  # no weight, no certificate


class TestMaxwellBlock:
    def test_identity_coefficients_certificate(self):
        _, law = build_maxwell_block(2, 1.0, 1.0, 0.0)
        cert = coercivity(law, 1.2, TimeGrid(-2.0, 2.0, 64))
        assert cert.c_est == pytest.approx(1.2, rel=1e-12)

    def test_conductivity_strengthens_electric_block_only(self):
        # with sigma = I the electric sub-block bound is nu + 1 while the
        # magnetic one stays at nu, so the full certificate reports nu
        k, nu = 2, 1.0
        _, law = build_maxwell_block(k, 1.0, 1.0, 1.0)
        cert = coercivity(law, nu, TimeGrid(-2.0, 2.0, 64))
        assert cert.c_est == pytest.approx(nu, rel=1e-12)
        m0, m1 = law.coeffs
        electric = nu * m0[:k, :k] + 0.5 * (m1[:k, :k] + m1[:k, :k].conj().T)
        assert np.linalg.eigvalsh(electric)[0] == pytest.approx(nu + 1.0, rel=1e-12)

    def test_a_mu_that_leaves_the_block_singular_is_refused(self):
        # the constant magnetic field is curl-free, so at z = nu the block
        # sees only nu mu on it; at mu = 1e-200 LU meets an exactly zero
        # pivot, and from eps times A's largest column norm, 3.1e-16, down
        # the block is singular in doubles.  A tiny eps stays: the curl
        # reaches every electric field
        from evoq.errors import DefinitenessError

        for mu in (1e-200, 1e-17, 1e-16):
            with pytest.raises(DefinitenessError, match=r"^mu leaves the maxwell block"):
                build_maxwell_block(4, 1.0, mu, 0.5, nu=1.0)
        build_maxwell_block(4, 1.0, 1e-15, 0.5, nu=1.0)
        build_maxwell_block(4, 1e-200, 1.0, 0.0, nu=1.0)
        build_maxwell_block(4, 1.0, 1e-200, 0.5)  # no weight, no certificate

    def test_random_admissible_triple_is_skew(self):
        rng = np.random.default_rng(4)
        k = 5
        eps = rng.standard_normal((k, k))
        eps = eps @ eps.T + k * np.eye(k)
        mu = rng.standard_normal((k + 1, k + 1))
        mu = mu @ mu.T + (k + 1) * np.eye(k + 1)
        sigma = rng.standard_normal((k, k))
        op, _ = build_maxwell_block(k, eps, mu, sigma, nu=5.0)
        check_skew(op.A)

    def test_certificate_failure_raises(self):
        with pytest.raises(NonCoerciveError):
            build_maxwell_block(2, 1.0, 1.0, -10.0, nu=1.0)


class TestBuilderPairs:
    @pytest.mark.parametrize("builder,args", [
        (build_heat_block, (4, 2.0)),
        (build_wave_block, (4, 2.0)),
        (build_maxwell_block, (4, 1.0, 1.0, 0.5)),
    ])
    def test_every_builder_output_is_skew(self, builder, args):
        op, law = builder(*args)
        defect = np.abs(op.A + op.A.conj().T).max()
        assert defect <= 1e-12 * (1 + np.abs(op.A).max())
        assert op.m == 2 * args[0] + 1
        assert law.m == op.m
