"""Material laws: evaluation, dual law, coercivity certificates and the
frequency-domain operators.

Oracles: naive power sums for evaluation, per-frequency dense eigensolves in
an explicit python loop for the certificate, repeated cumulative quadrature
for the operator identities.
"""

import numpy as np
import pytest

import evoq
from evoq import (
    NonCoerciveError,
    PoleError,
    PreconditionError,
    TimeGrid,
    adjoint_law,
    antiderivative,
    apply_material_op,
    coercivity,
    eval_law,
    finite_sum_law,
    nu_product,
    sampled_law,
)
from evoq.transform import grid_frequencies
from evoq.waveforms import bump_signal, random_signal


def random_law(rng, m=3, terms=3):
    return finite_sum_law([rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                           for _ in range(terms)])


def naive_power_sum(coeffs, z):
    return sum(z ** (-k) * c for k, c in enumerate(coeffs))


class TestEvalLaw:
    def test_constant_identity(self):
        law = finite_sum_law([np.eye(2)])
        assert np.array_equal(eval_law(law, 3.7 + 2j), np.eye(2))

    def test_two_term_diagonal(self):
        law = finite_sum_law([np.diag([1.0, 0.0]), np.diag([0.0, 2.0])])
        assert np.allclose(eval_law(law, 2.0), np.diag([1.0, 1.0]))

    def test_against_naive_power_sum(self):
        rng = np.random.default_rng(0)
        law = random_law(rng, m=4, terms=5)
        for z in (1.5 + 0.4j, -0.3 + 2.0j, 7.0):
            expected = naive_power_sum(law.coeffs, z)
            assert np.abs(eval_law(law, z) - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_pole_at_zero(self):
        law = finite_sum_law([np.eye(1), np.eye(1)])
        with pytest.raises(PoleError):
            eval_law(law, 0.0)

    def test_sampled_region_enforced(self):
        law = sampled_law(lambda z: np.eye(2) / z, m=2, nu0=0.5)
        eval_law(law, 1.0 + 5j)
        with pytest.raises(PreconditionError):
            eval_law(law, 0.1)


class TestAdjointLaw:
    def test_coefficients_conjugate_transposed(self):
        law = finite_sum_law([np.array([[0.0, 1.0], [0.0, 0.0]])])
        dual = adjoint_law(law)
        assert np.array_equal(dual.coeffs[0], np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_hermitian_coefficients_fixed(self):
        herm = np.array([[2.0, 1.0 - 1j], [1.0 + 1j, 3.0]])
        law = finite_sum_law([herm, np.eye(2)])
        dual = adjoint_law(law)
        assert np.array_equal(dual.coeffs[0], herm)
        assert np.array_equal(dual.coeffs[1], np.eye(2))

    def test_eval_identity_at_complex_points(self):
        rng = np.random.default_rng(1)
        law = random_law(rng)
        dual = adjoint_law(law)
        for z in (1.3 + 0.7j, 2.0 - 1.1j):
            expected = eval_law(law, z).conj().T
            assert np.abs(eval_law(dual, z) - expected).max() <= 1e-14

    def test_involution(self):
        rng = np.random.default_rng(2)
        law = random_law(rng)
        twice = adjoint_law(adjoint_law(law))
        z = 0.9 + 0.3j
        assert np.abs(eval_law(twice, z) - eval_law(law, z)).max() == 0.0
        assert twice.nu0 == law.nu0

    def test_sampled_wrapping(self):
        law = sampled_law(lambda z: np.array([[z, 1.0], [0.0, 2.0]]), m=2, nu0=0.0)
        dual = adjoint_law(law)
        z = 1.0 + 2j
        assert np.abs(eval_law(dual, z) - eval_law(law, z).conj().T).max() == 0.0
        assert dual.nu0 == law.nu0


class TestCoercivity:
    def test_identity_law_constant_nu(self):
        grid = TimeGrid(-2.0, 2.0, 128)
        cert = coercivity(finite_sum_law([np.eye(3)]), 1.7, grid)
        assert cert.c_est == pytest.approx(1.7, rel=1e-12)
        assert cert.sample_count == 128

    def test_heat_law_closed_form_and_loop_eigensolve(self):
        a = 4.0
        m0 = np.diag([1.0, 0.0])
        m1 = np.diag([0.0, 1.0 / a])
        law = finite_sum_law([m0, m1])
        grid = TimeGrid(-2.0, 2.0, 64)
        nu = 1.0
        cert = coercivity(law, nu, grid)
        assert cert.c_est == pytest.approx(min(nu, 1.0 / a), rel=1e-12)
        # independent oracle: plain loop over frequencies
        worst = np.inf
        for xi in grid_frequencies(grid):
            z = 1j * xi + nu
            block = z * (m0 + m1 / z)
            lam = np.linalg.eigvalsh(0.5 * (block + block.conj().T))[0]
            worst = min(worst, lam)
        assert cert.c_est == pytest.approx(worst, rel=1e-12)

    def test_negative_definite_rejected_with_location(self):
        grid = TimeGrid(-2.0, 2.0, 64)
        with pytest.raises(NonCoerciveError) as err:
            coercivity(finite_sum_law([-np.eye(2)]), 1.0, grid)
        assert err.value.min_location is not None

    def test_inadmissible_weight(self):
        grid = TimeGrid(-2.0, 2.0, 64)
        law = finite_sum_law([np.eye(2)], nu0=2.0)
        with pytest.raises(PreconditionError):
            coercivity(law, 1.0, grid)
        with pytest.raises(PreconditionError):
            coercivity(law, -1.0, grid)

    def test_dual_law_certificate_agrees_for_real_coefficients(self):
        # forward integrand at -xi equals the dual integrand at xi when the
        # coefficients are real, so the grid minima coincide
        rng = np.random.default_rng(3)
        m0 = rng.standard_normal((3, 3))
        m0 = m0 @ m0.T + 3 * np.eye(3)
        m1 = rng.standard_normal((3, 3))
        law = finite_sum_law([m0, m1])
        grid = TimeGrid(-2.0, 2.0, 128)
        nu = 2.0
        try:
            cert = coercivity(law, nu, grid)
        except NonCoerciveError:
            pytest.skip("draw not coercive; irrelevant to the identity")
        cert_dual = coercivity(adjoint_law(law), nu, grid)
        assert cert_dual.c_est == pytest.approx(cert.c_est, rel=1e-12)


class TestMaterialOperators:
    def test_identity_law_is_identity(self):
        g = TimeGrid(-2.0, 2.0, 64)
        sig = random_signal(g, 1.0, 2, np.random.default_rng(4))
        out = apply_material_op(finite_sum_law([np.eye(2)]), sig)
        assert np.abs(out.phi - sig.phi).max() <= 1e-13

    def test_pure_memory_term_on_eigenfunction(self):
        g = TimeGrid(-2.0, 2.0, 128)
        nu = 1.0
        omega = 2.0 * np.pi * 7 / (g.n * g.dt)
        phi = np.exp(1j * omega * g.times)
        law = finite_sum_law([np.zeros((1, 1)), np.eye(1)])
        out = apply_material_op(law, evoq.WeightedSignal(g, nu, phi))
        expected = phi / (1j * omega + nu)
        assert np.abs(out.phi[:, 0] - expected).max() <= 1e-12

    def test_finite_sum_against_antiderivative_path(self):
        # M0 f + running-integral(M1 f) against the spectral multiplier
        g = TimeGrid(-8.0, 8.0, 1024)
        nu = 2.0
        rng = np.random.default_rng(5)
        m0 = rng.standard_normal((2, 2))
        m1 = rng.standard_normal((2, 2))
        law = finite_sum_law([m0, m1])
        f = bump_signal(g, nu, 2, component=0, center=0.0, width=1.0) \
            + bump_signal(g, nu, 2, component=1, center=0.5, width=1.0)
        spectral = apply_material_op(law, f)
        quadrature = f.with_phi(f.phi @ m0.T) + antiderivative(f.with_phi(f.phi @ m1.T))
        gap = (spectral - quadrature).norm / spectral.norm
        assert gap <= 2e-4  # wrap-around of the periodic kernel plus O(dt^2)

    def test_adjoint_op_identity_law(self):
        g = TimeGrid(-2.0, 2.0, 64)
        sig = random_signal(g, -1.0, 2, np.random.default_rng(6))
        out = apply_material_op(finite_sum_law([np.eye(2)]), sig)
        assert np.abs(out.phi - sig.phi).max() <= 1e-13

    def test_adjoint_op_alternating_antiderivative_path(self):
        # on the opposite weight the memory term integrates anticausally
        # with an alternating sign per power
        g = TimeGrid(-8.0, 8.0, 1024)
        nu = 2.0
        rng = np.random.default_rng(7)
        m0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        law = finite_sum_law([m0, m1])
        gsig = bump_signal(g, -nu, 2, component=0, center=0.0, width=1.0)
        direct = apply_material_op(law, gsig)
        quadrature = gsig.with_phi(gsig.phi @ np.conj(m0)) \
            - antiderivative(gsig.with_phi(gsig.phi @ np.conj(m1)))
        gap = (direct - quadrature).norm / direct.norm
        assert gap <= 2e-4

    def test_pairing_identity(self):
        g = TimeGrid(-4.0, 4.0, 256)
        rng = np.random.default_rng(8)
        law = random_law(rng, m=3, terms=2)
        worst = 0.0
        for _ in range(10):
            f = random_signal(g, 1.0, 3, rng)
            h = random_signal(g, -1.0, 3, rng)
            lhs = nu_product(apply_material_op(law, f), h)
            rhs = nu_product(f, apply_material_op(law, h))
            worst = max(worst, abs(lhs - rhs) / (f.norm * h.norm))
        assert worst <= 1e-10

    def test_multiplier_norms_symmetric(self):
        # per frequency the two multipliers are conjugate transposes, so
        # their largest singular values agree bin by bin
        g = TimeGrid(-2.0, 2.0, 64)
        rng = np.random.default_rng(9)
        law = random_law(rng, m=3, terms=3)
        nu = 1.0
        from evoq.material import eval_law_many
        z = 1j * grid_frequencies(g) + nu
        fwd = eval_law_many(law, z)
        dual = eval_law_many(adjoint_law(law), z)
        for k in range(g.n):
            s1 = np.linalg.norm(fwd[k], 2)
            s2 = np.linalg.norm(dual[k], 2)
            assert s2 == pytest.approx(s1, rel=1e-12)

    def test_weight_below_declared_bound_rejected(self):
        g = TimeGrid(-2.0, 2.0, 64)
        law = finite_sum_law([np.eye(1)], nu0=3.0)
        sig = random_signal(g, 1.0, 1, np.random.default_rng(10))
        with pytest.raises(PreconditionError):
            apply_material_op(law, sig)
