"""Null control: range checks, end maps, synthesis, observability and the
pointwise variant.

Oracles: construct-then-recover factorisations, closed-loop re-solves with
the synthesised control, closed-form decay trajectories, and direct impulse
solves against the assembled columns.
"""

import json
import math
import os
import random
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evoq
from evoq import (
    ConsistencyError,
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
from evoq._blas import one_blas_thread
from evoq.acceptance import _control_instances
from evoq.control import _b_svd, _bracket, _time_major
from evoq.solver import DEFAULT_PAD_FRACTION, SpectralOperator
from evoq.waveforms import bump_signal, random_signal

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def write_heat_control_config(tmp_path, injection):
    """A heat k=2 (m=5), n=32 supported-control config with B = I, e1 or 0."""
    B = {"I": np.eye(5), "e1": np.eye(5)[:, :1], "zero": np.zeros((5, 1))}[injection]
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


def write_benchmark_heat_config(tmp_path, injection):
    """A heat config by the dense-control benchmark's recipe at n = 32: grid
    [-8, 8), k = 4 (m = 9) and T just below 2, so 12 samples lie at or
    after the horizon; B = I, e1 or 0."""
    m = 9
    B = {"I": np.eye(m), "e1": np.eye(m)[:, :1], "zero": np.zeros((m, 1))}[injection]
    config = {
        "seed": 17, "nu": 1.3,
        "grid": {"t_min": -8.0, "t_max": 8.0, "n": 32, "padding_fraction": 0.25},
        "spatial": {"kind": "heat", "k": 4, "dx": 1.0, "a": 2.2},
        "rhs": {"shape": "bump", "component": 4, "center": -1.2, "width": 1.3,
                "amplitude": 1.1},
        "control": {"B": [[[float(v), 0.0] for v in row] for row in B],
                    "T": 1.9, "variant": "supported"},
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
        assert rep.factor_residual <= 1e-10 * np.linalg.norm(B @ R, 2)

    def test_included_witness_attains_the_constant_from_one_svd(self, monkeypatch):
        # the extremal datum of the adjoint domination ||A^* x|| <= c ||B^* x||;
        # over the check and both reads, the SVDs are B's (9 x 4) and one thin
        # SVD of the core (4 x 6), which gives the constant, and no exact
        # 2-norm runs: a domination probe that the core's Frobenius bracket
        # leaves open is decided by the exact constant, not ||A||_2 as well.
        rng = np.random.default_rng(1)
        B = crandn(rng, 9, 4)
        A = B @ crandn(rng, 4, 6)
        with monkeypatch.context() as patch:
            calls = count_svds(patch)
            rep = douglas_check(A, B)
            constant, x = rep.constant, rep.witness
        assert rep.included
        assert calls == [((9, 4), False), ((4, 6), False)]
        assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(A.conj().T @ x) == pytest.approx(
            constant * np.linalg.norm(B.conj().T @ x), rel=1e-10)

    def test_an_excluded_pair_takes_no_core_svd(self, monkeypatch):
        # criterion 7's shapes: A = B R + u w^* with u orthogonal to ran(B).
        # Every ball probe misses A y by the mass outside ran(B), so the ball
        # family fails on its largest miss and never reads the radius, whose
        # exact value is the 6 x 4 core's SVD: B's SVD is the only one
        rng = np.random.default_rng(707)
        B = crandn(rng, 10, 6)
        A = B @ crandn(rng, 6, 4) + np.outer(np.linalg.svd(B)[0][:, -1], crandn(rng, 4))
        with monkeypatch.context() as patch:
            calls = count_svds(patch)
            rep = douglas_check(A, B, rng=rng)
        assert not rep.included
        assert set(rep.conditions.values()) == {False}
        assert calls == [((10, 6), False)]

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

    @pytest.mark.parametrize("included", [True, False], ids=["included", "excluded"])
    def test_probes_leave_the_generator_where_the_reference_does(self, included):
        # acceptance criterion 7 draws its next pair from the generator the
        # check used: 8 (re, im) draws of width cols, then 8 of width rows,
        # however the probes are applied
        rng = np.random.default_rng(6)
        B = crandn(rng, 9, 4)
        A = B @ crandn(rng, 4, 7)
        if not included:
            A[:, 0] += np.linalg.svd(B)[0][:, -1]
        ours, reference = np.random.default_rng(21), np.random.default_rng(21)
        rep = douglas_check(A, B, rng=ours)
        verdict = exact_douglas(A, B, np.linalg.svd(B, full_matrices=False), reference)[0]
        assert rep.included is verdict is included
        assert ours.bit_generator.state == reference.bit_generator.state

    def test_a_wide_included_pair_forms_no_factor(self):
        # C = B^+ A is 600 x 600 complex, 5.8 MB; the check and its constant
        # never form it
        import tracemalloc

        rng = np.random.default_rng(9)
        B = crandn(rng, 4, 600)
        A = B @ crandn(rng, 600, 600)
        tracemalloc.start()
        try:
            rep = douglas_check(A, B)
            assert rep.included and rep.constant > 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


@one_blas_thread
def exact_douglas(Amat, Bmat, svd_b, rng=None):
    """Reference: the range-inclusion check with every threshold decided on
    exact 2-norms, the explicit factor C and product B C, one probe at a
    time, and the witness taken from an SVD of the mass outside ran(B), on
    one BLAS thread as in every caller of `_douglas`.  Returns
    (included, conditions, constant, factor_residual) or raises the same
    ConsistencyError: the constant is the top singular value of the core's
    thin SVD, and the residual reported is ||A - U_r U_r^* A||_2, the mass
    outside ran(B), while `factorization` is judged on the explicit product
    with the raw B."""
    from evoq.control import _INCLUSION_RTOL, _PROBES, _finite_solution, _norm, _truncation

    Amat = np.atleast_2d(np.asarray(Amat, dtype=complex))
    rng = rng or np.random.default_rng(0)
    Ub, sb, Vbh = svd_b
    rank_b = _truncation(sb, 1e-10)[2]
    Ur = Ub[:, :rank_b]
    outside = Amat - Ur @ (Ur.conj().T @ Amat)
    scale = max(float(np.linalg.norm(Amat, 2)), 1e-300)
    included = float(np.linalg.norm(outside, 2)) <= _INCLUSION_RTOL * scale
    conditions = {"range_inclusion": included}
    core = (Ur.conj().T @ Amat) / sb[:rank_b, None]
    Vr = Vbh[:rank_b].conj().T
    factor = _finite_solution(Vr @ core, sb[:rank_b])
    conditions["factorization"] = float(np.linalg.norm(Amat - Bmat @ factor, 2)) <= 1e-10 * scale
    factor_residual = float(np.linalg.norm(outside, 2))
    constant = float(np.linalg.svd(core, full_matrices=False)[1][0]) if core.size else 0.0
    ball_ok = True
    for _ in range(_PROBES):
        y = rng.standard_normal(Amat.shape[1]) + 1j * rng.standard_normal(Amat.shape[1])
        y /= np.linalg.norm(y)
        g = factor @ y
        ball_ok &= _norm(Bmat @ g - Amat @ y) <= _INCLUSION_RTOL * scale
        ball_ok &= _norm(g) <= constant * (1 + 1e-8) + 1e-12
    conditions["ball_inclusion"] = bool(ball_ok)
    dom_ok = True
    for _ in range(_PROBES):
        x = rng.standard_normal(Amat.shape[0]) + 1j * rng.standard_normal(Amat.shape[0])
        lhs = _norm(Amat.conj().T @ x)
        rhs = _norm(Bmat.conj().T @ x)
        dom_ok &= lhs <= constant * rhs * (1 + 1e-8) + _INCLUSION_RTOL * scale * np.linalg.norm(x)
    if not included:
        witness = np.linalg.svd(outside, full_matrices=False)[0][:, 0]
        lhs = _norm(Amat.conj().T @ witness)
        rhs = _norm(Bmat.conj().T @ witness)
        conditions["adjoint_domination"] = not (
            lhs > constant * rhs * (1 + 1e-8) + _INCLUSION_RTOL * scale)
    else:
        conditions["adjoint_domination"] = bool(dom_ok)
    if len(set(conditions.values())) != 1:
        raise ConsistencyError(f"the four range-inclusion conditions disagree: {conditions}")
    return included, conditions, constant, factor_residual


def backward_end_maps(cp, pad_fraction):
    """(K1, K2), the reference backward end maps of a supported control
    problem: K1 maps a backward datum supported at or after T (columns,
    n_post*m) to the backward solution (rows n*m), K2 to its B^*-filtered
    observation (rows n*q).  Cut from backward impulse solves of the
    nu-adjoint system, independently of the primal maps whose adjoints they
    are."""
    base = cp.base
    n, m = base.grid.n, base.A.m
    post = base.grid.index_at_or_after(cp.T)
    op = SpectralOperator(base.law, base.A, base.nu, base.grid, pad_fraction)
    impulse = np.zeros((n, m, m), dtype=complex)
    impulse[0] = np.eye(m)
    kernel = op.padded_solve(impulse, False)
    # a circulant on the padded grid: the block for padded row npad+r and
    # padded source npad+c sits at kernel index (npad + r - c) mod N
    rows, cols = np.arange(n), post + np.arange(n - post)
    backward = kernel[(op.npad + rows[:, None] - cols[None, :]) % op.pad_grid.n]
    return (_time_major(backward),
            _time_major(np.einsum("kl,ipkj->iplj", np.conj(cp.B), backward)))


@one_blas_thread
def full_route_observability(K1, K2):
    """Reference: c_obs on the backward maps K1, K2 of `backward_end_maps`,
    with every SVD taken on one BLAS thread: +inf when K1 sees the kernel of
    K2 beyond 1e-8 ||K1||_2, else the largest generalized singular value of
    the pair, the top singular value of K1 on K2's whitened co-kernel."""
    _, s2, V2h = np.linalg.svd(K2, full_matrices=True)
    r = int(np.sum(s2 > (s2[0] * 1e-10 if s2.size else 0.0)))
    if r < V2h.shape[0]:
        blind = K1 @ V2h[r:].conj().T
        if np.linalg.norm(blind, 2) > 1e-8 * max(float(np.linalg.norm(K1, 2)), 1e-300):
            return math.inf
    whiten = V2h[:r].conj().T / s2[:r][None, :]
    return float(np.linalg.svd(K1 @ whiten, compute_uv=False)[0])


def same_outputs_configs(prefix):
    """(label, config) of each command of `tools/same_outputs.py` whose
    label starts with `prefix`."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "same_outputs", os.path.join(os.path.dirname(__file__), "..", "tools",
                                     "same_outputs.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return [(label, config) for label, argv, config in tool.default_commands()
            if label.startswith(prefix)]


def desk_problems(tmp_path):
    """(label, control problem, pad fraction) of the 18 dense configs
    `tools/same_outputs.py` runs and of the acceptance suite's control
    instances."""
    from evoq.config import load_config

    dense = same_outputs_configs("control/dense-")
    assert len(dense) == 18
    for label, config in dense:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        cfg = load_config(str(path))
        yield label, cfg.control, cfg.pad_fraction
    for inst, B, label in _control_instances():
        rhs = random_signal(inst.grid, inst.nu, inst.m, np.random.default_rng(8))
        cp = ControlProblem(base=EvoProblem(inst.nu, inst.grid, inst.law, inst.A,
                                            rhs, "forward"), B=B, T=1.0)
        yield label, cp, inst.pad_fraction


def desk_end_maps(tmp_path):
    """(label, end maps, reference backward maps (K1, K2), B) of each of
    `desk_problems`."""
    for label, cp, pad_fraction in desk_problems(tmp_path):
        yield (label, assemble_endmaps(cp, pad_fraction),
               backward_end_maps(cp, pad_fraction), cp.B)


def count_svds(monkeypatch):
    """Record (shape, exact 2-norm?) of every SVD; np.linalg.norm(., 2) is an
    SVD without vectors through the implementation module's binding."""
    svd = np.linalg.svd
    calls = []

    def counting_svd(a, *args, **kwargs):
        calls.append((a.shape, kwargs.get("compute_uv", True) is False))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg._linalg, "svd", counting_svd)
    return calls


@pytest.fixture
def two_threads():
    """The OpenBLAS numpy loaded set to two threads for the test; yields its
    thread-count getter."""
    from evoq import _blas

    threads = _blas.blas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread setter")
    get, set_ = threads
    before = get()
    set_(2)
    yield get
    set_(before)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unit(v):
    return v / np.linalg.norm(v)


def outside_mass(seed, rows, relative, b_scale, r_scale):
    """(A, B), square A = B R plus a rank-one part of 2-norm `relative` times
    ||B R||_2, orthogonal to ran(B)."""
    rng = np.random.default_rng(seed)
    B = b_scale * crandn(rng, rows, 4)
    A = B @ crandn(rng, 4, rows) * r_scale
    u = np.linalg.svd(B)[0][:, -1]
    w = crandn(rng, rows)
    return A + relative * np.linalg.norm(A, 2) * np.outer(u, unit(w).conj()), B


def douglas_outcome(A, B):
    """(included, conditions) of `_douglas`, or the ConsistencyError message."""
    from evoq.control import _douglas, _svd

    try:
        rep = _douglas(A, _svd(B))
    except ConsistencyError as exc:
        return str(exc)
    return rep.included, rep.conditions


def exact_outcome(A, B):
    try:
        return exact_douglas(A, B, np.linalg.svd(B, full_matrices=False))[:2]
    except ConsistencyError as exc:
        return str(exc)


class TestNormBrackets:
    """Every threshold on a 2-norm is decided from cheap bounds, and the
    verdicts are those of the exact norms."""

    def test_desk_verdicts_match_exact_norms_without_any(self, monkeypatch, tmp_path):
        from evoq.control import ObservabilityEstimate, _douglas

        verdicts = set()
        for label, maps, backward, _ in desk_end_maps(tmp_path):
            svd_g = maps._svd_G
            assert svd_g[3] == 0, label  # the reference takes the SVD of L_G itself
            reference = exact_douglas(maps.L_F, maps.L_G, svd_g[:3])
            blind = math.isinf(full_route_observability(*backward))
            with monkeypatch.context() as patch:
                calls = count_svds(patch)
                rep = one_blas_thread(_douglas)(maps.L_F, svd_g)
                finite = ObservabilityEstimate(maps).finite
            # no exact 2-norm anywhere and no SVD of the mass outside
            # ran(L_G); the observability verdict is that check's own, and
            # the reference backward maps reach it independently
            assert calls == [], label
            assert (rep.included, rep.conditions) == reference[:2], label
            assert finite == rep.included != blind, label
            if rep.included:  # exact when read, to the bit
                assert (rep.constant, rep.factor_residual) == reference[2:], label
            verdicts.add(rep.included)
        assert verdicts == {True, False}

    def test_threshold_takes_its_exact_arguments_one_at_a_time(self):
        # c + s with c in [0, 2] (exactly 1) and s in [0.5, 1] (exactly 0.75):
        # the bounds [0.5, 3] decide 0.4 and 3.1, c's exact value narrows them
        # to [1.5, 2], which decides 1.5 and 2.1 without s's, and 1.7 and 1.8,
        # still open there, take s's as well
        from evoq.control import _at_most, _Norm

        def norms(read):
            def arg(name, lo, hi, exact):
                return _Norm(lo, hi, lambda: read.append(name) or exact)
            return arg("c", 0.0, 2.0, 1.0), arg("s", 0.5, 1.0, 0.75)

        for value, verdict, reads in [(0.4, True, []), (3.1, False, []),
                                      (1.5, True, ["c"]), (2.1, False, ["c"]),
                                      (1.7, True, ["c", "s"]), (1.8, False, ["c", "s"])]:
            read = []
            assert _at_most(value, lambda c, s: c + s, *norms(read)) is verdict, value
            assert read == reads, value

    @pytest.mark.parametrize("seed, rows, relative, b_scale, r_scale, verdict", [
        (1, 40, 5e-8, 1.0, 0.1, False),     # ||outside||_2 just above 1e-8 scale
        (5, 10, 7e-11, 0.1, 10.0, True),    # ||A - BC||_2 just below 1e-10 scale
        (1, 40, 5e-9, 1.0, 0.1, "raises"),  # inside ran(B) by one rung, not the other
    ])
    def test_straddled_threshold_takes_the_exact_norm(self, monkeypatch, seed, rows,
                                                      relative, b_scale, r_scale,
                                                      verdict):
        A, B = outside_mass(seed, rows, relative, b_scale, r_scale)
        expected = exact_outcome(A, B)
        with monkeypatch.context() as patch:
            calls = count_svds(patch)
            outcome = douglas_outcome(A, B)
        assert outcome == expected
        assert any(norm for _, norm in calls)
        if verdict == "raises":
            assert "disagree" in outcome
        else:
            assert outcome[0] is verdict and set(outcome[1].values()) == {verdict}

    @pytest.mark.parametrize("relative", [0.5e-10, 0.9e-10, 1.1e-10, 2e-10])
    @pytest.mark.parametrize("spread", [False, True], ids=["conditioned", "graded"])
    def test_verdicts_near_the_factorization_rung_match_the_explicit_product(
            self, spread, relative):
        # ||A - B B^+ A||_2 = relative ||A||_2, on either side of the rung
        # 1e-10 ||A||_2 at which `factorization` is judged on the mass
        # outside ran(B), A - U_r U_r^* A; the reference judges the explicit
        # product A - B (V_r core) with the raw B.
        # Below 1e-8 the range inclusion holds, so the pairs above the rung
        # raise for disagreeing conditions.  B as the equal-maps test builds it
        rng = np.random.default_rng(12)
        B = crandn(rng, 12, 6)
        if spread:
            U, _, Vh = np.linalg.svd(B, full_matrices=False)
            B = U @ np.diag(np.logspace(0, -9, 6)) @ Vh
        A = B @ crandn(rng, 6, 9)
        U = np.linalg.svd(B)[0]
        A = A + relative * np.linalg.norm(A, 2) * np.outer(U[:, -1], unit(crandn(rng, 9)).conj())
        Ur = U[:, :6]
        mass = np.linalg.norm(A - Ur @ (Ur.conj().T @ A), 2) / np.linalg.norm(A, 2)
        assert mass == pytest.approx(relative, rel=1e-4)
        expected = exact_outcome(A, B)
        assert douglas_outcome(A, B) == expected
        if relative < 1e-10:
            assert expected[0] is True
        else:
            assert "disagree" in expected

    @pytest.mark.parametrize("spread", [False, True], ids=["conditioned", "graded"])
    def test_equal_maps_decide_the_tight_constant_from_bounds(self, monkeypatch, spread):
        # A = B: C projects onto ran(B^*), ||C||_2 = 1, and adjoint domination
        # ||A^* x|| <= c ||B^* x|| (1 + 1e-8) is tight; graded singular values
        # down to 1e-9 leave rows of the core off unit length by about 1e-8, so
        # the Frobenius bracket of the 6 x 6 core leaves c open and its thin
        # SVD is the one SVD besides B's
        rng = np.random.default_rng(12)
        B = crandn(rng, 12, 6)
        if spread:
            U, _, Vh = np.linalg.svd(B, full_matrices=False)
            B = U @ np.diag(np.logspace(0, -9, 6)) @ Vh
        expected = exact_outcome(B, B)
        with monkeypatch.context() as patch:
            calls = count_svds(patch)
            rep = douglas_check(B, B)
        assert (rep.included, rep.conditions) == expected
        core_svd = [((6, 6), False)] if spread else []
        assert rep.included and calls == [((12, 6), False)] + core_svd
        assert rep.constant == pytest.approx(1.0, rel=1e-6)

    def test_weak_largest_column_falls_back_to_the_svd_witness(self, monkeypatch):
        # A = B R plus two directions outside ran(B): u1 spread thinly over
        # every column but the first (4e-7 ||B R||_2), and u2 filling column 0
        # alone (9.5e-9 ||B R||_2).  Column 0 is the largest column of the
        # outside mass, but ||A^* u2|| stays under the 1e-8 ||A||_2 rung, so
        # it does not defeat the constant; the top singular vector of the
        # outside mass, u1, does.  With probe seeds 0, 1 or 3 every ball probe
        # misses the thin mass by less than the rung, and the check raises
        rng = np.random.default_rng(2)
        rows, cols = 10, 2000
        B = crandn(rng, rows, 4)
        U = np.linalg.svd(B)[0]
        A = B @ crandn(rng, 4, cols)
        scale = np.linalg.norm(A, 2)
        spread = np.ones(cols)
        spread[0] = 0.0
        A += 4e-7 * scale * np.outer(U[:, 4], unit(spread))
        A[:, 0] += 9.5e-9 * scale * U[:, 5]
        for probes in (2, 4, 5):
            expected = exact_douglas(A, B, np.linalg.svd(B, full_matrices=False),
                                     np.random.default_rng(probes))[:2]
            with monkeypatch.context() as patch:
                calls = count_svds(patch)
                rep = douglas_check(A, B, rng=np.random.default_rng(probes))
            assert (rep.included, rep.conditions) == expected, probes
            assert not rep.included, probes
            assert ((rows, cols), False) in calls, probes  # the witness SVD
            assert abs(np.vdot(U[:, 4], rep.witness)) == pytest.approx(1.0, abs=1e-8), probes


def scale_pair(kind):
    """(A, B) of one kind, built as `outside_mass` builds them, and the
    verdict at scale 1."""
    if kind == "rank-deficient":  # B of rank 2 in 4 columns, A in its range
        rng = np.random.default_rng(3)
        B = crandn(rng, 12, 2) @ crandn(rng, 2, 4)
        return B @ crandn(rng, 4, 12), B, True
    relative = {"included": 0.0, "excluded": 1e-3}[kind]
    return (*outside_mass(2, 12, relative, 1.0, 1.0), kind == "included")


def normal_ldexp(x, k):
    """x * 2^k when that is a normal double, else None."""
    try:
        value = math.ldexp(x, k)
    except OverflowError:
        return None
    return value if abs(value) >= sys.float_info.min else None


class TestScaleInvariance:
    """The Douglas check scales A and B into range by powers of two, so its
    verdicts do not depend on the scale of the data, and its values scale
    exactly."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["included", "excluded", "rank-deficient"]),
           a=st.integers(-1000, 1000), b=st.integers(-1000, 1000))
    def test_powers_of_two_keep_every_verdict_and_scale_every_value(self, kind, a, b):
        A, B, verdict = scale_pair(kind)
        base = douglas_check(A, B)
        assert base.included is verdict and set(base.conditions.values()) == {verdict}
        sA, sB = A * 2.0 ** a, B * 2.0 ** b
        assert np.array_equal(sA * 2.0 ** -a, A) and np.array_equal(sB * 2.0 ** -b, B)
        rep = douglas_check(sA, sB)
        assert rep.included is base.included and rep.conditions == base.conditions
        if not verdict:
            assert np.array_equal(rep.witness, base.witness)
        elif (constant := normal_ldexp(base.constant, a - b)) is not None:
            assert rep.constant == constant
        if (cutoff := normal_ldexp(base.cutoff, b)) is not None:
            assert rep.cutoff == cutoff

    def test_entries_near_1e_160_take_the_scale_1_verdict(self):
        # the squares in ||.||_F underflow there; the excluded pair above,
        # scaled by 1e-160, which is no power of two
        A, B = outside_mass(2, 12, 1e-3, 1e-160, 1.0)
        verdict = {name: False for name in
                   ("range_inclusion", "factorization", "ball_inclusion", "adjoint_domination")}
        assert douglas_outcome(A, B) == (False, verdict)
        assert douglas_outcome(*scale_pair("excluded")[:2]) == (False, verdict)


class TestLazyObservability:
    """Observability is read off the primal Douglas check; it matches the
    route through the reference backward maps K1, K2, whose kernel test and
    generalized SVD it replaces."""

    def test_desk_estimates_match_the_full_route(self, tmp_path, two_threads):
        from evoq.control import ObservabilityEstimate

        verdicts = set()
        for label, maps, (K1, K2), B in desk_end_maps(tmp_path):
            c_ref = full_route_observability(K1, K2)
            # values read outside any one-thread scope
            estimate = ObservabilityEstimate(maps)
            assert estimate.finite == math.isfinite(c_ref), label
            # the supported control acts on the whole grid, so B alone decides:
            # included exactly when B has full row rank, and c_obs <= 1/σ_min(B)
            assert estimate.finite == (np.linalg.matrix_rank(B) == B.shape[0]), label
            w = estimate.witness.phi[maps.post_start:].reshape(-1)
            assert two_threads() == 2
            assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12), label
            seen, observed = np.linalg.norm(K1 @ w), np.linalg.norm(K2 @ w)
            if estimate.finite:
                assert estimate.c_obs == pytest.approx(c_ref, rel=1e-13, abs=0), label
                sigma_min = np.linalg.svd(B, compute_uv=False)[-1]
                assert estimate.c_obs <= (1 + 1e-12) / sigma_min, label
                # the report's constant, to the bit: one SVD of the core gives both
                assert maps._inclusion.constant == estimate.c_obs, label
                assert seen >= estimate.c_obs * (1 - 1e-10) * observed, label
            else:  # a blind datum: K2 misses it, K1 sees it
                assert math.isinf(estimate.c_obs), label
                assert observed <= 1e-8 * np.linalg.norm(K2, 2), label
                assert seen > 1e-8 * np.linalg.norm(K1, 2), label
            assert estimate.cutoff == maps._svd_G[1][0] * 1e-10, label
            verdicts.add(estimate.finite)
        assert verdicts == {True, False}


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

    @pytest.mark.parametrize("command", [["control"], ["control", "--certify-duality"]],
                             ids=["control", "certify"])
    def test_perturbed_backward_system_fails_the_dot_test(self, monkeypatch, tmp_path,
                                                          capsys, command):
        # every assembly solves the nu-adjoint system and compares it with
        # L_F^H, so a backward solve off by 1e-6 fails loudly
        from evoq import solver
        from evoq.cli import main

        monkeypatch.setattr(solver.SpectralOperator, "adjoint_blocks", property(
            lambda op: np.conj(np.swapaxes(op.blocks, 1, 2)) * (1 + 1e-6)))
        message = "the adjoint of L_F disagrees with a backward solve"
        cp = ControlProblem(base=rotation_base(n=64), B=np.eye(2), T=0.5)
        with pytest.raises(ConsistencyError, match=message):
            assemble_endmaps(cp)
        path = write_heat_control_config(tmp_path, "I")
        capsys.readouterr()
        assert main([*command, "--config", path]) == 1
        assert message in capsys.readouterr().err

    def test_maps_keep_the_operator_they_are_cut_from(self, tmp_path):
        # one owner for the grid, the weight, the dimensions and the
        # certificate: the operator, whose certificate `control` reports
        from dataclasses import asdict

        from evoq.cli import main
        from evoq.config import load_config
        from evoq.solver import SpectralOperator

        path = write_heat_control_config(tmp_path, "I")
        cfg = load_config(path)
        maps = assemble_endmaps(cfg.control, cfg.pad_fraction)
        assert isinstance(maps.op, SpectralOperator)
        assert maps.op.grid == cfg.control.base.grid
        assert maps.op.nu == cfg.control.base.nu
        assert main(["control", "--config", path, "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "control_result.json") as fh:
            written = json.load(fh)["certificate"]
        assert written == json.loads(json.dumps(asdict(maps.op.certificate)))

    def test_pointwise_problem_refused(self):
        # its maps would ignore U0, so no constant may be read off them
        cp = TestPointwise().scalar_cp(n=64)
        for entry in (assemble_endmaps, observability_constant):
            with pytest.raises(PreconditionError, match="supported variant"):
                entry(cp)

    def test_size_guard(self, monkeypatch):
        from evoq import control

        monkeypatch.setattr(control, "DEFAULT_SIZE_GUARD", 1000)
        base = rotation_base(n=128)
        cp = ControlProblem(base=base, B=np.eye(2), T=1.0)
        with pytest.raises(SizeGuardError):
            assemble_endmaps(cp)


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
        obs = observability_constant(cp, maps)
        obs.c_obs, obs.witness  # the primal Douglas check and the core's SVD run
        assert len(factored) == 1

    def test_batched_lstsq_matches_column_solves(self):
        from evoq.control import _svd, _truncated_lstsq

        rng = np.random.default_rng(5)
        M = (rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))) \
            @ (rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8)))
        b = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
        svd = _svd(M)
        x, reg = _truncated_lstsq(svd, b, 1e-10)
        assert reg.rank == 4 and x.shape == (8, 5)
        for k in range(b.shape[1]):
            column, _ = _truncated_lstsq(svd, b[:, k], 1e-10)
            assert np.abs(x[:, k] - column).max() <= 1e-12 * np.abs(column).max()

    @pytest.mark.parametrize("injection, svds, command", [
        ("I", 1, ["control"]), ("I", 1, ["control", "--certify-duality"]),
        ("zero", 1, ["control"]), ("zero", 1, ["control", "--certify-duality"]),
    ], ids=["I-control", "I-certify", "zero-control", "zero-certify"])
    def test_dense_svd_count_per_command(self, monkeypatch, tmp_path, command,
                                         injection, svds):
        # B's SVD decides the route.  With B = I the B route gives c_obs and
        # its witness, and `control` solves for the control by HUM, so
        # neither command takes another SVD.  With B = 0 certify takes the
        # separating route, which needs no other SVD either, and `control`
        # the L_G route, whose L_G is zero, so it keeps nothing and takes no
        # SVD.  No norm(., 2) runs.
        from evoq.cli import main

        path = write_heat_control_config(tmp_path, injection)
        calls = count_svds(monkeypatch)
        assert main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert [norm for _, norm in calls] == [False] * svds

    @pytest.mark.parametrize("injection, command, shapes", [
        ("I", ["control"], [(9, 9)]),
        ("e1", ["control"], [(9, 1), (108, 32)]),
        ("zero", ["control"], [(9, 1)]),
        ("I", ["control", "--certify-duality"], [(9, 9)]),
        ("e1", ["control", "--certify-duality"], [(9, 1)]),
        ("zero", ["control", "--certify-duality"], [(9, 1)]),
    ], ids=["I-control", "e1-control", "zero-control",
            "I-certify", "e1-certify", "zero-certify"])
    def test_benchmark_sized_svd_traffic(self, monkeypatch, tmp_path, injection, command,
                                         shapes):
        # the n = 32 heat cells of the dense-control benchmark: L_G is
        # 12 post-horizon samples x 9 rows by 32 samples x q columns, and its
        # SVD is shared by every solve and check of a command; B's (9 x q)
        # decides the route, first.  With B = I the B route gives c_obs and
        # its witness, and `control` solves for the control by HUM, so
        # neither command takes an SVD of L_G (108 x 288) or of the Douglas
        # core.  With B = e1 or 0 certify takes the separating route, which
        # takes none either, and `control` the L_G route, which takes L_G's
        # alone for B = e1 and none for B = 0, whose L_G is zero; no command
        # takes an exact 2-norm
        from evoq.cli import main

        path = write_benchmark_heat_config(tmp_path, injection)
        calls = count_svds(monkeypatch)
        assert main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert calls == [(shape, False) for shape in shapes]

    @pytest.mark.parametrize("command", [["control"], ["control", "--certify-duality"]],
                             ids=["control", "certify"])
    def test_one_operator_per_command(self, law_evaluations, tmp_path, command):
        # primal and backward maps come from one operator's blocks, and the
        # reported certificate is that operator's own: the law is evaluated
        # once, for both
        from evoq.cli import main

        path = write_heat_control_config(tmp_path, "I")
        assert main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert len(law_evaluations) == 1

    def test_batched_probe_verdicts_match_per_probe_null_control(self, monkeypatch):
        # reference: one null_control per probe, over the same draws of the rng
        from evoq import control

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
            batched, _ = control._duality_verdicts(maps, control._probes(maps.op, batched_rng))
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
        assert obs.method == "douglas-core-svd"

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
        # the matrix adjoint of the primal end map equals the reference
        # backward map assembled from adjoint solves
        base = rotation_base(n=64)
        cp = ControlProblem(base=base, B=np.eye(2), T=0.5)
        maps = assemble_endmaps(cp)
        K1, _ = backward_end_maps(cp, DEFAULT_PAD_FRACTION)
        gap = np.linalg.norm(maps.L_F.conj().T - K1, 2)
        assert gap <= 1e-10 * np.linalg.norm(K1, 2)

    @pytest.mark.parametrize("kappa", [2.0, 10.0, 100.0, None],
                             ids=["kappa2", "kappa10", "kappa100", "orthonormal"])
    @pytest.mark.parametrize("maker", [evoq.make_heat_instance, evoq.make_wave_instance,
                                       evoq.make_maxwell_instance],
                             ids=["heat", "wave", "maxwell"])
    def test_bracket_pins_the_dense_constant(self, maker, kappa):
        # the control acts on the whole grid, so for B of full row rank the
        # datum's ratio attains 1/σ_min(B) and the dense c_obs sits on it; B
        # with orthonormal rows (m x (m+1), κ = 1) has c_obs = 1
        inst = maker(k=2, n=96, t_half=4.0)
        m = inst.m
        rng = np.random.default_rng(13)
        left = np.linalg.qr(crandn(rng, m, m))[0]
        right = np.linalg.qr(crandn(rng, m + 1, m))[0]
        sigma = np.ones(m) if kappa is None else np.geomspace(1.0, 1.0 / kappa, m)
        B = (left * sigma) @ right.conj().T
        rhs = random_signal(inst.grid, inst.nu, m, rng)
        cp = ControlProblem(base=EvoProblem(inst.nu, inst.grid, inst.law, inst.A,
                                            rhs, "forward"), B=B, T=1.0)
        maps = assemble_endmaps(cp, inst.pad_fraction)
        c_obs = observability_constant(cp, maps).c_obs
        lower, upper, *_ = _bracket(maps.op, maps.post_start, _b_svd(B))
        assert upper == pytest.approx(1.0 / sigma[-1], rel=1e-12)
        assert lower == pytest.approx(upper, rel=1e-12, abs=0)
        assert upper * (1 - 1e-12) <= c_obs <= upper * (1 + 1e-12)
        if kappa is None:
            assert c_obs == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_bracket_datum_cut_is_negligible(self, monkeypatch):
        # the Gaussian datum of the bracket is almost all after T once the
        # adjoint operator acts: a Gaussian of σ = span/14, not smooth_bump,
        # whose spectrum leaks up to 1.4e-3 before T on these grids
        apply = SpectralOperator.apply
        applied = []

        def recording(op, f):
            applied.append(apply(op, f))
            return applied[-1]

        monkeypatch.setattr(SpectralOperator, "apply", recording)
        for inst, B, label in _control_instances():
            rhs = random_signal(inst.grid, inst.nu, inst.m, np.random.default_rng(8))
            cp = ControlProblem(base=EvoProblem(inst.nu, inst.grid, inst.law, inst.A,
                                                rhs, "forward"), B=B, T=1.0)
            maps = assemble_endmaps(cp, inst.pad_fraction)
            with np.errstate(divide="ignore"):  # B = 0 sees nothing
                lower, *_ = _bracket(maps.op, maps.post_start, _b_svd(B))
            y = applied[-1].phi
            cut = np.linalg.norm(y[:maps.post_start]) / np.linalg.norm(y)
            assert cut <= 1e-11, label
            if np.linalg.matrix_rank(B) < inst.m:
                # the datum along ker B^* is blind far beyond the 1e-8 inclusion rung
                assert lower >= 1e8, label

    def test_size_guard_precedes_dense_work(self, monkeypatch):
        from evoq import control

        monkeypatch.setattr(control, "DEFAULT_SIZE_GUARD", 1000)
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail(
            "no SVD may run before the size guard"))
        cp = ControlProblem(base=rotation_base(n=128), B=np.eye(2), T=1.0)
        with pytest.raises(SizeGuardError, match="coarsen the grid"):
            observability_constant(cp)

    def test_primal_consistency_enforced(self):
        base = rotation_base()
        cp = ControlProblem(base=base, B=np.array([[1.0], [0.0]]), T=1.0)
        maps = assemble_endmaps(cp)
        obs = observability_constant(cp, maps)  # read off the primal check
        dgl = douglas_check(maps.L_F, maps.L_G)
        assert math.isinf(obs.c_obs) == (not dgl.included)


def kappa_injection(m, kappa, rng):
    """A random m x (m+1) B of full row rank with condition number `kappa`."""
    left = np.linalg.qr(crandn(rng, m, m))[0]
    right = np.linalg.qr(crandn(rng, m + 1, m))[0]
    return (left * np.geomspace(1.0, 1.0 / kappa, m)) @ right.conj().T


def route_gate(maps, B):
    """The B route's gate, recomputed: B of full row rank with
    sigma_max < 100 sigma_min, and the datum's bracket closed to 1e-12."""
    s = np.linalg.svd(B, compute_uv=False)
    if not (s.size == B.shape[0] and s[0] < 100 * s[-1]):
        return False
    lower, upper, *_ = _bracket(maps.op, maps.post_start, _b_svd(B))
    return lower >= upper * (1 - 1e-12)


def check_route_against_dense(label, maps, B):
    """The B route is taken exactly when its gate holds, and then gives the
    dense verdicts, the dense c_obs to 1e-12 and a witness attaining it."""
    from evoq.control import (ObservabilityEstimate, _b_feasible, _b_route,
                               _duality_verdicts, _probes)

    svd_b = _b_svd(B)
    route = _b_route(maps.op, maps.post_start, svd_b)
    assert (route is not None) == route_gate(maps, B), label
    if route is None:
        return False
    dense = ObservabilityEstimate(maps)  # the dense estimate, read explicitly
    probes = _probes(maps.op, np.random.default_rng(5))
    feasible, included = _duality_verdicts(maps, probes)
    assert (feasible, included, dense.finite) == (True, True, True), label
    assert _b_feasible(maps.op, maps.post_start, svd_b, probes), label
    assert route.c_obs == pytest.approx(dense.c_obs, rel=1e-12, abs=0), label
    w = route.witness
    assert w.nu == -maps.op.nu and not w.phi[:maps.post_start].any(), label
    assert np.linalg.norm(w.phi[maps.post_start:]) == pytest.approx(1.0, rel=1e-12), label
    v = maps.op.solutions([w])[0].phi
    ratio = np.linalg.norm(v) / np.linalg.norm(v @ B.conj())
    assert ratio == pytest.approx(route.c_obs, rel=1e-12, abs=0), label
    return True


# B route inputs on the rotation system beyond a square real B: more
# actuators than states (q = 3 > m = 2), and B = iI
ROUTE_B = [np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.2]]), 1j * np.eye(2)]


def write_rotation_config(tmp_path, B, memory=False):
    """Rotation A (m = 2) at n = 128 with B; the law M0 = I, or with
    `memory` the law I + z^-2 I, whose z M(z) = z + z^-1 integrates in time.
    The grid resolves the bracket's Gaussian, so a local law closes it."""
    pair = lambda M: [[[float(v.real), float(v.imag)] for v in row] for row in np.atleast_2d(M)]
    coeffs = [np.eye(2)] + ([np.zeros((2, 2)), np.eye(2)] if memory else [])
    config = {
        "seed": 4, "nu": 1.0,
        "grid": {"t_min": -4.0, "t_max": 4.0, "n": 128, "padding_fraction": 0.25},
        "spatial": {"kind": "matrix", "matrix": pair(ROT)},
        "law": {"coeffs": [pair(c) for c in coeffs]},
        "rhs": {"shape": "bump", "component": 0, "center": -1.0, "width": 1.0},
        "control": {"B": pair(np.asarray(B, dtype=complex)), "T": 1.0,
                    "variant": "supported"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


def write_kappa_config(tmp_path, kind, n, kappa):
    """The `tools/same_outputs.py` config with the seeded B of condition
    number 10 on `kind`, at n samples, with B's singular values replaced by
    a geometric ladder from 1 to 1/kappa."""
    [(_, config)] = same_outputs_configs(f"control/kappa10-{kind}-n32")
    B = np.array([[complex(*v) for v in row] for row in config["control"]["B"]])
    U, _, Vh = np.linalg.svd(B)
    B = (U * np.geomspace(1.0, 1.0 / kappa, B.shape[0])) @ Vh
    config["control"]["B"] = [[[float(v.real), float(v.imag)] for v in row] for row in B]
    config["grid"]["n"] = n
    path = tmp_path / f"kappa-{kind}-{n}.json"
    path.write_text(json.dumps(config))
    return str(path)


class TestBRoute:
    """`control` decides a well-conditioned B from B and one nu-adjoint
    datum, and certify from B alone; the dense route, read explicitly, is
    the reference."""

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("kappa", [10.0, 50.0, 99.0], ids=["kappa10", "kappa50", "kappa99"])
    @pytest.mark.parametrize("kind", ["heat", "wave", "maxwell"])
    def test_certify_decides_a_well_conditioned_B_from_B_alone(self, monkeypatch, tmp_path,
                                                              capsys, kind, kappa, n):
        # kappa(B) < 100 settles the inclusion for every law, so certify
        # solves no datum, assembles no end map and runs no Douglas check,
        # also where the bracket stays open (kappa 10 at n = 32); `control`
        # still reports c_obs, so it keeps its route: the B route where the
        # bracket closes, the dense route elsewhere
        from evoq import control
        from evoq.cli import main
        from evoq.config import load_config
        from evoq.control import _duality_verdicts, _probes

        path = write_kappa_config(tmp_path, kind, n, kappa)
        cfg = load_config(path)
        maps = assemble_endmaps(cfg.control, cfg.pad_fraction)
        expected = _duality_verdicts(maps, _probes(maps.op, np.random.default_rng(cfg.seed)))
        assert expected[1]
        method = ("b-sigma-min-datum" if route_gate(maps, cfg.control.B)
                  else "douglas-core-svd")
        called = []
        for name in ("_datum", "_assemble", "_douglas"):
            monkeypatch.setattr(control, name, lambda *a, _name=name: called.append(_name))
        capsys.readouterr()
        assert main(["control", "--certify-duality", "--config", path, "--json"]) == 0
        assert called == []
        assert json.loads(capsys.readouterr().out)["verdicts"] == {
            "feasible_for_spanning_set": expected[0], "range_included": expected[1],
            "observability_finite": expected[1]}
        monkeypatch.undo()
        assert hum_report(tmp_path, path)[1]["method"] == method

    @pytest.mark.parametrize("kappa", [2.0, 10.0, 99.0], ids=["kappa2", "kappa10", "kappa99"])
    @pytest.mark.parametrize("maker", [evoq.make_heat_instance, evoq.make_wave_instance,
                                       evoq.make_maxwell_instance],
                             ids=["heat", "wave", "maxwell"])
    def test_route_matches_the_dense_route(self, maker, kappa):
        inst = maker(k=2, n=96, t_half=4.0)
        rng = np.random.default_rng(17)
        B = kappa_injection(inst.m, kappa, rng)
        cp = ControlProblem(base=EvoProblem(inst.nu, inst.grid, inst.law, inst.A,
                                            random_signal(inst.grid, inst.nu, inst.m, rng),
                                            "forward"), B=B, T=1.0)
        assert check_route_against_dense(maker.__name__, assemble_endmaps(cp, inst.pad_fraction),
                                         B)

    @pytest.mark.parametrize("B", ROUTE_B, ids=["wide", "complex"])
    def test_wide_and_complex_B_match_the_dense_route(self, B):
        cp = ControlProblem(base=rotation_base(), B=B, T=1.0)
        assert check_route_against_dense("rotation", assemble_endmaps(cp), cp.B)

    def test_desk_pairs_take_the_route_exactly_at_the_gate(self, tmp_path):
        taken = [check_route_against_dense(label, maps, B)
                 for label, maps, _, B in desk_end_maps(tmp_path)]
        # B = I, scalar/B=2 and rotation/B=tri take it; e1, cell0 and 0 do not
        assert True in taken and False in taken

    @pytest.mark.parametrize("B, memory, method", [
        (np.diag([1.0, 0.1]), False, "b-sigma-min-datum"),
        (np.diag([1.0, 0.01]), False, "douglas-core-svd"),
        (np.array([[1.0], [0.0]]), False, "lg-projected-datum"),
        (np.diag([1.0, 0.1]), True, "douglas-core-svd"),
    ], ids=["kappa10", "kappa100", "rank-deficient", "bracket-open"])
    def test_observability_names_the_route_that_decided(self, tmp_path, capsys, B, memory,
                                                        method):
        from evoq.cli import main

        path = write_rotation_config(tmp_path, B, memory)
        out = tmp_path / "out"
        assert main(["control", "--config", path, "--out", str(out)]) == 0
        obs = json.loads((out / "observability.json").read_text())
        assert obs["method"] == method
        # the dense and the L_G routes' cutoff is L_G's, which the control's
        # truncation reports too: one SVD, read off the observability, bit
        # for bit
        result = json.loads((out / "control_result.json").read_text())["result"]
        if method != "b-sigma-min-datum":
            assert obs["cutoff"] == result["regularization"]["cutoff"]
        else:
            assert "cutoff" not in obs
        finite = np.linalg.matrix_rank(B) == 2
        if finite:
            sigma_min = np.linalg.svd(B, compute_uv=False)[-1]
            assert obs["c_obs"] == pytest.approx(1.0 / sigma_min, rel=1e-12)
        assert main(["control", "--certify-duality", "--config", path,
                     "--out", str(out)]) == 0
        table = json.loads((out / "duality_table.json").read_text())
        assert table["agree"] and set(table["verdicts"].values()) == {bool(finite)}

    def test_certify_route_assembles_no_end_maps(self, monkeypatch, tmp_path):
        from evoq import control
        from evoq.cli import main

        monkeypatch.setattr(control, "_assemble", lambda *a: pytest.fail(
            "the B route assembles no end maps"))
        path = write_heat_control_config(tmp_path, "I")
        assert main(["control", "--certify-duality", "--config", path]) == 0


def check_hum_against_null_control(label, cp, maps):
    """On the B route, `_hum_control` gives `null_control`'s verdict and its
    control to 1e-11, having stopped at the 1e-12 rung; False off the route."""
    from evoq.control import _b_route, _hum_control

    svd_b = _b_svd(cp.B)
    route = _b_route(maps.op, maps.post_start, svd_b)
    if route is None:
        return False
    res = _hum_control(maps.op, maps.post_start, svd_b, cp.F)
    ref = null_control(cp, maps)
    assert res.feasible == ref.feasible, label
    assert np.linalg.norm(res.G.phi - ref.G.phi) <= 1e-11 * np.linalg.norm(ref.G.phi), label
    assert (res.G.grid, res.G.nu) == (ref.G.grid, ref.G.nu), label
    assert res.regularization.relative_residual <= 1e-12, label
    return True


def hum_report(tmp_path, path):
    """(control_result.json, observability.json) of `control` on `path`."""
    from evoq.cli import main

    out = tmp_path / "out"
    assert main(["control", "--config", path, "--out", str(out)]) == 0
    return tuple(json.loads((out / name).read_text())
                 for name in ("control_result.json", "observability.json"))


class TestHum:
    """On the B route `control` computes the least-norm control by
    preconditioned conjugate gradients on the HUM Gramian, with no end maps;
    the dense `null_control` is the reference."""

    @pytest.mark.parametrize("kappa", [2.0, 10.0, 99.0], ids=["kappa2", "kappa10", "kappa99"])
    @pytest.mark.parametrize("maker", [evoq.make_heat_instance, evoq.make_wave_instance,
                                       evoq.make_maxwell_instance],
                             ids=["heat", "wave", "maxwell"])
    def test_control_matches_null_control(self, maker, kappa):
        inst = maker(k=2, n=96, t_half=4.0)
        rng = np.random.default_rng(17)
        B = kappa_injection(inst.m, kappa, rng)
        cp = ControlProblem(base=EvoProblem(inst.nu, inst.grid, inst.law, inst.A,
                                            random_signal(inst.grid, inst.nu, inst.m, rng),
                                            "forward"), B=B, T=1.0)
        assert check_hum_against_null_control(maker.__name__, cp,
                                               assemble_endmaps(cp, inst.pad_fraction))

    @pytest.mark.parametrize("B", ROUTE_B, ids=["wide", "complex"])
    def test_wide_and_complex_B_match_null_control(self, B):
        cp = ControlProblem(base=rotation_base(), B=B, T=1.0)
        assert check_hum_against_null_control("rotation", cp, assemble_endmaps(cp))

    def test_desk_pairs_on_the_route_match_null_control(self, tmp_path):
        taken = [check_hum_against_null_control(label, cp, assemble_endmaps(cp, pad_fraction))
                 for label, cp, pad_fraction in desk_problems(tmp_path)]
        assert True in taken and False in taken

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_iterations_stay_bounded_on_a_wave_sweep(self, tmp_path, n):
        # the preconditioner keeps the count flat in n; B times 2^+-300 goes
        # into range and the control scales back by 2^-+300
        path = write_bundled_config(tmp_path, "wave", n)
        unit, obs = hum_report(tmp_path, path)
        assert obs == {"c_obs": 1.0, "method": "b-sigma-min-datum"}
        assert unit["result"]["feasible"]
        for e in (300, -300):
            config = json.loads((tmp_path / "cfg.json").read_text())
            config["control"]["B"] = [[[v * 2.0 ** e for v in pair] for pair in row]
                                      for row in config["control"]["B"]]
            scaled = tmp_path / "scaled.json"
            scaled.write_text(json.dumps(config))
            result, obs = hum_report(tmp_path, str(scaled))
            assert obs["c_obs"] == 2.0 ** -e and obs["method"] == "b-sigma-min-datum"
            assert result["result"]["feasible"]
            assert result["result"]["control_norm"] == pytest.approx(
                unit["result"]["control_norm"] * 2.0 ** -e, rel=1e-11)
            for report in (unit, result):
                reg = report["result"]["regularization"]
                assert reg["method"] == "hum-pcg" and reg["relative_residual"] <= 1e-12
                assert 0 < reg["iterations"] <= 100

    def test_stalled_solve_exits_1_in_one_line(self, monkeypatch, tmp_path, capsys):
        # the Gramian products take B's first row alone: L_G then has rank
        # at most 32 (samples) of 108 (post-horizon rows), so the Gramian is
        # singular and CG cannot reach the rung within its dimension
        from evoq import control
        from evoq.cli import main

        hum = control._hum_control

        def singular(op, post, svd_b, F):
            B, *rest = svd_b
            return hum(op, post, (B * (np.arange(9) == 0)[:, None], *rest), F)

        monkeypatch.setattr(control, "_hum_control", singular)
        path = write_benchmark_heat_config(tmp_path, "I")
        capsys.readouterr()
        assert main(["control", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("evoq: numerical failure (LinAlgError): conjugate gradients")
        assert "after 108 iterations" in err and err.count("\n") == 1


class TestPastTheEndMapGuard:
    """The B route and certify's separating route assemble no end map, and
    the L_G route only L_G, so the dense maps' size guard does not refuse
    them; the L_G route is refused past its own guard, and the dense route
    still before any end map is assembled, each with its guard's message."""

    @staticmethod
    def past_the_guard(path):
        from evoq.config import load_config

        with pytest.raises(SizeGuardError, match="coarsen the grid"):
            assemble_endmaps(load_config(path).control)

    @pytest.mark.parametrize("n", [512, 2048])
    def test_wave_takes_the_route(self, tmp_path, n):
        from evoq.cli import main

        path = write_bundled_config(tmp_path, "wave", n)
        self.past_the_guard(path)
        result, obs = hum_report(tmp_path, path)
        assert obs == {"c_obs": 1.0, "method": "b-sigma-min-datum"}
        assert result["result"]["feasible"]
        assert 0 < result["result"]["regularization"]["iterations"] <= 100
        out = tmp_path / "out"
        assert main(["control", "--certify-duality", "--config", path,
                     "--out", str(out)]) == 0
        table = json.loads((out / "duality_table.json").read_text())
        assert table["agree"] and set(table["verdicts"].values()) == {True}

    @pytest.mark.parametrize("kind", ["heat", "maxwell"])
    def test_kappa10_B_takes_the_route(self, tmp_path, kind):
        # the seeded B of condition number 10 that `tools/same_outputs.py`
        # compares at n = 96
        from evoq.cli import main

        [(_, config)] = same_outputs_configs(f"control/kappa10-{kind}-n96")
        config["grid"]["n"] = 512
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        self.past_the_guard(str(path))
        result, obs = hum_report(tmp_path, str(path))
        assert obs["method"] == "b-sigma-min-datum" and result["result"]["feasible"]
        assert main(["control", "--certify-duality", "--config", str(path)]) == 0

    @pytest.mark.parametrize("kind", ["heat", "maxwell"])
    def test_rank_deficient_certify_takes_the_separating_route(self, monkeypatch, tmp_path,
                                                               capsys, kind):
        # the bundled B = e1 (heat) and B = 0 (Maxwell): a datum that B^*
        # misses decides every verdict, with no end map
        from evoq import control
        from evoq.cli import main

        path = write_bundled_config(tmp_path, kind, 512)
        self.past_the_guard(path)
        monkeypatch.setattr(control, "_assemble", lambda *a: pytest.fail(
            "the separating route assembles no end maps"))
        capsys.readouterr()
        assert main(["control", "--certify-duality", "--config", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"] == {
            "feasible_for_spanning_set": False, "range_included": False,
            "observability_finite": False}

    @pytest.mark.parametrize("kind", ["heat", "maxwell"])
    def test_rank_deficient_control_takes_the_L_G_route(self, monkeypatch, tmp_path, kind):
        # the bundled B = e1 (heat) and B = 0 (Maxwell): L_G has
        # 224 x 9 x 512 x 1 entries, a ninth of the dense maps', and its
        # route excludes the inclusion with no L_F matrix
        from evoq import control

        path = write_bundled_config(tmp_path, kind, 512)
        self.past_the_guard(path)
        monkeypatch.setattr(control, "_assemble", lambda *a: pytest.fail(
            "the L_G route assembles no end maps"))
        result, obs = hum_report(tmp_path, path)
        assert obs["c_obs"] == "infinity" and obs["method"] == "lg-projected-datum"
        assert obs["cutoff"] == result["result"]["regularization"]["cutoff"]
        if kind == "maxwell":  # B = 0 steers nothing
            assert result["result"]["feasible"] is False

    @pytest.mark.parametrize("command, kind, n, eps, entries", [
        (["control"], "heat", 1024, None, 4128768),
        (["control"], "maxwell", 1024, None, 4128768),
        (["control", "--certify-duality"], "wave", 512, 0.0, 9289728),
    ], ids=["heat-control", "maxwell-control", "wave-certify"])
    def test_rank_deficient_B_is_refused_at_the_L_G_guard(self, monkeypatch, tmp_path, capsys,
                                                          command, kind, n, eps, entries):
        # `control` on heat_small's B = e1 and maxwell_small's B = 0 takes the
        # L_G route, whose guard counts L_G's 448 post-horizon samples x 9 x
        # 1024 x 1 entries, and refuses before any solve.  Certify tries the
        # separating route first, whose datum on wave_small with
        # B = diag(1, ..., 1, 0) leaves its bounds open, and then the L_G
        # route: 224 x 9 x 512 x 9 entries
        from evoq.cli import main

        if command == ["control"]:
            monkeypatch.setattr(SpectralOperator, "padded_solve", lambda *a: pytest.fail(
                "no solve may run before the guard refuses a rank-deficient B"))
        path = write_bundled_config(tmp_path, kind, n, eps)
        capsys.readouterr()
        assert main([*command, "--config", path]) == 2
        assert capsys.readouterr().err == (
            f"evoq: config rejected (SizeGuardError): the end map L_G needs {entries} entries "
            "(> guard 4000000); coarsen the grid or move the horizon T later\n")

    @pytest.mark.parametrize("command", [["control"], ["control", "--certify-duality"]],
                             ids=["control", "certify"])
    def test_dense_route_is_refused_in_one_line(self, monkeypatch, tmp_path, capsys,
                                                command):
        # wave_small with B = diag(1, ..., 1, 1e-5) has full row rank, but
        # kappa(B) = 1e5 is past the B route's limit, so `control` runs only
        # B's own small SVD before the dense guard, and no solve.  Certify
        # tries the separating route first, whose bounds stay open.  Both
        # maps have 224 post-horizon samples x 9 x 512 x 9 entries
        from evoq.cli import main

        if command == ["control"]:
            monkeypatch.setattr(SpectralOperator, "padded_solve", lambda *a: pytest.fail(
                "no solve may run before the guard refuses the dense route"))
        path = write_bundled_config(tmp_path, "wave", 512, 1e-5)
        capsys.readouterr()
        assert main([*command, "--config", path]) == 2
        assert capsys.readouterr().err == (
            "evoq: config rejected (SizeGuardError): dense end maps need 9289728 entries "
            "(> guard 4000000); coarsen the grid or move the horizon T later\n")


class TestSolvePair:
    """`_response` and `_observation` are L_F and L_F^H, solved: the B
    route's one pair of forward and backward solves."""

    def test_pair_applies_the_end_maps(self, tmp_path):
        from evoq.control import _observation, _response

        rng = np.random.default_rng(12)
        for label, maps, _, _ in desk_end_maps(tmp_path):
            op, post = maps.op, maps.post_start
            n, m = op.grid.n, op.A.m
            X, Z = crandn(rng, n, m, 3), crandn(rng, n - post, m, 3)
            LX, LZ = _response(op, post, X), _observation(op, post, Z)
            assert LX.shape == (n - post, m, 3) and LZ.shape == (n, m, 3), label
            for got, want in ((LX, maps.L_F @ X.reshape(-1, 3)),
                              (LZ, maps.L_F.conj().T @ Z.reshape(-1, 3))):
                assert (np.linalg.norm(got.reshape(want.shape) - want)
                        <= 1e-12 * np.linalg.norm(want)), label
            # the columns of `op.solutions`, bit for bit, batched or alone
            data = np.zeros((n, m, 3), dtype=complex)
            data[post:] = Z
            forward = op.solutions([evoq.WeightedSignal(op.grid, op.nu, X[..., b])
                                    for b in range(3)])
            backward = op.solutions([evoq.WeightedSignal(op.grid, -op.nu, data[..., b])
                                     for b in range(3)])
            for b in range(3):
                assert (LX[..., b] == forward[b].phi[post:]).all(), label
                assert (LZ[..., b] == backward[b].phi).all(), label
            assert (_response(op, post, X[..., 0]) == forward[0].phi[post:]).all(), label
            assert (_observation(op, post, Z[..., 0]) == backward[0].phi).all(), label

    def test_a_non_finite_solve_is_refused_as_by_solutions(self):
        # at nu = 0.01 the solve amplifies a constant forcing about 100-fold,
        # so data near the largest double overflow
        from evoq.control import _observation, _response

        base = rotation_base(nu=0.01)
        op = SpectralOperator(base.law, base.A, base.nu, base.grid, 0.25)
        post = base.grid.index_at_or_after(1.0)
        data = np.full((base.grid.n, 2), 1e308, dtype=complex)
        data[:post] = 0.0
        for nu, solve in ((op.nu, lambda: _response(op, post, data)),
                          (-op.nu, lambda: _observation(op, post, data[post:]))):
            with pytest.raises(evoq.NonFiniteSignalError, match="must be finite"):
                op.solutions([evoq.WeightedSignal(base.grid, nu, data)])
            with pytest.raises(evoq.NonFiniteSignalError, match="must be finite"):
                solve()


def write_bundled_config(tmp_path, kind, n, eps=None):
    """The bundled `kind` config at n samples, with B = diag(1, ..., 1, eps)
    when `eps` is given."""
    with open(os.path.join(os.path.dirname(__file__), "..", "configs",
                           f"{kind}_small.json")) as fh:
        config = json.load(fh)
    config["grid"]["n"] = n
    if eps is not None:
        B = np.eye(len(config["control"]["B"]))
        B[-1, -1] = eps
        config["control"]["B"] = [[[float(v), 0.0] for v in row] for row in B]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


class TestWeakActuator:
    """B's weak direction ε runs from far above L_G's cutoff to below it:
    every pair gets a verdict, included exactly when L_G keeps full rank, and
    then c_obs = 1/ε."""

    @pytest.mark.parametrize("eps", [1e-5, 1e-7, 1e-9, 8e-10, 5e-10, 3e-10, 2e-10, 1e-10])
    @pytest.mark.parametrize("kind", ["heat", "wave", "maxwell"])
    def test_every_weak_direction_gets_a_verdict(self, tmp_path, kind, eps):
        from evoq.config import load_config
        from evoq.control import _truncation

        cp = load_config(write_bundled_config(tmp_path, kind, 64, eps)).control
        estimate = observability_constant(cp)
        s = estimate._maps._svd_G[1]
        assert estimate.finite == (_truncation(s, 1e-10)[2] == s.size)
        if estimate.finite:
            assert estimate.c_obs == pytest.approx(1.0 / eps, rel=1e-5, abs=0)
        else:
            assert math.isinf(estimate.c_obs)

    def test_weak_wave_actuator_exits_0(self, tmp_path):
        # wave at n = 64 with ε = 1e-7 once made both commands exit 1 on
        # disagreeing conditions
        from evoq.cli import main

        path = write_bundled_config(tmp_path, "wave", 64, 1e-7)
        out = tmp_path / "out"
        assert main(["control", "--config", path, "--out", str(out)]) == 0
        with open(out / "observability.json") as fh:
            assert json.load(fh)["c_obs"] == pytest.approx(1e7, rel=1e-5)
        assert main(["control", "--certify-duality", "--config", path,
                     "--out", str(out)]) == 0
        with open(out / "duality_table.json") as fh:
            table = json.load(fh)
        assert table["agree"] and set(table["verdicts"].values()) == {True}


def check_separation_against_dense(label, maps, B):
    """Certify's separating route, tried as certify tries it (the B route's
    gate first), decides only pairs the dense route finds infeasible and
    excluded, on the same probes; returns whether it decided."""
    from evoq.control import _duality_verdicts, _probes, _separated, _well_conditioned

    svd_b = _b_svd(B)
    if _well_conditioned(svd_b):
        return False
    probes = _probes(maps.op, np.random.default_rng(5))
    separated = _separated(maps.op, maps.post_start, svd_b, probes)
    if separated:
        assert _duality_verdicts(maps, probes) == (False, False), label
    return separated


def benchmark_certify_cells(seed):
    """(label, control problem, pad fraction) of the 18 rank-deficient
    certify cells of a `control-dense` cycle: heat, wave and Maxwell at
    n in {32, 48, 64} with B = e1 and B = 0, from the benchmark's generator."""
    import importlib.util

    from evoq.config import load_config

    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(os.path.dirname(__file__), "..", "perfbench",
                                  "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rng = random.Random(seed)
    for kind in workloads.KINDS:
        for n in (32, 48, 64):
            for b in ("e1", "zero"):
                cell = ("certify", kind, n, b)
                with tempfile.TemporaryDirectory() as tmp:
                    path = os.path.join(tmp, "cfg.json")
                    with open(path, "w") as fh:
                        json.dump(workloads._command(cell, rng)["config"], fh)
                    cfg = load_config(path)
                yield f"{kind}-n{n}-{b}", cfg.control, cfg.pad_fraction


class TestSeparatingRoute:
    """Certify decides a pair that the B route declines from one nu-adjoint
    datum that B^* misses and L_F^H sees, with no end maps, where its bounds
    close; the dense verdicts, read on the same probes, are the reference."""

    @staticmethod
    def datum_solves(monkeypatch, path, command):
        """The number of times `command` on the config `path` solves the
        nu-adjoint datum."""
        from evoq import control
        from evoq.cli import main

        datum, calls = control._datum, []

        def counting(*args):
            calls.append(args)
            return datum(*args)

        monkeypatch.setattr(control, "_datum", counting)
        assert main([*command, "--config", path]) == 0
        return len(calls)

    @pytest.mark.parametrize("kind", ["heat", "wave", "maxwell"])
    def test_certify_solves_the_datum_once(self, monkeypatch, tmp_path, kind):
        # B = e1 fails the B route's gate, which solves no datum, and the
        # separating route solves it once; it decides heat, and wave and
        # Maxwell, whose blind ratio stays open at n = 32, go on to the L_G
        # route, which reads no such datum
        [(_, config)] = same_outputs_configs(f"certify/dense-{kind}-n32-e1")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert self.datum_solves(monkeypatch, str(path),
                                 ["control", "--certify-duality"]) == 1

    @pytest.mark.parametrize("injection", ["e1", "zero"])
    def test_control_on_a_rank_deficient_B_solves_no_datum(self, monkeypatch, tmp_path,
                                                           injection):
        path = write_benchmark_heat_config(tmp_path, injection)
        assert self.datum_solves(monkeypatch, path, ["control"]) == 0

    def test_desk_pairs_match_the_dense_route(self, tmp_path):
        # every rank-deficient pair takes the route but wave and Maxwell
        # with B = e1 at n <= 64, whose datum's blind ratio is 5e-9 or more
        decided, dense = set(), set()
        for label, maps, _, B in desk_end_maps(tmp_path):
            if np.linalg.matrix_rank(B) < maps.op.A.m:
                (decided if check_separation_against_dense(label, maps, B)
                 else dense).add(label)
        assert dense == {f"control/dense-{kind}-n{n}-e1" for kind in ("wave", "maxwell")
                         for n in (32, 64)}
        assert len(decided) == 15

    @pytest.mark.parametrize("seed", [4, 5])
    def test_benchmark_cells_match_the_dense_route(self, seed):
        # all B = 0 cells and the heat B = e1 cells take the route; wave and
        # Maxwell with B = e1 leave a blind ratio of 1e-9 or more on these
        # grids, and stay dense
        for label, cp, pad_fraction in benchmark_certify_cells(seed):
            maps = assemble_endmaps(cp, pad_fraction)
            expected = label.startswith("heat") or label.endswith("zero")
            assert check_separation_against_dense(label, maps, cp.B) == expected, label

    def test_weak_actuators_match_the_dense_route(self, tmp_path):
        # B = diag(1, ..., 1, eps) with eps at or below L_G's cutoff is
        # excluded.  For eps > 0 beta / ||v|| is about eps, as large as the
        # cutoff ell relative to ||L_G||, so no bound closes; at eps = 0
        # only wave and Maxwell leak enough into B^* v to stay dense
        from evoq.config import load_config

        decided = set()
        for kind in ("heat", "wave", "maxwell"):
            for eps in (5e-10, 3e-10, 2e-10, 1e-10, 0.0):
                cp = load_config(write_bundled_config(tmp_path, kind, 64, eps)).control
                maps = assemble_endmaps(cp)
                if not observability_constant(cp, maps).finite:
                    if check_separation_against_dense(f"{kind}-{eps}", maps, cp.B):
                        decided.add((kind, eps))
        assert decided == {("heat", 0.0)}

    @pytest.mark.parametrize("memory", [False, True], ids=["local", "memory"])
    def test_a_law_with_memory_falls_back(self, tmp_path, memory):
        # the law I + z^-2 I integrates in time, so the cut datum leaks into
        # B^* v and the route leaves the verdicts to the L_G route
        from evoq.config import load_config
        from evoq.control import _probes, _route, _separated, _well_conditioned

        cfg = load_config(write_rotation_config(tmp_path, np.array([[1.0], [0.0]]), memory))
        op, post, svd_b = _route(cfg.control, cfg.pad_fraction)
        assert not _well_conditioned(svd_b)
        probes = _probes(op, np.random.default_rng(cfg.seed))
        assert _separated(op, post, svd_b, probes) is not memory

    def test_perturbed_backward_system_fails_the_dot_test(self, monkeypatch, tmp_path,
                                                          capsys):
        # the route's probes pass the dot test before its datum is trusted,
        # so a backward solve off by 1e-6 exits 1 with no end map assembled
        from evoq import control, solver
        from evoq.cli import main

        monkeypatch.setattr(solver.SpectralOperator, "adjoint_blocks", property(
            lambda op: np.conj(np.swapaxes(op.blocks, 1, 2)) * (1 + 1e-6)))
        monkeypatch.setattr(control, "_assemble", lambda *a: pytest.fail(
            "the separating route assembles no end maps"))
        path = write_benchmark_heat_config(tmp_path, "e1")
        capsys.readouterr()
        assert main(["control", "--certify-duality", "--config", path]) == 1
        assert "the adjoint of L_F disagrees with a backward solve" in capsys.readouterr().err


@one_blas_thread
def check_lg_route_against_dense(label, cp, pad_fraction, seed):
    """The L_G route decides the rank-deficient `cp` and gives the dense
    verdicts: for `control` the excluded observability, the feasibility,
    rank, cutoff and sigma_max of `null_control` to the bit, its control to
    eps sigma_max / cutoff relative, and a witness that L_G^H misses and
    L_F^H sees; for certify, on the probes drawn from `seed`, the dense
    feasibility.  All on one BLAS thread, as every command runs."""
    from evoq.control import (_b_route, _control_result, _duality_verdicts, _lg_route,
                               _probes, _route)

    op, post, svd_b = _route(cp, pad_fraction)
    assert _b_route(op, post, svd_b) is None, label
    decided = _lg_route(op, post, svd_b, cp.F.phi[..., None])
    assert decided is not None, label
    obs, solve = decided
    res = _control_result(op, solve)
    maps = assemble_endmaps(cp, pad_fraction)
    ref, dense = null_control(cp, maps), observability_constant(cp, maps)
    assert not dense.finite and math.isinf(obs.c_obs), label
    assert obs.method == "lg-projected-datum" and obs.cutoff == dense.cutoff, label
    assert res.feasible == ref.feasible, label
    assert res.regularization == ref.regularization, label  # rank, cutoff, sigma_max
    reg = ref.regularization
    tol = np.finfo(float).eps * reg.sigma_max / reg.cutoff if reg.rank else 0.0
    assert (np.linalg.norm(res.G.phi - ref.G.phi) <= tol * np.linalg.norm(ref.G.phi)), label
    assert (res.G.grid, res.G.nu) == (ref.G.grid, ref.G.nu), label
    w = obs.witness
    assert w.nu == -op.nu and not w.phi[:post].any(), label
    y = w.phi[post:].reshape(-1)
    assert np.linalg.norm(y) == pytest.approx(1.0, rel=1e-12), label
    assert np.linalg.norm(maps.L_G.conj().T @ y) <= 1e-8 * np.linalg.norm(maps.L_G, 2), label
    assert np.linalg.norm(maps.L_F.conj().T @ y) > 1e-8 * np.linalg.norm(maps.L_F, 2), label
    probes = _probes(op, np.random.default_rng(seed))
    certified = _lg_route(op, post, svd_b, probes)
    assert certified is not None, label
    assert (certified[1][3], False) == _duality_verdicts(maps, probes), label


def benchmark_cells(tmp_path, seed):
    """(label, config path) of the `e1` and `zero` control and certify
    cells of the first `control-dense` cycle of `seed`, with the configs
    the benchmark's generator writes for them."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(os.path.dirname(__file__), "..", "perfbench",
                                  "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for i, entry in enumerate(workloads.generate("control-dense", seed, 1)):
        if entry["cell"].split("/")[-1] in ("e1", "zero"):
            path = tmp_path / f"cell{i}.json"
            path.write_text(json.dumps(entry["config"]))
            yield entry["cell"], str(path)


class TestLGRoute:
    """`control` and certify decide a B without full row rank from L_G
    alone: no L_F matrix and no Douglas check; the dense route, read
    explicitly, is the reference."""

    def test_desk_pairs_match_the_dense_route(self, tmp_path):
        decided = set()
        for label, cp, pad_fraction in desk_problems(tmp_path):
            if np.linalg.matrix_rank(cp.B) < cp.base.A.m:
                check_lg_route_against_dense(label, cp, pad_fraction, 5)
                decided.add(label)
        # e1 and 0 of the 18 dense configs; 0, cell0 and rotation's e1 of the
        # acceptance suite
        assert len(decided) == 19

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_cells_match_the_dense_route(self, monkeypatch, tmp_path, seed):
        # every `e1` and `zero` cell, control and certify alike, through the
        # command, with no end maps and no Douglas check
        from evoq import control
        from evoq.cli import main
        from evoq.config import load_config

        dense = []
        for name in ("_assemble", "_douglas"):
            monkeypatch.setattr(control, name, lambda *a, _name=name: dense.append(_name))
        cells = list(benchmark_cells(tmp_path, seed))
        assert len(cells) == 36
        for label, path in cells:
            command = ["control"] if label.startswith("control/") else [
                "control", "--certify-duality"]
            assert main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 0
            assert dense == [], label
        monkeypatch.undo()
        for label, path in cells:
            if label.startswith("control/"):
                cfg = load_config(path)
                check_lg_route_against_dense(label, cfg.control, cfg.pad_fraction, cfg.seed)

    def test_a_law_with_memory_takes_the_route(self, tmp_path):
        # I + z^-2 I integrates in time, so the separating datum leaks into
        # B^* v; the projected datum needs no local law
        from evoq.config import load_config

        cfg = load_config(write_rotation_config(tmp_path, np.array([[1.0], [0.0]]), True))
        check_lg_route_against_dense("memory", cfg.control, cfg.pad_fraction, cfg.seed)

    def test_perturbed_backward_system_fails_the_dot_test(self, monkeypatch, tmp_path,
                                                          capsys):
        # the route's forward solves pass the dot test before L_G is trusted,
        # so a backward solve off by 1e-6 exits 1 with no end maps assembled
        from evoq import control, solver
        from evoq.cli import main

        monkeypatch.setattr(solver.SpectralOperator, "adjoint_blocks", property(
            lambda op: np.conj(np.swapaxes(op.blocks, 1, 2)) * (1 + 1e-6)))
        monkeypatch.setattr(control, "_assemble", lambda *a: pytest.fail(
            "the L_G route assembles no end maps"))
        path = write_benchmark_heat_config(tmp_path, "e1")
        capsys.readouterr()
        assert main(["control", "--config", path]) == 1
        assert "the adjoint of L_F disagrees with a backward solve" in capsys.readouterr().err

    def test_a_wrong_L_G_fails_its_check(self, monkeypatch, tmp_path, capsys):
        # L_G is checked against direct solves of B g before its SVD is read
        from evoq import control
        from evoq.cli import main

        blocks = control._forward_blocks

        def shifted(op, post, B=None):
            cut = blocks(op, post, B)
            return cut if B is None else np.roll(cut, 1, axis=1)

        monkeypatch.setattr(control, "_forward_blocks", shifted)
        path = write_benchmark_heat_config(tmp_path, "e1")
        capsys.readouterr()
        assert main(["control", "--config", path]) == 1
        assert capsys.readouterr().err.startswith(
            "evoq: numerical failure (ConsistencyError): the end map L_G disagrees with a "
            "direct solve: ")


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

    @pytest.mark.parametrize("entry", [pointwise_solve, pointwise_null_control,
                                       pointwise_duality_check])
    def test_supported_variant_refused(self, entry):
        cp = ControlProblem(base=self.scalar_cp(n=64).base, B=np.eye(1), T=2.0)
        with pytest.raises(PreconditionError, match="needs the pointwise variant"):
            entry(cp)

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

    def test_missing_initial_state_named(self):
        base = self.scalar_cp(n=64).base
        with pytest.raises(PreconditionError,
                           match="^U0: the pointwise variant needs an initial state$"):
            ControlProblem(base=base, B=np.eye(1), T=2.0, variant="pointwise")

    @pytest.mark.parametrize("variant", ["supported", "pointwise"])
    def test_non_finite_injection_named(self, variant):
        base = self.scalar_cp(n=64).base
        U0 = np.array([1.0]) if variant == "pointwise" else None
        for bad in (np.nan, np.inf):
            with pytest.raises(PreconditionError, match="^B: must be finite$"):
                ControlProblem(base=base, B=np.array([[bad]]), T=2.0, variant=variant,
                               U0=U0)

    @pytest.mark.parametrize("variant", ["supported", "pointwise"])
    def test_horizon_past_the_last_sample_rejected(self, variant):
        # on [-2, 6) at n = 64 the last sample is 5.875: T = 5.9 lies inside
        # the grid but past every sample
        base = self.scalar_cp(n=64).base
        U0 = np.array([1.0]) if variant == "pointwise" else None
        with pytest.raises(PreconditionError, match="last sample"):
            ControlProblem(base=base, B=np.eye(1), T=5.9, variant=variant, U0=U0)


class TestOneBlasThread:
    """Every CLI command, the dense control entry points and the spectral
    solve whose report the CLI writes run on one OpenBLAS thread and hand the
    caller's thread count back."""

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

    @pytest.mark.parametrize("command, injection", [
        *[(command, "I") for command in (
            ["solve"], ["adjoint"],
            *[["verify", "--suite", suite]
              for suite in ("duality", "causality", "reversal", "nu-independence")],
            ["control"])],
        (["control", "--certify-duality"], "I"), (["control", "--certify-duality"], "e1"),
    ], ids=["solve", "adjoint", "duality", "causality", "reversal", "nu-independence",
            "control", "certify-B-route", "certify-separating-route"])
    def test_every_command_reduces_on_one_thread(self, monkeypatch, tmp_path, two_threads,
                                                 command, injection):
        # certify with B = I takes the B route (`_b_feasible`), with B = e1
        # the separating route (`_separated`), neither of which pins itself
        from evoq.cli import main

        # the reductions, and the block solves (the weight-independence
        # suite's only BLAS calls)
        seen = []
        for namespace, name in ((np.linalg, "norm"), (np, "vdot"), (np.linalg, "solve")):
            def recording(*args, _original=getattr(namespace, name), **kwargs):
                seen.append(two_threads())
                return _original(*args, **kwargs)

            monkeypatch.setattr(namespace, name, recording)
        path = write_heat_control_config(tmp_path, injection)
        assert main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert seen and set(seen) == {1}
        assert two_threads() == 2

    def test_count_restored_after_an_exception(self, monkeypatch, two_threads):
        from evoq import control

        monkeypatch.setattr(control, "DEFAULT_SIZE_GUARD", 10)
        cp = ControlProblem(base=rotation_base(), B=np.eye(2), T=1.0)
        with pytest.raises(SizeGuardError):
            assemble_endmaps(cp)
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

    @pytest.mark.parametrize("command", [["solve"], ["verify", "--suite", "duality"]],
                             ids=["solve", "duality"])
    def test_large_grid_output_does_not_depend_on_the_thread_count(self, tmp_path, command):
        # at n=2048 (m=9) the report's norms pass OpenBLAS's threading cut;
        # unpinned, two threads gave other last digits.  A host with one
        # core runs both on one thread, so there this shows nothing
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        write_bundled_config(tmp_path, "wave", 2048)
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.path.abspath(src),
                   "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "evoq.cli", *command, "--config", "cfg.json",
                 "--json", "--out", f"out{threads}"],
                cwd=tmp_path, env=env, capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            out = tmp_path / f"out{threads}"
            runs.append((proc.stdout, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert runs[0] == runs[1]

    def test_library_solve_gives_the_cli_report(self, tmp_path, two_threads):
        from evoq.cli import _json_safe, _report_dict, main
        from evoq.config import load_config

        path = write_bundled_config(tmp_path, "wave", 2048)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "report.json") as fh:
            written = json.load(fh)["report"]
        cfg = load_config(path)
        base = EvoProblem(cfg.nu, cfg.grid, cfg.law, cfg.A, cfg.build_rhs(weight=cfg.nu),
                          "forward")
        report = solve_forward(base, cfg.pad_fraction)
        assert two_threads() == 2
        assert json.loads(json.dumps(_json_safe(_report_dict(report)))) == written
