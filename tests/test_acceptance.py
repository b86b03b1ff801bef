"""Acceptance gate: one test per criterion, each printing its verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured values,
or `evoq suite acceptance` for the same table from the command line.
"""

import numpy as np
import pytest

from evoq.acceptance import ALL_CRITERIA, _batched_solve


@pytest.mark.parametrize("direction", ["forward", "adjoint"])
def test_batched_solve_matches_per_problem_path(direction):
    # criteria 1 and 3 rely on the batched kernel; pin it to the per-problem solve
    import evoq

    inst = evoq.make_wave_instance(n=128)
    rng = np.random.default_rng(0)
    phis = rng.standard_normal((inst.grid.n, inst.m, 3)) \
        + 1j * rng.standard_normal((inst.grid.n, inst.m, 3))
    op = evoq.solver.SpectralOperator(inst.law, inst.A, inst.nu, inst.grid,
                                      inst.pad_fraction)
    batch = _batched_solve(op, direction, phis)
    npad = op.npad
    weight = inst.nu if direction == "forward" else -inst.nu
    solve = evoq.solve_forward if direction == "forward" else evoq.solve_adjoint
    for b in range(3):
        rhs = evoq.WeightedSignal(inst.grid, weight, phis[:, :, b])
        direct = solve(
            evoq.EvoProblem(inst.nu, inst.grid, inst.law, inst.A, rhs, direction),
            inst.pad_fraction).solution.phi
        crop = batch[npad:npad + inst.grid.n, :, b]
        assert np.abs(crop - direct).max() <= 1e-12 * np.abs(direct).max()


@pytest.mark.parametrize("criterion", ALL_CRITERIA,
                         ids=[c.__name__ for c in ALL_CRITERIA])
def test_criterion(criterion):
    result = criterion(fast=False)
    status = "PASS" if result.passed else "FAIL"
    print(f"\n[{status}] criterion {result.cid}: {result.name}")
    for key, value in result.measured.items():
        print(f"    {key} = {value}")
    assert result.passed, f"criterion {result.cid} failed: {result.measured}"
