"""Acceptance gate: one test per criterion, each printing its verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured values,
or `evoq suite acceptance` for the same table from the command line.
"""

import numpy as np
import pytest

from evoq import acceptance
from evoq.acceptance import ALL_CRITERIA


@pytest.mark.parametrize("direction", ["forward", "adjoint"])
def test_batched_solve_matches_per_problem_path(direction):
    # criterion 1 relies on each column of a batched `padded_solve` having the
    # bits of a one-column solve
    import evoq

    for inst in evoq.bundled_instances(n=128):
        rng = np.random.default_rng(0)
        phis = rng.standard_normal((inst.grid.n, inst.m, 3)) \
            + 1j * rng.standard_normal((inst.grid.n, inst.m, 3))
        op = evoq.solver.SpectralOperator(inst.law, inst.A, inst.nu, inst.grid,
                                          inst.pad_fraction)
        batch = op.padded_solve(phis, direction == "forward")
        npad = op.npad
        weight = inst.nu if direction == "forward" else -inst.nu
        solve = evoq.solve_forward if direction == "forward" else evoq.solve_adjoint
        for b in range(3):
            rhs = evoq.WeightedSignal(inst.grid, weight, phis[:, :, b])
            direct = solve(
                evoq.EvoProblem(inst.nu, inst.grid, inst.law, inst.A, rhs, direction),
                inst.pad_fraction).solution.phi
            crop = batch[npad:npad + inst.grid.n, :, b]
            assert np.array_equal(crop, direct), (inst.name, b)


@pytest.mark.parametrize("criterion", ALL_CRITERIA,
                         ids=[c.__name__ for c in ALL_CRITERIA])
def test_criterion(criterion):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"\n[{status}] criterion {result.cid}: {result.name}")
    for key, value in result.measured.items():
        print(f"    {key} = {value}")
    assert result.passed, f"criterion {result.cid} failed: {result.measured}"


def test_simpson_has_the_bits_of_scipy_on_criterion_10(monkeypatch):
    # every integrand of criterion 10's Duhamel oracle, summed both ways
    from scipy.integrate import simpson

    ours_of, sums = acceptance._simpson, []

    def both(y, dx):
        ours = ours_of(y, dx)
        assert np.float64(ours).tobytes() == np.float64(simpson(y, dx=dx)).tobytes()
        sums.append(ours)
        return ours

    monkeypatch.setattr(acceptance, "_simpson", both)
    acceptance._rotation_duhamel_gap(2048)
    assert len(sums) == 2 * 2047
