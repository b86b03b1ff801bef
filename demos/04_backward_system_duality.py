#!/usr/bin/env python3
"""The backward (adjoint) system and its three defining identities.

1. Duality: <S f, g> = <f, S* g> across opposite weights.
2. Amnesia: data supported in the past keeps the backward solution there.
3. Time reversal turns the backward system into a forward one with
   adjointed coefficients and negated spatial block.
"""

import numpy as np

from evoq import (
    EvoProblem,
    make_maxwell_instance,
    nu_product,
    solve_adjoint,
    solve_forward,
    time_reversal_conjugation_check,
    timestep_adjoint_oracle,
)
from evoq.waveforms import band_limited_signal, bump_signal, random_signal

inst = make_maxwell_instance(k=4, n=512)
rng = np.random.default_rng(4)
print(f"instance: {inst.name}, state dimension {inst.m}")

# 1. duality pairing
f = random_signal(inst.grid, inst.nu, inst.m, rng)
g = random_signal(inst.grid, -inst.nu, inst.m, rng)
uf = solve_forward(EvoProblem(inst.nu, inst.grid, inst.law, inst.A, f, "forward"))
vg = solve_adjoint(EvoProblem(inst.nu, inst.grid, inst.law, inst.A, g, "adjoint"))
gap = abs(nu_product(uf.solution, g) - nu_product(f, vg.solution))
print(f"duality gap |<Sf,g> - <f,S*g>| / (||f|| ||g||) = {gap / (f.norm * g.norm):.2e}")

# 2. amnesia: anticausal data, solution does not extend forward
back = bump_signal(inst.grid, -inst.nu, inst.m, component=0, center=-2.0, width=1.0)
prob = EvoProblem(inst.nu, inst.grid, inst.law, inst.A, back, "adjoint")
rep = solve_adjoint(prob, inst.pad_fraction)
print(f"\nbackward solve of data supported in (-inf, -1]:")
print(f"   spectral leakage after -1 = {rep.amnesia_leakage:.2e} "
      f"(wrap-around {rep.wraparound_tolerance:.2e})")
stepped = timestep_adjoint_oracle(prob)
tail = np.abs(stepped.phi[inst.grid.index_at_or_after(-1.0 + inst.grid.dt):]).max()
print(f"   reversal-route stepper leaves the future exactly empty: max |tail| = {tail:.1f}")

# 3. conjugation by time reversal
signals = [band_limited_signal(inst.grid, -inst.nu, inst.m, rng) for _ in range(4)]
worst = time_reversal_conjugation_check(inst.law, inst.A, signals)
print(f"\nreversal conjugation discrepancy on band-limited signals: {worst:.2e}")
