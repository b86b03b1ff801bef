"""Bundled desk-scale instances: heat, wave and Maxwell analogues.

These mirror the three builder stencils with fixed coefficients at weight
nu = 1 and are used by the verification suites, the acceptance runner and the
shipped example configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .material import MaterialLaw
from .signals import TimeGrid
from .spatial import (
    SpatialOperator,
    build_heat_block,
    build_maxwell_block,
    build_wave_block,
)

__all__ = ["Instance", "make_heat_instance", "make_wave_instance",
           "make_maxwell_instance", "bundled_instances"]


@dataclass(frozen=True)
class Instance:
    name: str
    nu: float
    grid: TimeGrid
    law: MaterialLaw
    A: SpatialOperator
    pad_fraction: float = 0.25

    @property
    def m(self) -> int:
        return self.A.m


def make_heat_instance(k: int = 4, n: int = 512, t_half: float = 8.0) -> Instance:
    A, law = build_heat_block(k, a=2.0, nu=1.0)
    return Instance("heat", 1.0, TimeGrid(-t_half, t_half, n), law, A)


def make_wave_instance(k: int = 4, n: int = 512, t_half: float = 8.0) -> Instance:
    A, law = build_wave_block(k, T_elast=2.0, nu=1.0)
    return Instance("wave", 1.0, TimeGrid(-t_half, t_half, n), law, A)


def make_maxwell_instance(k: int = 4, n: int = 512, t_half: float = 8.0) -> Instance:
    A, law = build_maxwell_block(k, eps=1.0, mu=1.0, sigma=0.5, nu=1.0)
    return Instance("maxwell", 1.0, TimeGrid(-t_half, t_half, n), law, A)


def bundled_instances(n: int = 512) -> list:
    return [make_heat_instance(n=n), make_wave_instance(n=n), make_maxwell_instance(n=n)]
