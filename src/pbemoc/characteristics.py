"""Discretization of (time x internal coordinate): grids, the step-size
stability bound, backward foot tracing, and slice interpolation.

The transport part is integrated along characteristics: the value carried to
node l_m at the new time level comes from the foot l_m - tau*G(l_m) at the
previous level, interpolated linearly between the two neighbouring internal
nodes.  The stability bound tau <= iota / max G keeps every foot inside the
cell to the left of its node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .fem import FieldSlice

__all__ = [
    "LGrid",
    "TimeGrid",
    "Backtrace",
    "CflCheck",
    "CflViolationError",
    "check_cfl",
    "backtrace",
    "combine_backtraced",
]

# slack for the foot-inside-cell check; absorbs rounding, not genuine violations
FOOT_TOL = 1e-14

CFL_SAMPLES = 4096


class CflViolationError(RuntimeError):
    """The configured step sizes violate the transport stability bound."""


@dataclass(frozen=True)
class LGrid:
    """Uniform grid over the internal-coordinate interval [l_min, l_max]."""

    l_min: float
    l_max: float
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"cell count must be >= 1, got {self.M}")
        if not self.l_max > self.l_min:
            raise ValueError(f"empty internal interval [{self.l_min}, {self.l_max}]")

    @property
    def iota(self) -> float:
        return (self.l_max - self.l_min) / self.M

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(self.l_min, self.l_max, self.M + 1)
        nodes.setflags(write=False)
        return nodes


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with N >= 1 steps on (0, T]."""

    T: float
    N: int

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError(f"final time must be positive, got {self.T}")
        if self.N < 1:
            raise ValueError(f"step count must be >= 1, got {self.N}")

    @property
    def tau(self) -> float:
        return self.T / self.N


@dataclass(frozen=True)
class CflCheck:
    """Outcome of the stability check; ratio > 1 means the bound is violated."""

    passed: bool
    tau: float
    iota: float
    max_growth: float
    ratio: float

    def describe(self) -> str:
        if self.passed:
            return (
                f"stability bound satisfied: tau={self.tau:g} <= "
                f"iota/max G = {self.iota:g}/{self.max_growth:g}"
            )
        return (
            f"stability bound violated: tau*maxG/iota = {self.ratio:g} > 1 "
            f"(tau={self.tau:g}, iota={self.iota:g}, max G={self.max_growth:g})"
        )


def _sample_growth(lgrid: LGrid, G: Callable) -> np.ndarray:
    ell = np.linspace(lgrid.l_min, lgrid.l_max, CFL_SAMPLES + 1)
    vals = np.asarray(G(ell), dtype=float)
    if vals.ndim == 0:
        vals = np.full(ell.shape, float(vals))
    return vals


def check_cfl(tau: float, lgrid: LGrid, G: Callable) -> CflCheck:
    """Check tau <= iota / max G, with max G estimated on CFL_SAMPLES cells.

    The growth rate must be nonnegative everywhere; where it is zero the
    transport is a no-op.
    """
    vals = _sample_growth(lgrid, G)
    bad = vals < 0.0
    if np.any(bad):
        raise ValueError(
            "growth rate must be nonnegative on the internal interval; "
            f"sampled value {float(vals[bad][0]):g}"
        )
    max_growth = float(vals.max())
    iota = lgrid.iota
    ratio = tau * max_growth / iota
    passed = tau * max_growth <= iota
    return CflCheck(passed=passed, tau=tau, iota=iota, max_growth=max_growth, ratio=ratio)


@dataclass(frozen=True)
class Backtrace:
    """Characteristic foot and interpolation weight for one internal node."""

    m: int
    foot: float
    alpha: float


def backtrace(m: int, tau: float, lgrid: LGrid, G: Callable) -> Backtrace:
    """Trace node l_m back one step: foot = l_m - tau*G(l_m), weight = (l_m - foot)/iota."""
    if not 1 <= m <= lgrid.M:
        raise ValueError(f"internal index must lie in 1..{lgrid.M}, got {m}")
    l_m = float(lgrid.nodes[m])
    growth = float(np.asarray(G(l_m), dtype=float))
    foot = l_m - tau * growth
    left = float(lgrid.nodes[m - 1])
    if foot < left - FOOT_TOL:
        raise CflViolationError(
            f"characteristic foot {foot:.17g} of slice m={m} falls below the "
            f"neighbouring node {left:.17g}; the stability bound was bypassed"
        )
    if foot > l_m + FOOT_TOL:
        raise CflViolationError(
            f"characteristic foot {foot:.17g} of slice m={m} lies right of its "
            f"node {l_m:.17g}; negative growth rate is not supported"
        )
    alpha = (l_m - foot) / lgrid.iota
    alpha = min(max(alpha, 0.0), 1.0)
    return Backtrace(m=m, foot=foot, alpha=alpha)


def combine_backtraced(prev_left: FieldSlice, prev_same: FieldSlice, alpha: float) -> FieldSlice:
    """Convex combination alpha*prev_left + (1-alpha)*prev_same, nodewise."""
    if len(prev_left) != len(prev_same):
        raise ValueError(
            f"slice lengths differ: {len(prev_left)} vs {len(prev_same)}"
        )
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"interpolation weight must lie in [0, 1], got {alpha}")
    values = alpha * prev_left.values + (1.0 - alpha) * prev_same.values
    return FieldSlice(values, n=prev_same.n, m=prev_same.m)
