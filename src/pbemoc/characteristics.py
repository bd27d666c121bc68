"""Discretization of (time x internal coordinate): grids, the stability
gate, the table of foot weights, and slice interpolation.

The transport part is integrated along characteristics: the value carried to
node l_m at the new time level comes from the foot l_m - tau*G(l_m) at the
previous level, interpolated linearly between the two neighbouring internal
nodes.  Every run gates on tau*G(l_m) <= iota at the nodes (foot_weights),
which keeps every foot inside the cell to the left of its node; check_cfl
only reports the paper's bound tau <= iota / max G over the whole interval.
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
    "CflCheck",
    "CflViolationError",
    "check_cfl",
    "foot_weights",
    "combine_backtraced",
]

# slack of the foot check in ulps of the largest |l|: the rounding of a foot at
# the exact bound tau*G = iota reaches 1.5 ulps, a genuine violation more
FOOT_ULPS = 4

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


def _growth_at(G: Callable, ell: np.ndarray) -> np.ndarray:
    """G at the points ell, as floats of their shape; a scalar result is broadcast."""
    return np.broadcast_to(np.asarray(G(ell), dtype=float), ell.shape)


def check_cfl(tau: float, lgrid: LGrid, G: Callable) -> CflCheck:
    """Report tau <= iota / max G, with max G estimated on CFL_SAMPLES cells.

    Runs do not read it: they gate on the nodes (foot_weights).  A negative
    sampled growth rate raises ValueError; where it is zero the transport is
    a no-op.
    """
    vals = _growth_at(G, np.linspace(lgrid.l_min, lgrid.l_max, CFL_SAMPLES + 1))
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


def foot_weights(tau: float, lgrid: LGrid, G: Callable) -> np.ndarray:
    """The (M+1,) foot weights alpha_m = (l_m - foot_m)/iota, foot_m = l_m - tau*G(l_m),
    with alpha_0 = 0 at the inflow node, which has no foot.

    Raises CflViolationError, the stability gate of every run, at the first
    node whose foot is not finite or leaves the cell to its left by more
    than FOOT_ULPS ulps of the largest |l|: tau*G(l_m) must lie in [0, iota].
    """
    nodes = lgrid.nodes
    growth = _growth_at(G, nodes[1:])
    feet = nodes[1:] - tau * growth
    slack = FOOT_ULPS * np.spacing(max(abs(lgrid.l_min), abs(lgrid.l_max)))
    below = ~(feet >= nodes[:-1] - slack)  # NaN fails this test, not the reverse one
    right = feet > nodes[1:] + slack
    bad = np.flatnonzero(below | right)
    if bad.size:
        i = int(bad[0])
        m, foot = i + 1, float(feet[i])
        if below[i]:
            raise CflViolationError(
                f"characteristic foot {foot:.17g} of slice m={m} falls below the "
                f"neighbouring node {float(nodes[i]):.17g}; the stability bound "
                f"tau*G(l_m) = {tau * float(growth[i]):.17g} <= iota = {lgrid.iota:.17g} fails"
            )
        raise CflViolationError(
            f"characteristic foot {foot:.17g} of slice m={m} lies right of its "
            f"node {float(nodes[m]):.17g}; negative growth rate is not supported"
        )
    alphas = np.zeros(lgrid.M + 1)
    alphas[1:] = np.clip((nodes[1:] - feet) / lgrid.iota, 0.0, 1.0)
    return alphas


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
