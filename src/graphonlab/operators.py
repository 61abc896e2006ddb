"""Walk-power kernels and derived operators on step graphons.

The s-walk kernel W_s(x, y) integrates over the s-1 internal points of a walk
of length s from x to y.  On step graphons this is exact matrix arithmetic:
W_s = B (diag(mu) B)^(s-1).  path_powers computes it for a stack of value
matrices at once, each bit for bit as path_power computes it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budget import DEFAULT_CELL_BUDGET, charge
from .stepgraphon import OccupancyVector, StepFunction, StepGraphon, _unchecked_graphon

# Blocks whose walk mass falls below this are treated as exact zeros.
ZERO_THRESHOLD = 1e-300
POWER_DRIFT_TOL = 1e-12


@dataclass(eq=False)
class StepKernel:
    """Block-constant kernel, not necessarily symmetric, values >= 0."""

    values: np.ndarray
    measures: np.ndarray

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError("kernel values must be a square matrix")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0.0):
            raise ValueError("kernel values must be finite and nonnegative")
        self.measures = np.array(self.measures, dtype=float)
        self.values.flags.writeable = False
        self.measures.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.measures)


def _power_values(Bs: np.ndarray, mu: np.ndarray, s: int) -> np.ndarray:
    out = Bs
    step = mu[:, None] * Bs
    for _ in range(s - 1):
        out = out @ step
    return out


def path_powers(Bs: np.ndarray, measures: np.ndarray, s: int) -> np.ndarray:
    """The values of path_power for each value matrix of the stack Bs
    (shape (k, n, n)), all on the block measures given, as a stack.  Nothing
    is validated; the matrices and measures must be what StepGraphon stores.

    Each matrix's s - 1 products touch (s - 1) n^3 cells, as many as the
    elimination engine counts for the same walk; they are charged first,
    once per stack."""
    if s < 1:
        raise ValueError("walk length must be at least 1")
    n = len(measures)
    charge((s - 1) * n**3, DEFAULT_CELL_BUDGET, f"walk power of length {s}", "cells")
    out = _power_values(Bs, measures, s)
    high = float(out.max(initial=0.0))
    if high > 1.0 + POWER_DRIFT_TOL:
        raise ValueError(f"walk power drifted above 1 by {high - 1.0:.3e}")
    # symmetric, nonnegative and at most 1 by construction
    return np.minimum((out + out.transpose(0, 2, 1)) / 2.0, 1.0)


def path_power(W: StepGraphon, s: int) -> StepGraphon:
    """Walk kernel W_s as a step graphon on the same blocks; W_1 = W.  Its
    measures are W's, normalized once more as every graphon's are."""
    return _unchecked_graphon(path_powers(W.values[None], W.measures, s)[0], W.measures)


def path_function(W: StepGraphon, s: int) -> StepFunction:
    """Density of walks of length s from a point: the measure-average of W_s."""
    return StepFunction(path_power(W, s).values @ W.measures, W.measures)


def normalized_path_power(W: StepGraphon, k: int) -> StepGraphon:
    """W_{2k+1}(x, y) / (P_k(x) P_k(y)) where P_k is the k-walk density.

    Blocks where either walk density is (numerically) zero get value 0; the
    ratio never exceeds 1 because W <= 1 pointwise.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    numer = path_power(W, 2 * k + 1).values
    walk = path_function(W, k).values
    positive = walk > ZERO_THRESHOLD
    out = np.zeros_like(numer)
    idx = np.nonzero(positive)[0]
    if idx.size:
        sub = numer[np.ix_(idx, idx)]
        # divide one factor at a time so a tiny product cannot underflow first
        sub = sub / walk[idx][:, None]
        sub = sub / walk[idx][None, :]
        out[np.ix_(idx, idx)] = sub
    high = float(out.max(initial=0.0))
    if high > 1.0 + POWER_DRIFT_TOL:
        raise ValueError(f"normalized walk power drifted above 1 by {high - 1.0:.3e}")
    out = np.minimum((out + out.T) / 2.0, 1.0)
    return StepGraphon(out, W.measures)


def u_kernel(W: StepGraphon, k: int) -> StepKernel:
    """Row-normalized k-walk kernel U_k(x, y) = W_k(x, y) / P_k(x).

    Rows with zero walk density are zero rows; all other rows have weighted
    row sum exactly 1.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    Wk = path_power(W, k).values
    walk = path_function(W, k).values
    out = np.zeros_like(Wk)
    rows = np.nonzero(walk > ZERO_THRESHOLD)[0]
    if rows.size:
        out[rows, :] = Wk[rows, :] / walk[rows][:, None]
    return StepKernel(out, W.measures)


def superlevel_set(f: StepFunction, theta: float) -> OccupancyVector:
    """Indicator occupancy of blocks with f >= theta (inclusive)."""
    return OccupancyVector((f.values >= theta).astype(float))


def zero_block_set(W: StepGraphon, k: int):
    """(occupancy, measure) of the blocks with zero k-walk density."""
    walk = path_function(W, k).values
    occ = OccupancyVector((walk <= ZERO_THRESHOLD).astype(float))
    return occ, occ.measure(W.measures)
