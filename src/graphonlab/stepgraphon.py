"""Step graphons: symmetric block-constant kernels with block measures.

A step graphon is an n x n symmetric matrix of values in [0, 1] together with
a vector of positive block measures summing to 1.  All operations are pure:
they return new instances and never mutate arrays in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptySetError, MismatchedStructureError, NonConvergenceError
from .graphs import Graph

SYMMETRY_TOL = 1e-12
VALUE_DRIFT_TOL = 1e-12
MEASURE_DRIFT_TOL = 1e-9


def _clean_values(values) -> np.ndarray:
    values = np.array(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"values must be a square matrix, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    asym = float(np.max(np.abs(values - values.T))) if values.size else 0.0
    if asym > SYMMETRY_TOL:
        raise ValueError(f"values asymmetric by {asym:.3e}, tolerance {SYMMETRY_TOL:.0e}")
    values = (values + values.T) / 2.0
    low, high = float(values.min(initial=0.0)), float(values.max(initial=0.0))
    if low < -VALUE_DRIFT_TOL or high > 1.0 + VALUE_DRIFT_TOL:
        raise ValueError(f"values outside [0, 1]: min {low:.3e}, max {high:.3e}")
    return np.clip(values, 0.0, 1.0)


def _clean_measures(measures, n: int) -> np.ndarray:
    measures = np.array(measures, dtype=float)
    if measures.shape != (n,):
        raise ValueError(f"measures shape {measures.shape} does not match {n} blocks")
    if not np.all(np.isfinite(measures)) or np.any(measures <= 0.0):
        raise ValueError("measures must be finite and strictly positive")
    total = float(measures.sum())
    if abs(total - 1.0) > MEASURE_DRIFT_TOL:
        raise ValueError(f"measures sum to {total!r}, drift beyond {MEASURE_DRIFT_TOL:.0e}")
    return measures / total


@dataclass(eq=False)
class StepGraphon:
    values: np.ndarray
    measures: np.ndarray

    def __post_init__(self):
        self.values = _clean_values(self.values)
        self.measures = _clean_measures(self.measures, self.values.shape[0])
        self.values.flags.writeable = False
        self.measures.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.measures)


def _unchecked_graphon(values: np.ndarray, measures: np.ndarray) -> StepGraphon:
    """StepGraphon(values, measures) without the constructor's checks, for
    values that already are what validation returns (exactly symmetric, with
    entries in [0, 1]) and measures that pass validation.  values is used as
    given, not copied, and made read-only; measures are normalized as the
    constructor does."""
    W = object.__new__(StepGraphon)
    W.values = values
    W.measures = measures / float(measures.sum())
    W.values.flags.writeable = False
    W.measures.flags.writeable = False
    return W


@dataclass(eq=False)
class StepFunction:
    """Block-constant nonnegative function sharing a graphon's block measures."""

    values: np.ndarray
    measures: np.ndarray

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("step function values must be a vector")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("step function values must be finite")
        if np.any(self.values < -VALUE_DRIFT_TOL):
            raise ValueError("step function values must be nonnegative")
        self.values = np.maximum(self.values, 0.0)
        self.measures = _clean_measures(self.measures, len(self.values))
        self.values.flags.writeable = False
        self.measures.flags.writeable = False

    def integral(self) -> float:
        return float(self.values @ self.measures)


@dataclass(eq=False)
class OccupancyVector:
    """Per-block occupancy fractions in [0, 1] describing a measurable set."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("occupancy must be a vector")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("occupancy entries must be finite")
        if np.any(self.values < -VALUE_DRIFT_TOL) or np.any(self.values > 1.0 + VALUE_DRIFT_TOL):
            raise ValueError("occupancy entries must lie in [0, 1]")
        self.values = np.clip(self.values, 0.0, 1.0)
        self.values.flags.writeable = False

    def measure(self, measures) -> float:
        return float(self.values @ np.asarray(measures, dtype=float))


def as_occupancy(a, n: int) -> OccupancyVector:
    if isinstance(a, OccupancyVector):
        occ = a
    else:
        occ = OccupancyVector(np.asarray(a, dtype=float))
    if len(occ.values) != n:
        raise MismatchedStructureError(f"occupancy has {len(occ.values)} blocks, expected {n}")
    return occ


def as_step_function(f, W: StepGraphon) -> StepFunction:
    if isinstance(f, StepFunction):
        if len(f.values) != W.n:
            raise MismatchedStructureError(
                f"step function has {len(f.values)} blocks, expected {W.n}"
            )
        return f
    return StepFunction(np.asarray(f, dtype=float), W.measures)


# --- constructors ---------------------------------------------------------------


def _uniform_measures(n: int) -> np.ndarray:
    """n equal block measures; a block count below 1 is a ValueError."""
    if n < 1:
        raise ValueError(f"need at least one block, got {n}")
    return np.full(n, 1.0 / n)


def constant(d: float, blocks: int = 1) -> StepGraphon:
    if not 0.0 <= d <= 1.0:
        raise ValueError("constant level must lie in [0, 1]")
    return StepGraphon(np.full((blocks, blocks), float(d)), _uniform_measures(blocks))


def from_graph(G: Graph) -> StepGraphon:
    """0/1 step graphon of a graph: one block per vertex, uniform measures."""
    if G.vertex_count == 0:
        raise ValueError("cannot build a graphon from the empty graph")
    n = G.vertex_count
    values = np.zeros((n, n))
    for u, v in G.edges:
        values[u, v] = 1.0
        values[v, u] = 1.0
    return StepGraphon(values, _uniform_measures(n))


# --- basic functionals -----------------------------------------------------------


def degree_function(W: StepGraphon) -> StepFunction:
    return StepFunction(W.values @ W.measures, W.measures)


def edge_density(W: StepGraphon) -> float:
    return float(W.measures @ W.values @ W.measures)


def is_regular(W: StepGraphon, tol: float = 1e-9):
    """Common degree d when all block degrees agree with the mean within tol,
    else None.  Compare against None; 0.0 is a valid degree."""
    deg = W.values @ W.measures
    d = float(W.measures @ deg)
    if float(np.max(np.abs(deg - d))) <= tol:
        return d
    return None


# --- structural operations --------------------------------------------------------


def restrict(W: StepGraphon, a) -> StepGraphon:
    """Graphon induced on the set described by occupancy a, rescaled to [0, 1].

    Blocks with a_i = 0 are dropped; surviving blocks keep their values and get
    measures a_i mu_i / |A|.  Because values are block-constant, which portion
    of a block the occupancy selects is irrelevant.
    """
    occ = as_occupancy(a, W.n)
    mass = occ.measure(W.measures)
    if mass <= 0.0:
        raise EmptySetError("occupancy selects a set of measure zero")
    keep = np.nonzero(occ.values > 0.0)[0]
    sub = W.values[np.ix_(keep, keep)]
    measures = occ.values[keep] * W.measures[keep] / mass
    return StepGraphon(sub, measures)


def hadamard(W: StepGraphon, U: StepGraphon) -> StepGraphon:
    if W.n != U.n or not np.allclose(W.measures, U.measures, rtol=0.0, atol=1e-12):
        raise MismatchedStructureError("hadamard product needs identical block measures")
    return StepGraphon(W.values * U.values, W.measures)


# --- generators --------------------------------------------------------------------


def _random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric n x n matrix: the upper triangle of one uniform draw, mirrored.
    Every random graphon in the package draws its values through here."""
    upper = rng.uniform(0.0, 1.0, size=(n, n))
    out = np.triu(upper)
    return out + np.triu(out, 1).T


def _random_graphon(
    rng: np.random.Generator, n: int, floor: float = 0.0, dirichlet: bool = False
) -> StepGraphon:
    """Values floor + (1 - floor) U with U from _random_symmetric, then
    measures, uniform or Dirichlet, from the same stream."""
    uniform = _uniform_measures(n)
    values = floor + (1.0 - floor) * _random_symmetric(rng, n)
    measures = rng.dirichlet(np.ones(n)) if dirichlet else uniform
    return StepGraphon(values, measures)


def gen_random(n: int, seed: int, dirichlet_measures: bool = False) -> StepGraphon:
    """Uniform random symmetric values; measures uniform or Dirichlet."""
    return _random_graphon(np.random.default_rng(seed), n, dirichlet=dirichlet_measures)


def gen_regular(
    n: int,
    d: float,
    seed: int,
    max_iters: int = 10**4,
    residual_target: float = 1e-10,
) -> StepGraphon:
    """Random d-regular step graphon with uniform measures.

    Alternating projections between the box of symmetric [0, 1] matrices and
    the affine set of matrices with weighted row sums d.  The returned matrix
    is box-feasible; its degree residual is at most residual_target.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError("degree must lie in [0, 1]")
    mu = _uniform_measures(n)
    if n == 1:
        return StepGraphon(np.array([[d]]), mu)
    rng = np.random.default_rng(seed)
    B = _random_symmetric(rng, n)
    mu_sq = float(mu @ mu)
    residual = float("inf")
    for _ in range(max_iters):
        row_defect = (d - B @ mu) / mu_sq
        B = B + np.outer(row_defect, mu)
        B = np.clip((B + B.T) / 2.0, 0.0, 1.0)
        residual = float(np.max(np.abs(B @ mu - d)))
        if residual <= residual_target:
            return StepGraphon(B, mu)
    raise NonConvergenceError(
        f"degree residual {residual:.3e} above {residual_target:.0e} after {max_iters} iterations"
    )


def gen_pointwise_dense(n: int, d: float, seed: int, dirichlet_measures: bool = False) -> StepGraphon:
    """Random graphon with every value in [d, 1]."""
    if not 0.0 <= d <= 1.0:
        raise ValueError("floor must lie in [0, 1]")
    return _random_graphon(np.random.default_rng(seed), n, d, dirichlet_measures)


# --- serialization ------------------------------------------------------------------


def graphon_to_json(W: StepGraphon) -> dict:
    return {
        "measures": [float(m) for m in W.measures],
        "values": [[float(v) for v in row] for row in W.values],
    }


def graphon_from_json(data: dict) -> StepGraphon:
    try:
        measures = data["measures"]
        values = data["values"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graphon JSON: {exc}") from exc
    return StepGraphon(np.array(values, dtype=float), np.array(measures, dtype=float))


def load_graphon(path: str) -> StepGraphon:
    with open(path, "r", encoding="utf-8") as fh:
        return graphon_from_json(json.load(fh))


def save_graphon(W: StepGraphon, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graphon_to_json(W), fh, sort_keys=True)
        fh.write("\n")
