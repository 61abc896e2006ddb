"""Inequality and identity checks for subdivision density lower bounds.

Each check computes one side of a proven inequality (or both sides of an
identity) and never asserts: the caller decides what a failure means.  All ten
checks hand their two sides to one report builder, _report, which decides
pass or fail, digests the inputs and wraps the outcome in a
VerificationReport.  Inequality checks pass when
computed >= bound * (1 - tolerance); identity checks pass when the two sides
agree within max(rel * magnitude, abs).

Checks on patterns outside the known lower-bound registry still run but are
flagged advisory in their metadata, and advisory failures do not fail a suite.
The suite draws its random graphons through stepgraphon's one generator.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import graphs as graphs_mod
from . import stepgraphon as sg
from .density import hom_density, hom_density_subdivided, hom_density_weighted
from .errors import (
    ConfigError,
    DegenerateInstanceError,
    EmptySetError,
    NotRegularError,
    PatternNotRegularError,
    UncertifiedDensityError,
)
from .graphs import Graph, graph_to_json, in_knrs_registry, subdivide
from .localdensity import local_density_exact
from .operators import path_function, path_power, superlevel_set
from .stepgraphon import (
    StepGraphon,
    as_occupancy,
    as_step_function,
    edge_density,
    graphon_to_json,
    restrict,
)

INEQUALITY_TOL = 1e-9  # relative, on the bound
IDENTITY_REL_TOL = 1e-10
IDENTITY_ABS_TOL = 1e-12


@dataclass(eq=False)
class VerificationReport:
    check_name: str
    inputs_digest: str
    computed_value: float
    bound_value: float
    ratio: float
    passed: bool
    tolerance: float
    metadata: dict = field(default_factory=dict)

    @property
    def advisory(self) -> bool:
        return bool(self.metadata.get("advisory", False))

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "inputs_digest": self.inputs_digest,
            "computed_value": float(self.computed_value),
            "bound_value": float(self.bound_value),
            # a zero bound gives an infinite ratio; inf is not valid JSON
            "ratio": float(self.ratio) if math.isfinite(self.ratio) else None,
            "passed": bool(self.passed),
            "tolerance": float(self.tolerance),
            "metadata": _jsonable(self.metadata),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()  # Python floats, ints and bools, as the branches below give
    if isinstance(obj, (np.bool_, bool)):  # before int: bool subclasses int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, Graph):
        return _jsonable(graph_to_json(obj))
    if isinstance(obj, StepGraphon):
        return graphon_to_json(obj)
    return obj


def _digest(payload: dict) -> str:
    text = json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _report(
    name: str, lhs, rhs, inputs: dict, metadata: dict,
    kind: str = "inequality", tol: float = INEQUALITY_TOL,
) -> VerificationReport:
    """The report of check `name` comparing lhs with rhs.

    An inequality passes when lhs >= rhs (1 - tol) and records tol; an
    identity passes when |lhs - rhs| <= max(tol * max(|lhs|, |rhs|),
    IDENTITY_ABS_TOL) and records that bound.  The digest hashes
    {"check": name, **inputs}, graphs and graphons in their JSON form."""
    if kind == "identity":
        tol = max(tol * max(abs(lhs), abs(rhs)), IDENTITY_ABS_TOL)
        passed = abs(lhs - rhs) <= tol
    else:
        passed = lhs >= rhs * (1.0 - tol)
    return VerificationReport(
        check_name=name,
        inputs_digest=_digest({"check": name, **inputs}),
        computed_value=float(lhs),
        bound_value=float(rhs),
        ratio=lhs / rhs if rhs > 0.0 else float("inf"),
        passed=bool(passed),
        tolerance=tol,
        metadata={"kind": kind, **metadata},
    )


def _registry_meta(H: Graph) -> dict:
    """Patterns outside the proven lower-bound registry are advisory."""
    registered = in_knrs_registry(H)
    return {"advisory": not registered, "registered": registered}


def _check_half_length(k: int) -> None:
    if k < 1:
        raise ValueError("k must be at least 1")


# --- inequality checks -----------------------------------------------------------


def check_sidorenko(H: Graph, W: StepGraphon, metadata: dict | None = None) -> VerificationReport:
    """t(H, W) >= edge_density^e(H); advisory when H is not bipartite."""
    bipartite, _ = graphs_mod.is_bipartite(H)
    meta = {"advisory": not bipartite, "bipartite": bipartite, **(metadata or {})}
    bound = edge_density(W) ** H.edge_count
    return _report("sidorenko", hom_density(H, W), bound, {"H": H, "W": W}, meta)


def check_knrs(
    H: Graph, W: StepGraphon, d: float | None = None, metadata: dict | None = None
) -> VerificationReport:
    """t(H, W) >= d^e(H) for d-locally dense W; d defaults to the exact d*.

    A caller-supplied d outside [0, 1] or above the certified local density
    is an error, not a failed check."""
    if d is not None and not 0.0 <= d <= 1.0:
        raise ValueError(f"local density d must lie in [0, 1], got {d!r}")
    cert = local_density_exact(W)
    if d is None:
        d = cert.d_star
    elif d > cert.d_star + 1e-9:
        raise UncertifiedDensityError(
            f"claimed local density {d} exceeds certified {cert.d_star}"
        )
    d = float(d)
    meta = {**_registry_meta(H), "d": d, **(metadata or {})}
    return _report("knrs", hom_density(H, W), d**H.edge_count, {"H": H, "W": W, "d": d}, meta)


def even_subdivision_bounds(H: Graph, k: int, d: float) -> tuple:
    """(d^((2k+1) e(H)), c_H): the constant-free bound on t of the
    2k-subdivision of H over graphons of local density d, and the constant
    c_H = (1/2)^(v(H) + 2k e(H)) of the proven weak bound c_H d^((2k+1) e(H))."""
    e = H.edge_count
    return float(d) ** ((2 * k + 1) * e), 0.5 ** (H.vertex_count + 2 * k * e)


def check_weakly_knrs(
    H: Graph, k: int, W: StepGraphon, metadata: dict | None = None
) -> VerificationReport:
    """Proven constant-factor bound for even subdivisions:
    t of the 2k-subdivision of H is at least c_H d^((2k+1) e(H)) with
    c_H = (1/2)^(v(H) + 2k e(H)) and d the exact local density.

    Metadata records whether the aspirational constant-free bound also held;
    that flag is never a pass criterion."""
    _check_half_length(k)
    d = float(local_density_exact(W).d_star)
    computed = hom_density_subdivided(H, 2 * k, W)
    strong, c_H = even_subdivision_bounds(H, k, d)
    meta = {
        **_registry_meta(H),
        "d": d,
        "k": k,
        "constant": c_H,
        "strong_bound": strong,
        "strong_held": bool(computed >= strong * (1.0 - INEQUALITY_TOL)),
        **(metadata or {}),
    }
    return _report("weakly_knrs", computed, c_H * strong, {"H": H, "W": W, "k": k}, meta)


def check_even_subdivision_sidorenko(
    H: Graph, k: int, W: StepGraphon, metadata: dict | None = None
) -> VerificationReport:
    """For d-regular W: t of the (2k-1)-subdivision of H >= d^(2k e(H)).

    Requires the host graphon to be degree-regular within 1e-9."""
    _check_half_length(k)
    d = sg.is_regular(W, 1e-9)
    if d is None:
        raise NotRegularError("host graphon is not degree-regular within 1e-9")
    d = float(d)
    meta = {**_registry_meta(H), "d": d, "k": k, **(metadata or {})}
    computed = hom_density_subdivided(H, 2 * k - 1, W)
    bound = d ** (2 * k * H.edge_count)
    return _report("even_subdivision_sidorenko", computed, bound, {"H": H, "W": W, "k": k}, meta)


def check_regular_subdivision_knrs(
    H: Graph, k: int, W: StepGraphon, metadata: dict | None = None
) -> VerificationReport:
    """For regular patterns H: t of the 2k-subdivision >= d*^((2k+1) e(H))."""
    _check_half_length(k)
    if graphs_mod.is_regular(H) is None:
        raise PatternNotRegularError("pattern graph is not degree-regular")
    d = float(local_density_exact(W).d_star)
    meta = {**_registry_meta(H), "d": d, "k": k, **(metadata or {})}
    computed = hom_density_subdivided(H, 2 * k, W)
    bound, _ = even_subdivision_bounds(H, k, d)
    return _report("regular_subdivision_knrs", computed, bound, {"H": H, "W": W, "k": k}, meta)


def check_superlevel_restriction(W: StepGraphon, k: int, metadata: dict | None = None) -> VerificationReport:
    """The superlevel set A of the k-walk density at threshold (d/2)^k has
    measure at least 1/2, and the restriction of the (2k+1)-walk kernel to A
    has local density at least d^(2k+1) / 2^(2k), with d the exact d*(W).

    Vacuous (an error) when d*(W) = 0."""
    _check_half_length(k)
    d = local_density_exact(W).d_star
    if d <= 0.0:
        raise DegenerateInstanceError("local density is zero; restriction bound is vacuous")
    theta = (d / 2.0) ** k
    occupancy = superlevel_set(path_function(W, k), theta)
    a_measure = occupancy.measure(W.measures)
    a_ok = a_measure >= 0.5 - 1e-9
    d_res = local_density_exact(restrict(path_power(W, 2 * k + 1), occupancy)).d_star
    bound = float(d) ** (2 * k + 1) / 4.0**k
    meta = {
        "d": float(d),
        "k": k,
        "threshold": theta,
        "a_measure": float(a_measure),
        "a_measure_ok": bool(a_ok),
        **(metadata or {}),
    }
    report = _report("superlevel_restriction", d_res, bound, {"W": W, "k": k}, meta)
    report.passed = bool(report.passed and a_ok)
    return report


def check_reiher(W: StepGraphon, f, metadata: dict | None = None) -> VerificationReport:
    """Quadratic-form lower bound: <f, W f> >= d* (int f)^2 for f >= 0."""
    func = as_step_function(f, W)
    d = local_density_exact(W).d_star
    m = func.values * W.measures
    computed = float(m @ W.values @ m)
    bound = d * float(m.sum()) ** 2
    meta = {"d": float(d), **(metadata or {})}
    return _report("reiher", computed, bound, {"W": W, "f": func.values}, meta)


def check_extended_reiher(
    H: Graph, W: StepGraphon, omega, metadata: dict | None = None
) -> VerificationReport:
    """Vertex-weighted density bound: the omega-weighted density of H is at
    least (int omega)^v(H) d*^e(H) for registry patterns."""
    func = as_step_function(omega, W)
    d = local_density_exact(W).d_star
    computed = hom_density_weighted(H, W, func)
    bound = func.integral() ** H.vertex_count * d**H.edge_count
    meta = {**_registry_meta(H), "d": float(d), **(metadata or {})}
    return _report("extended_reiher", computed, bound, {"H": H, "W": W, "omega": func.values}, meta)


# --- identity checks ---------------------------------------------------------------


def check_restriction_pullback(W: StepGraphon, a, b_prime, metadata: dict | None = None) -> VerificationReport:
    """Integrating W over a sub-box of the restriction equals the pulled-back
    integral over the original graphon divided by |A|^2, to 1e-12."""
    occ = as_occupancy(a, W.n)
    mass = occ.measure(W.measures)
    if mass <= 0.0:
        raise EmptySetError("occupancy selects a set of measure zero")
    restricted = restrict(W, occ)
    sub = as_occupancy(b_prime, restricted.n)
    weights = sub.values * restricted.measures
    lhs = float(weights @ restricted.values @ weights)
    keep = np.nonzero(occ.values > 0.0)[0]
    pullback = np.zeros(W.n)
    pullback[keep] = occ.values[keep] * sub.values
    pw = pullback * W.measures
    rhs = float(pw @ W.values @ pw) / mass**2
    meta = {"a_measure": float(mass), **(metadata or {})}
    inputs = {"W": W, "a": occ.values, "b_prime": sub.values}
    return _report("restriction_pullback", lhs, rhs, inputs, meta, kind="identity", tol=0.0)


def check_transform(H: Graph, s: int, W: StepGraphon, metadata: dict | None = None) -> VerificationReport:
    """t of the s-subdivision of H equals t(H, W_{s+1}) exactly."""
    rhs = hom_density_subdivided(H, s, W)  # rejects s < 0
    lhs = hom_density(subdivide(H, s), W)
    meta = {"s": s, **(metadata or {})}
    inputs = {"H": H, "W": W, "s": s}
    return _report("transform", lhs, rhs, inputs, meta, kind="identity", tol=IDENTITY_REL_TOL)


# --- suites ------------------------------------------------------------------------

DEFAULT_SUITE_NAME = "paper-default"
SUITE_CHECK_ORDER = (
    "transform",
    "sidorenko",
    "knrs",
    "weakly_knrs",
    "even_subdivision_sidorenko",
    "regular_subdivision_knrs",
    "superlevel_restriction",
    "reiher",
    "extended_reiher",
    "restriction_pullback",
)

# every trial's graphon has between SUITE_N_MIN and SUITE_N_MAX blocks
SUITE_N_MIN = 2
SUITE_N_MAX = 5

_ALLOWED_CONFIG_KEYS = {"suite", "checks", "seed", "trials"}


def _parse_config(config: dict | None) -> dict:
    config = dict(config or {})
    unknown = set(config) - _ALLOWED_CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    suite = config.get("suite")
    checks = config.get("checks")
    if suite is None and checks is None:
        suite = DEFAULT_SUITE_NAME
    if suite is not None:
        if suite != DEFAULT_SUITE_NAME:
            raise ConfigError(f"unknown suite {suite!r}")
        if checks is not None:
            raise ConfigError("pass either 'suite' or 'checks', not both")
        checks = list(SUITE_CHECK_ORDER)
    else:
        checks = list(checks)
        for name in checks:
            if name not in SUITE_CHECK_ORDER:
                raise ConfigError(f"unknown check {name!r}")
    seed, trials = int(config.get("seed", 0)), int(config.get("trials", 5))
    if trials < 0:
        raise ConfigError("trials must be nonnegative")
    return {"checks": checks, "seed": seed, "trials": trials}


def _trial_rng(seed: int, check_index: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, check_index, trial])


_TRANSFORM_PATTERNS = (("clique", 3), ("clique", 4), ("cycle", 5))
_SIDORENKO_PATTERNS = (("path", 2), ("path", 3), ("cycle", 4), ("cycle", 6))
_REGISTRY_PATTERNS = (
    ("clique", 3),
    ("cycle", 5),
    ("clique", 4),
    ("complete_multipartite", 2, 3),
)
_REGULAR_PATTERNS = (("clique", 3), ("cycle", 5), ("clique", 4))


def _pattern(spec) -> tuple:
    """(graph, label) of a catalog spec: ("cycle", 5) gives cycle_graph(5) and
    "cycle:5"."""
    name, *args = spec
    label = f"{name}:{','.join(str(a) for a in args)}" if args else name
    return graphs_mod.catalog(name, *args), label


def _run_check(name: str, seed: int, check_index: int, trial: int) -> VerificationReport:
    rng = _trial_rng(seed, check_index, trial)
    meta = {"seed": seed, "trial": trial}
    k = 1 + trial % 2

    def graphon(floor=0.0):
        # random block count, then values and Dirichlet measures
        n = int(rng.integers(SUITE_N_MIN, SUITE_N_MAX + 1))
        return sg._random_graphon(rng, n, floor, dirichlet=True)

    def pattern(specs):
        # the trial's pattern; its label goes into the metadata
        H, meta["pattern"] = _pattern(specs[trial % len(specs)])
        return H

    if name == "transform":
        H, s = pattern(_TRANSFORM_PATTERNS), 1 + trial % 4
        return check_transform(H, s, graphon(), metadata=meta)
    if name == "sidorenko":
        return check_sidorenko(pattern(_SIDORENKO_PATTERNS), graphon(), metadata=meta)
    if name == "knrs":
        return check_knrs(pattern(_REGISTRY_PATTERNS), graphon(), metadata=meta)
    if name == "weakly_knrs":
        return check_weakly_knrs(pattern((("clique", 3),)), k, graphon(), metadata=meta)
    if name == "even_subdivision_sidorenko":
        d = (0.2, 0.5, 0.8)[trial % 3]
        n = SUITE_N_MIN + trial % (SUITE_N_MAX - SUITE_N_MIN + 1)
        W = sg.gen_regular(n, d, seed=int(rng.integers(2**32)))
        H = pattern((("clique", 3), ("clique", 4)))
        return check_even_subdivision_sidorenko(H, k, W, metadata=meta)
    if name == "regular_subdivision_knrs":
        H = pattern(_REGULAR_PATTERNS)
        return check_regular_subdivision_knrs(H, k, graphon(), metadata=meta)
    if name == "superlevel_restriction":
        # bounded away from zero so the local density is positive
        return check_superlevel_restriction(graphon(floor=0.05), k, metadata=meta)
    if name == "reiher":
        W = graphon()
        return check_reiher(W, rng.uniform(0.0, 2.0, size=W.n), metadata=meta)
    if name == "extended_reiher":
        H, W = pattern(_REGISTRY_PATTERNS), graphon()
        return check_extended_reiher(H, W, rng.uniform(0.0, 2.0, size=W.n), metadata=meta)
    if name == "restriction_pullback":
        W = graphon()
        a = rng.uniform(0.0, 1.0, size=W.n)
        if not np.any(a > 0.0):
            a[0] = 1.0
        kept = int(np.count_nonzero(a > 0.0))
        b_prime = rng.uniform(0.0, 1.0, size=kept)
        return check_restriction_pullback(W, a, b_prime, metadata=meta)
    raise ConfigError(f"unknown check {name!r}")


def run_suite(config: dict | None = None) -> list:
    """Run the configured checks on deterministic instances.

    Returns the list of VerificationReports in a fixed order; rerunning with
    the same config reproduces it bit for bit."""
    cfg = _parse_config(config)
    reports = []
    for check_index, name in enumerate(cfg["checks"]):
        for trial in range(cfg["trials"]):
            reports.append(_run_check(name, cfg["seed"], check_index, trial))
    return reports


def summarize(reports) -> dict:
    failed = [r for r in reports if not r.passed and not r.advisory]
    advisory_failed = [r for r in reports if not r.passed and r.advisory]
    return {
        "total": len(reports),
        "passed": sum(1 for r in reports if r.passed),
        "failed": len(failed),
        "advisory_failed": len(advisory_failed),
    }


def reports_to_json(reports, config: dict | None = None) -> str:
    doc = {
        "schema": "v1",
        "reports": [r.to_dict() for r in reports],
        "summary": summarize(reports),
    }
    if config is not None:
        doc["config"] = _jsonable(config)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def reports_to_csv(reports) -> str:
    lines = ["check_name,ratio,passed,seed"]
    for r in reports:
        seed = r.metadata.get("seed", "")
        lines.append(f"{r.check_name},{r.ratio!r},{str(r.passed).lower()},{seed}")
    return "\n".join(lines) + "\n"
