"""Work budgets: the one gate every exact computation passes before it starts.

Each budgeted operation counts its work in its own unit and calls charge()
before any arithmetic or allocation.  The GRAPHONLAB_BUDGET environment
variable (a single finite number above 0) replaces every default below; it is
the only way to change a limit.
"""

from __future__ import annotations

import math
import os

from .errors import BudgetExceededError, ConfigError

ENV_VAR = "GRAPHONLAB_BUDGET"

DEFAULT_CELL_BUDGET = 10**9  # block-tensor cells: elimination plans, walk powers
DEFAULT_ENUMERATION_BUDGET = 10**8  # maps of hom_density_naive and hom_count
DEFAULT_SUPPORT_BUDGET = 2**18  # simplex supports of the exact local-density solver
DEFAULT_GRID_BUDGET = 10**7  # lattice points of grid_certificate
DEFAULT_ESTIMATE_BUDGET = 10**7  # PGD starts times n * n
DEFAULT_GRAPHON_CELLS = 10**7  # n * n values of a CLI graphon spec: 80 MB, n <= 3162


def resolve_budget(default: float) -> float:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return float(default)
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    # NaN would silently pass every budget check, and inf switch them all off
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{ENV_VAR} must be a finite number above 0, got {raw!r}")
    return value


def charge(work: int | float, default: float, what: str, unit: str) -> None:
    """Raise BudgetExceededError when work (counted in unit) exceeds the
    budget: GRAPHONLAB_BUDGET when set, else default.  An int work may exceed
    any float, so it is printed exactly."""
    budget = resolve_budget(default)
    if work > budget:
        shown = f"{work:g}" if isinstance(work, float) else str(work)
        raise BudgetExceededError(f"{what} needs {shown} {unit}, budget {budget:g}")
