"""Work budgets for enumeration and contraction engines.

Every budgeted operation takes an optional explicit budget argument.  When the
argument is None, the GRAPHONLAB_BUDGET environment variable (a single finite
number above 0, applied to every knob) wins over the per-operation default.
"""

from __future__ import annotations

import math
import os

from .errors import ConfigError

ENV_VAR = "GRAPHONLAB_BUDGET"


def resolve_budget(explicit: float | None, default: float) -> float:
    if explicit is not None:
        return float(explicit)
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return float(default)
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    # NaN would silently pass every budget check and inf has no log2
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{ENV_VAR} must be a finite number above 0, got {raw!r}")
    return value
