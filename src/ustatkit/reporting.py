"""Report records shared by the inequality experiments.

An experiment produces grid rows, each carrying an estimated left side,
its Monte Carlo standard error, the theoretical right side evaluated at
the same grid point, and their ratio.  Since the bounds hold only up to
an unspecified constant, the verdict is about the ratios: the fitted
constant is the largest ratio seen, and the stability score compares it
to the median positive ratio.  A bound that genuinely controls the left
side produces ratios on a common scale; one that misses produces ratios
that drift with the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["InequalityReport", "ratio_summary"]


def ratio_summary(ratios) -> tuple[float, float, float]:
    """(max ratio, max/median over positive ratios, max/min over positive).

    Rows with ratio zero correspond to thresholds beyond every observed
    value; they are legitimate but carry no scale information, so the
    stability statistics are computed over the positive ratios only.
    Returns (0, 0, 0) when nothing was observed at all, and (nan, nan, nan)
    when any ratio is NaN, whatever the row order, so the report fails.
    """
    vals = [float(r) for r in ratios]
    if not vals:
        return 0.0, 0.0, 0.0
    if any(math.isnan(v) for v in vals):
        return math.nan, math.nan, math.nan
    top = max(vals)
    positive = sorted(v for v in vals if v > 0.0)
    if not positive:
        return top, 0.0, 0.0
    k = len(positive)
    if k % 2:
        median = positive[k // 2]
    else:
        median = 0.5 * (positive[k // 2 - 1] + positive[k // 2])
    stability = top / median if median > 0 else math.inf
    spread = top / positive[0]
    return top, stability, spread


@dataclass
class InequalityReport:
    """Outcome of one inequality experiment over a parameter grid.

    rows: per-grid-point dictionaries (keys vary by experiment, always
          including an estimate, a standard error, and a ratio).
    fitted_constant: max ratio, the empirical stand-in for the bound's
          unspecified constant.
    stability: max ratio / median positive ratio.
    passed: the experiment's own criterion (finite constant, stability
          within its configured factor, plus any extra checks).
    details: experiment parameters and auxiliary diagnostics.
    """

    kind: str
    rows: list
    fitted_constant: float
    stability: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rows": self.rows,
            "fitted_constant": self.fitted_constant,
            "stability": self.stability,
            "passed": self.passed,
            "details": self.details,
        }
