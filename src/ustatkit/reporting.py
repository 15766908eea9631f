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
from typing import NamedTuple

from .tails import median

__all__ = ["InequalityReport", "ratio_report", "ratio_summary"]


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
    positive = [v for v in vals if v > 0.0]
    if not positive:
        return top, 0.0, 0.0
    mid = median(positive)
    stability = top / mid if mid > 0 else math.inf
    spread = top / min(positive)
    return top, stability, spread


class InequalityReport(NamedTuple):
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
    details: dict

    def to_dict(self) -> dict:
        return self._asdict()


def ratio_report(kind: str, rows: list, details: dict, factor: float,
                 score: str = "stability", extra: bool = True) -> InequalityReport:
    """The report of a ratio-based experiment, verdict included.

    ratio_summary over the rows' "ratio" values gives the fitted constant
    and the stability, and details gains its "ratio_spread".  The report
    passes when the fitted constant is finite, the named score
    ("stability" or "spread") is at most factor, and extra holds.
    """
    fitted, stability, spread = ratio_summary([row["ratio"] for row in rows])
    scored = spread if score == "spread" else stability
    return InequalityReport(
        kind=kind,
        rows=rows,
        fitted_constant=fitted,
        stability=stability,
        passed=bool(math.isfinite(fitted) and scored <= factor and extra),
        details={**details, "ratio_spread": spread},
    )
