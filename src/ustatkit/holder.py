"""Holder norms of piecewise-linear paths and a dyadic increment statistic.

The norm ||x||_a = |x(0)| + sup_{s<t} |x(s) - x(t)| / (t - s)^a is computed
exactly for interpolated paths by scanning breakpoint pairs.  For a fixed s
the ratio along one segment of t-values is D(u) u^(-a) with D piecewise
linear in u = t - s, and such a function attains its maximum at an endpoint
of each linear piece (interior critical points are minima when the slope
and difference share a sign, and the ratio is monotone otherwise).  The
same argument applies in s for fixed t, so the supremum sits on a pair of
breakpoints.  The norm is therefore the largest corner ratio
|x(t_j) - x(t_i)| / (t_j - t_i)^a over breakpoint pairs i < j, and the scan
takes one lag j - i at a time, for one path or a whole matrix of paths on
a shared grid.

On the uniform grid k/n of holder_norms every pair at lag L has the same
gap, so the scan takes each row's largest |increment| at that lag first
and divides once.  This is exact: division by a positive g is correctly
rounded and therefore monotone, so max_i (|D_i| / g) = (max_i |D_i|) / g
bit for bit, and a NaN in a row reaches the maximum either way.  The one
gap per lag is t[L] - t[0]; when n is a power of two k/n is exact in
binary, so it equals every pair's t[i+L] - t[i] and the norms are the
per-pair scan's bits.  For other n, t[L] - t[0] is L/n rounded once,
while t[i+L] - t[i] carries the roundings of both breakpoints, up to 2n/L
units in the last place of L/n, so the two scans agree to about
alpha n / L ulps of the norm, and the one gap is the nearer to L/n.
holder_norm keeps the per-pair gaps, on any breakpoints, as the oracle.

The uniform scan also drops a row once no later lag can raise its norm.
No computed increment of a row exceeds its span max - min (rounding is
monotone), so when span / g <= best for the smallest gap power g at the
current lag or any later one, every later ratio is at most best, and the
row's norm keeps its bits.  A row whose span is not finite (it holds NaN
or +-inf, or its span overflows) scans every lag: inf - inf is a NaN that
its norm must show.

The dyadic statistic counts, per cell (j, k), how often the raw partial
sum increment |S_floor(n(k+1)/2^j) - S_floor(nk/2^j)| exceeds
n^(d/2) 2^(-a j) eps, and reports the tail sums over j >= J whose decay is
the tightness diagnostic for interpolated U-statistic processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, log2

import numpy as np

from ._parallel import parallel_map
from .tails import quantile

__all__ = [
    "DyadicExceedanceTable",
    "HolderParams",
    "calibrate_epsilon",
    "dyadic_increment_exceedance",
    "holder_norm",
    "holder_norm_grid",
    "holder_norms",
]

# The pair scan is quadratic in the breakpoint count.
MAX_SCAN_BREAKPOINTS = 8192


@dataclass(frozen=True)
class HolderParams:
    """Exponent bundle for the functional-limit regime."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha={self.alpha} outside (0, 1/2)")

    @property
    def p_of_alpha(self) -> float:
        """Critical tail exponent 1 / (1/2 - alpha), always > 2."""
        return 1.0 / (0.5 - self.alpha)


# Lags between the uniform scan's tests for rows it can drop.
STOP_CHECK_LAGS = 16

# Rows per scan chunk.  Chunk bounds never depend on the thread count, so
# the norms are the same bits at any thread count.  A matrix of at most
# this many rows is one chunk, scanned in the calling thread: chunks of a
# few dozen rows lose more to thread hand-offs than a second thread wins.
SCAN_CHUNK_ROWS = 128


def _path_arrays(path) -> tuple[np.ndarray, np.ndarray]:
    if hasattr(path, "breakpoints") and hasattr(path, "values"):
        t = np.asarray(path.breakpoints, dtype=np.float64)
        y = np.asarray(path.values, dtype=np.float64)
    else:
        y = np.asarray(path, dtype=np.float64)
        if y.ndim != 1 or y.size < 1:
            raise ValueError("path must be 1-d with at least one value")
        t = np.linspace(0.0, 1.0, y.size) if y.size > 1 else np.zeros(1)
    if t.shape != y.shape:
        raise ValueError("breakpoints and values must align")
    if not np.all(np.isfinite(t)):
        raise ValueError("breakpoints must be finite")
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise ValueError("breakpoints must be strictly increasing")
    return t, y


def _pair_scan(t: np.ndarray, values: np.ndarray, alpha: float,
               uniform: bool = False) -> np.ndarray:
    """Norms of the rows of a (B, npts) value matrix over breakpoints t.

    Each pair is divided by its own gap power (t_{i+lag} - t_i)^alpha, or,
    with `uniform` (t = k/n), each row's largest |increment| at a lag is
    divided once by that lag's one gap power (t_lag - t_0)^alpha, and every
    STOP_CHECK_LAGS lags the rows that no later lag can change are dropped;
    both are exact (see the module docstring).  One numpy op per lag covers
    every live row; each row's arithmetic is the same as scanning that row
    alone.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    npts = values.shape[1]
    if npts > MAX_SCAN_BREAKPOINTS + 1:
        raise ValueError(
            f"{npts} breakpoints exceed the pair-scan cap "
            f"{MAX_SCAN_BREAKPOINTS}; use the dyadic statistic instead"
        )
    if uniform:
        lag_gaps = (t[1:] - t[0]) ** alpha
        # the smallest gap power at each lag or any later one
        floors = np.minimum.accumulate(lag_gaps[::-1])[::-1]
        spans = values.max(axis=1) - values.min(axis=1)
    best = np.zeros(values.shape[0])
    live, rows = np.arange(values.shape[0]), values
    for lag in range(1, npts):
        if uniform and lag % STOP_CHECK_LAGS == 0:
            done = np.isfinite(spans[live]) & (spans[live] / floors[lag - 1] <= best[live])
            if done.any():
                live = live[~done]
                rows = values[live]
                if not live.size:
                    break
        diffs = rows[:, lag:] - rows[:, :-lag]
        if uniform:
            top = np.maximum(diffs.max(axis=1), -diffs.min(axis=1)) / lag_gaps[lag - 1]
        else:
            top = (np.abs(diffs) / (t[lag:] - t[:-lag]) ** alpha).max(axis=1)
        best[live] = np.maximum(best[live], top)
    return np.abs(values[:, 0]) + best


def holder_norm(path, alpha: float) -> float:
    """|x(0)| plus the exact increment supremum of a piecewise-linear path."""
    t, y = _path_arrays(path)
    return float(_pair_scan(t, y[None, :], alpha)[0])


def holder_norms(values, alpha: float, threads: int | None = None) -> np.ndarray:
    """Norms of B paths given as a (B, n+1) matrix on the uniform grid k/n.

    Chunks of SCAN_CHUNK_ROWS rows are mapped over `threads` workers.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] < 1:
        raise ValueError("values must be a (B, n+1) matrix with n >= 0")
    n = values.shape[1] - 1
    t = np.arange(n + 1) / max(n, 1)

    def scan(chunk: int) -> np.ndarray:
        rows = values[chunk * SCAN_CHUNK_ROWS:(chunk + 1) * SCAN_CHUNK_ROWS]
        return _pair_scan(t, rows, alpha, uniform=True)

    chunks = max(-(-values.shape[0] // SCAN_CHUNK_ROWS), 1)
    return np.concatenate(parallel_map(scan, chunks, threads))


def holder_norm_grid(path, alpha: float, points: int = 20000) -> float:
    """Brute-force lower bound over a uniform evaluation grid.

    Oracle companion to holder_norm: it knows nothing about segments and
    simply maximizes over all grid pairs, so it can only undershoot the
    true supremum by the grid resolution.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    if points < 2:
        raise ValueError("need at least two grid points")
    t, y = _path_arrays(path)
    if y.size == 1:
        return abs(float(y[0]))
    grid = np.linspace(t[0], t[-1], points)
    vals = np.interp(grid, t, y)
    dt = grid[1] - grid[0]
    best = 0.0
    for lag in range(1, points):
        diffs = vals[lag:] - vals[:-lag]
        np.abs(diffs, out=diffs)
        best = max(best, float(diffs.max()) / (lag * dt) ** alpha)
    return abs(float(vals[0])) + best


# ---------------------------------------------------------------------------
# dyadic increment exceedance


def _raw_paths_matrix(paths) -> np.ndarray:
    rows = []
    for path in paths:
        raw = path.raw if hasattr(path, "raw") else path
        rows.append(np.asarray(raw, dtype=np.float64))
    if not rows:
        raise ValueError("need at least one path")
    width = rows[0].size
    if any(r.size != width for r in rows):
        raise ValueError("all paths must share the same breakpoint count")
    if width < 2:
        raise ValueError("paths must have at least one increment")
    return np.stack(rows, axis=0)


@dataclass(frozen=True)
class DyadicExceedanceTable:
    """Per-cell exceedance frequencies and their dyadic layer aggregates.

    rows:       one dict per cell (j, k) with the sampled increment window
                [low, high] and the exceedance frequency across paths.
    layer_sums: (j, sum of frequencies over k) for each level.
    tail_sums:  (J, sum of layer sums for j >= J); the diagnostic curve.
    """

    n: int
    d: int
    alpha: float
    eps: float
    path_count: int
    rows: list
    layer_sums: list
    tail_sums: list

    def tail_sum(self, J: int) -> float:
        for level, value in self.tail_sums:
            if level == J:
                return value
        raise KeyError(f"no tail sum recorded for J={J}")


def _cell_bounds(n: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(2**j, dtype=np.int64)
    low = (n * k) >> j
    high = (n * (k + 1)) >> j
    return low, high


def dyadic_increment_exceedance(
    paths, alpha: float, eps: float, d: int, j_max: int
) -> DyadicExceedanceTable:
    """Tabulate dyadic increment exceedances of raw partial sum paths.

    For each level j in [0, j_max] and cell k in [0, 2^j) the statistic is
    the fraction of paths with |S_high - S_low| > n^(d/2) 2^(-alpha j) eps,
    where low and high are the floored dyadic positions.  Raw breakpoint
    values are used; any path normalization is ignored on purpose, since
    the threshold carries the n^(d/2) scaling itself.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if d < 1:
        raise ValueError("degeneracy order d must be >= 1")
    S = _raw_paths_matrix(paths)
    n = S.shape[1] - 1
    levels = floor(log2(n))
    if j_max > levels:
        raise ValueError(f"j_max={j_max} exceeds floor(log2({n})) = {levels}")
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")

    rows = []
    layer_sums = []
    scale = float(n) ** (d / 2.0)
    for j in range(j_max + 1):
        low, high = _cell_bounds(n, j)
        inc = np.abs(S[:, high] - S[:, low])
        threshold = scale * 2.0 ** (-alpha * j) * eps
        freq = (inc > threshold).mean(axis=0)
        for k in range(2**j):
            rows.append(
                {
                    "j": j,
                    "k": k,
                    "frequency": float(freq[k]),
                    "low": int(low[k]),
                    "high": int(high[k]),
                }
            )
        layer_sums.append((j, float(freq.sum())))

    tails = []
    running = 0.0
    for j, s in reversed(layer_sums):
        running += s
        tails.append((j, running))
    tails.reverse()

    return DyadicExceedanceTable(
        n=n,
        d=d,
        alpha=alpha,
        eps=eps,
        path_count=S.shape[0],
        rows=rows,
        layer_sums=layer_sums,
        tail_sums=tails,
    )


def calibrate_epsilon(paths, alpha: float, d: int, j_max: int, level: float = 0.9):
    """Pooled quantile of normalized dyadic increments, used to pick eps.

    Collects |S_high - S_low| / (n^(d/2) 2^(-alpha j)) over every cell of
    every level up to j_max and across all paths, then returns the
    requested quantile.  Calibrating eps this way guarantees a nontrivial
    fraction of exceedances without hand-tuning per kernel.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be inside (0, 1)")
    S = _raw_paths_matrix(paths)
    n = S.shape[1] - 1
    levels = floor(log2(n))
    if j_max > levels:
        raise ValueError(f"j_max={j_max} exceeds floor(log2({n})) = {levels}")
    scale = float(n) ** (d / 2.0)
    pool = []
    for j in range(j_max + 1):
        low, high = _cell_bounds(n, j)
        inc = np.abs(S[:, high] - S[:, low]) / (scale * 2.0 ** (-alpha * j))
        pool.append(inc.ravel())
    pooled = np.concatenate(pool)
    return float(quantile(pooled, level))
