"""Empirical tails and the tail functionals used on bound right-hand sides.

An empirical tail is a weighted sample of nonnegative values Y with the
right-continuous survival function S(t) = sum of weights of values > t.
Three functionals matter downstream:

  tail_integral    int_0^1 u^{q-1} P(Y > t u) du, evaluated in closed form
                   as sum_i w_i min(1, y_i / t)^q / q since the indicator
                   {y_i > t u} holds exactly for u < y_i / t,
  weak_lp_norm     sup_t t^p S(t), attained approaching an order statistic
                   from the left,
  conditional_moment_tail
                   the profile (E[||h||^p | xi_J])^{1/p} of a kernel as the
                   conditioning values vary, materialized as a tail.

One rule serves both kinds of law: the profile and the moments are read
off the law's quadrature rule (Distribution.nodes and nested_nodes), which
is the exact support grid on a finite law and Monte Carlo draws otherwise,
so the exact tails are the finite-law case of the same code.

required_integrability computes the moment exponent that makes the
almost-sure rate series for a degenerate order-d kernel summable.

quantile and median read empirical order statistics for the experiments
(the automatic t-grid, the lln medians, the Holder quantile rows,
holder.calibrate_epsilon and the reports' stability score).  They give np.quantile's default "linear"
method (Hyndman & Fan's type 7) and np.median bit for bit by doing what
numpy does, without its masked-array checks: np.quantile and np.median
import numpy.ma on first use, which takes 8-17 ms, a quarter of a short
experiment run.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .kernels import Distribution, Kernel, evaluate_batch, evaluate_nested
from .spaces import BanachSpaceDescriptor, real_line

__all__ = [
    "EmpiricalTail",
    "conditional_moment_tail",
    "median",
    "norm_moment",
    "order_positions",
    "quantile",
    "required_integrability",
    "tail_integral",
    "weak_lp_norm",
]


class EmpiricalTail(NamedTuple):
    """Sorted nonnegative sample with probability weights."""

    values: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_samples(cls, values, weights=None) -> "EmpiricalTail":
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size and v.min() < 0:
            raise ValueError("tail values must be nonnegative")
        if weights is None:
            w = np.full(v.shape, 1.0 / v.size) if v.size else np.zeros(0)
        else:
            w = np.asarray(weights, dtype=np.float64).ravel()
            if w.shape != v.shape:
                raise ValueError("weights must match values in length")
            if w.size and (w.min() < 0 or abs(w.sum() - 1.0) > 1e-9):
                raise ValueError("weights must be nonnegative and sum to 1")
        order = np.argsort(v, kind="stable")
        return cls(values=v[order], weights=w[order])

    @property
    def size(self) -> int:
        return int(self.values.size)

    def survival(self, t: float) -> float:
        """P(Y > t), right-continuous in t."""
        pos = np.searchsorted(self.values, t, side="right")
        return float(self.weights[pos:].sum())

    def quantile(self, level: float) -> float:
        """Smallest value with cumulative weight >= level."""
        if not 0.0 < level <= 1.0:
            raise ValueError("level must lie in (0, 1]")
        if self.size == 0:
            raise ValueError("empty tail has no quantiles")
        cum = np.cumsum(self.weights)
        pos = int(np.searchsorted(cum, level - 1e-12, side="left"))
        pos = min(pos, self.size - 1)
        return float(self.values[pos])


def order_positions(n: int, levels):
    """The order statistics quantile reads from n values at levels.

    Returns the levels q as a float64 array, the virtual indexes
    v = (n - 1) q, and the floor of each v and the next index, both -1
    at or past n - 1: the positions numpy's "linear" method reads.
    """
    q = np.asarray(levels, dtype=np.float64)
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise ValueError("quantile levels must lie in [0, 1]")
    v = (n - 1) * q.ravel()
    lo = np.floor(v)
    hi = lo + 1
    top = v >= n - 1
    lo[top] = hi[top] = -1
    return q, v, lo.astype(np.intp), hi.astype(np.intp)


def quantile(values, levels) -> np.ndarray:
    """np.quantile(values, levels), method "linear", in the shape of levels.

    Partitions a float64 copy on numpy's own kth set, {0, -1} with the
    order_positions, so ties of unequal bits (+-0.0) land where numpy
    puts them; interpolates as numpy's _lerp does.
    """
    part = np.array(values, dtype=np.float64).ravel()
    q, v, lo, hi = order_positions(part.size, levels)
    part.partition(sorted({0, -1, *lo.tolist(), *hi.tolist()}))
    a, b = part[lo], part[hi]
    g = v - lo
    d = b - a
    out = np.where(g >= 0.5, b - d * (1 - g), a + d * g)
    if np.isnan(part[-1]):
        out[:] = part[-1]
    return out.reshape(q.shape)


def median(values) -> float:
    """np.median(values): the middle value, or the mean of the middle pair.

    Partitions a float64 copy on numpy's kth set (the middle one or two
    indexes and -1), and is the last value when that is NaN.
    """
    part = np.array(values, dtype=np.float64).ravel()
    n = part.size
    part.partition([n // 2 - 1, n // 2, -1] if n % 2 == 0 else [n // 2, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(part[(n - 1) // 2:n // 2 + 1].mean())


def tail_integral(tail: EmpiricalTail, t: float, q: float) -> float:
    """int_0^1 u^{q-1} P(Y > t u) du in closed form."""
    if t <= 0:
        raise ValueError("t must be positive")
    if q <= 0:
        raise ValueError("q must be positive")
    if tail.size == 0:
        return 0.0
    u = np.minimum(1.0, tail.values / t)
    return float(np.dot(tail.weights, u**q) / q)


def weak_lp_norm(tail: EmpiricalTail, p: float) -> float:
    """sup_t t^p P(Y > t); the sup is approached just below an order statistic."""
    if p <= 0:
        raise ValueError("p must be positive")
    if tail.size == 0:
        return 0.0
    suffix = np.cumsum(tail.weights[::-1])[::-1]
    return float(np.max(tail.values**p * suffix))


def _free_positions(m: int, conditioned: tuple[int, ...]) -> list[int]:
    cond = set(conditioned)
    if any(j < 0 or j >= m for j in cond):
        raise ValueError(f"conditioned positions must lie in [0, {m})")
    if len(cond) != len(conditioned):
        raise ValueError("conditioned positions must be distinct")
    return [j for j in range(m) if j not in cond]


def conditional_moment_tail(
    h: Kernel,
    dist: Distribution,
    conditioned: tuple[int, ...],
    p: float,
    outer: int = 256,
    inner: int = 1024,
    seed: int = 0,
    space: BanachSpaceDescriptor | None = None,
) -> EmpiricalTail:
    """Tail of the conditional moment profile (E[||h||^p | xi_J])^{1/p}.

    J is a tuple of 0-based kernel positions held fixed.  The profile is
    read off the law's nested rule (Distribution.nested_nodes): exact on a
    finite support (a weighted tail over support^|J| atoms), otherwise
    `outer` conditioning draws with `inner` fresh draws of the remaining
    positions each.  With J empty the tail is a point mass at the
    unconditional moment; with J covering every position the profile is
    ||h|| itself.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    space = space if space is not None else h.codomain
    conditioned = tuple(conditioned)
    free = _free_positions(h.arity, conditioned)
    outer_pts, outer_w, inner_pts, inner_w = dist.nested_nodes(
        len(conditioned), len(free), outer, inner, seed, "cond-moment")
    cond = _nested_powered_norms(h, space, conditioned, outer_pts, inner_pts, p) @ inner_w
    if not conditioned:
        cond, outer_w = np.array([cond @ outer_w]), np.ones(1)
    return EmpiricalTail.from_samples(cond ** (1.0 / p), outer_w / outer_w.sum())


def _nested_powered_norms(h, space, conditioned, outer_pts, inner_pts, p) -> np.ndarray:
    """||h||^p on a nested rule, shape (O, I)."""
    return space.norms(evaluate_nested(h, conditioned, outer_pts, inner_pts)) ** p


def norm_moment(
    h: Kernel,
    dist: Distribution,
    p: float,
    draws: int = 1 << 16,
    seed: int = 0,
    space: BanachSpaceDescriptor | None = None,
) -> float:
    """E[||h(xi_1..xi_m)||^p] on the law's rule: exact on a finite support,
    else `draws` Monte Carlo tuples."""
    if p <= 0:
        raise ValueError("p must be positive")
    m = h.arity
    space = space if space is not None else h.codomain
    points, weights = dist.nodes(m, draws, seed, "norm-moment")
    vals = evaluate_batch(h, [points[:, k] for k in range(m)])
    return float(np.dot(space.norms(vals) ** p, weights))


def required_integrability(d: int, j: int, gamma: float, r: float, alpha: float) -> float:
    """Moment exponent q(d, j, gamma, r) = (gamma+j+1) / (max(d,j)(r-1)/r - alpha + j/r).

    This is the integrability level of the kernel norm under which the
    rate series sum_N N^gamma P(sup_{n >= N} n^alpha ||U_n|| / C(n,m) > eps)
    converges for a degenerate kernel of order d, term index j.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if j < 0:
        raise ValueError("j must be nonnegative")
    if not 1.0 < r <= 2.0:
        raise ValueError("r must lie in (1, 2]")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if not 0.0 < alpha < d * (r - 1.0) / r:
        raise ValueError("alpha must lie in (0, d (r-1)/r)")
    denom = max(d, j) * (r - 1.0) / r - alpha + j / r
    if denom <= 0:
        raise ValueError("rate denominator is nonpositive for these parameters")
    return (gamma + j + 1.0) / denom
