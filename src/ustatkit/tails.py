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
                   conditioning values vary, materialized as a tail either
                   exactly (finite-support laws) or by nested Monte Carlo.

required_integrability computes the moment exponent that makes the
almost-sure rate series for a degenerate order-d kernel summable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Distribution, Kernel, evaluate_batch, stream, support_grid
from .spaces import BanachSpaceDescriptor, real_line

__all__ = [
    "EmpiricalTail",
    "conditional_moment_tail",
    "norm_moment",
    "required_integrability",
    "tail_integral",
    "weak_lp_norm",
]


@dataclass(frozen=True)
class EmpiricalTail:
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

    J is a tuple of 0-based kernel positions held fixed.  Finite-support
    laws are enumerated exactly (a weighted tail over support^|J| atoms);
    otherwise the profile is sampled with `outer` conditioning draws and
    `inner` fresh draws of the remaining positions per conditioning draw.
    With J empty the tail is a point mass at the unconditional moment; with
    J covering every position the profile is just ||h|| itself.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    m = h.arity
    space = space if space is not None else h.codomain
    free = _free_positions(m, tuple(conditioned))
    support = dist.support()

    if support is not None:
        atoms, probs = support
        outer_cols, outer_w = support_grid(atoms, probs, len(conditioned))
        inner_cols, inner_w = support_grid(atoms, probs, len(free))
        cols: list[np.ndarray] = [None] * m  # type: ignore[list-item]
        for a, j in enumerate(conditioned):
            cols[j] = outer_cols[:, a][:, None]
        for a, j in enumerate(free):
            cols[j] = inner_cols[:, a][None, :]
        vals = evaluate_batch(h, cols)
        powed = space.norms(vals) ** p
        # norms() drops a trailing singleton axis for scalar codomains, so
        # pin the (conditioning grid, completion grid) shape before averaging
        powed = powed.reshape(len(outer_w), len(inner_w))
        profile = (powed @ inner_w) ** (1.0 / p)
        return EmpiricalTail.from_samples(profile, outer_w / outer_w.sum())

    if not conditioned:
        draws = dist.sample(stream(seed, "cond-moment", 0), outer * inner * m)
        cols = [draws[k * outer * inner:(k + 1) * outer * inner] for k in range(m)]
        powed = space.norms(evaluate_batch(h, cols)) ** p
        return EmpiricalTail.from_samples(np.array([powed.mean() ** (1.0 / p)]))

    rng_outer = stream(seed, "cond-moment", 1)
    rng_inner = stream(seed, "cond-moment", 2)
    outer_draws = dist.sample(rng_outer, outer * len(conditioned)).reshape(outer, len(conditioned))
    cols = [None] * m  # type: ignore[list-item]
    for a, j in enumerate(conditioned):
        cols[j] = outer_draws[:, a][:, None]
    if free:
        inner_draws = dist.sample(rng_inner, outer * inner * len(free))
        inner_draws = inner_draws.reshape(len(free), outer, inner)
        for a, j in enumerate(free):
            cols[j] = inner_draws[a]
        powed = space.norms(evaluate_batch(h, cols)) ** p
        profile = powed.mean(axis=1) ** (1.0 / p)
    else:
        flat = [c[:, 0] for c in cols]
        profile = space.norms(evaluate_batch(h, flat))
    return EmpiricalTail.from_samples(profile)


def norm_moment(
    h: Kernel,
    dist: Distribution,
    p: float,
    draws: int = 1 << 16,
    seed: int = 0,
    space: BanachSpaceDescriptor | None = None,
) -> float:
    """E[||h(xi_1..xi_m)||^p], exact for finite-support laws, else MC."""
    if p <= 0:
        raise ValueError("p must be positive")
    m = h.arity
    space = space if space is not None else h.codomain
    support = dist.support()
    if support is not None:
        atoms, probs = support
        cols_mat, w = support_grid(atoms, probs, m)
        vals = evaluate_batch(h, [cols_mat[:, k] for k in range(m)])
        return float(np.dot(space.norms(vals) ** p, w))
    sample = dist.sample(stream(seed, "norm-moment"), draws * m)
    cols = [sample[k * draws:(k + 1) * draws] for k in range(m)]
    return float(np.mean(space.norms(evaluate_batch(h, cols)) ** p))


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
