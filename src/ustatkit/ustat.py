"""Complete and weighted U-statistic evaluation over increasing tuples.

The sum U_n = sum over increasing m-tuples i of h(xi_i) is evaluated in
colexicographic rank order with compensated accumulation across chunks.
The prefix engine exploits the fact that colex order groups tuples by
their last coordinate: appending sample point n-1 contributes exactly the
block h(xi_i, xi_{n-1}) over the increasing (m-1)-tuples below n-1, so the
whole trajectory n -> U_n costs C(N, m) kernel evaluations.  The engine
steps a block of B independent samples at once: each colex step gathers
the block's columns, evaluates h on (B, k) arrays in one call and adds
each row's sum into that row's compensated total, so B trajectories cost
N - m + 1 kernel calls instead of B times as many.

Evaluation refuses more than 10^8 summands; incomplete designs (see the
incomplete module) are the intended tool past that size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import comb

import numpy as np

from .combinatorics import count_tuples, enumerate_tuples, unrank_many
from .hoeffding import HoeffdingComponent, project_degenerate_level
from .kernels import Distribution, Kernel, evaluate_batch
from .spaces import BanachSpaceDescriptor

__all__ = [
    "DecompositionCheck",
    "EvaluationBudgetError",
    "MAX_EVALUATION_TERMS",
    "PartialSumPath",
    "UStatResult",
    "complete_ustat",
    "decomposition_identity_check",
    "partial_sum_path",
    "prefix_values",
    "projection_ustat",
    "running_max_norms",
]

MAX_EVALUATION_TERMS = 10**8
_CHUNK = 1 << 20


class EvaluationBudgetError(RuntimeError):
    """Raised when a complete evaluation would exceed the summand cap."""


@dataclass(frozen=True)
class UStatResult:
    value: object  # float for scalar codomains, numpy vector otherwise
    n: int
    m: int
    terms: int
    total_weight: float


def _kahan_add(total, comp, x):
    y = x - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def _zero(h: Kernel):
    return 0.0 if h.codomain.dimension == 1 else np.zeros(h.codomain.dimension)


def _as_value(h: Kernel, total):
    if h.codomain.dimension == 1:
        return float(total)
    return np.asarray(total, dtype=np.float64)


def ranked_term_sum(
    h: Kernel,
    sample: np.ndarray,
    n: int,
    rank_chunks,
    weight_chunks=None,
):
    """Sum h over tuples given by colex rank chunks, with optional weights.

    Shared by complete evaluation (all ranks ascending) and incomplete
    designs (selected ranks ascending); identical rank sequences produce
    bit-identical results because chunking, per-chunk pairwise summation,
    and the compensated cross-chunk accumulation all match.
    """
    total = _zero(h)
    comp = _zero(h)
    weight_total = 0.0
    if weight_chunks is None:
        weight_chunks = repeat(None)
    for ranks, weights in zip(rank_chunks, weight_chunks):
        cols = unrank_many(ranks, n, h.arity)
        vals = evaluate_batch(
            h, [sample[c] for c in cols], cols if h.weighted else None
        )
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64)
            if h.codomain.dimension > 1:
                vals = vals * w[:, None]
            else:
                vals = vals * w
            weight_total += float(w.sum())
        else:
            weight_total += float(len(ranks))
        inc = vals.sum(axis=0)
        total, comp = _kahan_add(total, comp, inc)
    return total, weight_total


def _arange_chunks(total: int):
    for a in range(0, total, _CHUNK):
        yield np.arange(a, min(a + _CHUNK, total), dtype=np.int64)


def complete_ustat(h: Kernel, sample, n: int | None = None) -> UStatResult:
    """U_n = sum over all increasing m-tuples; zero when n < m."""
    sample = np.asarray(sample, dtype=np.float64)
    n = int(len(sample) if n is None else n)
    if n > len(sample):
        raise ValueError(f"n={n} exceeds sample length {len(sample)}")
    m = h.arity
    total_terms = count_tuples(n, m)
    if total_terms > MAX_EVALUATION_TERMS:
        raise EvaluationBudgetError(
            f"C({n}, {m}) = {total_terms} summands exceed the cap "
            f"{MAX_EVALUATION_TERMS}; use an incomplete design instead"
        )
    if total_terms == 0:
        return UStatResult(_as_value(h, _zero(h)), n, m, 0, 0.0)
    total, weight_total = ranked_term_sum(
        h, sample, n, _arange_chunks(total_terms)
    )
    return UStatResult(_as_value(h, total), n, m, total_terms, weight_total)


def prefix_values(h: Kernel, sample, N: int | None = None) -> np.ndarray:
    """Trajectories U_0..U_N of one sample or of a block of samples.

    A sample of shape (N',) gives shape (N+1,) or (N+1, dim); a block of
    shape (B, N') gives one trajectory per row, shape (B, N+1) or
    (B, N+1, dim).  U_n is zero for n < m; each step adds the block of
    summands whose last coordinate is the newly revealed point.  A 1-D
    sample is the B = 1 block, and every row of a block is bit-identical
    to the trajectory of that row alone: rows are gathered C-contiguous,
    so each row's summands are added pairwise exactly as for one row, and
    the compensated accumulation is elementwise.
    """
    sample = np.asarray(sample, dtype=np.float64)
    if sample.ndim not in (1, 2):
        raise ValueError(f"sample must be 1-D or a 2-D block, got shape {sample.shape}")
    block = sample if sample.ndim == 2 else sample[None, :]
    N = int(block.shape[1] if N is None else N)
    if N > block.shape[1]:
        raise ValueError(f"N={N} exceeds sample length {block.shape[1]}")
    m = h.arity
    if count_tuples(N, m) > MAX_EVALUATION_TERMS:
        raise EvaluationBudgetError(
            f"C({N}, {m}) = {count_tuples(N, m)} summands exceed the cap "
            f"{MAX_EVALUATION_TERMS}"
        )
    rows = block.shape[0]
    point = () if h.codomain.dimension == 1 else (h.codomain.dimension,)
    out = np.zeros((rows, N + 1) + point)
    if N >= m:
        sub_cols = _colex_columns(N - 1, m - 1) if m > 1 else []
        total = np.zeros((rows,) + point)
        comp = np.zeros((rows,) + point)
        for n in range(m, N + 1):
            k = comb(n - 1, m - 1)
            cols = [sc[:k] for sc in sub_cols]
            cols.append(np.full(k, n - 1, dtype=np.int64))
            vals = evaluate_batch(
                h, [np.take(block, c, axis=1) for c in cols],
                cols if h.weighted else None,
            )
            # a body may return a value that only broadcasts to (B, k)
            vals = np.ascontiguousarray(np.broadcast_to(vals, (rows, k) + point))
            total, comp = _kahan_add(total, comp, vals.sum(axis=1))
            out[:, n] = total
    return out if sample.ndim == 2 else out[0]


def _colex_columns(n: int, m: int) -> list[np.ndarray]:
    """Columns of all increasing m-tuples from range(n) in colex order.

    Colex order makes Inc^m_c a prefix of Inc^m_n for c <= n, which is what
    the prefix engine slices.
    """
    total = count_tuples(n, m)
    cols = [np.empty(total, dtype=np.int64) for _ in range(m)]
    if m == 0 or total == 0:
        return cols
    sub = _colex_columns(n - 1, m - 1) if m > 1 else []
    offset = 0
    for c in range(m - 1, n):
        k = comb(c, m - 1)
        for j in range(m - 1):
            cols[j][offset:offset + k] = sub[j][:k]
        cols[m - 1][offset:offset + k] = c
        offset += k
    return cols


def running_max_norms(
    h: Kernel, sample, N: int | None = None,
    space: BanachSpaceDescriptor | None = None,
) -> np.ndarray:
    """max_{m <= k <= n} ||U_k|| for n = m..N, one incremental pass."""
    space = space if space is not None else h.codomain
    traj = prefix_values(h, sample, N)
    N = traj.shape[0] - 1
    if N < h.arity:
        return np.zeros(0)
    norms = space.norms(traj[h.arity:])
    return np.maximum.accumulate(norms)


# ---------------------------------------------------------------------------
# projected-component sums and the decomposition identity


def completion_weight(positions: tuple[int, ...], m: int,
                      indices: tuple[int, ...], n: int) -> int:
    """Number of increasing m-tuples in range(n) that extend the given
    assignment of sample indices to kernel positions."""
    a = (-1,) + tuple(positions) + (m,)
    b = (-1,) + tuple(indices) + (n,)
    w = 1
    for seg in range(len(a) - 1):
        w *= comb(b[seg + 1] - b[seg] - 1, a[seg + 1] - a[seg] - 1)
    return w


def projection_ustat(component: HoeffdingComponent, sample, m: int,
                     n: int | None = None):
    """Sum of a subset component over its index tuples, weighted by the
    number of completions to a full increasing m-tuple."""
    if component.subset is None:
        raise ValueError("projection sums are defined for subset components")
    sample = np.asarray(sample, dtype=np.float64)
    n = int(len(sample) if n is None else n)
    k = component.arity
    if k == 0:
        return count_tuples(n, m) * component.constant
    dim = component.codomain.dimension
    total = 0.0 if dim == 1 else np.zeros(dim)
    idx_cols = [np.array([t[j] for t in enumerate_tuples(n, k)], dtype=np.int64)
                for j in range(k)]
    if idx_cols[0].size == 0:
        return total
    vals = component.evaluate_batch([sample[c] for c in idx_cols])
    weights = np.array(
        [completion_weight(component.subset, m, t, n) for t in enumerate_tuples(n, k)],
        dtype=np.float64,
    )
    if dim > 1:
        return np.asarray((vals * weights[:, None]).sum(axis=0))
    return float(np.dot(vals, weights))


@dataclass(frozen=True)
class DecompositionCheck:
    lhs: float
    rhs: float
    deviation: float
    relative_deviation: float

    @property
    def passed(self) -> bool:
        return self.relative_deviation <= 1e-8


def decomposition_identity_check(
    h: Kernel, dist: Distribution, sample, seed: int = 0
) -> DecompositionCheck:
    """Verify sum_{Inc^m_n} h = C(n,m) sum_c C(m,c) C(n,c)^{-1} sum_{Inc^c_n} h^(c).

    Requires a symmetric kernel and a finite-support law so every level
    projection is exact; levels run over c = 0..m, with levels below the
    degeneracy order vanishing identically.
    """
    if not h.symmetric:
        raise ValueError("the level decomposition applies to symmetric kernels")
    if dist.support() is None:
        raise ValueError("identity check requires a finite-support law")
    if h.codomain.dimension != 1:
        raise ValueError("identity check is implemented for scalar codomains")
    sample = np.asarray(sample, dtype=np.float64)
    n = len(sample)
    m = h.arity
    lhs = complete_ustat(h, sample).value
    rhs = 0.0
    for c in range(m + 1):
        component = project_degenerate_level(h, c, dist, seed=seed)
        if c == 0:
            level_sum = component.constant
        else:
            cols = _colex_columns(n, c)
            vals = component.evaluate_batch([sample[col] for col in cols])
            level_sum = float(np.asarray(vals).sum())
        rhs += count_tuples(n, m) * comb(m, c) / comb(n, c) * level_sum
    deviation = abs(lhs - rhs)
    return DecompositionCheck(
        lhs=lhs, rhs=rhs, deviation=deviation,
        relative_deviation=deviation / max(1.0, abs(lhs)),
    )


# ---------------------------------------------------------------------------
# partial-sum paths


@dataclass(frozen=True)
class PartialSumPath:
    """Piecewise-linear interpolation of k -> U_k / n^gamma on [0, 1].

    Breakpoint k/n carries the normalized prefix value; raw values stay
    available for increment statistics that need unnormalized sums.
    """

    raw: np.ndarray
    n: int
    normalization_exponent: float

    @property
    def breakpoints(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n

    @property
    def values(self) -> np.ndarray:
        return self.raw / float(self.n) ** self.normalization_exponent

    def evaluate(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        if t.size and (t.min() < 0.0 or t.max() > 1.0):
            raise ValueError("evaluation points must lie in [0, 1]")
        return np.interp(t, self.breakpoints, self.values)


def partial_sum_path(
    h: Kernel, sample, normalization_exponent: float = 0.0
) -> PartialSumPath:
    """Build the interpolated trajectory of a scalar kernel's prefix sums."""
    if h.codomain.dimension != 1:
        raise ValueError("partial-sum paths are defined for scalar kernels")
    sample = np.asarray(sample, dtype=np.float64)
    raw = prefix_values(h, sample)
    return PartialSumPath(raw=raw, n=len(sample),
                          normalization_exponent=float(normalization_exponent))
