"""Complete and weighted U-statistic evaluation over increasing tuples.

The sum U_n = sum over increasing m-tuples i of h(xi_i) is evaluated in
colexicographic rank order with compensated accumulation across chunks.
The prefix engine exploits the fact that colex order groups tuples by
their last coordinate: appending sample point n-1 contributes exactly the
block h(xi_i, xi_{n-1}) over the increasing (m-1)-tuples below n-1, so the
whole trajectory n -> U_n costs C(N, m) kernel evaluations.  The engine
steps a block of B independent samples at once: it gathers the block's
columns once for the last step, and each colex step evaluates h on a
leading slice of them, shape (B, k), against the new point's column in
one call and adds each row's sum into that row's compensated total, so B
trajectories cost N - m + 1 kernel calls instead of B times as many.

Separable kernels skip the engine.  When h = sum over terms t of
coef_t * f_1^t(x_1) * ... * f_m^t(x_m) (Kernel.factors), the sums
E_j[n] = sum over increasing j-tuples below n of f_1(x_{i_1})...f_j(x_{i_j})
satisfy E_0 = 1 and the recurrence (A. J. Lee, U-Statistics: Theory and
Practice, 1990; the elementary symmetric functions of Macdonald, ch. I.2,
taken position by position)

    E_j[n] = sum_{i <= n} f_j(x_i) * E_{j-1}[i - 1],

one cumulative sum per position and term, so U_n = sum_t coef_t E_m^t[n]
costs O(m B N) work per term instead of B C(N, m) kernel evaluations.
Non-symmetric products are covered, since position j only ever sees f_j.
prefix_values takes this path whenever m >= 2, the kernel carries factors
(which only a scalar kernel that reads no index can: a compiled one-term
* / chain such as the builtin product, centered-product or 3 * x1 * x2, or
a form declared by hand) and the block's first N columns are all finite;
a block with inf or NaN, or a result that comes out non-finite, goes to
the engine, which stays the reference.
Arity 1 stays on the engine too: its compensated sum of one summand per
step stays accurate up to the cap, N = 10^8, where the blocked sums below
could err by 2e-12 of sum |h|.

Accuracy of the separable path.  Each cumulative sum runs in blocks of
about sqrt(N) columns (a plain sum inside a block, then the running block
totals), so it errs by at most about 2 sqrt(N) u of the sum of its terms'
absolute values (u = 2^-53), against N u for one plain running sum.  On
integer-valued data every product and partial sum is an exact integer
(below 2^53), so the result is bit-equal to the engine's.  On other data,
for a one-term kernel such as the product, at every n and to first order
(a factor that joins links, as in x1 / 2 * x2 * x1, adds a few u per |h|),

    |U_fast - U_engine| <= (2 m (sqrt(N) + 2) + log2 N + 4) u
                           * sum over tuples up to n of |h|,

where log2 N + 4 covers the engine's own pairwise and compensated sums.  At
every horizon the 10^8-summand cap allows with m >= 2 (N <= 14,142 at
m = 2) that is below 1e-13 of sum |h|, so within the 1e-12 * sum |h| the
tests check.  A kernel of several terms errs in the sum of the terms'
absolute values instead, which is far larger than sum |h| when they
cancel (see Kernel).

Evaluation refuses more than 10^8 summands on either path; incomplete
designs (see the incomplete module) are the intended tool past that size.
"""

from __future__ import annotations

from math import comb, isqrt
from typing import NamedTuple

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
    """Raised when an evaluation would exceed the summand cap."""


def _capped(count: int, what: str) -> int:
    """count, refused when that many summands (named by what) exceed the cap."""
    if count > MAX_EVALUATION_TERMS:
        raise EvaluationBudgetError(f"{count} {what} exceed the cap {MAX_EVALUATION_TERMS}")
    return count


class UStatResult(NamedTuple):
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


def _as_value(h: Kernel, total):
    if h.codomain.dimension == 1:
        return float(total)
    return np.asarray(total, dtype=np.float64)


def ranked_term_sum(h: Kernel, sample: np.ndarray, n: int, ranks=None, weights=None):
    """(sum of h over the tuples of ascending colex ranks, total weight).

    ranks=None means every rank below C(n, m).  The ranks, and the weights
    (one per rank, or None for weight 1), are cut into _CHUNK pieces here;
    each piece is summed pairwise and the pieces' sums are accumulated with
    compensation.  So complete evaluation (every rank) and an incomplete
    design (its selected ranks) give bit-identical results on the same
    rank sequence: multiplying by a weight of 1.0 is exact.
    """
    count = count_tuples(n, h.arity) if ranks is None else len(ranks)
    total = h.codomain.zero()
    comp = h.codomain.zero()
    weight_total = 0.0
    for a in range(0, count, _CHUNK):
        b = min(a + _CHUNK, count)
        chunk = np.arange(a, b, dtype=np.int64) if ranks is None else ranks[a:b]
        cols = unrank_many(chunk, n, h.arity)
        vals = evaluate_batch(h, [sample[c] for c in cols], cols if h.weighted else None)
        if weights is not None:
            w = weights[a:b].astype(np.float64)
            vals = vals * (w[:, None] if h.codomain.dimension > 1 else w)
            weight_total += float(w.sum())
        else:
            weight_total += float(b - a)
        inc = vals.sum(axis=0)
        total, comp = _kahan_add(total, comp, inc)
    return total, weight_total


def complete_ustat(h: Kernel, sample, n: int | None = None) -> UStatResult:
    """U_n = sum over all increasing m-tuples; zero when n < m."""
    sample = np.asarray(sample, dtype=np.float64)
    n = int(len(sample) if n is None else n)
    if n > len(sample):
        raise ValueError(f"n={n} exceeds sample length {len(sample)}")
    m = h.arity
    total_terms = _capped(count_tuples(n, m), f"summands of C({n}, {m})")
    if total_terms == 0:
        return UStatResult(_as_value(h, h.codomain.zero()), n, m, 0, 0.0)
    total, weight_total = ranked_term_sum(h, sample, n)
    return UStatResult(_as_value(h, total), n, m, total_terms, weight_total)


def prefix_values(h: Kernel, sample, N: int | None = None) -> np.ndarray:
    """Trajectories U_0..U_N of one sample or of a block of samples.

    A sample of shape (N',) gives shape (N+1,) or (N+1, dim); a block of
    shape (B, N') gives one trajectory per row, shape (B, N+1) or
    (B, N+1, dim).  U_n is zero for n < m.  A kernel of arity 2 or more
    with factors, on a finite block, takes the separable path (see the
    module docstring); otherwise each step adds the block of summands
    whose last coordinate is the newly revealed point.  A 1-D sample is the B = 1 block, and on
    either path every row of a block is bit-identical to the trajectory of
    that row alone: the cumulative sums run along each row, and the engine
    makes each step's values C-contiguous, so each row's summands are
    added pairwise exactly as for one row, and its compensated
    accumulation is elementwise.
    """
    sample = np.asarray(sample, dtype=np.float64)
    if sample.ndim not in (1, 2):
        raise ValueError(f"sample must be 1-D or a 2-D block, got shape {sample.shape}")
    block = sample if sample.ndim == 2 else sample[None, :]
    N = int(block.shape[1] if N is None else N)
    if N > block.shape[1]:
        raise ValueError(f"N={N} exceeds sample length {block.shape[1]}")
    m = h.arity
    _capped(count_tuples(N, m), f"summands of C({N}, {m})")
    out = None
    if h.factors is not None and m > 1:
        out = _separable_prefix(h.factors, block[:, :N])
    if out is None:
        out = _engine_prefix(h, block, N)
    return out if sample.ndim == 2 else out[0]


def _separable_prefix(factors, block: np.ndarray) -> np.ndarray | None:
    """U_0..U_N of every row from cumulative sums; None on non-finite input
    or output, which the engine then handles."""
    if not np.isfinite(block).all():
        return None
    rows, N = block.shape
    out = np.zeros((rows, N + 1))
    for coef, fs in factors:
        e = np.ones((rows, N + 1))  # E_0
        for j, f in enumerate(fs, start=1):
            # E_j[n] = 0 for n < j; x_i = block[:, i-1] for i = j..N
            terms = e[:, j - 1:N]
            if f is not None:
                terms = terms * f(block[:, j - 1:])
            e = np.zeros((rows, N + 1))
            e[:, j:] = _blocked_cumsum(terms)
        out += coef * e  # 0.0 + (-0.0) = 0.0, as in the engine
    return out if np.isfinite(out).all() else None


def _blocked_cumsum(a: np.ndarray) -> np.ndarray:
    """Cumulative sums along axis 1 in blocks of s = ceil(sqrt(n)) columns.

    Each block is summed from its start and then shifted by the running
    sum of the earlier blocks' totals, so every partial sum is rounded
    about 2 sqrt(n) times rather than n times.
    """
    rows, n = a.shape
    s = isqrt(n - 1) + 1 if n else 1
    nb = -(-n // s)
    padded = np.zeros((rows, nb * s))
    padded[:, :n] = a
    sums = np.cumsum(padded.reshape(rows, nb, s), axis=2)
    sums[:, 1:] += np.cumsum(sums[:, :-1, -1], axis=1)[:, :, None]
    return sums.reshape(rows, nb * s)[:, :n]


def _engine_prefix(h: Kernel, block: np.ndarray, N: int) -> np.ndarray:
    """U_0..U_N of every row, one kernel call per colex step."""
    m = h.arity
    rows = block.shape[0]
    point = () if h.codomain.dimension == 1 else (h.codomain.dimension,)
    out = np.zeros((rows, N + 1) + point)
    if N < m:
        return out
    # colex order makes Inc^(m-1)_k a prefix of Inc^(m-1)_(N-1), which the
    # steps slice
    sub_cols = unrank_many(np.arange(comb(N - 1, m - 1)), N - 1, m - 1)
    gathered = [np.take(block, c, axis=1) for c in sub_cols]
    total = np.zeros((rows,) + point)
    comp = np.zeros((rows,) + point)
    for n in range(m, N + 1):
        k = comb(n - 1, m - 1)
        idx = None
        if h.weighted:
            idx = [sc[:k] for sc in sub_cols] + [np.full(k, n - 1, dtype=np.int64)]
        vals = evaluate_batch(h, [g[:, :k] for g in gathered] + [block[:, n - 1:n]], idx)
        vals = np.ascontiguousarray(vals)
        total, comp = _kahan_add(total, comp, vals.sum(axis=1))
        out[:, n] = total
    return out


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


class DecompositionCheck(NamedTuple):
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
            cols = unrank_many(np.arange(count_tuples(n, c)), n, c)
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


class PartialSumPath(NamedTuple):
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
