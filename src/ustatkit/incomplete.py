"""Subsampled U-statistics over randomly selected index tuples.

Three selection designs are supported: a uniform random subset of the
increasing tuples (fixed number of draws without replacement), i.i.d.
uniform draws with replacement (multiplicities become integer weights),
and Bernoulli selection where every tuple is kept independently with
probability p_n.  Bernoulli designs are materialized sparsely: the number
of kept tuples is drawn from the exact Binomial law, then that many
distinct colex ranks are sampled uniformly.  The joint distribution is
identical to flipping one coin per tuple, at a cost proportional to the
selected set instead of C(n, m).  The distinct ranks come from Floyd's
algorithm (Bentley & Floyd, "A sample of brilliance", CACM 30(9), 1987),
whose uniform draws do not depend on the ranks already chosen: all of
them are taken in one numpy call over the array of per-step bounds, which
consumes the same stream as one call per step.  When no two draws are
equal they are the chosen ranks themselves; otherwise the steps whose
draw was already kept are found from the draw array, where only draws
that point back at an earlier step need a loop (see _distinct_ranks).  A
design that would select more than MAX_EVALUATION_TERMS tuples is refused
before its ranks are drawn.

The module also carries the Bernoulli-sum moment check used to validate
the moment bound for subsampled sums: for Y = sum_{a in A} (sum_{b in B}
Y_{a,b})^p with i.i.d. Bernoulli(y) entries and q >= p,

    E[Y^(q/p)] <= C (|A|^(q/p) |B|^q y^q
                     + |A|^(q/p) |B|^(q/p) y^(q/p)
                     + |A| |B| y),

and the end-to-end moment growth experiment for subsampled statistics of
degenerate kernels, whose bound shape in (n, p_n) is

    n^(q(m-d) + dq/p) p_n^q + n^(mq/p) p_n^(q/p) + n^m p_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .combinatorics import count_tuples, unrank_many, unrank_tuple
from .kernels import Distribution, Kernel, evaluate_batch, stream, streams
from .reporting import InequalityReport, ratio_report
from .spaces import BanachSpaceDescriptor
from .ustat import (
    MAX_EVALUATION_TERMS,
    EvaluationBudgetError,
    UStatResult,
    _CHUNK,
    _as_value,
    _zero,
    ranked_term_sum,
)

__all__ = [
    "BernoulliMomentCheck",
    "SamplingDesign",
    "WeightSet",
    "bernoulli_sum_moment_check",
    "draw_design",
    "incomplete_moment_experiment",
    "incomplete_ustat",
]

# Colex ranks are manipulated as int64; leave headroom below 2^63.
_RANK_SPACE_LIMIT = 2**62

# An incomplete-moment cell evaluates its replications in batches of about
# this many selected tuples, and of at most this many stacked sample
# values.  Larger batches buy little speed and cost peak memory (peak RSS
# of one `ustat experiment run`).  The incomplete-sparse benchmark workload
# peaks at 38.4 MiB with 4,096-tuple batches, 39.6 MiB with 16,384 and
# 45.5 MiB with 65,536; its batches always close on tuples.  At p_n = n^-2
# a replication keeps about half a tuple, so batches close on sample
# values: the incomplete-quadratic recipe (n = 32..256, 1,000
# replications) peaks at 38.4 MiB with 16,384 values, 38.8 with 65,536 and
# 39.0 with no bound, and the same rates at n = 512..2048 at 38.3, 38.7
# and 49.9 MiB.  Best-of-12 times at 16,384 and 65,536 values differed by
# less than their run-to-run spread.
_BATCH_TUPLES = 4096
_BATCH_SAMPLE_VALUES = 16384

_VARIANTS = ("without_replacement", "with_replacement", "bernoulli")


@dataclass(frozen=True)
class SamplingDesign:
    """Recipe for selecting index tuples.

    variant: one of "without_replacement", "with_replacement", "bernoulli".
    draws:   number of tuples to pick (first two variants).
    rate:    per-tuple selection probability p_n (bernoulli only).
    """

    variant: str
    draws: int | None = None
    rate: float | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown design variant {self.variant!r}")
        if self.variant == "bernoulli":
            if self.rate is None or not 0.0 <= self.rate <= 1.0:
                raise ValueError("bernoulli design needs rate in [0, 1]")
            if self.draws is not None:
                raise ValueError("bernoulli design takes no draw count")
        else:
            if self.rate is not None:
                raise ValueError(f"{self.variant} design takes no rate")
            if self.draws is None or self.draws < 0:
                raise ValueError(f"{self.variant} design needs draws >= 0")

    @classmethod
    def without_replacement(cls, draws: int) -> "SamplingDesign":
        return cls("without_replacement", draws=int(draws))

    @classmethod
    def with_replacement(cls, draws: int) -> "SamplingDesign":
        return cls("with_replacement", draws=int(draws))

    @classmethod
    def bernoulli(cls, rate: float) -> "SamplingDesign":
        return cls("bernoulli", rate=float(rate))

    def validate_for(self, n: int, m: int) -> None:
        total = count_tuples(n, m)
        if self.variant == "without_replacement" and self.draws > total:
            raise ValueError(
                f"cannot draw {self.draws} distinct tuples from C({n},{m})={total}"
            )

    def to_dict(self) -> dict:
        d = {"variant": self.variant}
        if self.variant == "bernoulli":
            d["p_n"] = self.rate
        else:
            d["draws"] = self.draws
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SamplingDesign":
        variant = d.get("variant")
        if variant == "bernoulli":
            if "p_n" not in d:
                raise ValueError("bernoulli design dict needs key 'p_n'")
            return cls.bernoulli(d["p_n"])
        if variant in ("without_replacement", "with_replacement"):
            if "draws" not in d:
                raise ValueError(f"{variant} design dict needs key 'draws'")
            return cls(variant, draws=int(d["draws"]))
        raise ValueError(f"unknown design variant {variant!r}")


@dataclass(frozen=True)
class WeightSet:
    """Sparse nonnegative integer weights on increasing tuples.

    Keys are colex ranks, kept sorted ascending so that evaluation visits
    selected tuples in the same order as complete enumeration does.
    """

    n: int
    m: int
    ranks: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        ranks = np.asarray(self.ranks, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.int64)
        if ranks.shape != weights.shape or ranks.ndim != 1:
            raise ValueError("ranks and weights must be 1-d and aligned")
        if ranks.size:
            if np.any(np.diff(ranks) <= 0):
                raise ValueError("ranks must be strictly increasing")
            if ranks[0] < 0 or ranks[-1] >= count_tuples(self.n, self.m):
                raise ValueError("rank outside [0, C(n, m))")
            if np.any(weights < 0):
                raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        """Number of distinct selected tuples."""
        return int(self.ranks.size)

    @property
    def total_weight(self) -> int:
        return int(self.weights.sum())

    def indices(self) -> np.ndarray:
        """Materialize the selected tuples, one row per rank, shape (size, m)."""
        if self.size == 0:
            return np.empty((0, self.m), dtype=np.int64)
        cols = unrank_many(self.ranks, self.n, self.m)
        return np.stack(cols, axis=1)

    def weight_of(self, indices) -> int:
        from .combinatorics import rank_tuple, validate_tuple

        t = tuple(int(i) for i in indices)
        validate_tuple(t, self.n, self.m)
        r = rank_tuple(t)
        pos = int(np.searchsorted(self.ranks, r))
        if pos < self.size and self.ranks[pos] == r:
            return int(self.weights[pos])
        return 0

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        for r, w in zip(self.ranks.tolist(), self.weights.tolist()):
            yield unrank_tuple(r, self.n, self.m), int(w)


def _distinct_ranks(rng: np.random.Generator, total: int, count: int) -> np.ndarray:
    """Uniform random count-subset of [0, total), sorted, by Floyd's algorithm.

    Floyd's step j (j = lo, ..., total - 1, lo = total - count) draws t_j
    uniform on {0, ..., j} and keeps t_j, or j when t_j is already kept:
    step j collides.  The draw does not depend on the kept set, so all of
    them are taken in one rng.integers call over the array of upper
    bounds; numpy fills such an array one element at a time, consuming the
    stream exactly as one scalar call per step does.

    Before step j the kept set holds t_i for every earlier step i that did
    not collide and i for every one that did, so t_j collides exactly when
    it repeats an earlier draw (that value was kept at the earlier step,
    whether it collided or not) or when lo <= t_j < j and step t_j
    collided (t_j = j is never kept yet).  The first case marks every draw
    but the first of its value.  The second looks back at a strictly
    earlier step, so resolving its candidates in step order is exact.
    Without a repeated draw nothing collides and the draws are the result.
    """
    if count > total:
        raise ValueError(f"cannot pick {count} distinct ranks out of {total}")
    if count == total:
        return np.arange(total, dtype=np.int64)
    lo = total - count
    draws = rng.integers(0, np.arange(lo + 1, total + 1, dtype=np.int64))
    ranks = np.sort(draws)
    if not (ranks[1:] == ranks[:-1]).any():
        return ranks
    _, first = np.unique(draws, return_index=True)
    collided = np.ones(count, dtype=bool)
    collided[first] = False
    back = np.sort(first[(draws[first] >= lo) & (draws[first] < first + lo)])
    for j, t in zip(back.tolist(), (draws[back] - lo).tolist()):
        collided[j] = collided[t]
    return np.sort(np.where(collided, np.arange(lo, total, dtype=np.int64), draws))


def _design_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return stream(seed, "design")


def _rank_space(n: int, m: int) -> int:
    """C(n, m), refused when its colex ranks would not fit int64 arithmetic."""
    total = count_tuples(n, m)
    if total > _RANK_SPACE_LIMIT:
        raise EvaluationBudgetError(
            f"C({n}, {m}) = {total} exceeds the int64 rank space"
        )
    return total


def _capped(count: int) -> int:
    """count, refused when that many selected tuples exceed the summand cap."""
    if count > MAX_EVALUATION_TERMS:
        raise EvaluationBudgetError(
            f"{count} selected tuples exceed the cap {MAX_EVALUATION_TERMS}"
        )
    return count


def _bernoulli_count(rng: np.random.Generator, total: int, rate: float) -> int:
    """Number of tuples a Bernoulli(rate) design keeps out of total, capped."""
    return _capped(int(rng.binomial(total, rate)) if total else 0)


def draw_design(design: SamplingDesign, n: int, m: int, seed) -> WeightSet:
    """Realize a design as a sparse weight set.

    seed may be an integer (a dedicated stream is derived from it) or an
    already-positioned numpy Generator, which experiments use to hand each
    replication its own stream.
    """
    total = _rank_space(n, m)
    design.validate_for(n, m)
    rng = _design_rng(seed)

    if design.variant == "with_replacement":
        # Repeats merge, so the distinct count is known only after the draw.
        raw = rng.integers(0, total, size=design.draws, dtype=np.int64)
        ranks, counts = np.unique(raw, return_counts=True)
        return WeightSet(n=n, m=m, ranks=ranks, weights=counts.astype(np.int64))
    if design.variant == "without_replacement":
        count = _capped(design.draws)
    else:
        count = _bernoulli_count(rng, total, design.rate)
    ranks = _distinct_ranks(rng, total, count)
    return WeightSet(n=n, m=m, ranks=ranks, weights=np.ones(count, dtype=np.int64))


def _rank_chunks(ranks: np.ndarray):
    for a in range(0, ranks.size, _CHUNK):
        yield ranks[a : a + _CHUNK]


def _weight_chunks(weights: np.ndarray):
    for a in range(0, weights.size, _CHUNK):
        yield weights[a : a + _CHUNK].astype(np.float64)


def incomplete_ustat(h: Kernel, sample, weights: WeightSet) -> UStatResult:
    """Weighted sum of h over the selected tuples.

    With every weight equal to one over the full rank range this reproduces
    complete_ustat bit for bit: both run the same chunked rank pipeline and
    multiplying by 1.0 is exact.
    """
    sample = np.asarray(sample, dtype=np.float64)
    if h.arity != weights.m:
        raise ValueError(f"kernel arity {h.arity} != weight arity {weights.m}")
    if weights.n > len(sample):
        raise ValueError(
            f"weights address n={weights.n} points, sample has {len(sample)}"
        )
    _capped(weights.size)
    if weights.size == 0:
        return UStatResult(_as_value(h, _zero(h)), weights.n, weights.m, 0, 0.0)
    total, weight_total = ranked_term_sum(
        h,
        sample,
        weights.n,
        _rank_chunks(weights.ranks),
        _weight_chunks(weights.weights),
    )
    return UStatResult(
        _as_value(h, total), weights.n, weights.m, weights.size, weight_total
    )


def _powered_norms(
    h: Kernel,
    dist: Distribution,
    norm,
    q: float,
    n: int,
    rate: float,
    seed: int,
    cell_idx: int,
    replications: int,
) -> np.ndarray:
    """norm(U_inc)^q of every replication of one incomplete-moment cell.

    Replication r draws its sample from the stream of (seed, "inc-moment",
    cell_idx, r, 0) and its Bernoulli(rate) design from (..., r, 1), as
    draw_design does, and its value equals norm(incomplete_ustat(...).value)
    ** q on them bit for bit.  Only the draws are made per replication, and
    an empty selection keeps norm(0) ** q.  A selection of at most _CHUNK
    tuples joins a batch (up to _BATCH_TUPLES tuples or _BATCH_SAMPLE_VALUES
    stacked sample values), which takes one unrank, one gather and one
    kernel call and then sums each replication's contiguous slice: the same
    pairwise sum as ranked_term_sum takes over a single chunk.  A larger
    selection goes through incomplete_ustat alone, for its chunked,
    compensated sum.
    """
    m = h.arity
    total = _rank_space(n, m)
    reps = np.arange(replications)
    samples = streams(seed, "inc-moment", cell_idx, reps, 0)
    designs = streams(seed, "inc-moment", cell_idx, reps, 1)
    powered = np.full(replications, norm(_zero(h)) ** q)
    batch: list[tuple[int, np.ndarray, np.ndarray]] = []  # (rep, sample, ranks)
    tuples = 0

    def flush():
        counts = np.array([ranks.size for _, _, ranks in batch])
        ranks = np.concatenate([ranks for _, _, ranks in batch])
        ends = np.cumsum(counts)
        increasing = np.diff(ranks) > 0
        increasing[ends[:-1] - 1] = True  # where one replication's ranks end
        if not increasing.all():
            raise ValueError("ranks must be strictly increasing")
        # unrank_many refuses ranks outside [0, C(n, m))
        cols = unrank_many(ranks, n, m)
        flat = np.concatenate([sample for _, sample, _ in batch])
        offsets = np.repeat(np.arange(0, len(batch) * n, n), counts)
        vals = evaluate_batch(h, [flat[offsets + c] for c in cols])
        for (rep, _, _), a, b in zip(batch, (ends - counts).tolist(), ends.tolist()):
            powered[rep] = norm(vals[a:b].sum(axis=0)) ** q
        batch.clear()

    for rep, (rng_x, rng_w) in enumerate(zip(samples, designs)):
        sample = dist.sample(rng_x, n)
        count = _bernoulli_count(rng_w, total, rate)
        if count == 0:
            continue
        ranks = _distinct_ranks(rng_w, total, count)
        if count > _CHUNK:
            ws = WeightSet(n=n, m=m, ranks=ranks, weights=np.ones(count, dtype=np.int64))
            powered[rep] = norm(incomplete_ustat(h, sample, ws).value) ** q
            continue
        batch.append((rep, sample, ranks))
        tuples += count
        if tuples >= _BATCH_TUPLES or len(batch) * n >= _BATCH_SAMPLE_VALUES:
            flush()
            tuples = 0
    if batch:
        flush()
    return powered


@dataclass(frozen=True)
class BernoulliMomentCheck:
    a_size: int
    b_size: int
    rate: float
    p: float
    q: float
    estimate: float
    standard_error: float
    bound_shape: float
    ratio: float


def bernoulli_sum_moment_check(
    a_size: int,
    b_size: int,
    y: float,
    p: float,
    q: float,
    replications: int = 10**5,
    seed: int = 0,
) -> BernoulliMomentCheck:
    """Monte Carlo check of the moment bound for doubly indexed Bernoulli sums.

    Simulates Y = sum_{a} (sum_{b} Y_{a,b})^p with Y_{a,b} i.i.d.
    Bernoulli(y), estimates E[Y^(q/p)], and reports it against the
    three-term bound shape.  The inner sums are Binomial(b_size, y), which
    is what gets simulated.
    """
    if not q >= p > 1.0:
        raise ValueError(f"need q >= p > 1, got p={p}, q={q}")
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"rate y={y} outside [0, 1]")
    if a_size < 1 or b_size < 1:
        raise ValueError("a_size and b_size must be positive")
    rng = stream(seed, "bernoulli-moment")
    s = q / p
    total = 0.0
    total_sq = 0.0
    done = 0
    # Cap the simulation matrix at ~10^7 entries per slab.
    step = max(1, min(replications, 10**7 // a_size))
    while done < replications:
        r = min(step, replications - done)
        counts = rng.binomial(b_size, y, size=(r, a_size))
        yvals = np.power(counts.astype(np.float64), p).sum(axis=1)
        powered = np.power(yvals, s)
        total += float(powered.sum())
        total_sq += float(np.square(powered).sum())
        done += r
    estimate = total / replications
    var = max(total_sq / replications - estimate**2, 0.0)
    se = float(np.sqrt(var / replications))
    shape = (
        a_size**s * b_size**q * y**q
        + a_size**s * b_size**s * y**s
        + a_size * b_size * y
    )
    ratio = estimate / shape if shape > 0 else 0.0
    return BernoulliMomentCheck(
        a_size=a_size,
        b_size=b_size,
        rate=y,
        p=p,
        q=q,
        estimate=estimate,
        standard_error=se,
        bound_shape=shape,
        ratio=ratio,
    )


def incomplete_moment_experiment(
    h: Kernel,
    dist: Distribution,
    grid,
    p: float,
    q: float,
    d: int,
    replications: int = 1000,
    seed: int = 0,
    threads: int | None = None,
    space: BanachSpaceDescriptor | None = None,
    certify: bool = True,
    stability_factor: float = 5.0,
) -> InequalityReport:
    """Moment growth of Bernoulli-subsampled statistics across an (n, p_n) grid.

    Each grid entry (n, p_n) yields a Monte Carlo estimate of
    E[||U_inc||^q] and the theoretical bound shape in (n, p_n); the
    expectation factor E||h||^q is constant across the grid placement and
    is deliberately left out of the shape so the fitted constant absorbs
    it.  The kernel must be symmetric, unweighted, and degenerate of the
    claimed order d (checked up front unless certify=False).

    Replication r of grid entry c reads its sample from the stream of
    (seed, "inc-moment", c, r, 0) and its design from (..., r, 1); each
    entry derives all its keys in one pass and runs its replications in
    order on two re-keyed bit generators.  Per replication only the sample,
    the Binomial count (checked against the cap) and the Floyd ranks are
    drawn.  The selections then gather into batches of about 4,096 tuples,
    each unranked, gathered and evaluated in one call, and every
    replication's sum is its own slice of the batch; the values equal
    those of draw_design and incomplete_ustat bit for bit.  A batch stays
    small because it stacks its replications' samples and several int64
    arrays per tuple: stacking a whole cell at n = 2048 would hold
    replications x 2048 sample values and every rank of the cell.
    threads has no effect here: the per-replication draws are small numpy
    calls with Python between them, so worker threads only contend for the
    interpreter lock.
    """
    if not q >= p > 1.0:
        raise ValueError(f"need q >= p > 1, got p={p}, q={q}")
    if not 1 <= d <= h.arity:
        raise ValueError(f"claimed order d={d} outside [1, {h.arity}]")
    if h.weighted or not h.symmetric:
        raise ValueError("experiment needs a symmetric, index-free kernel")
    grid = [(int(n), float(rate)) for n, rate in grid]
    for n, rate in grid:
        if n < h.arity:
            raise ValueError(f"grid n={n} smaller than kernel arity {h.arity}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"grid rate {rate} outside [0, 1]")

    if certify:
        from .hoeffding import check_degeneracy

        report = check_degeneracy(h, dist, seed=seed, space=space)
        if report.order != d:
            raise ValueError(
                f"kernel certifies to degeneracy order {report.order}, "
                f"experiment claims d={d}"
            )

    m = h.arity
    norm = (space if space is not None else h.codomain).norm

    rows = []
    for idx, (n, rate) in enumerate(grid):
        powered = _powered_norms(h, dist, norm, q, n, rate, seed, idx, replications)
        est = float(powered.mean())
        se = float(powered.std(ddof=1) / np.sqrt(replications)) if replications > 1 else 0.0
        shape = (
            n ** (q * (m - d) + d * q / p) * rate**q
            + n ** (m * q / p) * rate ** (q / p)
            + n**m * rate
        )
        rows.append(
            {
                "n": n,
                "p_n": rate,
                "moment_estimate": est,
                "bound_shape": shape,
                "ratio": est / shape if shape > 0 else 0.0,
                "standard_error": se,
            }
        )

    # the fitted constant, the largest ratio, must be positive
    return ratio_report("incomplete-moment", rows, {
        "p": p,
        "q": q,
        "d": d,
        "m": m,
        "replications": replications,
    }, stability_factor, score="spread", extra=any(row["ratio"] > 0 for row in rows))
