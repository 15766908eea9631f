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
whose uniform draws do not depend on the ranks already chosen, so they
can all be drawn first and the collisions resolved afterwards, for many
designs in one sorted pass (_floyd_ranks).  draw_design takes the draws
from the caller's generator by Generator.integers, which leaves the
generator where one scalar draw per step would, for the caller to go on
drawing from.  The incomplete-moment cells own their streams, so each
replication takes raw Philox words instead and a batch maps them all at
once, as integers would (_lemire_draws).  A rank space above 2^32, where
integers draws 64-bit values, a selection of more than one evaluation
chunk, and a replication whose rejected draws use up its words keep
integers.  A design that would select more than MAX_EVALUATION_TERMS
tuples is refused before its ranks are drawn.

The module also carries the Bernoulli-sum moment check used to validate
the moment bound for subsampled sums: for Y = sum_{a in A} (sum_{b in B}
Y_{a,b})^p with i.i.d. Bernoulli(y) entries and q >= p,

    E[Y^(q/p)] <= C (|A|^(q/p) |B|^q y^q
                     + |A|^(q/p) |B|^(q/p) y^(q/p)
                     + |A| |B| y),

and the batched cell engine of the incomplete-moment experiment
(bernoulli_moment_cell), which harness.incomplete_moment_experiment runs
once per (n, p_n) grid entry.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .combinatorics import count_tuples, unrank_many
from .kernels import (
    Distribution, Kernel, _rekeyed, evaluate_batch, sample_rows, stream, stream_keys,
)
from .spaces import json_float, json_int
from .ustat import (
    EvaluationBudgetError,
    UStatResult,
    _CHUNK,
    _as_value,
    _capped,
    ranked_term_sum,
)

__all__ = [
    "BernoulliMomentCheck",
    "SamplingDesign",
    "WeightSet",
    "bernoulli_moment_cell",
    "bernoulli_sum_moment_check",
    "draw_design",
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

# Raw words a batched replication draws beyond the ceil(count / 2) its
# count Floyd draws take without a rejection: each covers two rejected
# half words.  A rejection has probability below C(n, m) / 2^32 per draw,
# and a replication that needs more re-draws its ranks from its stream.
_SLACK_WORDS = 2

_VARIANTS = ("without_replacement", "with_replacement", "bernoulli")


class SamplingDesign(namedtuple("SamplingDesign", "variant draws rate")):
    """Recipe for selecting index tuples.

    variant: one of "without_replacement", "with_replacement", "bernoulli".
    draws:   number of tuples to pick (first two variants).
    rate:    per-tuple selection probability p_n (bernoulli only).
    """

    __slots__ = ()

    def __new__(cls, variant: str, draws: int | None = None, rate: float | None = None):
        if variant not in _VARIANTS:
            raise ValueError(f"unknown design variant {variant!r}")
        if variant == "bernoulli":
            if draws is not None:
                raise ValueError("bernoulli design takes no draw count")
            rate = json_float(rate, "rate")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"bernoulli design needs rate in [0, 1], got {rate!r}")
        else:
            if rate is not None:
                raise ValueError(f"{variant} design takes no rate")
            draws = json_int(draws, "draws")
            if draws < 0:
                raise ValueError(f"{variant} design needs draws >= 0, got {draws!r}")
        return super().__new__(cls, variant, draws, rate)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    @classmethod
    def without_replacement(cls, draws: int) -> "SamplingDesign":
        return cls("without_replacement", draws=draws)

    @classmethod
    def with_replacement(cls, draws: int) -> "SamplingDesign":
        return cls("with_replacement", draws=draws)

    @classmethod
    def bernoulli(cls, rate: float) -> "SamplingDesign":
        return cls("bernoulli", rate=rate)

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
        key = "p_n" if variant == "bernoulli" else "draws"
        if variant in _VARIANTS and key not in d:
            raise ValueError(f"{variant} design dict needs key {key!r}")
        if key == "p_n":
            return cls(variant, rate=json_float(d[key], key))
        return cls(variant, draws=d.get(key))


class WeightSet(namedtuple("WeightSet", "n m ranks weights")):
    """Sparse nonnegative integer weights on increasing tuples.

    Keys are colex ranks, kept sorted ascending so that evaluation visits
    selected tuples in the same order as complete enumeration does.
    ranks and weights are stored as int64 arrays.
    """

    __slots__ = ()

    def __new__(cls, n: int, m: int, ranks, weights):
        ranks = np.asarray(ranks, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        if ranks.shape != weights.shape or ranks.ndim != 1:
            raise ValueError("ranks and weights must be 1-d and aligned")
        if ranks.size:
            if np.any(np.diff(ranks) <= 0):
                raise ValueError("ranks must be strictly increasing")
            if ranks[0] < 0 or ranks[-1] >= count_tuples(n, m):
                raise ValueError("rank outside [0, C(n, m))")
            if np.any(weights < 0):
                raise ValueError("weights must be nonnegative")
        return super().__new__(cls, n, m, ranks, weights)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

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


def _floyd_draws(rng: np.random.Generator, total: int, count: int) -> np.ndarray:
    """Floyd's draws t_j, uniform on {0, ..., j}, for j = total - count, ..., total - 1.

    One rng.integers call over the array of upper bounds: numpy fills such
    an array one element at a time, consuming the stream exactly as one
    scalar call per step does.
    """
    return rng.integers(0, np.arange(total - count + 1, total + 1, dtype=np.int64))


def _distinct_ranks(rng: np.random.Generator, total: int, count: int) -> np.ndarray:
    """Uniform random count-subset of [0, total), sorted, by Floyd's algorithm.

    The generator is the caller's, so its draws are Generator.integers'
    own and it is left where one scalar draw per step leaves it; a
    selection of everything draws nothing.
    """
    if count > total:
        raise ValueError(f"cannot pick {count} distinct ranks out of {total}")
    if count == total:
        return np.arange(total, dtype=np.int64)
    return _floyd_ranks(_floyd_draws(rng, total, count), np.array([count]), total)


def _floyd_ranks(draws: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Every row's Floyd ranks over [0, total), sorted, row after row.

    Row r takes counts[r] steps j = lo, ..., total - 1 (lo = total -
    counts[r]), and draws holds each row's draws t_j in step order, row
    after row.  Step j keeps t_j, or j when t_j is already kept: step j
    collides.  Before step j the kept set holds t_i for every earlier
    step i that did not collide and i for every one that did, so t_j
    collides exactly when it repeats an earlier draw (that value was kept
    at the earlier step, whether it collided or not) or when lo <= t_j < j
    and step t_j collided (t_j = j is never kept yet).  The first case
    marks every draw but the first of its value; the second looks back at
    a strictly earlier step, so following each collided step j to the
    first later step that drew j, until none is left, is exact.

    The rows are sorted together as keys row * total + draw, equal keys
    in step order; without a repeated key nothing collides and the sorted
    keys are the result.  A row of count = total keeps everything,
    whatever it drew.
    """
    rows = np.repeat(np.arange(counts.size), counts)
    base = rows * total
    keys = base + draws
    shift = keys.size.bit_length()
    if counts.size * total < 1 << (63 - shift):
        # each key carries its step in the low bits, so one plain sort
        # keeps equal keys in step order
        packed = np.sort(keys << shift | np.arange(keys.size))
        order, ranked = packed & ((1 << shift) - 1), packed >> shift
    else:
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
    repeat = np.flatnonzero(ranked[1:] == ranked[:-1]) + 1
    if not repeat.size:
        return ranked - base
    # key of step s's own rank j: row's base + total - (row's end) + s
    own = base + (total - np.cumsum(counts))[rows] + np.arange(keys.size)
    collided = order[repeat]
    kept = keys.copy()
    while collided.size:
        kept[collided] = own[collided]
        # the first step that drew a collided step's rank, when it is later
        at = np.minimum(np.searchsorted(ranked, own[collided]), keys.size - 1)
        later = order[at]
        collided = later[(ranked[at] == own[collided]) & (later > collided)]
    return np.sort(kept) - base


def _lemire_draws(words: list[np.ndarray], counts: np.ndarray, total: int):
    """Floyd's draws of a batch of rows, mapped from raw words as numpy maps them.

    Row r takes counts[r] steps j = total - counts[r], ..., total - 1 from
    its raw Philox words words[r], which the row's stream gives right
    where Generator.integers would start on them.  integers takes each
    word as two half words, low half first, and for j + 1 <= 2^32 draws
    t_j by Lemire's method (ACM TOMACS 29(1), 2019): the next half word u
    gives p = u * (j + 1) and t_j = p >> 32, unless the low half of p is
    below 2^32 mod (j + 1); then the draw is rejected and retried on the
    following half word, which moves the row's later draws one half word
    on.  The modulus is taken only where the low half is below j + 1, its
    upper bound.  Returns the draws, row after row, and a mask of the rows
    whose words ran out; their draws are not set.
    """
    halves = np.concatenate(words).astype("<u8", copy=False).view("<u4")
    halves_per_row = 2 * np.array([w.size for w in words])
    ends = np.cumsum(halves_per_row)
    last = np.cumsum(counts)  # one past each row's last draw
    step = np.arange(last[-1])
    bound = (np.repeat(total + 1 - last, counts) + step).astype(np.uint64)  # j + 1
    # the half word each draw reads when its row rejects nothing
    pos = np.repeat(ends - halves_per_row - last + counts, counts) + step
    draws = np.empty(pos.size, dtype=np.uint64)

    def rejected(at):
        """Map the draws at `at`; the positions in `at` of the rejected ones."""
        product = halves[pos[at]] * bound[at]
        draws[at] = product >> 32
        low = product & 0xFFFFFFFF
        near = np.flatnonzero(low < bound[at])
        return near[low[near] < 2**32 % bound[at][near]]

    reject = rejected(slice(None))
    rows = np.repeat(np.arange(counts.size), counts)
    short = np.zeros(counts.size, dtype=bool)
    while reject.size:
        # the first rejection of each row moves it and the row's later draws
        first = reject[np.r_[True, rows[reject[1:]] != rows[reject[:-1]]]]
        at = np.concatenate([np.arange(a, b)
                             for a, b in zip(first.tolist(), last[rows[first]].tolist())])
        pos[at] += 1
        short[rows[at[pos[at] >= ends[rows[at]]]]] = True
        at = at[~short[rows[at]]]
        reject = at[rejected(at)]
    return draws.view(np.int64), short


def _row_words(rng: np.random.Generator, count: int) -> np.ndarray:
    """The raw words a batched row maps its count Floyd draws from."""
    return rng.bit_generator.random_raw(-(-count // 2) + _SLACK_WORDS)


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


def _bernoulli_count(rng: np.random.Generator, total: int, rate: float) -> int:
    """Number of tuples a Bernoulli(rate) design keeps out of total, capped."""
    return _capped(int(rng.binomial(total, rate)) if total else 0, "selected tuples")


def draw_design(design: SamplingDesign, n: int, m: int, seed) -> WeightSet:
    """Realize a design as a sparse weight set.

    seed may be an integer (a dedicated stream is derived from it) or an
    already-positioned numpy Generator, which then draws the design.
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
        count = _capped(design.draws, "selected tuples")
    else:
        count = _bernoulli_count(rng, total, design.rate)
    ranks = _distinct_ranks(rng, total, count)
    return WeightSet(n=n, m=m, ranks=ranks, weights=np.ones(count, dtype=np.int64))


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
    _capped(weights.size, "selected tuples")
    if weights.size == 0:
        return UStatResult(_as_value(h, h.codomain.zero()), weights.n, weights.m, 0, 0.0)
    total, weight_total = ranked_term_sum(h, sample, weights.n, weights.ranks, weights.weights)
    return UStatResult(
        _as_value(h, total), weights.n, weights.m, weights.size, weight_total
    )


def bernoulli_moment_cell(
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
    ** q on them bit for bit.  The samples are drawn by sample_rows in
    chunks of at most _BATCH_SAMPLE_VALUES values (one row when n is
    larger).  Per replication only the design stream is re-keyed: it
    draws the Binomial count, which is checked against the cap before
    anything else is drawn, and then, for a selection of at most _CHUNK
    tuples out of at most 2^32, the raw words its Floyd draws take with
    _SLACK_WORDS to spare; an empty selection keeps norm(0) ** q.  Such a
    selection joins a batch (up to _BATCH_TUPLES tuples or
    _BATCH_SAMPLE_VALUES stacked sample values), which maps the words of
    all its replications to Floyd draws and resolves them to ranks in one
    pass, then takes one unrank, one gather and one kernel call and sums
    each replication's contiguous slice: the same pairwise sum as
    ranked_term_sum takes over a single chunk.  A replication whose
    rejected draws use up its spare words draws again from its stream's
    key by integers.  With more than 2^32 ranks every replication draws
    its ranks by integers.  A selection of more than _CHUNK tuples draws
    its ranks by integers and goes through incomplete_ustat alone, for
    its chunked, compensated sum.
    """
    m = h.arity
    total = _rank_space(n, m)
    raw = total <= 2**32  # else integers takes 64-bit draws
    reps = np.arange(replications)
    keys = stream_keys(seed, "inc-moment", cell_idx, reps, 0)
    design_keys = stream_keys(seed, "inc-moment", cell_idx, reps, 1)
    chunk = max(1, _BATCH_SAMPLE_VALUES // n)
    powered = np.full(replications, norm(h.codomain.zero()) ** q)
    # (rep, sample, count, raw words or, above 2^32 ranks, the ranks)
    batch: list[tuple[int, np.ndarray, int, np.ndarray]] = []
    tuples = 0

    def flush():
        counts = np.array([count for _, _, count, _ in batch])
        ends = np.cumsum(counts)
        if raw:
            draws, short = _lemire_draws([x for *_, x in batch], counts, total)
            for r in np.flatnonzero(short).tolist():
                # the replication's stream again from its key, for integers
                rng = np.random.Generator(np.random.Philox(key=design_keys[batch[r][0]]))
                _bernoulli_count(rng, total, rate)
                draws[ends[r] - counts[r]:ends[r]] = _floyd_draws(rng, total, counts[r])
            ranks = _floyd_ranks(draws, counts, total)
        else:
            ranks = np.concatenate([x for *_, x in batch])
        # unrank_many refuses ranks outside [0, C(n, m))
        cols = unrank_many(ranks, n, m)
        flat = np.concatenate([sample for _, sample, _, _ in batch])
        offsets = np.repeat(np.arange(0, len(batch) * n, n), counts)
        vals = evaluate_batch(h, [flat[offsets + c] for c in cols])
        for (rep, *_), a, b in zip(batch, (ends - counts).tolist(), ends.tolist()):
            powered[rep] = norm(vals[a:b].sum(axis=0)) ** q
        batch.clear()

    for rep, rng_w in enumerate(_rekeyed(design_keys)):
        if rep % chunk == 0:
            samples = sample_rows(dist, keys[rep:rep + chunk], n)
        sample = samples[rep % chunk]
        count = _bernoulli_count(rng_w, total, rate)
        if count == 0:
            continue
        if count > _CHUNK:
            ranks = _distinct_ranks(rng_w, total, count)
            ws = WeightSet(n=n, m=m, ranks=ranks, weights=np.ones(count, dtype=np.int64))
            powered[rep] = norm(incomplete_ustat(h, sample, ws).value) ** q
            continue
        drawn = _row_words(rng_w, count) if raw else _distinct_ranks(rng_w, total, count)
        batch.append((rep, sample, count, drawn))
        tuples += count
        if tuples >= _BATCH_TUPLES or len(batch) * n >= _BATCH_SAMPLE_VALUES:
            flush()
            tuples = 0
    if batch:
        flush()
    return powered


class BernoulliMomentCheck(NamedTuple):
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
