"""End-to-end experiments pitting Monte Carlo left sides against computed bounds.

Every bound handled here has the form LHS <= K * RHS with a multiplicative
constant K that is finite but not pinned down numerically.  The testable
surrogate is empirical: evaluate both sides over a (t, N) or N grid, fit
C-hat = max ratio, and score stability as max ratio / median ratio.  A bound
"verifies" when C-hat is finite and the score (or, for moment-type
experiments, the max/min spread) stays below the configured factor while N
doubles.  Monte Carlo left sides carry standard errors so no downstream check
ever compares bare random numbers.

Five experiment families live here:

  deviation          max_{m<=n<=N} ||sum over Inc^m_n|| tail frequency vs. the
                     three-group tail-integral bound; one shared degenerate
                     kernel, or per-index kernels when the kernel reads its
                     1-based index variables.
  order-d-deviation  the same maximal tail for a symmetric kernel degenerate
                     of order d, thresholds scaled by N^(m-d+d/p), bound built
                     from the prefix-conditional moment profile H_p.
  moment             E[max ||.||^q] against N^m E||h||^p (q = p) or the exact
                     three-group moment bound (q > p).
  lln                finite-horizon weak-L^p norm of sup_n n^(-m/p) ||U_n||
                     against E||h||^p, with an almost-sure decay diagnostic
                     and an optional heuristic rate-series curve.
  holder             Holder-norm quantiles of the interpolated trajectory and
                     the dyadic increment exceedance curve.

Experiments draw through per-replication streams derived from the master
seed: replication r reads its sample from the stream of (seed, *path, r).
Trajectories are simulated in blocks of replications whose size depends
only on the horizon N and the arity m, one prefix-engine call per block,
and worker threads map over whole blocks.  A block derives all its rows'
Philox keys in one stream_keys pass and re-keys one bit generator of its
own per row (kernels.streams), which draws exactly what stream(seed, *path,
r) would.  Every row of a block is bit-identical to the trajectory of that
replication alone, so a report is bit-for-bit reproducible for a fixed
config and depends neither on the worker thread count nor on the block
size.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, dataclass, fields
from math import comb, floor, inf, log2, sqrt

import numpy as np

from .combinatorics import enumerate_tuples, unrank_many
from .hoeffding import check_degeneracy, project_degenerate_level
from .holder import (
    MAX_SCAN_BREAKPOINTS,
    HolderParams,
    calibrate_epsilon,
    dyadic_increment_exceedance,
    holder_norms,
)
from .incomplete import SamplingDesign, incomplete_moment_experiment
from .kernels import (
    Distribution, Kernel, evaluate_batch, kernel_from_config, stream, streams, support_grid,
)
from .reporting import InequalityReport, ratio_report
from .spaces import BanachSpaceDescriptor
from .tails import (
    EmpiricalTail,
    conditional_moment_tail,
    norm_moment,
    required_integrability,
    tail_integral,
    weak_lp_norm,
)
from ._parallel import parallel_map
from .ustat import completion_weight, prefix_values

__all__ = [
    "ConfigError",
    "EXPERIMENTS",
    "ExperimentConfig",
    "InequalityReport",
    "config_field",
    "deviation_experiment",
    "holder_tightness_experiment",
    "lln_experiment",
    "moment_experiment",
    "nested_draws",
    "order_d_deviation_experiment",
    "run_experiment",
]

# Index-weighted deviation enumerates every kernel h_i individually; cap the
# tuple count so a config mistake cannot demand days of work.
_WEIGHTED_TUPLE_CAP = 4096
# Flat norm-tail draw count on the Monte Carlo branch of the weighted path.
_WEIGHTED_MC_DRAWS = 16384
# Entries per tile of the weighted path's tuple grid: 2 MiB of float64, so
# a tile's kernel values, norms and powers stay in a core's L2 cache
# through every pass instead of streaming through memory once per pass.
# Tiles hold a multiple of 4 tuples: OpenBLAS's gemv sums its rows in
# groups of four and a leftover row by another kernel, so with whole groups
# a tuple's sum does not move with the tile boundaries (a tile this small
# runs gemv on one thread, which would otherwise split the rows).
_WEIGHTED_TILE_ENTRIES = 1 << 18
# Replications simulated together: a block's widest arrays, the (B, k)
# columns of one colex step and the (B, N) sample, hold at most this many
# entries each.  Larger blocks buy little speed and cost peak memory.
_BLOCK_ELEMENTS = 1 << 14


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the bad field."""


# config parts built from a JSON object by their from_dict-style builders
_OBJECT_KEYS = frozenset({"kernel", "distribution", "space", "design"})


def config_field(raw: dict, key: str, build, default=MISSING):
    """build(raw[key]); whatever goes wrong is a ConfigError naming key.

    An absent or null key gives default, or "<key>: missing" when there is
    none.  Kernel, distribution, space and design must be JSON objects.
    """
    value = raw.get(key)
    if value is None:
        if default is MISSING:
            raise ConfigError(f"{key}: missing")
        return default
    if key in _OBJECT_KEYS and not isinstance(value, dict):
        raise ConfigError(f"{key}: expected a JSON object, got {type(value).__name__}")
    try:
        return build(value)
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def nested_draws(draws) -> int:
    """An inner or outer Monte Carlo budget: an int of at least 2."""
    draws = int(draws)
    if draws < 2:
        raise ValueError(f"nested estimates need at least 2 draws, got {draws}")
    return draws


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment needs, validated on construction.

    Grids are tuples; `grid` holds (n, p_n) pairs and only feeds the
    incomplete-moment experiment.  `q` defaults to p where a bound leaves it
    free.  `replications` drives tail frequencies and path statistics,
    `moment_replications` drives moment estimates.  `threads = None` defers
    to the USTAT_THREADS environment variable, then to 1.
    """

    kernel: Kernel
    dist: Distribution
    space: BanachSpaceDescriptor | None = None
    design: SamplingDesign | None = None
    experiment: str | None = None
    p: float = 1.5
    q: float | None = None
    d: int | None = None
    alpha: float | None = None
    gamma: float = 0.0
    eps: float | None = None
    t_grid: tuple[float, ...] | None = None
    n_grid: tuple[int, ...] = ()
    grid: tuple[tuple[int, float], ...] | None = None
    t_points: int = 8
    replications: int = 10_000
    moment_replications: int = 1_000
    inner: int = 1024
    outer: int = 256
    seed: int = 0
    threads: int | None = None
    stability_factor: float = 10.0

    def __post_init__(self) -> None:
        if not isinstance(self.kernel, Kernel):
            raise ConfigError("kernel: expected a Kernel instance")
        if not isinstance(self.dist, Distribution):
            raise ConfigError("distribution: expected a Distribution instance")
        if self.space is not None and not isinstance(self.space, BanachSpaceDescriptor):
            raise ConfigError("space: expected a BanachSpaceDescriptor")
        if self.design is not None and not isinstance(self.design, SamplingDesign):
            raise ConfigError("design: expected a SamplingDesign")
        space = self.space if self.space is not None else self.kernel.codomain
        lo, hi = space.admissible_p_range()
        if not space.contains_p(self.p):
            raise ConfigError(
                f"p: {self.p} outside the admissible range ({lo}, {hi}] "
                f"for an l^{space.norm_exponent} codomain"
            )
        if self.q is not None and not self.q > 0:
            raise ConfigError(f"q: must be positive, got {self.q}")
        if self.d is not None and not 1 <= self.d <= self.kernel.arity:
            raise ConfigError(f"d: must lie in [1, {self.kernel.arity}], got {self.d}")
        if self.alpha is not None and not 0.0 < self.alpha < 0.5:
            raise ConfigError(f"alpha: must lie in (0, 1/2), got {self.alpha}")
        if not self.gamma >= 0:
            raise ConfigError(f"gamma: must be nonnegative, got {self.gamma}")
        if self.eps is not None and not self.eps > 0:
            raise ConfigError(f"eps: must be positive, got {self.eps}")
        if self.t_grid is not None:
            if len(self.t_grid) == 0:
                raise ConfigError("t_grid: must not be empty when given")
            if not all(t > 0 for t in self.t_grid):
                raise ConfigError("t_grid: thresholds must be positive")
            if any(b <= a for a, b in zip(self.t_grid, self.t_grid[1:])):
                raise ConfigError("t_grid: thresholds must be strictly increasing")
        if any(n < self.kernel.arity for n in self.n_grid):
            raise ConfigError(
                f"n_grid: horizons must be at least the kernel arity {self.kernel.arity}"
            )
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n_grid: horizons must be strictly increasing")
        if self.experiment == "holder":
            _check_holder_horizons(self.n_grid)
        if self.grid is not None:
            for n, rate in self.grid:
                if n < self.kernel.arity:
                    raise ConfigError(f"grid: n={n} below the kernel arity")
                if not 0.0 <= rate <= 1.0:
                    raise ConfigError(f"grid: selection rate {rate} outside [0, 1]")
        if self.t_points < 1:
            raise ConfigError(f"t_points: must be at least 1, got {self.t_points}")
        if self.replications < 1:
            raise ConfigError(f"replications: must be at least 1, got {self.replications}")
        if self.moment_replications < 1:
            raise ConfigError(
                f"moment_replications: must be at least 1, got {self.moment_replications}"
            )
        for key in ("inner", "outer"):
            config_field(vars(self), key, nested_draws)
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed: must fit an unsigned 64-bit integer, got {self.seed}")
        if self.threads is not None and self.threads < 1:
            raise ConfigError(f"threads: must be at least 1, got {self.threads}")
        if not self.stability_factor > 0:
            raise ConfigError(f"stability_factor: must be positive, got {self.stability_factor}")

    # config key -> the builder of its field's value; a key that is absent
    # or null takes the field's default
    _BUILDERS = {
        "kernel": kernel_from_config, "distribution": Distribution.from_dict,
        "space": BanachSpaceDescriptor.from_dict, "design": SamplingDesign.from_dict,
        "experiment": lambda name: name,
        "p": float, "q": float, "d": int, "alpha": float, "gamma": float, "eps": float,
        "t_points": int, "replications": int, "moment_replications": int,
        "inner": int, "outer": int, "seed": int, "threads": int, "stability_factor": float,
        "t_grid": lambda ts: tuple(float(t) for t in ts),
        "n_grid": lambda ns: tuple(int(n) for n in ns),
        "grid": lambda cells: tuple((int(float(n)), float(rate)) for n, rate in cells),
    }
    _KEYS = frozenset(_BUILDERS)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build from a parsed JSON object; errors name the offending field."""
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a JSON object at the top level")
        for key in raw:
            if key not in cls._KEYS:
                raise ConfigError(f"{key}: unknown config field")
        defaults = {f.name: f.default for f in fields(cls)}
        kwargs = {}
        for key, build in cls._BUILDERS.items():
            name = "dist" if key == "distribution" else key
            kwargs[name] = config_field(raw, key, build, defaults[name])
        return cls(**kwargs)


def _check_holder_horizons(n_grid) -> None:
    """The Holder pair scan takes at most MAX_SCAN_BREAKPOINTS increments."""
    if any(n > MAX_SCAN_BREAKPOINTS for n in n_grid):
        raise ConfigError(
            f"n_grid: Holder-norm horizons are capped at {MAX_SCAN_BREAKPOINTS}, "
            f"got {max(n_grid)}"
        )


def _space_of(config: ExperimentConfig) -> BanachSpaceDescriptor:
    return config.space if config.space is not None else config.kernel.codomain


def _horizons(config: ExperimentConfig) -> tuple[int, ...]:
    if not config.n_grid:
        raise ConfigError("n_grid: at least one horizon N is required")
    return config.n_grid


def _certify_all_but_one(config: ExperimentConfig, space: BanachSpaceDescriptor):
    report = check_degeneracy(
        config.kernel, config.dist,
        inner=config.inner, outer=config.outer, seed=config.seed, space=space,
    )
    if report.degenerate is False:
        raise ConfigError(
            "kernel: an all-but-one conditional mean is nonzero; "
            "this bound needs a degenerate kernel"
        )
    if report.degenerate is None:
        raise ConfigError(
            "kernel: degeneracy inconclusive at the configured inner/outer budgets"
        )
    return report


def _certify_order(config: ExperimentConfig, space: BanachSpaceDescriptor):
    if config.d is None:
        raise ConfigError("d: the claimed degeneracy order is required")
    report = check_degeneracy(
        config.kernel, config.dist,
        inner=config.inner, outer=config.outer, seed=config.seed, space=space,
    )
    if report.order is None:
        raise ConfigError(
            "kernel: degeneracy order inconclusive at the configured inner/outer budgets"
        )
    if report.order != config.d:
        raise ConfigError(
            f"d: kernel certifies to degeneracy order {report.order}, config claims {config.d}"
        )
    return report


def _block_rows(n: int, m: int) -> int:
    """Replications per block at horizon n; never depends on the threads."""
    return max(1, _BLOCK_ELEMENTS // max(n, comb(n - 1, m - 1)))


def _simulate(h, dist, n, replications, seed, path, threads, reduce):
    """Trajectory statistics of every replication, in replication order.

    Replication r draws n points from the stream of (seed, *path, r); a
    block takes its rows from streams(seed, *path, reps), one re-keyed bit
    generator of its own.  Each block of replications runs through the
    prefix engine once, and reduce(trajectories, samples) turns the block
    into a tuple of arrays with one row per replication; the blocks' arrays
    are stacked in order.
    """
    rows = _block_rows(n, h.arity)

    def one(block: int) -> tuple:
        reps = np.arange(block * rows, min((block + 1) * rows, replications))
        sample = np.vstack([dist.sample(rng, n) for rng in streams(seed, *path, reps)])
        return reduce(prefix_values(h, sample, n), sample)

    blocks = parallel_map(one, -(-replications // rows), threads)
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _row_norms(space: BanachSpaceDescriptor, traj: np.ndarray) -> np.ndarray:
    """Norms of a (B, L) or (B, L, dim) block of points, shape (B, L)."""
    return space.norms(traj.reshape((-1,) + traj.shape[2:])).reshape(traj.shape[:2])


def _max_norm_matrix(h, dist, n_grid, replications, seed, threads, space, tag):
    """One row per replication of max_{m<=k<=N} ||U_k|| at each horizon."""
    m = h.arity
    cols = np.asarray(n_grid, dtype=np.int64) - m

    def reduce(traj, sample):
        running = np.maximum.accumulate(_row_norms(space, traj[:, m:]), axis=1)
        return (running[:, cols],)

    (maxima,) = _simulate(h, dist, max(n_grid), replications, seed, (tag,),
                          threads, reduce)
    return maxima


def _auto_t_grid(terminal: np.ndarray, points: int) -> tuple[float, ...]:
    """Quantile grid over the largest-horizon maxima, upper half of the law."""
    grid = np.quantile(np.asarray(terminal, dtype=np.float64),
                       np.linspace(0.5, 0.96, points))
    grid = np.unique(grid[grid > 0])
    if grid.size == 0:
        raise ConfigError(
            "t_grid: every simulated maximum is zero; supply an explicit grid"
        )
    return tuple(float(t) for t in grid)


def _ratio(lhs: float, rhs: float) -> float:
    """lhs / rhs; over a nonpositive rhs, 0 when lhs is 0 and inf otherwise."""
    if rhs > 0.0:
        return lhs / rhs
    return 0.0 if lhs == 0.0 else inf


def _frequency_rows(maxima, t_grid, n_grid, threshold_fn, rhs_fn):
    reps = maxima.shape[0]
    rows = []
    for col, n in enumerate(n_grid):
        vals = maxima[:, col]
        for t in t_grid:
            lhs = float(np.mean(vals > threshold_fn(t, n)))
            se = sqrt(lhs * (1.0 - lhs) / reps)
            rhs = float(rhs_fn(t, n))
            rows.append({"t": float(t), "N": int(n), "lhs": lhs, "lhs_se": se,
                         "rhs": rhs, "ratio": _ratio(lhs, rhs)})
    return rows


# ---------------------------------------------------------------------------
# deviation


def deviation_experiment(config: ExperimentConfig) -> InequalityReport:
    """Maximal tail frequency against the three-group tail-integral bound.

    For an index-free kernel the bound reads, with free q > 0 and p in the
    admissible range,

        N^m I(||h||, t) + sum_J C(m,|J|-ish) N^|J| I(Y_J, t / N^((m-|J|)/p))
        + t^(-q) N^(mq/p) (E||h||^p)^(q/p),

    where I(Y, s) = integral_0^1 u^(q-1) P(Y > s u) du, J runs over proper
    nonempty position subsets and Y_J = (E[||h||^p | xi_J])^(1/p).  Kernels
    that read their index variables get the per-summand variant instead: the
    N-power prefactors disappear and each group aggregates over the index
    tuples themselves.
    """
    h = config.kernel
    dist = config.dist
    space = _space_of(config)
    n_grid = _horizons(config)
    m = h.arity
    p = config.p
    q = config.q if config.q is not None else p

    if h.weighted:
        return _deviation_weighted(config, h, dist, space, n_grid, p, q)

    deg = _certify_all_but_one(config, space)
    maxima = _max_norm_matrix(h, dist, n_grid, config.replications,
                              config.seed, config.threads, space, "deviation")
    t_grid = config.t_grid if config.t_grid is not None else _auto_t_grid(
        maxima[:, -1], config.t_points)

    norm_tail = conditional_moment_tail(
        h, dist, tuple(range(m)), p,
        outer=config.outer, inner=config.inner, seed=config.seed, space=space)
    subset_tails = []
    if h.symmetric:
        # conditional law depends only on |J|; weight by the subset count
        for j in range(1, m):
            tail = conditional_moment_tail(
                h, dist, tuple(range(j)), p,
                outer=config.outer, inner=config.inner, seed=config.seed, space=space)
            subset_tails.append((float(comb(m, j)), j, tail))
    else:
        for j in range(1, m):
            for subset in itertools.combinations(range(m), j):
                tail = conditional_moment_tail(
                    h, dist, subset, p,
                    outer=config.outer, inner=config.inner, seed=config.seed, space=space)
                subset_tails.append((1.0, j, tail))
    moment_p = norm_moment(h, dist, p, seed=config.seed, space=space)

    def rhs(t: float, n: int) -> float:
        total = float(n) ** m * tail_integral(norm_tail, t, q)
        for mult, j, tail in subset_tails:
            total += mult * float(n) ** j * tail_integral(
                tail, t / float(n) ** ((m - j) / p), q)
        total += t ** (-q) * float(n) ** (m * q / p) * moment_p ** (q / p)
        return total

    rows = _frequency_rows(maxima, t_grid, n_grid, lambda t, n: t, rhs)
    return ratio_report("deviation", rows, {
        "mode": "same-kernel",
        "p": p,
        "q": q,
        "replications": config.replications,
        "t_grid": [float(t) for t in t_grid],
        "degeneracy_exact": deg.exact,
    }, config.stability_factor)


def _frozen_index_kernel(h: Kernel, index: tuple[int, ...]) -> Kernel:
    """Pin the 1-based index arguments of a weighted kernel to one tuple."""
    pinned = tuple(np.float64(i + 1) for i in index)

    def body(xs, idx, _h=h, _pinned=pinned):
        return _h.body(xs, _pinned)

    return Kernel(arity=h.arity, body=body, weighted=False, symmetric=False,
                  codomain=h.codomain, name=f"{h.name}@{index}")


def _tile_rows(row_entries: int) -> int:
    """Tuples per tile of _WEIGHTED_TILE_ENTRIES entries, rounded up to a multiple of 4."""
    rows = max(1, _WEIGHTED_TILE_ENTRIES // max(1, row_entries))
    return -(-rows // 4) * 4


def _norms_in_place(space: BanachSpaceDescriptor, vals: np.ndarray) -> np.ndarray:
    """space.norms(vals), written over vals when it is a scalar block it owns.

    A view, a read-only array or a vector codomain goes to space.norms.
    """
    flags = vals.flags
    if not (space.dimension == 1 and vals.dtype == np.float64
            and flags.owndata and flags.writeable):
        return space.norms(vals)
    np.abs(vals, out=vals)
    return vals[:, 0] if vals.ndim == 2 and vals.shape[1] == 1 else vals


def _tail_block(y, w, t_arr, p, q):
    """p-th moments and q-th-order tail terms of a (R, D) block of norms.

    Row r holds the norms of one summand over D draws with weights w.
    Returns (y**p @ w, contrib) with contrib[r, i] = sum_d w_d min(1,
    y_rd/t_i)^q / q, computed as (sum_{y<t} w y^q / t^q + sum_{y>=t} w) / q,
    where every sum has nonnegative terms.  A NaN norm is never an
    exceedance, so it makes its row NaN at every t; an infinite norm counts
    as 1.  Accurate while t^q and the y^q below min(t) stay normal floats.
    """
    yp = y ** p
    moments = yp @ w
    yq = yp if q == p else y ** q
    # flatnonzero + divmod: 2-D np.nonzero is over 30x slower on a sparse mask
    rows, cols = np.divmod(np.flatnonzero(y >= t_arr.min()), y.shape[1])
    ex_y = y[rows, cols]
    ex_w = w[cols]
    ex_wq = ex_w * yq[rows, cols]
    yq[rows, cols] = 0.0
    below = yq @ w
    n_rows = y.shape[0]
    contrib = np.empty((n_rows, t_arr.size))
    for i, t in enumerate(t_arr):
        under = ex_y < t
        s = below + np.bincount(rows[under], weights=ex_wq[under], minlength=n_rows)
        above = np.bincount(rows[~under], weights=ex_w[~under], minlength=n_rows)
        contrib[:, i] = (s / t ** q + above) / q
    return moments, contrib


def _deviation_weighted(config, h, dist, space, n_grid, p, q) -> InequalityReport:
    m = h.arity
    seed = config.seed
    n_max = max(n_grid)
    total = comb(n_max, m)
    if total > _WEIGHTED_TUPLE_CAP:
        raise ConfigError(
            f"n_grid: the index-weighted bound enumerates C(N, m) summands; "
            f"C({n_max}, {m}) = {total} exceeds {_WEIGHTED_TUPLE_CAP}"
        )
    idx_cols = unrank_many(np.arange(total, dtype=np.int64), n_max, m)

    # every summand must be degenerate on its own; exhaustive on exact laws,
    # spot-checked on sampled ones where each check costs a nested MC run
    support = dist.support()
    gate_rows = (range(total) if support is not None
                 else range(0, total, max(1, total // 16)))
    for row in gate_rows:
        index = tuple(int(c[row]) for c in idx_cols)
        report = check_degeneracy(
            _frozen_index_kernel(h, index), dist,
            inner=config.inner, outer=config.outer, seed=seed, space=space)
        shown = tuple(i + 1 for i in index)
        if report.degenerate is False:
            raise ConfigError(f"kernel: summand at index {shown} is not degenerate")
        if report.degenerate is None:
            raise ConfigError(
                f"kernel: summand at index {shown} certifies inconclusive; "
                "raise inner/outer"
            )

    maxima = _max_norm_matrix(h, dist, n_grid, config.replications,
                              seed, config.threads, space, "deviation")
    t_grid = config.t_grid if config.t_grid is not None else _auto_t_grid(
        maxima[:, -1], config.t_points)
    t_arr = np.asarray(t_grid, dtype=np.float64)
    n_t = t_arr.size

    value_table, draw_w = dist.nodes(m, _WEIGHTED_MC_DRAWS, seed, "deviation-weighted", 0)

    # first and third bound groups: per-tuple norm tails and p-th moments,
    # prefix-summable over colex rank because Inc^m_N is a colex prefix.
    # min(1, y/t)^q = (y/t)^q for y < t and 1 for y >= t.  A norm below
    # min(t) gives y^q / t^q at every threshold, so each norm is raised to a
    # power once and one gemv sums those; only the few norms at or above
    # min(t) switch case between thresholds and are revisited per t
    # (_tail_block).
    contrib_one = np.zeros((total, n_t))
    tuple_pm = np.zeros(total)
    tile = _tile_rows(value_table.shape[0])
    for a in range(0, total, tile):
        b = min(a + tile, total)
        vals = evaluate_batch(
            h,
            [value_table[:, k][None, :] for k in range(m)],
            [c[a:b, None] for c in idx_cols],
        )
        y = _norms_in_place(space, vals)
        del vals
        tuple_pm[a:b], contrib_one[a:b] = _tail_block(y, draw_w, t_arr, p, q)
    cum_one = np.cumsum(contrib_one, axis=0)
    cum_pm = np.cumsum(tuple_pm)

    # middle groups: for each proper nonempty position subset J, the summed
    # conditional moment over completions of each index restriction i_J
    middle = np.zeros((len(n_grid), n_t))
    for j_size in range(1, m):
        for positions in itertools.combinations(range(m), j_size):
            rest = [k for k in range(m) if k not in positions]
            tag = sum(1 << k for k in positions)
            outer_cols, outer_w = dist.nodes(
                j_size, config.outer, seed, "deviation-weighted", 1, tag)
            inner_cols, inner_w = dist.nodes(
                m - j_size, config.inner, seed, "deviation-weighted", 2, tag)
            o_n = outer_cols.shape[0]
            i_n = inner_cols.shape[0]

            cond = np.zeros((total, o_n))
            tile = _tile_rows(o_n * i_n)
            for a in range(0, total, tile):
                b = min(a + tile, total)
                cols: list[np.ndarray] = [None] * m  # type: ignore[list-item]
                for slot, k in enumerate(positions):
                    cols[k] = outer_cols[:, slot][None, :, None]
                for slot, k in enumerate(rest):
                    cols[k] = inner_cols[:, slot][None, None, :]
                vals = evaluate_batch(
                    h, cols, [c[a:b, None, None] for c in idx_cols])
                y = _norms_in_place(space, vals)
                del vals
                y **= p
                cond[a:b] = y @ inner_w

            key_mat = np.stack([idx_cols[k] for k in positions], axis=1)
            for col_idx, n in enumerate(n_grid):
                t_n = comb(n, m)
                _, inv = np.unique(key_mat[:t_n], axis=0, return_inverse=True)
                inv = np.asarray(inv).reshape(-1)
                grouped = np.zeros((int(inv.max()) + 1, o_n))
                np.add.at(grouped, inv, cond[:t_n])
                y_vals = grouped ** (1.0 / p)
                for ti in range(n_t):
                    u = np.minimum(1.0, y_vals / t_arr[ti])
                    # one tail integral per restriction, summed over all of them
                    middle[col_idx, ti] += float(((u ** q) @ outer_w).sum() / q)

    def rhs(t: float, n: int) -> float:
        t_n, ti = comb(n, m), t_grid.index(t)
        return (cum_one[t_n - 1, ti] + middle[n_grid.index(n), ti]
                + t ** (-q) * cum_pm[t_n - 1] ** (q / p))

    rows = _frequency_rows(maxima, t_grid, n_grid, lambda t, n: t, rhs)
    return ratio_report("deviation", rows, {
        "mode": "index-weighted",
        "p": p,
        "q": q,
        "replications": config.replications,
        "t_grid": [float(t) for t in t_grid],
        "tuples": total,
        "exact_tails": support is not None,
    }, config.stability_factor)


# ---------------------------------------------------------------------------
# order-d deviation


def _hp_tail(h, dist, p, outer, inner, seed, space) -> EmpiricalTail:
    """Tail of max over prefix levels k of (E[||h||^p | xi_1..xi_k])^(1/p).

    The max couples all levels on the same draws: exactly on finite support
    by contracting the suffix axes of the p-th power tensor, otherwise with
    `outer` conditioning rows and `inner` fresh completions per level.
    """
    m = h.arity
    support = dist.support()
    if support is not None:
        atoms, probs = np.asarray(support[0]), np.asarray(support[1])
        a = atoms.size
        full, weights = support_grid(atoms, probs, m)
        vals = evaluate_batch(h, [full[:, k] for k in range(m)])
        powed = (space.norms(vals) ** p).reshape((a,) * m)
        best = np.zeros((a,) * m)
        for k in range(m + 1):
            cond = powed
            for _ in range(m - k):
                cond = cond @ probs
            prof = np.asarray(cond) ** (1.0 / p)
            best = np.maximum(best, prof.reshape((a,) * k + (1,) * (m - k)))
        return EmpiricalTail.from_samples(best.ravel(), weights / weights.sum())

    rows = dist.sample(stream(seed, "hp-tail", 0), outer * m).reshape(outer, m)
    best = space.norms(evaluate_batch(h, [rows[:, k] for k in range(m)])) ** p
    for k in range(m):
        fresh = dist.sample(stream(seed, "hp-tail", 1, k), outer * inner * (m - k))
        fresh = fresh.reshape(m - k, outer, inner)
        cols = [rows[:, j][:, None] for j in range(k)] + [fresh[j] for j in range(m - k)]
        level = (space.norms(evaluate_batch(h, cols)) ** p).mean(axis=1)
        best = np.maximum(best, level)
    return EmpiricalTail.from_samples(best ** (1.0 / p))


def order_d_deviation_experiment(config: ExperimentConfig) -> InequalityReport:
    """Maximal tail of a symmetric order-d degenerate kernel.

    Thresholds scale as t N^(m-d+d/p); the bound is

        sum_{j=0}^m N^j I(H_p, t N^((max(d,j)-d)(p-1)/p + j/p)),

    with H_p the prefix-conditional moment profile maximized over levels.
    The j = 0 group is N-free, which is what makes the bound a law of large
    numbers statement after dividing by the threshold scale.
    """
    h = config.kernel
    dist = config.dist
    if h.weighted:
        raise ConfigError("kernel: order-d deviation needs an index-independent kernel")
    if not h.symmetric:
        raise ConfigError("kernel: order-d deviation needs a symmetric kernel")
    space = _space_of(config)
    n_grid = _horizons(config)
    m = h.arity
    p = config.p
    q = config.q if config.q is not None else p
    deg = _certify_order(config, space)
    d = config.d

    lhs_expo = m - d + d / p
    maxima = _max_norm_matrix(h, dist, n_grid, config.replications,
                              config.seed, config.threads, space, "order-d")
    if config.t_grid is not None:
        t_grid = config.t_grid
    else:
        t_grid = _auto_t_grid(maxima[:, -1] / float(max(n_grid)) ** lhs_expo,
                              config.t_points)
    hp = _hp_tail(h, dist, p, config.outer, config.inner, config.seed, space)

    def rhs(t: float, n: int) -> float:
        total = 0.0
        for j in range(m + 1):
            shift = (max(d, j) - d) * (p - 1.0) / p + j / p
            total += float(n) ** j * tail_integral(hp, t * float(n) ** shift, q)
        return total

    rows = _frequency_rows(
        maxima, t_grid, n_grid,
        lambda t, n: t * float(n) ** lhs_expo, rhs)
    return ratio_report("order-d-deviation", rows, {
        "p": p,
        "q": q,
        "d": d,
        "threshold_exponent": lhs_expo,
        "replications": config.replications,
        "t_grid": [float(t) for t in t_grid],
        "degeneracy_exact": deg.exact,
    }, config.stability_factor)


# ---------------------------------------------------------------------------
# moment


def _tail_power_moment(tail: EmpiricalTail, power: float) -> float:
    """E[Y^power] for the empirical law the tail carries."""
    if tail.size == 0:
        return 0.0
    return float(np.dot(tail.weights, tail.values ** power))


def moment_experiment(config: ExperimentConfig) -> InequalityReport:
    """E[max_{m<=n<=N} ||.||^q] against the moment bound, one shared kernel.

    q = p collapses the bound to N^m E||h||^p.  For q > p the three groups
    are kept exactly: C(N,m) E||h||^q, the completion-weighted conditional
    moments sum_J sum_{i_J} w(i_J)^(q/p) E[(E[||h||^p|xi_J])^(q/p)], and
    (C(N,m) E||h||^p)^(q/p).
    """
    h = config.kernel
    dist = config.dist
    if h.weighted:
        raise ConfigError(
            "kernel: the moment experiment covers one shared kernel; "
            "index-weighted summands are out of scope"
        )
    space = _space_of(config)
    n_grid = _horizons(config)
    m = h.arity
    p = config.p
    q = config.q if config.q is not None else p
    if q < p:
        raise ConfigError(f"q: the moment bound needs q >= p, got q={q} < p={p}")
    deg = _certify_all_but_one(config, space)

    reps = config.moment_replications
    maxima = _max_norm_matrix(h, dist, n_grid, reps,
                              config.seed, config.threads, space, "moment")
    moment_p = norm_moment(h, dist, p, seed=config.seed, space=space)

    if q == p:
        mode = "q=p"

        def rhs_for(n: int) -> float:
            return float(n) ** m * moment_p
    else:
        mode = "q>p"
        moment_q = norm_moment(h, dist, q, seed=config.seed, space=space)
        subset_terms = []
        for j in range(1, m):
            for positions in itertools.combinations(range(m), j):
                tail = conditional_moment_tail(
                    h, dist, positions, p,
                    outer=config.outer, inner=config.inner,
                    seed=config.seed, space=space)
                subset_terms.append((positions, _tail_power_moment(tail, q)))

        def rhs_for(n: int) -> float:
            total = comb(n, m) * moment_q
            for positions, pm in subset_terms:
                wsum = 0.0
                for i_j in enumerate_tuples(n, len(positions)):
                    c = completion_weight(positions, m, i_j, n)
                    if c:
                        wsum += float(c) ** (q / p)
                total += wsum * pm
            total += (comb(n, m) * moment_p) ** (q / p)
            return total

    rows = []
    for col, n in enumerate(n_grid):
        powered = maxima[:, col] ** q
        lhs = float(powered.mean())
        se = float(powered.std(ddof=1) / sqrt(reps)) if reps > 1 else 0.0
        rhs = float(rhs_for(n))
        rows.append({"N": int(n), "lhs": lhs, "lhs_se": se, "rhs": rhs,
                     "ratio": _ratio(lhs, rhs)})

    return ratio_report("moment", rows, {
        "p": p,
        "q": q,
        "mode": mode,
        "replications": reps,
        "degeneracy_exact": deg.exact,
    }, config.stability_factor, score="spread")


# ---------------------------------------------------------------------------
# weak-moment law of large numbers


def _weak_norm_se(tail: EmpiricalTail, p: float, reps: int) -> float:
    """Binomial-delta standard error at the order statistic achieving the sup."""
    if tail.size == 0:
        return 0.0
    suffix = np.cumsum(tail.weights[::-1])[::-1]
    cand = tail.values ** p * suffix
    k = int(np.argmax(cand))
    f = float(suffix[k])
    return float(tail.values[k] ** p * sqrt(max(f * (1.0 - f), 0.0) / reps))


def lln_experiment(config: ExperimentConfig) -> InequalityReport:
    """Weak-L^p norm of the finite-horizon maximal function against E||h||^p.

    Per replication, sup_{m<=n<=N} n^(-m/p) ||U_n|| is recorded at every
    horizon in one pass; the weak norm of that sample should stay within a
    constant of E||h||^p as the horizon doubles, and the terminal
    n^(-m/p) ||U_n|| median should shrink (the almost-sure convergence
    surrogate).  When alpha is set, the rate-series curve
    N^gamma P(sup_{n>=N} n^alpha ||U_n|| / C(n,m) > eps) is reported too;
    its flattening is a heuristic diagnostic, never pass/fail.
    """
    h = config.kernel
    dist = config.dist
    if h.weighted:
        raise ConfigError("kernel: the maximal-function bound needs an index-independent kernel")
    space = _space_of(config)
    r = space.smoothness
    p = config.p
    if not 1.0 < p < r:
        raise ConfigError(
            f"p: the maximal-function bound needs 1 < p < r strictly; "
            f"got p={p} with r={r}"
        )
    n_grid = _horizons(config)
    m = h.arity
    deg = _certify_all_but_one(config, space)

    n_max = max(n_grid)
    cols = np.asarray(n_grid, dtype=np.int64) - m
    reps = config.replications
    alpha = config.alpha
    gamma = config.gamma
    ns = np.arange(m, n_max + 1, dtype=np.float64)
    if alpha is not None:
        binom = np.array([comb(k, m) for k in range(m, n_max + 1)], dtype=np.float64)
        rate_weight = ns ** alpha / binom

    def reduce(traj, sample):
        norms = _row_norms(space, traj[:, m:])
        weighted = norms * ns ** (-m / p)
        stats = (np.maximum.accumulate(weighted, axis=1)[:, cols], weighted[:, cols])
        if alpha is None:
            return stats
        suffix = np.maximum.accumulate((norms * rate_weight)[:, ::-1], axis=1)
        return stats + (suffix[:, ::-1][:, cols],)

    sups, terminal, *rate_stats = _simulate(
        h, dist, n_max, reps, config.seed, ("lln",), config.threads, reduce)
    moment = norm_moment(h, dist, p, seed=config.seed, space=space)

    rows = []
    for col, n in enumerate(n_grid):
        tail = EmpiricalTail.from_samples(sups[:, col])
        wnorm = weak_lp_norm(tail, p)
        rows.append({
            "N": int(n),
            "weak_norm": wnorm,
            "weak_norm_se": _weak_norm_se(tail, p, reps),
            "moment": moment,
            "ratio": _ratio(wnorm, moment),
            "terminal_median": float(np.median(terminal[:, col])),
        })

    medians = [row["terminal_median"] for row in rows]
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    details = {
        "p": p,
        "replications": reps,
        "terminal_decreasing": decreasing,
        "degeneracy_exact": deg.exact,
    }
    if alpha is not None:
        (suffix_stats,) = rate_stats
        eps = config.eps if config.eps is not None else float(
            np.median(suffix_stats[:, 0]))
        entries = []
        partial = 0.0
        partial_sums = []
        for col, n in enumerate(n_grid):
            exceed = float(np.mean(suffix_stats[:, col] > eps))
            weighted = float(n) ** gamma * exceed
            partial += weighted
            entries.append({"N": int(n), "exceedance": exceed, "weighted": weighted})
            partial_sums.append(partial)
        series = {
            "heuristic": True,
            "alpha": alpha,
            "gamma": gamma,
            "eps": eps,
            "entries": entries,
            "partial_sums": partial_sums,
        }
        if config.d is not None:
            need = {}
            for j in range(m + 1):
                try:
                    need[str(j)] = required_integrability(config.d, j, gamma, r, alpha)
                except ValueError:
                    need[str(j)] = None
            series["required_integrability"] = need
        details["rate_series"] = series
    return ratio_report("lln", rows, details, config.stability_factor,
                        score="spread", extra=decreasing)


# ---------------------------------------------------------------------------
# Holder tightness


def holder_tightness_experiment(config: ExperimentConfig) -> InequalityReport:
    """Holder-norm quantiles of the normalized trajectory plus the dyadic curve.

    Rows carry the (J, tail_sum) exceedance curve at the largest horizon;
    quantiles of ||n^(d/2-m) U^pl||_alpha per horizon land in the details.
    Passing means the curve decreases over the J window (strictly until it
    hits zero) and the 90% quantile stays within the stability factor across
    horizons.  fitted_constant is the full double sum (the J = 0 value).
    """
    h = config.kernel
    dist = config.dist
    if h.weighted or not h.symmetric:
        raise ConfigError(
            "kernel: the tightness experiment needs a symmetric, index-independent kernel"
        )
    space = _space_of(config)
    if space.dimension != 1:
        raise ConfigError("space: path statistics are built from scalar kernels")
    if config.alpha is None:
        raise ConfigError("alpha: required for Holder-norm experiments")
    params = HolderParams(config.alpha)
    n_grid = _horizons(config)
    _check_holder_horizons(n_grid)
    _certify_order(config, space)
    d = config.d
    m = h.arity
    seed = config.seed
    reps = config.replications
    exponent = m - d / 2.0

    if d == m:
        raw_kernel = None  # the raw trajectory of h itself serves directly
    else:
        raw_kernel = project_degenerate_level(
            h, d, dist, inner=config.inner, seed=seed).as_kernel()

    n_exc = max(n_grid)
    j_max = int(floor(log2(n_exc)))
    quantile_rows = []
    exceed_paths = None
    for n in n_grid:
        def reduce(traj, sample, _n=n) -> tuple:
            if _n != n_exc or raw_kernel is None:
                return (traj,)
            return traj, prefix_values(raw_kernel, sample, _n)

        trajectories, *paths = _simulate(h, dist, n, reps, seed, ("holder", n),
                                         config.threads, reduce)
        # the pair scan is one numpy op per lag over all of this horizon's
        # paths, so it runs once here rather than per block in the threads
        hnorms = holder_norms(trajectories / float(n) ** exponent, config.alpha)
        quantile_rows.append({
            "n": int(n),
            "median": float(np.quantile(hnorms, 0.5)),
            "q90": float(np.quantile(hnorms, 0.9)),
        })
        if n == n_exc:
            exceed_paths = paths[0] if paths else trajectories

    eps = config.eps if config.eps is not None else calibrate_epsilon(
        exceed_paths, config.alpha, d, j_max, level=0.9)
    table = dyadic_increment_exceedance(exceed_paths, config.alpha, eps, d, j_max)
    rows = [{"J": int(j), "tail_sum": float(s)} for j, s in table.tail_sums]

    window = [j for j in range(2, 7) if j <= j_max]
    if len(window) < 2:
        window = list(range(1, j_max + 1))
    curve = [rows[j]["tail_sum"] for j in window]
    decreasing = all(b < a or (a == 0.0 and b == 0.0)
                     for a, b in zip(curve, curve[1:]))

    q90 = [row["q90"] for row in quantile_rows]
    positive = [v for v in q90 if v > 0]
    quantile_spread = (max(positive) / min(positive)) if positive else 0.0
    tight = quantile_spread <= config.stability_factor

    norm_tail = conditional_moment_tail(
        h, dist, tuple(range(m)), 1.0,
        outer=config.outer, inner=config.inner, seed=seed, space=space)
    tail_condition = []
    for level in (0.5, 0.9, 0.99):
        t = norm_tail.quantile(level)
        if t > 0.0:
            tail_condition.append({
                "t": t,
                "value": t ** params.p_of_alpha * norm_tail.survival(t),
            })

    return InequalityReport(
        kind="holder",
        rows=rows,
        fitted_constant=float(table.tail_sums[0][1]),
        stability=quantile_spread,
        passed=bool(decreasing and tight),
        details={
            "alpha": config.alpha,
            "p_of_alpha": params.p_of_alpha,
            "d": d,
            "eps": eps,
            "j_max": j_max,
            "n_exceedance": int(n_exc),
            "replications": reps,
            "window": window,
            "tail_decreasing": decreasing,
            "quantiles": quantile_rows,
            "quantile_spread": quantile_spread,
            "layer_sums": [{"j": int(j), "sum": float(s)} for j, s in table.layer_sums],
            "cells": table.rows,
            "tail_condition": tail_condition,
        },
    )


# ---------------------------------------------------------------------------
# dispatch


def _incomplete_moment(config: ExperimentConfig) -> InequalityReport:
    if not config.grid:
        raise ConfigError("grid: (n, p_n) pairs are required for the incomplete-moment experiment")
    h = config.kernel
    if h.weighted or not h.symmetric:
        raise ConfigError(
            "kernel: the incomplete-moment experiment needs a symmetric, "
            "index-independent kernel"
        )
    q = config.q if config.q is not None else config.p
    if q < config.p:
        raise ConfigError(f"q: the moment bound needs q >= p, got q={q} < p={config.p}")
    space = _space_of(config)
    _certify_order(config, space)
    return incomplete_moment_experiment(
        h, config.dist, config.grid, config.p, q, config.d,
        replications=config.moment_replications, seed=config.seed,
        threads=config.threads, space=space, certify=False,
        stability_factor=config.stability_factor,
    )


EXPERIMENTS = {
    "deviation": deviation_experiment,
    "order-d-deviation": order_d_deviation_experiment,
    "moment": moment_experiment,
    "lln": lln_experiment,
    "holder": holder_tightness_experiment,
    "incomplete-moment": _incomplete_moment,
}


def run_experiment(config: ExperimentConfig, name: str | None = None) -> InequalityReport:
    """Dispatch to an experiment by name (or config.experiment)."""
    chosen = name if name is not None else config.experiment
    if chosen is None:
        raise ConfigError("experiment: no experiment name given")
    if not isinstance(chosen, str) or chosen not in EXPERIMENTS:
        options = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(f"experiment: unknown name {chosen!r}; expected one of {options}")
    return EXPERIMENTS[chosen](config)
