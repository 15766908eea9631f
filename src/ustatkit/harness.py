"""End-to-end experiments pitting Monte Carlo left sides against computed bounds.

Every bound handled here has the form LHS <= K * RHS with a multiplicative
constant K that is finite but not pinned down numerically.  The testable
surrogate is empirical: evaluate both sides over a (t, N) or N grid, fit
C-hat = max ratio, and score stability as max ratio / median ratio.  A bound
"verifies" when C-hat is finite and the score (or, for moment-type
experiments, the max/min spread) stays below the configured factor while N
doubles.  Monte Carlo left sides carry standard errors so no downstream check
ever compares bare random numbers.

Six experiment families live here:

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
  incomplete-moment  E||U_inc||^q of Bernoulli-subsampled statistics of an
                     order-d degenerate kernel across an (n, p_n) grid.

Every experiment takes an ExperimentConfig, and every degeneracy claim it
rests on goes through one gate (_certify) at the config's budgets.

Experiments draw through per-replication streams derived from the master
seed: replication r reads its sample from the stream of (seed, *path, r).
Trajectories are simulated in blocks of replications whose size depends
only on the horizon N and the arity m, one prefix-engine call per block,
and the blocks run in order in the calling thread.  A block derives all
its rows' Philox keys in one stream_keys pass and draws its (rows, N)
sample in one kernels.sample_rows call: one vectorised Philox pass for
a Rademacher, uniform or finite law on short rows, and one bit generator
re-keyed per row otherwise, giving the raw words of such a law's long
rows or drawing a Gaussian law's rows (its ziggurat takes a variable
number of words).  Either way every row of a block is bit-identical to
the trajectory of that replication alone, drawn from stream(seed, *path,
r), so a report is bit-for-bit reproducible for a fixed config and does
not depend on the block size.  Every stage runs in the calling thread.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, dataclass, fields
from math import comb, floor, inf, isfinite, log2, sqrt

import numpy as np

from .combinatorics import enumerate_tuples, unrank_many
from .hoeffding import check_degeneracy, project_degenerate_level
from .holder import (
    MAX_SCAN_BREAKPOINTS,
    HolderParams,
    calibrate_epsilon,
    dyadic_increment_exceedance,
    holder_norm_quantiles,
)
from .incomplete import SamplingDesign, bernoulli_moment_cell
from .kernels import (
    Distribution, Kernel, evaluate_batch, evaluate_nested, kernel_from_config, sample_rows,
    stream_keys,
)
from .reporting import InequalityReport, ratio_report
from .spaces import BanachSpaceDescriptor, json_float, json_int
from .tails import (
    EmpiricalTail,
    _nested_powered_norms,
    conditional_moment_tail,
    median,
    norm_moment,
    quantile,
    required_integrability,
    tail_integral,
    weak_lp_norm,
)
from .ustat import completion_weight, prefix_values

__all__ = [
    "ConfigError",
    "EXPERIMENTS",
    "ExperimentConfig",
    "InequalityReport",
    "check_fields",
    "config_field",
    "deviation_experiment",
    "holder_tightness_experiment",
    "incomplete_moment_experiment",
    "kernel_space",
    "lln_experiment",
    "moment_experiment",
    "nested_draws",
    "order_d_deviation_experiment",
    "require_finite",
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
# runs gemv on one thread, which would otherwise split the rows).  `import
# ustatkit` loads a one-thread BLAS, but a library caller who imported numpy
# first may run a threaded one, and the tile size still covers that case.
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


def check_fields(raw: dict, known) -> None:
    """Refuse a key outside `known`, such as a misspelled optional field."""
    for key in raw:
        if key not in known:
            raise ConfigError(f"{key}: unknown config field")


def kernel_space(kernel: Kernel, space: BanachSpaceDescriptor | None) -> BanachSpaceDescriptor:
    """`space`, which must have the codomain's dimension, or else the codomain."""
    if space is None:
        return kernel.codomain
    if space.dimension != kernel.codomain.dimension:
        raise ConfigError(
            f"space: dimension {space.dimension} differs from the kernel's "
            f"codomain dimension {kernel.codomain.dimension}")
    return space


def nested_draws(draws) -> int:
    """An inner or outer Monte Carlo budget: an int of at least 2."""
    draws = json_int(draws)
    if draws < 2:
        raise ValueError(f"nested estimates need at least 2 draws, got {draws}")
    return draws


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment needs, validated on construction.

    Grids are tuples; `grid` holds (n, p_n) pairs and only feeds the
    incomplete-moment experiment.  `q` defaults to p where a bound leaves it
    free.  `replications` drives tail frequencies and path statistics,
    `moment_replications` drives moment estimates.
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
        # a config built in Python is held to the types from_dict builds
        for key, build in self._BUILDERS.items():
            if key not in _OBJECT_KEYS:
                config_field(vars(self), key, build, None)
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
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed: must fit an unsigned 64-bit integer, got {self.seed}")
        if not self.stability_factor > 0:
            raise ConfigError(f"stability_factor: must be positive, got {self.stability_factor}")

    # config key -> the builder of its field's value; a key that is absent
    # or null takes the field's default
    _BUILDERS = {
        "kernel": kernel_from_config, "distribution": Distribution.from_dict,
        "space": BanachSpaceDescriptor.from_dict, "design": SamplingDesign.from_dict,
        "experiment": lambda name: name,
        "p": json_float, "q": json_float, "alpha": json_float, "gamma": json_float,
        "eps": json_float, "stability_factor": json_float,
        "d": json_int, "t_points": json_int, "seed": json_int,
        "inner": nested_draws, "outer": nested_draws,
        "replications": json_int, "moment_replications": json_int,
        "t_grid": lambda ts: tuple(json_float(t) for t in ts),
        "n_grid": lambda ns: tuple(json_int(n) for n in ns),
        "grid": lambda cells: tuple((json_int(n), json_float(rate)) for n, rate in cells),
    }
    _KEYS = frozenset(_BUILDERS) | {"threads"}

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build from a parsed JSON object; errors name the offending field."""
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a JSON object at the top level")
        check_fields(raw, cls._KEYS)
        # checked and dropped: perfbench workloads, tools/report_hashes.py and criterion 13 set it
        threads = config_field(raw, "threads", json_int, 1)
        if threads < 1:
            raise ConfigError(f"threads: must be at least 1, got {threads}")
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


def _horizons(config: ExperimentConfig) -> tuple[int, ...]:
    if not config.n_grid:
        raise ConfigError("n_grid: at least one horizon N is required")
    return config.n_grid


def require_finite(report, shown: str = "the kernel") -> None:
    """A ConfigError when a degeneracy report's scale or an entry's squared
    statistic is inf or NaN: such a kernel value leaves every verdict
    meaningless.  shown names the kernel in the message."""
    bad = next((e for e in (*report.coordinate_entries, *report.level_entries)
                if not isfinite(e.squared_statistic)), None)
    if bad is not None or not isfinite(report.scale):
        where = f"{bad.label} has squared_statistic {bad.squared_statistic:.6g}, " if bad else ""
        raise ConfigError(f"kernel: {shown} is not finite under the law: "
                          f"{where}scale {report.scale:.6g}")


def _certify(config: ExperimentConfig, space: BanachSpaceDescriptor, order: bool = False,
             kernel: Kernel | None = None, shown: str = "the kernel"):
    """The degeneracy report of kernel (default config.kernel) at the config's
    budgets, or a ConfigError when it does not certify.

    By default every all-but-one conditional mean must vanish; with order,
    the certified order must be the claimed config.d, which is required.
    shown names the kernel in the messages.
    """
    if order and config.d is None:
        raise ConfigError("d: the claimed degeneracy order is required")
    report = check_degeneracy(
        config.kernel if kernel is None else kernel, config.dist,
        inner=config.inner, outer=config.outer, seed=config.seed, space=space,
    )
    require_finite(report, shown)
    verdict = report.order if order else report.degenerate
    if verdict is None:
        entries = report.level_entries if order else report.coordinate_entries
        # the first inconclusive entry is the one that blocks the verdict
        blocking = next((e for e in entries if e.verdict == "inconclusive"), None)
        if blocking is None:
            # only an order can be None without one: every level is zero
            raise ConfigError(
                f"kernel: {shown} has no degeneracy order: every prefix level certifies zero")
        raise ConfigError(
            f"kernel: {shown} certifies inconclusive: {blocking.label} has "
            f"squared_statistic {blocking.squared_statistic:.6g} and squared_se "
            f"{blocking.squared_se:.6g}, scale {report.scale:.6g}, at "
            f"inner={config.inner}, outer={config.outer}; raise inner/outer")
    if not order and verdict is False:
        raise ConfigError(
            f"kernel: {shown} is not degenerate: an all-but-one conditional mean is nonzero")
    if order and verdict != config.d:
        raise ConfigError(f"d: kernel certifies to degeneracy order {verdict}, "
                          f"config claims {config.d}")
    return report


def _block_rows(n: int, m: int) -> int:
    """Replications per block at horizon n, from n and m alone."""
    return max(1, _BLOCK_ELEMENTS // max(n, comb(n - 1, m - 1)))


def _simulate(h, dist, n, replications, seed, path, reduce):
    """Trajectory statistics of every replication, in replication order.

    Replication r draws n points from the stream of (seed, *path, r); a
    block draws its rows in one sample_rows call and runs through the
    prefix engine once, and reduce(trajectories, samples) turns the block
    into a tuple of arrays with one row per replication; the blocks' arrays
    are stacked in order.  The blocks run in the calling thread.
    """
    rows = _block_rows(n, h.arity)
    blocks = []
    for start in range(0, replications, rows):
        reps = np.arange(start, min(start + rows, replications))
        sample = sample_rows(dist, stream_keys(seed, *path, reps), n)
        blocks.append(reduce(prefix_values(h, sample, n), sample))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _row_norms(space: BanachSpaceDescriptor, traj: np.ndarray) -> np.ndarray:
    """Norms of a (B, L) or (B, L, dim) block of points, shape (B, L)."""
    return space.norms(traj.reshape((-1,) + traj.shape[2:])).reshape(traj.shape[:2])


def _max_norm_matrix(h, dist, n_grid, replications, seed, space, tag):
    """One row per replication of max_{m<=k<=N} ||U_k|| at each horizon."""
    m = h.arity
    cols = np.asarray(n_grid, dtype=np.int64) - m

    def reduce(traj, sample):
        running = np.maximum.accumulate(_row_norms(space, traj[:, m:]), axis=1)
        return (running[:, cols],)

    (maxima,) = _simulate(h, dist, max(n_grid), replications, seed, (tag,), reduce)
    return maxima


def _auto_t_grid(terminal: np.ndarray, points: int) -> tuple[float, ...]:
    """Quantile grid over the largest-horizon maxima, upper half of the law."""
    grid = np.sort(quantile(terminal, np.linspace(0.5, 0.96, points)))
    grid = grid[grid > 0]
    if grid.size == 0:
        raise ConfigError(
            "t_grid: every simulated maximum is zero; supply an explicit grid"
        )
    # np.unique without its masked-array check: sorted, adjacent repeats dropped
    return tuple(float(t) for t in grid[np.r_[True, grid[1:] != grid[:-1]]])


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
    space = kernel_space(config.kernel, config.space)
    n_grid = _horizons(config)
    m = h.arity
    p = config.p
    q = config.q if config.q is not None else p

    if h.weighted:
        return _deviation_weighted(config, h, dist, space, n_grid, p, q)

    deg = _certify(config, space)
    maxima = _max_norm_matrix(h, dist, n_grid, config.replications,
                              config.seed, space, "deviation")
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


def _index_split(h: Kernel, space: BanachSpaceDescriptor, idx_cols, value_table):
    """(f, |c(i)| per tuple, ||f|| on the value table) for a split kernel.

    None, so that the tiled path runs, when h carries no split, when some
    |c(i)| is 0, inf or NaN, or when some ||f|| on the table is NaN (a NaN
    norm makes a whole row NaN on the tiled path, which a sorted pass would
    not reproduce).
    """
    if h.split is None:
        return None
    f, weight = h.split
    c = np.abs(np.broadcast_to(weight(tuple(col + 1.0 for col in idx_cols)),
                               idx_cols[0].shape))
    if not (np.isfinite(c) & (c > 0)).all():
        return None
    g = space.norms(evaluate_batch(f, [value_table[:, k] for k in range(h.arity)]))
    if np.isnan(g).any():
        return None
    return f, c, g


def _tuple_tails_factored(c, g, w, t_arr, p, q):
    """_tail_block's (moments, contrib) for the norms y[i, d] = c[i] * g[d].

    y < t exactly when g < s = t / c, so with the norms sorted once,
    contrib[i, t] = (S(s) / s^q + W(s)) / q, where S(s) is the prefix sum
    of w g^q over g < s and W(s) the suffix sum of w over g >= s; one
    searchsorted finds every cut.  Both sums have nonnegative terms.  The
    p-th moment of tuple i is c[i]^p E g^p.
    """
    order = np.argsort(g, kind="stable")
    gs, ws = g[order], w[order]
    below = np.concatenate(([0.0], np.cumsum(ws * gs ** q)))
    above = np.concatenate((np.cumsum(ws[::-1])[::-1], [0.0]))
    s = t_arr[None, :] / c[:, None]
    cut = np.searchsorted(gs, s, side="left")
    contrib = (below[cut] / s ** q + above[cut]) / q
    return c ** p * float(g ** p @ w), contrib


def _tuple_tails_tiled(h, space, idx_cols, value_table, w, t_arr, p, q):
    """_tail_block over every tuple, a tile of tuples at a time."""
    m = h.arity
    total = len(idx_cols[0])
    contrib = np.zeros((total, t_arr.size))
    moments = np.zeros(total)
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
        moments[a:b], contrib[a:b] = _tail_block(y, w, t_arr, p, q)
    return moments, contrib


def _tuple_moments_tiled(h, space, idx_cols, positions, outer_cols, inner_cols,
                         inner_w, p) -> np.ndarray:
    """cond[i, a] = sum_b w_b ||h_i(o_a, in_b)||^p, a tile of tuples at a time.

    Outer column slot a feeds position positions[a]; the other positions,
    in increasing order, read the inner columns.
    """
    total = len(idx_cols[0])
    o_n, i_n = outer_cols.shape[0], inner_cols.shape[0]
    cond = np.zeros((total, o_n))
    tile = _tile_rows(o_n * i_n)
    for a in range(0, total, tile):
        b = min(a + tile, total)
        vals = evaluate_nested(h, positions, outer_cols[None], inner_cols[None, None],
                               [c[a:b, None, None] for c in idx_cols])
        y = _norms_in_place(space, vals)
        del vals
        y **= p
        cond[a:b] = y @ inner_w
    return cond


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
    value_table, draw_w = dist.nodes(m, _WEIGHTED_MC_DRAWS, seed, "deviation-weighted", 0)
    # h_i = c(i) * f: ||h_i|| = |c(i)| ||f|| on every draw, so each group
    # below is a sum over the norms of f alone, reassociated (_index_split
    # says when this factored branch runs; otherwise every sum is taken
    # over the tuples' own norms, a tile of tuples at a time)
    split = _index_split(h, space, idx_cols, value_table)

    # every summand must be degenerate on its own; exhaustive on exact laws,
    # spot-checked on sampled ones where each check costs a nested MC run.
    # The verdicts are scale-invariant and read the same draws for every
    # kernel, so on the factored branch the verdict of f is that of every
    # c(i) * f.
    support = dist.support()
    if split is not None:
        gates = [(split[0], "the index-free factor of every summand")]
    else:
        gate_rows = (range(total) if support is not None
                     else range(0, total, max(1, total // 16)))
        indices = (tuple(int(c[row]) for c in idx_cols) for row in gate_rows)
        gates = ((_frozen_index_kernel(h, index),
                  f"summand at index {tuple(i + 1 for i in index)}") for index in indices)
    for kernel, shown in gates:
        _certify(config, space, kernel=kernel, shown=shown)

    maxima = _max_norm_matrix(h, dist, n_grid, config.replications,
                              seed, space, "deviation")
    t_grid = config.t_grid if config.t_grid is not None else _auto_t_grid(
        maxima[:, -1], config.t_points)
    t_arr = np.asarray(t_grid, dtype=np.float64)
    n_t = t_arr.size

    # first and third bound groups: per-tuple norm tails and p-th moments,
    # prefix-summable over colex rank because Inc^m_N is a colex prefix.
    # min(1, y/t)^q = (y/t)^q for y < t and 1 for y >= t.  On the tiled
    # path a norm below min(t) gives y^q / t^q at every threshold, so each
    # norm is raised to a power once and one gemv sums those; only the few
    # norms at or above min(t) switch case between thresholds and are
    # revisited per t (_tail_block).  On the factored branch y = |c(i)| g
    # with g = ||f||, and y < t is g < t / |c(i)|, so one sort of g serves
    # every tuple and threshold (_tuple_tails_factored).
    if split is not None:
        f, c, g = split
        tuple_pm, contrib_one = _tuple_tails_factored(c, g, draw_w, t_arr, p, q)
        c_p = c ** p
    else:
        tuple_pm, contrib_one = _tuple_tails_tiled(
            h, space, idx_cols, value_table, draw_w, t_arr, p, q)
    cum_one = np.cumsum(contrib_one, axis=0)
    cum_pm = np.cumsum(tuple_pm)

    # middle groups: for each proper nonempty position subset J, the summed
    # conditional moment over completions of each index restriction i_J.
    # On the factored branch the conditional moment of tuple i at outer
    # point o_a is |c(i)|^p F_J[a] with F_J[a] = sum_b w_b ||f(o_a, in_b)||^p,
    # so a restriction's sum over its tuples i in Inc^m_N is C_r F_J[a]
    # with C_r the sum of their |c(i)|^p: F_J is computed once per J, and
    # no tuple meets a draw.
    middle = np.zeros((len(n_grid), n_t))
    for j_size in range(1, m):
        for positions in itertools.combinations(range(m), j_size):
            tag = sum(1 << k for k in positions)
            outer_cols, outer_w = dist.nodes(
                j_size, config.outer, seed, "deviation-weighted", 1, tag)
            inner_cols, inner_w = dist.nodes(
                m - j_size, config.inner, seed, "deviation-weighted", 2, tag)
            if split is not None:
                f_j = _nested_powered_norms(f, space, positions, outer_cols,
                                            inner_cols[None], p) @ inner_w
            else:
                cond = _tuple_moments_tiled(h, space, idx_cols, positions,
                                            outer_cols, inner_cols, inner_w, p)

            key_mat = np.stack([idx_cols[k] for k in positions], axis=1)
            for col_idx, n in enumerate(n_grid):
                t_n = comb(n, m)
                _, inv = np.unique(key_mat[:t_n], axis=0, return_inverse=True)
                inv = np.asarray(inv).reshape(-1)
                if split is not None:
                    grouped = np.bincount(inv, weights=c_p[:t_n])[:, None] * f_j
                else:
                    grouped = np.zeros((int(inv.max()) + 1, outer_cols.shape[0]))
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

    The max couples all levels on the same outer points, full tuples from
    the law's nested rule; level k conditions on each point's first k
    coordinates and draws its own completions of the other m - k.  On a
    finite law both are support grids, so the tail is exact.
    """
    m = h.arity
    rows, weights, _, _ = dist.nested_nodes(m, 0, outer, inner, seed, "hp-tail")
    best = np.zeros(len(rows))
    for k in range(m + 1):
        _, _, fresh, inner_w = dist.nested_nodes(0, m - k, outer, inner, seed, "hp-tail", k)
        prefixes, at = rows[:, :k], slice(None)
        if len(fresh) == 1:
            # one grid completes every row, so level k depends on the first
            # k coordinates alone: evaluate once per distinct prefix, not
            # once per row (a^k points of a^m on an a-atom law)
            prefixes, at = np.unique(prefixes, axis=0, return_inverse=True)
        level = _nested_powered_norms(h, space, range(k), prefixes, fresh, p) @ inner_w
        best = np.maximum(best, level[at])
    return EmpiricalTail.from_samples(best ** (1.0 / p), weights / weights.sum())


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
    space = kernel_space(config.kernel, config.space)
    n_grid = _horizons(config)
    m = h.arity
    p = config.p
    q = config.q if config.q is not None else p
    deg = _certify(config, space, order=True)
    d = config.d

    lhs_expo = m - d + d / p
    maxima = _max_norm_matrix(h, dist, n_grid, config.replications,
                              config.seed, space, "order-d")
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


def _mean_se(powered: np.ndarray) -> tuple[float, float]:
    """Mean of a Monte Carlo sample and its standard error (0 for one value)."""
    reps = powered.size
    se = float(powered.std(ddof=1) / sqrt(reps)) if reps > 1 else 0.0
    return float(powered.mean()), se


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
    space = kernel_space(config.kernel, config.space)
    n_grid = _horizons(config)
    m = h.arity
    p = config.p
    q = config.q if config.q is not None else p
    if q < p:
        raise ConfigError(f"q: the moment bound needs q >= p, got q={q} < p={p}")
    deg = _certify(config, space)

    reps = config.moment_replications
    maxima = _max_norm_matrix(h, dist, n_grid, reps, config.seed, space, "moment")
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
        lhs, se = _mean_se(maxima[:, col] ** q)
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
    space = kernel_space(config.kernel, config.space)
    r = space.smoothness
    p = config.p
    if not 1.0 < p < r:
        raise ConfigError(
            f"p: the maximal-function bound needs 1 < p < r strictly; "
            f"got p={p} with r={r}"
        )
    n_grid = _horizons(config)
    m = h.arity
    deg = _certify(config, space)

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
        h, dist, n_max, reps, config.seed, ("lln",), reduce)
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
            "terminal_median": median(terminal[:, col]),
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
        eps = config.eps if config.eps is not None else median(suffix_stats[:, 0])
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
    space = kernel_space(config.kernel, config.space)
    if space.dimension != 1:
        raise ConfigError("space: path statistics are built from scalar kernels")
    if config.alpha is None:
        raise ConfigError("alpha: required for Holder-norm experiments")
    params = HolderParams(config.alpha)
    n_grid = _horizons(config)
    _check_holder_horizons(n_grid)
    _certify(config, space, order=True)
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

        trajectories, *paths = _simulate(h, dist, n, reps, seed, ("holder", n), reduce)
        median, q90 = holder_norm_quantiles(
            trajectories / float(n) ** exponent, config.alpha, [0.5, 0.9]).tolist()
        quantile_rows.append({"n": int(n), "median": median, "q90": q90})
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
# incomplete-moment


def incomplete_moment_experiment(config: ExperimentConfig) -> InequalityReport:
    """Moment growth of Bernoulli-subsampled statistics across an (n, p_n) grid.

    Each grid entry (n, p_n) yields a Monte Carlo estimate of E[||U_inc||^q]
    over moment_replications (incomplete.bernoulli_moment_cell) against
    the bound shape

        n^(q(m-d) + dq/p) p_n^q + n^(mq/p) p_n^(q/p) + n^m p_n;

    the expectation factor E||h||^q is constant across the grid and is left
    out of the shape, so the fitted constant absorbs it.  The kernel must be
    symmetric, index-free and certify to the claimed order d.
    """
    if not config.grid:
        raise ConfigError("grid: (n, p_n) pairs are required for the incomplete-moment experiment")
    h = config.kernel
    if h.weighted or not h.symmetric:
        raise ConfigError(
            "kernel: the incomplete-moment experiment needs a symmetric, "
            "index-independent kernel"
        )
    p = config.p
    q = config.q if config.q is not None else p
    if q < p:
        raise ConfigError(f"q: the moment bound needs q >= p, got q={q} < p={p}")
    space = kernel_space(h, config.space)
    _certify(config, space, order=True)
    m, d = h.arity, config.d
    reps = config.moment_replications

    rows = []
    for idx, (n, rate) in enumerate(config.grid):
        powered = bernoulli_moment_cell(h, config.dist, space.norm, q, n, rate,
                                        config.seed, idx, reps)
        est, se = _mean_se(powered)
        shape = (
            n ** (q * (m - d) + d * q / p) * rate**q
            + n ** (m * q / p) * rate ** (q / p)
            + n**m * rate
        )
        rows.append({"n": n, "p_n": rate, "moment_estimate": est, "bound_shape": shape,
                     "ratio": est / shape if shape > 0 else 0.0, "standard_error": se})

    # the fitted constant, the largest ratio, must be positive
    return ratio_report("incomplete-moment", rows, {
        "p": p,
        "q": q,
        "d": d,
        "m": m,
        "replications": reps,
    }, config.stability_factor, score="spread", extra=any(row["ratio"] > 0 for row in rows))


# ---------------------------------------------------------------------------
# dispatch


EXPERIMENTS = {
    "deviation": deviation_experiment,
    "order-d-deviation": order_d_deviation_experiment,
    "moment": moment_experiment,
    "lln": lln_experiment,
    "holder": holder_tightness_experiment,
    "incomplete-moment": incomplete_moment_experiment,
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
