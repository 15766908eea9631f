"""Hoeffding projections, degeneracy certification, and reconstruction.

For a kernel h of arity m and positions I inside range(m), the projected
component is the alternating sum over subsets J of I

    h^I((x_u)_{u in I}) = sum_{J subset I} (-1)^{|I|-|J|} E[h(V)],

where V fixes the supplied value at each position in J and draws a fresh
i.i.d. coordinate everywhere else (positions of I \\ J included).  Summing
h^I over all I reconstructs h pointwise.  For symmetric kernels the level-c
projection

    h^(c)(x_1..x_c) = sum_{k=0}^{c} (-1)^{c-k} sum_{|S|=k} E[h(x_S, fresh)]

collapses the subset decomposition onto arities; levels below the kernel's
degeneracy order vanish.

Each subterm E[h(V)] is kernels.evaluate_nested on a rule over its free
positions, chosen once when the component is built: the support grid of a
finite law, which makes it exact; otherwise those positions' columns of
one Monte Carlo table shared by every subterm for a given seed, so the
alternating sums telescope the same way the exact quantities do; and the
single point of weight 1 when no position is free, where the subterm is h.

Degeneracy verdicts read each conditional mean E[h | xi_J] off the law's
nested rule (Distribution.nested_nodes).  Where the inner expectation is
exact, on a finite law and for the fully conditioned entry (J covers every
position, so E[h | xi_J] = h) on any law, the entry is decided pointwise:
zero when E||E[h | xi_J]|| over the outer points is at most 1e-10 * scale,
nonzero otherwise.  Every other entry uses a split-sample statistic: the
inner draws are halved, and the mean product of the two half-averages
estimates the squared norm of the conditional mean without the positive
bias a plain norm of an average carries.  A conditional mean is declared
zero when that statistic sits within 3 standard errors of zero and the
implied norm is below 1e-3 * scale plus the estimator's own resolution
floor, nonzero beyond 5 standard errors, and inconclusive in between.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .kernels import Distribution, Kernel, evaluate_batch, evaluate_nested, stream, support_grid
from .spaces import BanachSpaceDescriptor

__all__ = [
    "DegeneracyEntry",
    "DegeneracyReport",
    "HoeffdingComponent",
    "ReconstructionCheck",
    "check_degeneracy",
    "project_component",
    "project_degenerate_level",
    "reconstruct_identity_check",
]

_EXACT_ZERO_RTOL = 1e-10
_RELATIVE_ZERO_FLOOR = 1e-3
# Kernel values per slab of a component evaluation (2 MiB): OpenBLAS runs a
# gemv this small on one thread, so no value depends on its thread count (a
# larger gemv splits its rows between BLAS workers, moving some rows' last bits).
# `import ustatkit` loads a one-thread BLAS, but a library caller who
# imported numpy first may run a threaded one; the slab still covers that.
_EVAL_SLAB = 1 << 18


@dataclass
class HoeffdingComponent:
    """One projected component: a subset h^I or a symmetric level h^(c).

    Subterm (sign, slots, fixed, points, weights) is E[h(V)] with kernel
    positions `fixed` set to the component columns `slots` and the free
    positions integrated by the rule (points, weights): the support grid
    on a finite law; on any other law, the free columns of one table
    dist.nodes(m, inner, seed, "hoeffding-table") that every subterm
    shares; one point of weight 1 when no position is free.
    """

    subset: tuple[int, ...] | None
    level: int | None
    arity: int
    codomain: BanachSpaceDescriptor
    inner: int
    exact: bool
    _kernel: Kernel = field(repr=False)
    _index: list | None = field(repr=False)
    _subterms: list = field(repr=False)  # (sign, slots, fixed, points, weights)

    def _terms(self, xs):
        """(sign, h on the subterm's rule, shape (..., I[, D]), weights) per subterm."""
        for sign, slots, fixed, points, weights in self._subterms:
            values = np.broadcast_arrays(*(xs[s] for s in slots))
            outer = np.stack(values, axis=-1) if values else np.empty(0)
            yield sign, evaluate_nested(self._kernel, fixed, outer, points, self._index), weights

    def _slabbed(self, columns, reduce) -> np.ndarray:
        """reduce(columns), in flat slabs of at most _EVAL_SLAB kernel values.

        A slab holds a multiple of 4 points: gemv sums rows in groups of
        four, so a point's value does not move with the slab boundaries.
        """
        xs = [np.asarray(c, dtype=np.float64) for c in columns]
        shape = np.broadcast_shapes(*(x.shape for x in xs))
        points = int(np.prod(shape, dtype=np.int64))
        width = max(len(weights) for *_, weights in self._subterms)
        if points * width <= _EVAL_SLAB:
            return reduce(xs)
        flat = [np.broadcast_to(x, shape).reshape(-1) for x in xs]
        step = max(1, _EVAL_SLAB // (4 * width)) * 4
        out = np.concatenate([reduce([c[s : s + step] for c in flat])
                              for s in range(0, points, step)])
        return out.reshape(shape + out.shape[1:])

    def _values(self, xs) -> np.ndarray:
        total = None
        for sign, out, weights in self._terms(xs):
            mean = (np.einsum("...kd,k->...d", out, weights)
                    if self.codomain.dimension > 1 else out @ weights)
            total = sign * mean if total is None else total + sign * mean
        return np.asarray(total, dtype=np.float64)

    def _standard_errors(self, xs) -> np.ndarray:
        per_draw = None
        for sign, out, _ in self._terms(xs):
            per_draw = sign * out if per_draw is None else per_draw + sign * out
        if self.codomain.dimension == 1:
            return per_draw.std(axis=-1, ddof=1) / sqrt(self.inner)
        sd = per_draw.std(axis=-2, ddof=1)
        return np.sqrt(np.sum(sd**2, axis=-1)) / sqrt(self.inner)

    def evaluate_batch(self, columns) -> np.ndarray:
        """Evaluate on broadcastable value columns, one per component slot."""
        if len(columns) != self.arity:
            raise ValueError(f"component has arity {self.arity}, got {len(columns)}")
        return self._slabbed(columns, self._values)

    def evaluate(self, values):
        out = self.evaluate_batch([np.float64(v) for v in values])
        if self.codomain.dimension == 1:
            return float(out)
        return np.asarray(out, dtype=np.float64).reshape(self.codomain.dimension)

    def standard_error_batch(self, columns) -> np.ndarray:
        """Per-point standard error of the alternating sum; zeros when exact."""
        if self.exact:
            return np.zeros(np.broadcast_shapes(*(np.shape(c) for c in columns)))
        return self._slabbed(columns, self._standard_errors)

    def as_kernel(self) -> Kernel | None:
        """Wrap as a Kernel; None for the arity-0 (constant) component."""
        if self.arity == 0:
            return None
        comp = self

        def body(xs, idx):
            return comp.evaluate_batch(list(xs))

        label = f"level-{self.level}" if self.level is not None else f"subset-{self.subset}"
        return Kernel(arity=self.arity, body=body, symmetric=self.level is not None,
                      codomain=self.codomain, name=f"hoeffding-{label}")

    @property
    def constant(self):
        """Value of the arity-0 component."""
        if self.arity != 0:
            raise ValueError("component has positive arity")
        return self.evaluate(())


def _component(h: Kernel, dist: Distribution, inner: int, seed: int,
               index: tuple[int, ...] | None, subterms, **labels) -> HoeffdingComponent:
    """The component of (sign, slots, fixed positions) subterms, each given its rule."""
    m = h.arity
    support = dist.support()
    if support is None:
        if inner < 2:
            raise ValueError("inner Monte Carlo size must be at least 2")
        table, table_weights = dist.nodes(m, inner, seed, "hoeffding-table")

    def rule(fixed):
        free = [j for j in range(m) if j not in fixed]
        if not free:
            return np.zeros((1, 0)), np.ones(1)
        if support is not None:
            return support_grid(*support, len(free))
        return table[:, free], table_weights

    return HoeffdingComponent(
        **labels, codomain=h.codomain, inner=inner, exact=support is not None,
        _kernel=h, _index=None if index is None else [np.float64(i) for i in index],
        _subterms=[(sign, slots, fixed, *rule(fixed)) for sign, slots, fixed in subterms],
    )


def project_component(
    h: Kernel,
    subset: tuple[int, ...],
    dist: Distribution,
    inner: int = 1024,
    seed: int = 0,
    index: tuple[int, ...] | None = None,
) -> HoeffdingComponent:
    """Project h onto the coordinate positions in `subset` (0-based)."""
    subset = tuple(sorted(int(j) for j in subset))
    if len(set(subset)) != len(subset):
        raise ValueError("subset positions must be distinct")
    if subset and (subset[0] < 0 or subset[-1] >= h.arity):
        raise ValueError(f"subset positions must lie in [0, {h.arity})")
    k = len(subset)
    subterms = [
        ((-1.0) ** (k - j_size), slots, tuple(subset[s] for s in slots))
        for j_size in range(k + 1)
        for slots in itertools.combinations(range(k), j_size)
    ]
    return _component(h, dist, inner, seed, index, subterms,
                      subset=subset, level=None, arity=k)


def project_degenerate_level(
    h: Kernel,
    level: int,
    dist: Distribution,
    inner: int = 1024,
    seed: int = 0,
) -> HoeffdingComponent:
    """Level-c projection of a symmetric kernel; fixed values go to the
    leading positions, which symmetry makes immaterial."""
    if not h.symmetric:
        raise ValueError("level projection requires a symmetric kernel")
    if h.weighted:
        raise ValueError("level projection requires an index-independent kernel")
    if not 0 <= level <= h.arity:
        raise ValueError(f"level must lie in [0, {h.arity}]")
    subterms = [
        ((-1.0) ** (level - k), slots, tuple(range(k)))
        for k in range(level + 1)
        for slots in itertools.combinations(range(level), k)
    ]
    return _component(h, dist, inner, seed, None, subterms,
                      subset=None, level=level, arity=level)


# ---------------------------------------------------------------------------
# degeneracy certification


@dataclass(frozen=True)
class DegeneracyEntry:
    """Verdict for one conditional mean."""

    label: str
    norm_estimate: float
    squared_statistic: float
    squared_se: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "norm_estimate": self.norm_estimate,
            "squared_statistic": self.squared_statistic,
            "squared_se": self.squared_se,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class DegeneracyReport:
    arity: int
    exact: bool
    scale: float
    coordinate_entries: tuple[DegeneracyEntry, ...]
    level_entries: tuple[DegeneracyEntry, ...]

    @property
    def degenerate(self) -> bool | None:
        """All-but-one conditional means vanish for every coordinate."""
        verdicts = [e.verdict for e in self.coordinate_entries]
        if any(v == "nonzero" for v in verdicts):
            return False
        if all(v == "zero" for v in verdicts):
            return True
        return None

    @property
    def order(self) -> int | None:
        """Smallest j with a nonvanishing prefix conditional mean.

        Order 0 flags a non-centered kernel; valid degeneracy orders start
        at 1.  None means an inconclusive entry blocks the call, or that
        every level is zero.
        """
        for j, entry in enumerate(self.level_entries):
            if entry.verdict == "nonzero":
                return j
            if entry.verdict == "inconclusive":
                return None
        return None

    def to_dict(self) -> dict:
        return {
            "arity": self.arity,
            "exact": self.exact,
            "scale": self.scale,
            "degenerate": self.degenerate,
            "order": self.order,
            "coordinate_entries": [e.to_dict() for e in self.coordinate_entries],
            "level_entries": [e.to_dict() for e in self.level_entries],
        }


def _verdict_exact(norm_value: float, scale: float) -> str:
    return "zero" if norm_value <= _EXACT_ZERO_RTOL * scale else "nonzero"


def _verdict_mc(w: float, se: float, scale: float) -> str:
    norm_est = sqrt(max(w, 0.0))
    floor = sqrt(3.0 * se) if se > 0 else 0.0
    if w <= 3.0 * se and norm_est <= _RELATIVE_ZERO_FLOOR * scale + floor:
        return "zero"
    if w >= 5.0 * se and w > 0:
        return "nonzero"
    return "inconclusive"


def check_degeneracy(
    h: Kernel,
    dist: Distribution,
    inner: int = 1024,
    outer: int = 256,
    seed: int = 0,
    space: BanachSpaceDescriptor | None = None,
) -> DegeneracyReport:
    """Certify which conditional means of h vanish under `dist`.

    Produces one entry per coordinate (conditioning on every other
    position, the all-but-one test) and one per prefix level j = 0..m
    (conditioning on the first j positions, which locates the degeneracy
    order of a symmetric kernel).
    """
    if h.weighted:
        raise ValueError("degeneracy certification requires an index-independent kernel")
    m = h.arity
    space = space if space is not None else h.codomain
    exact = dist.support() is not None
    vector = h.codomain.dimension > 1

    points, weights = dist.nodes(m, 4096, seed, "degeneracy-scale")
    vals = evaluate_batch(h, [points[:, k] for k in range(m)])
    scale = float(np.dot(space.norms(vals), weights))

    def entry_for(conditioned: list[int], label: str, tag: int) -> DegeneracyEntry:
        """Verdict on E[h | positions in `conditioned`] from the nested rule.

        An exact inner rule (a finite law, or no free position) gives the
        conditional mean at every outer point, and E||E[h | conditioned]||
        is decided by _verdict_exact.  Otherwise the split-sample statistic
        estimates E||E[h | conditioned]||_2^2 with its standard error.
        """
        free = m - len(conditioned)
        outer_pts, outer_w, inner_pts, inner_w = dist.nested_nodes(
            len(conditioned), free, outer, inner, seed, "degeneracy", tag)
        out = evaluate_nested(h, conditioned, outer_pts, inner_pts)
        if exact or not free:
            cond_mean = np.einsum("okd,k->od", out, inner_w) if vector else out @ inner_w
            t = float(np.dot(space.norms(cond_mean), outer_w))
            return DegeneracyEntry(
                label=label, norm_estimate=t, squared_statistic=t * t,
                squared_se=0.0, verdict=_verdict_exact(t, scale),
            )
        half = out.shape[1] // 2
        a_mean = out[:, :half].mean(axis=1)
        b_mean = out[:, half:].mean(axis=1)
        prods = np.sum(a_mean * b_mean, axis=-1) if vector else a_mean * b_mean
        w = float(prods.mean())
        se = float(prods.std(ddof=1) / sqrt(prods.size)) if prods.size > 1 else 0.0
        return DegeneracyEntry(
            label=label, norm_estimate=sqrt(max(w, 0.0)), squared_statistic=w,
            squared_se=se, verdict=_verdict_mc(w, se, scale),
        )

    coordinate_entries = tuple(
        entry_for([j for j in range(m) if j != l0], f"all-but-{l0}", l0)
        for l0 in range(m)
    )
    level_entries = tuple(
        entry_for(list(range(j)), f"prefix-{j}", m + j) for j in range(m + 1)
    )
    return DegeneracyReport(
        arity=m, exact=exact, scale=scale,
        coordinate_entries=coordinate_entries, level_entries=level_entries,
    )


# ---------------------------------------------------------------------------
# reconstruction


@dataclass(frozen=True)
class ReconstructionCheck:
    max_deviation: float
    tolerance: float
    exact: bool

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def reconstruct_identity_check(
    h: Kernel,
    dist: Distribution,
    samples: int = 32,
    inner: int = 1024,
    seed: int = 0,
    index: tuple[int, ...] | None = None,
) -> ReconstructionCheck:
    """Max over test points of || sum_I h^I(x_I) - h(x) ||.

    All components share one seed, hence one inner draw table, so the
    Monte Carlo path telescopes like the exact one; the tolerance is
    1e-10 * scale on the exact path and 5 aggregate standard errors
    otherwise.
    """
    m = h.arity
    space = h.codomain
    points = dist.sample(stream(seed, "reconstruct"), samples * m).reshape(samples, m)
    h_vals = evaluate_batch(
        h, [points[:, k] for k in range(m)],
        [np.float64(i) for i in index] if h.weighted else None,
    )
    total = np.zeros_like(np.asarray(h_vals, dtype=np.float64))
    agg_var = np.zeros(samples)
    exact = True
    for k in range(m + 1):
        for subset in itertools.combinations(range(m), k):
            component = project_component(h, subset, dist, inner=inner, seed=seed,
                                          index=index)
            exact = exact and component.exact
            cols = [points[:, j] for j in subset]
            vals = component.evaluate_batch(cols) if k else component.constant
            total = total + vals
            if not component.exact and k:
                agg_var = agg_var + component.standard_error_batch(cols) ** 2
    deviations = space.norms(np.asarray(total) - np.asarray(h_vals, dtype=np.float64))
    max_dev = float(deviations.max()) if samples else 0.0
    if exact:
        scale = max(float(space.norms(np.asarray(h_vals, dtype=np.float64)).max()), 1.0)
        tol = 1e-10 * scale
    else:
        tol = 5.0 * float(np.sqrt(agg_var).max()) if samples else 0.0
    return ReconstructionCheck(max_deviation=max_dev, tolerance=tol, exact=exact)
