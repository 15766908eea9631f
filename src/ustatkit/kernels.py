"""Kernels, sampling distributions, and deterministic random streams.

A kernel of arity m maps m sample points (plus, when index-weighted, the
1-based index tuple of the summand) to a point of its codomain.  Kernel
bodies are written against numpy broadcasting so the same body evaluates a
single tuple or a whole batch of tuples in one call; every engine in this
package relies on that for throughput.

Randomness is counter-based: a stream is keyed by the master seed plus a
path of integers (replication index, purpose tag, ...), so any stream can
be reconstructed independently of scheduling and thread count.  The stream
of (seed, path) is Philox (Salmon et al., SC 2011) at counter 0 under the
128-bit key SeedSequence(entropy=seed, spawn_key=path).generate_state(2,
np.uint64).  That key is a fixed uint32 hash of the entropy words (M. E.
O'Neill's seed_seq design as numpy implements it), so stream_keys computes
it directly, for one path or, when a path element is an array, for every
element at once, and never imports numpy.random.  Inside a stream, block
k >= 1 of four words is Philox4x64-10 of the counter (k, 0, 0, 0), so
sample_rows computes a block of rows in one pass of numpy uint64
arithmetic for a law whose values each take one draw of fixed width:
Rademacher (numpy's 32-bit Lemire draw on range 2, bit 31 of a half word,
never rejects), uniform and finite (one word, as a double).  Rows of at
most _PASS_WORDS words always take the pass.  Longer rows are faster from
numpy's own Philox, re-keyed per row, but importing numpy.random costs
more than a small run's whole pass; so a run decides once, from its row
count, row length and call count alone (pass_fits_run), and either draws
every row by the pass or takes the words of its long rows from one bit
generator re-keyed per row, through the same map.  A Gaussian ziggurat or
a Binomial design count takes a variable number of words, so those rows
are drawn by numpy from one generator re-keyed per row (_rekeyed):
counter 0, a new key and an empty buffer make it draw exactly what a fresh
stream draws.  Each generator it yields is used up before the next is
taken and never leaves the block, or the thread, that asked for it.
"""

from __future__ import annotations

import ast
import hashlib
import re
from collections import namedtuple
from typing import Sequence

import numpy as np

from .spaces import BanachSpaceDescriptor, json_float, json_int, real_line

__all__ = [
    "Distribution",
    "Kernel",
    "builtin_kernel",
    "evaluate",
    "evaluate_batch",
    "evaluate_nested",
    "kernel_from_expression",
    "pass_fits_run",
    "sample_rows",
    "stream",
    "stream_keys",
    "support_grid",
]


# ---------------------------------------------------------------------------
# random streams


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_ZEROS4 = np.zeros(4, dtype=np.uint64)


def _path_element(x):
    """An int for an int or str element; a uint64 vector for an int array."""
    if isinstance(x, (int, np.integer)):
        if x < 0:
            raise ValueError("stream path elements must be nonnegative")
        return int(x)
    if isinstance(x, str):
        digest = hashlib.sha256(x.encode("utf8")).digest()
        return int.from_bytes(digest[:4], "big")
    if isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype.kind in "iu":
        if x.size and x.min() < 0:
            raise ValueError("stream path elements must be nonnegative")
        return x.astype(np.uint64)
    raise TypeError(f"stream path element {x!r} must be an int, str or 1-D int array")


def _words(n: int) -> list[int]:
    """The little-endian uint32 words of n >= 0, as SeedSequence splits it."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _key(words: list) -> np.ndarray:
    """SeedSequence's pool of `words`, hashed out to one Philox key per row.

    A word is a Python int or a uint32 array; with no array the result is
    one key, of shape (2,).  The first pool-size words are the seed's,
    always ints, so the pool's set-up and all-pairs mixing run once on
    Python ints, as does every int word before the first array.  The
    masks keep Python ints to 32 bits; uint32 arrays wrap by themselves.
    """
    c = _INIT_A

    def hashmix(value):
        nonlocal c
        value = value ^ c
        c = c * _MULT_A & _MASK32
        value = value * c & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        out = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
        return out ^ out >> 16

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(2, np.uint64): four words, paired little-endian
    c = _INIT_B
    state = []
    for value in pool:
        value = value ^ c
        c = c * _MULT_B & _MASK32
        value = value * c & _MASK32
        state.append(np.asarray(value ^ value >> 16, dtype=np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


def stream_keys(seed: int, *path) -> np.ndarray:
    """Philox key of the stream (seed, path), or one key per array row.

    Equals SeedSequence(entropy=seed, spawn_key=path).generate_state(2,
    np.uint64) after each str element becomes its 32-bit tag.  Path
    elements are nonnegative ints, strs, or 1-D int arrays; arrays
    broadcast, and the result has shape (2,) without arrays and (R, 2)
    with R rows, row r being the key of the path with each array replaced
    by its r-th value.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    elements = [_path_element(x) for x in path]
    # SeedSequence pads a short seed to the pool size when a path follows,
    # and hashes zeros into the pool's empty places when none does
    head = _words(seed)
    head += [0] * (_POOL_SIZE - len(head))
    at = [i for i, e in enumerate(elements) if isinstance(e, np.ndarray)]
    if not at:
        return _key(head + [w for e in elements for w in _words(e)])

    columns = np.broadcast_arrays(*(elements[i] for i in at))
    # a value of 2^32 or more spans two words, so rows split by which do
    wide = sum((col > _MASK32).astype(np.int64) << j for j, col in enumerate(columns))
    keys = np.empty((len(wide), 2), dtype=np.uint64)
    for pattern in np.flatnonzero(np.bincount(wide)):
        rows = wide == pattern
        words = list(head)
        for i, e in enumerate(elements):
            if i not in at:
                words += _words(e)
                continue
            j = at.index(i)
            values = columns[j][rows]
            words.append((values & _MASK32).astype(np.uint32))
            if pattern >> j & 1:
                words.append((values >> 32).astype(np.uint32))
        keys[rows] = _key(words)
    return keys


def stream(seed: int, *path) -> np.random.Generator:
    """Philox generator keyed by (seed, path); independent of thread count.

    The generator's own seed_seq is not the stream's; a child stream is a
    longer path, never a spawn.
    """
    return np.random.Generator(np.random.Philox(key=stream_keys(seed, *path)))


def _rekeyed(keys: np.ndarray):
    """Yield one bit generator re-keyed to each row of an (R, 2) key array.

    Every yielded generator is the same object: draw from it before taking
    the next, and do not keep it.  Its draws equal those of stream() on the
    row's path.
    """
    if not len(keys):
        return
    rng = np.random.Generator(np.random.Philox(key=keys[0]))
    for key in keys:
        # counter 0, the new key, an empty buffer and no cached half word
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS4, "key": key},
            "buffer": _ZEROS4,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


# Philox4x64-10's two round multipliers, each with its low and high 32-bit
# halves, and its key increments (numpy/random/src/philox/philox.h)
_PHILOX_M = [tuple(np.uint64(v) for v in (m, m & _MASK32, m >> 32))
             for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)


def _mulhilo(a: np.ndarray, multiplier) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * m, from 32-bit halves."""
    m, m0, m1 = multiplier
    a0, a1 = a & _MASK32, a >> 32
    p00, p01, p10 = a0 * m0, a0 * m1, a1 * m0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), a * m


def _philox_words(keys: np.ndarray, count: int) -> np.ndarray:
    """The first `count` uint64 outputs of a fresh Philox of each key row.

    Block k = 1, 2, ... of four outputs is Philox4x64-10 of the counter
    (k, 0, 0, 0): numpy adds one to the counter before its first block.
    """
    rows, blocks = len(keys), -(-count // 4)
    zero = np.zeros((rows, blocks), dtype=np.uint64)
    x = [zero + np.arange(1, blocks + 1, dtype=np.uint64), zero, zero, zero]
    for i in range(10):
        if i:
            keys = keys + _PHILOX_W
        hi0, lo0 = _mulhilo(x[0], _PHILOX_M[0])
        hi1, lo1 = _mulhilo(x[2], _PHILOX_M[1])
        x = [hi1 ^ x[1] ^ keys[:, :1], lo1, hi0 ^ x[3] ^ keys[:, 1:], lo0]
    return np.stack(x, axis=-1).reshape(rows, 4 * blocks)[:, :count]


# Longest row, in uint64 words, that every run computes by the Philox
# pass: the pass costs 0.06-0.11 us a word, a re-keyed row's random_raw
# 2.5-5 us plus a few ns a word, so they break even near 48-56 words
# (numpy 2.4 on a 2-vCPU x86-64 VM).  Past it, mapping a row's raw words
# costs 4.7 us for 256 Rademacher values and 14 us for 2,048, against 11
# and 23 us through Distribution.sample.  Longer rows take the pass too in
# a run that pass_fits_run admits, else they re-key.
_PASS_WORDS = 48
# A run's pass work, in words, that costs less than the re-key path's
# import of numpy.random: the import takes 17-19 ms in a fresh process, a
# pass call about 0.6 ms plus 0.06-0.09 us a word, so 2^17 words cost about
# 10 ms and leave room for the pass's slower words (same machine).
_RUN_PASS_WORDS = 1 << 17
# The pass's fixed cost per sample_rows call, in words: 0.6 ms at 0.07 us
# a word.  It keeps a run of many small blocks on the re-key path.
_PASS_CALL_WORDS = 1 << 13


def pass_fits_run(dist: "Distribution", n: int, rows: int, calls: int) -> bool:
    """Whether a run of `rows` rows of n values of dist, drawn in `calls`
    sample_rows calls, should draw every row by the Philox pass.

    True when dist has fixed-width words and the run's pass work, its
    words plus _PASS_CALL_WORDS per call, is at most _RUN_PASS_WORDS.  The
    answer depends on those numbers alone, so a run that asks once before
    its first call draws all its rows one way, and a small run of long
    rows never imports numpy.random.
    """
    words = _FAMILIES[dist.family].words
    return words is not None and (
        rows * -(-n * words[0] // 64) + calls * _PASS_CALL_WORDS <= _RUN_PASS_WORDS)


def sample_rows(dist: "Distribution", keys: np.ndarray, n: int,
                long_pass: bool = False) -> np.ndarray:
    """(R, n) sample whose row r is dist.sample on a fresh stream of keys[r].

    keys is an (R, 2) array from stream_keys.  A family with fixed-width
    words (_FAMILIES) maps its rows' Philox words: one pass over all rows
    when a row needs at most _PASS_WORDS words or long_pass is set (see
    pass_fits_run), else each row's random_raw from a re-keyed generator.
    Other families sample a re-keyed generator.  Either way the bytes are
    the same.
    """
    bits, values = _FAMILIES[dist.family].words or (64, None)
    if values is None:
        out = np.empty((len(keys), n))
        for row, rng in zip(out, _rekeyed(keys)):
            row[:] = dist.sample(rng, n)
        return out
    count = -(-n * bits // 64)
    if count <= _PASS_WORDS or long_pass:
        words = _philox_words(keys, count)
    else:
        words = np.empty((len(keys), count), dtype=np.uint64)
        for row, rng in zip(words, _rekeyed(keys)):
            row[:] = rng.bit_generator.random_raw(count)
    if bits == 32:
        # next_uint32 hands out a word's low half, then its high half
        words = np.stack([words & _MASK32, words >> 32], axis=-1)
        words = words.reshape(len(keys), 2 * count)
    return values(words[:, :n], *dist.params)


# ---------------------------------------------------------------------------
# distributions


_REQUIRED = object()
# One record per family: its config keys paired with their defaults
# (_REQUIRED where the key must be given); check(*params) validating one
# value per key into params; sample(rng, size, *params); mean(*params);
# for a finite support only, support(*params) giving the atoms and their
# probabilities; and, when each value takes one 32- or 64-bit draw,
# words = (bits, values(draws, *params)) giving sample's values from those
# draws in stream order (see sample_rows).
_Family = namedtuple("_Family", "keys check sample mean support words", defaults=(None, None))


def _uniform_params(a, b) -> tuple[float, float]:
    a, b = _finite_params("uniform", a, b)
    if not a < b:
        raise ValueError("uniform interval requires a < b")
    return a, b


def _gaussian_params(mean, sd) -> tuple[float, float]:
    mean, sd = _finite_params("gaussian", mean, sd)
    if sd <= 0:
        raise ValueError("gaussian sd must be positive")
    return mean, sd


def _finite_law_params(values, probabilities) -> tuple[tuple, tuple]:
    v = _finite_params("finite", *values)
    p = _finite_params("finite", *probabilities)
    if len(v) != len(p) or not v:
        raise ValueError("values and probabilities must be nonempty, same length")
    if any(x < 0 for x in p) or abs(sum(p) - 1.0) > 1e-12:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    return v, p


def _finite_atoms(u, values, probs):
    """The atom each uniform draw u in [0, 1) selects by inverse CDF."""
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.asarray(values, dtype=np.float64)[np.searchsorted(cum, u, side="right")]


def _unit(x):
    """numpy's random(): the top 53 bits of a uint64 word as a double in [0, 1)."""
    return (x >> 11) * 2.0**-53


def _atoms(values, probs):
    return np.asarray(values, dtype=np.float64), np.asarray(probs, dtype=np.float64)


_FAMILIES = {
    "rademacher": _Family(
        (), lambda: (),
        lambda rng, size: rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0,
        lambda: 0.0, lambda: _atoms((-1.0, 1.0), (0.5, 0.5)),
        (32, lambda x: (x >> 31).astype(np.float64) * 2.0 - 1.0)),
    "uniform": _Family(
        (("a", _REQUIRED), ("b", _REQUIRED)), _uniform_params,
        lambda rng, size, a, b: rng.uniform(a, b, size=size), lambda a, b: 0.5 * (a + b),
        words=(64, lambda x, a, b: a + (b - a) * _unit(x))),
    "gaussian": _Family(
        (("mean", 0.0), ("sd", 1.0)), _gaussian_params,
        lambda rng, size, mean, sd: rng.normal(mean, sd, size=size), lambda mean, sd: mean),
    "finite": _Family(
        (("values", _REQUIRED), ("probabilities", _REQUIRED)), _finite_law_params,
        lambda rng, size, values, probs: _finite_atoms(rng.random(size), values, probs),
        lambda values, probs: float(np.dot(values, probs)), _atoms,
        (64, lambda x, values, probs: _finite_atoms(_unit(x), values, probs))),
}


def _finite_params(family: str, *params) -> tuple[float, ...]:
    """The parameters as floats; a string, a bool, NaN or inf is a ValueError."""
    return tuple(json_float(x, f"{family} parameter", finite=True) for x in params)


class Distribution(namedtuple("Distribution", "family params")):
    """A one-dimensional sampling law for the i.i.d. inputs.

    Families: "rademacher", "uniform" (a, b), "gaussian" (mean, sd), and
    "finite" (atoms with probabilities); every parameter must be finite.
    Finite-support families expose their atoms through support(), and
    their quadrature rules (nodes, nested_nodes) enumerate those atoms
    exactly where other laws draw Monte Carlo points.
    """

    __slots__ = ()

    def __new__(cls, family: str, params: tuple = ()):
        if family not in _FAMILIES:
            raise ValueError(f"unknown distribution family {family!r}")
        keys = [key for key, _ in _FAMILIES[family].keys]
        if len(params) != len(keys):
            raise ValueError(
                f"{family} law takes parameters ({', '.join(keys)}), got {len(params)}")
        return super().__new__(cls, family, _FAMILIES[family].check(*params))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    @classmethod
    def rademacher(cls) -> "Distribution":
        return cls("rademacher")

    @classmethod
    def uniform(cls, a: float, b: float) -> "Distribution":
        return cls("uniform", (a, b))

    @classmethod
    def gaussian(cls, mean: float = 0.0, sd: float = 1.0) -> "Distribution":
        return cls("gaussian", (mean, sd))

    @classmethod
    def finite(cls, values: Sequence[float], probabilities: Sequence[float]) -> "Distribution":
        return cls("finite", (values, probabilities))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return _FAMILIES[self.family].sample(rng, size, *self.params)

    def support(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Atoms and probabilities for finite-support laws, else None."""
        support = _FAMILIES[self.family].support
        return None if support is None else support(*self.params)

    def mean(self) -> float:
        return _FAMILIES[self.family].mean(*self.params)

    def nodes(self, k: int, draws: int, seed: int, *path) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature rule for E f(xi_1, ..., xi_k): points (K, k), weights (K,).

        A finite law gives its support_grid, every k-tuple of atoms with
        its product probability.  Any other law gives `draws` rows of k
        points from self.sample on the stream of (seed, *path), read row by
        row, each of weight 1 / draws.
        """
        support = self.support()
        if support is not None:
            return support_grid(*support, k)
        points = self.sample(stream(seed, *path), draws * k).reshape(draws, k)
        return points, np.full(draws, 1.0 / draws)

    def nested_nodes(self, j: int, k: int, outer: int, inner: int, seed: int, *path):
        """Two-level rule for E[f(xi_1..xi_j, eta_1..eta_k) | xi_1..xi_j].

        Returns outer points (O, j) with weights (O,), and inner points
        (O or 1, I, k) with weights (I,): row o of the inner points
        completes outer point o, and a leading 1 means one grid completes
        every outer point.  A finite law gives support_grid(j) outside and
        the shared support_grid(k) inside, so both levels are exact.  Any
        other law gives `outer` rows of j points from the stream of
        (seed, *path, 0) and `inner` completions of k points per row from
        the stream of (seed, *path, 1), both read row-major, with weights
        1 / O and 1 / I.  k = 0 gives one empty completion of weight 1 per
        outer point, so the inner expectation is exact on either law.
        """
        support = self.support()
        if support is not None:
            outer_pts, outer_w = support_grid(*support, j)
            inner_pts, inner_w = support_grid(*support, k)
            return outer_pts, outer_w, inner_pts[None], inner_w
        inner = inner if k else 1
        outer_pts = self.sample(stream(seed, *path, 0), outer * j).reshape(outer, j)
        inner_pts = self.sample(stream(seed, *path, 1), outer * inner * k)
        return (outer_pts, np.full(outer, 1.0 / outer),
                inner_pts.reshape(outer, inner, k), np.full(inner, 1.0 / inner))

    def to_dict(self) -> dict:
        keys = [key for key, _ in _FAMILIES[self.family].keys]
        params = [list(v) if isinstance(v, tuple) else v for v in self.params]
        return {"family": self.family, **dict(zip(keys, params))}

    @classmethod
    def from_dict(cls, d: dict) -> "Distribution":
        family = d.get("family")
        if family not in _FAMILIES:
            raise ValueError(f"unknown distribution family {family!r}")
        args = [d[key] if default is _REQUIRED else d.get(key, default)
                for key, default in _FAMILIES[family].keys]
        return getattr(cls, family)(*args)


def support_grid(atoms, probs, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every k-tuple of support atoms and its product probability.

    Shapes (K, k) and (K,) with K = len(atoms)^k and the last position
    varying fastest; k = 0 gives one empty tuple of weight 1.
    """
    def columns(values) -> np.ndarray:
        if k == 0:
            return np.zeros((1, 0))
        grids = np.meshgrid(*([values] * k), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    return columns(atoms), columns(probs).prod(axis=1)


# ---------------------------------------------------------------------------
# kernels


class Kernel(namedtuple("Kernel", "arity body weighted symmetric codomain name factors split",
                        defaults=(False, False, real_line(), "", None, None))):
    """A broadcast-friendly kernel body with its shape metadata.

    body(xs, idx) receives a tuple of m numpy-broadcastable arguments and,
    when the kernel is index-weighted, a tuple of m 1-based index values
    broadcast the same way; it must return a scalar/array for a scalar
    codomain or an array with trailing axis codomain.dimension otherwise.
    The symmetric flag is a promise used by the decomposition machinery;
    it is spot-checked by tests, never silently assumed correct.

    factors, when given, writes the body as a sum of products of
    one-variable functions: a tuple of terms (coef, (f_1, ..., f_m)) with
    body(xs) = sum over terms of coef * f_1(xs[0]) * ... * f_m(xs[m-1]).
    Each f_j is a broadcast function of position j's point alone, and None
    stands for f = 1.  Only a scalar kernel that reads no index can carry
    factors; the prefix engine then sums by cumulative sums instead of
    evaluating the body on every tuple (see the ustat module).  Its error
    scales with the sum of the terms' absolute values, which is the sum of
    |h| for one term but can be far larger when terms cancel: covariance as
    x^2/2 + y^2/2 - x*y loses about eps * mu^2 / sigma^2 of U_n on data
    with mean mu and spread sigma.  So kernel_from_expression declares one
    term, for a chain of one-variable factors such as the builtin product,
    and never several.

    split, when given, writes an index-weighted body as a weight times one
    index-free kernel: a pair (f, c) with body(xs, idx) = c(idx) * f(xs)
    up to rounding, where f is a Kernel of the same arity and codomain that
    reads no index and c(idx) maps the 1-based index columns to a scalar
    array broadcast like them.  Then ||h_i|| = |c(i)| ||f||, and the
    index-weighted deviation bound is computed from the norms of f alone
    (see harness._deviation_weighted).  kernel_from_expression declares a
    split for a single * / chain whose factors each read only x-variables
    and constants, or only i-variables; a sum is never split, so no split
    can hide a cancellation.

    Fields: arity, body, weighted=False, symmetric=False,
    codomain=real_line(), name="", factors=None, split=None.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.arity < 1:
            raise ValueError("kernel arity must be at least 1")
        if self.factors is not None:
            if self.weighted or self.codomain.dimension != 1:
                raise ValueError("factors describe a scalar kernel that reads no index")
            if any(len(fs) != self.arity for _, fs in self.factors):
                raise ValueError(f"each factor term needs {self.arity} positions")
        if self.split is not None:
            f, weight = self.split
            if not (self.weighted and isinstance(f, Kernel) and not f.weighted
                    and f.arity == self.arity and f.codomain == self.codomain
                    and callable(weight)):
                raise ValueError(
                    "a split pairs an index-weighted kernel with an index-free "
                    "kernel of its arity and codomain and a weight function")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too


def evaluate(kernel: Kernel, values: Sequence[float], index: Sequence[int] | None = None):
    """One summand, by evaluate_batch: an index-weighted kernel sees index,
    the 0-based increasing tuple, 1-based.  A float for a one-dimensional
    codomain and a numpy vector otherwise."""
    out = evaluate_batch(kernel, values, index)
    return float(out) if kernel.codomain.dimension == 1 else out


def evaluate_batch(
    kernel: Kernel,
    columns: Sequence[np.ndarray],
    index_columns: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Evaluate a batch of summands given per-coordinate value columns.

    Columns must broadcast against each other; index columns hold 0-based
    sample indices and are converted to the 1-based values kernels see.
    The result has the columns' broadcast shape, plus the codomain axis for
    a vector kernel, also when the body ignores a position or returns a
    constant: such a smaller result is broadcast (a read-only view), and a
    full-shape one is returned as the body made it.
    """
    if len(columns) != kernel.arity:
        raise ValueError(f"kernel has arity {kernel.arity}, got {len(columns)} columns")
    xs = tuple(np.asarray(c, dtype=np.float64) for c in columns)
    idx = ()
    if kernel.weighted:
        if index_columns is None:
            raise ValueError("index-weighted kernel requires index columns")
        idx = tuple(np.asarray(c, dtype=np.float64) + 1.0 for c in index_columns)
    out = np.asarray(kernel.body(xs, idx or None), dtype=np.float64)
    shape = np.broadcast_shapes(*(a.shape for a in xs + idx))
    if kernel.codomain.dimension > 1:
        shape += (kernel.codomain.dimension,)
    return out if out.shape == shape else np.broadcast_to(out, shape)


def evaluate_nested(
    kernel: Kernel,
    conditioned: Sequence[int],
    outer_pts: np.ndarray,
    inner_pts: np.ndarray,
    index_columns: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """The kernel on a nested rule (Distribution.nested_nodes).

    Position conditioned[a] reads column a of the outer points, shape
    (..., j), and the other positions, in increasing order, read the
    columns of the inner points, shape (..., I, k).  The leading axes
    broadcast, and the result has their shape followed by I, plus the
    codomain axis for a vector kernel: the kernel at an outer point with
    each completion.  A nested_nodes rule gives (O, I), or (1, I) with no
    conditioned position on a finite law, whose one row holds for every
    outer point.  Index columns go to evaluate_batch as given, so they
    broadcast against that shape.
    """
    conditioned = list(conditioned)
    free = [j for j in range(kernel.arity) if j not in conditioned]
    cols: list = [None] * kernel.arity
    for a, j in enumerate(conditioned):
        cols[j] = outer_pts[..., a, None]
    for a, j in enumerate(free):
        cols[j] = inner_pts[..., a]
    return evaluate_batch(kernel, cols, index_columns)


# Kernel values per slab of a batch that ends in a gemv: 2 MiB of float64
# stay in a core's L2 cache through every pass.  OpenBLAS runs a gemv this
# small on one thread (a larger one splits its rows between workers, which
# moves last bits, so this covers a caller who loaded a threaded BLAS before
# ustatkit) and sums its rows in groups of four, a leftover row by another
# kernel; in slabs of whole groups no row moves with the slab boundaries.
_SLAB_VALUES = 1 << 18


def _slab_rows(row_values: int) -> int:
    """Rows of row_values values per slab of _SLAB_VALUES values, rounded up
    to a multiple of 4."""
    rows = max(1, _SLAB_VALUES // max(1, row_values))
    return -(-rows // 4) * 4


# ---------------------------------------------------------------------------
# builtin kernel zoo


def _joined(op: str, form: str):
    """The text at arity m: form, with x1..xm for {x}, joined by op."""
    return lambda m, **params: op.join(form.format(x=f"x{j + 1}", **params) for j in range(m))


# name -> whether the kernel is symmetric, its fixed arity (None for any
# m), its parameters with their defaults, and its expression text at
# arity m given those parameters; !r writes a float that parses back to
# the same float
_Builtin = namedtuple("_Builtin", "symmetric arity params text")
_ZOO = {
    "product": _Builtin(True, None, {}, _joined(" * ", "{x}")),
    "sum": _Builtin(True, None, {}, _joined(" + ", "{x}")),
    "centered-product": _Builtin(True, None, {"mu": 0.0}, _joined(" * ", "({x} - {mu!r})")),
    "covariance": _Builtin(True, 2, {}, lambda m: "0.5 * (x1 - x2) ^ 2"),
    "sign": _Builtin(False, 2, {}, lambda m: "sign(x2 - x1)"),
}


def builtin_kernel(name: str, m: int = 2, **params) -> Kernel:
    """Compile a kernel of the builtin zoo (_ZOO) from its expression text.

    product and centered-product, (x1 - mu) * ... * (xm - mu) with mu a
    finite real number (default 0), are degenerate of full order under a
    law of mean 0 and mu respectively; sum is never degenerate beyond order 1; covariance and
    sign have arity 2, and sign(x2 - x1) is antisymmetric, so its symmetric
    flag is off.  Only centered-product takes a parameter; any other is a
    ValueError naming it.
    """
    if name not in _ZOO:
        raise ValueError(f"unknown builtin kernel {name!r}")
    spec = _ZOO[name]
    values = {key: params.pop(key, default) for key, default in spec.params.items()}
    if params:
        raise ValueError(f"unknown key {min(params)!r} for builtin kernel {name!r}")
    if spec.arity is not None and m != spec.arity:
        raise ValueError(f"{name} kernel has arity {spec.arity}")
    values = {key: json_float(value, key, finite=True) for key, value in values.items()}
    return kernel_from_expression(spec.text(m, **values), m, symmetric=spec.symmetric)


# ---------------------------------------------------------------------------
# expression kernels

# one token of the grammar after optional blanks: a number, a name or an operator
_LEXEME = re.compile(r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
                     r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^(),]))")
# name -> numpy function and its argument count
_FUNCS = {"abs": (np.abs, 1), "sign": (np.sign, 1), "exp": (np.exp, 1),
          "min": (np.minimum, 2), "max": (np.maximum, 2)}


# CPython's parser fails with a bare MemoryError past 6,000 nested rule frames;
# on 3.11 a unary sign takes 1, a ^ 2 and a parenthesis 28 (a call's 24).
_PARSER_FRAMES = 5800


def _python_source(text: str) -> tuple[str, dict]:
    """text's tokens as Python source, and its numbers by their column there.

    Tokens are joined by one blank, ^ is written ** and each number _, so
    Python reads no number, blank or line break of text: not 01, not an
    integer of 4,301 digits, not a leading blank.  A "," before ")" is
    refused here, since Python would take it for a trailing comma.  Text
    that nests past _PARSER_FRAMES raises RecursionError, as deeper
    recursion later does; a binary operator or "," closes the unary signs
    and ^ open at its parenthesis level.
    """
    parts, numbers, pos, col = [], {}, 0, 0
    opened, frames = [], 0  # the parser frames at each open "(", and now
    while pos < len(text):
        match = _LEXEME.match(text, pos)
        if match is None:
            raise ValueError(f"unexpected character at position {pos}: {text[pos]!r}")
        token = match.group(match.lastgroup)
        if match.lastgroup == "num":
            numbers[col], token = token, "_"
        elif token == "(":
            opened.append(frames)
            frames += 28
        elif token == ")":
            if parts[-1:] == [","]:
                raise ValueError("expected an argument after ','")
            frames = opened.pop() if opened else frames
        elif token == "^":
            frames += 2
        elif token in "+-" and (not parts or parts[-1] in ("+", "-", "*", "/", "**", "(", ",")):
            frames += 1  # a unary sign
        elif token in "+-*/,":
            frames = opened[-1] + 28 if opened else 0
        if frames > _PARSER_FRAMES:
            raise RecursionError("the expression overflows the parser's stack")
        parts.append("**" if token == "^" else token)
        col += len(parts[-1]) + 1
        pos = match.end()
    return " ".join(parts), numbers


def kernel_from_expression(text: str, m: int, symmetric: bool = False,
                           codomain: BanachSpaceDescriptor | None = None) -> Kernel:
    """Compile an arithmetic expression over x1..xm (and i1..im) to a kernel.

    Index variables i1..im take the 1-based index values of the summand;
    using any of them makes the kernel index-weighted.  Tokens: numbers
    (2, 01, 2., 2.5, 1e-3: digits, optionally a point and digits, then
    optionally an exponent), the variables, + - * / ^, parentheses, and
    abs, sign, exp of one argument and min, max of two; blanks and line
    breaks may stand between them.  Anything else is a ValueError: .5,
    1_0, 0x1, 1j, **, a trailing comma, a keyword, an attribute, a
    trailing blank.  ^ is np.power (right associative; -x1^2 is
    -(x1^2)), each number the np.float64 of its text, never folded, and
    arithmetic IEEE: division by zero and invalid powers give inf/nan.
    Python's ast parses the text; each body compiles to one function.

    A scalar expression that is one * / chain at the top level, each
    factor reading one x-variable or none, carries it as one factor term
    (see Kernel), as 3 * x1 * x2 and x1 / 2 * x2 * x1 do, but not
    (x1 * x2) * x2, whose parenthesised chain is one factor.  A chain
    whose factors each read no i-variable or no x-variable, at least one
    of each kind, carries a split (see Kernel): f is the chain of the
    factors without i-variables, constants included, and the weight the
    chain of the rest, each with a leading "/" dividing 1.

    Parsing, checking and compiling recurse on the expression tree, so
    text that nests too deeply for Python's recursion limit (a sum of
    1,000 terms, 3,000 unary minus signs) or for its parser's stack
    (30,000 minus signs, a chain of 3,000 ^) is a ValueError too.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    try:
        return _compiled_kernel(text, m, symmetric, codomain)
    except RecursionError:
        raise ValueError("expression nests too deeply to compile") from None


def _compiled_kernel(text: str, m: int, symmetric: bool, codomain) -> Kernel:
    """kernel_from_expression's work, which may raise RecursionError."""
    xvars = [f"x{j + 1}" for j in range(m)]
    ivars = [f"i{j + 1}" for j in range(m)]
    source, numbers = _python_source(text)
    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        raise ValueError(f"cannot parse {text!r}: {exc.msg}") from None
    # the compiled functions' globals; numbers are names, so none is folded
    namespace = {"__builtins__": {}, "_pow": np.power}
    xset, iset = set(xvars), set(ivars)
    variables = xset | iset
    at = {"lineno": 1, "col_offset": 0}  # where the nodes made here stand
    power = ast.Name("_pow", ast.Load(), **at)

    def checked(node):
        """node if it is in the grammar, with ^ a call of _pow and each
        number and function a name bound in namespace; else a ValueError."""
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)):
            node.left, node.right = checked(node.left), checked(node.right)
            if isinstance(node.op, ast.Pow):  # on np.float64, ** is C pow: (-0.0) ** 0.5 is 0.0
                return ast.Call(power, [node.left, node.right], [], **at)
            return node
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node.operand = checked(node.operand)
            return node
        if isinstance(node, ast.Call):
            # a parenthesised callee starts right of the call
            name = getattr(node.func, "id", None)
            if name not in _FUNCS or node.func.col_offset != node.col_offset:
                raise ValueError(f"unknown function {numbers.get(node.func.col_offset, name)!r}")
            namespace[name], count = _FUNCS[name]
            if len(node.args) != count or node.keywords:  # "f(x1, ^x2)" reads as f(x1, **x2)
                raise ValueError(f"{name} takes {('one argument', 'two arguments')[count - 1]}")
            node.args = [checked(arg) for arg in node.args]
            return node
        if isinstance(node, ast.Name):
            if node.col_offset in numbers:
                node.id = f"_{node.col_offset}"
                namespace[node.id] = np.float64(numbers[node.col_offset])
            elif node.id not in variables:
                allowed = ", ".join(sorted(variables))
                raise ValueError(f"unknown variable {node.id!r}; allowed: {allowed}")
            return node
        raise ValueError(f"unexpected {ast.unparse(node)!r}")

    def reads(node) -> set:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & variables

    def chain(links, params):
        """The function of params computing the * / chain of (op, factor,
        variables read) links, a leading / dividing 1; None for no links."""
        if not links:
            return None
        (op, node, _), *rest = links
        if isinstance(op, ast.Div):
            node = ast.BinOp(ast.Constant(1.0, **at), op, node, **at)
        for op, factor, _ in rest:
            node = ast.BinOp(node, op, factor, **at)
        args = ast.arguments(posonlyargs=[], args=[ast.arg(p, **at) for p in params],
                             kwonlyargs=[], kw_defaults=[], defaults=[])
        code = ast.Expression(ast.Lambda(args, node, **at))
        return eval(compile(code, "<expression>", "eval"), namespace)

    tree = checked(tree)
    # The top-level * / chain, or none under a sum.  ast drops parentheses,
    # but a node that had them starts right of column 0, where every other
    # link of the chain starts.
    links, node = [], tree
    while (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div))
           and node.col_offset == 0):
        links.insert(0, (node.op, node.right, reads(node.right)))
        node = node.left
    links.insert(0, (ast.Mult(), node, reads(node)))
    if isinstance(node, ast.BinOp) and node.col_offset == 0:
        links = []  # a sum at the top level
    weighted = bool(reads(tree) & iset)
    codomain = codomain if codomain is not None else real_line()
    fn = chain([(ast.Mult(), tree, None)], xvars + ivars if weighted else xvars)
    body = (lambda xs, idx: fn(*xs, *idx)) if weighted else (lambda xs, idx: fn(*xs))

    factors = split = None
    if codomain.dimension == 1 and links and all(
            len(read) <= 1 and read <= xset for *_, read in links):
        coef = chain([link for link in links if not link[2]], [])
        with np.errstate(all="ignore"):
            coef = float(coef()) if coef else 1.0
        factors = ((coef, tuple(chain([link for link in links if x in link[2]], [x])
                                for x in xvars)),)
    weight = [link for link in links if link[2] & iset]
    free = [link for link in links if not link[2] & iset]
    if (weight and not any(link[2] & xset for link in weight)
            and any(link[2] & xset for link in free)):
        f, c = chain(free, xvars), chain(weight, ivars)
        split = (Kernel(m, lambda xs, idx: f(*xs), codomain=codomain,
                        name=f"expr:{text}:index-free"), lambda idx: c(*idx))
    return Kernel(m, body, weighted, symmetric, codomain, f"expr:{text}", factors, split)


def kernel_from_config(d: dict) -> Kernel:
    """Build a kernel from a JSON-style mapping: a builtin "name" and its
    parameters, or an "expr" and "symmetric"; "m" (default 2) is the arity.
    Any other key, a non-integer m or a non-boolean flag is a ValueError."""
    if ("name" in d) == ("expr" in d):
        raise ValueError("kernel config needs exactly one of a builtin 'name' and an 'expr'")
    m = json_int(d.get("m", 2), "m")
    if "name" in d:
        params = {k: v for k, v in d.items() if k not in ("name", "m")}
        return builtin_kernel(d["name"], m, **params)
    for key in d:
        if key not in ("expr", "m", "symmetric"):
            raise ValueError(f"unknown key {key!r} for an expression kernel")
    symmetric = d.get("symmetric", False)
    if not isinstance(symmetric, bool):
        raise ValueError(f"symmetric must be true or false, got {symmetric!r}")
    return kernel_from_expression(d["expr"], m, symmetric=symmetric)
