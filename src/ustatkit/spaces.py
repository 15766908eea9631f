"""Finite-dimensional codomains with an l^s norm and their smoothness data.

R^dim under the l^s norm is r-smooth with r = min(s, 2) as soon as s > 1;
the exponent range usable by the inequality machinery is then 1 < p <= r.
The martingale smoothness constant attached to such a space is finite but
has no closed form here, and no code path needs its value.
"""

from __future__ import annotations

import numbers
from collections import namedtuple

import numpy as np

__all__ = [
    "BanachSpaceDescriptor",
    "json_float",
    "json_int",
    "real_line",
]


def json_int(value, name: str = "") -> int:
    """`value` as an int if it is an integer and not a bool: a JSON 2.7 or
    true is a ValueError, and a numpy integer is an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}".lstrip())
    return int(value)


def json_float(value, name: str = "", finite: bool = False) -> float:
    """`value` as a float if it is a real number and not a bool: a JSON "2" or
    true is a ValueError, and so are NaN and inf when `finite` is set."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or finite and not np.isfinite(value)):
        kind = "a finite number" if finite else "a number"
        raise ValueError(f"{name} must be {kind}, got {value!r}".lstrip())
    return float(value)


class BanachSpaceDescriptor(namedtuple("BanachSpaceDescriptor", "dimension norm_exponent")):
    """R^dimension equipped with the l^norm_exponent norm."""

    __slots__ = ()

    def __new__(cls, dimension: int, norm_exponent: float = 2.0):
        if isinstance(dimension, bool) or not isinstance(dimension, numbers.Integral):
            raise ValueError(f"dimension must be an integer, got {dimension!r}")
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        if isinstance(norm_exponent, bool) or not isinstance(norm_exponent, numbers.Real):
            raise ValueError(f"norm_exponent must be a real number, got {norm_exponent!r}")
        if not 1.0 < norm_exponent < np.inf:
            raise ValueError(
                "norm_exponent must be finite and exceed 1; the l^1 norm is "
                "not smooth and supplies no usable exponent range"
            )
        return super().__new__(cls, dimension, norm_exponent)

    # _replace builds through _make, which skips __new__; so validate there too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def smoothness(self) -> float:
        """Smoothness degree r = min(norm_exponent, 2)."""
        return min(self.norm_exponent, 2.0)

    def admissible_p_range(self) -> tuple[float, float]:
        """Open-left, closed-right interval (1, r] of usable exponents p."""
        return (1.0, self.smoothness)

    def contains_p(self, p: float) -> bool:
        lo, hi = self.admissible_p_range()
        return lo < p <= hi

    def norm(self, point) -> float:
        """l^s norm of a single point (scalar allowed when dimension == 1)."""
        arr = np.asarray(point, dtype=np.float64)
        if arr.ndim == 0:
            if self.dimension != 1:
                raise ValueError("scalar point in a space of dimension > 1")
            return float(abs(arr))
        if arr.shape != (self.dimension,):
            raise ValueError(
                f"point has shape {arr.shape}, expected ({self.dimension},)"
            )
        s = self.norm_exponent
        return float(np.sum(np.abs(arr) ** s) ** (1.0 / s))

    def norms(self, batch) -> np.ndarray:
        """Norms of a batch of points.

        In dimension 1 every entry is a point, so the norms keep the batch's
        shape, (B, 1) included.  Otherwise vectors lie along the last axis,
        so a (B, dimension) batch gives shape (B,) and any batch gives its
        leading shape batch.shape[:-1].
        """
        arr = np.asarray(batch, dtype=np.float64)
        if self.dimension == 1:
            return np.abs(arr)
        if arr.ndim < 1 or arr.shape[-1] != self.dimension:
            raise ValueError(
                f"batch has shape {arr.shape}, expected (..., {self.dimension})"
            )
        s = self.norm_exponent
        return np.sum(np.abs(arr) ** s, axis=-1) ** (1.0 / s)

    def zero(self):
        """Additive identity in the engine's point representation."""
        if self.dimension == 1:
            return 0.0
        return np.zeros(self.dimension)

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, d: dict) -> "BanachSpaceDescriptor":
        return cls(
            dimension=json_int(d.get("dimension", 1), "dimension"),
            norm_exponent=json_float(d.get("norm_exponent", 2.0), "norm_exponent"),
        )


def real_line() -> BanachSpaceDescriptor:
    """The default codomain: R with the absolute value."""
    return BanachSpaceDescriptor(dimension=1, norm_exponent=2.0)
